"""Run one traced CLI request: ``python3 bench/cli_launch.py SPANS <cliffbundle args>``.

Installs the tracer's wrappers, then calls ``cliffbundle.cli.main`` as
``python -m cliffbundle`` would.  Stdin, stdout, stderr and the exit
status are the CLI's own; the spans and the per-layer summary go to SPANS.
"""

import sys
import time

import cliffbundle.cli

import_s = time.process_time()

from tracer import Tracer  # noqa: E402  (after the import being timed)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op, tracer.active = 0, True
    try:
        return cliffbundle.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(spans_path, {"argv": argv, "import_s": import_s,
                                 "summary": tracer.summary()})


if __name__ == "__main__":
    sys.exit(main())
