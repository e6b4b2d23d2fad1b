"""One round of an in-process workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED ROUND [--setup-only] [--trace SPANS]

The program's own import comes first, so that ``import_s`` (the CPU
seconds from the interpreter's start until ``cliffbundle.cli`` is
loaded) holds no code of the benchmark's; the rest is in inprocess.py.
"""

import sys
import time

import cliffbundle.cli  # noqa: F401  (what `python -m cliffbundle` loads before main)

IMPORT_S = time.process_time()

import inprocess  # noqa: E402  (after the import being timed)

if __name__ == "__main__":
    sys.exit(inprocess.main(sys.argv[1:], IMPORT_S))
