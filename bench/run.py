"""The cliffbundle benchmark.  Standard library only; see bench/README.md.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py [--runs K] [--seed N] [--out FILE]   # every workload
    python3 bench/run.py --compare A.json B.json

A run performs whole rounds of a fixed, seeded mix of operations; the
number of rounds follows from --seconds and the time a round takes on
the reference machine, never from a clock.  Operations are timed
in CPU seconds (user + system) of the process doing the work, scaled to
a reference speed of the machine (calibrate.py); checks run outside
the timed spans, and the last line printed is one JSON object with
"correct", "attempted", "failed" and "metrics".  With --trace 1 the
run times one round untraced and the same round traced, and reports the
per-layer metrics of bench/tracer.py plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import cli_requests  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ["cli-requests", "dense-kernels", "check-suites"]
# seconds one round takes on the reference machine (2 cores, Python
# 3.11.7), checks included, and the fewest rounds that give 100 operations
ROUND_S = {"cli-requests": 10.0, "dense-kernels": 10.0, "check-suites": 7.5}
MIN_ROUNDS = {"cli-requests": 2, "dense-kernels": 2, "check-suites": 2}
SETUP_PER_GAP = 3
REPLAY_EVERY = 10
CHILD_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("ops_per_s", "ops/s"), ("ops_per_s.q", "ops/s"),
              ("ops_per_s.gfp", "ops/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mib", "MiB")]
TRACE_EXTRA = [("trace.ops_per_s", "ops/s"), ("trace.ops_per_s_untraced", "ops/s"),
               ("trace.overhead", "ratio")]


class BenchError(Exception):
    """The benchmark could not run the program."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run_child(argv, stdin=""):
    """Run one process to its end; returns (exit code, stdout, stderr, its
    CPU seconds).  Children are run one at a time, so the growth of the
    reaped-children CPU total is this child's."""
    before = children_cpu()
    proc = subprocess.run([sys.executable] + argv, input=stdin, capture_output=True,
                          text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, children_cpu() - before


def rounds_for(workload: str, seconds: int) -> int:
    return max(MIN_ROUNDS[workload], round(seconds / ROUND_S[workload]))


def setup_samples(workload: str, seed: int):
    """Records of fresh interpreters that import the program and build
    round 0's inputs as program objects, each between two speed probes.
    Each child reports its own set-up CPU (worker.py), which leaves out
    the benchmark's imports and its drawing of raw inputs."""
    argv = [str(BENCH / "worker.py"), workload, str(seed), "0", "--setup-only"]
    records = []
    before = calibrate.probe()
    for _ in range(SETUP_PER_GAP):
        code, out, err, _ = run_child(argv)
        if code != 0:
            raise BenchError(f"set-up failed: {err.strip()[-300:]}")
        after = calibrate.probe()
        records.append(["setup", "-", json.loads(out)["setup_s"], False, before, after])
        before = after
    return records


# ------------------------------------------------------------ executions
#
# An execution runs one round and returns (records, errors, traced
# summaries, import seconds); a record is [operation, field group, CPU
# seconds, failed, probe before, probe after].


def cli_execute(reqs, spans_dir: Path | None = None):
    """Each request as its own process, checked against the reference.
    A sample of the requests runs twice: the CLI promises byte-identical
    output for identical requests."""
    records, errors, summaries, imports = [], [], [], []
    before = calibrate.probe()
    for i, req in enumerate(reqs):
        if spans_dir is None:
            argv = ["-m", "cliffbundle"] + req.argv
        else:
            spans = spans_dir / f"request-{i:03d}.jsonl"
            argv = [str(BENCH / "cli_launch.py"), str(spans)] + req.argv
        code, out, err, cpu = run_child(argv, req.stdin)
        after = calibrate.probe()
        failed, problem = cli_requests.judge(req, code, out, err)
        if problem:
            errors.append(f"{req.name}: {problem}")
        elif not req.malformed and i % REPLAY_EVERY == 0:
            again = run_child(["-m", "cliffbundle"] + req.argv, req.stdin)
            if again[:2] != (code, out):
                errors.append(f"{req.name}: a second run gave different output")
            after = calibrate.probe()
        records.append([req.name, "q" if req.p == 0 else "gfp", cpu, failed, before, after])
        before = after
        if spans_dir is not None:
            with open(spans, encoding="utf-8") as fh:
                head = json.loads(fh.readline())
            summaries.append(head["summary"])
            imports.append(head["import_s"])
    return records, errors, summaries, imports


def worker_execute(workload: str, seed: int, rnd: int, spans_dir: Path | None = None):
    argv = [str(BENCH / "worker.py"), workload, str(seed), str(rnd)]
    if spans_dir is not None:
        argv += ["--trace", str(spans_dir / f"round-{rnd}.jsonl")]
    code, out, err, _ = run_child(argv)
    if code != 0:
        raise BenchError(f"{workload} worker failed: {err.strip()[-500:]}")
    report = json.loads(out.splitlines()[-1])
    summaries = [report["summary"]] if "summary" in report else []
    return report["ops"], report["errors"], summaries, [report["import_s"]]


def execute(workload, seed, rnd, spans_dir=None):
    if workload == "cli-requests":
        return cli_execute(cli_requests.round_requests(seed, rnd), spans_dir)
    return worker_execute(workload, seed, rnd, spans_dir)


# ------------------------------------------------------------ metrics


def rate(records) -> float:
    done = [r for r in records if not r[3]]
    cpu = sum(r[2] for r in done)
    return len(done) / cpu if cpu else 0.0


def end_to_end(records, setup) -> dict:
    done = [r[2] for r in records if not r[3]]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": rate(records),
        "ops_per_s.q": rate([r for r in records if r[1] == "q"]),
        "ops_per_s.gfp": rate([r for r in records if r[1] == "gfp"]),
        "latency_p50_ms": 1000 * statistics.median(done),
        "latency_p90_ms": 1000 * statistics.quantiles(done, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced, traced, summaries, imports, speed) -> dict:
    """Per-layer metrics; times are scaled by the traced round's speed
    factor (scaled over raw CPU time of its operations)."""
    layer = tracer.merge(summaries)
    layer["cli.import_s"] = statistics.median(imports)
    out = {}
    for name in tracer.metric_names():
        unit = _layer_unit(name)
        value = layer.get(name, 0)
        out[name] = {"value": value * speed if unit == "s" else value, "unit": unit}
    fast, slow = rate(untraced), rate(traced)
    extra = {"trace.ops_per_s": slow, "trace.ops_per_s_untraced": fast,
             "trace.overhead": fast / slow if slow else 0.0}
    out.update({name: {"value": extra[name], "unit": unit} for name, unit in TRACE_EXTRA})
    return out


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def run_traced(workload, seed):
    """Round 0 once untraced and once traced."""
    untraced, errors, _, _ = execute(workload, seed, 0)
    spans_dir = RESULTS / f"trace-{workload}-seed{seed}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    traced, errs, summaries, imports = execute(workload, seed, 0, spans_dir)
    raw = sum(r[2] for r in traced)
    untraced, traced = calibrate.scaled(untraced), calibrate.scaled(traced)
    speed = sum(r[2] for r in traced) / raw if raw else 1.0
    return (untraced + traced, errors + errs,
            per_layer(untraced, traced, summaries, imports, speed))


def run_untraced(workload, seed, seconds):
    """The run's rounds, with set-up samples before, between and after."""
    code, _, err, _ = run_child(["-c", "import cliffbundle.cli"])  # fills the byte-code cache
    if code != 0:
        raise BenchError(f"cannot import cliffbundle from {SRC}: {err.strip()[-300:]}")
    setup, records, errors = setup_samples(workload, seed), [], []
    for rnd in range(rounds_for(workload, seconds)):
        recs, errs, _, _ = execute(workload, seed, rnd)
        records += recs
        errors += errs
        setup += setup_samples(workload, seed)
    setup, records = calibrate.scaled(setup), calibrate.scaled(records)
    return records, errors, end_to_end(records, [r[2] for r in setup])


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if trace:
        records, errors, metrics = run_traced(workload, seed)
    else:
        records, errors, metrics = run_untraced(workload, seed, seconds)
    result = {"correct": not errors, "attempted": len(records),
              "failed": sum(1 for r in records if r[3]), "metrics": metrics}
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "result": result, "errors": errors, "ops": records}
    (RESULTS / result_name(workload, seed, trace)).write_text(json.dumps({"runs": [record]}))
    return record


def result_name(workload, seed, trace) -> str:
    return f"{workload}-seed{seed}{'-trace' if trace else ''}.json"


def print_run(record):
    res = record["result"]
    print(f"# {record['workload']} seed {record['seed']}: attempted {res['attempted']}, "
          f"failed {res['failed']}, correct {res['correct']}")
    for err in record["errors"][:10]:
        print(f"#   error: {err}")
    for name, m in res["metrics"].items():
        print(f"{record['workload']} {name} {m['value']:.6g} {m['unit']}")


# ------------------------------------------------------------ comparison


def load_runs(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def summarize(runs):
    """workload -> metric -> (median, first quartile, third quartile, unit)."""
    by = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            by.setdefault(run["workload"], {}).setdefault(name, ([], m["unit"]))[0].append(m["value"])
    out = {}
    for w, metrics in by.items():
        for name, (vals, unit) in metrics.items():
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            out.setdefault(w, {})[name] = (statistics.median(vals), q[0], q[2], unit)
    return out


def compare(path_a, path_b):
    spec = {}
    if (ROOT / "BENCHMARK.json").exists():
        meta = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = {m["name"]: m for m in meta["end_to_end"] + meta["per_layer"]}
    a, b = summarize(load_runs(path_a)), summarize(load_runs(path_b))
    print(f"A = {path_a}\nB = {path_b}\nratio = median B / median A (base: A)")
    print(f"{'workload':14} {'metric':34} {'unit':6} {'A median':>12} {'A IQR%':>7} "
          f"{'B median':>12} {'B IQR%':>7} {'B/A':>7}  verdict")
    for w in [w for w in WORKLOADS if w in a and w in b]:
        for name in a[w]:
            if name not in b[w]:
                continue
            ma, qa1, qa3, unit = a[w][name]
            mb, qb1, qb3, _ = b[w][name]
            ratio = mb / ma if ma else float("nan")
            verdict = ""
            m = spec.get(name)
            if m and ma:
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                verdict = "better" if worse < 0 else "worse" if worse > 0 else "same"
                if "bound" in m and worse > m["bound"]:
                    verdict += " (beyond bound)"
            print(f"{w:14} {name:34} {unit:6} {ma:12.6g} {_iqr(ma, qa1, qa3):7} "
                  f"{mb:12.6g} {_iqr(mb, qb1, qb3):7} {ratio:7.4f}  {verdict}")


def _iqr(median, q1, q3):
    return f"{100 * (q3 - q1) / median:.1f}" if median else "-"


# ------------------------------------------------------------ entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs of each workload, seeds N, N+1, ...")
    parser.add_argument("--out", default=str(RESULTS / "BENCH.json"),
                        help="without --workload: where to write every run")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "cliffbundle" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and its children, so that the speed probes
    # run where the work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload:
            record = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
            print_run(record)
            print(json.dumps(record["result"]))
            return 0
        runs = []
        for k in range(args.runs):
            for w in WORKLOADS:
                # a fresh process per run, as the peak-memory figure is per process tree
                argv = [str(Path(__file__).resolve()), "--workload", w, "--seed",
                        str(args.seed + k), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)]
                proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True)
                sys.stdout.write(proc.stdout)
                if proc.returncode != 0:
                    raise BenchError(f"{w} run failed: {proc.stderr.strip()[-500:]}")
                runs += load_runs(RESULTS / result_name(w, args.seed + k, bool(args.trace)))
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({"runs": runs}))
        print(f"# wrote {args.out}")
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
