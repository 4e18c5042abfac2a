"""eqcohom benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eqcohom is imported from ``src``.
Every pass over a workload runs in a fresh worker process (bench/worker.py),
so each pass starts with cold in-program state, as each CLI call does.
Passes repeat while the next one is expected to end within ``--seconds``
(at least one pass runs).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
each the median over the run's passes.  With ``--trace 1`` one traced pass
gives the per-layer metrics (bench/tracer.py), untraced passes fill the rest
of the time, and ``trace.overhead_s`` is the traced pass's wall time minus
the untraced median.  Span files go to ``.bench_trace/``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
SETUP_SAMPLES = 5      # set-up is timed in at least this many processes per run
RUN_LIMIT_S = 170      # every run must end within 180 s


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    pass


def spawn(workload, seed, trace_file, started, setup_only=False):
    """Run one worker process; return its report with set-up time added."""
    argv = [sys.executable, WORKER, workload, str(seed), trace_file]
    if setup_only:
        argv.append("--setup-only")
    remaining = RUN_LIMIT_S - (_clock() - started)
    if remaining <= 0:
        raise BenchError("run limit reached")
    t_spawn = _clock()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # subprocess.run killed and reaped it
        raise BenchError(f"worker exceeded the run limit: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - t_spawn
    report["process_s"] = _clock() - t_spawn
    return report


def run_passes(workload, seed, seconds, started, passes):
    """Untraced passes until the next one would overrun ``seconds``."""
    while True:
        passes.append(spawn(workload, seed, "-", started))
        typical = statistics.median(p["process_s"] for p in passes)
        if _clock() - started + typical > seconds:
            return passes


def end_to_end(passes, setups):
    return {
        "wall_s": statistics.median(sum(p["latencies"]) for p in passes),
        "op_p50_s": statistics.median(statistics.median(p["latencies"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = _clock()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not os.path.isdir(os.path.join(ROOT, "src", "eqcohom")):
        raise BenchError("no eqcohom sources under src/: run from a source checkout")

    passes = []
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_trace"), exist_ok=True)
        trace_file = os.path.join(ROOT, ".bench_trace", f"{args.workload}-seed{args.seed}.json")
        traced = spawn(args.workload, args.seed, trace_file, started)
        run_passes(args.workload, args.seed, args.seconds, started, passes)
        values = traced["trace"]
        untraced_wall = statistics.median(sum(p["latencies"]) for p in passes)
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        wanted = spec["per_layer"]
        passes.append(traced)
    else:
        run_passes(args.workload, args.seed, args.seconds, started, passes)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "-", started, setup_only=True)["setup_s"])
        values = end_to_end(passes, setups)
        wanted = spec["end_to_end"]

    failures = [label for p in passes for label in p["failed"]]
    for label in sorted(set(failures)):
        print(f"FAILED: {label}", file=sys.stderr)
    attempted = sum(len(p["latencies"]) for p in passes)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
