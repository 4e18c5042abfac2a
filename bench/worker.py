"""One pass over a workload in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED TRACE_FILE|- [--setup-only]

Prints one JSON line: the set-up end time (CLOCK_MONOTONIC, so that the
parent can subtract the time it started this process), per-operation
latencies and verdicts, the process's peak resident memory and, when
TRACE_FILE is not '-', the per-layer trace totals; the spans themselves
are written to TRACE_FILE.  ``--setup-only`` stops after set-up.
"""

import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402  (imports eqcohom)


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _run_ops(ops, tracer):
    """Time each operation, then check it outside the timed region."""
    latencies, failed = [], []
    for index, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(index, op.run) if tracer else op.run()
        except Exception as exc:  # an operation that raises counts as failed
            latencies.append(time.perf_counter() - t0)
            failed.append(f"{op.label}: {exc!r}")
            continue
        latencies.append(time.perf_counter() - t0)
        if not op.check(result):
            failed.append(op.label)
    return latencies, failed


def main(argv):
    workload, seed, trace_file = argv[0], int(argv[1]), argv[2]
    ops = workloads.WORKLOADS[workload](random.Random(seed))
    tracer = None
    if trace_file != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_end = _clock()
    if "--setup-only" in argv:
        print(json.dumps({"setup_end": setup_end}))
        return
    latencies, failed = _run_ops(ops, tracer)
    report = {
        "setup_end": setup_end,
        "latencies": latencies,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        report["trace"] = tracer.report(len(ops))
        with open(trace_file, "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "ops": [op.label for op in ops],
                       "spans": tracer.spans}, fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
