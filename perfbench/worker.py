"""One pass of one workload in a fresh interpreter; prints one JSON line.

The pass reads the task list (JSON, made by run.py from the seed) on
standard input, does the set-up, then runs every task in order, timing each
call alone.  The reference loop of calib.py runs between calls, and each
call's time is scaled to reference machine speed by the samples just before
and just after it.  Peak memory is read as soon as the list is done.  Only
then are the answers checked against the oracles (``--check 1``) and hashed,
so that run.py can hold the answers of every other pass to those of the
checked one.  With ``--trace 1`` the package is instrumented (see spans.py)
before the first task and the per-layer numbers are added.

Started by run.py; not meant to be run by hand.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

import calib
import probe
import spans
import workloads


def peak_rss_mb():
    """Peak resident memory of this process.

    ``ru_maxrss`` from ``resource.getrusage`` is the fallback only: on Linux
    it keeps the peak of the parent's address space from before ``exec``, so
    it would count run.py's memory.  VmHWM starts afresh at ``exec``.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--check", type=int, default=1, choices=(0, 1))
    ap.add_argument("--plant-wrong", action="store_true")
    args = ap.parse_args()
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: it strips the library's result checks")

    tasks = json.load(sys.stdin)
    E, fields, binary_setup_s = probe.setup(args.workload, workloads.fields(args.workload, args.size))
    tracer = spans.install(E) if args.trace else None
    runner = workloads.Runner(E, fields, tasks)
    latencies, raw_wall_s = [], 0.0
    clock = time.perf_counter
    calib.warm_up()
    before = calib.sample()
    for task in tasks:
        t0 = clock()
        try:
            fn, call_args = runner.prepare(task)
            t0 = clock()
            out = fn(*call_args)
        except Exception as e:  # an unexpected raise is a failed task, not a crash
            out = e
        elapsed = clock() - t0
        after = calib.sample()
        latencies.append(calib.scale(elapsed, before, after))
        raw_wall_s += elapsed
        before = after
        runner.results.append(out)
    rss_mb = peak_rss_mb()

    if args.plant_wrong:
        runner.plant_wrong_answer()
    failures = []
    for i in range(len(tasks) if args.check else 0):
        why = runner.check(i)
        if why:
            failures.append(f"task {i}: {why}")
    out = {
        "backend": E.kernel.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "tasks": len(tasks),
        "wall_s": sum(latencies),
        "raw_wall_s": raw_wall_s,
        "latencies_s": latencies,
        "peak_rss_mb": rss_mb,
        "answers": [hashlib.sha256(repr(r).encode()).hexdigest()[:16] for r in runner.results],
        "failed": len(failures),
        "failures": failures[:5],
        "binary_setup_s": binary_setup_s,
    }
    if tracer is not None:
        out["layers"] = spans.metrics(tracer, E.InvalidParams)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
