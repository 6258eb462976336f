#!/usr/bin/env python3
"""The repository's end-to-end and per-layer benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fp_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each workload is a seeded list of calls into the public API (workloads.py).
This script makes the list once and runs it in fresh interpreters, one at a
time and never in parallel: set-up probes (probe.py) and whole passes over
the task list (worker.py), for at least ``--seconds`` and three passes.
Every timing is scaled to reference machine speed with the reference loop of
calib.py, run just before and just after it.  The first pass's answers are checked against tests/oracles.py after the
timers stop; every later pass must give the same answers.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and instrumented passes and reports the
per-layer metrics, ``trace.overhead_s`` being the difference of their wall
times.  Human-readable lines go first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also appends the full record, provenance included, as a JSON
line that compare.py reads.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import calib  # noqa: E402

PROBES_PER_PASS = 3  # set-up probes before each untraced pass
MIN_PASSES = 3  # untraced passes in a run without tracing
CHILD_TIMEOUT_S = 60
RUN_CAP_S = 90  # no new pass starts after this much time, so a run ends within 180 s

def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONOPTIMIZE", None)
    return env


def probe_setup(workload, descriptors):
    """Seconds from spawning a fresh interpreter to its ``ready`` line."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, *descriptors]
    before = calib.sample()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit(f"set-up probe for {workload} timed out")
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return calib.scale(elapsed, before, calib.sample())


def run_pass(workload, tasks_json, size, trace, plant_wrong, checked=None):
    """One pass in a fresh interpreter.  The first pass (``checked`` None) has
    its answers checked against the oracles; every later one must give the
    same answers, task by task."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--size", size, "--trace", str(trace), "--check", "1" if checked is None else "0"]
    if plant_wrong:
        cmd.append("--plant-wrong")
    try:
        proc = subprocess.run(cmd, input=tasks_json, capture_output=True, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} pass timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if checked is not None:
        differ = [i for i, (a, b) in enumerate(zip(result["answers"], checked["answers"])) if a != b]
        result["failed"] = len(differ)
        result["failures"] = [f"task {i}: answer differs from the checked pass" for i in differ[:5]]
    return result


def percentile(sorted_values, q):
    """Nearest-rank percentile; also returns how many samples lie beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_workload(workload, args):
    import workloads

    tasks = workloads.generate(workload, args.seed, args.size)
    tasks_json = json.dumps(tasks)
    descriptors = workloads.fields(workload, args.size)
    begin = time.monotonic()
    untraced, traced, setup = [], [], []
    min_passes = 1 if args.trace else MIN_PASSES
    calib.warm_up()
    while not untraced or (
            (len(untraced) < min_passes or time.monotonic() - begin < args.seconds)
            and time.monotonic() - begin < RUN_CAP_S):
        if not args.trace:
            setup += [probe_setup(workload, descriptors) for _ in range(PROBES_PER_PASS)]
        first = untraced[0] if untraced else None
        untraced.append(run_pass(workload, tasks_json, args.size, 0, args.plant_wrong, first))
        if args.trace:
            traced.append(run_pass(workload, tasks_json, args.size, 1, args.plant_wrong, untraced[0]))
    passes = untraced + traced
    first = passes[0]
    attempted = sum(p["tasks"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Each task's time, scaled to reference speed, is its median over the
    # untraced passes: this drops the few timings that another process on
    # the host cut into, and those whose reference samples missed a change
    # of machine speed.
    best = sorted(map(statistics.median, zip(*(p["latencies_s"] for p in untraced))))
    p50, _ = percentile(best, 0.50)
    p99, beyond = percentile(best, 0.99)
    med = lambda key, ps=untraced: statistics.median(p[key] for p in ps)  # noqa: E731
    e2e = {
        "wall_s": sum(best),
        "task_p50_ms": p50 * 1e3,
        "task_p99_ms": p99 * 1e3,
        "peak_rss_mb": med("peak_rss_mb"),
        "fail_frac": failed / attempted,
        "tasks_total": first["tasks"],
    }
    if setup:
        e2e["setup_s"] = statistics.median(setup)
    layers = {}
    if args.trace:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["field.binary.setup_s"] = med("binary_setup_s", traced)
        layers["trace.overhead_s"] = med("wall_s", traced) - med("wall_s")
    return {
        "workload": workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "provenance": {
            "backend": first["backend"],
            "python": first["python"],
            "nproc": first["nproc"],
            "seed": args.seed,
            "digest": workloads.digest(tasks),
            "machine": platform.machine(),
        },
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "beyond_p99": beyond,
        "raw_wall_s": med("raw_wall_s"),  # unscaled, for comparison with wall_s
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p["failures"]][:5],
        "e2e": e2e,
        "layers": layers,
    }


def describe(rec, spec):
    """Every metric on its own line: workload, name, value, unit, note."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(fail_frac="ratio", tasks_total="count")
    pv = rec["provenance"]
    print(f"== {rec['workload']}  seed {pv['seed']}  digest {pv['digest']}  backend {pv['backend']}  "
          f"python {pv['python']}  nproc {pv['nproc']}  passes {rec['passes']}")
    e = rec["e2e"]
    notes = {
        "setup_s": f"median of {PROBES_PER_PASS * rec['passes']['untraced']} fresh interpreters",
        "wall_s": f"sum of each task's median time over {rec['passes']['untraced']} untraced passes",
        "task_p99_ms": f"{e['tasks_total']} tasks a pass, {rec['beyond_p99']} beyond p99",
        "fail_frac": f"{rec['failed']} of {rec['attempted']} attempted",
    }
    for name, value in list(e.items()) + sorted(rec["layers"].items()):
        print(f"  {rec['workload']:<13} {name:<30} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    for f in rec["failures"]:
        print(f"  FAILED {f}")


def result_line(rec, spec):
    """The last output line: end-to-end metrics untraced, per-layer ones traced."""
    wanted = spec["per_layer"] if rec["trace"] else spec["end_to_end"]
    source = rec["layers"] if rec["trace"] else rec["e2e"]
    return {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="'tiny' is the self-test's size")
    ap.add_argument("--plant-wrong", action="store_true",
                    help="corrupt one answer before the checks (self-test)")
    ap.add_argument("--out", help="append the full record as a JSON line to this file")
    args = ap.parse_args()
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        sys.exit("refusing to run under python -O: it strips the library's result checks")
    missing = [p for p in ("src/ectorsion/__init__.py", "tests/oracles.py") if not os.path.isfile(p)]
    if missing:
        sys.exit(f"run from the root of an ectorsion checkout; missing {', '.join(missing)}")
    spec = load_spec()
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    results = {}
    for name in names:
        rec = run_workload(name, args)
        describe(rec, spec)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(rec) + "\n")
        results[name] = result_line(rec, spec)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


if __name__ == "__main__":
    main()
