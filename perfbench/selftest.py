#!/usr/bin/env python3
"""Self-test of the benchmark itself; takes about a minute.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks that
* every workload runs at the tiny size, untraced and traced, with every
  end-to-end and per-layer metric of BENCHMARK.json printed with its unit,
  fail_frac and tasks_total among the printed lines, and no failed task;
* a planted wrong answer makes the run report a failure;
* one seed always gives the same task digest and another seed a different one;
* the benchmark refuses python -O, and refuses to run (nonzero exit, no
  result line) outside a checkout;
* compare.py refuses records whose task digests differ.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--size", "tiny", "--seconds", "0"]


def check(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        sys.exit(1)


def run(args, cwd=None, python=RUN):
    return subprocess.run(python + args, capture_output=True, text=True, timeout=170, cwd=cwd)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    import workloads

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    tmp = tempfile.mkdtemp(prefix=".selftest-", dir=".")
    try:
        for w in workloads.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = os.path.join(tmp, f"{w}.jsonl")
                proc = run(["--workload", w, "--seed", "1", "--trace", str(trace), "--out", out] + TINY)
                check(proc.returncode == 0, f"{w} trace={trace}: exit 0")
                res = last_json(proc)
                check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{w} trace={trace}: result keys")
                check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                      f"{w} trace={trace}: all tasks correct")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == want, f"{w} trace={trace}: every {key} metric with its unit")
                for name in want:
                    check(f" {name} " in proc.stdout, f"{w} trace={trace}: {name} printed")
                for name in ("fail_frac", "tasks_total"):
                    check(f" {name} " in proc.stdout, f"{w} trace={trace}: {name} printed")
            proc = run(["--workload", w, "--seed", "1", "--plant-wrong"] + TINY)
            res = last_json(proc)
            check(not res["correct"] and res["failed"] >= 1, f"{w}: a planted wrong answer is caught")
            one, again, other = (workloads.digest(workloads.generate(w, s, "tiny")) for s in (1, 1, 2))
            check(one == again and one != other, f"{w}: digest fixed by the seed")

        proc = run(["--workload", "fp_queries"] + TINY, python=[sys.executable, "-O", RUN[1]])
        check(proc.returncode != 0 and not proc.stdout.strip(), "refuses python -O")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = run(["--workload", "fp_queries"] + TINY, cwd=bare,
                   python=[sys.executable, os.path.join("perfbench", "run.py")])
        check(proc.returncode != 0 and not proc.stdout.strip(), "refuses to run outside a checkout")

        base = os.path.join(tmp, "fp_queries.jsonl")
        with open(base) as f:
            rec = json.loads(f.readline())
        rec["provenance"]["digest"] = "0" * 16
        forged = os.path.join(tmp, "forged.jsonl")
        with open(forged, "w") as f:
            f.write(json.dumps(rec) + "\n")
        proc = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), base, forged],
                              capture_output=True, text=True, timeout=60)
        check(proc.returncode == 2, "compare.py refuses differing task digests")
    finally:
        shutil.rmtree(tmp)
    print("self-test passed")


if __name__ == "__main__":
    main()
