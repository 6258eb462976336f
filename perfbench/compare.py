#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that ``run.py --out FILE`` appends.  The
comparison is refused (exit 2) when the two sides ran different kernel
backends, or when one seed of a workload produced different task digests on
the two sides: such runs measured different programs or inputs.
Otherwise it prints, per workload and end-to-end metric, both medians, the
change as a share of the base median, and whether it is worse than the
metric's bound in BENCHMARK.json.  Exit 1 when any metric is worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def refuse(why):
    print(f"refusing to compare: {why}", file=sys.stderr)
    sys.exit(2)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (load(p) for p in argv)
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    backends = {r["provenance"]["backend"] for r in base + new}
    if len(backends) != 1:
        refuse(f"kernel backend differs: {sorted(backends)}")
    digests = {}
    for side, recs in (("base", base), ("new", new)):
        for r in recs:
            key = (r["workload"], r["seed"])
            if digests.setdefault(key, r["provenance"]["digest"]) != r["provenance"]["digest"]:
                refuse(f"{r['workload']} seed {r['seed']}: task digest differs ({side})")
    worse = False
    print(f"{'workload':<13} {'metric':<13} {'base':>12} {'new':>12} {'change':>8} {'bound':>6}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["e2e"][name] for r in base if r["workload"] == workload and not r["trace"]]
            b = [r["e2e"][name] for r in new if r["workload"] == workload and not r["trace"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse |= bad
            print(f"{workload:<13} {name:<13} {ma:>12.6g} {mb:>12.6g} {change:>+8.1%} {m['bound']:>6.0%}"
                  f"{'  WORSE' if bad else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
