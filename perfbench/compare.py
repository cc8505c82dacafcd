#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py A.jsonl B.jsonl

Each file holds the results that main.exe appends with --out, one line per
run; traced runs are skipped. For every (workload, end-to-end metric) pair
it prints each side's median and quartiles over its runs, as
statistics.quantiles(values, n=4) gives them, and a verdict for B against A:

  better, worse  the medians differ by more than the metric's bound
  same           they differ by less
  unresolved     a side has fewer than two runs, or its quartile spread, as
                 a share of its median, is wider than the bound, and not
                 every run of B beats (or loses to) every run of A

Exits 1 when any pair is worse, else 0.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["trace"]:
                continue
            for name, m in r["metrics"].items():
                runs.setdefault((r["workload"], name), []).append(m["value"])
    return runs


def sweep(a, b, better):
    """'better' or 'worse' when every run of B beats, or loses to, every
    run of A; else 'unresolved'."""
    def worse(x, y):
        return x > y if better == "lower" else x < y

    if all(worse(y, x) for x in a for y in b):
        return "worse"
    if all(worse(x, y) for x in a for y in b):
        return "better"
    return "unresolved"


def verdict(a, b, better, bound):
    if len(a) < 2 or len(b) < 2:
        return "unresolved", None
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    change = (qb[1] - qa[1]) / qa[1] * (1 if better == "lower" else -1)
    if spread > bound:
        return sweep(a, b, better), (qa, qb)
    if change > bound:
        return "worse", (qa, qb)
    if change < -bound:
        return "better", (qa, qb)
    return "same", (qa, qb)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load(argv[0]), load(argv[1])
    any_worse = False
    for workload in sorted({w for w, _ in a} | {w for w, _ in b}):
        for m in metrics:
            key = (workload, m["name"])
            if key not in a or key not in b:
                continue
            v, q = verdict(a[key], b[key], m["better"], m["bound"])
            any_worse |= v == "worse"
            if q is None:
                sides = "fewer than two runs"
            else:
                sides = "  ".join(
                    f"{s} {x[1]:.6g} [{x[0]:.6g}, {x[2]:.6g}]"
                    for s, x in zip("AB", q))
            print(f"{workload:13} {m['name']:13} {sides}  {m['unit']}  "
                  f"bound {m['bound']:.0%}: {v}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
