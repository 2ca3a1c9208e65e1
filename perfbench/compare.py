"""Compare two sets of untraced benchmark results.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are result files saved by run.py, or directories of them
(for example two copies of .perfbench/results/).  For every workload and
end-to-end metric the script prints each side's median and quartiles, the
change in the median, and a verdict under the metric's bound:

- worse: the change's median is worse than the base's by more than the bound;
- better: the change wins at least 9 in 10 pairs (runs paired by seed where
  both sides ran the same seeds, otherwise every cross pair) and its median
  is better by more than the base's own quartile spread;
- same: neither of the above;
- unresolved: either side's quartile spread exceeds the bound, unless every
  change run is better (or worse) than every base run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import metrics as M


def load(path: Path):
    """Untraced results under a file or directory, as {workload: [result]}."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        with open(f) as fh:
            res = json.load(fh)
        if res.get("trace") == 0:
            out.setdefault(res["workload"], []).append(res)
    return out


def _pairs(base, change):
    """(base value, change value) pairs, matched by seed when possible."""
    by_seed = {s: v for s, v in base}
    matched = [(by_seed[s], v) for s, v in change if s in by_seed]
    if matched:
        return matched
    return [(b, c) for _, b in base for _, c in change]


def verdict(base, change, better: str, bound: float):
    """base and change are lists of (seed, value); returns (verdict, shift),
    where shift is the change in the median as a share of the base median,
    positive when worse."""
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = M.quartiles(v for _, v in base)
    cq1, cmed, cq3 = M.quartiles(v for _, v in change)
    shift = sign * (cmed - bmed) / bmed
    b_spread = (bq3 - bq1) / bmed
    c_spread = (cq3 - cq1) / cmed
    every_better = all(sign * c < sign * b for _, b in base for _, c in change)
    every_worse = all(sign * c > sign * b for _, b in base for _, c in change)
    if max(b_spread, c_spread) > bound:
        if every_better:
            return "better", shift
        if every_worse:
            return "worse", shift
        return "unresolved", shift
    if shift > bound:
        return "worse", shift
    pairs = _pairs(base, change)
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if wins >= 0.9 * len(pairs) and -shift > b_spread:
        return "better", shift
    return "same", shift


def compare(base: dict, change: dict):
    """Rows of (workload, metric, unit, base stats, change stats, shift, verdict)."""
    rows = []
    for workload in M.ALL:
        if workload not in base or workload not in change:
            continue
        for name, unit, better, bound in M.END_TO_END:
            b = [(r["seed"], r["metrics"][name]["value"]) for r in base[workload]]
            c = [(r["seed"], r["metrics"][name]["value"]) for r in change[workload]]
            v, shift = verdict(b, c, better, bound)
            rows.append((workload, name, unit, M.quartiles(x for _, x in b),
                         M.quartiles(x for _, x in c), shift, v, len(b), len(c)))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    rows = compare(load(args.base), load(args.change))
    if not rows:
        print("error: no workload has untraced results on both sides", file=sys.stderr)
        return 1
    print("%-13s %-12s %-6s %-34s %-34s %8s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3] (n)",
        "change median [q1, q3] (n)", "worse by", "verdict"))
    for w, name, unit, (b1, bm, b3), (c1, cm, c3), shift, v, nb, nc in rows:
        print("%-13s %-12s %-6s %-34s %-34s %+7.1f%%  %s" % (
            w, name, unit, "%.5g [%.5g, %.5g] (%d)" % (bm, b1, b3, nb),
            "%.5g [%.5g, %.5g] (%d)" % (cm, c1, c3, nc), 100 * shift, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
