"""Compare two saved run sets (parent and change) metric by metric.

    python3 benchmark/compare.py parent.jsonl change.jsonl

Both files come from one `sweep.py` call with two sides (parent first, then
change), which runs the pairs of a seed back to back and alternates which
side goes first. For every workload and end-to-end metric this prints both
sides' medians and quartiles, how many seed-matched pairs the change won, and
a verdict:

- improved: the change won at least 9/10 of all pairs (ties count for
  neither side) and the medians differ by more than the parent's quartile
  distance, in the better direction;
- unresolved: the parent's own spread is wider than the metric's bound, and
  not every change run reads better than every parent run;
- worse: the change's median is worse than the parent's by more than the bound;
- unchanged: otherwise.

A gain does not count when the change failed more operations than the parent.
"""

import argparse
import sys
from collections import defaultdict
from pathlib import Path

from sweep import load_spec, quartiles, read_runs


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple:
    """parent/change map seed -> value. Returns (wins, pairs, verdict)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (a - b) < 0: a is better than b
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    if seeds and wins >= 0.9 * len(seeds) and sign * (pm - cm) > p3 - p1:
        return wins, len(seeds), "improved"
    all_better = all(sign * (c - p) < 0 for c in change.values() for p in parent.values())
    if (p3 - p1) / abs(pm) > bound and not all_better:
        return wins, len(seeds), "unresolved"
    if sign * (cm - pm) / abs(pm) > bound:
        return wins, len(seeds), "worse"
    return wins, len(seeds), "unchanged"


def collect(runs) -> tuple:
    """(workload, metric) -> {seed: value}, and workload -> failed operations."""
    values = defaultdict(dict)
    failed = defaultdict(int)
    for r in runs:
        if r["trace"]:
            continue
        failed[r["workload"]] += r["result"]["failed"]
        for name, m in r["result"]["metrics"].items():
            values[(r["workload"], name)][r["seed"]] = m["value"]
    return values, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    spec = load_spec()
    parent, parent_failed = collect(read_runs([args.parent]))
    change, change_failed = collect(read_runs([args.change]))
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<18} {'metric':<18} {'parent q1/med/q3':>38} "
          f"{'change q1/med/q3':>38} {'wins':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in parent or key not in change:
                continue
            wins, pairs, result = verdict(parent[key], change[key], metric["better"],
                                          metric["bound"])
            if result == "improved" and change_failed[workload] > parent_failed[workload]:
                result = "unchanged (more failed operations)"
            sides = [" / ".join(f"{v:.5g}" for v in quartiles(list(side[key].values())))
                     for side in (parent, change)]
            print(f"{workload:<18} {metric['name']:<18} {sides[0]:>38} {sides[1]:>38} "
                  f"{wins:>3}/{pairs:<2}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
