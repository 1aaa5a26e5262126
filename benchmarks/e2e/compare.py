"""A/B comparison of end-to-end benchmark results (parent vs change).

    python3 benchmarks/e2e/compare.py --parent p0.json ... p9.json \\
        --change c0.json ... c9.json

Each file is a ``run.py --out`` result; pair ``i`` is ``(parent[i],
change[i])``, so run them alternately (parent first on even pairs,
change first on odd ones) with the same ``--seconds`` and ``--trace``.
At least 10 pairs are required.

For every workload and metric the tool prints each side's median and
quartiles and the share of pairs the change won (ties count for
neither), then a verdict, using the bounds and directions in
``BENCHMARK.json``:

* ``gain``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile distance; void when the
  change failed more items than the parent.
* ``regression``: the change's median is worse than the parent's by
  more than the bound.
* ``unresolved``: either side's spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run.
* ``within bound`` otherwise.  Per-layer metrics have no bound: they
  get ``gain``, ``loss`` (the same rule the other way) or ``-``.

Exit status 1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import metrics

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
GAIN_SHARE = 0.9


def load(paths: Sequence[str]) -> List[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def _won(parent: float, change: float, lower: bool) -> int:
    """+1 when the change reads better, -1 when worse, 0 on a tie."""
    if change == parent:
        return 0
    return 1 if (change < parent) == lower else -1


def verdict(parent: List[float], change: List[float], lower: bool,
            bound: Optional[float], more_failures: bool) -> dict:
    """Statistics and verdict of one metric over paired runs."""
    p1, p_med, p3 = metrics.quartiles(parent)
    c1, c_med, c3 = metrics.quartiles(change)
    outcomes = [_won(p, c, lower) for p, c in zip(parent, change)]
    pairs = len(outcomes)
    won = outcomes.count(1)
    lost = outcomes.count(-1)
    better_median = _won(p_med, c_med, lower) == 1
    gain = (won >= GAIN_SHARE * pairs and better_median
            and abs(c_med - p_med) > p3 - p1)
    loss = (lost >= GAIN_SHARE * pairs and not better_median
            and abs(c_med - p_med) > c3 - c1)
    if bound is None:
        label = "gain" if gain else "loss" if loss else "-"
    else:
        worse_by = (c_med - p_med) if lower else (p_med - c_med)
        worse_share = worse_by / abs(p_med) if p_med else 0.0
        all_better = (max(change) < min(parent)) if lower \
            else (min(change) > max(parent))
        noisy = max(metrics.spread(parent), metrics.spread(change)) \
            > bound
        if gain:
            label = "gain (void: more failures)" if more_failures \
                else "gain"
        elif worse_share > bound:
            label = "regression"
        elif noisy and not all_better:
            label = "unresolved"
        else:
            label = "within bound"
    return {"parent": (p_med, p1, p3), "change": (c_med, c1, c3),
            "won": won, "pairs": pairs, "verdict": label}


def compare(parent_runs: List[dict], change_runs: List[dict],
            benchmark: dict) -> Dict[str, Dict[str, dict]]:
    """``{workload: {metric: verdict}}`` over the paired runs."""
    specs = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    specs.update({entry["name"]: entry for entry in benchmark["per_layer"]})
    report: Dict[str, Dict[str, dict]] = {}
    workloads = [name for name in parent_runs[0]["workloads"]
                 if all(name in run["workloads"]
                        for run in parent_runs + change_runs)]
    for workload in workloads:
        sides = [[run["workloads"][workload] for run in runs]
                 for runs in (parent_runs, change_runs)]
        more_failures = sum(s["failed"] for s in sides[1]) \
            > sum(s["failed"] for s in sides[0])
        rows = {}
        for name, spec in specs.items():
            if not all(name in s["metrics"] for side in sides
                       for s in side):
                continue
            parent, change = ([s["metrics"][name]["value"] for s in side]
                              for side in sides)
            rows[name] = verdict(parent, change,
                                 spec["better"] == "lower",
                                 spec.get("bound"), more_failures)
        report[workload] = rows
    return report


def _fmt(triple) -> str:
    median, q1, q3 = triple
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare paired parent/change benchmark results.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of files")
    if len(args.parent) < MIN_PAIRS:
        parser.error(f"need at least {MIN_PAIRS} pairs, got "
                     f"{len(args.parent)}")
    parent_runs, change_runs = load(args.parent), load(args.change)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = compare(parent_runs, change_runs, benchmark)
    regressions = 0
    for workload, rows in report.items():
        failed = [sum(run["workloads"][workload]["failed"] for run in runs)
                  for runs in (parent_runs, change_runs)]
        print(f"[{workload}] {len(args.parent)} pairs; failed items: "
              f"parent {failed[0]}, change {failed[1]}")
        print(f"  {'metric':<30} {'parent median [Q1, Q3]':<36} "
              f"{'change median [Q1, Q3]':<36} {'won':>6}  verdict")
        for name, row in rows.items():
            regressions += row["verdict"] == "regression"
            print(f"  {name:<30} {_fmt(row['parent']):<36} "
                  f"{_fmt(row['change']):<36} "
                  f"{row['won']:>3}/{row['pairs']:<2}  {row['verdict']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
