#!/usr/bin/env python
"""Continuous perf-regression gate over the ``BENCH_*.json`` artifacts.

Two layers of checking, both machine-independent:

* **Invariants** — structural performance claims that must hold on any
  host: the operator layer actually reuses factorizations (warm
  solves against a held factor are cheap, and a campaign factors less
  than once per solve: BENCH_3), telemetry overhead stays inside its
  budget (BENCH_4), and the parallel campaign is bit-reproducible
  (BENCH_5).  Wall-clock rates and speedups that depend on core count
  are deliberately not gated.

* **Drift** (optional, ``--baseline DIR``) — compares the freshly
  emitted artifacts against the committed baselines and reports
  relative movement of the machine-independent ratios, and movement in
  percentage points of the telemetry overhead percentages.  Drift is a
  warning by default because even ratio metrics have run-to-run noise;
  ``--strict-drift`` promotes it to a failure for perf-focused CI
  lanes.  The BENCH_5 canonical digest has no noise: when the fresh
  and baseline artifacts ran at the same ``grid_resolution``, the two
  digests must be equal, or the gate fails.

Usage::

    python scripts/bench_gate.py                    # gate ./BENCH_*.json
    python scripts/bench_gate.py --dir /tmp/bench   # gate elsewhere
    python scripts/bench_gate.py --baseline .ci/baseline --strict-drift

Exit status: 0 all gates pass, 1 any invariant failed (or drift under
``--strict-drift``), 5 bad invocation.  Missing artifacts are skipped
with a notice unless ``--require-all`` is given — benches emit their
files independently, and the gate should be usable after running any
subset.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, Dict, List, Optional, Tuple

#: Budget (percent) for telemetry overheads — mirrors the assertions in
#: benchmarks/bench_obs_overhead.py.
OBS_OVERHEAD_BUDGET_PCT = 5.0

#: Warm solves against a solve context's held factor must be at least
#: this many times faster than a fresh factor per call (BENCH_3 reads
#: ~48x; 3x catches a broken held-factor path without flaking on slow
#: hosts).
REPEATED_SOLVE_MIN_SPEEDUP = 3.0

#: A campaign that refactorizes more than this often per solve has
#: lost operator reuse (healthy value is <1: solves >> factorizations).
MAX_FACTORIZATIONS_PER_SOLVE = 1.5

#: Relative drift beyond this fraction of the baseline value is
#: reported (ratio metrics; 50% keeps noise quiet).
DRIFT_TOLERANCE = 0.5

#: Drift of an overhead percentage beyond this many percentage points
#: is reported.  Those values sit near zero, where a relative change
#: says nothing (0.30% -> 1.57% is +127%).  Five back-to-back BENCH_4
#: runs on one shared 2-vCPU host spanned 2.7 points on the streaming
#: arm, 2.9 on the oftec arm and 0.5 on the warm-solve arm, so a
#: warning here asks for repeated runs; the 5% budget is the verdict.
DRIFT_TOLERANCE_PTS = 3.0

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


class Gate:
    """Accumulates pass/fail/skip lines for one run."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.passes: List[str] = []
        self.skips: List[str] = []
        self.warnings: List[str] = []

    def check(self, label: str, ok: bool, detail: str) -> None:
        if ok:
            self.passes.append(f"PASS  {label}: {detail}")
        else:
            self.failures.append(f"FAIL  {label}: {detail}")

    def skip(self, label: str, reason: str) -> None:
        self.skips.append(f"SKIP  {label}: {reason}")

    def warn(self, label: str, detail: str) -> None:
        self.warnings.append(f"DRIFT {label}: {detail}")


def _load(directory: str, filename: str) -> Optional[dict]:
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _dig(document: dict, dotted: str):
    """``_dig(doc, "a.b.c")`` -> doc["a"]["b"]["c"] or None."""
    node = document
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def gate_bench3(gate: Gate, doc: dict) -> None:
    speedup = _dig(doc, "repeated_solve.speedup")
    gate.check(
        "BENCH_3 repeated-solve speedup",
        speedup is not None and speedup >= REPEATED_SOLVE_MIN_SPEEDUP,
        f"{speedup} >= {REPEATED_SOLVE_MIN_SPEEDUP} "
        "(the held factor must make warm solves cheap)")
    per_solve = _dig(doc, "table2_campaign.factorizations_per_solve")
    gate.check(
        "BENCH_3 factorizations per solve",
        per_solve is not None
        and per_solve <= MAX_FACTORIZATIONS_PER_SOLVE,
        f"{per_solve} <= {MAX_FACTORIZATIONS_PER_SOLVE} "
        "(campaign must reuse factorizations)")


def gate_bench4(gate: Gate, doc: dict) -> None:
    resolution = doc.get("grid_resolution") or 0
    oftec_pct = _dig(doc, "oftec.overhead_pct")
    gate.check(
        "BENCH_4 oftec telemetry overhead",
        oftec_pct is not None
        and oftec_pct < OBS_OVERHEAD_BUDGET_PCT,
        f"{oftec_pct}% < {OBS_OVERHEAD_BUDGET_PCT}%")
    solve_pct = _dig(doc, "warm_solve.overhead_pct")
    if resolution >= 8:
        gate.check(
            "BENCH_4 warm-solve telemetry overhead",
            solve_pct is not None
            and solve_pct < OBS_OVERHEAD_BUDGET_PCT,
            f"{solve_pct}% < {OBS_OVERHEAD_BUDGET_PCT}%")
    else:
        gate.skip("BENCH_4 warm-solve telemetry overhead",
                  f"budget binds at resolution >= 8, ran at "
                  f"{resolution}")
    stream_pct = _dig(doc, "streaming.overhead_pct")
    if stream_pct is None:
        gate.skip("BENCH_4 streaming overhead",
                  "no streaming block (pre-streaming artifact)")
    elif resolution >= 12:
        gate.check(
            "BENCH_4 streaming overhead",
            stream_pct < OBS_OVERHEAD_BUDGET_PCT,
            f"{stream_pct}% < {OBS_OVERHEAD_BUDGET_PCT}% "
            "(the trace and OpenMetrics sinks are written by each "
            "per-unit pump)")
    else:
        gate.skip("BENCH_4 streaming overhead",
                  f"budget binds at resolution >= 12, ran at "
                  f"{resolution}")


def gate_bench5(gate: Gate, doc: dict) -> None:
    digest = doc.get("canonical_digest")
    gate.check(
        "BENCH_5 canonical digest",
        isinstance(digest, str) and bool(_DIGEST_RE.match(digest)),
        f"{digest!r} is a sha256 hex digest "
        "(parallel campaign stayed bit-reproducible)")
    workers = _dig(doc, "parallel.workers_2.per_worker") or []
    units = sum(entry.get("units", 0) for entry in workers)
    # One unit per benchmark; artifacts record the expected count.
    expected = doc.get("expected_units", doc.get("benchmarks"))
    gate.check(
        "BENCH_5 unit accounting",
        bool(workers) and units == expected,
        f"per-worker units sum to {units}, campaign ran {expected} "
        "(every unit executed exactly once)")


#: filename -> invariant checker.
GATES: Dict[str, Callable[[Gate, dict], None]] = {
    "BENCH_3.json": gate_bench3,
    "BENCH_4.json": gate_bench4,
    "BENCH_5.json": gate_bench5,
}

#: Machine-independent metrics compared against the baseline:
#: (filename, dotted path, human label).  A ``*_pct`` path drifts in
#: percentage points, every other one relative to its baseline (in
#: absolute terms only when the baseline is 0).
DRIFT_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("BENCH_3.json", "repeated_solve.speedup",
     "repeated-solve speedup"),
    ("BENCH_3.json", "table2_campaign.factorizations_per_solve",
     "factorizations per solve"),
    ("BENCH_3.json", "table2_campaign.krylov_iterations_per_solve",
     "CG iterations per Krylov solve"),
    ("BENCH_3.json", "fig6_sweep.factorizations_per_point",
     "Fig. 6 sweep factorizations per point"),
    ("BENCH_4.json", "oftec.overhead_pct",
     "oftec telemetry overhead pct"),
    ("BENCH_4.json", "streaming.overhead_pct",
     "streaming overhead pct"),
)


def check_drift(gate: Gate, directory: str, baseline_dir: str) -> None:
    for filename, dotted, label in DRIFT_METRICS:
        current_doc = _load(directory, filename)
        baseline_doc = _load(baseline_dir, filename)
        if current_doc is None or baseline_doc is None:
            continue
        current = _dig(current_doc, dotted)
        baseline = _dig(baseline_doc, dotted)
        if not isinstance(current, (int, float)) \
                or not isinstance(baseline, (int, float)):
            continue
        if dotted.endswith("_pct"):
            points = current - baseline
            if abs(points) > DRIFT_TOLERANCE_PTS:
                gate.warn(f"{filename} {label}",
                          f"{baseline:.2f}% -> {current:.2f}%: "
                          f"{points:+.2f} pts vs tolerance "
                          f"{DRIFT_TOLERANCE_PTS:.2f} pts")
            continue
        drift = (current - baseline) / (abs(baseline) or 1.0)
        if abs(drift) > DRIFT_TOLERANCE:
            gate.warn(f"{filename} {label}",
                      f"{baseline:.4g} -> {current:.4g} "
                      f"({drift:+.0%} vs tolerance "
                      f"{DRIFT_TOLERANCE:.0%})")
    check_digest(gate, _load(directory, "BENCH_5.json"),
                 _load(baseline_dir, "BENCH_5.json"))


def check_digest(gate: Gate, current: Optional[dict],
                 baseline: Optional[dict]) -> None:
    """Same grid, same campaign: the canonical digests must be equal."""
    label = "BENCH_5 canonical digest vs baseline"
    if current is None or baseline is None:
        return
    resolution = current.get("grid_resolution")
    if resolution is None \
            or resolution != baseline.get("grid_resolution"):
        gate.skip(label, f"fresh grid_resolution {resolution} vs "
                         f"baseline {baseline.get('grid_resolution')}")
        return
    fresh = current.get("canonical_digest")
    committed = baseline.get("canonical_digest")
    gate.check(label, fresh == committed,
               f"fresh {fresh} vs baseline {committed} at "
               f"grid_resolution {resolution} (same inputs must give "
               "the same campaign)")


def run_gate(directory: str, baseline_dir: Optional[str],
             require_all: bool) -> Gate:
    gate = Gate()
    for filename, checker in sorted(GATES.items()):
        doc = _load(directory, filename)
        if doc is None:
            if require_all:
                gate.check(filename, False, "artifact missing")
            else:
                gate.skip(filename, "artifact not present")
            continue
        checker(gate, doc)
    if baseline_dir:
        check_drift(gate, directory, baseline_dir)
    return gate


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="gate the BENCH_*.json artifacts on "
                    "machine-independent performance invariants")
    parser.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory holding the BENCH_*.json artifacts "
             "(default: current directory)")
    parser.add_argument(
        "--baseline", default=None, metavar="DIR",
        help="directory with committed baseline artifacts to compare "
             "ratio metrics against (drift check)")
    parser.add_argument(
        "--strict-drift", action="store_true",
        help="treat drift beyond tolerance as a failure instead of a "
             "warning")
    parser.add_argument(
        "--require-all", action="store_true",
        help="fail when any BENCH_*.json artifact is missing")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.dir):
        print(f"bench_gate: not a directory: {args.dir}",
              file=sys.stderr)
        return 5
    if args.baseline and not os.path.isdir(args.baseline):
        print(f"bench_gate: not a directory: {args.baseline}",
              file=sys.stderr)
        return 5

    gate = run_gate(args.dir, args.baseline, args.require_all)
    for line in (gate.passes + gate.skips + gate.warnings
                 + gate.failures):
        print(line)
    failed = bool(gate.failures) \
        or (args.strict_drift and bool(gate.warnings))
    verdict = "FAILED" if failed else "ok"
    print(f"bench_gate: {verdict} ({len(gate.passes)} passed, "
          f"{len(gate.failures)} failed, {len(gate.skips)} skipped, "
          f"{len(gate.warnings)} drift)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
