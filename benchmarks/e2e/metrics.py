"""Metric derivation shared by the runner and the A/B comparison.

The runner's child processes return raw round results (latency samples,
walls, per-layer self seconds and counters); this module pools the
rounds of one workload and derives the named metrics.  Quartiles follow
``statistics.quantiles(values, n=4)`` (the exclusive method), so the
spreads printed here are the ones an outside reader gets from the same
call.  Standard library only: the runner process never imports numpy.
"""

from __future__ import annotations

import collections
import statistics
from typing import Dict, List, Sequence, Tuple

#: End-to-end metrics (every workload, untraced run): name, unit.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p75", "ms"),
    ("throughput_per_s", "1/s"),
)

#: Per-layer metrics (every workload, traced run): name, unit.  A layer
#: that does not run on a workload reads 0 there.
PER_LAYER = (
    ("operator.factor_s", "s"),
    ("operator.factorizations", "count"),
    ("operator.factor_ms", "ms"),
    ("operator.factor_hit_rate", "fraction"),
    ("operator.near_repeat_frac", "fraction"),
    ("operator.backsolve_s", "s"),
    ("operator.backsolves", "count"),
    ("operator.guard_s", "s"),
    ("operator.adjoint_s", "s"),
    ("operator.adjoint_backsolves", "count"),
    ("assembly.overlays_s", "s"),
    ("assembly.overlays", "count"),
    ("leakage.linearize_s", "s"),
    ("leakage.linearize", "count"),
    ("solver.steady_s", "s"),
    ("solver.steady_solves", "count"),
    ("solver.leak_iters_per_solve", "count"),
    ("solver.runaways", "count"),
    ("adjoint.gradients_s", "s"),
    ("adjoint.gradients", "count"),
    ("evaluator.self_s", "s"),
    ("evaluator.requests", "count"),
    ("evaluator.cache_hit_rate", "fraction"),
    ("sqp.self_s", "s"),
    ("sqp.evals_per_run", "count"),
    ("oftec.factorizations_per_run", "count"),
    ("online.loop_s", "s"),
    ("online.steps", "count"),
    ("sweep.self_s", "s"),
    ("exec.units", "count"),
    ("exec.busy_s", "s"),
    ("exec.utilization", "fraction"),
    ("exec.overhead_s", "s"),
    ("exec.factorizations", "count"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_pct", "%"),
)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)``; one value is its own three quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero
    median, whose relative spread is undefined)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Inclusive-method percentile at ``share`` in [0, 1]."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_samples(rounds: List[dict]) -> List[float]:
    """Latency samples (s) of the untraced phase, pooled over rounds."""
    return [sample for result in rounds
            for sample in result["phases"]["untraced"]["latencies"]]


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    """End-to-end metric values of one workload's untraced rounds.

    Times are rescaled to the reference host speed (see
    ``hostclock.py``); throughput is latency units per rescaled second.
    """
    latencies = latency_samples(rounds)
    return {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"]
                                     for r in rounds),
        "peak_rss_mb": statistics.median(
            r["phases"]["untraced"]["rss_mb"] for r in rounds),
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_p75": 1e3 * percentile(latencies, 0.75),
        "throughput_per_s": len(latencies) / sum(latencies),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(workload: str, rounds: List[dict]) -> Dict[str, float]:
    """Per-layer metric values of one workload's traced rounds."""
    self_s: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    counts: collections.Counter = collections.Counter()
    traced_wall = 0.0
    rescaled = {"traced": 0.0, "untraced": 0.0}
    items = 0
    for result in rounds:
        self_s.update(result["layers"]["self_s"])
        calls.update(result["layers"]["calls"])
        counts.update(result["layers"]["counts"])
        phases = result["phases"]
        traced_wall += phases["traced"]["wall"]
        for phase in rescaled:
            rescaled[phase] += sum(phases[phase]["latencies"])
        items += phases["traced"]["completed"]
    # Calibration time is left out of the walls as well.
    attributed = sum(self_s.values()) - self_s["calibration"]
    factorizations = counts["factorizations"]
    requests = calls["Evaluator.evaluate"]
    runs = items if workload == "oftec" else 0
    return {
        "operator.factor_s": self_s["operator.factor"],
        "operator.factorizations": factorizations,
        "operator.factor_ms": 1e3 * _ratio(self_s["operator.factor"],
                                           factorizations),
        "operator.factor_hit_rate": _ratio(
            counts["factor_hits"], counts["factor_hits"] + factorizations),
        "operator.near_repeat_frac": _ratio(counts["near_repeats"],
                                            counts["factor_calls"]),
        "operator.backsolve_s": self_s["operator.backsolve"],
        "operator.backsolves": counts["backsolves"],
        "operator.guard_s": self_s["operator.guard"],
        "operator.adjoint_s": self_s["operator.adjoint"],
        "operator.adjoint_backsolves": counts["adjoint_backsolves"],
        "assembly.overlays_s": self_s["assembly.overlays"],
        "assembly.overlays": calls["PackageThermalModel.overlays"],
        "leakage.linearize_s": self_s["leakage.linearize"],
        "leakage.linearize": calls["tangent_linearization"],
        "solver.steady_s": self_s["solver.steady"],
        "solver.steady_solves": calls["solve_steady_state"],
        "solver.leak_iters_per_solve": _ratio(counts["leak_iterations"],
                                              counts["converged_solves"]),
        "solver.runaways": counts["runaways"],
        "adjoint.gradients_s": self_s["adjoint.gradients"],
        "adjoint.gradients": calls["steady_state_gradients"],
        "evaluator.self_s": self_s["evaluator"],
        "evaluator.requests": requests,
        "evaluator.cache_hit_rate": _ratio(counts["evaluator_hits"],
                                           requests),
        "sqp.self_s": self_s["sqp"],
        "sqp.evals_per_run": _ratio(counts["sqp_requests"], runs),
        "oftec.factorizations_per_run": _ratio(factorizations, runs),
        "online.loop_s": self_s["online"],
        "online.steps": counts["online_steps"],
        "sweep.self_s": self_s["sweep"],
        "exec.units": counts["exec_units"],
        "exec.busy_s": counts["exec_busy_s"],
        "exec.utilization": _ratio(counts["exec_busy_s"],
                                   counts["exec_capacity_s"]),
        "exec.overhead_s": counts["exec_overhead_s"],
        "exec.factorizations": counts["exec_factorizations"],
        "trace.coverage": _ratio(attributed, traced_wall),
        "trace.overhead_pct": 100.0 * (
            _ratio(rescaled["traced"], rescaled["untraced"]) - 1.0),
    }
