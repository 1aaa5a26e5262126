"""Robust OFTEC: one operating point covering a workload set.

The LUT controller switches operating points as the workload changes;
when switching is unavailable (fixed firmware tables, a shared cooling
zone, certification against a workload envelope) the controller needs a
*single* ``(omega, I)`` that is feasible for every workload and cheap in
the worst case.  This module solves that min-max problem:

    min_{omega, I}  max_w 𝒫_w(omega, I)
    s.t.            max_w 𝒯_w(omega, I) < T_max

by running the standard solvers on an envelope evaluator whose
objectives are the per-workload maxima.  All workloads must share the
same package (built via :meth:`CoolingProblem.with_profile`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import ConfigurationError
from .evaluator import Evaluation, EvaluationGradient, Evaluator
from .problem import CoolingProblem
from .solvers import minimize_power, minimize_temperature


class EnvelopeEvaluator:
    """Max-over-workloads wrapper with the Evaluator interface.

    Exposes exactly the attributes/methods the solver backends use
    (``problem``, ``solve_count``, ``evaluate``,
    ``evaluate_with_grad``), so :func:`repro.core.minimize_power` runs
    unchanged on the envelope.
    """

    def __init__(self, problems: Sequence[CoolingProblem]):
        if not problems:
            raise ConfigurationError("Need at least one workload")
        model = problems[0].model
        for problem in problems[1:]:
            if problem.model is not model:
                raise ConfigurationError(
                    "All workloads must share one package model; build "
                    "them with CoolingProblem.with_profile")
        self.problems: List[CoolingProblem] = list(problems)
        self.problem = problems[0]  # limits/bounds source
        self._evaluators = [Evaluator(p) for p in problems]

    @property
    def solve_count(self) -> int:
        """Total thermal solves across all member evaluators."""
        return sum(e.solve_count for e in self._evaluators)

    def member_evaluations(self, omega: float, current: float,
                           ) -> Dict[str, Evaluation]:
        """Per-workload evaluations at one operating point
        (fan speed omega, rad/s; TEC current, A)."""
        return {p.name: e.evaluate(omega, current)
                for p, e in zip(self.problems, self._evaluators)}

    def evaluate(self, omega: float, current: float) -> Evaluation:
        """The envelope evaluation at ``(omega, current)`` — rad/s
        and A — taking the worst member per metric."""
        members = list(self.member_evaluations(omega, current).values())
        worst_t = max(m.max_chip_temperature for m in members)
        worst_p = max(m.total_power for m in members)
        worst = max(members, key=lambda m: m.total_power)
        return Evaluation(
            omega=worst.omega, current=worst.current,
            max_chip_temperature=worst_t,
            total_power=worst_p,
            leakage_power=worst.leakage_power,
            tec_power=worst.tec_power,
            fan_power=worst.fan_power,
            feasible=all(m.feasible for m in members),
            runaway=any(m.runaway for m in members),
            steady=worst.steady)

    def evaluate_with_grad(self, omega: float,
                           current: float) -> Evaluation:
        """Envelope evaluation with the active-member subgradient.

        Away from crossings ``max_w f_w`` is differentiable and its
        gradient is the argmax member's; the temperature slope comes
        from the worst-𝒯 workload and the power slope from the
        worst-𝒫 workload, each through that member evaluator's own
        (adjoint-backed) :meth:`Evaluator.evaluate_with_grad`.  At a
        tie this is one valid subgradient — exactly the smoothness
        caveat the min-max formulation already carries.  (``omega`` in
        rad/s, ``current`` in A.)
        """
        members = [e.evaluate_with_grad(omega, current)
                   for e in self._evaluators]
        envelope = self.evaluate(omega, current)
        worst_t = max(members, key=lambda m: m.max_chip_temperature)
        worst_p = max(members, key=lambda m: m.total_power)
        envelope.gradient = EvaluationGradient(
            d_temp_omega=worst_t.gradient.d_temp_omega,
            d_temp_current=worst_t.gradient.d_temp_current,
            d_power_omega=worst_p.gradient.d_power_omega,
            d_power_current=worst_p.gradient.d_power_current)
        return envelope


@dataclass
class RobustResult:
    """Outcome of the min-max optimization.

    Attributes:
        omega_star: The single fan speed covering the set, rad/s.
        current_star: The single TEC current covering the set, A.
        worst_case_power: max_w 𝒫_w at the optimum, W.
        worst_case_temperature: max_w 𝒯_w at the optimum, K.
        feasible: Whether every workload meets T_max there.
        per_workload: Per-workload evaluations at the optimum.
        runtime_seconds: Wall-clock time.
        evaluations: Total thermal solves.
    """

    omega_star: float
    current_star: float
    worst_case_power: float
    worst_case_temperature: float
    feasible: bool
    per_workload: Dict[str, Evaluation]
    runtime_seconds: float
    evaluations: int


def run_oftec_robust(problems: Sequence[CoolingProblem],
                     method: str = "slsqp") -> RobustResult:
    """Algorithm 1 on the workload envelope.

    The usual two-stage pipeline (feasibility hunt, then power
    minimization) applied to the max-over-workloads objectives; the
    solvers' gradients are the envelope's active-member subgradient.
    """
    start = time.perf_counter()
    envelope = EnvelopeEvaluator(problems)
    limits = envelope.problem.limits
    t_max = limits.t_max

    midpoint = envelope.evaluate(limits.omega_max / 2.0,
                                 envelope.problem.current_upper_bound
                                 / 2.0)
    if midpoint.max_chip_temperature > t_max:
        stage1 = minimize_temperature(envelope, method=method,
                                      early_stop_below=t_max)
        start_point = (stage1.omega, stage1.current)
        if stage1.evaluation.max_chip_temperature > t_max:
            per_workload = envelope.member_evaluations(*start_point)
            return RobustResult(
                omega_star=stage1.omega, current_star=stage1.current,
                worst_case_power=stage1.evaluation.total_power,
                worst_case_temperature=stage1.evaluation
                .max_chip_temperature,
                feasible=False,
                per_workload=per_workload,
                runtime_seconds=time.perf_counter() - start,
                evaluations=envelope.solve_count)
    else:
        start_point = (midpoint.omega, midpoint.current)

    outcome = minimize_power(envelope, x0=start_point, method=method)
    per_workload = envelope.member_evaluations(outcome.omega,
                                               outcome.current)
    return RobustResult(
        omega_star=outcome.omega,
        current_star=outcome.current,
        worst_case_power=outcome.evaluation.total_power,
        worst_case_temperature=outcome.evaluation.max_chip_temperature,
        feasible=outcome.evaluation.feasible,
        per_workload=per_workload,
        runtime_seconds=time.perf_counter() - start,
        evaluations=envelope.solve_count)
