"""Algorithm 1: OFTEC.

The paper's pipeline:

1. Start at ``(omega_max/2, I_max/2)`` — the empirical sweet spot of the
   Optimization 2 landscape (Figure 6(a)).
2. If that point violates ``T_max``, run Optimization 2 (minimize the
   maximum die temperature), stopping early at the first iterate below
   ``T_max``.
3. If even Optimization 2 cannot reach ``T_max``, the instance is
   infeasible — report failure.
4. From the feasible point, run Optimization 1 (minimize
   𝒫 = P_leakage + P_TEC + P_fan subject to 𝒯 < T_max) and return
   ``(omega*, I_TEC*)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import InfeasibleProblemError
from ..obs import runtime as _obs
from ..obs.clock import stopwatch
from .evaluator import Evaluation, Evaluator
from .problem import CoolingProblem
from .solvers import (
    OptimizationOutcome,
    minimize_power,
    minimize_temperature,
)


@dataclass
class OFTECResult:
    """Output of Algorithm 1.

    Attributes:
        problem_name: Workload label.
        omega_star: Optimal fan speed, rad/s.
        current_star: Optimal TEC driving current, A.
        evaluation: Full evaluation at ``(omega*, I*)``.
        feasible: False when Algorithm 1 returned "failed".
        runtime_seconds: Wall-clock runtime of the whole algorithm
            (Table 2's runtime column).
        opt2: The Optimization 2 stage outcome (None when the initial
            point was already feasible).
        opt1: The Optimization 1 stage outcome (None when infeasible).
        thermal_solves: Total steady-state solves consumed.
    """

    problem_name: str
    omega_star: float
    current_star: float
    evaluation: Evaluation
    feasible: bool
    runtime_seconds: float
    opt2: Optional[OptimizationOutcome]
    opt1: Optional[OptimizationOutcome]
    thermal_solves: int

    @property
    def total_power(self) -> float:
        """𝒫 at the returned operating point, W."""
        return self.evaluation.total_power

    @property
    def max_chip_temperature(self) -> float:
        """𝒯 at the returned operating point, K."""
        return self.evaluation.max_chip_temperature


def initial_operating_point(problem: CoolingProblem) -> Tuple[float,
                                                              float]:
    """Algorithm 1 line 1: the midpoint initial guess
    ``(omega_max/2, I_max/2)`` in (rad/s, A) — the empirical sweet spot
    of the Optimization 2 landscape (Figure 6(a))."""
    return (problem.limits.omega_max / 2.0,
            problem.current_upper_bound / 2.0)


def run_oftec(
    problem: CoolingProblem,
    method: str = "slsqp",
    evaluator: Optional[Evaluator] = None,
    raise_on_infeasible: bool = False,
    max_iterations: int = 60,
) -> OFTECResult:
    """Execute Algorithm 1 on a cooling problem.

    Args:
        problem: The assembled instance.
        method: Solver backend (see :data:`repro.core.SOLVER_METHODS`).
        evaluator: Optional pre-warmed evaluator to reuse its cache.
        raise_on_infeasible: Raise :class:`InfeasibleProblemError` instead
            of returning a failed result.
        max_iterations: Per-stage solver iteration budget.

    Returns:
        An :class:`OFTECResult`; when infeasible, it carries the best
        temperature-minimizing point found with ``feasible=False``.
    """
    with _obs.span("oftec", problem.name):
        return _run_oftec_impl(problem, method, evaluator,
                               raise_on_infeasible, max_iterations)


def _run_oftec_impl(
    problem: CoolingProblem,
    method: str,
    evaluator: Optional[Evaluator],
    raise_on_infeasible: bool,
    max_iterations: int,
) -> OFTECResult:
    """The Algorithm 1 body of :func:`run_oftec`."""
    watch = stopwatch()
    evaluator = evaluator or Evaluator(problem)
    solves_before = evaluator.solve_count
    limits = problem.limits
    t_max = limits.t_max

    # Line 1: the midpoint initial guess.
    omega0, current0 = initial_operating_point(problem)
    initial = evaluator.evaluate(omega0, current0)

    opt2: Optional[OptimizationOutcome] = None
    if initial.max_chip_temperature > t_max:
        # Lines 2-3: hunt for feasibility by minimizing 𝒯.
        opt2 = minimize_temperature(
            evaluator, x0=(omega0, current0), method=method,
            early_stop_below=t_max, max_iterations=max_iterations)
        feasible_point = opt2.evaluation
        if feasible_point.max_chip_temperature > t_max:
            # Lines 4-5: no solution exists.
            runtime = watch.elapsed
            if raise_on_infeasible:
                raise InfeasibleProblemError(
                    f"{problem.name}: even the temperature-minimizing "
                    "point reaches "
                    f"{feasible_point.max_chip_temperature:.1f} K "
                    f"> T_max = {t_max:.1f} K")
            return OFTECResult(
                problem_name=problem.name,
                omega_star=feasible_point.omega,
                current_star=feasible_point.current,
                evaluation=feasible_point,
                feasible=False,
                runtime_seconds=runtime,
                opt2=opt2, opt1=None,
                thermal_solves=evaluator.solve_count - solves_before)
        start_point = (feasible_point.omega, feasible_point.current)
    else:
        start_point = (omega0, current0)

    # Line 6: minimize the cooling-related power from the feasible point.
    opt1 = minimize_power(evaluator, x0=start_point, method=method,
                          max_iterations=max_iterations)
    runtime = watch.elapsed
    return OFTECResult(
        problem_name=problem.name,
        omega_star=opt1.omega,
        current_star=opt1.current,
        evaluation=opt1.evaluation,
        feasible=opt1.evaluation.feasible,
        runtime_seconds=runtime,
        opt2=opt2, opt1=opt1,
        thermal_solves=evaluator.solve_count - solves_before)
