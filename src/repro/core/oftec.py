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

Both optimizing stages run through the fallback ladder of
:class:`~repro.core.resilient.ResilientSolver`.  Its first rung is the
plain solver from the unperturbed start, so a healthy run gets exactly
the plain solvers' answer; a solver breakdown becomes a failed attempt
and the next rung takes over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SolverError
from ..obs import runtime as _obs
from ..obs.clock import stopwatch
from .evaluator import Evaluation, Evaluator
from .problem import CoolingProblem
from .resilient import (
    AttemptRecord,
    FailureReport,
    ResilientSolver,
    failure_report_from_exception,
)
from .solvers import (
    OptimizationOutcome,
    initial_operating_point,
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
        opt1: The Optimization 1 stage outcome (None when infeasible,
            or when every ladder rung of Optimization 1 broke down and
            the result fell back to its feasible start point).
        thermal_solves: Total steady-state solves consumed.
        attempts: Every ladder attempt of both stages, in order.
        failures: Post-mortems of stages that broke down (empty on a
            healthy run).
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
    attempts: List[AttemptRecord] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)

    @property
    def total_power(self) -> float:
        """𝒫 at the returned operating point, W."""
        return self.evaluation.total_power

    @property
    def max_chip_temperature(self) -> float:
        """𝒯 at the returned operating point, K."""
        return self.evaluation.max_chip_temperature


def run_oftec(
    problem: CoolingProblem,
    method: str = "slsqp",
    evaluator: Optional[Evaluator] = None,
) -> OFTECResult:
    """Execute Algorithm 1 on a cooling problem.

    Args:
        problem: The assembled instance.
        method: Solver backend (see :data:`repro.core.SOLVER_METHODS`);
            it leads each stage's fallback ladder.
        evaluator: Optional pre-warmed evaluator to reuse its cache.

    Returns:
        An :class:`OFTECResult`; when infeasible, it carries the best
        temperature-minimizing point found with ``feasible=False``.

    Raises:
        SolverError: The last attempt's error, when no stage produced a
            point to report (the midpoint evaluation and every
            Optimization 2 attempt broke down).
    """
    with _obs.span("oftec", problem.name), stopwatch() as watch:
        evaluator = evaluator or Evaluator(problem)
        solver = ResilientSolver(evaluator, method)
        solves_before = evaluator.solve_count
        attempts: List[AttemptRecord] = []
        failures: List[FailureReport] = []
        t_max = problem.limits.t_max

        def finish(evaluation: Evaluation, feasible: bool,
                   opt2: Optional[OptimizationOutcome],
                   opt1: Optional[OptimizationOutcome]) -> OFTECResult:
            return OFTECResult(
                problem_name=problem.name,
                omega_star=evaluation.omega,
                current_star=evaluation.current,
                evaluation=evaluation,
                feasible=feasible,
                runtime_seconds=watch.elapsed,
                opt2=opt2, opt1=opt1,
                thermal_solves=evaluator.solve_count - solves_before,
                attempts=attempts, failures=failures)

        # Line 1: the midpoint initial guess (guarded — even a single
        # evaluation can hit an injected or genuine network fault).
        start = initial_operating_point(problem)
        initial: Optional[Evaluation] = None
        try:
            initial = evaluator.evaluate(*start)
        except SolverError as exc:
            failures.append(failure_report_from_exception(
                problem.name, "initial-point", exc, last_iterate=start))

        opt2: Optional[OptimizationOutcome] = None
        if initial is None or initial.max_chip_temperature > t_max:
            # Lines 2-3: hunt for feasibility by minimizing 𝒯.
            stage2 = solver.run(
                "minimize-temperature",
                lambda rung, point: minimize_temperature(
                    evaluator, x0=point, method=rung,
                    early_stop_below=t_max),
                start, prefer="temperature")
            attempts.extend(stage2.attempts)
            if stage2.failure is not None:
                failures.append(stage2.failure)
            opt2 = stage2.outcome
            best = opt2.evaluation if opt2 is not None else initial
            if best is None:
                raise stage2.error
            if best.max_chip_temperature > t_max:
                # Lines 4-5: no solution exists; report the coolest
                # point seen.
                return finish(best, False, opt2, None)
            start = (best.omega, best.current)

        # Line 6: minimize the cooling-related power from the feasible
        # point.
        stage1 = solver.run(
            "minimize-power",
            lambda rung, point: minimize_power(
                evaluator, x0=point, method=rung),
            start, prefer="power")
        attempts.extend(stage1.attempts)
        if stage1.failure is not None:
            failures.append(stage1.failure)
        opt1 = stage1.outcome
        # When Optimization 1 broke down on every rung, the feasible
        # start point survives (a cache hit — it cannot re-fault).
        chosen = opt1.evaluation if opt1 is not None \
            else evaluator.evaluate(*start)
        return finish(chosen, chosen.feasible, opt2, opt1)
