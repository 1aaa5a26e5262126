"""Resilient solve pipeline: fallback ladder, retries, degradation.

One pathological benchmark must not sink an eight-benchmark campaign.
This module wraps the Optimization 1/2 solvers of
:mod:`repro.core.solvers` with the defensive machinery a long unattended
run needs:

* a **fallback ladder** — try ``slsqp``, then ``trust-constr``, then the
  ``grid`` scan; each rung gets a bounded number of retries from
  deterministically perturbed warm restarts;
* a **per-attempt evaluation budget** — every attempt runs under
  :meth:`repro.core.Evaluator.set_solve_budget` so a stuck line search
  raises :class:`~repro.errors.EvaluationBudgetError` instead of
  spinning;
* **structured post-mortems** — every hard failure is condensed into a
  :class:`FailureReport` (stage, attempts, exception chain, last
  iterate, condition estimate) instead of a traceback.

Nothing here changes the numerics of a healthy solve: the first ladder
rung starts from the unperturbed initial point with the same iteration
budget as the plain solvers, so fault-free results are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, SingularNetworkError, SolverError
from ..obs import runtime as _obs
from ..obs.clock import stopwatch
from .evaluator import Evaluation, Evaluator
from .oftec import OFTECResult, initial_operating_point
from .problem import CoolingProblem
from .solvers import (
    SOLVER_METHODS,
    OptimizationOutcome,
    minimize_power,
    minimize_temperature,
)


#: Relative amplitude of the deterministic warm-restart jitter, as a
#: fraction of each variable's range.
RESTART_PERTURBATION = 0.05

#: Seed of the restart-perturbation stream.
RESTART_SEED = 0

#: Extra perturbed-restart attempts per ladder rung after the first.
RETRIES_PER_METHOD = 1

#: Per-attempt thermal-solve budget (cache hits are free).
MAX_EVALUATIONS = 500


@dataclass(frozen=True)
class ResiliencePolicy:
    """The fallback ladder.

    Each attempt runs with the backends' own iteration budget; the
    retry count, solve budget and restart jitter are the module
    constants above.

    Attributes:
        ladder: Solver backends to try, in order (each must be one of
            :data:`repro.core.SOLVER_METHODS`).
    """

    ladder: Tuple[str, ...] = ("slsqp", "trust-constr", "grid")

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ConfigurationError("ladder must not be empty")
        for method in self.ladder:
            if method not in SOLVER_METHODS:
                raise ConfigurationError(
                    f"Unknown ladder rung {method!r}; choose from "
                    f"{SOLVER_METHODS}")


@dataclass(frozen=True)
class AttemptRecord:
    """One ladder attempt, successful or not.

    Attributes:
        method: Backend used for this attempt.
        retry: 0 for the rung's first attempt, 1.. for perturbed
            restarts.
        success: Backend-reported success.
        error_type: Exception class name when the attempt raised,
            else None.
        message: Backend status message or exception text.
        evaluations: Thermal solves this attempt consumed.
        factorizations: Sparse LU factorizations this attempt consumed
            (strictly less than ``evaluations`` when the solve
            context's held factor is pulling its weight).
    """

    method: str
    retry: int
    success: bool
    error_type: Optional[str]
    message: str
    evaluations: int
    factorizations: int = 0


@dataclass
class FailureReport:
    """Structured post-mortem of one failed stage.

    Attributes:
        benchmark: Workload label.
        stage: Pipeline stage that failed (e.g. ``"minimize-power"``,
            ``"oftec-opt2"``).
        error_type: Class name of the terminal exception.
        message: Terminal exception text.
        exception_chain: ``"Type: message"`` lines walking the
            ``__cause__``/``__context__`` chain, outermost first.
        attempts: Ladder attempts leading up to the failure.
        last_iterate: Physical ``(omega, I)`` the stage last worked
            from, when known.
        condition_estimate: 1-norm condition estimate recovered from a
            :class:`~repro.errors.SingularNetworkError` in the chain,
            when present.
        trace_excerpt: Rendered lines of the most recent spans of the
            active tracer at report time (empty when telemetry is
            disabled) — the failing attempt's local history.
    """

    benchmark: str
    stage: str
    error_type: str
    message: str
    exception_chain: List[str]
    attempts: List[AttemptRecord] = field(default_factory=list)
    last_iterate: Optional[Tuple[float, float]] = None
    condition_estimate: Optional[float] = None
    trace_excerpt: List[str] = field(default_factory=list)


def failure_report_from_exception(
    benchmark: str,
    stage: str,
    exc: BaseException,
    attempts: Sequence[AttemptRecord] = (),
    last_iterate: Optional[Tuple[float, float]] = None,
) -> FailureReport:
    """Condense an exception (and its cause chain) into a report.

    When a telemetry session is active, the report also captures the
    tracer's excerpt of the most recent spans, so every caller (the
    ladder, the campaign isolator, the chaos harness) gets the failing
    attempt's trace context for free.
    """
    chain: List[str] = []
    condition: Optional[float] = None
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        chain.append(f"{type(current).__name__}: {current}")
        if condition is None and isinstance(current,
                                            SingularNetworkError):
            condition = current.condition_estimate
        current = current.__cause__ or current.__context__
    excerpt: List[str] = []
    if _obs.STATE.enabled:
        excerpt = _obs.STATE.tracer.excerpt()
    return FailureReport(
        benchmark=benchmark,
        stage=stage,
        error_type=type(exc).__name__,
        message=str(exc),
        exception_chain=chain,
        attempts=list(attempts),
        last_iterate=last_iterate,
        condition_estimate=condition,
        trace_excerpt=excerpt)


@dataclass
class ResilientOutcome:
    """What a resilient solve produced.

    Attributes:
        outcome: Best optimization outcome across all attempts, or None
            when every attempt raised.
        attempts: All attempts, in ladder order.
        failure: Post-mortem report when ``outcome`` is None.
    """

    outcome: Optional[OptimizationOutcome]
    attempts: List[AttemptRecord]
    failure: Optional[FailureReport]

    @property
    def succeeded(self) -> bool:
        """True when at least one attempt returned an outcome."""
        return self.outcome is not None


class ResilientSolver:
    """Fallback-ladder wrapper around the Optimization 1/2 solvers.

    Never raises on solver breakdowns: every rung failure is recorded in
    an :class:`AttemptRecord` and the ladder moves on; a fully exhausted
    ladder yields a :class:`FailureReport` instead of an exception.
    Configuration errors still propagate — a misconfigured problem fails
    identically on every rung and retrying it would only hide the bug.
    """

    def __init__(self, evaluator: Evaluator,
                 policy: Optional[ResiliencePolicy] = None):
        self.evaluator = evaluator
        self.policy = policy or ResiliencePolicy()
        self._rng = np.random.default_rng(
            np.random.SeedSequence([RESTART_SEED]))

    def minimize_temperature(
        self,
        x0: Optional[Tuple[float, float]] = None,
        early_stop_below: Optional[float] = None,
    ) -> ResilientOutcome:
        """Optimization 2 through the fallback ladder."""
        if x0 is None:
            x0 = initial_operating_point(self.evaluator.problem)

        def runner(method: str,
                   point: Tuple[float, float]) -> OptimizationOutcome:
            return minimize_temperature(
                self.evaluator, x0=point, method=method,
                early_stop_below=early_stop_below)

        return self._run_ladder("minimize-temperature", runner, x0,
                                prefer="temperature")

    def minimize_power(self, x0: Tuple[float, float],
                       ) -> ResilientOutcome:
        """Optimization 1 through the fallback ladder."""

        def runner(method: str,
                   point: Tuple[float, float]) -> OptimizationOutcome:
            return minimize_power(self.evaluator, x0=point, method=method)

        return self._run_ladder("minimize-power", runner, x0,
                                prefer="power")

    # -- internals ----------------------------------------------------

    def _run_ladder(
        self,
        stage: str,
        runner: Callable[[str, Tuple[float, float]],
                         OptimizationOutcome],
        x0: Tuple[float, float],
        prefer: str,
    ) -> ResilientOutcome:
        attempts: List[AttemptRecord] = []
        best: Optional[OptimizationOutcome] = None
        last_error: Optional[SolverError] = None
        point = (float(x0[0]), float(x0[1]))
        operator = self.evaluator.context.operator
        with _obs.span("ladder", stage):
            for method in self.policy.ladder:
                for retry in range(RETRIES_PER_METHOD + 1):
                    start = point if retry == 0 \
                        else self._perturb(point)
                    solves_before = self.evaluator.solve_count
                    factor_before = operator.stats.factorizations
                    self.evaluator.set_solve_budget(MAX_EVALUATIONS)
                    try:
                        # The attempt span sits inside the try so a
                        # SolverError is recorded on it before the
                        # handler below absorbs the exception.
                        with _obs.span("attempt", method, retry=retry):
                            outcome = runner(method, start)
                    except SolverError as exc:
                        last_error = exc
                        if _obs.STATE.enabled:
                            _obs.STATE.metrics.counter(
                                "resilient.attempts.failed").inc()
                        attempts.append(AttemptRecord(
                            method=method, retry=retry, success=False,
                            error_type=type(exc).__name__,
                            message=str(exc),
                            evaluations=(self.evaluator.solve_count
                                         - solves_before),
                            factorizations=(
                                operator.stats.factorizations
                                - factor_before)))
                        continue
                    finally:
                        self.evaluator.set_solve_budget(None)
                        if _obs.STATE.enabled:
                            _obs.STATE.metrics.counter(
                                "resilient.attempts").inc()
                    attempts.append(AttemptRecord(
                        method=method, retry=retry,
                        success=bool(outcome.success), error_type=None,
                        message=outcome.message,
                        evaluations=outcome.evaluations,
                        factorizations=(operator.stats.factorizations
                                        - factor_before)))
                    best = self._better(best, outcome, prefer)
                    if outcome.success:
                        return ResilientOutcome(best, attempts, None)
        if best is not None:
            # No rung reported success, but we do hold a best iterate —
            # return it as a soft failure (success=False on the outcome).
            return ResilientOutcome(best, attempts, None)
        error: SolverError = last_error if last_error is not None \
            else SolverError("fallback ladder produced no attempts")
        return ResilientOutcome(
            None, attempts,
            failure_report_from_exception(
                self.evaluator.problem.name, stage, error,
                attempts=attempts, last_iterate=point))

    def _perturb(self, point: Tuple[float, float],
                 ) -> Tuple[float, float]:
        """Deterministic warm-restart jitter around ``point``."""
        problem = self.evaluator.problem
        omega_max = problem.limits.omega_max
        current_max = problem.current_upper_bound
        jitter = self._rng.uniform(-RESTART_PERTURBATION,
                                   RESTART_PERTURBATION, size=2)
        omega = float(np.clip(point[0] + jitter[0] * omega_max,
                              0.0, omega_max))
        if current_max > 0.0:
            current = float(np.clip(
                point[1] + jitter[1] * current_max, 0.0, current_max))
        else:
            current = 0.0
        return omega, current

    @staticmethod
    def _better(best: Optional[OptimizationOutcome],
                outcome: OptimizationOutcome,
                prefer: str) -> OptimizationOutcome:
        if best is None:
            return outcome
        if prefer == "temperature":
            if (outcome.evaluation.max_chip_temperature
                    < best.evaluation.max_chip_temperature):
                return outcome
            return best
        # Power: a feasible point always beats an infeasible one;
        # among equals, lower total power wins.
        if outcome.evaluation.feasible != best.evaluation.feasible:
            return outcome if outcome.evaluation.feasible else best
        if outcome.evaluation.total_power < best.evaluation.total_power:
            return outcome
        return best


@dataclass
class ResilientOFTECResult:
    """Algorithm 1 outcome under the resilience policy.

    Attributes:
        result: The OFTEC result (None only when every stage, including
            the initial-point evaluation, broke down).
        attempts: All ladder attempts across both stages.
        failures: Post-mortems of every hard-failed stage.
    """

    result: Optional[OFTECResult]
    attempts: List[AttemptRecord] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """True when a thermally feasible cooling point was found."""
        return self.result is not None and self.result.feasible


def run_oftec_resilient(
    problem: CoolingProblem,
    policy: Optional[ResiliencePolicy] = None,
    evaluator: Optional[Evaluator] = None,
) -> ResilientOFTECResult:
    """Algorithm 1 with the fallback ladder.

    Mirrors :func:`repro.core.run_oftec` stage by stage, but never lets
    a solver breakdown escape: each stage runs through the
    :class:`ResilientSolver` ladder, and hard failures (a gradient
    query at a runaway point among them) become :class:`FailureReport`
    entries.  A genuinely infeasible instance reports the best point
    it saw, with ``feasible`` False.
    """
    evaluator = evaluator or Evaluator(problem)
    solver = ResilientSolver(evaluator, policy)
    with _obs.span("oftec", problem.name):
        return _run_oftec_resilient_impl(problem, evaluator, solver)


def _run_oftec_resilient_impl(
    problem: CoolingProblem,
    evaluator: Evaluator,
    solver: ResilientSolver,
) -> ResilientOFTECResult:
    """The stage-by-stage body of :func:`run_oftec_resilient`."""
    watch = stopwatch()
    solves_before = evaluator.solve_count
    attempts: List[AttemptRecord] = []
    failures: List[FailureReport] = []
    t_max = problem.limits.t_max

    # Line 1: the midpoint initial guess (guarded — even a single
    # evaluation can hit an injected or genuine network fault).
    omega0, current0 = initial_operating_point(problem)
    initial: Optional[Evaluation] = None
    try:
        initial = evaluator.evaluate(omega0, current0)
    except SolverError as exc:
        failures.append(failure_report_from_exception(
            problem.name, "initial-point", exc,
            last_iterate=(omega0, current0)))

    # Lines 2-3: hunt for feasibility when the midpoint violates T_max.
    opt2: Optional[OptimizationOutcome] = None
    start_point: Optional[Tuple[float, float]] = None
    best_eval: Optional[Evaluation] = initial
    if initial is not None and not initial.max_chip_temperature > t_max:
        start_point = (omega0, current0)
    else:
        stage2 = solver.minimize_temperature(
            x0=(omega0, current0), early_stop_below=t_max)
        attempts.extend(stage2.attempts)
        if stage2.failure is not None:
            failures.append(stage2.failure)
        opt2 = stage2.outcome
        if opt2 is not None:
            best_eval = opt2.evaluation
            if not opt2.evaluation.max_chip_temperature > t_max:
                start_point = (opt2.evaluation.omega,
                               opt2.evaluation.current)

    if start_point is not None:
        # Line 6: minimize power from the feasible point.
        stage1 = solver.minimize_power(x0=start_point)
        attempts.extend(stage1.attempts)
        if stage1.failure is not None:
            failures.append(stage1.failure)
        if stage1.outcome is not None:
            opt1 = stage1.outcome
            chosen = opt1.evaluation
        else:
            # Optimization 1 broke down on every rung, but the feasible
            # start point survives (a cache hit — cannot re-fault):
            # degrade to it rather than report nothing.
            opt1 = None
            chosen = evaluator.evaluate(*start_point)
        result = OFTECResult(
            problem_name=problem.name,
            omega_star=chosen.omega,
            current_star=chosen.current,
            evaluation=chosen,
            feasible=chosen.feasible,
            runtime_seconds=watch.elapsed,
            opt2=opt2, opt1=opt1,
            thermal_solves=evaluator.solve_count - solves_before)
        return ResilientOFTECResult(result, attempts, failures)

    # Lines 4-5: infeasible (or every stage broke down).  Report the
    # best point we saw.
    result = None
    if best_eval is not None:
        result = OFTECResult(
            problem_name=problem.name,
            omega_star=best_eval.omega,
            current_star=best_eval.current,
            evaluation=best_eval,
            feasible=False,
            runtime_seconds=watch.elapsed,
            opt2=opt2, opt1=None,
            thermal_solves=evaluator.solve_count - solves_before)
    return ResilientOFTECResult(result, attempts, failures)
