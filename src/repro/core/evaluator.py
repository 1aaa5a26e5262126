"""Operating-point evaluation: ``(omega, I_TEC) -> (𝒯, 𝒫)``.

This is the numerical oracle both optimizations consume (the paper's
"thermal simulator" box in Figure 5): one steady-state network solve plus
the bookkeeping of Equations (10)-(13).  Thermal runaway maps to large
finite penalty values that grow with the diverging temperature, giving the
outer optimizer a consistent "get out of here" signal instead of a flat
cliff.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    ConfigurationError,
    EvaluationBudgetError,
    ThermalRunawayError,
)
from ..obs import runtime as _obs
from ..thermal import (
    SolveContext,
    SteadyStateResult,
    solve_steady_state,
    steady_state_gradients,
)
from .problem import CoolingProblem

#: Additive power penalty (W) applied to runaway evaluations before the
#: temperature-growth term.
RUNAWAY_POWER_PENALTY = 1.0e3

#: Cap on the runaway temperature signal, K, to keep penalties bounded.
RUNAWAY_SIGNAL_CAP = 5.0e3

#: Decimal places ``(omega, I)`` are rounded to when keying the cache.
CACHE_DECIMALS = 9

#: LRU cap on cached evaluations, read when an evaluator is built.
#: Chosen far above the distinct
#: operating-point count of any real campaign (a few hundred), so the
#: bound only engages on pathological workloads (long chaos soaks,
#: unbounded online sweeps) where unbounded growth used to leak full
#: temperature vectors.
DEFAULT_CACHE_LIMIT = 4096

#: The :class:`CacheInfo` counts; each is mirrored, in a telemetry
#: session, by the registry counter ``evaluator.cache.<name>``.
_CACHE_COUNTS = ("hits", "misses", "evictions", "gradient_hits",
                 "gradient_misses")


def runaway_penalty(ceiling: float,
                    err: ThermalRunawayError) -> Tuple[float, float]:
    """``(𝒯, 𝒫)`` penalty values, K and W, for an unbounded point.

    The 𝒯 signal grows with the diverging temperature so an optimizer
    can climb out, but never drops below the runaway ``ceiling``: a
    wildly unphysical solve (e.g. all-negative temperatures from an
    indefinite system) must still read as "worse than any bounded
    state".  It is capped at :data:`RUNAWAY_SIGNAL_CAP`, which also
    stands in for a non-finite temperature.
    """
    signal = min(max(err.max_temperature, ceiling), RUNAWAY_SIGNAL_CAP)
    if not np.isfinite(signal):
        signal = RUNAWAY_SIGNAL_CAP
    return signal, RUNAWAY_POWER_PENALTY + signal


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of the evaluation cache counters.

    Attributes:
        hits: Queries served from the cache.
        misses: Queries that required a fresh solve.
        evictions: Entries dropped by the LRU cap.
        size: Entries currently cached.
        limit: The configured cap.
        gradient_hits: :meth:`Evaluator.evaluate_with_grad` queries
            served a gradient already attached to a cached evaluation.
        gradient_misses: Gradient queries that had to compute one
            (one adjoint block solve).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    limit: int
    gradient_hits: int = 0
    gradient_misses: int = 0


@dataclass(frozen=True)
class EvaluationGradient:
    """First derivatives of one evaluation with respect to ``(omega, I)``.

    Attributes:
        d_temp_omega: ``d𝒯/d(omega)``, K/(rad/s).
        d_temp_current: ``d𝒯/d(I_TEC)``, K/A.
        d_power_omega: ``d𝒫/d(omega)``, W/(rad/s) — total power
            including the explicit fan term.
        d_power_current: ``d𝒫/d(I_TEC)``, W/A.
    """

    d_temp_omega: float
    d_temp_current: float
    d_power_omega: float
    d_power_current: float

    @property
    def d_margin_omega(self) -> float:
        """``d(T_max - 𝒯)/d(omega)`` = the negated temperature slope."""
        return -self.d_temp_omega

    @property
    def d_margin_current(self) -> float:
        """``d(T_max - 𝒯)/d(I_TEC)``."""
        return -self.d_temp_current


@dataclass
class Evaluation:
    """One evaluated operating point.

    Attributes:
        omega: Fan speed, rad/s (clamped into bounds).
        current: TEC driving current, A (clamped into bounds).
        max_chip_temperature: 𝒯, K; a penalty value when ``runaway``.
        total_power: 𝒫 = P_leakage + P_TEC + P_fan, W; penalty when
            ``runaway``.
        leakage_power: Equation (11) term, W.
        tec_power: Equation (12) term, W.
        fan_power: Equation (13) term, W.
        feasible: ``𝒯 < T_max`` and not runaway.
        runaway: True when no bounded steady state exists here.
        steady: Full solver result (None for runaway points).
        gradient: Derivatives attached lazily by
            :meth:`Evaluator.evaluate_with_grad` (None until a gradient
            query lands on this point).
    """

    omega: float
    current: float
    max_chip_temperature: float
    total_power: float
    leakage_power: float
    tec_power: float
    fan_power: float
    feasible: bool
    runaway: bool
    steady: Optional[SteadyStateResult]
    gradient: Optional[EvaluationGradient] = None

    @property
    def cooling_power(self) -> float:
        """The actuator share of 𝒫 (TEC + fan, without leakage), W."""
        return self.tec_power + self.fan_power


class Evaluator:
    """Caching, warm-starting oracle for one :class:`CoolingProblem`.

    Successive optimizer queries move little in ``(omega, I)``; reusing
    the previous chip temperatures as the leakage linearization point cuts
    the relinearization loop to 1-2 iterations, and a result cache absorbs
    the repeated queries an SQP iteration makes at one point (objective,
    constraint and their adjoint gradients share one solve).
    """

    def __init__(self, problem: CoolingProblem):
        self.problem = problem
        self._cache: "OrderedDict[Tuple[float, float], Evaluation]" = \
            OrderedDict()
        self._cache_limit = DEFAULT_CACHE_LIMIT
        self._counts = dict.fromkeys(_CACHE_COUNTS, 0)
        self._context = SolveContext.for_model(problem.model)
        self.call_count = 0
        self.solve_count = 0
        self.adjoint_solve_count = 0
        self._solve_budget: Optional[int] = None
        self._budget_used = 0

    def _count(self, name: str) -> None:
        """Bump the cache count ``name`` and, in a telemetry session,
        the registry counter ``evaluator.cache.<name>`` (the one place
        a cache count is incremented)."""
        self._counts[name] += 1
        if _obs.STATE.enabled:
            _obs.STATE.metrics.counter("evaluator.cache." + name).inc()

    @property
    def context(self) -> SolveContext:
        """The solve context carrying the warm linearization point."""
        return self._context

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction counters and current size of the cache."""
        return CacheInfo(size=len(self._cache), limit=self._cache_limit,
                         **self._counts)

    def set_solve_budget(self, budget: Optional[int]) -> None:
        """Cap the number of *fresh* thermal solves until the next call.

        Cache hits are free.  Once the cap is reached, further solves
        raise :class:`~repro.errors.EvaluationBudgetError` — the
        resilient solver's per-attempt circuit breaker.  ``None`` removes
        the cap; setting a budget resets the used counter.
        """
        if budget is not None and budget <= 0:
            raise ConfigurationError(
                f"solve budget must be positive, got {budget}")
        self._solve_budget = budget
        self._budget_used = 0

    def clamp(self, omega: float, current: float) -> Tuple[float, float]:
        """Clamp a query into the box constraints (16)-(17)."""
        limits = self.problem.limits
        omega_c = float(min(max(omega, 0.0), limits.omega_max))
        current_c = float(min(max(current, 0.0),
                              self.problem.current_upper_bound))
        return omega_c, current_c

    def evaluate(self, omega: float, current: float) -> Evaluation:
        """Evaluate 𝒯 and 𝒫 at one ``(omega, current)`` operating
        point (fan speed in rad/s, TEC current in A); cached."""
        self.call_count += 1
        omega, current = self.clamp(omega, current)
        key = (round(omega, CACHE_DECIMALS),
               round(current, CACHE_DECIMALS))
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            self._count("hits")
            return hit
        self._count("misses")
        if _obs.STATE.enabled:
            with _obs.STATE.tracer.span("evaluate", omega=omega,
                                        current=current):
                result = self._guard_finite(
                    self._solve(omega, current))
        else:
            result = self._guard_finite(self._solve(omega, current))
        self._store(key, result)
        return result

    def evaluate_with_grad(self, omega: float,
                           current: float) -> Evaluation:
        """Evaluate one point and attach its ``(d𝒯, d𝒫)`` gradient
        (``omega`` is the fan speed, rad/s; ``current`` the TEC driving
        current, A).

        The forward value goes through :meth:`evaluate` (same cache,
        same budget accounting); the gradient rides the adjoint path —
        one ``(n, 2)`` block solve, by PCG against the solve context's
        held factor, counted in
        :attr:`adjoint_solve_count` and in the operator's
        ``adjoint_solves``, never against the solve budget.  Gradients
        attach to the cached :class:`Evaluation` in place, so repeat
        queries at one operating point are gradient cache hits.

        A runaway penalty point has no steady state to differentiate:
        there the query raises :class:`~repro.errors.ThermalRunawayError`
        (a :class:`~repro.errors.SolverError`, which the fallback ladder
        and the campaign's stage isolation absorb) and no gradient is
        attached.
        """
        evaluation = self.evaluate(omega, current)
        if evaluation.runaway:
            raise ThermalRunawayError(
                "no gradient at the runaway point "
                f"omega={evaluation.omega:.1f}, I={evaluation.current:.2f}",
                max_temperature=evaluation.max_chip_temperature)
        if evaluation.gradient is not None:
            self._count("gradient_hits")
            return evaluation
        self._count("gradient_misses")
        if _obs.STATE.enabled:
            with _obs.STATE.tracer.span("gradient", omega=evaluation.omega,
                                        current=evaluation.current):
                evaluation.gradient = self._adjoint_gradient(evaluation)
        else:
            evaluation.gradient = self._adjoint_gradient(evaluation)
        return evaluation

    def _adjoint_gradient(self, evaluation: Evaluation,
                          ) -> EvaluationGradient:
        """One adjoint block solve at a converged evaluation."""
        problem = self.problem
        fan_gradient = problem.fan.power_gradient(evaluation.omega)
        grads = steady_state_gradients(
            problem.model, evaluation.steady,
            problem.dynamic_cell_power,
            leakage=problem.leakage,
            sink_heat=problem.fan_heat_fraction * evaluation.fan_power,
            sink_heat_gradient=problem.fan_heat_fraction * fan_gradient,
            context=self._context)
        self.adjoint_solve_count += 2
        if _obs.STATE.enabled:
            _obs.STATE.metrics.counter(
                "evaluator.adjoint.solves").inc(2)
        return EvaluationGradient(
            d_temp_omega=grads.d_temp_omega,
            d_temp_current=grads.d_temp_current,
            d_power_omega=grads.d_power_omega + fan_gradient,
            d_power_current=grads.d_power_current)

    def evaluate_many(self, points: Sequence[Tuple[float, float]],
                      ) -> List[Evaluation]:
        """Evaluate a sequence of ``(omega, current)`` points in order:
        exactly :meth:`evaluate` per point (same caching, warm-start
        chaining, budget accounting and penalty mapping)."""
        return [self.evaluate(omega, current) for omega, current in points]

    def _store(self, key: Tuple[float, float],
               result: Evaluation) -> None:
        self._cache[key] = result
        if len(self._cache) > self._cache_limit:
            self._cache.popitem(last=False)
            self._count("evictions")

    def _guard_finite(self, evaluation: Evaluation) -> Evaluation:
        """NaN/Inf guard: corrupt objective values (a NaN power entry,
        an Inf temperature) are remapped onto the runaway penalty so the
        outer optimizer sees a consistent "get out of here" signal
        instead of poisoning its line search.  Finite evaluations pass
        through untouched (runaway penalties are finite by design)."""
        if evaluation.runaway:
            return evaluation
        if np.isfinite(evaluation.max_chip_temperature) \
                and np.isfinite(evaluation.total_power):
            return evaluation
        return self._runaway_evaluation(
            evaluation.omega, evaluation.current, evaluation.fan_power,
            ThermalRunawayError(
                "non-finite objective value at "
                f"omega={evaluation.omega:.1f}, "
                f"I={evaluation.current:.2f} "
                f"(T={evaluation.max_chip_temperature}, "
                f"P={evaluation.total_power})",
                max_temperature=float("inf")))

    def _runaway_evaluation(self, omega: float, current: float,
                            fan_power: float,
                            err: ThermalRunawayError) -> Evaluation:
        """The :func:`runaway_penalty` evaluation for an unbounded
        operating point (omega in rad/s, current in A, fan_power in W).
        """
        signal, penalty = runaway_penalty(
            self.problem.model.config.runaway_ceiling, err)
        return Evaluation(
            omega=omega, current=current,
            max_chip_temperature=signal,
            total_power=penalty,
            leakage_power=float("inf"),
            tec_power=0.0, fan_power=fan_power,
            feasible=False, runaway=True, steady=None)

    def _solve(self, omega: float, current: float) -> Evaluation:
        problem = self.problem
        if self._solve_budget is not None:
            if self._budget_used >= self._solve_budget:
                if _obs.STATE.enabled:
                    _obs.STATE.tracer.event(
                        "budget.exhausted",
                        budget=self._solve_budget,
                        omega=omega, current=current)
                    _obs.STATE.metrics.counter(
                        "evaluator.budget.exhausted").inc()
                raise EvaluationBudgetError(
                    f"evaluation budget of {self._solve_budget} thermal "
                    f"solves exhausted at omega={omega:.1f}, "
                    f"I={current:.2f}")
            self._budget_used += 1
        self.solve_count += 1
        fan_power = problem.fan.power(omega)
        try:
            steady = solve_steady_state(
                problem.model, omega, current,
                problem.dynamic_cell_power, problem.leakage,
                sink_heat=problem.fan_heat_fraction * fan_power,
                context=self._context)
        except ThermalRunawayError as err:
            return self._runaway_evaluation(omega, current, fan_power,
                                            err)
        return self._evaluation_from_steady(omega, current, fan_power,
                                            steady)

    def _evaluation_from_steady(self, omega: float, current: float,
                                fan_power: float,
                                steady: SteadyStateResult) -> Evaluation:
        """Package a successful steady-state solve as an evaluation."""
        total = steady.leakage_power + steady.tec_power + fan_power
        return Evaluation(
            omega=omega, current=current,
            max_chip_temperature=steady.max_chip_temperature,
            total_power=total,
            leakage_power=steady.leakage_power,
            tec_power=steady.tec_power,
            fan_power=fan_power,
            feasible=steady.max_chip_temperature
            < self.problem.limits.t_max,
            runaway=False,
            steady=steady)

    # -- the two objective functions of Section 5 ---------------------

    def temperature_objective(self, omega: float, current: float) -> float:
        """𝒯(omega, I) in K for omega in rad/s and I in A
        (Optimization 2's objective, Equation 19)."""
        return self.evaluate(omega, current).max_chip_temperature

    def power_objective(self, omega: float, current: float) -> float:
        """𝒫(omega, I) in W for omega in rad/s and I in A
        (Optimization 1's objective, Equation 10)."""
        return self.evaluate(omega, current).total_power

    def thermal_margin(self, omega: float, current: float) -> float:
        """``T_max - 𝒯`` in K (omega in rad/s, current in A);
        positive inside Constraint (15)."""
        return (self.problem.limits.t_max
                - self.evaluate(omega, current).max_chip_temperature)

    def clear_cache(self) -> None:
        """Drop cached evaluations, the warm linearization point and
        the held factor (e.g. after mutating the problem)."""
        self._cache.clear()
        self._context.reset()
