"""Deterministic fault injectors for the evaluator and thermal network.

Two injection points cover the stack:

* :class:`FaultyEvaluator` — an :class:`~repro.core.Evaluator` subclass
  that intercepts ``_solve`` and ``_adjoint_gradient`` and raises (or
  corrupts) according to the plan.  This is the workhorse of the chaos
  campaign: every optimizer, baseline, and Algorithm 1 stage consumes
  evaluators.
* :class:`FaultyNetwork` — a delegation proxy over
  :class:`~repro.thermal.ThermalNetwork` that makes the *real* sparse
  system singular to working precision (by zeroing every row sum),
  exercising the genuine :class:`~repro.errors.SingularNetworkError`
  detection path including its condition estimate.

All randomness flows from per-kind ``np.random.default_rng`` streams
seeded by ``SeedSequence([plan.seed, spec_index])``: same plan + same
call pattern = same fault sequence.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from ..core.evaluator import Evaluation, EvaluationGradient, Evaluator
from ..core.problem import CoolingProblem
from ..errors import (
    EvaluationBudgetError,
    SingularNetworkError,
    SolveTimeoutError,
    ThermalRunawayError,
)
from ..obs import runtime as _obs
from ..thermal import KrylovState, ThermalNetwork
from ..thermal.operator import KRYLOV_TOLERANCE
from .plan import FaultKind, FaultPlan

#: Condition estimate attached to injected singular-network faults —
#: representative of a genuinely near-singular conductance system.
INJECTED_CONDITION_ESTIMATE = 1.0e16

#: Divergence temperature (K) reported by injected leakage-loop faults.
INJECTED_DIVERGENCE_TEMPERATURE = 2.0e3


class FaultInjector:
    """Turns a :class:`~repro.faults.FaultPlan` into firing decisions.

    Each fault kind owns an independent RNG stream and call counter, so
    adding one kind to a plan never shifts another kind's sequence.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rngs: Dict[FaultKind, np.random.Generator] = {}
        self._calls: Dict[FaultKind, int] = {}
        self._fired: Dict[FaultKind, int] = {}
        for index, spec in enumerate(plan.specs):
            self._rngs[spec.kind] = np.random.default_rng(
                np.random.SeedSequence([plan.seed, index]))
            self._calls[spec.kind] = 0
            self._fired[spec.kind] = 0

    def should_fire(self, kind: FaultKind) -> bool:
        """Decide (and record) whether ``kind`` fires on this call."""
        spec = self.plan.spec_for(kind)
        if spec is None:
            return False
        call = self._calls[kind]
        self._calls[kind] = call + 1
        if call < spec.start_call:
            return False
        if spec.max_fires is not None \
                and self._fired[kind] >= spec.max_fires:
            return False
        if not self._rngs[kind].random() < spec.rate:
            return False
        self._fired[kind] += 1
        if _obs.STATE.enabled:
            # The decision is made inside the solve the fault is about
            # to perturb, so the event lands on that solve's open span.
            _obs.STATE.tracer.event("fault.injected", kind=kind.value,
                                    fire=self._fired[kind])
            _obs.STATE.metrics.counter(
                f"faults.injected.{kind.value}").inc()
        return True

    def fired_counts(self) -> Dict[str, int]:
        """Fires so far, keyed by fault-kind value."""
        return {kind.value: count
                for kind, count in self._fired.items()}

    def call_counts(self) -> Dict[str, int]:
        """Firing decisions so far, keyed by fault-kind value."""
        return {kind.value: count
                for kind, count in self._calls.items()}


class FaultyEvaluator(Evaluator):
    """An evaluator whose fresh solves fail according to a fault plan.

    Cache hits are never faulted (matching the real failure surface:
    a cached evaluation involves no linear algebra).  The NaN-power
    fault corrupts the result *after* a healthy solve, so the base
    class's NaN/Inf guard is what keeps it from reaching the optimizer.

    Gradients run the real adjoint block solve of the base class; a
    fresh one (cached gradients are never faulted) may first fail with
    an injected solve timeout or near-singular system, the two faults a
    linear solve can meet.
    """

    def __init__(self, problem: CoolingProblem, injector: FaultInjector):
        super().__init__(problem)
        self.injector = injector

    def _linear_solve_faults(self, omega: float, current: float) -> None:
        """Raise the injected timeout or singular-system fault, if one
        fires on this solve."""
        where = f"omega={omega:.1f}, I={current:.2f}"
        if self.injector.should_fire(FaultKind.SOLVE_TIMEOUT):
            raise SolveTimeoutError(
                f"injected solve timeout at {where}")
        if self.injector.should_fire(FaultKind.SINGULAR_NETWORK):
            raise SingularNetworkError(
                f"injected near-singular thermal system at {where} "
                f"(1-norm condition estimate "
                f"{INJECTED_CONDITION_ESTIMATE:.3e})",
                condition_estimate=INJECTED_CONDITION_ESTIMATE)

    def _adjoint_gradient(self, evaluation: Evaluation,
                          ) -> EvaluationGradient:
        self._linear_solve_faults(evaluation.omega, evaluation.current)
        return super()._adjoint_gradient(evaluation)

    def _solve(self, omega: float, current: float) -> Evaluation:
        self._linear_solve_faults(omega, current)
        where = f"omega={omega:.1f}, I={current:.2f}"
        if self.injector.should_fire(FaultKind.ITERATION_EXHAUSTION):
            raise EvaluationBudgetError(
                f"injected solver iteration exhaustion at {where}")
        if self.injector.should_fire(FaultKind.LEAKAGE_DIVERGENCE):
            return self._runaway_evaluation(
                omega, current, self.problem.fan.power(omega),
                ThermalRunawayError(
                    f"injected leakage-loop divergence at {where}",
                    max_temperature=INJECTED_DIVERGENCE_TEMPERATURE))
        evaluation = super()._solve(omega, current)
        if self.injector.should_fire(FaultKind.NAN_POWER):
            return replace(evaluation, total_power=float("nan"))
        return evaluation


class FaultyNetwork:
    """Delegation proxy making the real sparse system singular on fire.

    When the singular-network fault fires, the diagonal overlay is
    shifted so every matrix row sums to zero — a pure Laplacian with no
    path to ambient — and the *inner* solver's own degeneracy handling
    (NaN detection, solution-amplification guard, condition estimate)
    does the rest — on the warm path too, where PCG cannot converge on
    the sabotaged system and the fresh factorization it falls back to
    meets the same guards.  All other attributes delegate to the
    wrapped network.
    """

    def __init__(self, network: ThermalNetwork,
                 injector: FaultInjector):
        self._network = network
        self._injector = injector
        self._static_row_sums: Optional[np.ndarray] = None

    def __getattr__(self, name: str):
        return getattr(self._network, name)

    def _row_sums(self, overlay: np.ndarray) -> np.ndarray:
        """Row sums of ``static + diag(overlay)`` without assembling the
        matrix: the static share is computed once and cached (the
        network is immutable after finalization), the overlay lands on
        the diagonal so it adds straight onto its row."""
        if self._static_row_sums is None:
            self._static_row_sums = np.asarray(
                self._network.static_matrix.sum(axis=1),
                dtype=float).ravel()
        return self._static_row_sums + overlay

    def solve(self, diag_overlay: np.ndarray, rhs: np.ndarray,
              warm: Optional[KrylovState] = None, *,
              start: Optional[np.ndarray] = None,
              tolerance: float = KRYLOV_TOLERANCE) -> np.ndarray:
        """Solve the (possibly sabotaged) steady-state system, warm
        through the caller's ``warm`` state like the wrapped network."""
        if self._injector.should_fire(FaultKind.SINGULAR_NETWORK):
            overlay = np.asarray(diag_overlay, dtype=float)
            diag_overlay = overlay - self._row_sums(overlay)
        return self._network.solve(diag_overlay, rhs, warm, start=start,
                                   tolerance=tolerance)
