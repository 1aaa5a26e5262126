"""Declarative fault plans: what to break, how often, and when.

A :class:`FaultPlan` is a pure description — it holds no randomness of
its own.  The :class:`~repro.faults.FaultInjector` turns a plan into
deterministic per-kind Bernoulli streams, so two runs with the same plan
(and the same call pattern) inject byte-identical fault sequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigurationError


class FaultKind(enum.Enum):
    """The failure modes the chaos harness knows how to inject."""

    #: Corrupt an otherwise healthy evaluation with a NaN total power
    #: (exercises the evaluator's NaN/Inf guard).
    NAN_POWER = "nan-power"
    #: Raise :class:`~repro.errors.SingularNetworkError` as a
    #: near-singular conductance system would.
    SINGULAR_NETWORK = "singular-network"
    #: Report a diverging leakage relinearization loop (the thermal
    #: runaway path) at a point that is actually fine.
    LEAKAGE_DIVERGENCE = "leakage-divergence"
    #: Raise :class:`~repro.errors.EvaluationBudgetError` as an
    #: exhausted per-attempt solve budget would.
    ITERATION_EXHAUSTION = "iteration-exhaustion"
    #: Raise :class:`~repro.errors.SolveTimeoutError`, simulating a
    #: wall-clock watchdog firing mid-solve.
    SOLVE_TIMEOUT = "solve-timeout"
    #: Process-level: hard-kill the worker process (``os._exit``)
    #: before it runs the unit, as an OOM killer or segfault would.
    #: Only fires inside a supervised worker (:mod:`repro.exec`); the
    #: serial executor ignores it.
    WORKER_KILL = "worker-kill"
    #: Process-level: the worker goes silent — heartbeats stop and the
    #: unit never completes — as a deadlocked or livelocked process
    #: would.  Detected by the supervisor's heartbeat watchdog.
    WORKER_HANG = "worker-hang"
    #: Process-level: the worker stalls for a bounded delay before
    #: running the unit, exercising the deadline margin without
    #: triggering it.
    WORKER_SLOW = "worker-slow"


#: The fault kinds injected at the evaluator/network seam by
#: :class:`~repro.faults.FaultyEvaluator` — the kinds
#: :func:`full_fault_plan` covers.
EVALUATOR_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.NAN_POWER,
    FaultKind.SINGULAR_NETWORK,
    FaultKind.LEAKAGE_DIVERGENCE,
    FaultKind.ITERATION_EXHAUSTION,
    FaultKind.SOLVE_TIMEOUT,
)

#: The process-level fault kinds injected by the supervised worker
#: loop (:mod:`repro.exec.supervisor`).  Inert everywhere else: a
#: ``worker-kill`` in the serial executor would take down the
#: coordinator itself, so these kinds fire only where a supervisor is
#: watching.
PROCESS_FAULT_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.WORKER_KILL,
    FaultKind.WORKER_HANG,
    FaultKind.WORKER_SLOW,
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind plus its firing schedule.

    Attributes:
        kind: The failure mode to inject.
        rate: Bernoulli firing probability per eligible call, in [0, 1].
        start_call: Number of initial calls that are immune (lets a
            pipeline warm up before the chaos starts).
        max_fires: Cap on total fires (None = unlimited).
    """

    kind: FaultKind
    rate: float = 0.05
    start_call: int = 0
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise ConfigurationError(
                f"kind must be a FaultKind, got {self.kind!r}")
        if not (0.0 <= self.rate <= 1.0):
            raise ConfigurationError(
                f"rate must be in [0, 1], got {self.rate}")
        if self.start_call < 0:
            raise ConfigurationError(
                f"start_call must be >= 0, got {self.start_call}")
        if self.max_fires is not None and self.max_fires <= 0:
            raise ConfigurationError(
                f"max_fires must be positive or None, got "
                f"{self.max_fires}")


@dataclass(frozen=True)
class FaultPlan:
    """A seedable set of fault specs, at most one per kind.

    Attributes:
        seed: Root seed of the per-kind random streams.
        specs: The faults to inject.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for spec in self.specs:
            if spec.kind in seen:
                raise ConfigurationError(
                    f"Duplicate fault spec for {spec.kind.value!r}")
            seen.add(spec.kind)

    def spec_for(self, kind: FaultKind) -> Optional[FaultSpec]:
        """The spec covering ``kind``, or None when it never fires."""
        for spec in self.specs:
            if spec.kind is kind:
                return spec
        return None

    @property
    def kinds(self) -> Tuple[FaultKind, ...]:
        """The fault kinds this plan injects, in spec order."""
        return tuple(spec.kind for spec in self.specs)

    @property
    def process_kinds(self) -> Tuple[FaultKind, ...]:
        """The process-level kinds in this plan (supervisor-injected)."""
        return tuple(spec.kind for spec in self.specs
                     if spec.kind in PROCESS_FAULT_KINDS)

    def derive(self, label: str) -> "FaultPlan":
        """A sub-plan with the same specs and a label-derived seed.

        Parallel chaos gives each work-unit its own injector; deriving
        the unit's seed from ``(seed, label)`` keeps every unit's fault
        stream independent of scheduling order and worker count — the
        same plan and label always yield the same stream, no matter
        which process runs the unit or in what order.
        """
        import hashlib
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode("utf-8"),
            digest_size=8).digest()
        derived_seed = int.from_bytes(digest, "big")
        return FaultPlan(seed=derived_seed, specs=self.specs)


def full_fault_plan(seed: int = 0, rate: float = 0.05,
                    start_call: int = 0) -> FaultPlan:
    """A plan covering every evaluator-level kind at a uniform rate.

    Covers :data:`EVALUATOR_FAULT_KINDS` only — the process-level
    kinds change *how* a campaign executes (workers die) rather than
    *what* an evaluation returns, so they are opted into explicitly
    via :func:`process_fault_plan` or hand-built specs.
    """
    return FaultPlan(seed=seed, specs=tuple(
        FaultSpec(kind=kind, rate=rate, start_call=start_call)
        for kind in EVALUATOR_FAULT_KINDS))


def process_fault_plan(seed: int = 0, rate: float = 0.25,
                       kinds: Tuple[FaultKind, ...]
                       = PROCESS_FAULT_KINDS,
                       max_fires: Optional[int] = 1) -> FaultPlan:
    """A plan covering the process-level kinds at a uniform rate.

    The default ``max_fires=1`` bounds the chaos per unit: under the
    per-attempt reinterpretation (see :func:`process_fault_decision`)
    each unit's attempts beyond the first are immune, so every unit is
    guaranteed to complete within one retry.  Pass ``max_fires=None``
    for unbounded chaos (units may quarantine).
    """
    for kind in kinds:
        if kind not in PROCESS_FAULT_KINDS:
            raise ConfigurationError(
                f"{kind.value!r} is not a process-level fault kind")
    return FaultPlan(seed=seed, specs=tuple(
        FaultSpec(kind=kind, rate=rate, max_fires=max_fires)
        for kind in kinds))


def process_fault_decision(plan: Optional[FaultPlan], label: str,
                           attempt: int) -> Optional[FaultKind]:
    """Which process-level fault (if any) strikes attempt N of a unit.

    Pure and deterministic: the draw is a blake2b hash of
    ``(seed, label, attempt, kind)``, so the coordinator can recompute
    what a worker decided without a channel, and a *retry* of the same
    unit re-rolls the dice instead of deterministically dying again.
    Spec fields are reinterpreted per unit-attempt (``attempt`` is
    1-based): ``start_call`` immunizes the first N attempts and
    ``max_fires`` caps how many attempts may be struck — attempts
    beyond ``start_call + max_fires`` never fire, guaranteeing the
    unit completes within that many retries.  The first striking spec
    in plan order wins.  Returns None when no fault fires (including
    ``plan=None`` and plans with no process-level specs).
    """
    if plan is None or attempt < 1:
        return None
    for spec in plan.specs:
        if spec.kind not in PROCESS_FAULT_KINDS:
            continue
        if attempt <= spec.start_call:
            continue
        if spec.max_fires is not None and \
                attempt > spec.start_call + spec.max_fires:
            continue
        import hashlib
        digest = hashlib.blake2b(
            f"{plan.seed}:{label}:{attempt}:{spec.kind.value}"
            .encode("utf-8"), digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / float(2 ** 64)
        if draw < spec.rate:
            return spec.kind
    return None
