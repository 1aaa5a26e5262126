"""The code that runs inside worker processes.

One :func:`initialize` call per worker process unpickles the shared
:class:`~repro.exec.units.WorkerContext`; after that every
:func:`run_unit` call executes one :class:`~repro.exec.units.WorkUnit`
against the worker's *own* lazily built evaluators and thermal
operators.  Each problem template's model and its sparse operator
structure are built once per worker and serve every subsequent unit;
the factors a unit makes belong to its own evaluators' solve contexts.

Nothing in this module assumes a separate process.  The supervisor's
serial path calls :func:`install_runtime`/:func:`run_unit` in the
coordinating process (leaving its telemetry state alone), which is
also what makes the shim trivially testable.

Failure discipline: library errors
(:class:`~repro.errors.ReproError`) become structured
:class:`~repro.core.FailureReport` entries plus a picklable
``(stage, type, message)`` tag — original exception objects never
cross the process boundary, because subclasses with extra constructor
arguments do not survive unpickling.  Non-library exceptions are
recorded on :attr:`UnitResult.unhandled` (the chaos contract) for the
coordinator to judge.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import threading
from dataclasses import fields
from typing import Callable, Optional

from ..analysis.campaign import _run_benchmark, _StageFailure
from ..core import CoolingProblem, Evaluator, failure_report_from_exception
from ..errors import ConfigurationError
from ..faults.inject import FaultInjector, FaultyEvaluator
from ..obs import runtime as _obs
from ..obs.clock import monotonic, stopwatch
from ..obs.export import span_to_dict
from ..thermal import OperatorStats
from .units import UnitResult, WorkUnit, WorkerContext


class _WorkerRuntime:
    """Per-process state: the unpickled context and derived handles."""

    __slots__ = ("context",)

    def __init__(self, context: WorkerContext):
        self.context = context


#: The installed runtime (rebound, never mutated, by
#: :func:`initialize`).  None until the worker is initialized.
_RUNTIME: Optional[_WorkerRuntime] = None


def in_worker() -> bool:
    """True while a worker context is installed.

    This is the nested-fan-out guard: while it holds, worker
    resolution stays serial, so a unit body that reaches a campaign
    entry point can never spawn workers inside a worker process — or,
    through the serial path, clobber the enclosing run's state.  True
    for the lifetime of a worker process and for the duration of a
    serial-path run.
    """
    return _RUNTIME is not None


def current_context() -> Optional[WorkerContext]:
    """The installed worker context, or None outside a worker.

    The supervised worker loop reads the shared
    :class:`~repro.exec.units.WorkerContext` back (for the fault plan
    driving process-level injection) without reaching into the private
    runtime holder.
    """
    runtime = _RUNTIME
    return runtime.context if runtime is not None else None


def install_runtime(context: WorkerContext,
                    ) -> Optional[_WorkerRuntime]:
    """Install a context object; return the displaced runtime.

    The return value is the previous runtime (None when there was
    none), to be handed back to :func:`restore_runtime` — the
    save/restore pair that makes the serial executor safely nestable.
    """
    # _RUNTIME is *deliberately* per-process: it IS the worker-local
    # runtime that in_worker() reads, installed by initialize() in
    # each child.  Nothing merges back by design.
    global _RUNTIME
    previous = _RUNTIME
    _RUNTIME = _WorkerRuntime(context)
    return previous


def restore_runtime(previous: Optional[_WorkerRuntime]) -> None:
    """Reinstate the runtime displaced by :func:`install_runtime`."""
    global _RUNTIME
    _RUNTIME = previous


def initialize(payload: bytes) -> None:
    """Worker-process initializer: reset telemetry, install the context.

    ``payload`` is ``pickle.dumps(WorkerContext)``, pickled explicitly
    by the coordinator so the fork and spawn start methods exercise the
    identical serialization path.  Telemetry state is reset
    defensively (the at-fork hook already handles forked children;
    spawned workers import fresh) so a worker never inherits an enabled
    tracer it cannot report to.  The serial executor calls
    :func:`install_runtime` instead — resetting the coordinator's own
    telemetry mid-campaign would discard its trace.
    """
    _obs.reset()
    install_runtime(pickle.loads(payload))


#: Seconds between live metric snapshots published by supervised
#: workers (see :func:`start_live_metrics`).
LIVE_METRICS_PERIOD_S = 0.5


def start_live_metrics(slot: int, telemetry_queue,
                       period: float = LIVE_METRICS_PERIOD_S,
                       ) -> threading.Event:
    """Publish periodic metric snapshots from a supervised worker.

    Starts a daemon thread that, every ``period`` seconds while the
    worker's telemetry session is active, snapshots the worker-local
    metrics registry and puts the snapshot on ``telemetry_queue`` —
    the incremental feed the supervisor drains into the live progress
    board, so cache hit rates update *during* long units instead of
    only at unit completion.  Returns the stop event; setting it ends
    the thread at the next period boundary.

    Best-effort by design: a full queue drops the snapshot (the next
    one supersedes it anyway) and a snapshot torn by a concurrent
    update is skipped — the publisher must never stall or crash the
    unit it is narrating.
    """
    stop = threading.Event()

    def _loop() -> None:
        while not stop.wait(period):
            if not _obs.STATE.enabled:
                continue
            try:
                snapshot = _obs.get_metrics().snapshot()
            except Exception:  # physlint: disable=RPR201
                # The worker's main thread mutates the registry while
                # we snapshot it; any torn read (dict-changed-size,
                # transient inconsistency) just skips this period.
                continue
            try:
                telemetry_queue.put_nowait(snapshot)
            except queue_module.Full:
                continue

    thread = threading.Thread(target=_loop,
                              name=f"repro-live-metrics-{slot}",
                              daemon=True)
    thread.start()
    return stop


def run_unit(unit: WorkUnit) -> UnitResult:
    """Execute one work unit and package everything the merge needs.

    When the context asks for telemetry the unit runs under its own
    :func:`~repro.obs.telemetry_session`; the finished spans and a
    metrics snapshot ride home on the result for the coordinator to
    adopt (see :meth:`repro.obs.Tracer.adopt_records`).
    """
    runtime = _RUNTIME
    if runtime is None:
        raise ConfigurationError(
            "worker runtime not initialized; initialize() must run "
            "before run_unit()")
    context = runtime.context
    result = UnitResult(index=unit.index, name=unit.name)
    start = monotonic()
    if context.telemetry:
        with _obs.telemetry_session() as (tracer, metrics):
            _execute_benchmark(context, unit, result)
            result.spans = [span_to_dict(span)
                            for span in tracer.finished]
            result.metrics = metrics.snapshot()
    else:
        _execute_benchmark(context, unit, result)
    result.wall_seconds = monotonic() - start
    result.stats["pid"] = os.getpid()
    result.stats["wall_seconds"] = result.wall_seconds
    return result


def _operator_deltas(result: UnitResult, befores, afters) -> None:
    """Record the unit's :class:`~repro.thermal.OperatorStats` deltas
    on ``result.stats``, keyed by field name."""
    for stat in fields(OperatorStats):
        result.stats[stat.name] = sum(
            getattr(a, stat.name) - getattr(b, stat.name)
            for b, a in zip(befores, afters))


def _execute_benchmark(context: WorkerContext, unit: WorkUnit,
                       result: UnitResult) -> None:
    """One campaign benchmark: all methods, both objectives.

    The same :func:`~repro.analysis.campaign._run_benchmark` body, span
    nesting and failure-report ordering on the serial path and in
    every worker process — which is what the bit-identity contract
    rests on.
    """
    name = unit.name
    if context.tec_template is None or context.profiles is None:
        raise ConfigurationError(
            "benchmark units need tec/baseline templates and profiles "
            "on the worker context")
    profile = context.profiles[name]
    tec_problem = context.tec_template.with_profile(profile, name=name)
    base_problem = context.baseline_template.with_profile(
        profile, name=name)
    injector: Optional[FaultInjector] = None
    make: Callable[[CoolingProblem], Evaluator]
    if context.fault_plan is not None:
        # Each unit owns a derived injector: the fault stream depends
        # only on (root seed, benchmark name), never on which worker
        # runs the unit or in what order.
        injector = FaultInjector(context.fault_plan.derive(name))
        local_injector = injector

        def make(problem: CoolingProblem) -> Evaluator:
            return FaultyEvaluator(problem, local_injector)
    else:
        make = Evaluator
    operators = (tec_problem.model.network.operator,
                 base_problem.model.network.operator)
    befores = tuple(op.stats for op in operators)
    try:
        with _obs.span("benchmark", name), \
                stopwatch("campaign.benchmark_seconds"):
            result.value = _run_benchmark(
                name, tec_problem, base_problem, context.method,
                context.include_tec_only, make, context.resilient,
                context.policy, result.failures)
    except _StageFailure as failure:
        result.failures.append(failure_report_from_exception(
            name, failure.stage, failure.error))
        result.error = (failure.stage,
                        type(failure.error).__name__,
                        str(failure.error))
    except Exception as exc:  # physlint: disable=RPR201
        # Deliberately broader than ReproError: library errors are
        # already packaged as structured failures above, so whatever
        # reaches this handler is by definition outside the library
        # contract — a resilience bug the chaos contract says to
        # record and merge, never to poison the worker with an
        # unpicklable traceback.
        result.unhandled.append(f"{type(exc).__name__}: {exc}")
    if injector is not None:
        result.fired = injector.fired_counts()
    _operator_deltas(result, befores,
                     tuple(op.stats for op in operators))


__all__ = ["LIVE_METRICS_PERIOD_S", "initialize", "run_unit",
           "start_live_metrics"]
