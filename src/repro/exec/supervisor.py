"""Supervised execution: heartbeats, deadlines, retries, quarantine.

The one runtime behind :func:`repro.exec.run_campaign_units`: every
call is one :class:`_Supervisor` run.  A fan-out runs on directly
managed ``multiprocessing`` workers the coordinator can observe and
kill, so a hung SLSQP solve or an OOM-killed worker costs one retried
unit instead of the whole run; everything else runs through the same
supervisor's in-process serial path:

* **Heartbeats.**  Each worker runs a daemon thread bumping a shared
  per-slot counter; the coordinator tracks *when each counter last
  changed* (its own monotonic clock — nothing compares clocks across
  processes), kills workers whose beats go silent, and replaces them.
  The same thread exits the worker once its parent pid changes, so the
  workers of a killed coordinator do not outlive it.
* **Deadlines.**  Every dispatched unit arms a monotonic
  :class:`~repro.obs.Deadline`; a worker that holds a unit past it is
  killed and replaced.  Wall-clock (``time.time``) never participates,
  so NTP steps and suspend/resume cannot fire or starve a watchdog.
* **Retries.**  A failed attempt (crash, deadline, silence) is
  re-queued with exponential backoff plus deterministic jitter.  Every
  unit execution re-derives its fault/RNG streams from its own label
  (see :meth:`repro.faults.FaultPlan.derive`), so a retried unit
  computes bit-identical physics to an undisturbed run.  An unhandled
  exception is not retried — the same streams would raise it again —
  so the result comes back with its ``unhandled`` lines for the
  caller to report, exactly as the serial path returns it.
* **Quarantine.**  A unit that fails ``max_attempts`` times is
  quarantined with its per-attempt post-mortems; the campaign
  *completes* with a structured ``quarantined`` section instead of
  raising away every healthy unit's work.
* **Circuit breaker.**  Repeated pool-level infrastructure failures
  (workers that cannot even be spawned) open the circuit: an
  ``exec.circuit_open`` event fires and the remaining units degrade
  to the in-process serial path.
* **Telemetry.**  A unit's spans and metrics ride home on its
  :class:`~repro.exec.units.UnitResult`; the coordinator adopts them
  once, when it accepts the result, whichever path produced it.

Process-level chaos (``worker-kill`` / ``worker-hang`` /
``worker-slow`` in a :class:`~repro.faults.FaultPlan`) is injected
*here*, by the supervised worker loop itself.  The serial path never
fires those kinds, because an in-process ``os._exit`` would take the
whole campaign with it; :func:`repro.faults.run_chaos_campaign`
therefore refuses a process-level plan below two workers.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from ..faults.plan import FaultKind, process_fault_decision
from ..obs import runtime as _obs
from ..obs.clock import Deadline, monotonic
from . import workers as _workers
from .journal import JournalWriter
from .units import UnitResult, WorkUnit, WorkerContext

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"

#: Exit code a worker dies with when a ``worker-kill`` fault fires —
#: distinguishable from real crashes in the quarantine post-mortems.
KILL_EXIT_CODE = 113

#: Stall injected by a ``worker-slow`` fault before the unit runs (s).
#: Long enough to be visible next to the heartbeat interval, short
#: enough never to threaten a sane deadline.
SLOW_FAULT_DELAY_S = 0.25

#: Period of each worker's heartbeat thread (s).
HEARTBEAT_INTERVAL_S = 0.1

#: Heartbeat silence after which a live worker is declared hung and
#: killed (s); well above the interval, or every healthy worker would
#: look hung.
HEARTBEAT_TIMEOUT_S = 5.0

#: Retry backoff: the first retry waits ``BACKOFF_BASE_S``, each later
#: one ``BACKOFF_FACTOR`` times longer, capped at ``BACKOFF_MAX_S``, and
#: each (unit, attempt) scales its delay by a hash-derived factor in
#: ``[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]``.
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0
BACKOFF_JITTER = 0.25

#: Worker *spawn* failures tolerated before the circuit opens and the
#: remaining units run serially in-process.
CIRCUIT_BREAKER_FAILURES = 3

#: Coordinator supervision poll period (s).
POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class SupervisionPolicy:
    """The two settable knobs of the supervised executor.

    The heartbeat, backoff, circuit-breaker and poll settings are the
    module constants above.

    Attributes:
        unit_deadline_seconds: Monotonic wall budget per unit attempt
            (s); a worker holding a unit longer is killed and the
            attempt counted as failed.
        max_attempts: Total attempts per unit before quarantine
            (1 = never retry).
    """

    unit_deadline_seconds: float = 300.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.unit_deadline_seconds <= 0.0:
            raise ConfigurationError(
                f"unit_deadline_seconds must be > 0, got "
                f"{self.unit_deadline_seconds}")
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")


def backoff_seconds(label: str, attempt: int) -> float:
    """Delay before retrying ``label`` after failed attempt N (s).

    Exponential in the attempt number, capped, and jittered by a
    blake2b hash of ``(label, attempt)`` — deterministic, so a
    replayed campaign schedules byte-identical retries, yet
    decorrelated across units so a mass failure does not thunder
    back as one herd.
    """
    import hashlib
    delay = min(BACKOFF_BASE_S * BACKOFF_FACTOR ** max(attempt - 1, 0),
                BACKOFF_MAX_S)
    if BACKOFF_JITTER > 0.0 and delay > 0.0:
        digest = hashlib.blake2b(
            f"{label}:{attempt}".encode("utf-8"),
            digest_size=8).digest()
        unit_draw = int.from_bytes(digest, "big") / float(2 ** 64)
        delay *= 1.0 + BACKOFF_JITTER * (2.0 * unit_draw - 1.0)
    return delay


@dataclass
class QuarantinedUnit:
    """Post-mortem of a unit that exhausted its attempts.

    Attributes:
        index: Submission index of the unit.
        name: Unit label (the benchmark name).
        attempts: Attempts consumed (== policy ``max_attempts``).
        errors: One ``"reason"`` line per failed attempt, in order.
    """

    index: int
    name: str
    attempts: int
    errors: List[str] = field(default_factory=list)


@dataclass
class SupervisedOutcome:
    """Everything a supervised run produced.

    Attributes:
        results: Per-unit results in submission order; None where the
            unit was quarantined.
        quarantined: Post-mortems of the units that never completed.
        retries: Attempts beyond the first, summed over units.
        replacements: Workers killed-and-respawned (deadline,
            heartbeat, crash) plus spawn failures.
        process_fired: Injected process-level fault fires per kind
            value (recomputed from the plan — the coordinator never
            needs the worker to report its own death).
        circuit_opened: True when the run degraded to the serial
            path.
    """

    results: List[Optional[UnitResult]]
    quarantined: List[QuarantinedUnit] = field(default_factory=list)
    retries: int = 0
    replacements: int = 0
    process_fired: Dict[str, int] = field(default_factory=dict)
    circuit_opened: bool = False

    @property
    def completed(self) -> List[UnitResult]:
        """The non-quarantined results, in submission order."""
        return [result for result in self.results if result is not None]


def _heartbeat_loop(slot: int, heartbeats: Any, interval: float,
                    silenced: threading.Event) -> None:
    """Worker-side daemon: bump the shared slot, watch the parent.

    Beats stop once ``silenced`` is set.  The parent watch never
    stops: the worker's main thread blocks on its task queue and would
    never notice its coordinator dying, so when the parent pid changes
    (the worker was re-parented after the coordinator died) this
    thread ends the process.
    """
    parent = os.getppid()
    while True:
        if os.getppid() != parent:
            os._exit(1)
        if not silenced.is_set():
            with heartbeats.get_lock():
                heartbeats[slot] += 1.0
        time.sleep(interval)


def _supervised_main(slot: int, payload: bytes, task_queue: Any,
                     result_queue: Any, heartbeats: Any,
                     interval: float) -> None:
    """Entry point of a supervised worker process.

    Installs the shared context, starts the heartbeat thread, then
    serves ``(unit, attempt)`` tasks until the ``None`` sentinel.
    Process-level faults from the context's plan are decided here —
    deterministically, per (unit label, attempt) — before the unit
    runs, so the coordinator can recompute every decision without a
    side channel.  Each result carries its unit's spans and metrics
    home; nothing else crosses back while a unit runs.
    """
    _workers.initialize(payload)
    silenced = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(slot, heartbeats, interval, silenced), daemon=True)
    beat.start()
    context = _workers.current_context()
    plan = context.fault_plan if context is not None else None
    while True:
        item = task_queue.get()
        if item is None:
            silenced.set()
            return
        unit, attempt = item
        fault = process_fault_decision(plan, unit.name, attempt)
        if fault is FaultKind.WORKER_KILL:
            os._exit(KILL_EXIT_CODE)
        if fault is FaultKind.WORKER_HANG:
            # A real hang takes the heartbeat with it (a deadlocked
            # process beats no drums); silencing the thread makes the
            # injected hang indistinguishable from one.
            silenced.set()
            while True:
                time.sleep(interval)
        if fault is FaultKind.WORKER_SLOW:
            time.sleep(SLOW_FAULT_DELAY_S)
        try:
            result = _workers.run_unit(unit)
        except Exception as exc:  # physlint: disable=RPR201
            # Broad by contract: run_unit already packages library
            # errors, so anything landing here is outside the library
            # contract.  It goes home as an unhandled line — raising
            # would kill the worker and cost a respawn for an error we
            # can report precisely.
            result = UnitResult(index=unit.index, name=unit.name)
            result.unhandled.append(f"{type(exc).__name__}: {exc}")
        result_queue.put((slot, unit.index, attempt, result))


class _WorkerHandle:
    """Coordinator-side view of one supervised worker slot."""

    __slots__ = ("slot", "process", "queue", "unit", "attempt",
                 "deadline", "last_beat", "beat_seen_at")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process: Any = None
        self.queue: Any = None
        self.unit: Optional[WorkUnit] = None
        self.attempt = 0
        self.deadline: Optional[Deadline] = None
        self.last_beat = 0.0
        self.beat_seen_at = 0.0

    @property
    def busy(self) -> bool:
        return self.unit is not None


def _counter(name: str) -> None:
    """Increment an obs counter when telemetry is live (else no-op)."""
    if _obs.STATE.enabled:
        _obs.STATE.metrics.counter(name).inc()


def _adopt_unit_telemetry(result: UnitResult) -> None:
    """Graft one accepted unit's exported telemetry onto the live trace.

    Creates a ``unit`` span on the live tracer whose extent is the
    unit's worker wall time (ending now), adopts the worker's exported
    span records under it with their clocks shifted to the unit span's
    origin, and folds the worker's metrics snapshot into the live
    registry.  No-op while telemetry is disabled.
    """
    if not _obs.STATE.enabled:
        return
    tracer = _obs.STATE.tracer
    unit_span = tracer.start_span("unit", result.name,
                                  index=result.index,
                                  worker_pid=result.stats.get("pid"))
    tracer.end_span(unit_span)
    if unit_span.end_s is not None:
        unit_span.start_s = max(
            unit_span.end_s - result.wall_seconds, 0.0)
    if result.spans:
        tracer.adopt_records(result.spans, parent=unit_span,
                             time_offset=unit_span.start_s)
    if result.metrics:
        _obs.STATE.metrics.merge_snapshot(result.metrics)


class _Supervisor:
    """One supervised run: owns the workers, the retry queue, and the
    quarantine ledger for the duration of :meth:`run`."""

    def __init__(self, context: WorkerContext,
                 units: Sequence[WorkUnit], workers: int,
                 policy: SupervisionPolicy,
                 journal: Optional[JournalWriter],
                 completed: Optional[Mapping[int, UnitResult]],
                 monitor: Optional[Any] = None) -> None:
        self.context = context
        self.units = list(units)
        self.workers = max(int(workers), 1)
        self.policy = policy
        self.journal = journal
        self.monitor = monitor
        self.outcome = SupervisedOutcome(
            results=[None] * len(self.units))
        self._by_index = {unit.index: unit for unit in self.units}
        self._position = {unit.index: pos
                          for pos, unit in enumerate(self.units)}
        self._failures: Dict[int, List[str]] = {}
        self._pending: List[tuple] = []  # (ready_at, index, attempt)
        self._quarantined_ids: set = set()
        self._spawn_failures = 0
        seeded = dict(completed or {})
        for unit in self.units:
            prior = seeded.get(unit.index)
            if prior is not None:
                self.outcome.results[self._position[unit.index]] = prior
            else:
                self._pending.append((0.0, unit.index, 1))
        self._pending.sort()

    # -- lifecycle ----------------------------------------------------

    def run(self) -> SupervisedOutcome:
        """Execute every non-journaled unit to completion or quarantine."""
        if not self._pending:
            return self.outcome
        if self.monitor is not None:
            self.monitor.begin(len(self._pending))
        payload: Optional[bytes] = None
        try:
            payload = pickle.dumps(self.context)
        except Exception as exc:  # physlint: disable=RPR201
            # Broad by necessity: unpicklability surfaces as whatever
            # __reduce__ raises.  An unpicklable context cannot cross
            # a process boundary, but the serial path still runs the
            # original object — asking for workers must never turn a
            # working serial call into a crash.
            _obs.event("exec.pool_fallback", error=type(exc).__name__)
        if payload is None or self.workers < 2 or _workers.in_worker():
            self._run_serial_remaining(payload)
        else:
            self._run_pool(payload)
        return self.outcome

    def _run_pool(self, payload: bytes) -> None:
        import multiprocessing
        method = os.environ.get(START_METHOD_ENV, "").strip()
        mp_context = multiprocessing.get_context(method or None)
        slots = min(self.workers, len(self._pending))
        heartbeats = mp_context.Array("d", slots)
        result_queue = mp_context.Queue()
        handles = [_WorkerHandle(slot) for slot in range(slots)]
        try:
            for handle in handles:
                self._spawn(handle, mp_context, payload, heartbeats,
                            result_queue)
                if self._circuit_should_open():
                    break
            if not any(h.process is not None and h.process.is_alive()
                       for h in handles):
                self._open_circuit(handles, payload)
                return
            while not self._finished():
                if self._circuit_should_open():
                    self._open_circuit(handles, payload)
                    return
                self._dispatch(handles)
                self._collect(result_queue, handles)
                self._sweep(handles, mp_context, payload, heartbeats,
                            result_queue)
        finally:
            self._shutdown(handles)

    # -- worker management --------------------------------------------

    def _spawn(self, handle: _WorkerHandle, mp_context: Any,
               payload: bytes, heartbeats: Any,
               result_queue: Any) -> None:
        """(Re)start the worker process occupying ``handle``'s slot."""
        handle.queue = mp_context.Queue()
        process = mp_context.Process(
            target=_supervised_main,
            args=(handle.slot, payload, handle.queue, result_queue,
                  heartbeats, HEARTBEAT_INTERVAL_S),
            daemon=True)
        try:
            process.start()
        except OSError as exc:
            handle.process = None
            self._spawn_failures += 1
            self.outcome.replacements += 1
            _obs.event("exec.worker_spawn_failed", slot=handle.slot,
                       error=type(exc).__name__)
            _counter("exec.supervisor.spawn_failures")
            return
        handle.process = process
        handle.unit = None
        handle.attempt = 0
        handle.deadline = None
        handle.last_beat = heartbeats[handle.slot]
        handle.beat_seen_at = monotonic()

    def _kill(self, handle: _WorkerHandle) -> None:
        """Forcibly stop the process in ``handle``'s slot."""
        process = handle.process
        if process is None:
            return
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():
                process.kill()
                process.join(1.0)
        if handle.queue is not None:
            handle.queue.cancel_join_thread()
        handle.process = None

    def _replace(self, handle: _WorkerHandle, reason: str,
                 mp_context: Any, payload: bytes, heartbeats: Any,
                 result_queue: Any) -> None:
        """Kill and respawn one worker, accounting the replacement."""
        self._kill(handle)
        self.outcome.replacements += 1
        _obs.event("exec.worker_replaced", slot=handle.slot,
                   reason=reason)
        _counter("exec.supervisor.replacements")
        self._spawn(handle, mp_context, payload, heartbeats,
                    result_queue)

    def _shutdown(self, handles: Sequence[_WorkerHandle]) -> None:
        """Stop every worker; gentle sentinel first, then terminate."""
        for handle in handles:
            if handle.process is not None and handle.process.is_alive()\
                    and handle.queue is not None and not handle.busy:
                try:
                    handle.queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = Deadline(1.0)
        for handle in handles:
            process = handle.process
            if process is not None and process.is_alive():
                process.join(max(deadline.remaining(), 0.05))
        for handle in handles:
            self._kill(handle)

    # -- scheduling ---------------------------------------------------

    def _finished(self) -> bool:
        done = sum(1 for result in self.outcome.results
                   if result is not None)
        return done + len(self.outcome.quarantined) >= len(self.units)

    def _dispatch(self, handles: Sequence[_WorkerHandle]) -> None:
        """Hand ready units to idle live workers, lowest index first."""
        now = monotonic()
        for handle in handles:
            if handle.busy or handle.process is None \
                    or not handle.process.is_alive():
                continue
            # Purge retries whose unit a kill-raced late result has
            # already completed, then take the first ready entry.
            self._pending = [
                entry for entry in self._pending
                if self.outcome.results[self._position[entry[1]]]
                is None and entry[1] not in self._quarantined_ids]
            chosen = None
            for position, (ready_at, index, attempt) in \
                    enumerate(self._pending):
                if ready_at <= now:
                    chosen = position
                    break
            if chosen is None:
                return
            ready_at, index, attempt = self._pending.pop(chosen)
            unit = self._by_index[index]
            fault = process_fault_decision(self.context.fault_plan,
                                           unit.name, attempt)
            if fault is not None:
                self.outcome.process_fired[fault.value] = \
                    self.outcome.process_fired.get(fault.value, 0) + 1
                _counter(f"faults.injected.{fault.value}")
            handle.queue.put((unit, attempt))
            handle.unit = unit
            handle.attempt = attempt
            handle.deadline = Deadline(
                self.policy.unit_deadline_seconds)
            handle.beat_seen_at = now
            if self.monitor is not None:
                self.monitor.unit_running(unit.name, attempt)

    def _collect(self, result_queue: Any,
                 handles: Sequence[_WorkerHandle]) -> None:
        """Drain finished attempts; block briefly as the poll sleep."""
        block = True
        while True:
            try:
                message = result_queue.get(
                    timeout=POLL_INTERVAL_S if block else 0.0)
            except _queue.Empty:
                return
            block = False
            slot, index, attempt, result = message
            owner = None
            for handle in handles:
                if handle.busy and handle.unit.index == index \
                        and handle.attempt == attempt:
                    owner = handle
                    break
            if owner is not None:
                owner.unit = None
                owner.deadline = None
            position = self._position.get(index)
            if position is None \
                    or self.outcome.results[position] is not None \
                    or index in self._quarantined_ids:
                continue  # stale duplicate from a replaced worker
            self._complete(result)

    def _sweep(self, handles: Sequence[_WorkerHandle], mp_context: Any,
               payload: bytes, heartbeats: Any,
               result_queue: Any) -> None:
        """Deadline/heartbeat/liveness pass over the busy workers."""
        now = monotonic()
        for handle in handles:
            process = handle.process
            if process is None:
                if not self._circuit_should_open():
                    self._spawn(handle, mp_context, payload,
                                heartbeats, result_queue)
                continue
            beat = heartbeats[handle.slot]
            if beat != handle.last_beat:
                handle.last_beat = beat
                handle.beat_seen_at = now
            if not handle.busy:
                if not process.is_alive():
                    # Idle death is infrastructure, not unit failure.
                    self._spawn_failures += 1
                    self._replace(handle, "idle-death", mp_context,
                                  payload, heartbeats, result_queue)
                continue
            index = handle.unit.index
            attempt = handle.attempt
            if not process.is_alive():
                code = process.exitcode
                self._attempt_failed(
                    index, attempt,
                    f"worker died with exit code {code}")
                self._replace(handle, "crash", mp_context, payload,
                              heartbeats, result_queue)
            elif handle.deadline is not None \
                    and handle.deadline.expired:
                self._attempt_failed(
                    index, attempt,
                    f"unit deadline exceeded "
                    f"({self.policy.unit_deadline_seconds:g} s)")
                _counter("exec.supervisor.deadline_kills")
                self._replace(handle, "deadline", mp_context, payload,
                              heartbeats, result_queue)
            elif now - handle.beat_seen_at > HEARTBEAT_TIMEOUT_S:
                self._attempt_failed(
                    index, attempt,
                    f"worker heartbeats silent for "
                    f"{HEARTBEAT_TIMEOUT_S:g} s")
                _counter("exec.supervisor.heartbeat_kills")
                self._replace(handle, "heartbeat", mp_context,
                              payload, heartbeats, result_queue)

    # -- attempt bookkeeping ------------------------------------------

    def _complete(self, result: UnitResult) -> None:
        """Accept a unit: merge slot, telemetry, journal, monitor.

        The single adoption point for worker telemetry, whichever path
        ran the unit.  Stale duplicates of an accepted unit never get
        here (:meth:`_collect` drops them), so no phantom unit is
        adopted.  The session's telemetry stream is pumped right after
        adoption, so a trace file holds each unit once it completes.
        The spans and metrics are cleared once adopted, so journal
        records stay telemetry-free.  The monitor's only metrics feed
        is the session registry after adoption: the campaign's totals
        so far, whichever path ran which unit.
        """
        self.outcome.results[self._position[result.index]] = result
        _adopt_unit_telemetry(result)
        if _obs.STATE.enabled:
            _obs.pump()
            if self.monitor is not None:
                self.monitor.live_metrics(
                    _obs.STATE.metrics.snapshot())
        result.spans = None
        result.metrics = None
        if self.journal is not None:
            self.journal.append(result)
        if self.monitor is not None:
            self.monitor.unit_done(result.name, result.wall_seconds,
                                   ok=result.ok)

    def _attempt_failed(self, index: int, attempt: int,
                        reason: str) -> None:
        """Count one failed attempt; schedule a retry or quarantine."""
        failures = self._failures.setdefault(index, [])
        failures.append(reason)
        unit = self._by_index[index]
        if attempt >= self.policy.max_attempts:
            self._quarantined_ids.add(index)
            self.outcome.quarantined.append(QuarantinedUnit(
                index=index, name=unit.name, attempts=attempt,
                errors=list(failures)))
            _obs.event("exec.quarantine", unit=unit.name,
                       attempts=attempt)
            _counter("exec.supervisor.quarantined")
            if self.monitor is not None:
                self.monitor.unit_quarantined(unit.name, attempt)
            return
        self.outcome.retries += 1
        delay = backoff_seconds(unit.name, attempt)
        ready_at = monotonic() + delay
        _obs.event("exec.retry", unit=unit.name, attempt=attempt,
                   reason=reason, backoff_seconds=delay)
        _counter("exec.supervisor.retries")
        if self.monitor is not None:
            self.monitor.unit_retrying(unit.name, attempt, reason)
        self._pending.append((ready_at, index, attempt + 1))
        self._pending.sort()

    # -- degraded paths -----------------------------------------------

    def _circuit_should_open(self) -> bool:
        return self._spawn_failures >= CIRCUIT_BREAKER_FAILURES

    def _open_circuit(self, handles: Sequence[_WorkerHandle],
                      payload: bytes) -> None:
        """Degrade: stop the pool, run the rest in-process serially."""
        self.outcome.circuit_opened = True
        _obs.event("exec.circuit_open",
                   spawn_failures=self._spawn_failures)
        _counter("exec.supervisor.circuit_open")
        self._shutdown(handles)
        self._run_serial_remaining(payload)

    def _run_serial_remaining(self, payload: Optional[bytes]) -> None:
        """Run every still-incomplete unit in-process, in order.

        The one serial path.  It runs on ``pickle.loads(payload)``, so
        serial and process runs cross the identical serialization
        boundary and the caller's templates keep their own (cold)
        caches; only an unpicklable context (``payload`` None) runs as
        the original object.  Process-level faults do not fire here —
        there is no worker to kill that is not also the coordinator —
        and in-process library failures are structured *results*, so no
        retry loop applies.  Re-entrant: the previously installed
        worker runtime is restored afterwards, so a nested call from
        inside a unit body cannot clobber the enclosing run.
        """
        remaining = [unit for unit in self.units
                     if self.outcome.results[self._position[unit.index]]
                     is None and unit.index not in self._quarantined_ids]
        if not remaining:
            return
        context = self.context if payload is None \
            else pickle.loads(payload)
        previous = _workers.install_runtime(context)
        try:
            for unit in remaining:
                if self.monitor is not None:
                    self.monitor.unit_running(unit.name)
                self._complete(_workers.run_unit(unit))
        finally:
            _workers.restore_runtime(previous)
        self._pending = []


__all__ = [
    "KILL_EXIT_CODE",
    "QuarantinedUnit",
    "SLOW_FAULT_DELAY_S",
    "SupervisedOutcome",
    "SupervisionPolicy",
]
