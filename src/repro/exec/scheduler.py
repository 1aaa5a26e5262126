"""The work-unit scheduler: decompose, run supervised, merge.

The coordinator's half of the parallel engine.  A job is decomposed
into :class:`~repro.exec.units.WorkUnit`\\ s, the shared inputs travel
once per worker inside a :class:`~repro.exec.units.WorkerContext`, and
every :func:`run_units` / :func:`run_campaign_units` call is one run of
the supervisor (:mod:`repro.exec.supervisor`).  ``workers <= 1``, a
single unit, a call issued from inside a worker, or a context that
cannot be pickled runs the units on its in-process serial path; every
other fan-out runs on its managed worker processes (heartbeats,
deadlines, bit-identical retries, quarantine).

Results merge in submission order and every unit is self-contained,
so a parallel run's merged output is bit-identical to the serial
loop's — regardless of worker count, scheduling order, or start
method.  When the coordinator's telemetry is enabled, worker spans and
metrics are re-parented under per-unit ``unit`` spans on the live
tracer, so ``repro trace summarize`` sees one merged tree.

Worker count resolution: an explicit argument wins, then the
``REPRO_WORKERS`` environment variable, then 0 (= classic serial path,
no unit decomposition).  Inside a worker — which inherits the
coordinator's environment — resolution always yields 0, so decomposed
entry points reached from a unit body never nest fan-outs (see
:func:`resolve_workers`).  The ``REPRO_START_METHOD`` environment
variable (``fork``/``spawn``/``forkserver``) overrides the platform's
default start method; see docs/PARALLELISM.md.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core import CoolingProblem, FailureReport, ResiliencePolicy
from ..errors import ConfigurationError, SolverError, WorkerCrashError
from ..faults.plan import FaultPlan
from ..obs import runtime as _obs
from . import workers as _workers
from .supervisor import START_METHOD_ENV, SupervisionPolicy, _Supervisor
from .units import UnitResult, WorkUnit, WorkerContext

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument, then environment, then 0.

    The returned count selects the execution path: ``0`` keeps the
    classic serial code (no unit decomposition at all), ``1`` runs the
    decomposed units on the supervisor's in-process serial path,
    ``N > 1`` fans out over N supervised worker processes.

    Inside a worker (a worker process or the serial path) the answer
    is always 0: worker processes inherit ``REPRO_WORKERS`` from the
    coordinator's environment, and honoring it there would nest
    fan-outs (or re-enter the serial path) every time a unit
    internally calls a decomposed entry point such as
    :meth:`~repro.core.Evaluator.evaluate_many`.  Only the coordinator
    ever fans out.
    """
    if _workers.in_worker():
        return 0
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "").strip()
        if not text:
            return 0
        try:
            workers = int(text)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV} must be an integer, got {text!r}")
    count = int(workers)
    if count < 0:
        raise ConfigurationError(
            f"worker count must be >= 0, got {count}")
    return count


def run_units(context: WorkerContext, units: Sequence[WorkUnit],
              workers: int,
              progress: Optional[Any] = None) -> List[UnitResult]:
    """Run units on ``workers`` processes; merge in submission order.

    One supervisor run under the stock
    :class:`~repro.exec.SupervisionPolicy`.  A single unit never spawns
    a process; ``workers <= 1`` and calls from inside a worker run
    serially in-process, and so does a context that fails to pickle
    (``exec.pool_fallback`` event).  A unit the supervisor quarantines
    raises :class:`~repro.errors.WorkerCrashError` naming every
    quarantined unit and its attempt count.  Worker telemetry is
    adopted onto the live tracer as each unit completes.

    ``progress`` (a :class:`~repro.obs.ProgressBoard`, or anything
    with its hook methods) receives ``begin`` once, then
    ``unit_running``/``unit_done`` as units move.
    """
    units = list(units)
    outcome = _Supervisor(
        context, units, workers if len(units) > 1 else 1,
        SupervisionPolicy(), None, None, monitor=progress).run()
    if outcome.quarantined:
        raise WorkerCrashError(
            f"{len(outcome.quarantined)} work unit(s) quarantined: "
            + "; ".join(f"{entry.name} after {entry.attempts} "
                        f"attempt(s): {entry.errors[-1]}"
                        for entry in outcome.quarantined),
            reports=[entry.errors[-1]
                     for entry in outcome.quarantined],
            units=[(entry.name, entry.attempts)
                   for entry in outcome.quarantined])
    return outcome.completed


def worker_statistics(results: Sequence[UnitResult]) -> Dict[str, Any]:
    """Aggregate per-unit stats into per-worker cache-locality totals.

    Returns ``{"per_worker": [...], "units": [...]}`` where each
    per-worker entry sums the operator counters of every unit that
    process executed — the numbers that show each worker's factor
    cache warming once and then serving its whole share of the job.
    """
    per_worker: Dict[Any, Dict[str, Any]] = {}
    unit_rows: List[Dict[str, Any]] = []
    for result in results:
        pid = result.stats.get("pid")
        row = {
            "unit": result.name,
            "pid": pid,
            "wall_seconds": result.wall_seconds,
            "solves": int(result.stats.get("solves") or 0),
            "factorizations": int(
                result.stats.get("factorizations") or 0),
            "factor_cache_hits": int(
                result.stats.get("factor_cache_hits") or 0),
            "adjoint_solves": int(
                result.stats.get("adjoint_solves") or 0),
        }
        unit_rows.append(row)
        entry = per_worker.setdefault(pid, {
            "pid": pid, "units": 0, "wall_seconds": 0.0,
            "solves": 0, "factorizations": 0,
            "factor_cache_hits": 0, "adjoint_solves": 0})
        entry["units"] += 1
        entry["wall_seconds"] += result.wall_seconds
        for key in ("solves", "factorizations", "factor_cache_hits",
                    "adjoint_solves"):
            entry[key] += row[key]
    ordered = sorted(per_worker.values(),
                     key=lambda e: (e["pid"] is None, e["pid"]))
    return {"per_worker": ordered, "units": unit_rows}


# -- campaign decomposition -----------------------------------------------


@dataclass
class CampaignMerge:
    """The deterministic merge of a unit-decomposed campaign.

    Attributes:
        comparisons: Successful per-benchmark comparisons, in
            submission (= profile) order.
        failures: Structured failure reports, in the same order the
            serial loop would have appended them.
        errors: ``(benchmark, stage, error_type, message)`` for every
            unit whose pipeline failed terminally — the non-isolated
            path raises from the first of these.
        fired: Total fault fires per kind value (chaos runs; includes
            process-level kinds under supervision).
        unhandled: Non-library exception lines from workers (the chaos
            contract requires this to stay empty).
        crashed: ``(unit_label, attempts, message)`` for every
            unhandled line, so a :class:`~repro.errors.WorkerCrashError`
            can name the benchmark that died and how many attempts it
            consumed.
        worker_stats: :func:`worker_statistics` of the run, plus a
            ``supervision`` block (retries, replacements, quarantined
            count, circuit state, process-fault fires).
        quarantined: Units that exhausted their retry budget
            (:class:`~repro.exec.QuarantinedUnit`).
    """

    comparisons: List[Any] = field(default_factory=list)
    failures: List[FailureReport] = field(default_factory=list)
    errors: List[Tuple[str, str, str, str]] = field(
        default_factory=list)
    fired: Dict[str, int] = field(default_factory=dict)
    unhandled: List[str] = field(default_factory=list)
    crashed: List[Tuple[str, int, str]] = field(default_factory=list)
    worker_stats: Dict[str, Any] = field(default_factory=dict)
    quarantined: List[Any] = field(default_factory=list)


def run_campaign_units(
    profiles: Mapping[str, Any],
    tec_template: CoolingProblem,
    baseline_template: CoolingProblem,
    method: str,
    include_tec_only: bool,
    resilient: bool,
    policy: Optional[ResiliencePolicy],
    fault_plan: Optional[FaultPlan],
    workers: int,
    supervision: Optional[Any] = None,
    journal: Optional[Any] = None,
    completed: Optional[Mapping[int, UnitResult]] = None,
    progress: Optional[Any] = None,
) -> CampaignMerge:
    """Decompose a campaign into one unit per benchmark and merge.

    The problem templates travel once per worker on the context; the
    units run in one supervisor run, so worker death becomes
    retries/quarantine instead of a raise.  ``supervision`` (a
    :class:`~repro.exec.SupervisionPolicy`) replaces the stock policy,
    ``journal`` (a :class:`~repro.exec.JournalWriter`) records every
    completed unit, and ``completed`` (journaled results keyed by unit
    index) skips finished units.  Without any of these explicit
    requests a single unit never spawns a process, and a non-library
    exception inside a unit is merged into
    :attr:`CampaignMerge.unhandled` exactly as the serial path returns
    it; with one, such an exception is retried toward quarantine.  The
    caller owns the surrounding ``campaign`` span and the
    :class:`CampaignResult` assembly — this function returns the raw
    merge.
    """
    context = WorkerContext(
        tec_template=tec_template,
        baseline_template=baseline_template,
        profiles=dict(profiles),
        method=method,
        include_tec_only=include_tec_only,
        resilient=resilient,
        policy=policy,
        fault_plan=fault_plan,
        telemetry=_obs.STATE.enabled)
    explicit = supervision is not None or journal is not None \
        or bool(completed)
    units = [WorkUnit(index=index, kind="benchmark", name=name)
             for index, name in enumerate(profiles)]
    if not explicit and len(units) < 2:
        workers = 1
    outcome = _Supervisor(
        context, units, workers, supervision or SupervisionPolicy(),
        journal, completed, monitor=progress,
        retry_unhandled=explicit).run()
    results = outcome.completed
    merge = CampaignMerge(
        fired=dict(outcome.process_fired),
        worker_stats=worker_statistics(results),
        quarantined=list(outcome.quarantined))
    merge.worker_stats["supervision"] = {
        "retries": outcome.retries,
        "replacements": outcome.replacements,
        "quarantined": len(outcome.quarantined),
        "circuit_opened": outcome.circuit_opened,
        "process_faults_fired": dict(
            sorted(outcome.process_fired.items())),
    }
    for result in results:
        merge.failures.extend(result.failures)
        merge.unhandled.extend(result.unhandled)
        for line in result.unhandled:
            merge.crashed.append((result.name, 1, line))
        for kind, count in result.fired.items():
            merge.fired[kind] = merge.fired.get(kind, 0) + count
        if result.error is not None:
            stage, error_type, message = result.error
            merge.errors.append(
                (result.name, stage, error_type, message))
        elif result.value is not None:
            merge.comparisons.append(result.value)
    return merge


# -- field fan-out --------------------------------------------------------


def chunk_sizes(point_count: int, chunk: int) -> List[int]:
    """Balanced per-unit sizes for slicing ``point_count`` points.

    Same unit count as fixed-size ``chunk`` slicing
    (``ceil(count / chunk)``), but the remainder is spread across
    units instead of stranded in one runt: 17 points at chunk 8 become
    ``[6, 6, 5]``, not ``[8, 8, 1]`` — the naive tail chunk turns into
    idle workers at the end of every fan-out.  Exact multiples are
    untouched.
    """
    if point_count <= 0:
        return []
    if chunk < 1:
        raise ConfigurationError(
            f"chunk size must be >= 1, got {chunk}")
    unit_count = math.ceil(point_count / chunk)
    base, extra = divmod(point_count, unit_count)
    return [base + 1] * extra + [base] * (unit_count - extra)


def _chunk_units(points: Sequence[Tuple[float, float]], kind: str,
                 chunk: int) -> List[WorkUnit]:
    units = []
    start = 0
    for index, size in enumerate(chunk_sizes(len(points), chunk)):
        units.append(WorkUnit(
            index=index, kind=kind, name=f"chunk-{index}",
            params=tuple(points[start:start + size])))
        start += size
    return units


def default_chunk(point_count: int, workers: int) -> int:
    """Chunk size targeting ~4 units per worker.

    Enough grain for the scheduler to rebalance when units run at
    different speeds, small enough dispatch overhead stays amortized.
    Derived from a unit-count target (``4 * workers``, capped at the
    point count) rather than naive division, so awkward counts do not
    produce a pathological runt unit — and
    :func:`chunk_sizes` balances whatever remainder is left.
    """
    if point_count <= 0:
        return 1
    target_units = min(point_count, 4 * max(workers, 1))
    return max(1, math.ceil(point_count / target_units))


def solve_fields(
    model: Any,
    points: Sequence[Tuple[float, float]],
    dynamic_cell_power: Any,
    leakage: Any,
    workers: int,
    chunk: Optional[int] = None,
    progress: Optional[Any] = None,
) -> List[Any]:
    """Temperature fields at many points, fanned across workers.

    The parallel backend of
    :func:`repro.analysis.temperature_fields`; entries are per-cell
    chip temperatures in K, or None where the point ran away, in
    input order.

    Args:
        model: Package thermal model to solve against.
        points: ``(omega, current)`` pairs — fan speed in rad/s, TEC
            current in A.
        dynamic_cell_power: Per-cell dynamic power, W.
        leakage: Optional cell leakage model (None for leakage-free).
        workers: Worker process count (>= 1).
        chunk: Points per work unit (default :func:`default_chunk`).
    """
    points = [(float(omega), float(current))
              for omega, current in points]
    if not points:
        return []
    if chunk is None:
        chunk = default_chunk(len(points), workers)
    context = WorkerContext(
        field_model=model,
        field_power=dynamic_cell_power,
        field_leakage=leakage,
        telemetry=_obs.STATE.enabled)
    units = _chunk_units(points, "fields", chunk)
    results = run_units(context, units, workers, progress=progress)
    fields: List[Any] = []
    for result in results:
        if result.error is not None:
            stage, error_type, message = result.error
            raise SolverError(
                f"parallel field solve failed in unit {result.name}: "
                f"{error_type}: {message}")
        fields.extend(result.value)
    return fields


def run_oftec_units(
    template: CoolingProblem,
    profiles: Mapping[str, Mapping[str, float]],
    method: str,
    workers: int,
) -> Dict[str, Any]:
    """OFTEC per representative profile (LUT precompute), in parallel.

    Returns label -> :class:`~repro.core.OFTECResult` in profile
    order.
    """
    context = WorkerContext(
        oftec_template=template,
        oftec_profiles={label: dict(powers)
                        for label, powers in profiles.items()},
        method=method,
        telemetry=_obs.STATE.enabled)
    units = [WorkUnit(index=index, kind="oftec", name=label)
             for index, label in enumerate(profiles)]
    results = run_units(context, units, workers)
    table: Dict[str, Any] = {}
    for result in results:
        if result.error is not None:
            stage, error_type, message = result.error
            raise SolverError(
                f"parallel OFTEC failed for {result.name!r}: "
                f"{error_type}: {message}")
        table[result.name] = result.value
    return table


__all__ = [
    "CampaignMerge",
    "START_METHOD_ENV",
    "WORKERS_ENV",
    "chunk_sizes",
    "default_chunk",
    "resolve_workers",
    "run_campaign_units",
    "run_oftec_units",
    "run_units",
    "solve_fields",
    "worker_statistics",
]
