"""The work-unit scheduler: fan out, run, merge deterministically.

The coordinator's half of the parallel engine.  A job is decomposed
into :class:`~repro.exec.units.WorkUnit`\\ s, the shared inputs travel
once per worker inside a :class:`~repro.exec.units.WorkerContext`, and
:func:`run_units` executes them on one of two paths:

* **Serial.**  ``workers <= 1``, a single unit, a call issued from
  inside a worker, or a context that cannot be pickled runs the units
  in-process through the same worker shim a process uses.
* **Supervised processes.**  Every other fan-out goes through the
  supervisor's managed workers
  (:func:`repro.exec.supervisor.run_units_supervised`) under the stock
  :class:`~repro.exec.SupervisionPolicy`: heartbeats, deadlines,
  bit-identical retries, and quarantine.

Both paths merge in submission order and every unit is
self-contained, so a parallel run's merged output is bit-identical to
the serial loop's — regardless of worker count, scheduling order, or
start method.  When the coordinator's telemetry is enabled, worker
spans and metrics are re-parented under per-unit ``unit`` spans on the
live tracer, so ``repro trace summarize`` sees one merged tree.

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
import pickle
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

from ..analysis.campaign import CAMPAIGN_STAGES, BenchmarkComparison
from ..core import CoolingProblem, FailureReport, ResiliencePolicy
from ..errors import ConfigurationError, SolverError, WorkerCrashError
from ..faults.plan import FaultPlan
from ..obs import runtime as _obs
from . import workers as _workers
from .units import UnitResult, WorkUnit, WorkerContext

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "REPRO_START_METHOD"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count: argument, then environment, then 0.

    The returned count selects the execution path: ``0`` keeps the
    classic serial code (no unit decomposition at all), ``1`` runs the
    decomposed units through the in-process serial executor, ``N > 1``
    fans out over N supervised worker processes.

    Inside a worker (a worker process or the serial executor) the
    answer is always 0: worker processes inherit ``REPRO_WORKERS`` from
    the coordinator's environment, and honoring it there would nest
    fan-outs (or re-enter the serial executor) every time a unit
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


def _result_ok(result: UnitResult) -> bool:
    """Whether a unit completed without an error or unhandled lines."""
    return result.error is None and not result.unhandled


def _fans_out(workers: int, units: Sequence[WorkUnit]) -> bool:
    """Whether ``units`` go to worker processes rather than in-process."""
    return workers > 1 and len(units) > 1 and not _workers.in_worker()


def _run_serial(context: WorkerContext, units: Sequence[WorkUnit],
                progress: Optional[Any] = None) -> List[UnitResult]:
    """Execute units in-process through the worker shim.

    Re-entrant: the previously installed runtime (if any) is saved and
    restored around the run, so a nested :func:`run_units` call — a
    unit whose body reaches a decomposed entry point — degrades to
    serial execution instead of corrupting the enclosing executor's
    state.
    """
    previous = _workers.install_runtime(context)
    try:
        results = []
        for unit in units:
            if progress is not None:
                progress.unit_running(unit.name)
            result = _workers.run_unit(unit)
            if progress is not None:
                progress.unit_done(unit.name, result.wall_seconds,
                                   ok=_result_ok(result))
            results.append(result)
        return results
    finally:
        _workers.restore_runtime(previous)


def run_units(context: WorkerContext, units: Sequence[WorkUnit],
              workers: int,
              progress: Optional[Any] = None) -> List[UnitResult]:
    """Run units on ``workers`` processes; merge in submission order.

    ``workers <= 1`` (or a single unit, or a call issued from inside a
    worker) executes serially in-process.  Every other fan-out runs on
    the supervisor's managed workers under the stock
    :class:`~repro.exec.SupervisionPolicy`; a context that fails to
    pickle degrades to the serial executor there (``exec.pool_fallback``
    event).  A unit the supervisor quarantines raises
    :class:`~repro.errors.WorkerCrashError` naming every quarantined
    unit and its attempt count.  Worker telemetry is adopted onto the
    live tracer before returning.

    ``progress`` (a :class:`~repro.obs.ProgressBoard`, or anything
    with its hook methods) receives ``begin`` once, then
    ``unit_running``/``unit_done`` as units move.
    """
    units = list(units)
    if _fans_out(workers, units):
        # Late import: supervisor imports this module at its top.
        from .supervisor import run_units_supervised
        outcome = run_units_supervised(context, units, workers,
                                       monitor=progress)
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
    if progress is not None:
        progress.begin(len(units))
    try:
        # Round-trip through pickle so serial and process runs exercise
        # the identical serialization path (and the caller's templates
        # keep their own caches).
        serial_context = pickle.loads(pickle.dumps(context))
    except Exception as exc:  # physlint: disable=RPR201
        # Broad by necessity: pickle.dumps reports unpicklability as
        # whatever the object's __reduce__ raises (TypeError,
        # AttributeError, PicklingError, ...).  The serial executor
        # can still run the original context directly — entry points
        # that auto-engage on REPRO_WORKERS must not start crashing
        # merely because the env var is set.
        _obs.event("exec.pool_fallback", error=type(exc).__name__)
        serial_context = context
    results = _run_serial(serial_context, units, progress=progress)
    _adopt_telemetry(results)
    return results


def adopt_unit_telemetry(name: str, index: int, pid: Optional[int],
                         wall_seconds: float,
                         spans: Optional[Sequence[Dict[str, Any]]],
                         metrics_snapshot: Optional[dict]) -> None:
    """Graft one unit's exported telemetry onto the live trace.

    Creates a ``unit`` span on the live tracer whose extent is the
    unit's worker wall time (ending now), adopts the worker's exported
    span records under it with their clocks shifted to the unit span's
    origin, and folds the worker's metrics snapshot into the live
    registry.  No-op while telemetry is disabled.

    This is the single adoption seam shared by the end-of-run merge
    (:func:`run_units`) and the supervisor's streamed telemetry
    packets — both paths produce the identical merged tree shape.
    """
    if not _obs.STATE.enabled:
        return
    tracer = _obs.STATE.tracer
    metrics = _obs.STATE.metrics
    unit_span = tracer.start_span("unit", name, index=index,
                                  worker_pid=pid)
    tracer.end_span(unit_span)
    if unit_span.end_s is not None:
        unit_span.start_s = max(
            unit_span.end_s - wall_seconds, 0.0)
    if spans:
        tracer.adopt_records(spans, parent=unit_span,
                             time_offset=unit_span.start_s)
    if metrics_snapshot:
        metrics.merge_snapshot(metrics_snapshot)


def _adopt_telemetry(results: Sequence[UnitResult]) -> None:
    """Re-parent worker spans/metrics under the coordinating trace."""
    if not _obs.STATE.enabled:
        return
    for result in results:
        adopt_unit_telemetry(result.name, result.index,
                             result.stats.get("pid"),
                             result.wall_seconds, result.spans,
                             result.metrics)


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
        worker_stats: :func:`worker_statistics` of the run.
        quarantined: Supervised runs only — units that exhausted their
            retry budget (:class:`~repro.exec.QuarantinedUnit`).
        retries: Supervised runs only — attempts beyond the first.
        circuit_opened: Supervised runs only — True when the run
            degraded to the serial executor.
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
    retries: int = 0
    circuit_opened: bool = False


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
    jac: str = "analytic",
    progress: Optional[Any] = None,
) -> CampaignMerge:
    """Decompose a campaign into stage (or benchmark) units and merge.

    The default decomposition is one unit per *pipeline stage* per
    benchmark (:data:`repro.analysis.campaign.CAMPAIGN_STAGES`) —
    roughly six times the grain of whole-benchmark units, which is
    what lets the scheduler keep every worker busy when one
    benchmark's OFTEC stage dominates the wall clock.  Benchmarks stay
    whole units in two cases: under a ``fault_plan`` (the chaos
    injector's RNG advances across stages, so splitting would change
    the fault stream) and under an explicit supervision policy or
    journaling (journal fingerprints and retry bookkeeping are keyed to
    benchmark units).  The problem templates travel once per worker on
    the context either way.

    A fan-out (``workers > 1``, more than one unit) always runs on the
    supervised executor, and so does any run with ``supervision`` (a
    :class:`~repro.exec.SupervisionPolicy`), ``journal`` (a
    :class:`~repro.exec.JournalWriter`), or ``completed`` (journaled
    results keyed by unit index): worker death becomes
    retries/quarantine instead of a raise, and completed units are
    skipped.  A non-library exception inside a unit is retried toward
    quarantine only under such an explicit request; a plain fan-out
    merges it into :attr:`CampaignMerge.unhandled` exactly as the
    serial executor does.  The caller owns the surrounding
    ``campaign`` span and the :class:`CampaignResult` assembly — this
    function returns the raw merge.
    """
    context = WorkerContext(
        tec_template=tec_template,
        baseline_template=baseline_template,
        profiles=dict(profiles),
        method=method,
        jac=jac,
        include_tec_only=include_tec_only,
        resilient=resilient,
        policy=policy,
        fault_plan=fault_plan,
        telemetry=_obs.STATE.enabled)
    explicit = supervision is not None or journal is not None \
        or bool(completed)
    staged = fault_plan is None and not explicit
    stages = [stage for stage in CAMPAIGN_STAGES
              if include_tec_only or stage != "tec-only"]
    if staged:
        units = [
            WorkUnit(index=bench_index * len(stages) + stage_index,
                     kind="stage", name=f"{name}/{stage}",
                     params=(name, stage))
            for bench_index, name in enumerate(profiles)
            for stage_index, stage in enumerate(stages)]
    else:
        units = [WorkUnit(index=index, kind="benchmark", name=name)
                 for index, name in enumerate(profiles)]
    merge = CampaignMerge()
    supervised = explicit or _fans_out(workers, units)
    if supervised:
        # Late import: supervisor imports this module at its top.
        from .supervisor import SupervisionPolicy, _Supervisor
        outcome = _Supervisor(
            context, units, workers, supervision or SupervisionPolicy(),
            journal, completed, monitor=progress,
            retry_unhandled=explicit).run()
        results = outcome.completed
        merge.quarantined = list(outcome.quarantined)
        merge.retries = outcome.retries
        merge.circuit_opened = outcome.circuit_opened
        for kind, count in outcome.process_fired.items():
            merge.fired[kind] = merge.fired.get(kind, 0) + count
    else:
        results = run_units(context, units, workers, progress=progress)
    merge.worker_stats = worker_statistics(results)
    if supervised:
        merge.worker_stats["supervision"] = {
            "retries": merge.retries,
            "replacements": outcome.replacements,
            "quarantined": len(merge.quarantined),
            "circuit_opened": merge.circuit_opened,
            "process_faults_fired": dict(
                sorted(outcome.process_fired.items())),
        }
    if staged:
        _merge_stage_results(merge, results, list(profiles), stages)
        return merge
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


def _merge_stage_results(merge: CampaignMerge,
                         results: Sequence[UnitResult],
                         benchmarks: Sequence[str],
                         stages: Sequence[str]) -> None:
    """Reassemble stage units into per-benchmark comparisons.

    Walks each benchmark's stages in serial pipeline order and *stops
    at the first stage that errored or crashed*, dropping the results
    of later stages outright — in the serial loop those stages never
    ran, so admitting their failures or values would diverge from the
    serial merge.  A benchmark whose stages all completed yields a
    :class:`~repro.analysis.campaign.BenchmarkComparison`
    indistinguishable from the inline pipeline's.
    """
    by_index = {result.index: result for result in results}
    for bench_index, name in enumerate(benchmarks):
        values: Dict[str, Any] = {}
        broken = False
        for stage_index, stage in enumerate(stages):
            result = by_index.get(
                bench_index * len(stages) + stage_index)
            if result is None:  # lost unit: treat as terminal
                broken = True
                break
            merge.failures.extend(result.failures)
            for kind, count in result.fired.items():
                merge.fired[kind] = merge.fired.get(kind, 0) + count
            if result.unhandled:
                merge.unhandled.extend(result.unhandled)
                for line in result.unhandled:
                    merge.crashed.append((result.name, 1, line))
                broken = True
                break
            if result.error is not None:
                stage_name, error_type, message = result.error
                merge.errors.append(
                    (name, stage_name, error_type, message))
                broken = True
                break
            values[stage] = result.value
        if broken:
            continue
        merge.comparisons.append(BenchmarkComparison(
            name=name,
            oftec_opt1=values["oftec-opt1"],
            oftec_opt2=values["oftec-opt2"],
            variable_opt1=values["variable-opt1"],
            variable_opt2=values["variable-opt2"],
            fixed=values["fixed-omega"],
            tec_only=values.get("tec-only")))


# -- point/field fan-out --------------------------------------------------


def chunk_sizes(point_count: int, chunk: int) -> List[int]:
    """Balanced per-unit sizes for slicing ``point_count`` points.

    Same unit count as fixed-size ``chunk`` slicing
    (``ceil(count / chunk)``), but the remainder is spread across
    units instead of stranded in one runt: 17 points at chunk 8 become
    ``[6, 6, 5]``, not ``[8, 8, 1]`` — the naive tail chunk turns into
    idle workers at the end of every fan-out.  Exact multiples are
    untouched, so chunk-aligned layouts (sweep rows) keep their exact
    sizes.
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


def evaluate_points(
    problem: CoolingProblem,
    points: Sequence[Tuple[float, float]],
    workers: int,
    chunk: Optional[int] = None,
    progress: Optional[Any] = None,
) -> List[Any]:
    """Evaluate ``(omega, I)`` points by fanning chunks across workers.

    Pure fan-out: each chunk is evaluated by a fresh worker-side
    evaluator, so the returned evaluations are independent of chunk
    boundaries and worker count.  Only valid for problems where the
    evaluator's batched path applies (leakage-free, base-class solve);
    callers gate on :meth:`Evaluator._batchable`-equivalent conditions.
    """
    points = [(float(omega), float(current))
              for omega, current in points]
    if not points:
        return []
    if chunk is None:
        chunk = default_chunk(len(points), workers)
    context = WorkerContext(point_problem=problem,
                            telemetry=_obs.STATE.enabled)
    units = _chunk_units(points, "points", chunk)
    results = run_units(context, units, workers, progress=progress)
    evaluations: List[Any] = []
    for result in results:
        if result.error is not None:
            stage, error_type, message = result.error
            raise SolverError(
                f"parallel evaluation failed in {stage} unit "
                f"{result.name}: {error_type}: {message}")
        evaluations.extend(result.value)
    return evaluations


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
    jac: str = "analytic",
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
        jac=jac,
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
    "adopt_unit_telemetry",
    "chunk_sizes",
    "default_chunk",
    "evaluate_points",
    "resolve_workers",
    "run_campaign_units",
    "run_oftec_units",
    "run_units",
    "solve_fields",
    "worker_statistics",
]
