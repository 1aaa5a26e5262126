"""The campaign scheduler: decompose, run supervised, merge.

The coordinator's half of the parallel engine.  A campaign is
decomposed into one :class:`~repro.exec.units.WorkUnit` per benchmark,
the shared inputs travel once per worker inside a
:class:`~repro.exec.units.WorkerContext`, and every
:func:`run_campaign_units` call is one run of the supervisor
(:mod:`repro.exec.supervisor`).  ``workers <= 1``, a call issued from
inside a worker, or a context that cannot be pickled runs the units on
its in-process serial path; every other fan-out runs on its managed
worker processes (heartbeats, deadlines, bit-identical retries,
quarantine).

Results merge in submission order and every unit is self-contained,
so the merged output is bit-identical at every worker count,
scheduling order, and start method.  When the coordinator's telemetry
is enabled, worker spans and metrics are re-parented under per-unit
``unit`` spans on the live tracer, so ``repro trace summarize`` sees
one merged tree.

The worker count is an explicit argument (None means 0); inside a
worker resolution always yields 0, so a unit body never nests
fan-outs (see :func:`resolve_workers`).  The ``REPRO_START_METHOD``
environment variable (``fork``/``spawn``/``forkserver``) overrides the
platform's default start method; see docs/PARALLELISM.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import CoolingProblem, FailureReport
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..obs import runtime as _obs
from ..thermal import OperatorStats
from . import workers as _workers
from .supervisor import START_METHOD_ENV, SupervisionPolicy, _Supervisor
from .units import UnitResult, WorkUnit, WorkerContext


def resolve_workers(workers: Optional[int] = None) -> int:
    """Validate a worker count; None means 0.

    ``0`` and ``1`` both run the campaign on the supervisor's
    in-process serial path; ``N > 1`` fans out over N supervised
    worker processes.

    Inside a worker (a worker process or the serial path) the answer
    is always 0, so a unit body that reaches a campaign entry point
    never nests fan-outs.  Only the coordinator ever fans out.
    """
    if _workers.in_worker() or workers is None:
        return 0
    count = int(workers)
    if count < 0:
        raise ConfigurationError(
            f"worker count must be >= 0, got {count}")
    return count


def worker_statistics(results: Sequence[UnitResult]) -> Dict[str, Any]:
    """Aggregate per-unit stats into per-worker cache-locality totals.

    Returns ``{"per_worker": [...], "units": [...]}`` where each row
    carries the :class:`~repro.thermal.OperatorStats` fields (the
    unit's deltas) and each per-worker entry sums them over every unit
    that process executed.
    """
    names = [stat.name for stat in fields(OperatorStats)]
    per_worker: Dict[Any, Dict[str, Any]] = {}
    unit_rows: List[Dict[str, Any]] = []
    for result in results:
        pid = result.stats.get("pid")
        row = {"unit": result.name, "pid": pid,
               "wall_seconds": result.wall_seconds}
        for name in names:
            row[name] = result.stats.get(name, 0)
        unit_rows.append(row)
        entry = per_worker.setdefault(pid, {
            "pid": pid, "units": 0, "wall_seconds": 0.0,
            **dict.fromkeys(names, 0)})
        entry["units"] += 1
        entry["wall_seconds"] += result.wall_seconds
        for name in names:
            entry[name] += row[name]
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
        failures: Structured failure reports, in submission order.
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
    requests a single unit never spawns a process.  A non-library
    exception inside a unit is never retried (the unit's re-derived
    streams would raise it again); it is merged into
    :attr:`CampaignMerge.unhandled` on every path.  The caller owns the
    surrounding ``campaign`` span and the :class:`CampaignResult`
    assembly — this function returns the raw merge.
    """
    context = WorkerContext(
        tec_template=tec_template,
        baseline_template=baseline_template,
        profiles=dict(profiles),
        method=method,
        include_tec_only=include_tec_only,
        fault_plan=fault_plan,
        telemetry=_obs.STATE.enabled)
    explicit = supervision is not None or journal is not None \
        or bool(completed)
    units = [WorkUnit(index=index, name=name)
             for index, name in enumerate(profiles)]
    if not explicit and len(units) < 2:
        workers = 1
    outcome = _Supervisor(
        context, units, workers, supervision or SupervisionPolicy(),
        journal, completed, monitor=progress).run()
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
        if result.value is not None:
            merge.comparisons.append(result.value)
    return merge


__all__ = [
    "CampaignMerge",
    "START_METHOD_ENV",
    "resolve_workers",
    "run_campaign_units",
    "worker_statistics",
]
