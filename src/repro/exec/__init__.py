"""Parallel execution engine: work units under one supervisor.

Campaigns, chaos campaigns, heat-map batches, and LUT builds are all
embarrassingly parallel; this package
decomposes them into picklable :class:`WorkUnit`\\ s (one per
benchmark for campaigns) and runs them in one supervisor run: on its
in-process serial path, or on its managed worker processes
(heartbeats, deadlines, bit-identical retries, quarantine).  Both
merge deterministically (submission order) — parallel campaigns
produce bit-identical JSON to serial ones — and per-unit telemetry
re-parents worker spans under the coordinating trace.

See docs/PARALLELISM.md for the two paths, the worker model, and the
determinism contract.
"""

from .journal import (
    JOURNAL_VERSION,
    JournalRecovery,
    JournalWriter,
    read_journal,
    unit_fingerprint,
)
from .scheduler import (
    CampaignMerge,
    START_METHOD_ENV,
    WORKERS_ENV,
    chunk_sizes,
    default_chunk,
    resolve_workers,
    run_campaign_units,
    run_oftec_units,
    run_units,
    solve_fields,
    worker_statistics,
)
from .supervisor import (
    QuarantinedUnit,
    SupervisedOutcome,
    SupervisionPolicy,
    run_units_supervised,
)
from .units import UNIT_KINDS, UnitResult, WorkUnit, WorkerContext
from .workers import initialize, run_unit

__all__ = [
    "CampaignMerge",
    "JOURNAL_VERSION",
    "JournalRecovery",
    "JournalWriter",
    "QuarantinedUnit",
    "START_METHOD_ENV",
    "SupervisedOutcome",
    "SupervisionPolicy",
    "UNIT_KINDS",
    "UnitResult",
    "WORKERS_ENV",
    "WorkUnit",
    "WorkerContext",
    "chunk_sizes",
    "default_chunk",
    "initialize",
    "read_journal",
    "resolve_workers",
    "run_campaign_units",
    "run_oftec_units",
    "run_unit",
    "run_units",
    "solve_fields",
    "unit_fingerprint",
    "worker_statistics",
]
