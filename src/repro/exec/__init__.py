"""Parallel execution engine: campaign units under one supervisor.

The Table 2 campaign is embarrassingly parallel; this package
decomposes it into picklable :class:`WorkUnit`\\ s (one per benchmark)
and runs them in one supervisor run: on its in-process serial path, or
on its managed worker processes (heartbeats, deadlines, bit-identical
retries, quarantine).  Both merge deterministically (submission
order) — campaigns produce bit-identical JSON at every worker count —
and per-unit telemetry re-parents worker spans under the coordinating
trace.

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
    resolve_workers,
    run_campaign_units,
    worker_statistics,
)
from .supervisor import (
    QuarantinedUnit,
    SupervisedOutcome,
    SupervisionPolicy,
)
from .units import UnitResult, WorkUnit, WorkerContext
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
    "UnitResult",
    "WorkUnit",
    "WorkerContext",
    "initialize",
    "read_journal",
    "resolve_workers",
    "run_campaign_units",
    "run_unit",
    "unit_fingerprint",
    "worker_statistics",
]
