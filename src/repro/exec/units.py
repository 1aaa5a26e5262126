"""Work units: the picklable currency of the parallel scheduler.

A :class:`WorkUnit` names one campaign benchmark — small enough to
pickle cheaply (the heavy problem templates travel once per worker
inside the :class:`WorkerContext`, not per unit).  A
:class:`UnitResult` carries everything the coordinator needs to merge
deterministically: the payload value, structured failures, fault
fires, per-unit telemetry exports, and worker identity/cache
statistics.

Both ends of the pipe are plain data on purpose: no live evaluators,
no factors, no open spans ever cross the process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import CoolingProblem, FailureReport
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan

@dataclass(frozen=True)
class WorkUnit:
    """One benchmark of a decomposed campaign.

    Attributes:
        index: Submission position; the merge key (results are always
            combined in ascending index order, which is what makes
            parallel output bit-identical to serial).
        name: The benchmark name, a key of
            :attr:`WorkerContext.profiles`.
    """

    index: int
    name: str

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ConfigurationError(
                f"unit index must be >= 0, got {self.index}")


@dataclass
class UnitResult:
    """Everything one executed unit sends back to the coordinator.

    Attributes:
        index: Echo of :attr:`WorkUnit.index` (the merge key).
        name: Echo of :attr:`WorkUnit.name`.
        value: The unit's
            :class:`~repro.analysis.campaign.BenchmarkComparison`, or
            None when the unit failed.
        failures: Structured post-mortems, in occurrence order
            (identical to what the serial path would have appended).
        error: ``(stage, error_type, message)`` when a pipeline stage
            failed terminally — the picklable stand-in for the original
            exception, which may not survive the trip home.
        unhandled: ``"Type: message"`` lines for non-library exceptions
            (the chaos contract's escape hatch).
        fired: Fault fires per kind value, for chaos merges.
        stats: ``pid``, ``wall_seconds`` and the unit's
            :class:`~repro.thermal.OperatorStats` deltas, by field
            name.
        spans: Exported span records
            (:func:`repro.obs.span_to_dict` dictionaries) when the
            coordinator asked for telemetry, else None.  The
            coordinator clears them once it has adopted them.
        metrics: The worker session's metrics snapshot, else None
            (cleared on adoption, like ``spans``).
        wall_seconds: Unit wall-clock time in the worker.
    """

    index: int
    name: str
    value: Any = None
    failures: List[FailureReport] = field(default_factory=list)
    error: Optional[Tuple[str, str, str]] = None
    unhandled: List[str] = field(default_factory=list)
    fired: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    spans: Optional[List[dict]] = None
    metrics: Optional[dict] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the unit produced its payload."""
        return self.error is None and not self.unhandled


@dataclass
class WorkerContext:
    """The shared inputs every worker receives exactly once.

    Pickled by the coordinator and unpickled in each worker's
    initializer, so per-unit submissions stay tiny and each worker
    builds its problem models and sparse operators once for all the
    units it executes.
    """

    tec_template: Optional[CoolingProblem] = None
    baseline_template: Optional[CoolingProblem] = None
    profiles: Optional[Dict[str, Any]] = None
    method: str = "slsqp"
    include_tec_only: bool = False
    #: Chaos root plan; each benchmark unit derives its own sub-plan
    #: via :meth:`~repro.faults.FaultPlan.derive`, so fault streams are
    #: independent of scheduling order and worker count.
    fault_plan: Optional[FaultPlan] = None
    #: When True, each unit runs under its own worker-side
    #: telemetry session and ships spans + a metrics snapshot home.
    telemetry: bool = False


__all__ = [
    "UnitResult",
    "WorkUnit",
    "WorkerContext",
]
