"""Exception hierarchy for the OFTEC reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate the failure mode.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A model, stack, or problem was configured with inconsistent values."""


class GeometryError(ReproError):
    """A floorplan or grid operation received invalid geometry."""


class FloorplanParseError(GeometryError):
    """A HotSpot ``.flp`` file could not be parsed."""


class MaterialError(ReproError):
    """A material property is missing or non-physical."""


class SolverError(ReproError):
    """The thermal or optimization solver failed to produce a solution."""


class SingularNetworkError(SolverError):
    """The thermal conductance matrix is singular (disconnected network).

    Carries a cheap condition-number estimate of the failed system when
    one could be computed, for post-mortem diagnosability (e.g. in a
    :class:`repro.core.FailureReport`).
    """

    def __init__(self, message: str,
                 condition_estimate: Optional[float] = None) -> None:
        super().__init__(message)
        #: 1-norm condition estimate of the failed system (None when it
        #: could not be computed, ``inf`` for an exactly singular factor).
        self.condition_estimate = condition_estimate


class EvaluationBudgetError(SolverError):
    """An optimization attempt exhausted its thermal-solve budget.

    Raised by :class:`repro.core.Evaluator` when a per-attempt budget set
    via ``set_solve_budget`` runs out; the resilient solver catches it and
    moves to the next rung of the fallback ladder instead of letting one
    pathological attempt consume the whole campaign.
    """


class SolveTimeoutError(SolverError):
    """A single steady-state solve exceeded its (simulated) time budget.

    Real sparse solves in this package are fast; this error exists for
    the fault-injection framework (:mod:`repro.faults`) and for callers
    wrapping the evaluator with wall-clock watchdogs.
    """


class ThermalRunawayError(SolverError):
    """The leakage-temperature fixed point diverged.

    Physically this is the positive-feedback loop the paper describes in
    Section 6.2: insufficient cooling lets the temperature rise, which raises
    the (exponentially temperature-dependent) leakage power, which raises the
    temperature further until the chip burns.  The steady-state problem has
    no bounded solution, so the solver raises this error instead of
    returning one.
    """

    def __init__(self, message: str,
                 max_temperature: float = float("inf")) -> None:
        super().__init__(message)
        #: Highest temperature observed before the solve was abandoned (K).
        self.max_temperature = max_temperature


class IndefiniteSystemError(ThermalRunawayError):
    """A warm thermal solve proved its system not positive definite.

    The thermal matrix ``G + diag(overlay)`` is symmetric; it stops
    being positive definite only when the linearized leakage slope
    outweighs the cooling on some mode, so no stable bounded steady
    state exists there.  Preconditioned CG proves it with a direction
    ``p`` whose curvature ``p^T A p`` is clearly negative (Steihaug's
    negative-curvature exit) and stops the solve instead of factoring.
    """

    def __init__(self, message: str, rayleigh_quotient: float) -> None:
        super().__init__(message)
        #: The witness's Rayleigh quotient ``p^T A p / p^T p`` (W/K),
        #: an upper bound on the matrix's smallest eigenvalue.
        self.rayleigh_quotient = rayleigh_quotient


class CalibrationError(ReproError):
    """A regression / curve fit did not converge or had too few samples."""


class WorkerCrashError(ReproError):
    """A work unit failed outside the library contract.

    Stage failures (a :class:`SolverError` during a unit, say) are
    *results* — packaged into failure reports and merged.  An
    exception that instead escapes to the worker's chaos boundary is
    a resilience bug in the library itself, so the campaign raises
    this error carrying every report so none is silently dropped, plus
    the work-unit labels and attempt counts so a post-mortem names the
    unit that died without replaying the job.
    """

    def __init__(self, message: str,
                 reports: Optional[Sequence[str]] = None,
                 units: Optional[Sequence[Tuple[str, int]]] = None,
                 ) -> None:
        super().__init__(message)
        #: The per-worker ``"ExcType: message"`` strings, in merge
        #: order (empty when the caller did not collect them).
        self.reports: Tuple[str, ...] = \
            tuple(reports) if reports is not None else ()
        #: ``(unit_label, attempts)`` pairs naming the work units whose
        #: execution produced the reports, in merge order.  Attempts is
        #: 1 on the serial path (which never retries) and the final
        #: attempt count for a quarantined unit.
        self.units: Tuple[Tuple[str, int], ...] = \
            tuple((str(label), int(attempts))
                  for label, attempts in units) if units is not None \
            else ()


class JournalError(ReproError):
    """A campaign journal could not be opened, read, or written.

    Raised for structural problems that are not data corruption — a
    missing file on resume, a journal written by a different campaign
    (fingerprint mismatch), or an unsupported journal version.
    """


class JournalCorruptionError(JournalError):
    """A campaign journal failed its integrity checks.

    The write-ahead journal chains every record to its predecessor
    with a blake2b digest; a record whose chain digest does not
    verify, or two records for the same unit index carrying different
    payloads, mean the file was tampered with or silently damaged.
    Only an *incomplete final line* is tolerated (the expected shape
    of a crash mid-write) — everything before it must verify.
    """

    def __init__(self, message: str,
                 record_index: Optional[int] = None) -> None:
        super().__init__(message)
        #: Zero-based index of the first record that failed to verify
        #: (None when the failure is not attributable to one record).
        self.record_index = record_index
