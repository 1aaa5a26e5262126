"""The full experimental campaign behind Figures 6(c)-(f) and Table 2.

For every benchmark the campaign runs three cooling methods — OFTEC, the
variable-omega baseline, and the fixed-omega baseline — through both
optimization objectives:

* **Optimization 2** (minimize the maximum die temperature): Figure 6(c)
  temperatures and Figure 6(d) powers.
* **Optimization 1** (minimize 𝒫 subject to 𝒯 < T_max): Figure 6(e)
  temperatures and Figure 6(f) powers, plus Table 2's ``(I*, omega*)``.

Optionally the TEC-only system is swept as well (the Section 6.2 thermal
runaway demonstration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..core import (
    SOLVER_METHODS,
    BaselineResult,
    CoolingProblem,
    Evaluator,
    FailureReport,
    OFTECResult,
    OptimizationOutcome,
    ResilientSolver,
    run_fixed_fan_baseline,
    run_oftec,
    run_tec_only,
)
from ..core.baselines import variable_fan_result
from ..errors import (
    ConfigurationError,
    ReproError,
    SolverError,
    WorkerCrashError,
)
from ..obs import runtime as _obs
from ..obs.clock import stopwatch
from ..power import BenchmarkProfile


@dataclass
class BenchmarkComparison:
    """All methods' results on one benchmark.

    Attributes:
        name: Benchmark name.
        oftec_opt1: Algorithm 1 outcome (Optimization 1 operating point).
        oftec_opt2: Full Optimization 2 run on the TEC system.
        variable_opt1: Variable-omega baseline at its Optimization 1 point.
        variable_opt2: Variable-omega baseline minimizing temperature.
        fixed: Fixed-omega baseline (same point for both objectives).
        tec_only: Optional TEC-only sweep result.
    """

    name: str
    oftec_opt1: OFTECResult
    oftec_opt2: OptimizationOutcome
    variable_opt1: BaselineResult
    variable_opt2: OptimizationOutcome
    fixed: BaselineResult
    tec_only: Optional[BaselineResult] = None


@dataclass
class CampaignResult:
    """Campaign over a set of benchmarks.

    Attributes:
        comparisons: Per-benchmark method comparison, in run order.
        t_max: The thermal threshold used, K.
        wall_seconds: Total campaign wall-clock time.
        failures: Structured post-mortems of benchmarks (or stages)
            that failed; such benchmarks are omitted from
            ``comparisons`` but do not sink the campaign.
        quarantined: Units whose worker processes exhausted their
            retry budget (:class:`repro.exec.QuarantinedUnit` entries,
            with per-attempt post-mortems).  The campaign *completes*
            around them; the JSON carries them in a ``quarantined``
            section.
    """

    comparisons: List[BenchmarkComparison] = field(default_factory=list)
    t_max: float = 0.0
    wall_seconds: float = 0.0
    failures: List[FailureReport] = field(default_factory=list)
    quarantined: List[object] = field(default_factory=list)
    #: Per-worker and per-unit cache-locality statistics (see
    #: :func:`repro.exec.worker_statistics`) plus a ``"supervision"``
    #: block (retries, replacements, circuit state).  Never
    #: serialized — result JSON stays identical across worker counts.
    worker_stats: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, name: str) -> BenchmarkComparison:
        for comparison in self.comparisons:
            if comparison.name == name:
                return comparison
        raise ConfigurationError(f"No benchmark named {name!r}")

    @property
    def benchmark_names(self) -> List[str]:
        """Benchmarks in run order."""
        return [c.name for c in self.comparisons]

    # -- the paper's headline aggregates ------------------------------------

    def feasibility_counts(self) -> Dict[str, int]:
        """Benchmarks meeting T_max per method (Optimization 1 points)."""
        return {
            "oftec": sum(c.oftec_opt1.feasible for c in self.comparisons),
            "variable-omega": sum(c.variable_opt1.feasible
                                  for c in self.comparisons),
            "fixed-omega": sum(c.fixed.feasible for c in self.comparisons),
        }

    def comparable_benchmarks(self) -> List[str]:
        """Benchmarks where *all three* methods meet the constraint.

        The paper reports power/temperature deltas only on these (three
        of its eight).
        """
        return [c.name for c in self.comparisons
                if (c.oftec_opt1.feasible and c.variable_opt1.feasible
                    and c.fixed.feasible)]

    def average_power_saving(self, versus: str = "variable-omega",
                             ) -> float:
        """Mean relative 𝒫 saving of OFTEC on comparable benchmarks.

        Positive values mean OFTEC uses less power.  ``versus`` selects
        the baseline ("variable-omega" or "fixed-omega").
        """
        savings = []
        for name in self.comparable_benchmarks():
            comparison = self[name]
            ours = comparison.oftec_opt1.total_power
            theirs = (comparison.variable_opt1.total_power
                      if versus == "variable-omega"
                      else comparison.fixed.total_power)
            savings.append((theirs - ours) / theirs)
        if not savings:
            raise ConfigurationError(
                "No comparable benchmarks; cannot average savings")
        return sum(savings) / len(savings)

    def average_temperature_delta(self, versus: str = "variable-omega",
                                  ) -> float:
        """Mean 𝒯 advantage (K, positive = OFTEC cooler) on comparable
        benchmarks at the Optimization 1 points."""
        deltas = []
        for name in self.comparable_benchmarks():
            comparison = self[name]
            theirs = (comparison.variable_opt1.max_chip_temperature
                      if versus == "variable-omega"
                      else comparison.fixed.max_chip_temperature)
            deltas.append(theirs - comparison.oftec_opt1
                          .max_chip_temperature)
        if not deltas:
            raise ConfigurationError(
                "No comparable benchmarks; cannot average deltas")
        return sum(deltas) / len(deltas)

    def average_opt2_temperature_advantage(self) -> float:
        """Mean 𝒯 advantage of OFTEC over the better baseline after
        Optimization 2, K (the paper's "more than 13 C" claim)."""
        deltas = []
        for comparison in self.comparisons:
            baseline_best = min(
                comparison.variable_opt2.evaluation.max_chip_temperature,
                comparison.fixed.max_chip_temperature)
            deltas.append(baseline_best - comparison.oftec_opt2
                          .evaluation.max_chip_temperature)
        return sum(deltas) / len(deltas)

    def average_oftec_runtime(self) -> float:
        """Mean Algorithm 1 wall-clock runtime, s (Table 2's last column)."""
        runtimes = [c.oftec_opt1.runtime_seconds for c in self.comparisons]
        return sum(runtimes) / len(runtimes)


#: Serial order of the per-benchmark pipeline stages (a failed stage
#: means later stages never run).
CAMPAIGN_STAGES = (
    "oftec-opt1",
    "oftec-opt2",
    "variable-opt1",
    "variable-opt2",
    "fixed-omega",
    "tec-only",
)


class _StageFailure(Exception):
    """Internal wrapper tagging a ReproError with its pipeline stage."""

    def __init__(self, stage: str, error: ReproError):
        super().__init__(stage)
        self.stage = stage
        self.error = error


def _staged(stage: str, thunk: Callable):
    """Run one pipeline stage, tagging any library error with ``stage``."""
    try:
        # The stage span sits inside the try so a failing stage is
        # recorded on its own span before the campaign isolator wraps it.
        with _obs.span("stage", stage):
            return thunk()
    except ReproError as exc:
        raise _StageFailure(stage, exc) from exc


def _stage_specs(
    name: str,
    tec_problem: CoolingProblem,
    base_problem: CoolingProblem,
    method: str,
    make: Callable[[CoolingProblem], Evaluator],
    failures: List[FailureReport],
) -> Dict[str, Callable]:
    """Zero-argument thunks for every pipeline stage of one benchmark.

    Each thunk builds its own fresh evaluator via ``make``, so no
    stage's cache state leaks into the next.  The optimizing stages
    (OFTEC and variable-omega, both objectives) run through the
    fallback ladder led by ``method``; its first rung is the plain
    solver, so a healthy benchmark gets the plain result.
    """

    def algorithm1(problem: CoolingProblem) -> OFTECResult:
        result = run_oftec(problem, method=method,
                           evaluator=make(problem))
        failures.extend(result.failures)
        return result

    def optimization2(problem: CoolingProblem) -> OptimizationOutcome:
        solve = ResilientSolver(
            make(problem), method).minimize_temperature()
        if solve.failure is not None:
            failures.append(solve.failure)
        if solve.outcome is None:
            raise SolverError(
                f"{name}: Optimization 2 failed on every ladder rung")
        return solve.outcome

    return {
        "oftec-opt1": lambda: algorithm1(tec_problem),
        "oftec-opt2": lambda: optimization2(tec_problem),
        "variable-opt1": lambda: variable_fan_result(
            algorithm1(base_problem)),
        "variable-opt2": lambda: optimization2(base_problem),
        "fixed-omega": lambda: run_fixed_fan_baseline(
            base_problem, evaluator=make(base_problem)),
        "tec-only": lambda: run_tec_only(
            tec_problem, evaluator=make(tec_problem)),
    }


def _run_benchmark(
    name: str,
    tec_problem: CoolingProblem,
    base_problem: CoolingProblem,
    method: str,
    include_tec_only: bool,
    make: Callable[[CoolingProblem], Evaluator],
    failures: List[FailureReport],
) -> BenchmarkComparison:
    """All methods on one benchmark, each stage individually tagged."""
    specs = _stage_specs(name, tec_problem, base_problem, method, make,
                         failures)
    values: Dict[str, object] = {}
    for stage in CAMPAIGN_STAGES:
        if stage == "tec-only" and not include_tec_only:
            values[stage] = None
            continue
        values[stage] = _staged(stage, specs[stage])
    return BenchmarkComparison(
        name=name,
        oftec_opt1=values["oftec-opt1"],
        oftec_opt2=values["oftec-opt2"],
        variable_opt1=values["variable-opt1"],
        variable_opt2=values["variable-opt2"],
        fixed=values["fixed-omega"],
        tec_only=values["tec-only"])


def run_campaign(
    profiles: Mapping[str, BenchmarkProfile],
    tec_problem_template: CoolingProblem,
    baseline_problem_template: CoolingProblem,
    method: str = "slsqp",
    include_tec_only: bool = False,
    workers: Optional[int] = None,
    supervision: Optional[object] = None,
    journal_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    progress: Optional[object] = None,
) -> CampaignResult:
    """Run the three-method comparison over a set of benchmark profiles.

    The campaign is one unit per benchmark in one run of the parallel
    engine (``repro.exec``).  Units merge in submission order and each
    runs the same per-benchmark pipeline (same stages, same fresh
    evaluators, same failure-report ordering), so the result — and its
    JSON — is bit-identical at every worker count.  Every benchmark or
    stage failure is contained as a :class:`~repro.core.FailureReport`
    on the result; template misconfigurations raise, since they would
    fail every benchmark identically.

    Args:
        profiles: Benchmark name -> power profile.
        tec_problem_template: A TEC-equipped problem carrying a coverage
            (retargeted per profile via :meth:`CoolingProblem.with_profile`).
        baseline_problem_template: The matching no-TEC problem.
        method: Solver backend for all optimizations; it leads the
            fallback ladder of the OFTEC stages.
        include_tec_only: Also sweep the fan-less TEC-only system.
        workers: Worker-process count.  None, 0 and 1 run the units
            on the supervisor's in-process serial path; N > 1 shards
            them across N supervised worker processes (a unit that
            exhausts its retries is listed under ``quarantined``).
            An exception outside the library contract raises
            :class:`~repro.errors.WorkerCrashError` (every entry as
            ``"Type: message"`` text, unit labels and attempt counts
            on ``.units``).
        supervision: A :class:`repro.exec.SupervisionPolicy` replacing
            the stock policy: worker death/hangs become retries,
            poison units quarantine, and the campaign completes
            instead of raising.
        journal_path: Write an append-only crash-consistent journal of
            completed units to this path (fresh file; see
            :mod:`repro.exec.journal`).
        resume_from: Resume from an existing journal: completed units
            are loaded and skipped, new completions are appended to
            the same file, and the merged result — its canonical JSON
            in particular — is bit-identical to an uninterrupted run.
            Mutually exclusive with ``journal_path``.
        progress: A :class:`repro.obs.ProgressBoard` (or anything with
            its hook methods) fed the benchmark lifecycle plus live
            metric snapshots from worker processes.
    """
    if not tec_problem_template.has_tec:
        raise ConfigurationError(
            "tec_problem_template must include a TEC array")
    if baseline_problem_template.has_tec:
        raise ConfigurationError(
            "baseline_problem_template must not include a TEC array")
    if method not in SOLVER_METHODS:
        raise ConfigurationError(
            f"Unknown solver method {method!r}; choose from "
            f"{SOLVER_METHODS}")
    if journal_path is not None and resume_from is not None:
        raise ConfigurationError(
            "journal_path (fresh journal) and resume_from (continue "
            "one) are mutually exclusive")
    from ..exec import (
        JournalWriter,
        resolve_workers,
        run_campaign_units,
        unit_fingerprint,
    )
    worker_count = resolve_workers(workers)
    journal = None
    completed = None
    if journal_path is not None or resume_from is not None:
        fingerprint = unit_fingerprint(
            tuple(profiles),
            f"campaign:{method}:{int(include_tec_only)}")
        journal = JournalWriter(
            resume_from or journal_path,
            meta={"fingerprint": fingerprint, "job": "campaign"},
            resume=resume_from is not None)
        completed = journal.completed
    watch = stopwatch("campaign.wall_seconds")
    try:
        with watch, _obs.span("campaign", benchmarks=len(profiles),
                              workers=worker_count):
            merge = run_campaign_units(
                profiles, tec_problem_template,
                baseline_problem_template,
                method=method, include_tec_only=include_tec_only,
                fault_plan=None,
                workers=worker_count, supervision=supervision,
                journal=journal, completed=completed, progress=progress)
            if merge.unhandled:
                # A non-library exception in a unit is a bug, not a
                # result; surface every entry instead of a silent hole
                # in the comparisons.
                detail = "; ".join(
                    f"{name} (attempt {attempts}): {line}"
                    for name, attempts, line in merge.crashed) \
                    or "; ".join(merge.unhandled)
                raise WorkerCrashError(
                    f"{len(merge.unhandled)} unhandled worker "
                    f"exception(s): " + detail,
                    reports=merge.unhandled,
                    units=[(name, attempts)
                           for name, attempts, _ in merge.crashed])
            result = CampaignResult(
                comparisons=merge.comparisons,
                t_max=tec_problem_template.limits.t_max,
                failures=merge.failures,
                quarantined=list(merge.quarantined),
                worker_stats=merge.worker_stats)
    finally:
        if journal is not None:
            journal.close()
    result.wall_seconds = watch.elapsed
    return result
