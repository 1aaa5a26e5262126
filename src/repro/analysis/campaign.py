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
    ResiliencePolicy,
    ResilientSolver,
    failure_report_from_exception,
    minimize_temperature,
    run_fixed_fan_baseline,
    run_oftec,
    run_oftec_resilient,
    run_tec_only,
    run_variable_fan_baseline,
)
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
        quarantined: Supervised runs only — units that exhausted their
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
    #: Per-worker cache-locality statistics of a parallel run (see
    #: :func:`repro.exec.worker_statistics`); empty for serial runs.
    #: Never serialized — result JSON stays identical across worker
    #: counts.  Decomposed runs add a ``"supervision"`` block
    #: (retries, replacements, circuit state).
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
    resilient: bool,
    policy: Optional[ResiliencePolicy],
    failures: List[FailureReport],
) -> Dict[str, Callable]:
    """Zero-argument thunks for every pipeline stage of one benchmark.

    Each thunk builds its own fresh evaluator via ``make``, so no
    stage's cache state leaks into the next.
    """
    if resilient:
        def oftec_stage() -> OFTECResult:
            outcome = run_oftec_resilient(
                tec_problem, policy=policy,
                evaluator=make(tec_problem))
            failures.extend(outcome.failures)
            if outcome.result is None:
                raise SolverError(
                    f"{name}: every resilient OFTEC stage failed")
            return outcome.result

        def opt2_stage() -> OptimizationOutcome:
            solve = ResilientSolver(
                make(tec_problem), policy).minimize_temperature()
            if solve.failure is not None:
                failures.append(solve.failure)
            if solve.outcome is None:
                raise SolverError(
                    f"{name}: Optimization 2 failed on every ladder "
                    "rung")
            return solve.outcome
    else:
        def oftec_stage() -> OFTECResult:
            return run_oftec(tec_problem, method=method,
                             evaluator=make(tec_problem))

        def opt2_stage() -> OptimizationOutcome:
            return minimize_temperature(make(tec_problem),
                                        method=method)
    return {
        "oftec-opt1": oftec_stage,
        "oftec-opt2": opt2_stage,
        "variable-opt1": lambda: run_variable_fan_baseline(
            base_problem, method=method,
            evaluator=make(base_problem)),
        "variable-opt2": lambda: minimize_temperature(
            make(base_problem), method=method),
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
    resilient: bool,
    policy: Optional[ResiliencePolicy],
    failures: List[FailureReport],
) -> BenchmarkComparison:
    """All methods on one benchmark, each stage individually tagged."""
    specs = _stage_specs(name, tec_problem, base_problem, method, make,
                         resilient, policy, failures)
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
    isolate_failures: bool = True,
    evaluator_factory: Optional[Callable[[CoolingProblem],
                                         Evaluator]] = None,
    resilient: bool = False,
    policy: Optional[ResiliencePolicy] = None,
    workers: Optional[int] = None,
    supervision: Optional[object] = None,
    journal_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    progress: Optional[object] = None,
) -> CampaignResult:
    """Run the three-method comparison over a set of benchmark profiles.

    Args:
        profiles: Benchmark name -> power profile.
        tec_problem_template: A TEC-equipped problem carrying a coverage
            (retargeted per profile via :meth:`CoolingProblem.with_profile`).
        baseline_problem_template: The matching no-TEC problem.
        method: Solver backend for all optimizations.
        include_tec_only: Also sweep the fan-less TEC-only system.
        isolate_failures: Contain each benchmark/stage failure as a
            :class:`~repro.core.FailureReport` on the campaign result
            instead of letting it abort the run.  Template
            misconfigurations always raise — they would fail every
            benchmark identically.
        evaluator_factory: Override how per-problem evaluators are
            built (the fault-injection hook; defaults to
            :class:`~repro.core.Evaluator`).
        resilient: Route the OFTEC stages through the
            :class:`~repro.core.ResilientSolver` fallback ladder.
        policy: Resilience policy for ``resilient=True`` (default: the
            ladder led by ``method``).
        workers: Worker-process count for the parallel engine
            (``repro.exec``): None defers to ``REPRO_WORKERS`` (then
            serial), 0 forces the classic serial loop, 1 runs the
            decomposed units in-process, N > 1 shards them across N
            supervised worker processes (a unit that exhausts its
            retries is listed under ``quarantined``).  Parallel
            output is bit-identical to serial.  Incompatible with
            ``evaluator_factory`` (a live factory cannot cross process
            boundaries; chaos runs use
            :func:`repro.faults.run_chaos_campaign`'s own parallel
            path).  Error surfacing differs from serial in one way:
            exception objects do not cross the process boundary, so
            where the serial loop re-raises the original exception
            (with its traceback), the parallel path raises
            :class:`~repro.errors.SolverError` for library failures.
            An exception outside the library contract raises
            :class:`~repro.errors.WorkerCrashError` (every entry as
            ``"Type: message"`` text, unit labels and attempt counts
            on ``.units``); under ``supervision`` or a journal the
            unit is retried, then quarantined.
        supervision: A :class:`repro.exec.SupervisionPolicy` routing
            the benchmarks through the supervised executor: worker
            death/hangs become retries, poison units quarantine, and
            the campaign completes instead of raising.  Forces the
            decomposed path (``workers`` floors at 1).
        journal_path: Write an append-only crash-consistent journal of
            completed units to this path (fresh file; see
            :mod:`repro.exec.journal`).  Implies supervision.
        resume_from: Resume from an existing journal: completed units
            are loaded and skipped, new completions are appended to
            the same file, and the merged result — its canonical JSON
            in particular — is bit-identical to an uninterrupted run.
            Mutually exclusive with ``journal_path``.
        progress: A :class:`repro.obs.ProgressBoard` (or anything with
            its hook methods) fed the benchmark lifecycle — serial
            and supervised paths alike — plus live metric snapshots
            from worker processes.
    """
    if not tec_problem_template.has_tec:
        raise ConfigurationError(
            "tec_problem_template must include a TEC array")
    if baseline_problem_template.has_tec:
        raise ConfigurationError(
            "baseline_problem_template must not include a TEC array")
    if resilient and policy is None:
        policy = ResiliencePolicy(ladder=(method,) + tuple(
            m for m in SOLVER_METHODS if m != method))
    if journal_path is not None and resume_from is not None:
        raise ConfigurationError(
            "journal_path (fresh journal) and resume_from (continue "
            "one) are mutually exclusive")
    supervised = supervision is not None or journal_path is not None \
        or resume_from is not None
    worker_count = 0
    if evaluator_factory is None:
        from ..exec import resolve_workers
        worker_count = resolve_workers(workers)
    elif workers:
        raise ConfigurationError(
            "workers cannot be combined with evaluator_factory (the "
            "factory closure cannot cross a process boundary)")
    elif supervised:
        raise ConfigurationError(
            "supervision/journal/resume cannot be combined with "
            "evaluator_factory (the factory closure cannot cross a "
            "process boundary)")
    if supervised and worker_count < 1:
        # Journaling and resume need the decomposed per-unit path;
        # one in-process worker preserves serial bit-identity.
        worker_count = 1
    if worker_count >= 1:
        return _run_campaign_parallel(
            profiles, tec_problem_template, baseline_problem_template,
            method, include_tec_only, isolate_failures, resilient,
            policy, worker_count, supervision, journal_path,
            resume_from, progress=progress)
    make = evaluator_factory or Evaluator
    watch = stopwatch("campaign.wall_seconds")
    if progress is not None:
        progress.begin(len(profiles))
    with watch, _obs.span("campaign", benchmarks=len(profiles)):
        result = CampaignResult(
            t_max=tec_problem_template.limits.t_max)
        for name, profile in profiles.items():
            tec_problem = tec_problem_template.with_profile(profile,
                                                            name=name)
            base_problem = baseline_problem_template.with_profile(
                profile, name=name)
            if progress is not None:
                progress.unit_running(name)
            bench_watch = stopwatch("campaign.benchmark_seconds")
            try:
                with _obs.span("benchmark", name), bench_watch:
                    comparison = _run_benchmark(
                        name, tec_problem, base_problem, method,
                        include_tec_only, make, resilient, policy,
                        result.failures)
            except _StageFailure as failure:
                if progress is not None:
                    progress.unit_done(name, bench_watch.elapsed,
                                       ok=False)
                if not isolate_failures:
                    raise failure.error
                result.failures.append(failure_report_from_exception(
                    name, failure.stage, failure.error))
                continue
            if progress is not None:
                progress.unit_done(name, bench_watch.elapsed)
            result.comparisons.append(comparison)
    result.wall_seconds = watch.elapsed
    return result


def _run_campaign_parallel(
    profiles: Mapping[str, BenchmarkProfile],
    tec_problem_template: CoolingProblem,
    baseline_problem_template: CoolingProblem,
    method: str,
    include_tec_only: bool,
    isolate_failures: bool,
    resilient: bool,
    policy: Optional[ResiliencePolicy],
    workers: int,
    supervision: Optional[object] = None,
    journal_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    progress: Optional[object] = None,
) -> CampaignResult:
    """The decomposed campaign path: one unit per benchmark.

    Merging happens in submission order and each unit reproduces the
    serial per-benchmark pipeline exactly (same stages, same fresh
    evaluators, same failure-report ordering), so the returned result
    — and its JSON — is bit-identical to the serial loop's.
    """
    from ..exec import (
        JournalWriter,
        run_campaign_units,
        unit_fingerprint,
    )
    journal = None
    completed = None
    if journal_path is not None or resume_from is not None:
        fingerprint = unit_fingerprint(
            tuple(profiles),
            f"campaign:{method}:{int(include_tec_only)}:"
            f"{int(resilient)}")
        journal = JournalWriter(
            resume_from or journal_path,
            meta={"fingerprint": fingerprint, "job": "campaign"},
            resume=resume_from is not None)
        completed = journal.completed
    watch = stopwatch("campaign.wall_seconds")
    try:
        with watch, _obs.span("campaign", benchmarks=len(profiles),
                              workers=workers):
            merge = run_campaign_units(
                profiles, tec_problem_template,
                baseline_problem_template,
                method=method, include_tec_only=include_tec_only,
                resilient=resilient, policy=policy, fault_plan=None,
                workers=workers, supervision=supervision,
                journal=journal, completed=completed, progress=progress)
            if merge.unhandled:
                # A non-library exception in a worker is a bug, not a
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
            if merge.errors and not isolate_failures:
                name, stage, error_type, message = merge.errors[0]
                raise SolverError(
                    f"{name} [{stage}] {error_type}: {message}")
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
