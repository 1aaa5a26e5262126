"""Chaos harness: run a whole campaign under an injected fault matrix.

The contract under test: with fault injection active across every
benchmark and method, the campaign must still return — partial results
plus structured :class:`~repro.core.FailureReport` entries — and no
exception may escape.  :class:`ChaosReport.ok` is the single pass/fail
bit CI asserts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..analysis.campaign import CampaignResult
from ..core import CoolingProblem
from ..errors import ConfigurationError
from ..obs import runtime as _obs
from ..obs.clock import stopwatch
from ..power import BenchmarkProfile
from .plan import FaultPlan, full_fault_plan


@dataclass
class ChaosReport:
    """Outcome of one chaos-campaign run.

    Attributes:
        plan: The fault plan that was injected.
        fired: Fault fires per kind (by kind value).
        campaign: The (partial) campaign result; None only when an
            exception escaped the isolation boundaries.
        unhandled: ``"Type: message"`` lines for exceptions that escaped
            — the chaos contract is that this list stays empty.
        wall_seconds: Total harness wall-clock time.
    """

    plan: FaultPlan
    fired: Dict[str, int] = field(default_factory=dict)
    campaign: Optional[CampaignResult] = None
    unhandled: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every fault was contained (no unhandled escapes)."""
        return not self.unhandled and self.campaign is not None

    @property
    def completed_benchmarks(self) -> List[str]:
        """Benchmarks that produced a full comparison despite faults."""
        if self.campaign is None:
            return []
        return self.campaign.benchmark_names


def run_chaos_campaign(
    profiles: Mapping[str, BenchmarkProfile],
    tec_problem_template: CoolingProblem,
    baseline_problem_template: CoolingProblem,
    plan: Optional[FaultPlan] = None,
    method: str = "slsqp",
    workers: Optional[int] = None,
    supervision: Optional[object] = None,
    progress: Optional[object] = None,
) -> ChaosReport:
    """Run the benchmark campaign with fault injection turned on.

    The plan travels to the units on the worker context; every
    benchmark unit builds a :class:`FaultyEvaluator` around its own
    injector, seeded by :meth:`~repro.faults.FaultPlan.derive`, so its
    fault stream depends only on the plan and the benchmark name and
    the report is identical at every worker count.  Fault events land
    on that unit's spans (adopted under the coordinating ``unit``
    span).  Fires are summed across units into
    :attr:`ChaosReport.fired`, including process-level fires.

    Args:
        profiles: Benchmark name -> power profile.
        tec_problem_template: TEC-equipped problem template.
        baseline_problem_template: Matching no-TEC template.
        plan: Fault plan (default: every evaluator-level kind at the
            default rate).  Process-level kinds (``worker-kill`` /
            ``worker-hang`` / ``worker-slow``) fire only in supervised
            worker processes, so a plan carrying them needs
            ``workers >= 2`` (an in-process ``os._exit`` would kill
            the coordinator itself).
        method: Leading solver backend (the first rung of the OFTEC
            stages' fallback ladder).
        workers: Worker-process count (None, 0 and 1 run in-process).
            A unit whose worker keeps dying is retried, then
            quarantined, so the report carries a partial campaign plus
            its ``quarantined`` section.
        supervision: A :class:`repro.exec.SupervisionPolicy` for the
            supervised executor (the stock policy when None).
        progress: A :class:`repro.obs.ProgressBoard` (or anything with
            its hook methods) fed the benchmark lifecycle.

    Raises:
        ConfigurationError: The plan carries process-level kinds and
            fewer than two workers were asked for — they would fire
            nothing and the report would pass vacuously.
    """
    plan = plan if plan is not None else full_fault_plan()
    from ..exec import resolve_workers, run_campaign_units
    worker_count = resolve_workers(workers)
    if plan.process_kinds:
        if worker_count < 2:
            raise ConfigurationError(
                "process-level fault kinds ("
                + ", ".join(kind.value for kind in plan.process_kinds)
                + ") fire only in worker processes; run with "
                "workers >= 2")
        if supervision is None:
            # An explicit policy makes even a single unit run in a
            # worker process, where the process faults can fire.
            from ..exec import SupervisionPolicy
            supervision = SupervisionPolicy()
    report = ChaosReport(plan=plan)
    watch = stopwatch("chaos.wall_seconds")
    with watch, _obs.span("chaos", seed=plan.seed, workers=worker_count):
        merge = run_campaign_units(
            profiles, tec_problem_template, baseline_problem_template,
            method=method, include_tec_only=False, fault_plan=plan,
            workers=worker_count, supervision=supervision,
            progress=progress)
        report.unhandled.extend(merge.unhandled)
        for text in merge.unhandled:
            _obs.event("chaos.unhandled",
                       error=text.split(":", 1)[0])
        report.fired = merge.fired
        report.campaign = CampaignResult(
            comparisons=merge.comparisons,
            t_max=tec_problem_template.limits.t_max,
            failures=merge.failures,
            quarantined=list(merge.quarantined),
            worker_stats=merge.worker_stats)
    report.campaign.wall_seconds = watch.elapsed
    if _obs.STATE.enabled:
        for kind, count in report.fired.items():
            _obs.STATE.metrics.gauge(f"chaos.fired.{kind}").set(count)
    report.wall_seconds = watch.elapsed
    return report


def format_chaos_report(report: ChaosReport) -> str:
    """Human-readable summary of a chaos run."""
    lines = [
        "chaos campaign "
        + ("PASSED" if report.ok else "FAILED")
        + f" (seed={report.plan.seed}, "
        + f"{report.wall_seconds:.1f} s)",
        "fault fires: " + (", ".join(
            f"{kind}={count}"
            for kind, count in sorted(report.fired.items())) or "none"),
    ]
    if report.campaign is not None:
        done = report.completed_benchmarks
        lines.append(
            f"benchmarks completed: {len(done)} "
            f"({', '.join(done) if done else 'none'})")
        lines.append(
            f"failure reports: {len(report.campaign.failures)}")
        for failure in report.campaign.failures:
            lines.append(
                f"  - {failure.benchmark} [{failure.stage}] "
                f"{failure.error_type}: {failure.message}")
        if report.campaign.quarantined:
            lines.append(
                f"quarantined units: "
                f"{len(report.campaign.quarantined)}")
            for entry in report.campaign.quarantined:
                lines.append(
                    f"  - {entry.name} after {entry.attempts} "
                    f"attempt(s): {entry.errors[-1] if entry.errors else '?'}")
    for text in report.unhandled:
        lines.append(f"UNHANDLED: {text}")
    return "\n".join(lines)
