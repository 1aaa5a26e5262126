"""Campaign runner and report formatting (Figures 6(c)-(f), Table 2)."""

import pytest

from repro import build_cooling_problem
from repro.analysis import (
    format_comparison_table,
    format_surface,
    format_table2,
    run_campaign,
    sweep_objective_surfaces,
)
from repro.analysis.campaign import _stage_specs
from repro.core import Evaluator
from repro.errors import ConfigurationError
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyEvaluator,
)
from repro.obs import telemetry_session


@pytest.fixture(scope="module")
def mini_campaign(tec_problem, baseline_problem, profiles):
    # Two benchmarks keep the module fast: one light, one heavy.
    subset = {"basicmath": profiles["basicmath"],
              "quicksort": profiles["quicksort"]}
    return run_campaign(subset, tec_problem, baseline_problem,
                        include_tec_only=True)


class TestCampaign:
    def test_runs_all_benchmarks(self, mini_campaign):
        assert mini_campaign.benchmark_names == ["basicmath",
                                                 "quicksort"]

    def test_lookup_by_name(self, mini_campaign):
        assert mini_campaign["quicksort"].name == "quicksort"
        with pytest.raises(ConfigurationError):
            mini_campaign["nope"]

    def test_oftec_feasible_everywhere(self, mini_campaign):
        counts = mini_campaign.feasibility_counts()
        assert counts["oftec"] == 2

    def test_baselines_fail_heavy(self, mini_campaign):
        comparison = mini_campaign["quicksort"]
        assert not comparison.variable_opt1.feasible
        assert not comparison.fixed.feasible
        assert comparison.oftec_opt1.feasible

    def test_comparable_is_light_only(self, mini_campaign):
        assert mini_campaign.comparable_benchmarks() == ["basicmath"]

    def test_oftec_saves_power_on_comparable(self, mini_campaign):
        assert mini_campaign.average_power_saving("variable-omega") > 0.0
        assert mini_campaign.average_power_saving("fixed-omega") > 0.0

    def test_oftec_cooler_on_comparable(self, mini_campaign):
        assert mini_campaign.average_temperature_delta(
            "variable-omega") > 0.0

    def test_opt2_advantage_positive(self, mini_campaign):
        # Figure 6(c): OFTEC's coolest point beats both baselines'.
        assert mini_campaign.average_opt2_temperature_advantage() > 0.0

    def test_opt2_oftec_spends_more_power(self, mini_campaign):
        # Figure 6(d): when minimizing temperature, OFTEC burns the
        # most cooling power (the TECs run hard).
        for comparison in mini_campaign.comparisons:
            assert comparison.oftec_opt2.evaluation.total_power > \
                comparison.variable_opt2.evaluation.total_power

    def test_tec_only_always_runs_away(self, mini_campaign):
        for comparison in mini_campaign.comparisons:
            assert comparison.tec_only is not None
            assert comparison.tec_only.runaway

    def test_runtime_positive(self, mini_campaign):
        assert mini_campaign.average_oftec_runtime() > 0.0
        assert mini_campaign.wall_seconds > 0.0

    def test_template_validation(self, tec_problem, baseline_problem,
                                 profiles):
        with pytest.raises(ConfigurationError):
            run_campaign({"x": profiles["fft"]}, baseline_problem,
                         baseline_problem)
        with pytest.raises(ConfigurationError):
            run_campaign({"x": profiles["fft"]}, tec_problem,
                         tec_problem)


class TestReports:
    def test_opt1_table_mentions_benchmarks(self, mini_campaign):
        text = format_comparison_table(mini_campaign, "opt1")
        assert "basicmath" in text
        assert "quicksort" in text
        assert "OFTEC" in text
        assert "Optimization 1" in text

    def test_opt1_table_summarizes_savings(self, mini_campaign):
        text = format_comparison_table(mini_campaign, "opt1")
        assert "saves" in text
        assert "thermal constraint met" in text

    def test_opt2_table(self, mini_campaign):
        text = format_comparison_table(mini_campaign, "opt2")
        assert "Optimization 2" in text

    def test_infeasible_marked(self, mini_campaign):
        text = format_comparison_table(mini_campaign, "opt1")
        assert "NO" in text

    def test_bad_objective(self, mini_campaign):
        with pytest.raises(ConfigurationError):
            format_comparison_table(mini_campaign, "opt3")

    def test_table2(self, mini_campaign):
        text = format_table2(mini_campaign)
        assert "I*_TEC" in text
        assert "runtime" in text
        assert "average" in text

    def test_surface_rendering(self, tec_problem):
        sweep = sweep_objective_surfaces(tec_problem, omega_points=4,
                                         current_points=3)
        text = format_surface(sweep, "temperature")
        assert "***" in text  # the runaway row at omega = 0
        assert "omega" in text
        power_text = format_surface(sweep, "power")
        assert "power surface" in power_text
        with pytest.raises(ConfigurationError):
            format_surface(sweep, "entropy")


class TestFirstRung:
    @pytest.mark.parametrize("resolution", [4, 6, 8])
    def test_fault_free_ladders_stop_at_first_attempt(self, profiles,
                                                       resolution):
        """A fault-free campaign gives the plain Algorithm 1 result only
        while every ladder's first attempt (plain SLSQP) reports success
        within the solve budget; a retry or a later rung would change
        the Table 2 numbers.  Pinned at the CI grids (4, 6) and the
        test grid (8) on all eight profiles."""
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=resolution)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False,
                                     grid_resolution=resolution)
        with telemetry_session() as (tracer, metrics):
            campaign = run_campaign(profiles, tec, base, workers=0)
        assert not campaign.failures
        ladders = [s for s in tracer.finished if s.kind == "ladder"]
        attempts = [s for s in tracer.finished if s.kind == "attempt"]
        assert len(ladders) >= 2 * len(profiles)
        assert len(attempts) == len(ladders)
        assert {s.name for s in attempts} == {"slsqp"}
        counters = metrics.snapshot()["counters"]
        assert counters["resilient.attempts"] == len(ladders)
        assert "resilient.attempts.failed" not in counters


class TestBaselineStagesOnTheLadder:
    @pytest.mark.parametrize("stage,objective", [
        ("variable-opt1", "total_power"),
        ("variable-opt2", "max_chip_temperature"),
    ])
    def test_fault_at_start_point_is_retried(self, tec_problem,
                                             baseline_problem, stage,
                                             objective):
        # One injected leakage divergence on the stage's first solve
        # makes its start point a runaway point with no gradient; the
        # ladder retries from a perturbed start and lands on the
        # fault-free optimum instead of losing the stage.
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.LEAKAGE_DIVERGENCE, rate=1.0, max_fires=1),))
        failures = []
        faulty = _stage_specs(
            "basicmath", tec_problem, baseline_problem, "slsqp",
            lambda problem: FaultyEvaluator(problem,
                                            FaultInjector(plan)),
            failures)[stage]()
        clean = _stage_specs("basicmath", tec_problem, baseline_problem,
                             "slsqp", Evaluator, [])[stage]()
        assert failures == []
        assert not faulty.evaluation.runaway
        assert getattr(faulty.evaluation, objective) == pytest.approx(
            getattr(clean.evaluation, objective), rel=1e-6)
