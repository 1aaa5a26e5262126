"""Fault-injection framework: plans, injectors, chaos harness."""

import numpy as np
import pytest

from repro import build_cooling_problem
from repro.errors import (
    ConfigurationError,
    EvaluationBudgetError,
    SingularNetworkError,
    SolveTimeoutError,
)
from repro.faults import (
    EVALUATOR_FAULT_KINDS,
    PROCESS_FAULT_KINDS,
    INJECTED_CONDITION_ESTIMATE,
    INJECTED_DIVERGENCE_TEMPERATURE,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyEvaluator,
    FaultyNetwork,
    format_chaos_report,
    full_fault_plan,
    run_chaos_campaign,
)
from repro.io import campaign_to_dict
from repro.obs import telemetry_session


def single_fault_plan(kind, rate=1.0, **kwargs):
    return FaultPlan(seed=0,
                     specs=(FaultSpec(kind=kind, rate=rate, **kwargs),))


class TestFaultPlan:
    def test_duplicate_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(specs=(FaultSpec(kind=FaultKind.NAN_POWER),
                             FaultSpec(kind=FaultKind.NAN_POWER)))

    def test_rate_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.NAN_POWER, rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.NAN_POWER, rate=-0.1)

    def test_kind_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="nan-power")

    def test_schedule_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.NAN_POWER, start_call=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind=FaultKind.NAN_POWER, max_fires=0)

    def test_full_plan_covers_every_evaluator_kind(self):
        plan = full_fault_plan(seed=3, rate=0.1)
        # Process-level kinds are deliberately excluded: they are
        # inert without supervision and must be named explicitly.
        assert set(plan.kinds) == set(EVALUATOR_FAULT_KINDS)
        for kind in EVALUATOR_FAULT_KINDS:
            spec = plan.spec_for(kind)
            assert spec is not None and spec.rate == 0.1
        for kind in PROCESS_FAULT_KINDS:
            assert plan.spec_for(kind) is None

    def test_spec_for_uncovered_kind(self):
        plan = single_fault_plan(FaultKind.NAN_POWER)
        assert plan.spec_for(FaultKind.SOLVE_TIMEOUT) is None


class TestFaultInjector:
    def test_same_plan_same_sequence(self):
        plan = full_fault_plan(seed=7, rate=0.3)
        first = FaultInjector(plan)
        second = FaultInjector(plan)
        draws_a = [first.should_fire(FaultKind.NAN_POWER)
                   for _ in range(60)]
        draws_b = [second.should_fire(FaultKind.NAN_POWER)
                   for _ in range(60)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_kinds_draw_independent_streams(self):
        plan = full_fault_plan(seed=7, rate=0.3)
        injector = FaultInjector(plan)
        # Interleaving another kind's calls must not shift this one.
        reference = FaultInjector(plan)
        interleaved = []
        for _ in range(40):
            injector.should_fire(FaultKind.SOLVE_TIMEOUT)
            interleaved.append(injector.should_fire(FaultKind.NAN_POWER))
        plain = [reference.should_fire(FaultKind.NAN_POWER)
                 for _ in range(40)]
        assert interleaved == plain

    def test_uncovered_kind_never_fires(self):
        injector = FaultInjector(single_fault_plan(FaultKind.NAN_POWER))
        assert not any(injector.should_fire(FaultKind.SOLVE_TIMEOUT)
                       for _ in range(20))

    def test_start_call_immunity(self):
        plan = single_fault_plan(FaultKind.NAN_POWER, rate=1.0,
                                 start_call=10)
        injector = FaultInjector(plan)
        draws = [injector.should_fire(FaultKind.NAN_POWER)
                 for _ in range(15)]
        assert draws[:10] == [False] * 10
        assert all(draws[10:])

    def test_max_fires_cap(self):
        plan = single_fault_plan(FaultKind.NAN_POWER, rate=1.0,
                                 max_fires=3)
        injector = FaultInjector(plan)
        draws = [injector.should_fire(FaultKind.NAN_POWER)
                 for _ in range(10)]
        assert sum(draws) == 3
        assert injector.fired_counts()["nan-power"] == 3
        assert injector.call_counts()["nan-power"] == 10


class TestFaultyEvaluator:
    def test_solve_timeout_fault(self, tec_problem):
        injector = FaultInjector(
            single_fault_plan(FaultKind.SOLVE_TIMEOUT))
        faulty = FaultyEvaluator(tec_problem, injector)
        with pytest.raises(SolveTimeoutError, match="injected"):
            faulty.evaluate(200.0, 1.0)

    def test_singular_network_fault(self, tec_problem):
        injector = FaultInjector(
            single_fault_plan(FaultKind.SINGULAR_NETWORK))
        faulty = FaultyEvaluator(tec_problem, injector)
        with pytest.raises(SingularNetworkError) as excinfo:
            faulty.evaluate(200.0, 1.0)
        assert excinfo.value.condition_estimate \
            == INJECTED_CONDITION_ESTIMATE

    def test_iteration_exhaustion_fault(self, tec_problem):
        injector = FaultInjector(
            single_fault_plan(FaultKind.ITERATION_EXHAUSTION))
        faulty = FaultyEvaluator(tec_problem, injector)
        with pytest.raises(EvaluationBudgetError, match="injected"):
            faulty.evaluate(200.0, 1.0)

    def test_leakage_divergence_fault(self, tec_problem):
        injector = FaultInjector(
            single_fault_plan(FaultKind.LEAKAGE_DIVERGENCE))
        faulty = FaultyEvaluator(tec_problem, injector)
        evaluation = faulty.evaluate(200.0, 1.0)
        assert evaluation.runaway
        assert not evaluation.feasible
        assert evaluation.max_chip_temperature \
            == INJECTED_DIVERGENCE_TEMPERATURE

    def test_nan_power_is_sanitized_by_guard(self, tec_problem):
        injector = FaultInjector(single_fault_plan(FaultKind.NAN_POWER))
        faulty = FaultyEvaluator(tec_problem, injector)
        evaluation = faulty.evaluate(200.0, 1.0)
        # The corrupt NaN never reaches the caller: the base class's
        # NaN/Inf guard remaps it onto the finite runaway penalty.
        assert np.isfinite(evaluation.total_power)
        assert np.isfinite(evaluation.max_chip_temperature)
        assert evaluation.runaway and not evaluation.feasible

    def test_no_faults_matches_plain_evaluator(self, tec_problem,
                                               evaluator):
        injector = FaultInjector(FaultPlan(seed=0, specs=()))
        faulty = FaultyEvaluator(tec_problem, injector)
        ours = faulty.evaluate(200.0, 1.0)
        theirs = evaluator.evaluate(200.0, 1.0)
        assert ours.max_chip_temperature == theirs.max_chip_temperature
        assert ours.total_power == theirs.total_power


class TestFaultyNetwork:
    def test_injected_singularity_uses_real_error_path(self,
                                                       tec_problem):
        network = tec_problem.model.network
        injector = FaultInjector(
            single_fault_plan(FaultKind.SINGULAR_NETWORK))
        faulty = FaultyNetwork(network, injector)
        n = network.node_count
        with pytest.raises(SingularNetworkError) as excinfo:
            faulty.solve(np.zeros(n), np.ones(n))
        error = excinfo.value
        # The real detection path supplies diagnosability: a condition
        # estimate of the sabotaged system.
        assert error.condition_estimate is not None
        assert error.condition_estimate > 1e12
        assert "degenerate" in str(error) or "singular" in str(error)

    def test_delegates_when_not_firing(self, tec_problem):
        network = tec_problem.model.network
        injector = FaultInjector(
            single_fault_plan(FaultKind.SINGULAR_NETWORK, rate=0.0))
        faulty = FaultyNetwork(network, injector)
        n = network.node_count
        expected = network.solve(np.zeros(n), np.ones(n))
        actual = faulty.solve(np.zeros(n), np.ones(n))
        np.testing.assert_allclose(actual, expected)
        assert faulty.node_count == network.node_count


class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def chaos_problems(self, profiles):
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=4)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=4)
        return tec, base

    def test_full_fault_matrix_is_contained(self, profiles,
                                            chaos_problems):
        tec, base = chaos_problems
        plan = full_fault_plan(seed=11, rate=0.05)
        with telemetry_session() as (_tracer, metrics):
            report = run_chaos_campaign(profiles, tec, base, plan=plan)
        # The chaos contract: no exception escapes, ever.
        assert report.ok, report.unhandled
        assert report.unhandled == []
        # Chaos gradients run the same adjoint block solve as
        # fault-free runs.
        counters = metrics.snapshot()["counters"]
        assert counters["evaluator.adjoint.solves"] > 0
        # Every evaluator-level fault kind actually exercised the
        # stack (process-level kinds only fire under supervision).
        assert set(report.fired) == {
            kind.value for kind in EVALUATOR_FAULT_KINDS}
        assert all(count > 0 for count in report.fired.values())
        # Partial results: every benchmark either completed or left a
        # structured failure report naming it.
        campaign = report.campaign
        reported = {failure.benchmark for failure in campaign.failures}
        completed = set(campaign.benchmark_names)
        assert completed | reported == set(profiles)
        assert campaign.failures, "expected at least one failure"
        for failure in campaign.failures:
            assert failure.stage
            assert failure.error_type
            assert failure.exception_chain

    def test_failures_serialize_to_json(self, profiles,
                                        chaos_problems, tmp_path):
        import json

        tec, base = chaos_problems
        few = dict(list(profiles.items())[:2])
        plan = full_fault_plan(seed=2, rate=0.1)
        report = run_chaos_campaign(few, tec, base, plan=plan)
        assert report.ok
        payload = campaign_to_dict(report.campaign)
        text = json.dumps(payload)
        if report.campaign.failures:
            assert "failures" in payload
            entry = payload["failures"][0]
            assert {"benchmark", "stage", "error_type", "message",
                    "exception_chain", "attempts"} <= set(entry)
        assert "chaos" not in text or True  # payload is serializable

    def test_same_seed_reproduces(self, profiles, chaos_problems):
        tec, base = chaos_problems
        few = dict(list(profiles.items())[:3])
        plan = full_fault_plan(seed=13, rate=0.04)
        first = run_chaos_campaign(few, tec, base, plan=plan)
        second = run_chaos_campaign(few, tec, base, plan=plan)
        assert first.ok and second.ok
        assert first.fired == second.fired
        assert first.campaign.benchmark_names \
            == second.campaign.benchmark_names
        assert [f.stage for f in first.campaign.failures] \
            == [f.stage for f in second.campaign.failures]

    def test_no_fault_plan_changes_nothing(self, profiles,
                                           chaos_problems):
        from repro.analysis import run_campaign

        tec, base = chaos_problems
        few = dict(list(profiles.items())[:1])
        quiet = FaultPlan(seed=0, specs=())
        report = run_chaos_campaign(few, tec, base, plan=quiet)
        plain = run_campaign(few, tec, base)
        assert report.ok
        assert report.campaign.failures == []
        ours = report.campaign.comparisons[0]
        theirs = plain.comparisons[0]
        # FaultyEvaluator takes the finite-difference gradient seam
        # even with a quiet plan, so the optima agree only within
        # solver tolerance (not bit-exactly) against the plain
        # campaign's adjoint gradients.
        assert ours.oftec_opt1.omega_star == pytest.approx(
            theirs.oftec_opt1.omega_star, rel=1e-4)
        assert ours.oftec_opt1.current_star == pytest.approx(
            theirs.oftec_opt1.current_star, rel=1e-3, abs=1e-4)
        assert ours.oftec_opt1.total_power == pytest.approx(
            theirs.oftec_opt1.total_power, rel=1e-5)

    def test_campaign_never_runs_dvfs_salvage(self, profiles,
                                              monkeypatch):
        """No campaign reads a DVFS throttle estimate, so none runs the
        search.  At seed 1, fft's derived fault stream leaves
        Algorithm 1 without a feasible point, where the deleted DVFS
        salvage used to start the throttling bisection."""
        import repro.core.dvfs as dvfs_module
        import repro.core.resilient as resilient_module

        def no_dvfs(*args, **kwargs):
            raise AssertionError("the campaign ran the DVFS search")

        assert not hasattr(resilient_module, "find_max_frequency")
        monkeypatch.setattr(dvfs_module, "find_max_frequency", no_dvfs)
        tec = build_cooling_problem(profiles["basicmath"],
                                    grid_resolution=6)
        base = build_cooling_problem(profiles["basicmath"],
                                     with_tec=False, grid_resolution=6)
        report = run_chaos_campaign(
            {"fft": profiles["fft"]}, tec, base,
            plan=full_fault_plan(seed=1), workers=0)
        assert report.ok, report.unhandled

    def test_report_formatting(self, profiles, chaos_problems):
        tec, base = chaos_problems
        few = dict(list(profiles.items())[:1])
        plan = full_fault_plan(seed=4, rate=0.05)
        report = run_chaos_campaign(few, tec, base, plan=plan)
        text = format_chaos_report(report)
        assert "chaos campaign" in text
        assert "fault fires:" in text
