"""Resilient solve pipeline: ladder, budgets, infeasible reports."""

import pytest

from repro import CoolingProblem, build_cooling_problem, run_oftec
from repro.core import (
    Evaluator,
    ResiliencePolicy,
    ResilientSolver,
    failure_report_from_exception,
    minimize_temperature,
    run_oftec_resilient,
)
from repro.core import resilient as resilient_module
from repro.core.oftec import initial_operating_point
from repro.errors import (
    ConfigurationError,
    EvaluationBudgetError,
    SingularNetworkError,
    SolverError,
    ThermalRunawayError,
)
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyEvaluator,
)
from repro.leakage import lumped_fixed_point


class TestResiliencePolicy:
    def test_defaults_are_valid(self):
        policy = ResiliencePolicy()
        assert policy.ladder == ("slsqp", "trust-constr", "grid")

    @pytest.mark.parametrize("kwargs", [
        {"ladder": ()},
        {"ladder": ("newton",)},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(**kwargs)


class TestEvaluationBudget:
    def test_budget_exhaustion_raises(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        evaluator.set_solve_budget(2)
        evaluator.evaluate(100.0, 0.5)
        evaluator.evaluate(200.0, 1.0)
        with pytest.raises(EvaluationBudgetError):
            evaluator.evaluate(300.0, 1.5)

    def test_cache_hits_are_free(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        evaluator.set_solve_budget(1)
        evaluator.evaluate(100.0, 0.5)
        # Same point again: served from cache, no budget consumed.
        evaluator.evaluate(100.0, 0.5)
        with pytest.raises(EvaluationBudgetError):
            evaluator.evaluate(200.0, 1.0)

    def test_budget_reset_and_clear(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        evaluator.set_solve_budget(1)
        evaluator.evaluate(100.0, 0.5)
        evaluator.set_solve_budget(1)
        evaluator.evaluate(200.0, 1.0)
        evaluator.set_solve_budget(None)
        evaluator.evaluate(300.0, 1.5)

    def test_invalid_budget_rejected(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        with pytest.raises(ConfigurationError):
            evaluator.set_solve_budget(0)


class TestFailureReport:
    def test_chain_walk_recovers_condition_estimate(self):
        try:
            try:
                raise ValueError("root cause")
            except ValueError as root:
                raise SingularNetworkError(
                    "singular", condition_estimate=1e15) from root
        except SingularNetworkError as singular:
            outer = SolverError("ladder exhausted")
            outer.__cause__ = singular
        report = failure_report_from_exception(
            "bench", "some-stage", outer,
            last_iterate=(100.0, 1.0))
        assert report.benchmark == "bench"
        assert report.stage == "some-stage"
        assert report.error_type == "SolverError"
        assert len(report.exception_chain) == 3
        assert report.exception_chain[0].startswith("SolverError")
        assert report.exception_chain[-1].startswith("ValueError")
        assert report.condition_estimate == 1e15
        assert report.last_iterate == (100.0, 1.0)


class TestFallbackLadder:
    # basicmath's midpoint already meets T_max; fft's does not, so its
    # Algorithm 1 runs Optimization 2 before Optimization 1.
    @pytest.mark.parametrize("name,needs_opt2", [
        ("basicmath", False),
        ("fft", True),
    ])
    def test_no_faults_bit_identical_to_plain_oftec(
            self, tec_problem, profiles, name, needs_opt2):
        """The campaign's only OFTEC path is the ladder, so on a
        healthy problem it must reproduce the plain solvers exactly."""
        problem = tec_problem.with_profile(profiles[name], name=name)
        plain = run_oftec(problem)
        assert (plain.opt2 is not None) == needs_opt2
        resilient = run_oftec_resilient(problem)
        assert resilient.result is not None
        assert (resilient.result.opt2 is not None) == needs_opt2
        assert resilient.result.omega_star == plain.omega_star
        assert resilient.result.current_star == plain.current_star
        assert resilient.result.total_power == plain.total_power
        assert resilient.result.max_chip_temperature \
            == plain.max_chip_temperature
        assert resilient.result.thermal_solves == plain.thermal_solves
        assert resilient.failures == []

        direct = minimize_temperature(Evaluator(problem))
        laddered = ResilientSolver(
            Evaluator(problem)).minimize_temperature()
        assert laddered.failure is None
        ours = laddered.outcome
        assert ours.evaluation.omega == direct.evaluation.omega
        assert ours.evaluation.current == direct.evaluation.current
        assert ours.evaluation.max_chip_temperature \
            == direct.evaluation.max_chip_temperature
        assert ours.evaluations == direct.evaluations

    def test_forced_slsqp_failure_recovers_via_grid(
            self, tec_problem, monkeypatch):
        clean = run_oftec(tec_problem)
        # Fire one injected timeout on the first fresh solve *after*
        # the midpoint evaluation: it lands inside the slsqp attempt,
        # which must then hand over to the grid rung.
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind=FaultKind.SOLVE_TIMEOUT, rate=1.0,
                      start_call=1, max_fires=1),))
        faulty = FaultyEvaluator(tec_problem, FaultInjector(plan))
        monkeypatch.setattr(resilient_module, "RETRIES_PER_METHOD", 0)
        policy = ResiliencePolicy(ladder=("slsqp", "grid"))
        outcome = run_oftec_resilient(tec_problem, policy=policy,
                                      evaluator=faulty)
        assert outcome.result is not None and outcome.result.feasible
        records = [(a.method, a.success, a.error_type)
                   for a in outcome.attempts]
        assert ("slsqp", False, "SolveTimeoutError") in records
        assert any(method == "grid" and success
                   for method, success, _ in records)
        assert outcome.result.omega_star \
            == pytest.approx(clean.omega_star, rel=0.01)
        assert outcome.result.current_star \
            == pytest.approx(clean.current_star, rel=0.01, abs=0.01)
        assert outcome.result.total_power \
            == pytest.approx(clean.total_power, rel=0.01)

    def test_adjoint_timeout_becomes_failed_attempt(
            self, tec_problem, monkeypatch):
        # Call 0 of the timeout stream is the start point's forward
        # solve; call 1 is the first fresh solve after it.  The start
        # point is cached, so that solve is the adjoint block solve of
        # SLSQP's first gradient query.
        plan = FaultPlan(seed=5, specs=(
            FaultSpec(kind=FaultKind.SOLVE_TIMEOUT, rate=1.0,
                      start_call=1, max_fires=1),))
        faulty = FaultyEvaluator(tec_problem, FaultInjector(plan))
        start = initial_operating_point(tec_problem)
        faulty.evaluate(*start)
        monkeypatch.setattr(resilient_module, "RETRIES_PER_METHOD", 0)
        policy = ResiliencePolicy(ladder=("slsqp",))
        outcome = ResilientSolver(faulty, policy).minimize_power(start)
        [attempt] = outcome.attempts
        assert (attempt.method, attempt.success, attempt.error_type) \
            == ("slsqp", False, "SolveTimeoutError")
        assert outcome.failure.error_type == "SolveTimeoutError"
        assert faulty.injector.fired_counts() == {"solve-timeout": 1}
        # The fault struck before any adjoint finished and before any
        # forward solve beyond the start point.
        assert faulty.adjoint_solve_count == 0
        assert faulty.solve_count == 1

    def test_exhausted_ladder_yields_failure_report(
            self, tec_problem, monkeypatch):
        # A 3-solve budget starves every rung including the grid scan.
        monkeypatch.setattr(resilient_module, "RETRIES_PER_METHOD", 0)
        monkeypatch.setattr(resilient_module, "MAX_EVALUATIONS", 3)
        policy = ResiliencePolicy(ladder=("slsqp", "grid"))
        solver = ResilientSolver(Evaluator(tec_problem), policy)
        outcome = solver.minimize_temperature()
        assert outcome.outcome is None
        assert not outcome.succeeded
        assert len(outcome.attempts) == 2
        assert all(not a.success for a in outcome.attempts)
        failure = outcome.failure
        assert failure is not None
        assert failure.error_type == "EvaluationBudgetError"
        assert failure.stage == "minimize-temperature"
        assert failure.last_iterate is not None
        assert len(failure.attempts) == 2

    def test_budget_cleared_after_ladder(self, tec_problem, monkeypatch):
        evaluator = Evaluator(tec_problem)
        monkeypatch.setattr(resilient_module, "RETRIES_PER_METHOD", 0)
        monkeypatch.setattr(resilient_module, "MAX_EVALUATIONS", 3)
        policy = ResiliencePolicy(ladder=("slsqp",))
        ResilientSolver(evaluator, policy).minimize_temperature()
        # The try/finally must have cleared the per-attempt budget.
        for index in range(5):
            evaluator.evaluate(50.0 + index, 0.1)


def _hot_problem(profiles):
    """Basicmath at 8x its dynamic power: no cooling point meets T_max."""
    small = build_cooling_problem(profiles["basicmath"],
                                  grid_resolution=4)
    return CoolingProblem(
        "hot", small.model, small.leakage, small.fan,
        small.dynamic_cell_power * 8.0, small.limits,
        small.coverage, small.fan_heat_fraction)


class TestGracefulDegradation:
    # Both tests predate the removal of the DVFS salvage and keep their
    # names; what is left of each is the infeasible report.

    def test_infeasible_problem_degrades_to_dvfs(self, profiles,
                                                 monkeypatch):
        monkeypatch.setattr(resilient_module, "RETRIES_PER_METHOD", 0)
        policy = ResiliencePolicy(ladder=("slsqp",))
        outcome = run_oftec_resilient(_hot_problem(profiles),
                                      policy=policy)
        assert not outcome.feasible
        if outcome.result is not None:
            assert outcome.result.feasible is False

    def test_degradation_can_be_disabled(self, profiles, monkeypatch):
        # The same report from the grid rung alone.
        monkeypatch.setattr(resilient_module, "RETRIES_PER_METHOD", 0)
        policy = ResiliencePolicy(ladder=("grid",))
        outcome = run_oftec_resilient(_hot_problem(profiles),
                                      policy=policy)
        assert not outcome.feasible
        if outcome.result is not None:
            assert outcome.result.feasible is False


class TestRunawayBoundary:
    AMBIENT = 300.0

    def leak(self, gain):
        return lambda t: gain * max(t - self.AMBIENT, 0.0)

    def test_below_unity_gain_converges(self):
        # Feedback gain k/g = 0.99 < 1: fixed point at
        # ambient + P / (g - k).
        result = lumped_fixed_point(5e-4, 1.0, self.AMBIENT,
                                    self.leak(0.99))
        assert result.temperature == pytest.approx(
            self.AMBIENT + 5e-4 / 0.01, abs=1e-3)

    def test_unity_gain_never_converges(self):
        # k/g = 1.0 exactly: updates march linearly, no fixed point.
        with pytest.raises(ThermalRunawayError):
            lumped_fixed_point(5e-4, 1.0, self.AMBIENT, self.leak(1.0))

    def test_above_unity_gain_detected_early(self):
        # k/g = 1.01: growing updates trip the divergence detector long
        # before the iteration cap or the runaway ceiling.
        with pytest.raises(ThermalRunawayError) as excinfo:
            lumped_fixed_point(5e-4, 1.0, self.AMBIENT, self.leak(1.01))
        assert "diverging" in str(excinfo.value)
