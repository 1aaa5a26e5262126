"""The adjoint differentiation pipeline.

Analytic gradients from :meth:`Evaluator.evaluate_with_grad` are checked
against central finite differences of the evaluator's own objectives
across all eight benchmarks at randomized interior points, plus the edge
behavior the adjoint has to get right: the natural-convection floor
below the fan crossover speed (where ``d/d(omega)`` vanishes exactly),
active box bounds, runaway penalty points (which have no gradient), and
the fault-injecting evaluator, which runs the same adjoint.

The FD comparisons run on problems rebuilt with a tight leakage loop
tolerance: the default ~1e-3 K convergence noise sits far above the
1e-5 relative agreement asserted here.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro import build_cooling_problem, mibench_profiles
from repro.core import Evaluator
from repro.errors import ThermalRunawayError
from repro.faults import FaultPlan
from repro.faults.inject import FaultInjector, FaultyEvaluator
from repro.thermal import PackageModelConfig

#: Grid resolution for the gradient checks (speed/fidelity balance).
RESOLUTION = 8

#: Relative tolerance of the analytic-vs-FD agreement.
RTOL = 1e-5

#: Central-difference steps, chosen against each axis span so the
#: truncation error sits below RTOL while staying above the (tightened)
#: leakage-loop noise floor.
OMEGA_STEP = 1e-2
CURRENT_STEP = 1e-4


def _tight_problem(name: str, with_tec: bool = True):
    """A benchmark problem with the leakage loop run to ~machine noise."""
    return build_cooling_problem(
        mibench_profiles()[name], with_tec=with_tec,
        grid_resolution=RESOLUTION,
        model_config=PackageModelConfig(leak_tolerance=1e-9))


def _central(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _fd_reference(evaluator, omega, current):
    """Central-difference (d𝒯, d𝒫) at one interior point."""
    fT_w = lambda w: evaluator.evaluate(w, current).max_chip_temperature
    fP_w = lambda w: evaluator.evaluate(w, current).total_power
    fT_i = lambda i: evaluator.evaluate(omega, i).max_chip_temperature
    fP_i = lambda i: evaluator.evaluate(omega, i).total_power
    d_temp_omega = _central(fT_w, omega, OMEGA_STEP)
    d_power_omega = _central(fP_w, omega, OMEGA_STEP)
    if evaluator.problem.current_upper_bound > 0.0:
        d_temp_current = _central(fT_i, current, CURRENT_STEP)
        d_power_current = _central(fP_i, current, CURRENT_STEP)
    else:
        d_temp_current = d_power_current = 0.0
    return (d_temp_omega, d_temp_current, d_power_omega,
            d_power_current)


class TestAdjointAgainstFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(mibench_profiles()))
    def test_all_benchmarks_randomized_points(self, name):
        problem = _tight_problem(name)
        evaluator = Evaluator(problem)
        # A stable seed: ``hash(name)`` is salted per process.
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        omega_max = problem.limits.omega_max
        i_max = problem.current_upper_bound
        crossover = problem.model.sink_conductance.crossover_speed
        checked = 0
        while checked < 3:
            # Interior points: above the crossover kink, inside both
            # boxes with step-sized margin.  High-current/low-airflow
            # draws can land in thermal runaway, where there is no
            # gradient (the penalty point has no steady state to
            # differentiate) — redraw those.
            omega = float(rng.uniform(
                max(crossover * 1.5, 0.25 * omega_max),
                omega_max - 2 * OMEGA_STEP))
            current = float(rng.uniform(2 * CURRENT_STEP,
                                        0.75 * i_max))
            if evaluator.evaluate(omega, current).runaway:
                continue
            checked += 1
            adjoint_before = evaluator.adjoint_solve_count
            gradient = evaluator.evaluate_with_grad(
                omega, current).gradient
            assert evaluator.adjoint_solve_count == adjoint_before + 2
            reference = _fd_reference(evaluator, omega, current)
            analytic = (gradient.d_temp_omega, gradient.d_temp_current,
                        gradient.d_power_omega,
                        gradient.d_power_current)
            for got, want in zip(analytic, reference):
                assert got == pytest.approx(want, rel=RTOL,
                                            abs=1e-8), (name, omega,
                                                        current)

    def test_near_zero_current_derivative_within_fd_scatter(
            self, monkeypatch):
        # Bitcount at this point has d𝒯/dI ~ -5.3e-3 K/A, where the
        # central difference is noise-limited: over steps h*{4, 2, 1,
        # 1/2, 1/4} it scatters by ~1e-7 K/A, more than RTOL of the
        # derivative.  The adjoint must sit within that scatter of the
        # differences' median; the other three components keep RTOL.
        omega, current = 302.27775639167817, 2.0999167270782038
        evaluator = Evaluator(_tight_problem("bitcount"))
        gradient = evaluator.evaluate_with_grad(omega, current).gradient
        reference = _fd_reference(evaluator, omega, current)
        for got, want in zip(
                (gradient.d_temp_omega, gradient.d_power_omega,
                 gradient.d_power_current),
                (reference[0], reference[2], reference[3])):
            assert got == pytest.approx(want, rel=RTOL, abs=1e-8)
        # A difference divides each evaluation's error by 2h (down to
        # 5e-5 A), and a warm PCG solve may stop 1e-10 K short of its
        # system's answer: that alone moves a difference by up to
        # ~2e-6 K/A, past the bound, so the differences are taken over
        # direct solves (a fresh factor each, on a fresh cache).
        operator = evaluator.problem.model.network.operator
        solve = operator.solve
        monkeypatch.setattr(
            operator, "solve",
            lambda overlay, rhs, warm=None, **_: solve(overlay, rhs))
        direct = Evaluator(evaluator.problem)
        differences = [_central(
            lambda i: direct.evaluate(omega, i).max_chip_temperature,
            current, CURRENT_STEP * factor)
            for factor in (4.0, 2.0, 1.0, 0.5, 0.25)]
        scatter = max(differences) - min(differences)
        assert 0.0 < scatter < 1e-6
        assert abs(gradient.d_temp_current - float(np.median(
            differences))) <= scatter

    def test_no_tec_problem_matches_fd(self):
        problem = _tight_problem("basicmath", with_tec=False)
        evaluator = Evaluator(problem)
        omega = 0.4 * problem.limits.omega_max
        gradient = evaluator.evaluate_with_grad(omega, 0.0).gradient
        assert evaluator.adjoint_solve_count == 2
        reference = _fd_reference(evaluator, omega, 0.0)
        assert gradient.d_temp_omega == pytest.approx(reference[0],
                                                      rel=RTOL)
        assert gradient.d_power_omega == pytest.approx(reference[2],
                                                       rel=RTOL)
        assert gradient.d_temp_current == 0.0
        assert gradient.d_power_current == 0.0


class TestEdgeBehavior:
    @pytest.fixture(scope="class")
    def problem(self):
        return _tight_problem("basicmath")

    def test_conductance_gradient_vanishes_below_crossover(self,
                                                           problem):
        # Below the crossover speed the sink conductance sits on the
        # natural-convection floor, so its derivative is exactly zero
        # — the p/omega term of the Equation (9) fit (which diverges
        # as omega -> 0) never enters.  Above the crossover the slope
        # is the analytic p/omega.
        sink = problem.model.sink_conductance
        crossover = sink.crossover_speed
        assert sink.conductance_gradient(0.0) == 0.0
        assert sink.conductance_gradient(0.5 * crossover) == 0.0
        assert sink.conductance_gradient(crossover) == 0.0
        above = 2.0 * crossover
        slope = sink.conductance_gradient(above)
        assert slope > 0.0
        h = 1e-4 * above
        fd = (sink.conductance(above + h)
              - sink.conductance(above - h)) / (2.0 * h)
        assert slope == pytest.approx(fd, rel=1e-6)
        # The fan's own draw is c*omega^3, so its slope dies
        # quadratically at stall rather than blowing up.
        assert problem.fan.power_gradient(0.0) == 0.0

    def test_active_bounds_clamp_before_differentiating(self, problem):
        # Out-of-box queries clamp exactly like evaluate(); the
        # gradient is the one-sided physical slope at the bound.
        evaluator = Evaluator(problem)
        omega_max = problem.limits.omega_max
        clamped = evaluator.evaluate_with_grad(omega_max + 50.0, 1.0)
        at_bound = evaluator.evaluate_with_grad(omega_max, 1.0)
        assert clamped.omega == omega_max
        assert clamped.gradient == at_bound.gradient

    def test_margin_properties_negate_temperature(self, problem):
        gradient = Evaluator(problem).evaluate_with_grad(
            200.0, 1.0).gradient
        assert gradient.d_margin_omega == -gradient.d_temp_omega
        assert gradient.d_margin_current == -gradient.d_temp_current


class TestFallbackAndCounters:
    def test_quiet_faulty_evaluator_matches_adjoint(self, tec_problem):
        quiet = FaultInjector(FaultPlan(seed=0, specs=()))
        evaluator = FaultyEvaluator(tec_problem, quiet)
        gradient = evaluator.evaluate_with_grad(200.0, 1.0).gradient
        plain = Evaluator(tec_problem).evaluate_with_grad(
            200.0, 1.0).gradient
        assert gradient == plain
        assert evaluator.adjoint_solve_count == 2
        assert evaluator.solve_count == 1

    def test_runaway_point_raises(self):
        # Fan off: on the tight basicmath problem the Section 6.2
        # runaway regime covers omega = 0 at every TEC current, and a
        # penalty point has no steady state to differentiate.
        problem = _tight_problem("basicmath")
        evaluator = Evaluator(problem)
        for current in np.linspace(0.0, problem.current_upper_bound, 3):
            with pytest.raises(ThermalRunawayError, match="omega=0.0"):
                evaluator.evaluate_with_grad(0.0, current)
            cached = evaluator.evaluate(0.0, current)
            assert cached.runaway
            assert cached.gradient is None
        assert evaluator.adjoint_solve_count == 0

    def test_gradient_hit_counters(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        first = evaluator.evaluate_with_grad(200.0, 1.0)
        info = evaluator.cache_info()
        assert (info.gradient_hits, info.gradient_misses) == (0, 1)
        again = evaluator.evaluate_with_grad(200.0, 1.0)
        info = evaluator.cache_info()
        assert (info.gradient_hits, info.gradient_misses) == (1, 1)
        assert again.gradient is first.gradient
        assert evaluator.adjoint_solve_count == 2

    def test_operator_adjoint_counter(self, tec_problem):
        operator = tec_problem.model.network.operator
        before = operator.stats.adjoint_solves
        Evaluator(tec_problem).evaluate_with_grad(210.0, 1.1)
        assert operator.stats.adjoint_solves == before + 2

    def test_gradient_holds_a_factor_at_its_own_point(
            self, tec_problem, monkeypatch):
        # At a new point the adjoint block factors fresh at the
        # gradient's overlay and back-solves it without a CG iteration;
        # the context then holds that factor for the solves after it.
        evaluator = Evaluator(tec_problem)
        evaluator.evaluate(200.0, 1.0)
        operator = evaluator.context.operator
        solve_adjoint = operator.solve_adjoint
        calls = []

        def spy(overlay, rhs, warm=None):
            before = operator.stats
            duals = solve_adjoint(overlay, rhs, warm)
            after = operator.stats
            calls.append((overlay.copy(),
                          after.krylov_iterations
                          - before.krylov_iterations,
                          after.fresh_factorizations
                          - before.fresh_factorizations))
            return duals

        monkeypatch.setattr(operator, "solve_adjoint", spy)
        evaluator.evaluate_with_grad(210.0, 1.1)
        (overlay, iterations, fresh), = calls
        assert (iterations, fresh) == (0, 1)
        assert evaluator.context.krylov.holds(overlay)

    def test_adjoint_not_counted_as_forward_solve(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        evaluator.evaluate(205.0, 1.0)
        solves_after_forward = evaluator.solve_count
        evaluator.evaluate_with_grad(205.0, 1.0)
        assert evaluator.solve_count == solves_after_forward

    def test_adjoint_ignores_solve_budget(self, tec_problem):
        evaluator = Evaluator(tec_problem)
        evaluator.set_solve_budget(1)
        evaluation = evaluator.evaluate_with_grad(215.0, 1.2)
        assert evaluation.gradient is not None
        assert evaluator.adjoint_solve_count == 2
