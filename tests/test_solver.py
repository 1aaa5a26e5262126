"""Steady-state solver: leakage loop, warm start, runaway detection."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ThermalRunawayError
from repro.thermal import SolveContext, solve_steady_state
from repro.thermal import solver
from repro.thermal.operator import KRYLOV_TOLERANCE, NEWTON_TOLERANCE


class TestLeakageLoop:
    def test_converges_quickly(self, tec_model, basicmath_power, leakage):
        result = solve_steady_state(tec_model, 262.0, 0.5,
                                    basicmath_power, leakage)
        assert result.stats.converged
        assert result.stats.outer_iterations <= 10

    def test_warm_start_reduces_iterations(self, tec_model,
                                           basicmath_power, leakage):
        cold = solve_steady_state(tec_model, 262.0, 0.5, basicmath_power,
                                  leakage)
        warm = solve_steady_state(tec_model, 263.0, 0.5, basicmath_power,
                                  leakage,
                                  initial_guess=cold.chip_temperatures)
        assert warm.stats.outer_iterations <= cold.stats.outer_iterations

    def test_leakage_power_consistent_with_model(self, tec_model,
                                                 basicmath_power,
                                                 leakage):
        result = solve_steady_state(tec_model, 262.0, 0.0,
                                    basicmath_power, leakage)
        assert result.leakage_power == pytest.approx(
            leakage.total_power(result.chip_temperatures), rel=1e-6)

    def test_leakage_makes_chip_hotter(self, tec_model, basicmath_power,
                                       leakage):
        without = solve_steady_state(tec_model, 262.0, 0.0,
                                     basicmath_power, leakage=None)
        with_leak = solve_steady_state(tec_model, 262.0, 0.0,
                                       basicmath_power, leakage)
        assert with_leak.max_chip_temperature > \
            without.max_chip_temperature

    def test_wrong_guess_shape_rejected(self, tec_model, basicmath_power,
                                        leakage):
        with pytest.raises(ConfigurationError):
            solve_steady_state(tec_model, 262.0, 0.0, basicmath_power,
                               leakage, initial_guess=np.zeros(3))


class TestInexactNewton:
    """Non-final Newton systems are solved loosely from the previous
    iterate; only the polished last system becomes the answer."""

    @staticmethod
    def primed_context(model, power, leakage):
        context = SolveContext.for_model(model)
        solve_steady_state(model, 262.0, 0.5, power, leakage,
                           context=context)
        return context

    def test_loose_newton_steps_then_one_polish(
            self, tec_model, basicmath_power, leakage, monkeypatch):
        # Every Newton system at full tolerance, as before inexact
        # Newton: 3 iterations at this point, and the count must hold.
        monkeypatch.setattr(solver, "NEWTON_TOLERANCE", KRYLOV_TOLERANCE)
        tight = solve_steady_state(
            tec_model, 275.0, 0.9, basicmath_power, leakage,
            context=self.primed_context(tec_model, basicmath_power,
                                        leakage))
        monkeypatch.undo()

        operator = tec_model.network.operator
        solve = operator.solve
        calls = []

        def spy(overlay, rhs, warm=None, *, start=None,
                tolerance=KRYLOV_TOLERANCE):
            result = solve(overlay, rhs, warm, start=start,
                           tolerance=tolerance)
            calls.append((overlay.copy(), None if start is None
                          else start.copy(), tolerance, result.copy()))
            return result

        context = self.primed_context(tec_model, basicmath_power, leakage)
        monkeypatch.setattr(operator, "solve", spy)
        result = solve_steady_state(tec_model, 275.0, 0.9,
                                    basicmath_power, leakage,
                                    context=context)

        stats = result.stats
        assert stats.outer_iterations == tight.stats.outer_iterations == 3
        assert stats.linear_solves == len(calls) \
            == stats.outer_iterations + 1
        *newton, polish = calls
        assert all(tolerance == NEWTON_TOLERANCE
                   for _, _, tolerance, _ in newton)
        assert newton[0][1] is None
        for previous, following in zip(newton, newton[1:]):
            assert (following[1] == previous[3]).all()
        overlay, start, tolerance, temps = polish
        assert tolerance == KRYLOV_TOLERANCE
        assert (overlay == newton[-1][0]).all()
        assert (start == newton[-1][3]).all()
        assert (temps == result.temperatures).all()
        assert np.abs(temps - tight.temperatures).max() <= 1e-9


class TestResultFields:
    def test_tec_power_identity(self, tec_model, basicmath_power,
                                leakage):
        result = solve_steady_state(tec_model, 262.0, 1.0,
                                    basicmath_power, leakage)
        assert result.tec_power == pytest.approx(
            result.tec_heat_released - result.tec_heat_absorbed,
            rel=1e-9)

    def test_zero_current_zero_tec_power(self, tec_model,
                                         basicmath_power, leakage):
        result = solve_steady_state(tec_model, 262.0, 0.0,
                                    basicmath_power, leakage)
        assert result.tec_power == 0.0

    def test_max_is_max_of_cells(self, tec_model, basicmath_power,
                                 leakage):
        result = solve_steady_state(tec_model, 262.0, 0.0,
                                    basicmath_power, leakage)
        assert result.max_chip_temperature == pytest.approx(
            result.chip_temperatures.max())
        assert result.mean_chip_temperature == pytest.approx(
            result.chip_temperatures.mean())

    def test_operating_point_recorded(self, tec_model, basicmath_power,
                                      leakage):
        result = solve_steady_state(tec_model, 111.0, 0.25,
                                    basicmath_power, leakage)
        assert result.omega == 111.0
        assert result.current == 0.25


class TestRunaway:
    def test_runaway_at_zero_fan(self, tec_model, quicksort_power,
                                 leakage):
        # Figure 6(a)'s dark-red region: no bounded steady state at
        # omega = 0 under a heavy workload.
        with pytest.raises(ThermalRunawayError):
            solve_steady_state(tec_model, 0.0, 0.0, quicksort_power,
                               leakage)

    def test_current_alone_cannot_rescue(self, tec_model,
                                         quicksort_power, leakage):
        # The paper: "increasing I_TEC alone cannot rescue the chip".
        for current in (1.0, 3.0, 5.0):
            with pytest.raises(ThermalRunawayError):
                solve_steady_state(tec_model, 0.0, current,
                                   quicksort_power, leakage)

    def test_error_carries_temperature(self, tec_model, quicksort_power,
                                       leakage):
        with pytest.raises(ThermalRunawayError) as excinfo:
            solve_steady_state(tec_model, 0.0, 0.0, quicksort_power,
                               leakage)
        assert excinfo.value.max_temperature > 400.0

    def test_no_runaway_without_leakage(self, tec_model, quicksort_power):
        # Without the leakage feedback the system always has a bounded
        # steady state (it is a passive resistive network).
        result = solve_steady_state(tec_model, 0.0, 0.0, quicksort_power,
                                    leakage=None)
        assert np.isfinite(result.max_chip_temperature)

    def test_fan_rescues_from_runaway(self, tec_model, quicksort_power,
                                      leakage):
        # Raising omega enough restores a bounded steady state.
        result = solve_steady_state(tec_model, 300.0, 0.0,
                                    quicksort_power, leakage)
        assert result.max_chip_temperature < \
            tec_model.config.runaway_ceiling
