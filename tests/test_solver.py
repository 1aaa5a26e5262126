"""Steady-state solver: leakage loop, warm start, runaway detection."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import build_cooling_problem
from repro.analysis import sweep_objective_surfaces
from repro.errors import (
    ConfigurationError,
    IndefiniteSystemError,
    ThermalRunawayError,
)
from repro.obs import telemetry_session
from repro.thermal import (
    SolveContext,
    ThermalOperator,
    solve_steady_state,
)
from repro.thermal import solver
from repro.thermal.operator import KRYLOV_TOLERANCE, NEWTON_TOLERANCE

#: Fig. 6 masks at grid 6 recorded when every PCG breakdown factored
#: fresh instead of ending the solve as runaway.
RECORDED_MASKS = Path(__file__).parent / "fixtures" / "fig6_masks_res6.json"

#: Runaway-verdict counters of ``solve_steady_state``, one per cause.
RUNAWAY_COUNTERS = ("leakage.runaway.indefinite", "leakage.runaway.ceiling",
                    "leakage.runaway.floor", "leakage.diverged")


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
    """Newton systems are solved only as tightly as the step they
    resolve (Eisenstat-Walker forcing), each from the previous iterate;
    only the polished last system becomes the answer."""

    @staticmethod
    def primed_context(model, power, leakage):
        context = SolveContext.for_model(model)
        solve_steady_state(model, 262.0, 0.5, power, leakage,
                           context=context)
        return context

    def test_loose_newton_steps_then_one_polish(
            self, tec_model, basicmath_power, leakage, monkeypatch):
        operator = tec_model.network.operator
        solve = operator.solve

        # Every Newton system at full tolerance, as in exact Newton.
        def tight_solve(overlay, rhs, warm=None, *,
                        tolerance=KRYLOV_TOLERANCE):
            return solve(overlay, rhs, warm, tolerance=KRYLOV_TOLERANCE)

        monkeypatch.setattr(operator, "solve", tight_solve)
        tight = solve_steady_state(
            tec_model, 275.0, 0.9, basicmath_power, leakage,
            context=self.primed_context(tec_model, basicmath_power,
                                        leakage))
        monkeypatch.undo()

        calls = []

        def spy(overlay, rhs, warm=None, *, tolerance=KRYLOV_TOLERANCE):
            held = warm.vector.copy()
            result = solve(overlay, rhs, warm, tolerance=tolerance)
            calls.append((overlay.copy(), held, tolerance, result.copy()))
            return result

        context = self.primed_context(tec_model, basicmath_power, leakage)
        primed_chip = context.warm_chip
        primed_answer = context.krylov.vector.copy()
        held_before = operator.stats.held_starts
        monkeypatch.setattr(operator, "solve", spy)
        result = solve_steady_state(tec_model, 275.0, 0.9,
                                    basicmath_power, leakage,
                                    context=context)

        stats = result.stats
        assert stats.outer_iterations == tight.stats.outer_iterations == 3
        assert stats.linear_solves == len(calls) \
            == stats.outer_iterations + 1
        # Every system ran PCG from the held answer: the priming
        # solve's for the first, the previous system's after that.
        assert operator.stats.held_starts - held_before == len(calls)
        assert (calls[0][1] == primed_answer).all()
        for previous, following in zip(calls, calls[1:]):
            assert (following[1] == previous[3]).all()
        *newton, polish = calls
        # The first system to leak_tolerance, system k+1 to FORCING
        # times the chip update of system k.
        leak_tolerance = tec_model.config.leak_tolerance
        assert newton[0][2] == leak_tolerance
        t_ref = primed_chip
        for previous, following in zip(newton, newton[1:]):
            chip = tec_model.chip_temperatures(previous[3])
            update = float(np.max(np.abs(chip - t_ref)))
            assert following[2] == min(leak_tolerance, max(
                NEWTON_TOLERANCE, solver.FORCING * update))
            t_ref = chip
        assert [tolerance for _, _, tolerance, _ in newton] \
            == sorted((tolerance for _, _, tolerance, _ in newton),
                      reverse=True)
        overlay, _, tolerance, temps = polish
        assert tolerance == KRYLOV_TOLERANCE
        assert (overlay == newton[-1][0]).all()
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


def _mask(array):
    return ["".join("1" if flag else "0" for flag in row) for row in array]


@pytest.fixture(scope="module")
def certified_sweeps(profiles):
    """16x14 grid-6 sweeps of Basicmath and Quicksort, traced, with the
    dense smallest eigenvalue of every system PCG certified indefinite
    and the Rayleigh quotient of its witness."""
    pcg = ThermalOperator._pcg
    certificates = []

    def spy(self, matrix, *args, **kwargs):
        try:
            return pcg(self, matrix, *args, **kwargs)
        except IndefiniteSystemError as err:
            smallest = np.linalg.eigvalsh(matrix.toarray())[0]
            certificates.append((smallest, err.rayleigh_quotient))
            raise

    sweeps = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ThermalOperator, "_pcg", spy)
        for name in ("basicmath", "quicksort"):
            problem = build_cooling_problem(profiles[name],
                                            grid_resolution=6)
            certificates.clear()
            with telemetry_session() as (_tracer, metrics):
                surfaces = sweep_objective_surfaces(
                    problem, omega_points=16, current_points=14)
                counters = metrics.snapshot()["counters"]
            sweeps[name] = (surfaces, counters, list(certificates))
    return sweeps


class TestRunawayCertificate:
    """PCG's negative-curvature certificate ends a solve as runaway."""

    @pytest.mark.parametrize("name", ["basicmath", "quicksort"])
    def test_every_certificate_is_indefinite(self, certified_sweeps,
                                             name):
        _surfaces, _counters, certificates = certified_sweeps[name]
        assert certificates
        for smallest, quotient in certificates:
            # The Rayleigh quotient bounds the smallest eigenvalue.
            assert smallest <= quotient * (1.0 - 1e-9) < 0.0

    @pytest.mark.parametrize("name", ["basicmath", "quicksort"])
    def test_masks_match_the_recorded_sweep(self, certified_sweeps,
                                            name):
        surfaces, _counters, _certificates = certified_sweeps[name]
        recorded = json.loads(RECORDED_MASKS.read_text())[name]
        assert _mask(surfaces.runaway_mask) == recorded["runaway"]
        assert _mask(surfaces.feasible) == recorded["feasible"]

    @pytest.mark.parametrize("name", ["basicmath", "quicksort"])
    def test_runaway_counters_sum_to_runaway_points(self,
                                                    certified_sweeps,
                                                    name):
        surfaces, counters, certificates = certified_sweeps[name]
        causes = [counters.get(key, 0) for key in RUNAWAY_COUNTERS]
        assert sum(causes) == int(surfaces.runaway_mask.sum())
        assert causes[0] == len(certificates) > 0

    def test_verdict_carries_operating_point(self, heavy_tec_problem):
        # omega = 10 rad/s under Quicksort, warm from a bounded point at
        # 300 rad/s: the second Newton system is indefinite.
        problem = heavy_tec_problem
        context = SolveContext.for_model(problem.model)
        solve_steady_state(problem.model, 300.0, 0.0,
                           problem.dynamic_cell_power, problem.leakage,
                           context=context)
        held = context.krylov.factor
        with pytest.raises(IndefiniteSystemError) as excinfo:
            solve_steady_state(problem.model, 10.0, 0.0,
                               problem.dynamic_cell_power,
                               problem.leakage, context=context)
        assert "omega=10.0, I=0.00 (leakage iteration 2)" in \
            str(excinfo.value)
        assert excinfo.value.rayleigh_quotient < 0.0
        assert excinfo.value.max_temperature == float("inf")
        assert context.krylov.factor is held
