"""Transient solver: settling, runaway trajectories, schedules."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

from repro.core import run_online_controller, run_threshold_controller, \
    static_policy
from repro.errors import ConfigurationError, IndefiniteSystemError
from repro.power import PowerTrace
from repro.thermal import (
    ThermalOperator,
    simulate_transient,
    solve_steady_state,
)

#: A runaway trajectory recorded with warm steps starting PCG from the
#: previous step's answer, against banded Cholesky factors.
RECORDED_RUNAWAY = Path(__file__).parent / "fixtures" \
    / "transient_runaway_res8.json"


class TestSettling:
    def test_settles_to_steady_state(self, tec_model, basicmath_power,
                                     leakage):
        steady = solve_steady_state(tec_model, 262.0, 0.5,
                                    basicmath_power, leakage)
        transient = simulate_transient(
            tec_model, duration=60.0, dt=0.5, omega=262.0, current=0.5,
            dynamic_cell_power=basicmath_power, leakage=leakage)
        assert not transient.runaway
        assert transient.settled_temperature == pytest.approx(
            steady.max_chip_temperature, abs=0.5)

    def test_monotone_warmup_from_ambient(self, tec_model,
                                          basicmath_power, leakage):
        transient = simulate_transient(
            tec_model, duration=10.0, dt=0.25, omega=262.0, current=0.0,
            dynamic_cell_power=basicmath_power, leakage=leakage)
        trace = transient.max_chip_temperature
        assert (np.diff(trace) > -1e-6).all()

    def test_starts_at_ambient(self, tec_model, basicmath_power,
                               leakage):
        transient = simulate_transient(
            tec_model, duration=1.0, dt=0.5, omega=262.0, current=0.0,
            dynamic_cell_power=basicmath_power, leakage=leakage)
        assert transient.max_chip_temperature[0] == pytest.approx(
            tec_model.config.ambient)

    def test_initial_temperatures_respected(self, tec_model,
                                            basicmath_power, leakage):
        n = tec_model.network.node_count
        start = np.full(n, 350.0)
        transient = simulate_transient(
            tec_model, duration=1.0, dt=0.5, omega=262.0, current=0.0,
            dynamic_cell_power=basicmath_power, leakage=leakage,
            initial_temperatures=start)
        assert transient.max_chip_temperature[0] == pytest.approx(350.0)

    def test_leakage_trace_tracks_temperature(self, tec_model,
                                              basicmath_power, leakage):
        transient = simulate_transient(
            tec_model, duration=20.0, dt=0.5, omega=262.0, current=0.0,
            dynamic_cell_power=basicmath_power, leakage=leakage)
        # Leakage grows as the die warms.
        assert transient.leakage_power[-1] > transient.leakage_power[1]


class TestRunawayTrajectory:
    def test_runaway_detected_and_timed(self, tec_model, quicksort_power,
                                        leakage):
        transient = simulate_transient(
            tec_model, duration=2000.0, dt=5.0, omega=0.0, current=0.0,
            dynamic_cell_power=quicksort_power, leakage=leakage)
        assert transient.runaway
        assert transient.runaway_time is not None
        assert transient.runaway_time <= 2000.0

    def test_certified_steps_keep_the_recorded_trajectory(
            self, tec_model, quicksort_power, leakage, monkeypatch):
        # PCG proves some of these steps' systems indefinite; the loop
        # then factors that step fresh, exactly as when every breakdown
        # did, and the recorded trajectory holds bit for bit.
        certificates = []
        pcg = ThermalOperator._pcg

        def spy(self, *args, **kwargs):
            try:
                return pcg(self, *args, **kwargs)
            except IndefiniteSystemError as err:
                certificates.append(err)
                raise

        monkeypatch.setattr(ThermalOperator, "_pcg", spy)
        # Every step the loop takes agrees with the direct solve of its
        # own system, so the recorded bits are a right trajectory.
        network = tec_model.network
        solve = network.solve
        errors = []

        def audited(overlay, rhs, warm=None, **kwargs):
            temps = solve(overlay, rhs, warm, **kwargs)
            direct = spsolve((network.static_matrix
                              + diags(overlay, format="csr")).tocsc(), rhs)
            errors.append(float(np.abs(temps - direct).max())
                          / max(1.0, float(np.abs(direct).max())))
            return temps

        monkeypatch.setattr(network, "solve", audited)
        transient = simulate_transient(
            tec_model, duration=2000.0, dt=5.0, omega=0.0, current=0.0,
            dynamic_cell_power=quicksort_power, leakage=leakage)
        assert certificates
        assert len(errors) == len(transient.times) - 1
        assert max(errors) <= 1e-12
        recorded = json.loads(RECORDED_RUNAWAY.read_text())
        assert transient.runaway
        assert transient.runaway_time == recorded["runaway_time"]
        for key in ("times", "max_chip_temperature",
                    "mean_chip_temperature", "leakage_power",
                    "final_temperatures"):
            assert [float(value).hex() for value in getattr(
                transient, key)] == recorded[key], key

    def test_no_runaway_with_fan(self, tec_model, quicksort_power,
                                 leakage):
        transient = simulate_transient(
            tec_model, duration=60.0, dt=1.0, omega=400.0, current=0.0,
            dynamic_cell_power=quicksort_power, leakage=leakage)
        assert not transient.runaway


class TestSchedules:
    def test_time_varying_current(self, tec_model, basicmath_power,
                                  leakage):
        # Boost for the first second, then settle lower.
        def current(t):
            return 2.0 if t <= 1.0 else 0.5

        transient = simulate_transient(
            tec_model, duration=5.0, dt=0.25, omega=262.0,
            current=current, dynamic_cell_power=basicmath_power,
            leakage=leakage)
        assert not transient.runaway

    def test_power_step_schedule(self, tec_model, basicmath_power,
                                 quicksort_power, leakage):
        def power(t):
            return basicmath_power if t <= 5.0 else quicksort_power

        transient = simulate_transient(
            tec_model, duration=10.0, dt=0.5, omega=400.0, current=0.5,
            dynamic_cell_power=power, leakage=leakage)
        # The power step must heat the die.
        mid = len(transient.times) // 2
        assert transient.max_chip_temperature[-1] > \
            transient.max_chip_temperature[mid] - 0.1

    def test_fan_step_cools(self, tec_model, quicksort_power, leakage):
        # Let each fan phase run long enough to approach its own steady
        # state; the high-speed phase must end cooler than the low-speed
        # phase's endpoint.
        def omega(t):
            return 150.0 if t <= 120.0 else 500.0

        transient = simulate_transient(
            tec_model, duration=300.0, dt=2.0, omega=omega, current=0.0,
            dynamic_cell_power=quicksort_power, leakage=leakage)
        idx_before = int(120.0 / 2.0)
        assert transient.max_chip_temperature[-1] < \
            transient.max_chip_temperature[idx_before]

    @pytest.mark.parametrize("controller", ["online-static",
                                            "threshold-never-on"])
    def test_controllers_step_the_same_loop(self, tec_problem, profiles,
                                            controller):
        # A controller whose decision never changes is the plain
        # transient at that operating point, sample for sample (the
        # online trace has no t = 0 sample).
        problem, omega, dt = tec_problem, 300.0, 0.1
        unit_power = profiles["basicmath"].as_dict()
        if controller == "online-static":
            current = 0.5
            times = np.linspace(0.0, 2.0, 41)
            trace = PowerTrace("constant", list(unit_power), times,
                               np.tile(list(unit_power.values()),
                                       (times.size, 1)))
            result = run_online_controller(
                problem, trace, static_policy(omega, current),
                control_interval=0.5, dt=dt)
            first = 1
        else:
            current = 0.0
            result = run_threshold_controller(
                problem, omega, on_current=1.5, threshold=450.0,
                duration=2.0, dt=dt)
            assert result.switch_count == 0
            first = 0
        transient = simulate_transient(
            problem.model, duration=2.0, dt=dt, omega=omega,
            current=current,
            dynamic_cell_power=problem.coverage.power_map(unit_power),
            leakage=problem.leakage,
            sink_heat=problem.fan_heat_fraction * problem.fan.power(omega))
        assert np.array_equal(result.times, transient.times[first:])
        assert np.array_equal(result.max_chip_temperature,
                              transient.max_chip_temperature[first:])


class TestValidation:
    def test_bad_duration(self, tec_model, basicmath_power):
        with pytest.raises(ConfigurationError):
            simulate_transient(tec_model, duration=0.0, dt=0.1,
                               omega=262.0, current=0.0,
                               dynamic_cell_power=basicmath_power)

    def test_dt_exceeds_duration(self, tec_model, basicmath_power):
        with pytest.raises(ConfigurationError):
            simulate_transient(tec_model, duration=1.0, dt=2.0,
                               omega=262.0, current=0.0,
                               dynamic_cell_power=basicmath_power)

    def test_bad_initial_shape(self, tec_model, basicmath_power):
        with pytest.raises(ConfigurationError):
            simulate_transient(tec_model, duration=1.0, dt=0.5,
                               omega=262.0, current=0.0,
                               dynamic_cell_power=basicmath_power,
                               initial_temperatures=np.zeros(3))
