"""CoolingProblem assembly and the high-level builder."""

import numpy as np
import pytest

from repro import build_cooling_problem, mibench_profiles
from repro.core import ProblemLimits
from repro.errors import ConfigurationError
from repro.materials import default_package_stack


class TestProblemLimits:
    def test_paper_defaults(self):
        limits = ProblemLimits()
        assert limits.t_max == pytest.approx(363.15)
        assert limits.omega_max == pytest.approx(524.0)
        assert limits.i_tec_max == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ProblemLimits(t_max=-1.0)
        with pytest.raises(ConfigurationError):
            ProblemLimits(omega_max=0.0)
        with pytest.raises(ConfigurationError):
            ProblemLimits(i_tec_max=-1.0)


class TestBuilder:
    def test_tec_problem(self, tec_problem):
        assert tec_problem.has_tec
        assert tec_problem.current_upper_bound == pytest.approx(5.0)
        assert tec_problem.name == "basicmath"

    def test_baseline_problem(self, baseline_problem):
        assert not baseline_problem.has_tec
        assert baseline_problem.current_upper_bound == 0.0

    def test_power_map_conserved(self, tec_problem, profiles):
        assert tec_problem.total_dynamic_power == pytest.approx(
            profiles["basicmath"].total_power)

    def test_caches_uncovered_by_default(self, tec_problem):
        array = tec_problem.model.tec_array
        coverage = tec_problem.coverage
        summary = array.coverage_summary(coverage)
        assert summary["Icache"] == 0.0
        assert summary["Dcache"] == 0.0
        assert summary["IntExec"] == 1.0

    def test_plain_mapping_accepted(self):
        problem = build_cooling_problem(
            {"IntExec": 10.0, "L2": 5.0}, name="custom",
            grid_resolution=4)
        assert problem.name == "custom"
        assert problem.total_dynamic_power == pytest.approx(15.0)

    def test_grid_resolution_too_small(self, profiles):
        with pytest.raises(ConfigurationError):
            build_cooling_problem(profiles["fft"], grid_resolution=1)

    def test_tec_stack_with_no_tec_flag_rejected(self, profiles):
        with pytest.raises(ConfigurationError):
            build_cooling_problem(profiles["fft"], with_tec=False,
                                  stack=default_package_stack(),
                                  grid_resolution=4)

    def test_custom_limits_propagate(self, profiles):
        limits = ProblemLimits(t_max=353.15, omega_max=400.0,
                               i_tec_max=3.0)
        problem = build_cooling_problem(profiles["crc32"], limits=limits,
                                        grid_resolution=4)
        assert problem.limits.t_max == pytest.approx(353.15)
        assert problem.fan.omega_max == pytest.approx(400.0)
        assert problem.current_upper_bound == pytest.approx(3.0)


class TestWithProfile:
    def test_shares_model(self, tec_problem, profiles):
        other = tec_problem.with_profile(profiles["fft"])
        assert other.model is tec_problem.model
        assert other.leakage is tec_problem.leakage
        assert other.name == "fft"
        assert other.total_dynamic_power == pytest.approx(
            profiles["fft"].total_power)

    def test_explicit_name(self, tec_problem, profiles):
        other = tec_problem.with_profile(profiles["fft"], name="label")
        assert other.name == "label"

    def test_mapping_profile(self, tec_problem):
        other = tec_problem.with_profile({"IntExec": 30.0},
                                         name="hotspot")
        assert other.total_dynamic_power == pytest.approx(30.0)


class TestValidation:
    def test_power_shape_checked(self, tec_problem):
        from repro.core import CoolingProblem
        with pytest.raises(ConfigurationError):
            CoolingProblem("x", tec_problem.model, tec_problem.leakage,
                           tec_problem.fan, np.zeros(3))

    def test_negative_power_rejected(self, tec_problem, grid):
        from repro.core import CoolingProblem
        power = np.zeros(grid.cell_count)
        power[0] = -1.0
        with pytest.raises(ConfigurationError):
            CoolingProblem("x", tec_problem.model, tec_problem.leakage,
                           tec_problem.fan, power)

    def test_fan_heat_fraction_bounds(self, tec_problem, grid):
        from repro.core import CoolingProblem
        with pytest.raises(ConfigurationError):
            CoolingProblem("x", tec_problem.model, tec_problem.leakage,
                           tec_problem.fan, np.zeros(grid.cell_count),
                           fan_heat_fraction=1.5)

    def test_missing_leakage_model_rejected(self, tec_problem, grid):
        from repro.core import CoolingProblem
        with pytest.raises(ConfigurationError, match="leakage model"):
            CoolingProblem("x", tec_problem.model, None, tec_problem.fan,
                           np.zeros(grid.cell_count))
