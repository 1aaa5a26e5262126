"""The cooling-power optimization problem (Section 5.1).

:class:`CoolingProblem` is the fully-assembled instance: thermal model,
leakage model, one workload's dynamic power map, the fan power law, and
the limits (T_max, omega_max, I_TEC,max).  :func:`build_cooling_problem`
is the one-stop constructor that performs the whole Figure 5 flow — EV6
floorplan, Table 1 stack, TEC deployment over everything but the caches,
McPAT-substitute leakage calibration — and returns a ready problem for a
benchmark profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from ..constants import I_TEC_MAX, OMEGA_MAX, T_MAX
from ..errors import ConfigurationError
from ..fan import FanModel, HeatSinkFanConductance
from ..geometry import (
    CellCoverage,
    EV6_CACHE_UNITS,
    Floorplan,
    Grid,
    alpha21264_floorplan,
)
from ..leakage import CellLeakageModel, UnitLeakageSpec, build_cell_leakage
from ..leakage.calibrate import (
    calibrate_from_samples,
    mcpat_substitute_samples,
)
from ..materials import (
    PackageStack,
    baseline_package_stack,
    default_package_stack,
)
from ..power import BenchmarkProfile
from ..tec import TECArray, TECDevice, coverage_mask_excluding, \
    default_tec_device
from ..thermal import PackageModelConfig, PackageThermalModel, \
    build_package_model


@dataclass(frozen=True)
class ProblemLimits:
    """Optimization bounds and the thermal constraint (Section 6.1).

    Attributes:
        t_max: Maximum allowed chip temperature, K (Constraint 15).
        omega_max: Fan speed upper bound, rad/s (Constraint 16).
        i_tec_max: TEC current upper bound, A (Constraint 17).
    """

    t_max: float = T_MAX
    omega_max: float = OMEGA_MAX
    i_tec_max: float = I_TEC_MAX

    def __post_init__(self) -> None:
        if self.t_max <= 0.0:
            raise ConfigurationError("t_max must be in kelvin (> 0)")
        if self.omega_max <= 0.0:
            raise ConfigurationError("omega_max must be positive")
        if self.i_tec_max < 0.0:
            raise ConfigurationError("i_tec_max must be >= 0")


class CoolingProblem:
    """One workload's cooling optimization instance.

    Attributes:
        name: Workload label (benchmark name).
        model: Assembled package thermal model (with or without TECs).
        leakage: Chip leakage model.
        fan: Fan power law.
        dynamic_cell_power: Per-chip-cell maximum dynamic power, W.
        limits: Bounds and the thermal threshold.
        coverage: Unit/cell mapping (for reporting unit temperatures).
    """

    def __init__(self, name: str, model: PackageThermalModel,
                 leakage: CellLeakageModel, fan: FanModel,
                 dynamic_cell_power: np.ndarray,
                 limits: Optional[ProblemLimits] = None,
                 coverage: Optional[CellCoverage] = None,
                 fan_heat_fraction: float = 0.3):
        if not (0.0 <= fan_heat_fraction <= 1.0):
            raise ConfigurationError(
                f"fan_heat_fraction must be in [0, 1], got "
                f"{fan_heat_fraction}")
        self.name = name
        #: Share of fan electrical power recirculated onto the sink as
        #: heat (motor losses + air friction warming the intake stream).
        self.fan_heat_fraction = fan_heat_fraction
        self.model = model
        self.leakage = leakage
        self.fan = fan
        self.limits = limits or ProblemLimits()
        self.coverage = coverage
        power = np.asarray(dynamic_cell_power, dtype=float)
        if power.shape != (model.grid.cell_count,):
            raise ConfigurationError(
                f"dynamic_cell_power must have shape "
                f"({model.grid.cell_count},), got {power.shape}")
        if (power < 0.0).any():
            raise ConfigurationError("dynamic_cell_power must be >= 0")
        if leakage is None:
            raise ConfigurationError(
                "CoolingProblem requires a leakage model: every OFTEC "
                "evaluation relinearizes leakage (Eq. 4)")
        if leakage.cell_count != model.grid.cell_count:
            raise ConfigurationError(
                "Leakage model cell count does not match the grid")
        self._dynamic_cell_power = power
        if self.fan.omega_max != self.limits.omega_max:
            # Keep a single source of truth for the fan bound.
            self.fan = FanModel(fan.power_constant, self.limits.omega_max)
        self._baseline_i_max = 0.0 if model.tec_array is None \
            else self.limits.i_tec_max

    @property
    def has_tec(self) -> bool:
        """True when the problem's package includes a TEC array."""
        return self.model.tec_array is not None

    @property
    def current_upper_bound(self) -> float:
        """Effective TEC-current bound (0 for no-TEC packages)."""
        return self._baseline_i_max

    @property
    def total_dynamic_power(self) -> float:
        """Total chip dynamic power, W."""
        return float(self.dynamic_cell_power.sum())

    @property
    def dynamic_cell_power(self) -> np.ndarray:
        """Per-chip-cell maximum dynamic power, W (validated copy)."""
        return self._dynamic_cell_power

    def with_profile(self, profile: Union[BenchmarkProfile,
                                          Mapping[str, float]],
                     name: Optional[str] = None) -> "CoolingProblem":
        """New problem sharing this package but with another workload."""
        if self.coverage is None:
            raise ConfigurationError(
                "with_profile requires the problem to carry a CellCoverage")
        unit_power = profile.as_dict() \
            if isinstance(profile, BenchmarkProfile) else dict(profile)
        power_map = self.coverage.power_map(unit_power)
        label = name or (profile.name
                         if isinstance(profile, BenchmarkProfile)
                         else self.name)
        return CoolingProblem(label, self.model, self.leakage, self.fan,
                              power_map, self.limits, self.coverage,
                              self.fan_heat_fraction)


def build_cooling_problem(
    profile: Union[BenchmarkProfile, Mapping[str, float]],
    name: Optional[str] = None,
    with_tec: bool = True,
    floorplan: Optional[Floorplan] = None,
    grid_resolution: int = 16,
    stack: Optional[PackageStack] = None,
    tec_device: Optional[TECDevice] = None,
    tec_coverage_mask: Optional[np.ndarray] = None,
    sink_conductance: Optional[HeatSinkFanConductance] = None,
    fan: Optional[FanModel] = None,
    limits: Optional[ProblemLimits] = None,
    model_config: Optional[PackageModelConfig] = None,
    leakage: Optional[CellLeakageModel] = None,
) -> CoolingProblem:
    """Assemble the full Figure 5 evaluation flow for one workload.

    Defaults reproduce the paper's setup: EV6 floorplan on the Table 1
    stack, TECs tiling everything except the I/D caches, Equation (9)
    sink conductance, the 1.6e-7 W*s^3 fan, and McPAT-substitute leakage.

    Args:
        profile: Per-unit maximum dynamic power (a benchmark profile or a
            plain mapping).
        name: Workload label; defaults to the profile's name.
        with_tec: False builds the no-TEC baseline package, with the
            Section 6.1 TIM1 fairness correction applied.
        floorplan: Die floorplan; defaults to the EV6.
        grid_resolution: Cells per die edge (grid is resolution^2).
        stack: Package stack override.
        tec_device: TEC module type override.
        tec_coverage_mask: TEC deployment mask override; defaults to
            everything except the caches.
        sink_conductance: Equation (9) parameter override.
        fan: Fan model override.
        limits: Bounds/threshold override.
        model_config: Thermal model knobs override.
        leakage: Pre-built leakage model (skips McPAT-substitute
            calibration).
    """
    if grid_resolution < 2:
        raise ConfigurationError("grid_resolution must be >= 2")
    floorplan = floorplan or alpha21264_floorplan()
    grid = Grid.for_floorplan(floorplan, grid_resolution, grid_resolution)
    coverage = CellCoverage(floorplan, grid)
    limits = limits or ProblemLimits()

    box = floorplan.bounding_box
    if with_tec:
        stack = stack or default_package_stack(box.width, box.height)
        device = tec_device or default_tec_device()
        if tec_coverage_mask is None:
            exclusions = [u for u in EV6_CACHE_UNITS if u in floorplan]
            tec_coverage_mask = coverage_mask_excluding(coverage, exclusions)
        tec_array = TECArray(grid, device, tec_coverage_mask)
    else:
        stack = stack or baseline_package_stack(box.width, box.height)
        tec_array = None
        if stack.has_tec:
            raise ConfigurationError(
                "with_tec=False requires a stack without a TEC layer")

    model = build_package_model(stack, grid,
                                sink_conductance=sink_conductance,
                                tec_array=tec_array, config=model_config)

    if leakage is None:
        samples = mcpat_substitute_samples(floorplan)
        calibration = calibrate_from_samples(samples)
        leakage = build_cell_leakage(
            coverage,
            [UnitLeakageSpec(unit, power)
             for unit, power in calibration.unit_nominal.items()],
            calibration.beta, calibration.t_nominal)

    unit_power = profile.as_dict() \
        if isinstance(profile, BenchmarkProfile) else dict(profile)
    power_map = coverage.power_map(unit_power)
    label = name or (profile.name
                     if isinstance(profile, BenchmarkProfile)
                     else "workload")
    fan = fan or FanModel(omega_max=limits.omega_max)
    return CoolingProblem(label, model, leakage, fan, power_map, limits,
                          coverage)
