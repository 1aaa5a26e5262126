"""Multi-channel OFTEC: independently-driven TEC strings.

The paper wires every deployed TEC electrically in series, so one current
drives the whole die — hot units and lukewarm ones alike.  The natural
extension (in the spirit of its per-region deployment references [6][7])
is to split the array into a few independently-driven *channels* (e.g.
the integer core, the FP cluster, the load/store machinery) and let the
optimizer pick one current per channel plus the fan speed.

This module implements that extension end to end: channel assignment
from unit groups, the per-cell current synthesis, the (𝒯, 𝒫) evaluator,
and the SLSQP-based generalization of Algorithm 1 over ``1 + n_channels``
variables.  The single-channel case reduces exactly to the paper's
formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from ..errors import ConfigurationError, ThermalRunawayError
from ..obs.clock import stopwatch
from ..thermal import SolveContext, solve_steady_state
from .evaluator import runaway_penalty
from .problem import CoolingProblem


class ChannelAssignment:
    """Partition of the TEC-covered cells into driven channels."""

    def __init__(self, problem: CoolingProblem,
                 channel_units: Mapping[str, Sequence[str]]):
        """Build a channel map from named unit groups.

        Args:
            problem: A TEC-equipped cooling problem carrying a coverage.
            channel_units: ``{channel_name: [unit, ...]}``.  Every
                TEC-covered cell must belong to exactly one channel
                (cells of unlisted units join the implicit ``"rest"``
                channel).
        """
        if not problem.has_tec:
            raise ConfigurationError(
                "Channel assignment requires a TEC-equipped problem")
        if problem.coverage is None:
            raise ConfigurationError(
                "Channel assignment requires the problem's CellCoverage")
        if not channel_units:
            raise ConfigurationError("Need at least one channel")
        self.problem = problem
        coverage = problem.coverage
        mask = problem.model.tec_array.coverage_mask
        names = coverage.floorplan.unit_names

        claimed: Dict[str, str] = {}
        for channel, units in channel_units.items():
            for unit in units:
                if unit not in names:
                    raise ConfigurationError(
                        f"Channel {channel!r} references unknown unit "
                        f"{unit!r}")
                if unit in claimed:
                    raise ConfigurationError(
                        f"Unit {unit!r} assigned to both "
                        f"{claimed[unit]!r} and {channel!r}")
                claimed[unit] = channel

        self.channel_names: List[str] = list(channel_units)
        dominant = coverage.dominant_unit_per_cell()
        cell_channel = np.full(len(dominant), -1, dtype=int)
        needs_rest = False
        for cell, unit in enumerate(dominant):
            if not mask[cell]:
                continue
            channel = claimed.get(unit)
            if channel is None:
                needs_rest = True
            else:
                cell_channel[cell] = self.channel_names.index(channel)
        if needs_rest:
            if "rest" in self.channel_names:
                rest_index = self.channel_names.index("rest")
            else:
                self.channel_names.append("rest")
                rest_index = len(self.channel_names) - 1
            for cell, unit in enumerate(dominant):
                if mask[cell] and cell_channel[cell] < 0:
                    cell_channel[cell] = rest_index
        #: Per-cell channel index (-1 on cells without TEC modules).
        self.cell_channel = cell_channel

    @property
    def channel_count(self) -> int:
        """Number of channels (including the implicit rest channel)."""
        return len(self.channel_names)

    def cell_currents(self, channel_currents: Sequence[float],
                      ) -> np.ndarray:
        """Expand per-channel TEC currents, A, into the per-cell
        array."""
        currents = np.asarray(channel_currents, dtype=float)
        if currents.shape != (self.channel_count,):
            raise ConfigurationError(
                f"Expected {self.channel_count} channel currents, got "
                f"{currents.shape}")
        if (currents < 0.0).any():
            raise ConfigurationError("Channel currents must be >= 0")
        cell = np.zeros(self.cell_channel.size, dtype=float)
        covered = self.cell_channel >= 0
        cell[covered] = currents[self.cell_channel[covered]]
        return cell

    def channel_cell_counts(self) -> Dict[str, int]:
        """Number of covered cells per channel."""
        return {name: int((self.cell_channel == idx).sum())
                for idx, name in enumerate(self.channel_names)}


@dataclass
class MultiChannelEvaluation:
    """One evaluated multi-channel operating point."""

    omega: float
    channel_currents: np.ndarray
    max_chip_temperature: float
    total_power: float
    leakage_power: float
    tec_power: float
    fan_power: float
    feasible: bool
    runaway: bool


@dataclass
class MultiChannelResult:
    """Outcome of the multi-channel Algorithm 1 generalization.

    Attributes:
        omega_star: Optimal fan speed, rad/s.
        channel_currents: Optimal per-channel currents, A (in
            ``assignment.channel_names`` order).
        evaluation: Full evaluation at the optimum.
        feasible: Whether T_max is met.
        runtime_seconds: Wall-clock time of the optimization.
        evaluations: Thermal solves performed.
        channel_names: Channel labels, aligned with the currents.
    """

    omega_star: float
    channel_currents: np.ndarray
    evaluation: MultiChannelEvaluation
    feasible: bool
    runtime_seconds: float
    evaluations: int
    channel_names: List[str] = field(default_factory=list)

    @property
    def total_power(self) -> float:
        """𝒫 at the optimum, W."""
        return self.evaluation.total_power

    def currents_by_channel(self) -> Dict[str, float]:
        """``{channel: current}`` at the optimum."""
        return dict(zip(self.channel_names,
                        self.channel_currents.tolist()))


class MultiChannelEvaluator:
    """Caching oracle over ``(omega, I_1, ..., I_k)``."""

    def __init__(self, assignment: ChannelAssignment):
        self.assignment = assignment
        self.problem = assignment.problem
        self._cache: Dict[Tuple[float, ...], MultiChannelEvaluation] = {}
        self._context = SolveContext.for_model(self.problem.model)
        self.solve_count = 0

    def evaluate(self, omega: float, channel_currents: Sequence[float],
                 ) -> MultiChannelEvaluation:
        """Evaluate one operating point: fan speed omega, rad/s, and
        per-channel TEC currents, A (cached)."""
        problem = self.problem
        limits = problem.limits
        omega = float(np.clip(omega, 0.0, limits.omega_max))
        currents = np.clip(np.asarray(channel_currents, dtype=float),
                           0.0, limits.i_tec_max)
        key = (round(omega, 9),) + tuple(np.round(currents, 9).tolist())
        hit = self._cache.get(key)
        if hit is not None:
            return hit

        self.solve_count += 1
        fan_power = problem.fan.power(omega)
        cell_currents = self.assignment.cell_currents(currents)
        try:
            steady = solve_steady_state(
                problem.model, omega, cell_currents,
                problem.dynamic_cell_power, problem.leakage,
                sink_heat=problem.fan_heat_fraction * fan_power,
                context=self._context)
        except ThermalRunawayError as err:
            signal, penalty = runaway_penalty(
                problem.model.config.runaway_ceiling, err)
            result = MultiChannelEvaluation(
                omega=omega, channel_currents=currents,
                max_chip_temperature=signal, total_power=penalty,
                leakage_power=float("inf"), tec_power=0.0,
                fan_power=fan_power, feasible=False, runaway=True)
            self._cache[key] = result
            return result
        total = steady.leakage_power + steady.tec_power + fan_power
        result = MultiChannelEvaluation(
            omega=omega, channel_currents=currents,
            max_chip_temperature=steady.max_chip_temperature,
            total_power=total,
            leakage_power=steady.leakage_power,
            tec_power=steady.tec_power,
            fan_power=fan_power,
            feasible=steady.max_chip_temperature < limits.t_max,
            runaway=False)
        self._cache[key] = result
        return result


def run_oftec_multichannel(
    problem: CoolingProblem,
    channel_units: Mapping[str, Sequence[str]],
    max_iterations: int = 80,
) -> MultiChannelResult:
    """Algorithm 1 generalized to per-channel TEC currents.

    Stage 1 minimizes 𝒯 from the midpoint until a feasible point
    appears; stage 2 minimizes 𝒫 subject to ``𝒯 < T_max``, both with
    SLSQP over normalized ``(omega, I_1, ..., I_k)``.
    """
    watch = stopwatch()
    assignment = ChannelAssignment(problem, channel_units)
    evaluator = MultiChannelEvaluator(assignment)
    limits = problem.limits
    k = assignment.channel_count
    dims = 1 + k

    def to_physical(x: np.ndarray) -> Tuple[float, np.ndarray]:
        x = np.clip(x, 0.0, 1.0)
        return (float(x[0] * limits.omega_max),
                x[1:] * limits.i_tec_max)

    def temperature(x: np.ndarray) -> float:
        omega, currents = to_physical(x)
        return evaluator.evaluate(omega, currents).max_chip_temperature

    def power(x: np.ndarray) -> float:
        omega, currents = to_physical(x)
        return evaluator.evaluate(omega, currents).total_power

    def margin(x: np.ndarray) -> float:
        return limits.t_max - temperature(x)

    bounds = [(0.0, 1.0)] * dims
    x0 = np.full(dims, 0.5)

    best_feasible: Optional[np.ndarray] = None
    if temperature(x0) > limits.t_max:
        opt2 = minimize(temperature, x0, method="SLSQP", bounds=bounds,
                        options={"maxiter": max_iterations,
                                 "ftol": 1e-7, "eps": 1e-3})
        candidate = np.clip(opt2.x, 0.0, 1.0)
        if temperature(candidate) > limits.t_max:
            omega, currents = to_physical(candidate)
            evaluation = evaluator.evaluate(omega, currents)
            return MultiChannelResult(
                omega_star=evaluation.omega,
                channel_currents=evaluation.channel_currents,
                evaluation=evaluation, feasible=False,
                runtime_seconds=watch.elapsed,
                evaluations=evaluator.solve_count,
                channel_names=list(assignment.channel_names))
        best_feasible = candidate
    else:
        best_feasible = x0

    tracker: Dict[str, Optional[np.ndarray]] = {"x": None}
    tracker_power = [np.inf]

    def tracked_power(x: np.ndarray) -> float:
        value = power(x)
        if margin(x) > 0.0 and value < tracker_power[0]:
            tracker_power[0] = value
            tracker["x"] = np.array(x, dtype=float)
        return value

    opt1 = minimize(tracked_power, best_feasible, method="SLSQP",
                    bounds=bounds,
                    constraints=[{"type": "ineq", "fun": margin}],
                    options={"maxiter": max_iterations, "ftol": 1e-7,
                             "eps": 1e-3})
    x_final = np.clip(opt1.x, 0.0, 1.0)
    if margin(x_final) <= 0.0 and tracker["x"] is not None:
        x_final = tracker["x"]
    elif tracker["x"] is not None \
            and tracker_power[0] < power(x_final):
        x_final = tracker["x"]

    omega, currents = to_physical(x_final)
    evaluation = evaluator.evaluate(omega, currents)
    return MultiChannelResult(
        omega_star=evaluation.omega,
        channel_currents=evaluation.channel_currents,
        evaluation=evaluation,
        feasible=evaluation.feasible,
        runtime_seconds=watch.elapsed,
        evaluations=evaluator.solve_count,
        channel_names=list(assignment.channel_names))


#: A sensible default channel split for the EV6 die: the integer core,
#: the floating-point cluster, and everything else that carries TECs.
EV6_DEFAULT_CHANNELS: Dict[str, List[str]] = {
    "int-core": ["IntExec", "IntReg", "IntQ", "IntMap", "LdStQ"],
    "fp-cluster": ["FPAdd", "FPMul", "FPReg", "FPQ", "FPMap"],
}
