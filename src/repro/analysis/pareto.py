"""Power/temperature Pareto frontier of the hybrid cooling system.

Optimizations 1 and 2 are the two ends of a trade-off: how much cooling
power does each degree of die-temperature headroom cost?  Sweeping the
thermal threshold through the reachable range and running Optimization 1
at each point traces the full frontier — useful for choosing T_max
budgets and for quantifying the marginal value of the TECs (the no-TEC
frontier sits strictly above the hybrid one and ends earlier).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core import (
    CoolingProblem,
    Evaluator,
    ProblemLimits,
    minimize_power,
    minimize_temperature,
)
from ..errors import ConfigurationError


@dataclass
class ParetoPoint:
    """One frontier point.

    Attributes:
        t_max: The thermal threshold imposed, K.
        achieved_temperature: 𝒯 at the power-optimal point, K.
        total_power: 𝒫 at that point, W.
        omega: Operating fan speed, rad/s.
        current: Operating TEC current, A.
    """

    t_max: float
    achieved_temperature: float
    total_power: float
    omega: float
    current: float


@dataclass
class ParetoFrontier:
    """The swept frontier plus its boundary anchors.

    Attributes:
        points: Frontier points, coolest threshold first.
        coolest_temperature: The Optimization 2 optimum (the left end of
            the reachable range), K.
        problem_name: Workload label.
    """

    points: List[ParetoPoint]
    coolest_temperature: float
    problem_name: str

    @property
    def temperatures(self) -> np.ndarray:
        """Achieved temperatures along the frontier, K."""
        return np.array([p.achieved_temperature for p in self.points])

    @property
    def powers(self) -> np.ndarray:
        """Total powers along the frontier, W."""
        return np.array([p.total_power for p in self.points])

    def power_at(self, t_max: float) -> float:
        """Interpolated frontier power at a threshold, W."""
        if not self.points:
            raise ConfigurationError("Empty frontier")
        temps = np.array([p.t_max for p in self.points])
        powers = self.powers
        order = np.argsort(temps)
        return float(np.interp(t_max, temps[order], powers[order]))

    def marginal_power_per_kelvin(self) -> np.ndarray:
        """Frontier slope: watts saved per kelvin of headroom granted."""
        if len(self.points) < 2:
            raise ConfigurationError(
                "Need at least two frontier points for a slope")
        temps = np.array([p.t_max for p in self.points])
        return np.gradient(self.powers, temps)


def trace_pareto_frontier(
    problem: CoolingProblem,
    points: int = 8,
    t_max_range: Optional[tuple] = None,
    method: str = "slsqp",
) -> ParetoFrontier:
    """Sweep T_max and run Optimization 1 at each threshold.

    Args:
        problem: The workload (TEC or baseline package).
        points: Number of frontier samples.
        t_max_range: ``(low, high)`` in kelvin; defaults to
            [Optimization 2 optimum + 1 K, the problem's T_max].
        method: Solver backend.
    """
    if points < 2:
        raise ConfigurationError("Need at least two frontier points")
    base_evaluator = Evaluator(problem)
    coolest = minimize_temperature(base_evaluator, method=method)
    t_low_default = coolest.evaluation.max_chip_temperature + 1.0
    if t_max_range is None:
        t_low, t_high = t_low_default, problem.limits.t_max
    else:
        t_low, t_high = t_max_range
    if t_high <= t_low:
        raise ConfigurationError(
            f"Empty threshold range [{t_low:.1f}, {t_high:.1f}] K; the "
            "workload may already saturate its T_max")

    frontier: List[ParetoPoint] = []
    for t_max in np.linspace(t_low, t_high, points):
        limits = ProblemLimits(t_max=float(t_max),
                               omega_max=problem.limits.omega_max,
                               i_tec_max=problem.limits.i_tec_max)
        sub_problem = CoolingProblem(
            problem.name, problem.model, problem.leakage, problem.fan,
            problem.dynamic_cell_power, limits, problem.coverage,
            problem.fan_heat_fraction)
        evaluator = Evaluator(sub_problem)
        start = minimize_temperature(
            evaluator, method=method, early_stop_below=float(t_max))
        if start.evaluation.max_chip_temperature > t_max:
            continue  # threshold below the reachable floor
        outcome = minimize_power(
            evaluator, x0=(start.omega, start.current), method=method)
        evaluation = outcome.evaluation
        frontier.append(ParetoPoint(
            t_max=float(t_max),
            achieved_temperature=evaluation.max_chip_temperature,
            total_power=evaluation.total_power,
            omega=evaluation.omega,
            current=evaluation.current))
    return ParetoFrontier(points=frontier,
                          coolest_temperature=coolest.evaluation
                          .max_chip_temperature,
                          problem_name=problem.name)
