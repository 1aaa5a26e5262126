"""Baseline cooling controllers (Section 6.1).

The paper compares OFTEC against two baselines, and additionally argues
that a TEC-only system (no fan) cannot escape thermal runaway:

1. **Variable-omega**: no TECs, fan speed chosen "using a method similar
   to OFTEC with the difference that no TEC current is required to be
   found" — i.e. Algorithm 1 restricted to one variable.  The package
   uses the Section 6.1 fairness correction (TIM1 conductivity raised to
   the TIM1+TEC series value).
2. **Fixed-omega**: no TECs, fan pinned at 2000 RPM.
3. **TEC-only**: TECs present, fan off (natural convection only); the
   driving current is swept for the coolest achievable die.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..constants import OMEGA_FIXED_BASELINE
from ..errors import ConfigurationError, SolverError
from ..obs.clock import stopwatch
from .evaluator import Evaluation, Evaluator
from .oftec import OFTECResult, run_oftec
from .problem import CoolingProblem


@dataclass
class BaselineResult:
    """Outcome of a baseline controller on one workload.

    Attributes:
        problem_name: Workload label.
        controller: Baseline identifier ("variable-omega", "fixed-omega",
            or "tec-only").
        omega: Chosen fan speed, rad/s.
        current: Chosen TEC current, A (0 for the no-TEC baselines).
        evaluation: Evaluation at the chosen point.
        feasible: Whether the thermal constraint was met.
        runaway: True when every examined point was thermal runaway.
        runtime_seconds: Controller wall-clock time.
    """

    problem_name: str
    controller: str
    omega: float
    current: float
    evaluation: Evaluation
    feasible: bool
    runaway: bool
    runtime_seconds: float

    @property
    def total_power(self) -> float:
        """𝒫 at the chosen operating point, W."""
        return self.evaluation.total_power

    @property
    def max_chip_temperature(self) -> float:
        """𝒯 at the chosen operating point, K."""
        return self.evaluation.max_chip_temperature


def run_variable_fan_baseline(problem: CoolingProblem,
                              method: str = "slsqp",
                              evaluator: Optional[Evaluator] = None,
                              ) -> BaselineResult:
    """Baseline 1: optimize the fan speed of a no-TEC package."""
    if problem.has_tec:
        raise ConfigurationError(
            "Variable-omega baseline expects a no-TEC problem; build it "
            "with build_cooling_problem(..., with_tec=False)")
    result: OFTECResult = run_oftec(problem, method=method,
                                    evaluator=evaluator)
    return BaselineResult(
        problem_name=problem.name,
        controller="variable-omega",
        omega=result.omega_star,
        current=0.0,
        evaluation=result.evaluation,
        feasible=result.feasible,
        runaway=result.evaluation.runaway,
        runtime_seconds=result.runtime_seconds)


def run_fixed_fan_baseline(problem: CoolingProblem,
                           omega: float = OMEGA_FIXED_BASELINE,
                           evaluator: Optional[Evaluator] = None,
                           ) -> BaselineResult:
    """Baseline 2: a no-TEC package with the fan pinned (2000 RPM)."""
    if problem.has_tec:
        raise ConfigurationError(
            "Fixed-omega baseline expects a no-TEC problem; build it "
            "with build_cooling_problem(..., with_tec=False)")
    watch = stopwatch()
    evaluator = evaluator or Evaluator(problem)
    evaluation = evaluator.evaluate(omega, 0.0)
    return BaselineResult(
        problem_name=problem.name,
        controller="fixed-omega",
        omega=evaluation.omega,
        current=0.0,
        evaluation=evaluation,
        feasible=evaluation.feasible,
        runaway=evaluation.runaway,
        runtime_seconds=watch.elapsed)


def run_tec_only(problem: CoolingProblem,
                 current_samples: int = 21,
                 evaluator: Optional[Evaluator] = None) -> BaselineResult:
    """TEC-only system: fan off, sweep the current for the coolest die.

    The paper's Section 6.2 point: without forced convection there is
    nowhere for the pumped (and Joule) heat to go, so every current level
    ends in thermal runaway on realistic workloads.
    """
    if not problem.has_tec:
        raise ConfigurationError("TEC-only controller needs a TEC package")
    if current_samples < 2:
        raise ConfigurationError("current_samples must be >= 2")
    watch = stopwatch()
    evaluator = evaluator or Evaluator(problem)
    best: Optional[Evaluation] = None
    all_runaway = True
    for current in np.linspace(0.0, problem.current_upper_bound,
                               current_samples):
        evaluation = evaluator.evaluate(0.0, float(current))
        if not evaluation.runaway:
            all_runaway = False
        if best is None or (evaluation.max_chip_temperature
                            < best.max_chip_temperature):
            best = evaluation
    if best is None:
        raise SolverError(
            "TEC-only current sweep produced no evaluations")
    return BaselineResult(
        problem_name=problem.name,
        controller="tec-only",
        omega=0.0,
        current=best.current,
        evaluation=best,
        feasible=best.feasible,
        runaway=all_runaway,
        runtime_seconds=watch.elapsed)
