"""Threshold and hysteresis TEC controllers (reference [5] of the paper).

These are the "simple controllers" the related work proposes and the
paper's Section 3 critiques: the TEC string is driven at a constant
current that is switched on and off by die-temperature comparisons.

* **Threshold controller** — TECs on above ``t_on``, off below it.
* **Hysteresis controller** — on above ``t_on``, off only below a lower
  ``t_off``, reducing the on/off switching rate (each transition stresses
  the devices).

Both run closed-loop on the transient solver's backward-Euler loop:
temperature feedback from step ``n`` decides the current applied during
step ``n+1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..thermal.transient import _march
from .problem import CoolingProblem


@dataclass
class ThresholdControllerResult:
    """Closed-loop trace of a threshold-style controller.

    Attributes:
        times: Sample times, s.
        max_chip_temperature: 𝒯(t), K.
        current: Applied TEC current per step, A.
        switch_count: Number of on/off transitions.
        duty_cycle: Fraction of steps with the TEC on.
        runaway: True if the runaway ceiling was crossed.
    """

    times: np.ndarray
    max_chip_temperature: np.ndarray
    current: np.ndarray
    switch_count: int
    duty_cycle: float
    runaway: bool

    @property
    def peak_temperature(self) -> float:
        """Highest 𝒯 sample, K."""
        return float(self.max_chip_temperature.max())


def _run_switched_controller(
    problem: CoolingProblem,
    omega: float,
    on_current: float,
    duration: float,
    dt: float,
    t_on: float,
    t_off: float,
    initial_temperatures: Optional[np.ndarray] = None,
) -> ThresholdControllerResult:
    """Shared closed-loop simulation for both controller flavors."""
    if not problem.has_tec:
        raise ConfigurationError("Switched controllers need a TEC package")
    if duration <= 0.0 or dt <= 0.0 or dt > duration:
        raise ConfigurationError("Require 0 < dt <= duration")
    if t_off > t_on:
        raise ConfigurationError("t_off must not exceed t_on")
    if not (0.0 <= on_current <= problem.limits.i_tec_max):
        raise ConfigurationError(
            f"on_current must lie in [0, {problem.limits.i_tec_max}]")

    model = problem.model
    fan_heat = problem.fan_heat_fraction * problem.fan.power(omega)
    steps = int(round(duration / dt))
    tec_on = False
    current = 0.0
    switches = 0
    on_steps = 0

    def drive(_t: float, temps: np.ndarray):
        nonlocal tec_on, current, switches, on_steps
        hottest = float(model.chip_temperatures(temps).max())
        was_on = tec_on
        if hottest > t_on:
            tec_on = True
        elif hottest < t_off:
            tec_on = False
        if tec_on != was_on:
            switches += 1
        current = on_current if tec_on else 0.0
        if tec_on:
            on_steps += 1
        return omega, current, problem.dynamic_cell_power, fan_heat

    times: List[float] = []
    trace_t: List[float] = []
    trace_i: List[float] = []
    runaway = False
    for t, temps in _march(model, dt, steps, initial_temperatures,
                           problem.leakage, drive):
        times.append(t)
        trace_t.append(float(model.chip_temperatures(temps).max()))
        trace_i.append(current)
        if t > 0.0 and float(temps.max()) > model.config.runaway_ceiling:
            runaway = True
            break

    return ThresholdControllerResult(
        times=np.array(times),
        max_chip_temperature=np.array(trace_t),
        current=np.array(trace_i),
        switch_count=switches,
        duty_cycle=on_steps / max(steps, 1),
        runaway=runaway)


def run_threshold_controller(
    problem: CoolingProblem,
    omega: float,
    on_current: float,
    threshold: float,
    duration: float = 20.0,
    dt: float = 0.05,
    initial_temperatures: Optional[np.ndarray] = None,
) -> ThresholdControllerResult:
    """Single-threshold on/off TEC control (ref [5], controller 1).

    Fan speed ``omega`` in rad/s, switched current ``on_current`` in A,
    ``threshold`` and ``initial_temperatures`` in K, ``duration`` and
    ``dt`` in s.
    """
    return _run_switched_controller(
        problem, omega, on_current, duration, dt,
        t_on=threshold, t_off=threshold,
        initial_temperatures=initial_temperatures)


def run_hysteresis_controller(
    problem: CoolingProblem,
    omega: float,
    on_current: float,
    t_on: float,
    t_off: float,
    duration: float = 20.0,
    dt: float = 0.05,
    initial_temperatures: Optional[np.ndarray] = None,
) -> ThresholdControllerResult:
    """Two-threshold hysteresis TEC control (ref [5], controller 2).

    Fan speed ``omega`` in rad/s, switched current ``on_current`` in A,
    ``t_on``/``t_off`` and ``initial_temperatures`` in K, ``duration``
    and ``dt`` in s.
    """
    return _run_switched_controller(
        problem, omega, on_current, duration, dt,
        t_on=t_on, t_off=t_off,
        initial_temperatures=initial_temperatures)
