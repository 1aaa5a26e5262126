"""Online interval control over a live power trace.

Section 6.2 sketches OFTEC's deployment: its few-hundred-millisecond
runtime suits interval-based control, with a lookup table for immediate
decisions.  This module closes that loop: a controller observes the
workload's recent power profile at every control interval, picks an
``(omega, I_TEC)`` via a pluggable policy, and the package thermals are
integrated forward between decisions with the transient solver.

Built-in policies:

* :func:`static_policy` — one fixed operating point (e.g. worst-case
  OFTEC) applied forever;
* :func:`lut_policy` — nearest-representative lookup in a precomputed
  :class:`repro.core.LookupTableController`;
* :func:`reoptimize_policy` — run Algorithm 1 on every interval (the
  expensive oracle the LUT approximates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..power import PowerTrace
from ..thermal.transient import _march
from .lut import LookupTableController
from .oftec import run_oftec
from .problem import CoolingProblem

#: A control policy: observed per-unit powers -> (omega, I_TEC).
Policy = Callable[[Mapping[str, float]], Tuple[float, float]]


@dataclass
class IntervalDecision:
    """One control decision.

    Attributes:
        time: Decision instant, s.
        omega: Chosen fan speed, rad/s.
        current: Chosen TEC current, A.
    """

    time: float
    omega: float
    current: float


@dataclass
class OnlineControlResult:
    """Closed-loop trace of an interval controller.

    Attributes:
        times: Simulation sample times, s.
        max_chip_temperature: 𝒯(t), K.
        omega_trace: Applied fan speed per sample, rad/s.
        current_trace: Applied TEC current per sample, A.
        cooling_energy: Integral of (P_TEC + P_fan) over the run, J.
        violation_time: Total time spent above T_max, s.
        decisions: The per-interval decisions taken.
    """

    times: np.ndarray
    max_chip_temperature: np.ndarray
    omega_trace: np.ndarray
    current_trace: np.ndarray
    cooling_energy: float
    violation_time: float
    decisions: List[IntervalDecision] = field(default_factory=list)

    @property
    def peak_temperature(self) -> float:
        """Hottest sample, K."""
        return float(self.max_chip_temperature.max())


def static_policy(omega: float, current: float) -> Policy:
    """Always apply one fixed operating point: fan speed omega,
    rad/s, and TEC current, A."""
    def policy(_observed: Mapping[str, float]) -> Tuple[float, float]:
        return omega, current
    return policy


def lut_policy(table: LookupTableController) -> Policy:
    """Nearest-representative lookup (the paper's deployment idea)."""
    def policy(observed: Mapping[str, float]) -> Tuple[float, float]:
        omega, current, _entry = table.lookup(observed)
        return omega, current
    return policy


def reoptimize_policy(problem_template: CoolingProblem,
                      method: str = "slsqp") -> Policy:
    """Run Algorithm 1 on the observed profile at every interval."""
    def policy(observed: Mapping[str, float]) -> Tuple[float, float]:
        problem = problem_template.with_profile(dict(observed),
                                                name="interval")
        result = run_oftec(problem, method=method)
        return result.omega_star, result.current_star
    return policy


def run_online_controller(
    problem: CoolingProblem,
    trace: PowerTrace,
    policy: Policy,
    control_interval: float = 0.5,
    dt: float = 0.05,
    initial_temperatures: Optional[np.ndarray] = None,
) -> OnlineControlResult:
    """Drive the package through a power trace under a control policy.

    At each control-interval boundary the policy observes the trace's
    per-unit *maximum* over the upcoming interval (the same reduction
    OFTEC consumes offline) and fixes ``(omega, I)`` until the next
    boundary; the thermals integrate forward at step ``dt``
    (``control_interval`` and ``dt`` in s, ``initial_temperatures``
    in K).
    """
    if control_interval <= 0.0 or dt <= 0.0:
        raise ConfigurationError(
            "control_interval and dt must be positive")
    if dt > control_interval:
        raise ConfigurationError("dt must not exceed control_interval")
    if problem.coverage is None:
        raise ConfigurationError(
            "Online control requires the problem's CellCoverage")

    model = problem.model
    limits = problem.limits
    duration = trace.duration
    t_start = float(trace.times[0])
    cell_power_cache: Dict[int, np.ndarray] = {}

    def cell_power_at(t: float) -> np.ndarray:
        idx = int(np.searchsorted(trace.times, t, side="right") - 1)
        idx = min(max(idx, 0), trace.sample_count - 1)
        cached = cell_power_cache.get(idx)
        if cached is None:
            sample = dict(zip(trace.unit_names, trace.samples[idx]))
            cached = problem.coverage.power_map(sample)
            cell_power_cache[idx] = cached
        return cached

    decisions: List[IntervalDecision] = []
    omega, current, fan_power = 0.0, 0.0, 0.0
    next_decision = t_start

    def drive(t: float, _temps: np.ndarray):
        nonlocal omega, current, fan_power, next_decision
        if t - dt >= next_decision - 1e-12:
            window_end = min(next_decision + control_interval,
                             t_start + duration)
            window = trace.window(
                max(next_decision, float(trace.times[0])),
                max(window_end, float(trace.times[0]) + 1e-9))
            observed = window.max_profile().unit_power
            omega_raw, current_raw = policy(observed)
            omega = float(np.clip(omega_raw, 0.0, limits.omega_max))
            current = float(np.clip(current_raw, 0.0,
                                    problem.current_upper_bound))
            fan_power = problem.fan.power(omega)
            decisions.append(IntervalDecision(next_decision, omega,
                                              current))
            next_decision += control_interval
        return (omega, current, cell_power_at(t),
                problem.fan_heat_fraction * fan_power)

    times: List[float] = []
    temp_trace: List[float] = []
    omega_trace: List[float] = []
    current_trace: List[float] = []
    cooling_energy = 0.0
    violation_time = 0.0
    march = _march(model, dt, int(round(duration / dt)),
                   initial_temperatures, problem.leakage, drive, t_start)
    next(march)  # the initial state is not a sample
    for t, temps in march:
        hottest = float(model.chip_temperatures(temps).max())
        times.append(t)
        temp_trace.append(hottest)
        omega_trace.append(omega)
        current_trace.append(current)
        if hottest > limits.t_max:
            violation_time += dt
        tec_power = 0.0
        if model.tec_array is not None and current > 0.0:
            cold, hot = model.tec_face_temperatures(temps)
            tec_power = model.tec_array.total_power(cold, hot, current)
        cooling_energy += (fan_power + tec_power) * dt

    return OnlineControlResult(
        times=np.array(times),
        max_chip_temperature=np.array(temp_trace),
        omega_trace=np.array(omega_trace),
        current_trace=np.array(current_trace),
        cooling_energy=cooling_energy,
        violation_time=violation_time,
        decisions=decisions)
