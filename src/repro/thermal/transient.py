"""Transient thermal simulation (backward Euler).

The paper's analysis is steady-state, but two of its discussion points are
inherently transient: the thermal-runaway trajectory at insufficient
cooling, and the transient TEC boost of Section 6.2 ("increase I*_TEC by
about 1 A for 1 s" — the Peltier effect acts immediately while Joule
heating arrives with the thermal time constant).  This solver supports
both, plus the threshold/hysteresis controllers from the related work and
the online interval controller: all four step through one loop,
:func:`_march`, and differ only in how they choose each step's operating
point and what they record.

Discretization: ``C dT/dt = P - G T`` stepped implicitly as

    (C/dt + G + D_n) T_{n+1} = (C/dt) T_n + rhs_n

with the leakage Taylor expansion and the operating point (omega, I)
refreshed at every step (semi-implicit in the nonlinear terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConfigurationError, IndefiniteSystemError
from ..leakage import CellLeakageModel, tangent_linearization
from .assembly import PackageThermalModel
from .operator import KrylovState

ScalarSchedule = Union[float, Callable[[float], float]]
PowerSchedule = Union[np.ndarray, Callable[[float], np.ndarray]]
#: One step's operating point from (t in s, previous temperatures in K):
#: (omega rad/s, TEC current A, dynamic cell power W, sink heat W).
Drive = Callable[[float, np.ndarray],
                 Tuple[float, float, np.ndarray, float]]


@dataclass
class TransientResult:
    """Time series produced by :func:`simulate_transient`.

    Attributes:
        times: Sample times, s (length = steps + 1, including t = 0).
        max_chip_temperature: 𝒯(t) trace, K.
        mean_chip_temperature: Average chip temperature trace, K.
        leakage_power: Chip leakage trace, W.
        final_temperatures: Full node vector at the last computed step, K.
        runaway: True if the ceiling was crossed and integration stopped.
        runaway_time: Time of the crossing, s (None if no runaway).
    """

    times: np.ndarray
    max_chip_temperature: np.ndarray
    mean_chip_temperature: np.ndarray
    leakage_power: np.ndarray
    final_temperatures: np.ndarray
    runaway: bool
    runaway_time: Optional[float]

    @property
    def settled_temperature(self) -> float:
        """Final 𝒯 sample, K (the steady value if the run settled)."""
        return float(self.max_chip_temperature[-1])


def _schedule_value(schedule: ScalarSchedule, t: float) -> float:
    return float(schedule(t)) if callable(schedule) else float(schedule)


def _power_value(schedule: PowerSchedule, t: float) -> np.ndarray:
    if callable(schedule):
        return np.asarray(schedule(t), dtype=float)
    return np.asarray(schedule, dtype=float)


def _march(model: PackageThermalModel, dt: float, steps: int,
           temps: Optional[np.ndarray],
           leakage: Optional[CellLeakageModel], drive: Drive,
           t_start: float = 0.0) -> Iterator[Tuple[float, np.ndarray]]:
    """The one backward-Euler loop behind every transient entry point.

    Yields ``(t_start, T_0)`` first — ``temps`` in K, or ambient
    everywhere when None — and then ``(t, T)`` after each of ``steps``
    steps of ``dt`` s.  Step ``n`` takes its operating point from
    ``drive(t, T_{n-1})`` and linearizes leakage at the previous step's
    chip temperatures.  The capacity term rides on the diagonal overlay,
    so successive steps differ only on the diagonal and PCG against the
    loop's last factor solves them.  A trajectory is not ended by PCG's
    indefiniteness certificate: on
    :class:`~repro.errors.IndefiniteSystemError` the step drops the held
    factor and factors its matrix fresh, so the steps are exactly those
    of a loop that factors fresh on every PCG breakdown.  Runaway in
    time is the caller's ceiling test.
    """
    network = model.network
    n = network.node_count
    capacities = network.heat_capacities()
    if (capacities <= 0.0).any():
        raise ConfigurationError(
            "Transient simulation requires positive heat capacities on "
            "every node")
    if temps is None:
        temps = np.full(n, model.config.ambient, dtype=float)
    else:
        temps = np.asarray(temps, dtype=float).copy()
        if temps.shape != (n,):
            raise ConfigurationError(
                f"initial_temperatures must have shape ({n},)")
    yield t_start, temps

    c_over_dt = capacities / dt
    zeros = np.zeros(model.grid.cell_count, dtype=float)
    warm = KrylovState()
    for step in range(1, steps + 1):
        t = t_start + step * dt
        omega, current, cell_power, sink_heat = drive(t, temps)
        chip = model.chip_temperatures(temps)
        if leakage is not None:
            taylor = tangent_linearization(leakage, chip)
            slope, const = taylor.a, taylor.constant_term()
        else:
            slope, const = zeros, zeros
        diag, rhs = model.overlays(omega, current, cell_power, slope,
                                   const, sink_heat=sink_heat)
        overlay, rhs = diag + c_over_dt, rhs + c_over_dt * temps
        try:
            temps = network.solve(overlay, rhs, warm=warm)
        except IndefiniteSystemError:
            warm.reset()
            temps = network.solve(overlay, rhs, warm=warm)
        yield t, temps


def simulate_transient(
    model: PackageThermalModel,
    duration: float,
    dt: float,
    omega: ScalarSchedule,
    current: ScalarSchedule,
    dynamic_cell_power: PowerSchedule,
    leakage: Optional[CellLeakageModel] = None,
    initial_temperatures: Optional[np.ndarray] = None,
    sink_heat: ScalarSchedule = 0.0,
) -> TransientResult:
    """Integrate the package thermals over ``[0, duration]``.

    ``omega`` (rad/s), ``current`` (A) and ``dynamic_cell_power`` (W
    per cell) may be constants or callables of time in s (controller
    schedules); ``initial_temperatures`` is in K.  Integration stops early,
    with ``runaway=True``, if any temperature crosses the model's runaway
    ceiling — the transient picture of the Section 6.2 feedback loop.
    """
    if duration <= 0.0 or dt <= 0.0:
        raise ConfigurationError("duration and dt must be positive")
    if dt > duration:
        raise ConfigurationError("dt must not exceed duration")

    def drive(t: float, _temps: np.ndarray):
        return (_schedule_value(omega, t), _schedule_value(current, t),
                _power_value(dynamic_cell_power, t),
                _schedule_value(sink_heat, t))

    times: List[float] = []
    max_trace: List[float] = []
    mean_trace: List[float] = []
    leak_trace: List[float] = []
    runaway_time: Optional[float] = None
    for t, temps in _march(model, dt, int(round(duration / dt)),
                           initial_temperatures, leakage, drive):
        chip = model.chip_temperatures(temps)
        times.append(t)
        max_trace.append(float(chip.max()))
        mean_trace.append(float(chip.mean()))
        leak_trace.append(leakage.total_power(chip) if leakage else 0.0)
        # The initial state is given, not stepped: no ceiling test at 0.
        if t > 0.0 and float(temps.max()) > model.config.runaway_ceiling:
            runaway_time = t
            break

    return TransientResult(
        times=np.array(times),
        max_chip_temperature=np.array(max_trace),
        mean_chip_temperature=np.array(mean_trace),
        leakage_power=np.array(leak_trace),
        final_temperatures=temps,
        runaway=runaway_time is not None,
        runaway_time=runaway_time,
    )
