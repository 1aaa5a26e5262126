"""Steady-state solve of ``G(omega) T = P(omega, I_TEC)`` (Constraint 14).

For fixed ``(omega, I_TEC)`` the system is linear in the temperatures
(Section 5.1: the Peltier and linearized-leakage terms fold into the
matrix), so one evaluation is a sparse solve.  Because the *linearization
point* of the leakage law matters, an outer loop re-expands the Taylor
series at the freshly solved chip temperatures until they stop moving —
reference [13]'s protocol, which typically converges in a handful of
iterations.  The evaluation reports **thermal runaway** (Section 6.2: the
objective "tends to infinity for small values of omega") when a Newton
system is proved indefinite (PCG's negative-curvature certificate,
:class:`~repro.errors.IndefiniteSystemError`), when the temperatures
leave the envelope (above the runaway ceiling or below the physical
floor), or when the loop diverges (three growing updates, or no
convergence within ``leak_max_iterations``).

Every linear system of that loop is one step of a *solve sequence*: a
:class:`SolveContext` carries the sequence's last converged chip
temperatures (``warm_chip``) and its :class:`KrylovState` (``krylov``:
the last sparse factor and the last accepted answer), and each
relinearized system after the first factor is solved by preconditioned
CG against that factor (see :mod:`repro.thermal.operator`).  A call
without a context is a sequence of its own.  The leakage-free path is
one linear system per point, so it reuses the held factor only at the
exact same overlay and otherwise factors fresh, staying bit-identical
to the direct solve.

The relinearization loop is an inexact Newton iteration (Dembo,
Eisenstat & Steihaug 1982) with Eisenstat & Walker (1996) forcing
terms.  Every system starts PCG from the sequence's held answer: the
previous query's temperatures for a call's first Newton system, the
previous iterate after that.  The first system is solved to
``leak_tolerance`` (1e-3 K); after a chip update of ``u`` K the next is
solved to ``FORCING * u``, clipped to ``[NEWTON_TOLERANCE,
leak_tolerance]``.  Once the chip update falls below
``leak_tolerance``, that same system is polished to
:data:`~repro.thermal.operator.KRYLOV_TOLERANCE` (1e-10 K) from its
loose solution, and the call returns only if the update
recomputed from the polished temperatures is still below
``leak_tolerance``; so every returned temperature vector comes from a
1e-10 K solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    ConfigurationError,
    IndefiniteSystemError,
    SingularNetworkError,
    ThermalRunawayError,
)
from ..leakage import CellLeakageModel, tangent_linearization
from ..obs import runtime as _obs
from ..obs.metrics import DEFAULT_COUNT_BUCKETS
from .assembly import PackageThermalModel
from .operator import (
    KRYLOV_TOLERANCE,
    NEWTON_TOLERANCE,
    KrylovState,
    ThermalOperator,
)

#: Forcing term of the leakage loop's inexact Newton iteration: the
#: Newton system after a chip update of ``u`` K is solved to
#: ``FORCING * u`` K, clipped to ``[NEWTON_TOLERANCE, leak_tolerance]``.
FORCING = 1.0e-2


@dataclass
class SolveContext:
    """Mutable per-problem solve state threaded through evaluations.

    Replaces the hidden warm-start state the evaluator used to keep in
    ``Evaluator._warm_chip``: the previous converged chip temperatures
    (the leakage linearization point that makes successive nearby
    queries converge in 1-2 iterations) live here explicitly, next to
    the sequence's last sparse factor, and the context hands out the
    network's build-once
    :class:`~repro.thermal.operator.ThermalOperator`.

    Attributes:
        model: The package model the context solves against.
        warm_chip: Chip-temperature vector (K) of the last successful
            solve, used as the next linearization point; ``None`` falls
            back to the ambient + 30 K cold start.
        krylov: The sequence's preconditioner (its last factor) and
            its last accepted answer; every system after the first is
            solved by PCG against the factor, from the held answer.
    """

    model: PackageThermalModel
    warm_chip: Optional[np.ndarray] = field(default=None)
    krylov: KrylovState = field(default_factory=KrylovState)

    @classmethod
    def for_model(cls, model: PackageThermalModel) -> "SolveContext":
        """Fresh context bound to ``model``."""
        return cls(model=model)

    @property
    def operator(self) -> ThermalOperator:
        """The model's shared build-once/update-many solve engine."""
        return self.model.network.operator

    def reset(self) -> None:
        """Forget the warm linearization point, the held factor and
        the held answer (cold-start next solve)."""
        self.warm_chip = None
        self.krylov.reset()


@dataclass
class SolveStats:
    """Diagnostics of one steady-state evaluation.

    Attributes:
        outer_iterations: Leakage relinearization (Newton) iterations
            performed; the final polish is not an iteration.
        linear_solves: Sparse linear solves performed: one per Newton
            iteration plus each full-tolerance polish of a converged
            iterate.
        converged: Whether the relinearization loop met its tolerance.
        max_update: Final between-iteration chip-temperature change, K.
    """

    outer_iterations: int
    linear_solves: int
    converged: bool
    max_update: float


@dataclass
class SteadyStateResult:
    """Converged steady state of the package at one operating point.

    Attributes:
        temperatures: Full node-temperature vector, K.
        chip_temperatures: Per-chip-cell temperatures, K.
        max_chip_temperature: The paper's objective 𝒯 = max_i T_i over
            the chip layer, K.
        leakage_power: Total chip leakage at the converged temperatures
            (Equation 11), W.
        tec_power: Total TEC electrical power (Equation 12), W.
        tec_heat_absorbed: Heat pumped out of the cold side (Eq. 1 sum), W.
        tec_heat_released: Heat released at the hot side (Eq. 2 sum), W.
        omega: Fan speed of the evaluation, rad/s.
        current: TEC driving current of the evaluation, A (scalar
            or per-cell array for multi-channel drives).
        stats: Solver diagnostics.
    """

    temperatures: np.ndarray
    chip_temperatures: np.ndarray
    max_chip_temperature: float
    leakage_power: float
    tec_power: float
    tec_heat_absorbed: float
    tec_heat_released: float
    omega: float
    current: Union[float, np.ndarray]
    stats: SolveStats

    @property
    def mean_chip_temperature(self) -> float:
        """Area-weighted (uniform cells) average chip temperature, K."""
        return float(self.chip_temperatures.mean())


def solve_steady_state(
    model: PackageThermalModel,
    omega: float,
    current: Union[float, np.ndarray],
    dynamic_cell_power: np.ndarray,
    leakage: Optional[CellLeakageModel] = None,
    initial_guess: Optional[np.ndarray] = None,
    sink_heat: float = 0.0,
    context: Optional[SolveContext] = None,
) -> SteadyStateResult:
    """Solve the package steady state at one ``(omega, I_TEC)`` point.

    Args:
        model: Assembled package thermal model.
        omega: Fan speed, rad/s.
        current: TEC driving current, A (scalar, or per-cell array
            for independently-driven channels).
        dynamic_cell_power: Per-chip-cell dynamic power, W.
        leakage: Temperature-dependent chip leakage; ``None`` disables
            leakage entirely (useful for validation against analytic
            networks).
        initial_guess: Optional starting chip-temperature vector for the
            linearization point; overrides the context's warm point.
        sink_heat: Extra heat deposited on the sink surface (recirculated
            fan power), W.
        context: Optional :class:`SolveContext` carrying the warm
            linearization point and the held factor across calls;
            updated in place on every successful solve.

    Raises:
        ThermalRunawayError: When no bounded steady state exists at this
            operating point (an :class:`~repro.errors.IndefiniteSystemError`
            when PCG proved a Newton system indefinite).
    """
    config = model.config
    ncell = model.grid.cell_count
    zeros = np.zeros(ncell, dtype=float)
    warm = context.krylov if context is not None else KrylovState()

    if leakage is None:
        diag, rhs = model.overlays(omega, current, dynamic_cell_power,
                                   zeros, zeros, sink_heat=sink_heat)
        if not warm.holds(diag):
            warm.reset()
        temps = _network_solve(model, diag, rhs, omega, current,
                               iteration=1, warm=warm)
        _check_physical(model, temps, omega, current, iteration=1)
        result = _package_result(model, temps, omega, current,
                                 leakage_power=0.0,
                                 stats=SolveStats(1, 1, True, 0.0))
        if context is not None:
            context.warm_chip = result.chip_temperatures
        return result

    if initial_guess is None and context is not None \
            and context.warm_chip is not None:
        initial_guess = context.warm_chip
    if initial_guess is not None:
        t_ref = np.asarray(initial_guess, dtype=float).copy()
        if t_ref.shape != (ncell,):
            raise ConfigurationError(
                f"initial_guess must have shape ({ncell},), got "
                f"{t_ref.shape}")
    else:
        t_ref = np.full(ncell, config.ambient + 30.0)

    solves = 0
    previous_update = np.inf
    growth_strikes = 0
    tolerance = config.leak_tolerance
    for iteration in range(1, config.leak_max_iterations + 1):
        taylor = tangent_linearization(leakage, t_ref)
        diag, rhs = model.overlays(
            omega, current, dynamic_cell_power,
            leak_slope=taylor.a, leak_const=taylor.constant_term(),
            sink_heat=sink_heat)
        temps = _network_solve(model, diag, rhs, omega, current,
                               iteration, warm, tolerance)
        solves += 1
        _check_physical(model, temps, omega, current, iteration)
        chip = model.chip_temperatures(temps)
        update = float(np.max(np.abs(chip - t_ref)))
        if update < config.leak_tolerance:
            # Polish the converged Newton system to full tolerance; the
            # answer always comes from this solve.
            temps = _network_solve(model, diag, rhs, omega, current,
                                   iteration, warm, KRYLOV_TOLERANCE)
            solves += 1
            _check_physical(model, temps, omega, current, iteration)
            chip = model.chip_temperatures(temps)
            update = float(np.max(np.abs(chip - t_ref)))
        if update < config.leak_tolerance:
            stats = SolveStats(iteration, solves, True, update)
            if _obs.STATE.enabled:
                _obs.STATE.metrics.histogram(
                    "leakage.iterations",
                    buckets=DEFAULT_COUNT_BUCKETS).observe(iteration)
            leak_power = leakage.total_power(chip)
            result = _package_result(model, temps, omega, current,
                                     leak_power, stats)
            if context is not None:
                context.warm_chip = result.chip_temperatures
            return result
        # Divergence heuristic: monotonically growing updates mean the
        # leakage feedback gain exceeds unity — runaway.
        if update > previous_update * 1.0001:
            growth_strikes += 1
            if growth_strikes >= 3:
                if _obs.STATE.enabled:
                    _obs.STATE.tracer.event(
                        "leakage.diverged", iteration=iteration,
                        update_k=update)
                    _obs.STATE.metrics.counter(
                        "leakage.diverged").inc()
                raise ThermalRunawayError(
                    f"Leakage fixed point diverging at omega={omega:.1f}, "
                    f"I={_fmt_current(current)} (update {update:.2f} K "
                    "and growing)",
                    max_temperature=float(chip.max()))
        else:
            growth_strikes = 0
        previous_update = update
        t_ref = chip
        # Eisenstat-Walker forcing: the next system only as tightly as
        # the step it has to resolve.
        tolerance = min(config.leak_tolerance,
                        max(NEWTON_TOLERANCE, FORCING * update))
    if _obs.STATE.enabled:
        _obs.STATE.tracer.event(
            "leakage.exhausted",
            iterations=config.leak_max_iterations)
        _obs.STATE.metrics.counter("leakage.diverged").inc()
    raise ThermalRunawayError(
        f"Leakage fixed point failed to converge within "
        f"{config.leak_max_iterations} iterations at omega={omega:.1f}, "
        f"I={_fmt_current(current)}",
        max_temperature=float(np.max(t_ref)))


def solve_steady_state_batch(
    model: PackageThermalModel,
    points: Sequence[Tuple[float, Union[float, np.ndarray]]],
    dynamic_cell_power: np.ndarray,
    leakage: Optional[CellLeakageModel] = None,
    sink_heats: Optional[Sequence[float]] = None,
    context: Optional[SolveContext] = None,
) -> List[Union[SteadyStateResult, ThermalRunawayError]]:
    """Solve many ``(omega, I_TEC)`` points against one power map.

    Each point is one :func:`solve_steady_state` call, in input order,
    warm-chaining through ``context`` exactly like repeated calls.
    Without a context each point cold-starts its linearization, but
    the points share one held factor, so repeated operating points
    reuse its factorization.

    Args:
        model: Assembled package thermal model.
        points: ``(omega, current)`` pairs, rad/s and A.
        dynamic_cell_power: Per-chip-cell dynamic power, W (shared by
            all points).
        leakage: Optional temperature-dependent chip leakage.
        sink_heats: Optional per-point sink heat, W (default 0).
        context: Optional warm-start context.

    Returns:
        One entry per point, in order: the
        :class:`SteadyStateResult`, or the
        :class:`~repro.errors.ThermalRunawayError` raised at that point
        (so one unbounded cell cannot abort a whole sweep).
    """
    count = len(points)
    if sink_heats is None:
        heats: Sequence[float] = [0.0] * count
    else:
        heats = sink_heats
        if len(heats) != count:
            raise ConfigurationError(
                f"sink_heats must have {count} entries, got {len(heats)}")
    shared = KrylovState()
    results: List[Union[SteadyStateResult, ThermalRunawayError]] = []
    for (omega, current), heat in zip(points, heats):
        try:
            results.append(solve_steady_state(
                model, omega, current, dynamic_cell_power,
                leakage=leakage, sink_heat=heat,
                context=context if context is not None
                else SolveContext(model, krylov=shared)))
        except ThermalRunawayError as err:
            results.append(err)
    return results


def _network_solve(model: PackageThermalModel, diag: np.ndarray,
                   rhs: np.ndarray, omega: float,
                   current: Union[float, np.ndarray],
                   iteration: int, warm: KrylovState,
                   tolerance: float = KRYLOV_TOLERANCE) -> np.ndarray:
    """One warm network solve to ``tolerance`` (K), from the
    sequence's held answer; re-raises singularities and
    indefiniteness certificates (runaway) with operating-point context
    (omega in rad/s, current in A) chained onto the original."""
    try:
        return model.network.solve(diag, rhs, warm, tolerance=tolerance)
    except SingularNetworkError as exc:
        raise SingularNetworkError(
            f"{exc} during steady-state solve at omega={omega:.1f}, "
            f"I={_fmt_current(current)} (leakage iteration {iteration})",
            condition_estimate=exc.condition_estimate) from exc
    except IndefiniteSystemError as exc:
        _count_runaway("indefinite")
        raise IndefiniteSystemError(
            f"{exc} at omega={omega:.1f}, I={_fmt_current(current)} "
            f"(leakage iteration {iteration})",
            rayleigh_quotient=exc.rayleigh_quotient) from exc


def _count_runaway(cause: str) -> None:
    """Count one runaway verdict by cause in a telemetry session."""
    if _obs.STATE.enabled:
        _obs.STATE.metrics.counter("leakage.runaway." + cause).inc()


def _fmt_current(current: Union[float, np.ndarray]) -> str:
    """Render a scalar or per-cell current for error messages."""
    arr = np.asarray(current, dtype=float)
    if arr.ndim == 0:
        return f"{float(arr):.2f}"
    return f"[{arr.min():.2f}..{arr.max():.2f}]"


def _check_physical(model: PackageThermalModel, temps: np.ndarray,
                    omega: float, current: Union[float, np.ndarray],
                    iteration: int) -> None:
    """Reject solutions outside the physical envelope as runaway."""
    config = model.config
    t_max = float(temps.max())
    t_min = float(temps.min())
    if t_max > config.runaway_ceiling:
        _count_runaway("ceiling")
        raise ThermalRunawayError(
            f"Temperature {t_max:.1f} K exceeds the runaway ceiling "
            f"({config.runaway_ceiling:.0f} K) at omega={omega:.1f}, "
            f"I={_fmt_current(current)} (iteration {iteration})",
            max_temperature=t_max)
    if t_min < config.temperature_floor:
        _count_runaway("floor")
        raise ThermalRunawayError(
            f"Temperature {t_min:.1f} K fell below the physical floor "
            f"({config.temperature_floor:.0f} K) at omega={omega:.1f}, "
            f"I={_fmt_current(current)}: the linearized network has "
            "left its "
            "validity range",
            max_temperature=t_max)


def _package_result(model: PackageThermalModel, temps: np.ndarray,
                    omega: float, current: Union[float, np.ndarray],
                    leakage_power: float,
                    stats: SolveStats) -> SteadyStateResult:
    chip = model.chip_temperatures(temps)
    tec_power = 0.0
    q_abs = 0.0
    q_rel = 0.0
    if model.tec_array is not None:
        cold, hot = model.tec_face_temperatures(temps)
        tec_power = model.tec_array.total_power(cold, hot, current)
        q_abs = model.tec_array.total_heat_absorbed(cold, hot, current)
        q_rel = model.tec_array.total_heat_released(cold, hot, current)
    return SteadyStateResult(
        temperatures=temps,
        chip_temperatures=chip,
        max_chip_temperature=float(chip.max()),
        leakage_power=leakage_power,
        tec_power=tec_power,
        tec_heat_absorbed=q_abs,
        tec_heat_released=q_rel,
        omega=omega,
        current=current,
        stats=stats,
    )
