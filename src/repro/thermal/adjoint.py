"""Adjoint gradients of a converged steady state.

The steady-state system is linear in temperature,
``A(x) T = s(x)`` with ``A = G_static + diag(d(x))`` and
``x = (omega, I_TEC)``, so for any scalar output ``f(T, x)`` the
adjoint identity

    df/dx = df/dx|_explicit + lambda^T (ds/dx - (dd/dx) * T),
    A^T lambda = df/dT

prices a full gradient at *one* adjoint solve instead of the
~2 * n_vars forward solves a finite-difference stencil spends per SQP
iteration.  Both objectives (max chip temperature, and system power
``P_leak + P_TEC``) share a single ``(n, 2)`` adjoint block solve.
``A`` is exactly symmetric (every overlay term is diagonal), so the
adjoint system is the forward one and the block rides the forward
solve path.

Leakage note: the forward path converges a fixed point of the Taylor
relinearization loop (Equation 4).  At convergence the nonlinear
residual's temperature Jacobian is exactly ``A`` built with the
tangent slope ``a = beta * P_leak(T*)`` at the *converged* chip
temperatures, so this module relinearizes there before solving.
That overlay usually differs from the last forward iterate's (whose
tangent point lagged one iteration behind), so the block factors fresh
there and is one exact back-solve; the forward solve's
:class:`~repro.thermal.SolveContext` then holds that factor, which
preconditions the solves after it.  Leakage-free problems rebuild the
identical overlay bytes and back-substitute against the held factor
directly.  The linearization-point constant ``b - a*t_ref`` is held
fixed under differentiation — it is data of the linearization, not a
function of ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..leakage.linearize import tangent_linearization
from .assembly import PackageThermalModel
from .operator import KrylovState
from .solver import SolveContext, SteadyStateResult

__all__ = ["SteadyStateGradients", "steady_state_gradients"]


@dataclass(frozen=True)
class SteadyStateGradients:
    """d/d(omega, I_TEC) of the two objective ingredients.

    Attributes:
        d_temp_omega: ``d(max chip T)/d(omega)``, K/(rad/s).
        d_temp_current: ``d(max chip T)/d(I_TEC)``, K/A.
        d_power_omega: ``d(P_leak + P_TEC)/d(omega)``, W/(rad/s) —
            system power only; the caller adds the explicit fan term
            ``dP_fan/d(omega)``.
        d_power_current: ``d(P_leak + P_TEC)/d(I_TEC)``, W/A.
    """

    d_temp_omega: float
    d_temp_current: float
    d_power_omega: float
    d_power_current: float


def steady_state_gradients(
    model: PackageThermalModel,
    result: SteadyStateResult,
    dynamic_cell_power: np.ndarray,
    leakage=None,
    sink_heat: float = 0.0,
    sink_heat_gradient: float = 0.0,
    context: Optional[SolveContext] = None,
) -> SteadyStateGradients:
    """Adjoint gradients at a converged :class:`SteadyStateResult`.

    Args:
        model: The package model the result was solved on.
        result: A converged steady state (carries the full node
            temperature vector and the operating point).
        dynamic_cell_power: The per-chip-cell dynamic power the forward
            solve used, W.
        leakage: The leakage model of the forward solve (None for
            leakage-free problems); relinearized at the converged chip
            temperatures so the adjoint matrix is the exact fixed-point
            Jacobian.
        sink_heat: Recirculated fan heat deposited on the sink during
            the forward solve, W.
        sink_heat_gradient: ``d(sink_heat)/d(omega)``, W/(rad/s).
        context: The forward solve's context; the block back-solves
            its held factor at an exact repeat of the overlay, else
            factors fresh and leaves that factor held.  Without one
            the block is factored fresh.

    Returns one ``(n, 2)`` adjoint block solve's worth of gradients
    (counted in :attr:`~repro.thermal.OperatorStats.adjoint_solves`).
    """
    temps = result.temperatures
    chip = model.chip_temperatures(temps)
    n_cell = chip.shape[0]
    if leakage is not None:
        taylor = tangent_linearization(leakage, chip)
        leak_slope = np.broadcast_to(
            np.asarray(taylor.a, dtype=float), (n_cell,))
        leak_const = np.broadcast_to(
            np.asarray(taylor.constant_term(), dtype=float), (n_cell,))
    else:
        leak_slope = np.zeros(n_cell)
        leak_const = np.zeros(n_cell)

    # Both adjoint right-hand sides, built before overlays() so the
    # shared overlay buffers stay valid through the block solve.
    block = np.zeros((model.network.node_count, 2))
    hottest = model.chip_nodes[int(np.argmax(chip))]
    block[hottest, 0] = 1.0
    block[:, 1] = model.power_temperature_gradient(result.current,
                                                  leak_slope)

    diag, _ = model.overlays(result.omega, result.current,
                             dynamic_cell_power, leak_slope,
                             leak_const, sink_heat=sink_heat)
    warm = context.krylov if context is not None else KrylovState()
    duals = model.network.operator.solve_adjoint(diag, block, warm)

    f_omega = model.overlay_omega_gradient(
        result.omega, temps, sink_heat_gradient=sink_heat_gradient)
    f_current = model.overlay_current_gradient(result.current, temps)
    power_current = model.tec_power_current_gradient(result.current,
                                                     temps)
    return SteadyStateGradients(
        d_temp_omega=float(duals[:, 0] @ f_omega),
        d_temp_current=float(duals[:, 0] @ f_current),
        d_power_omega=float(duals[:, 1] @ f_omega),
        d_power_current=power_current + float(duals[:, 1] @ f_current),
    )
