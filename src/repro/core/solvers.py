"""Nonlinear solvers for Optimization 1 and Optimization 2.

The paper experiments with three state-of-the-art CNLP techniques —
interior-point, trust-region, and active-set SQP — and picks active-set
SQP for quality and speed.  We expose the same menu:

* ``"slsqp"`` — SciPy's SLSQP, a sequential least-squares (active-set)
  QP method: the closest sibling of MATLAB's active-set SQP.  Default.
* ``"trust-constr"`` — SciPy's interior-point/trust-region method.
* ``"grid"`` — coarse grid search followed by an SLSQP polish; the
  robust fallback for heavily non-convex instances.

Both optimization variables are normalized to [0, 1] before the solver
sees them (omega spans hundreds of rad/s while I_TEC spans a few
amperes), and every backend consumes the evaluator's adjoint gradients
as analytic Jacobians.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import NonlinearConstraint, minimize

from .._blas import one_blas_thread
from ..errors import SolverError
from .evaluator import Evaluation, Evaluator
from .problem import CoolingProblem

#: Supported solver backends.
SOLVER_METHODS = ("slsqp", "trust-constr", "grid")

#: Backend iteration budget of one Optimization 1 or 2 run (SLSQP
#: ``maxiter``; trust-constr gets four times as many).
MAX_ITERATIONS = 60

#: Strict-feasibility backoff (K) on the thermal constraint.  Exact
#: adjoint gradients drive the active-set method onto the margin = 0
#: boundary to machine precision, where ``T == T_max`` reads as
#: infeasible under the strict ``𝒯 < T_max`` contract; backing the
#: constraint off by a sliver keeps the converged point strictly
#: interior.  The power cost is the constraint multiplier times the
#: backoff — orders of magnitude below solver tolerance.
_MARGIN_BACKOFF_K = 1e-4


@dataclass
class OptimizationOutcome:
    """Result of one Optimization 1 or Optimization 2 run.

    Attributes:
        omega: Optimal fan speed, rad/s.
        current: Optimal TEC current, A.
        evaluation: Full evaluation at the optimum.
        success: Solver-reported success (early stops count as success).
        early_stopped: True if an Optimization 2 run stopped at the first
            point below the threshold (Algorithm 1 line 3).
        method: Backend used.
        evaluations: Thermal solves consumed by this run.
        message: Backend status message.
    """

    omega: float
    current: float
    evaluation: Evaluation
    success: bool
    early_stopped: bool
    method: str
    evaluations: int
    message: str = ""


class _EarlyStop(Exception):
    """Internal control flow for Algorithm 1's early termination."""

    def __init__(self, x: np.ndarray):
        super().__init__("early stop")
        self.x = x


class _NormalizedProblem:
    """Maps normalized x in [0,1]^d to physical (omega, I)."""

    def __init__(self, evaluator: Evaluator):
        self.evaluator = evaluator
        limits = evaluator.problem.limits
        self.omega_scale = limits.omega_max
        self.current_scale = evaluator.problem.current_upper_bound
        # A no-TEC problem is one-dimensional.
        self.dimensions = 2 if self.current_scale > 0.0 else 1

    def to_physical(self, x: Sequence[float]) -> Tuple[float, float]:
        omega = float(np.clip(x[0], 0.0, 1.0)) * self.omega_scale
        if self.dimensions == 2:
            current = float(np.clip(x[1], 0.0, 1.0)) * self.current_scale
        else:
            current = 0.0
        return omega, current

    def to_normalized(self, omega: float, current: float) -> np.ndarray:
        """Map a physical point — omega in rad/s, current in A — to
        the solver's dimensionless coordinates."""
        x = [omega / self.omega_scale]
        if self.dimensions == 2:
            x.append(current / self.current_scale)
        return np.array(x)

    def evaluate(self, x: Sequence[float]) -> Evaluation:
        omega, current = self.to_physical(x)
        return self.evaluator.evaluate(omega, current)

    # Normalization chain rule: the backend differentiates with respect
    # to x = (omega/omega_scale, I/current_scale), so each physical
    # slope is multiplied by its scale.  The [0,1] clip in to_physical
    # is transparent inside the box the backend's bounds enforce.

    def _chain(self, d_omega: float, d_current: float) -> np.ndarray:
        if self.dimensions == 2:
            return np.array([d_omega * self.omega_scale,
                             d_current * self.current_scale])
        return np.array([d_omega * self.omega_scale])

    def temperature_gradient(self, x: Sequence[float]) -> np.ndarray:
        """``d𝒯/dx`` in normalized coordinates (adjoint-backed)."""
        omega, current = self.to_physical(x)
        gradient = self.evaluator.evaluate_with_grad(
            omega, current).gradient
        return self._chain(gradient.d_temp_omega,
                           gradient.d_temp_current)

    def power_gradient(self, x: Sequence[float]) -> np.ndarray:
        """``d𝒫/dx`` in normalized coordinates (adjoint-backed)."""
        omega, current = self.to_physical(x)
        gradient = self.evaluator.evaluate_with_grad(
            omega, current).gradient
        return self._chain(gradient.d_power_omega,
                           gradient.d_power_current)

    def margin_gradient(self, x: Sequence[float]) -> np.ndarray:
        """``d(T_max - 𝒯)/dx`` in normalized coordinates."""
        return -self.temperature_gradient(x)


def _run_backend(
    norm: _NormalizedProblem,
    objective: Callable[[np.ndarray], float],
    objective_grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    method: str,
    constraint: Optional[Callable[[np.ndarray], float]] = None,
) -> Tuple[np.ndarray, bool, str]:
    """Dispatch one local solve; returns (x_best, success, message).

    The backend consumes analytic Jacobians: ``jac=`` on the objective
    and, for the thermal-margin constraint, ``norm.margin_gradient``.
    """
    bounds = [(0.0, 1.0)] * norm.dimensions
    if method == "slsqp":
        constraints = []
        if constraint is not None:
            constraints.append({"type": "ineq", "fun": constraint,
                                "jac": norm.margin_gradient})
        result = _checked_minimize(
            objective, x0, method="SLSQP", bounds=bounds,
            jac=objective_grad, constraints=constraints,
            options={"maxiter": MAX_ITERATIONS, "ftol": 1e-7})
        return result.x, bool(result.success), str(result.message)
    if method == "trust-constr":
        constraints = []
        if constraint is not None:
            constraints.append(NonlinearConstraint(
                constraint, 0.0, np.inf, jac=norm.margin_gradient))
        with warnings.catch_warnings():
            # trust-constr re-queries an iterate a few ulps away; the
            # evaluator's cache (keyed to CACHE_DECIMALS) serves the
            # same evaluation, so its BFGS update meets a repeated
            # gradient and warns about a linear function.
            warnings.filterwarnings(
                "ignore", message=r"delta_grad == 0\.0",
                category=UserWarning)
            result = _checked_minimize(
                objective, x0, method="trust-constr", bounds=bounds,
                jac=objective_grad, constraints=constraints,
                options={"maxiter": MAX_ITERATIONS * 4, "xtol": 1e-6})
        return result.x, bool(result.success), str(result.message)
    raise SolverError(f"Unknown solver method {method!r}; "
                      f"choose one of {SOLVER_METHODS}")


def _checked_minimize(objective, x0, **kwargs):
    """scipy.optimize.minimize with internal breakdowns mapped onto
    :class:`SolverError` so the resilience ladder can catch one typed
    failure instead of scipy's assorted numerics exceptions.

    Library exceptions (``ReproError`` subclasses, including the early
    stop control flow) pass through untouched.  The backend runs with
    OpenBLAS at one thread, so its iterates (and the run's last bits)
    do not depend on the host's core count.
    """
    try:
        with one_blas_thread():
            return minimize(objective, x0, **kwargs)
    except (ValueError, ZeroDivisionError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        raise SolverError(
            f"{kwargs.get('method', 'backend')} solve broke down at "
            f"x0={np.asarray(x0)}: {exc}") from exc


def _grid_candidates(dimensions: int, points: int = 7) -> np.ndarray:
    """Normalized grid points (avoiding the exact 0 edge in omega)."""
    omega_axis = np.linspace(0.05, 1.0, points)
    if dimensions == 1:
        return omega_axis.reshape(-1, 1)
    current_axis = np.linspace(0.0, 1.0, points)
    grid = np.array([[w, i] for w in omega_axis for i in current_axis])
    return grid


def initial_operating_point(problem: CoolingProblem) -> Tuple[float,
                                                              float]:
    """Algorithm 1 line 1: the midpoint initial guess
    ``(omega_max/2, I_max/2)`` in (rad/s, A) — the empirical sweet spot
    of the Optimization 2 landscape (Figure 6(a))."""
    return (problem.limits.omega_max / 2.0,
            problem.current_upper_bound / 2.0)


def minimize_temperature(
    evaluator: Evaluator,
    x0: Optional[Tuple[float, float]] = None,
    method: str = "slsqp",
    early_stop_below: Optional[float] = None,
) -> OptimizationOutcome:
    """Optimization 2: minimize 𝒯 subject to the box constraints.

    Args:
        evaluator: Problem oracle.
        x0: Physical initial point (omega, I); defaults to the paper's
            (omega_max/2, I_max/2).
        method: One of :data:`SOLVER_METHODS`.
        early_stop_below: If given, stop as soon as an iterate achieves
            𝒯 strictly below this value (Algorithm 1 line 3).
    """
    norm = _NormalizedProblem(evaluator)
    solves_before = evaluator.solve_count
    if x0 is None:
        x0 = initial_operating_point(evaluator.problem)
    x0_n = norm.to_normalized(*x0)

    best: dict = {"t": np.inf, "x": x0_n.copy()}

    def objective(x: np.ndarray) -> float:
        t = norm.evaluate(x).max_chip_temperature
        if t < best["t"]:
            best["t"] = t
            best["x"] = np.array(x, dtype=float)
        if early_stop_below is not None and t < early_stop_below:
            raise _EarlyStop(np.array(x, dtype=float))
        return t

    early = False
    try:
        if method == "grid":
            x_best, success, message = _grid_then_polish(
                norm, objective, norm.temperature_gradient)
        else:
            x_best, success, message = _run_backend(
                norm, objective, norm.temperature_gradient, x0_n,
                method)
    except _EarlyStop as stop:
        x_best, success, message = stop.x, True, "early stop below T_max"
        early = True
    # Trust only the best *observed* iterate (solver may return a probe).
    final_t = norm.evaluate(x_best).max_chip_temperature
    if best["t"] < final_t:
        x_best = best["x"]
    omega, current = norm.to_physical(x_best)
    evaluation = evaluator.evaluate(omega, current)
    return OptimizationOutcome(
        omega=evaluation.omega, current=evaluation.current,
        evaluation=evaluation, success=success, early_stopped=early,
        method=method,
        evaluations=evaluator.solve_count - solves_before,
        message=message)


def minimize_power(
    evaluator: Evaluator,
    x0: Tuple[float, float],
    method: str = "slsqp",
) -> OptimizationOutcome:
    """Optimization 1: minimize 𝒫 subject to 𝒯 < T_max and the boxes.

    ``x0`` must be a thermally feasible physical point — Algorithm 1
    guarantees one via Optimization 2 before calling this.  The backend
    gets adjoint Jacobians for both the objective and the
    thermal-margin constraint.
    """
    norm = _NormalizedProblem(evaluator)
    solves_before = evaluator.solve_count
    x0_n = norm.to_normalized(*x0)
    t_max = evaluator.problem.limits.t_max

    best: dict = {"p": np.inf, "x": None}

    def objective(x: np.ndarray) -> float:
        evaluation = norm.evaluate(x)
        p = evaluation.total_power
        if evaluation.feasible and p < best["p"]:
            best["p"] = p
            best["x"] = np.array(x, dtype=float)
        return p

    def margin(x: np.ndarray) -> float:
        # Positive inside the feasible region, in kelvin.  The backoff
        # is a constant shift, so margin_gradient stays exact.
        return (t_max - _MARGIN_BACKOFF_K
                - norm.evaluate(x).max_chip_temperature)

    if method == "grid":
        x_best, success, message = _grid_then_polish(
            norm, objective, norm.power_gradient, constraint=margin)
    else:
        x_best, success, message = _run_backend(
            norm, objective, norm.power_gradient, x0_n, method,
            constraint=margin)
    # Prefer the best feasible iterate seen over the solver's return
    # value when the latter is infeasible or worse.
    final = norm.evaluate(x_best)
    if best["x"] is not None and (not final.feasible
                                  or best["p"] < final.total_power):
        x_best = best["x"]
    omega, current = norm.to_physical(x_best)
    evaluation = evaluator.evaluate(omega, current)
    return OptimizationOutcome(
        omega=evaluation.omega, current=evaluation.current,
        evaluation=evaluation, success=success, early_stopped=False,
        method=method,
        evaluations=evaluator.solve_count - solves_before,
        message=message)


def _grid_then_polish(
    norm: _NormalizedProblem,
    objective: Callable[[np.ndarray], float],
    objective_grad: Callable[[np.ndarray], np.ndarray],
    constraint: Optional[Callable[[np.ndarray], float]] = None,
) -> Tuple[np.ndarray, bool, str]:
    """Coarse grid scan, then SLSQP from the best grid point."""
    candidates = _grid_candidates(norm.dimensions)
    best_x = None
    best_val = np.inf
    for x in candidates:
        value = objective(x)
        if constraint is not None and constraint(x) <= 0.0:
            continue
        if value < best_val:
            best_val = value
            best_x = x
    if best_x is None:
        # Nothing feasible on the coarse grid: fall back to the least
        # infeasible point so the polish step has somewhere to start.
        best_x = min(candidates,
                     key=lambda x: -constraint(x) if constraint else 0.0)
    return _run_backend(norm, objective, objective_grad,
                        np.asarray(best_x), "slsqp",
                        constraint=constraint)
