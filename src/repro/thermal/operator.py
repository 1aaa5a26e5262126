"""Build-once/update-many sparse thermal operator.

Every steady-state query solves ``(G_static + diag(overlay)) T = rhs``
(the KCL dual of Constraint 14).  The structure (node graph, sparsity,
CSC layout) is fixed once the network finalizes; only the diagonal
overlay and the RHS change between solves.

* :class:`ThermalOperator` owns the structure — one CSC matrix with
  every diagonal entry stored, and each ``(i, i)`` position in
  ``csc.data`` — so applying an overlay is two array writes.  It holds
  no factors.
* :class:`Factorization` wraps one ``splu`` factor at one overlay.
* :class:`KrylovState` holds what one solve sequence already knows:
  its last factor and its last accepted answer per right-hand-side
  shape.  It lives with the caller (a
  :class:`~repro.thermal.SolveContext` or a backward-Euler loop), so a
  result depends only on its own sequence.

Every overlay term (fan coupling, Peltier, leakage slope, ``C/dt``) is
diagonal, so ``A`` is exactly symmetric and successive systems of a
sequence differ only on the diagonal.  ``solve(..., warm=state)``
back-solves the held factor's exact overlay; any other overlay runs
preconditioned CG with that factor as ``M``, from the held answer of
the same shape (the last ``(n,)`` vector or ``(n, k)`` block of the
sequence that passed the guards), else from ``M^-1 b``, until the error
estimate ``max|M^-1 r|`` is at most ``tolerance`` (default
:data:`KRYLOV_TOLERANCE`, 1e-10 K; relative too for adjoint columns
below 1 in magnitude), within 15 iterations.  Only the leakage loop
passes a looser ``tolerance``, for its non-final Newton systems
(Eisenstat-Walker forcing, floored at :data:`NEWTON_TOLERANCE`,
1e-6 K); the system it returns is polished to 1e-10 K.  A 1-D
right-hand side runs a plain scalar CG recurrence; an ``(n, k)``
adjoint block runs its columns as masked recurrences sharing each
back-substitution.  A
budget miss, ``p^T A p <= 0``, ``rho <= 0`` or a non-finite iterate
factors fresh, and the sequence holds that factor from then on, with
one exception: a vector solve whose curvature is clearly negative,
``p^T A p < -INDEFINITE_MARGIN * ||A||_1 * p^T p``, has proved ``A``
indefinite (Steihaug's negative-curvature exit), so it raises
:class:`~repro.errors.IndefiniteSystemError`, a thermal runaway,
without factoring and leaves the held factor as it was.  Curvature
within the margin, as on an exactly singular PSD system, still factors
fresh and meets the singularity guards.
Without ``warm`` a solve is a fresh factor and a back-solve,
bit-identical to ``spsolve`` (same SuperLU driver;
``tests/test_operator.py``); full-tolerance warm solves agree with it
to ~1e-10 K.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from ..errors import (
    ConfigurationError,
    IndefiniteSystemError,
    SingularNetworkError,
)
from ..obs import runtime as _obs
from ..obs.clock import monotonic

#: Dimensionless solution-amplification limit above which a finite
#: sparse solve is declared numerically degenerate (see
#: :meth:`ThermalOperator.solve`).  Physical packages stay below ~1e6.
_DEGENERACY_GROWTH_LIMIT = 1.0e13

#: PCG stops once the error estimate ``max|M^-1 r|`` is at most this
#: (K on temperatures), times the solution scale where that is below 1.
KRYLOV_TOLERANCE = 1.0e-10

#: Floor (K) of the loose PCG tolerances of the leakage loop's
#: non-final Newton systems: only the last system's solution is
#: returned, and that one is polished to :data:`KRYLOV_TOLERANCE`.
NEWTON_TOLERANCE = 1.0e-6

#: CG iterations a warm solve may spend before it factors fresh.
KRYLOV_BUDGET = 15

#: A vector PCG step whose curvature ``p^T A p`` is below
#: ``-INDEFINITE_MARGIN * ||A||_1 * p^T p`` certifies ``A`` indefinite.
#: Rounding in ``p^T A p`` stays orders of magnitude below the margin,
#: so an exactly singular PSD system never certifies.
INDEFINITE_MARGIN = 1.0e-10


#: The :class:`OperatorStats` fields, in order.
_COUNTERS = ("solves", "factorizations", "cache_hits", "adjoint_solves",
             "krylov_iterations", "krylov_solves", "fresh_factorizations",
             "held_starts", "factor_seconds", "solve_seconds")


@dataclass(frozen=True)
class OperatorStats:
    """Counts and seconds of one :class:`ThermalOperator`'s lifetime.

    Attributes:
        solves: Forward right-hand sides solved.
        factorizations: Sparse LU factorizations performed.
        cache_hits: Warm solves at the exact overlay of the held
            factor (plain back-substitutions).
        adjoint_solves: Adjoint right-hand sides solved by the gradient
            path (counted separately from ``solves`` so forward-solve
            comparisons stay meaningful).
        krylov_iterations: Conjugate-gradient iterations spent by warm
            solves, failed attempts included.
        krylov_solves: Warm systems (a vector or an ``(n, k)`` block)
            that PCG solved without a fresh factorization.
        fresh_factorizations: Factorizations on the warm path: cold
            starts plus Krylov misses.
        held_starts: Warm PCG solves (vector or block) that started
            from the sequence's held answer instead of ``M^-1 b``.
        factor_seconds: Wall time of the counted factorizations, s.
        solve_seconds: Wall time of the counted forward and adjoint
            solves (any fresh factor they trigger included), s.
    """

    solves: int
    factorizations: int
    cache_hits: int
    adjoint_solves: int = 0
    krylov_iterations: int = 0
    krylov_solves: int = 0
    fresh_factorizations: int = 0
    held_starts: int = 0
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def reuse_ratio(self) -> float:
        """Fraction of warm systems solved against an already held
        factor (exact hit or PCG) instead of a fresh factorization."""
        return factor_reuse_ratio(self.cache_hits, self.krylov_solves,
                                  self.fresh_factorizations)


def factor_reuse_ratio(cache_hits: float, krylov_solves: float,
                       fresh_factorizations: float) -> float:
    """Fraction of warm systems solved against an already held factor
    (exact hit or PCG) instead of a fresh factorization; 0 before the
    first warm system.  Shared by :attr:`OperatorStats.reuse_ratio`
    and the progress board, which reads the ``operator.*`` counters."""
    reused = cache_hits + krylov_solves
    total = reused + fresh_factorizations
    return reused / total if total else 0.0


class Factorization:
    """One ``splu`` factor of ``static + diag(overlay)``, with the
    matrix 1-norm (for the degeneracy guard) and a copy of the overlay
    it was made at, so reuse never touches the operator's scratch CSC.
    """

    __slots__ = ("_lu", "overlay", "norm1")

    def __init__(self, lu, overlay: np.ndarray, norm1: float):
        self._lu = lu
        self.overlay = overlay
        self.norm1 = norm1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one RHS vector or an ``(n, k)`` RHS block."""
        with np.errstate(all="ignore"):
            return self._lu.solve(rhs)


class KrylovState:
    """What one solve sequence already knows: its last factor and its
    last accepted answer per right-hand-side shape.

    Pass one as ``warm`` to every solve of a sequence; the operator
    fills it on the first solve and replaces the factor when PCG
    misses.  ``vector`` is the last ``(n,)`` answer and ``block`` the
    last ``(n, k)`` one; a warm PCG begins from the held answer of its
    own shape.  It pickles empty: SuperLU factors never cross a
    process boundary.
    """

    __slots__ = ("factor", "vector", "block")

    def __init__(self) -> None:
        self.factor: Optional[Factorization] = None
        self.vector: Optional[np.ndarray] = None
        self.block: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop the held factor and answers (the next warm solve
        factors fresh)."""
        self.factor = None
        self.vector = None
        self.block = None

    def holds(self, overlay: np.ndarray) -> bool:
        """Whether the held factor was made at exactly ``overlay``."""
        return self.factor is not None \
            and np.array_equal(self.factor.overlay, overlay)

    def answer(self, rhs: np.ndarray) -> Optional[np.ndarray]:
        """The held answer of ``rhs``'s shape, else ``None``."""
        held = self.vector if rhs.ndim == 1 else self.block
        return held if held is not None and held.shape == rhs.shape \
            else None

    def accept(self, solution: np.ndarray) -> None:
        """Hold a guarded ``solution`` (a copy) as its shape's answer."""
        if solution.ndim == 1:
            self.vector = solution.copy()
        else:
            self.block = solution.copy()

    def __reduce__(self):
        return (KrylovState, ())


class ThermalOperator:
    """Structure/state split over one finalized static matrix.

    Immutable in structure and cheap in state: :meth:`solve` writes the
    diagonal overlay into a preallocated CSC ``data`` array, solves
    directly or by PCG against the caller's :class:`KrylovState`, and
    applies the singularity and degeneracy guards.
    """

    def __init__(self, static: csr_matrix):
        """Build the operator structure from a static CSR matrix.

        Args:
            static: Finalized static conductance matrix, W/K entries.
        """
        n = static.shape[0]
        if static.shape != (n, n):
            raise ConfigurationError(
                f"static matrix must be square, got {static.shape}")
        self._n = n
        # CSC with every diagonal entry stored explicitly (appending
        # zero-valued (i, i) entries before conversion; sum_duplicates
        # keeps explicit zeros), so the overlay always has a slot to
        # land in even on nodes without a static diagonal term.
        coo = static.tocoo()
        rows = np.concatenate([coo.row, np.arange(n)])
        cols = np.concatenate([coo.col, np.arange(n)])
        vals = np.concatenate([coo.data, np.zeros(n)])
        csc = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
        csc.sum_duplicates()
        self._csc: csc_matrix = csc
        self._base_data: np.ndarray = csc.data.copy()
        # Position of entry (j, j) inside csc.data, per node.
        columns = np.repeat(np.arange(n), np.diff(csc.indptr))
        self._diag_index = np.flatnonzero(csc.indices == columns)
        # Column sums of |off-diagonal| entries: with them the 1-norm of
        # any loaded matrix is one O(n) pass over its diagonal.
        off_diagonal = np.abs(self._base_data)
        off_diagonal[self._diag_index] = 0.0
        self._off_diagonal_norms = np.add.reduceat(
            off_diagonal, csc.indptr[:-1])
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def _count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the lifetime count ``name`` and, in a
        telemetry session, to the registry counter ``operator.<name>``
        (the one place an operator count is incremented)."""
        self._counts[name] += amount
        if _obs.STATE.enabled:
            _obs.STATE.metrics.counter("operator." + name).inc(amount)

    @property
    def node_count(self) -> int:
        """Dimension of the operator."""
        return self._n

    @property
    def stats(self) -> OperatorStats:
        """Lifetime counts and seconds (solves, factorizations, reuse,
        Krylov)."""
        return OperatorStats(**self._counts)

    def clear(self) -> None:
        """No-op: the operator holds no factors (each sequence's
        :class:`KrylovState` does).  Kept for callers that reset
        operators between phases."""

    def reset_stats(self) -> None:
        """Zero the lifetime counters."""
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def __getstate__(self) -> dict:
        """Pickle the structure with zeroed lifetime counters, so an
        unpickled operator starts its new process from scratch."""
        state = self.__dict__.copy()
        state["_counts"] = dict.fromkeys(_COUNTERS, 0)
        return state

    def _checked_overlay(self, diag_overlay: np.ndarray) -> np.ndarray:
        overlay = np.asarray(diag_overlay, dtype=float)
        if overlay.shape != (self._n,):
            raise ConfigurationError(
                f"Overlay must have shape ({self._n},), got "
                f"{overlay.shape}")
        return overlay

    def _load(self, overlay: np.ndarray) -> csc_matrix:
        """Write ``static + diag(overlay)`` into the CSC scratch data."""
        np.copyto(self._csc.data, self._base_data)
        self._csc.data[self._diag_index] += overlay
        return self._csc

    def _norm1(self) -> float:
        """1-norm of the matrix currently loaded by :meth:`_load`."""
        diagonal = np.abs(self._csc.data[self._diag_index])
        return float(np.max(self._off_diagonal_norms + diagonal))

    def factor(self, diag_overlay: np.ndarray) -> Factorization:
        """Fresh factorization of ``static + diag(overlay)``.

        Raises :class:`SingularNetworkError` (with a condition-number
        estimate) when the matrix does not factor.
        """
        overlay = self._checked_overlay(diag_overlay)
        started = monotonic()
        csc = self._load(overlay)
        norm1 = self._norm1()
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lu = splu(csc)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            estimate = condition_estimate(csc)
            raise SingularNetworkError(
                f"Sparse steady-state solve failed ({exc}); 1-norm "
                f"condition estimate {estimate:.3e}",
                condition_estimate=estimate) from exc
        self._count("factorizations")
        self._count("factor_seconds", monotonic() - started)
        if _obs.STATE.enabled:
            _obs.STATE.tracer.event("operator.factorize")
        return Factorization(lu, overlay.copy(), norm1)

    def solve(self, diag_overlay: np.ndarray, rhs: np.ndarray,
              warm: Optional[KrylovState] = None, *,
              tolerance: float = KRYLOV_TOLERANCE) -> np.ndarray:
        """Solve ``(static + diag(overlay)) T = rhs`` for one RHS.

        Without ``warm`` the system is factored fresh; with it, solved
        against the sequence's held factor (see the module docstring).
        A PCG solve starts from ``warm``'s held answer, else from
        ``M^-1 b``, and stops at ``tolerance`` (K); an exact repeat or a
        fresh factor back-solves and ignores it.
        Raises :class:`SingularNetworkError`, with a 1-norm condition
        estimate, on singular or numerically degenerate systems, and
        :class:`IndefiniteSystemError` when PCG proves the matrix
        indefinite (``warm`` keeps its factor).
        """
        overlay = self._checked_overlay(diag_overlay)
        rhs_arr = np.asarray(rhs, dtype=float)
        if rhs_arr.shape != (self._n,):
            raise ConfigurationError(
                f"RHS must have shape ({self._n},), got {rhs_arr.shape}")
        started = monotonic()
        temps = self._solve(overlay, rhs_arr, warm, tolerance)
        self._count("solves")
        self._count("solve_seconds", monotonic() - started)
        return temps

    def solve_adjoint(self, diag_overlay: np.ndarray, rhs: np.ndarray,
                      warm: Optional[KrylovState] = None) -> np.ndarray:
        """Solve the adjoint system ``(static + diag(overlay))^T x = rhs``.

        The operator is symmetric, so this is the forward path on one
        RHS vector or an ``(n, k)`` block; the count lands in
        :attr:`OperatorStats.adjoint_solves`, never in ``solves``.
        """
        overlay = self._checked_overlay(diag_overlay)
        rhs_arr = np.asarray(rhs, dtype=float)
        if rhs_arr.shape[0] != self._n or rhs_arr.ndim > 2:
            raise ConfigurationError(
                f"Adjoint RHS must have shape ({self._n},) or "
                f"({self._n}, k), got {rhs_arr.shape}")
        started = monotonic()
        duals = self._solve(overlay, rhs_arr, warm, KRYLOV_TOLERANCE)
        self._count("adjoint_solves",
                    1 if rhs_arr.ndim == 1 else rhs_arr.shape[1])
        self._count("solve_seconds", monotonic() - started)
        return duals

    def _solve(self, overlay: np.ndarray, rhs: np.ndarray,
               warm: Optional[KrylovState],
               tolerance: float) -> np.ndarray:
        """Exact-repeat, PCG or fresh-factor solve, guarded.  A warm
        solution that passes the guards becomes the sequence's held
        answer of its shape."""
        if warm is not None and warm.factor is not None:
            if warm.holds(overlay):
                self._count("cache_hits")
                solution = self._back_solve(warm.factor, overlay, rhs)
                warm.accept(solution)
                return solution
            start = warm.answer(rhs)
            if start is not None:
                self._count("held_starts")
            matrix = self._load(overlay)
            if rhs.ndim == 1:
                solution = self._pcg(matrix, rhs, warm.factor, start,
                                     tolerance)
            else:
                solution = self._block_pcg(matrix, rhs, warm.factor,
                                           start)
            if solution is not None:
                self._count("krylov_solves")
                self._guard(solution, rhs, overlay, self._norm1(), None)
                warm.accept(solution)
                return solution
        factor = self.factor(overlay)
        if warm is None:
            return self._back_solve(factor, overlay, rhs)
        self._count("fresh_factorizations")
        solution = self._back_solve(factor, overlay, rhs)
        # Only a factor whose solve passed the guards preconditions
        # the rest of the sequence.
        warm.factor = factor
        warm.accept(solution)
        return solution

    def _back_solve(self, factor: Factorization, overlay: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
        solution = factor.solve(rhs)
        self._guard(solution, rhs, overlay, factor.norm1, factor._lu)
        return solution

    def _pcg(self, matrix: csc_matrix, rhs: np.ndarray,
             preconditioner: Factorization, start: Optional[np.ndarray],
             tolerance: float) -> Optional[np.ndarray]:
        """Scalar PCG on one RHS vector, preconditioned by a factor of
        a nearby overlay; ``None`` when it misses its budget, meets
        ``p^T A p <= 0`` or ``rho <= 0``, or a non-finite iterate.

        Raises :class:`IndefiniteSystemError` when a step's curvature
        certifies ``matrix`` indefinite (see :data:`INDEFINITE_MARGIN`).
        """
        iterations = 0
        witness = None
        with np.errstate(all="ignore"):
            solution = preconditioner.solve(rhs) if start is None \
                else np.array(start, dtype=float)
            residual = rhs - matrix @ solution
            z = preconditioner.solve(residual)
            tolerance *= min(1.0, float(np.abs(solution).max()))
            # A NaN error estimate fails this test, and the next
            # curvature test (NaN > 0 is False) fails the solve.
            converged = float(np.abs(z).max()) <= tolerance
            direction, rho = z, float(residual @ z)
            while not converged and iterations < KRYLOV_BUDGET:
                iterations += 1
                product = matrix @ direction
                curvature = float(direction @ product)
                if not (curvature > 0.0 and rho > 0.0):
                    length = float(direction @ direction)
                    if curvature < -INDEFINITE_MARGIN * self._norm1() \
                            * length:
                        witness = curvature / length
                    break
                alpha = rho / curvature
                solution += alpha * direction
                residual -= alpha * product
                z = preconditioner.solve(residual)
                converged = float(np.abs(z).max()) <= tolerance
                rho_next = float(residual @ z)
                direction = z + (rho_next / rho) * direction
                rho = rho_next
        self._count("krylov_iterations", iterations)
        if witness is not None:
            raise IndefiniteSystemError(
                f"Thermal system is not positive definite: PCG found "
                f"curvature p^T A p / p^T p = {witness:.3e} W/K",
                rayleigh_quotient=witness)
        if not converged or not np.all(np.isfinite(solution)):
            return None
        return solution

    def _block_pcg(self, matrix: csc_matrix, rhs: np.ndarray,
                   preconditioner: Factorization,
                   start: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """PCG on an ``(n, k)`` block from ``start`` (else ``M^-1 B``)
        to :data:`KRYLOV_TOLERANCE`, with the failure modes of
        :meth:`_pcg` but no certificate: negative curvature also
        returns ``None``.

        The columns run as independent CG recurrences sharing each
        back-substitution; a column stops updating once it converges.
        """
        iterations = 0
        with np.errstate(all="ignore"):
            solution = preconditioner.solve(rhs) if start is None \
                else np.array(start, dtype=float)
            residual = rhs - matrix @ solution
            z = preconditioner.solve(residual)
            tolerance = KRYLOV_TOLERANCE * np.minimum(
                1.0, np.abs(solution).max(axis=0))
            active = ~(np.abs(z).max(axis=0) <= tolerance)
            direction, rho = z, np.einsum("ij,ij->j", residual, z)
            while active.any() and iterations < KRYLOV_BUDGET:
                iterations += 1
                product = matrix @ direction
                curvature = np.einsum("ij,ij->j", direction, product)
                if not (np.all(curvature[active] > 0.0)
                        and np.all(rho[active] > 0.0)):
                    break
                alpha = np.where(active, rho / curvature, 0.0)
                solution += alpha * direction
                residual -= alpha * product
                z = preconditioner.solve(residual)
                active &= ~(np.abs(z).max(axis=0) <= tolerance)
                rho_next = np.einsum("ij,ij->j", residual, z)
                direction = z + np.where(active, rho_next / rho,
                                         0.0) * direction
                rho = rho_next
        self._count("krylov_iterations", iterations)
        if active.any() or not np.all(np.isfinite(solution)):
            return None
        return solution

    def _guard(self, temps: np.ndarray, rhs: np.ndarray,
               overlay: np.ndarray, norm1: float, lu) -> None:
        """Singularity/degeneracy checks shared by every solve path.

        A singular-to-working-precision matrix often still factors (the
        pivots round to tiny nonzeros) and yields an absurdly amplified
        or non-finite solution; the dimensionless growth
        ``||x|| ||A|| / ||b||`` lower-bounds ``cond_1(A)``, and healthy
        thermal systems sit many orders of magnitude below the limit.
        ``norm1`` is the 1-norm of the matrix actually solved.  When
        ``lu`` factors that matrix it is handed to
        :func:`condition_estimate`, so the diagnostic reuses it instead
        of refactorizing (a PCG result passes ``None``).
        """
        rhs_scale = float(np.abs(rhs).max())
        growth = float(np.abs(temps).max()) * norm1 / rhs_scale \
            if rhs_scale > 0.0 else 0.0
        if not np.all(np.isfinite(temps)):
            problem = "singular or numerically degenerate"
        elif growth > _DEGENERACY_GROWTH_LIMIT:
            problem = (f"numerically degenerate: solution amplification "
                       f"{growth:.3e} exceeds {_DEGENERACY_GROWTH_LIMIT:.1e}")
        else:
            return
        estimate = condition_estimate(self._load(overlay), lu=lu)
        raise SingularNetworkError(
            f"Thermal system is {problem} (1-norm condition estimate "
            f"{estimate:.3e})", condition_estimate=estimate)


def condition_estimate(matrix, lu=None) -> float:
    """Cheap 1-norm condition estimate ``||A||_1 * est(||A^-1||_1)``.

    Used on the failure path only: a Hager-style norm estimate against
    a sparse LU factor, orders of magnitude cheaper than a dense
    condition number.  When the caller already holds a factorization of
    ``matrix`` (the operator's guard path usually does), pass it as
    ``lu`` and the estimate is pure back-substitution — no second
    ``splu`` of a matrix that was just factored.  Returns ``inf`` when
    the factorization fails (an exactly singular system).
    """
    csc = matrix.tocsc()
    norm_a = float(onenormest(csc))
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if lu is None:
                lu = splu(csc)
            # onenormest needs the adjoint too; for a real matrix that
            # is the transposed-system solve.
            inverse = LinearOperator(
                csc.shape, matvec=lu.solve,
                rmatvec=lambda b: lu.solve(b, trans="T"))
            norm_inv = float(onenormest(inverse))
    except (RuntimeError, ValueError, ArithmeticError):
        return float("inf")
    if not np.isfinite(norm_inv):
        return float("inf")
    return norm_a * norm_inv


__all__ = [
    "Factorization",
    "KrylovState",
    "OperatorStats",
    "ThermalOperator",
    "condition_estimate",
]
