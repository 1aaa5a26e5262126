"""Build-once/update-many sparse thermal operator.

Every steady-state query solves ``(G_static + diag(overlay)) T = rhs``
(the KCL dual of Constraint 14).  The structure (node graph, sparsity,
CSC layout) is fixed once the network finalizes; only the diagonal
overlay and the RHS change between solves.

* :class:`ThermalOperator` owns the structure — one CSC matrix with
  every diagonal entry stored, and a band-ordered CSR copy with each
  natural node's ``(i, i)`` position in its ``data`` — so applying an
  overlay is one array write.  The static matrix must be exactly
  symmetric.  It holds no factors.
* The operator computes in the band order of its layout: the interior
  nodes in reverse Cuthill-McKee order, then the border, the network's
  periphery (12 nodes, each coupled to a whole grid edge).  A public
  call permutes ``rhs`` (and the held answer) into that order once, runs
  PCG there on the band-ordered matrix with in-place vector updates, and
  permutes the answer back once; every back-solve inside it works on
  band-ordered vectors, with no permutation of its own.
* :class:`Factorization` holds one factor at one overlay: a bordered
  banded Cholesky factor on every grid (there is no size budget), or
  an ``splu`` factor of the natural-order matrix when the band factor
  refuses the loaded matrix because it is not positive definite.  The
  interior ``A_II`` is a band (width 99 instead of 195 with the
  periphery in it, at 12x12) factored by LAPACK ``dpbtrf`` as
  ``L L^T``, and the border is eliminated through ``W = L^-1 A_IB``
  (one forward ``dtbtrs`` over the border columns) and the dense Schur
  complement ``S = A_BB - W^T W`` (``dpotrf``).  A back-solve copies
  its right-hand side and, in place on the copy, runs the forward
  ``dtbsv`` pass ``y = L^-1 b_I``, the border solve
  ``x_B = S^-1 (b_B - W^T y)`` (``dpotrs``) with ``y -= W x_B``, and
  the transposed ``dtbsv`` pass ``x_I = L^-T y``: the two passes of one
  ``dpbtrs`` plus two thin products with ``W``; an ``(n, k)`` block is
  a loop over its columns.  Without a border that shrinks the factor
  the layout is plain reverse Cuthill-McKee and a back-solve is the two
  passes alone.  The operator's public calls
  (:meth:`~ThermalOperator.factor`, :meth:`~ThermalOperator.solve`,
  :meth:`~ThermalOperator.solve_adjoint`) each hold OpenBLAS at one
  thread once, for every band factor and back-solve inside them, and
  the solves hold numpy's error state once.
* :class:`KrylovState` holds what one solve sequence already knows:
  its last factor and its last accepted vector answer.  It lives with
  the caller (a
  :class:`~repro.thermal.SolveContext` or a backward-Euler loop), so a
  result depends only on its own sequence.

Every overlay term (fan coupling, Peltier, leakage slope, ``C/dt``) is
diagonal, so ``A`` is exactly symmetric and successive systems of a
sequence differ only on the diagonal.  ``solve(..., warm=state)``
back-solves the held factor's exact overlay; any other overlay of a
vector right-hand side runs preconditioned CG with that factor as
``M``, from the held answer (the last vector of the sequence that
passed the guards), else from ``M^-1 b``, until the error estimate
``max|M^-1 r|`` is at most ``tolerance`` (default
:data:`KRYLOV_TOLERANCE`, 1e-10 K; relative too for adjoint vectors
below 1 in magnitude), within 15 iterations.  Only the leakage loop
passes a looser ``tolerance``, for its non-final Newton systems
(Eisenstat-Walker forcing, floored at :data:`NEWTON_TOLERANCE`,
1e-6 K); the system it returns is polished to 1e-10 K.  An ``(n, k)``
adjoint block at any other overlay factors fresh: a gradient is one
exact back-solve, and its factor preconditions the solves after it.  A
budget miss, ``p^T A p <= 0``, ``rho <= 0`` or a non-finite iterate
factors fresh, and the sequence holds that factor from then on, with
one exception: a vector solve whose curvature is clearly negative,
``p^T A p < -INDEFINITE_MARGIN * ||A||_1 * p^T p``, has proved ``A``
indefinite (Steihaug's negative-curvature exit), so it raises
:class:`~repro.errors.IndefiniteSystemError`, a thermal runaway,
without factoring and leaves the held factor as it was.  Curvature
within the margin, as on an exactly singular PSD system, still factors
fresh and meets the singularity guards.
Without ``warm`` a solve is a fresh factor and a back-solve.  On the
band path it agrees with ``spsolve`` to ~1e-14 relative (a different
elimination order, not a looser tolerance).  A matrix the band factor
refuses (``A_II`` or ``S`` not positive definite: a singular or
indefinite system) factors by SuperLU and solves bit-identical to
``spsolve`` (the same SuperLU code), so singular and indefinite systems
meet the same guards and condition estimates as before
(``tests/test_operator.py``).
Full-tolerance warm solves agree with the direct solve to ~1e-10 K.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dpbtrf, dpotrf, dpotrs, dtbtrs
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .._blas import one_blas_thread
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
        factorizations: Factorizations performed (banded Cholesky, or
            SuperLU for a matrix the band refuses).
        cache_hits: Warm solves at the exact overlay of the held
            factor (plain back-substitutions).
        adjoint_solves: Adjoint right-hand sides solved by the gradient
            path (counted separately from ``solves`` so forward-solve
            comparisons stay meaningful).
        krylov_iterations: Conjugate-gradient iterations spent by warm
            solves, failed attempts included.
        krylov_solves: Warm vector systems that PCG solved without a
            fresh factorization.
        fresh_factorizations: Factorizations on the warm path: cold
            starts, Krylov misses and adjoint blocks off the held
            overlay.
        held_starts: Warm PCG solves that started from the sequence's
            held answer instead of ``M^-1 b``.
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


class _BandLayout:
    """Where the band path puts one operator's matrix, and the order
    the operator computes in.

    ``perm`` (and its ``inverse``) orders the ``interior`` nodes first,
    in reverse Cuthill-McKee order, and the border nodes last: the band
    order.  ``matrix`` is the static matrix in band order (CSR, every
    diagonal entry stored) and ``diagonal`` the position of each
    natural node's ``(i, i)`` entry in ``matrix.data``.  The interior
    block is a band of ``width`` rows (bandwidth + 1).
    ``source``/``target`` map the interior's lower triangle from
    ``matrix.data`` into the Fortran-ordered ``(width, interior)`` band
    that ``dpbtrf`` factors with ``lower=1``, and ``edge_source``/
    ``edge_target`` map the border columns into a Fortran-ordered
    ``(n, border)`` array.
    """

    __slots__ = ("perm", "inverse", "interior", "width", "matrix",
                 "diagonal", "source", "target", "edge_source",
                 "edge_target")

    def __init__(self, csc: csc_matrix, border: np.ndarray):
        n = csc.shape[0]
        inside = np.ones(n, dtype=bool)
        inside[border] = False
        interior = np.flatnonzero(inside)
        order = interior[reverse_cuthill_mckee(
            csc[interior][:, interior] if border.size else csc,
            symmetric_mode=True)]
        self.perm = np.concatenate([order, border]).astype(np.intp)
        self.inverse = np.empty_like(self.perm)
        self.inverse[self.perm] = np.arange(n)
        self.interior = interior.size
        coo = csc.tocoo()
        self.matrix = csr_matrix(
            (coo.data, (self.inverse[coo.row], self.inverse[coo.col])),
            shape=(n, n))
        rows = np.repeat(np.arange(n), np.diff(self.matrix.indptr))
        columns = self.matrix.indices
        self.diagonal = np.flatnonzero(rows == columns)[self.inverse]
        self.source = np.flatnonzero((rows >= columns)
                                     & (rows < self.interior))
        offsets = rows[self.source] - columns[self.source]
        self.width = int(offsets.max()) + 1
        self.target = offsets + self.width * columns[self.source]
        self.edge_source = np.flatnonzero(columns >= self.interior)
        self.edge_target = rows[self.edge_source] \
            + n * (columns[self.edge_source] - self.interior)

    @classmethod
    def of(cls, csc: csc_matrix, border: Sequence[int] = ()) -> "_BandLayout":
        """The layout of the symmetric ``csc``: with ``border`` ordered
        last when that makes the factor smaller, else plain reverse
        Cuthill-McKee."""
        layout = cls(csc, np.empty(0, dtype=np.intp))
        border = np.unique(np.asarray(border, dtype=np.intp))
        if 0 < border.size < csc.shape[0]:
            bordered = cls(csc, border)
            if bordered.factor_bytes < layout.factor_bytes:
                layout = bordered
        return layout

    @property
    def border(self) -> int:
        """Number of border nodes."""
        return self.perm.size - self.interior

    @property
    def factor_bytes(self) -> int:
        """Bytes of a factor: the band ``L``, ``W = L^-1 A_IB`` and the
        border's Schur complement."""
        return 8 * ((self.width + self.border) * self.interior
                    + self.border ** 2)

    def cholesky(self, data: np.ndarray) -> Optional[tuple]:
        """Bordered banded Cholesky ``(L, W, S)`` of the band-ordered
        matrix with CSR values ``data``; ``None`` unless it is positive
        definite.

        ``dpbtrf`` factors the interior band ``A_II = L L^T``, one
        forward ``dtbtrs`` over the border columns gives
        ``W = L^-1 A_IB``, and ``dpotrf`` the border's Schur complement
        ``S = A_BB - W^T W``; ``W`` and ``S`` are ``None`` without a
        border.  ``A`` is positive definite exactly when ``A_II`` and
        ``S`` are.
        """
        n, interior = self.perm.size, self.interior
        flat = np.zeros(self.width * interior)
        flat[self.target] = data[self.source]
        with np.errstate(all="ignore"):
            band, info = dpbtrf(flat.reshape(
                (self.width, interior), order="F"),
                lower=1, overwrite_ab=1)
            if info != 0:
                return None
            if not self.border:
                return band, None, None
            edge = np.zeros(n * self.border)
            edge[self.edge_target] = data[self.edge_source]
            edge = edge.reshape((n, self.border), order="F")
            coupling, _ = dtbtrs(band, edge[:interior], uplo="L")
            schur, info = dpotrf(edge[interior:] - coupling.T @ coupling,
                                 lower=1)
        return (band, coupling, schur) if info == 0 else None


class Factorization:
    """One factor of ``static + diag(overlay)``, with the matrix 1-norm
    (for the degeneracy guard) and a copy of the overlay it was made
    at, so reuse never touches the operator's scratch matrices.

    The factor is a bordered banded Cholesky factor in its layout's
    order (``_lu`` is ``None``), or an ``splu`` factor of the
    natural-order matrix (``_band`` is ``None``) that the band factor
    refused; there is no size budget.  Either way :meth:`solve` takes
    and returns vectors in the layout's band order.
    """

    __slots__ = ("_layout", "_lu", "_band", "_coupling", "_schur",
                 "overlay", "norm1")

    def __init__(self, layout: _BandLayout, overlay: np.ndarray,
                 norm1: float, lu=None, band: Optional[tuple] = None):
        self._layout = layout
        self._lu = lu
        self._band, self._coupling, self._schur = band or (None,) * 3
        self.overlay = overlay
        self.norm1 = norm1

    @property
    def banded(self) -> bool:
        """Whether this is a banded Cholesky factor."""
        return self._band is not None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one band-ordered RHS vector or ``(n, k)``
        block; the answer is in band order too.

        On the band path each column is a copy and, in place on it, a
        forward ``dtbsv`` pass ``y = L^-1 b_I``, the border solve
        ``x_B = S^-1 (b_B - W^T y)`` with ``y -= W x_B``, and a
        transposed ``dtbsv`` pass ``x_I = L^-T y``, so column ``j`` of
        a block is bitwise the solve of that column.  An ``splu``
        factor solves in natural order between two permutations.  It
        runs at the caller's OpenBLAS thread count and floating-point
        error state (the operator's public calls hold both).
        """
        layout = self._layout
        if self._lu is not None:
            return self._lu.solve(rhs[layout.inverse])[layout.perm]
        solution = rhs.copy(order="F")
        bandwidth, interior = layout.width - 1, layout.interior
        for x in solution.T if solution.ndim == 2 else (solution,):
            dtbsv(bandwidth, self._band, x, lower=1, overwrite_x=1)
            if self._schur is not None:
                head, tail = x[:interior], x[interior:]
                tail -= self._coupling.T @ head
                dpotrs(self._schur, tail, lower=1, overwrite_b=1)
                head -= self._coupling @ tail
            dtbsv(bandwidth, self._band, x, lower=1, trans=1,
                  overwrite_x=1)
        return solution


class KrylovState:
    """What one solve sequence already knows: its last factor and its
    last accepted vector answer.

    Pass one as ``warm`` to every solve of a sequence; the operator
    fills it on the first solve and replaces the factor when PCG misses
    or an adjoint block comes at another overlay.  ``vector`` is the
    last ``(n,)`` answer, where a warm PCG begins.  It pickles empty:
    factors never cross a process boundary.
    """

    __slots__ = ("factor", "vector")

    def __init__(self) -> None:
        self.factor: Optional[Factorization] = None
        self.vector: Optional[np.ndarray] = None

    def reset(self) -> None:
        """Drop the held factor and answer (the next warm solve
        factors fresh)."""
        self.factor = None
        self.vector = None

    def holds(self, overlay: np.ndarray) -> bool:
        """Whether the held factor was made at exactly ``overlay``."""
        return self.factor is not None \
            and np.array_equal(self.factor.overlay, overlay)

    def accept(self, solution: np.ndarray) -> None:
        """Hold a guarded vector ``solution`` (a copy) as the next PCG
        start; a block is not held."""
        if solution.ndim == 1:
            self.vector = solution.copy()

    def __reduce__(self):
        return (KrylovState, ())


class ThermalOperator:
    """Structure/state split over one finalized static matrix.

    Immutable in structure and cheap in state: :meth:`solve` writes the
    diagonal overlay into a preallocated band-ordered CSR ``data``
    array, solves directly or by PCG against the caller's
    :class:`KrylovState` in that order, and applies the singularity and
    degeneracy guards.  The natural-order CSC serves the SuperLU
    fallback and the condition estimates.
    """

    def __init__(self, static: csr_matrix, border: Sequence[int] = ()):
        """Build the operator structure from a static CSR matrix.

        Args:
            static: Finalized static conductance matrix, W/K entries.
            border: Nodes the band factor orders last and eliminates
                through a dense Schur complement (the network's
                periphery nodes, each coupled to a whole grid edge),
                when that makes the factor smaller.

        Raises :class:`ConfigurationError` unless ``static`` is square
        and exactly symmetric (a conductance network always is).
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
        if (csc != csc.T).nnz:
            raise ConfigurationError(
                "static matrix must be exactly symmetric")
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
        # Every overlay is diagonal, so the symmetric static matrix
        # stays symmetric under any overlay and one layout serves them
        # all; the operator computes in its band order.
        self._layout = _BandLayout.of(csc, border)
        self._matrix: csr_matrix = self._layout.matrix.copy()
        self._static_diagonal = self._matrix.data[self._layout.diagonal]
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

    def _load(self, overlay: np.ndarray) -> csr_matrix:
        """Write ``static + diag(overlay)`` (``overlay`` in natural
        order) into the band-ordered CSR scratch data; only its
        diagonal ever changes."""
        self._matrix.data[self._layout.diagonal] = \
            self._static_diagonal + overlay
        return self._matrix

    def _load_natural(self, overlay: np.ndarray) -> csc_matrix:
        """Write ``static + diag(overlay)`` into the natural-order CSC
        scratch data (for SuperLU and the condition estimates)."""
        np.copyto(self._csc.data, self._base_data)
        self._csc.data[self._diag_index] += overlay
        return self._csc

    def _norm1(self) -> float:
        """1-norm of the matrix currently loaded by :meth:`_load`."""
        diagonal = np.abs(self._matrix.data[self._layout.diagonal])
        return float(np.max(self._off_diagonal_norms + diagonal))

    def factor(self, diag_overlay: np.ndarray) -> Factorization:
        """Fresh factorization of ``static + diag(overlay)``: banded
        Cholesky on every grid (there is no size budget); ``splu`` only
        when the band factor refuses the matrix, because it is not
        positive definite.

        Raises :class:`SingularNetworkError` (with a condition-number
        estimate) when SuperLU cannot factor a refused matrix either.
        """
        overlay = self._checked_overlay(diag_overlay)
        started = monotonic()
        data = self._load(overlay).data
        norm1 = self._norm1()
        with one_blas_thread():
            band = self._layout.cholesky(data)
        if band is not None:
            self._counted_factor(started)
            return Factorization(self._layout, overlay.copy(), norm1,
                                 band=band)
        csc = self._load_natural(overlay)
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
        self._counted_factor(started)
        return Factorization(self._layout, overlay.copy(), norm1, lu=lu)

    def _counted_factor(self, started: float) -> None:
        self._count("factorizations")
        self._count("factor_seconds", monotonic() - started)
        if _obs.STATE.enabled:
            _obs.STATE.tracer.event("operator.factorize")

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
        with one_blas_thread(), np.errstate(all="ignore"):
            temps = self._solve(overlay, rhs_arr, warm, tolerance)
        self._count("solves")
        self._count("solve_seconds", monotonic() - started)
        return temps

    def solve_adjoint(self, diag_overlay: np.ndarray, rhs: np.ndarray,
                      warm: Optional[KrylovState] = None) -> np.ndarray:
        """Solve the adjoint system ``(static + diag(overlay))^T x = rhs``.

        The operator is symmetric, so this is the forward path on one
        RHS vector or an ``(n, k)`` block (``k >= 1``; a block off the
        held overlay factors fresh); the count lands in
        :attr:`OperatorStats.adjoint_solves`, never in ``solves``.
        """
        overlay = self._checked_overlay(diag_overlay)
        rhs_arr = np.asarray(rhs, dtype=float)
        if rhs_arr.shape[:1] != (self._n,) or rhs_arr.ndim > 2 \
                or rhs_arr.size == 0:
            raise ConfigurationError(
                f"Adjoint RHS must have shape ({self._n},) or "
                f"({self._n}, k >= 1), got {rhs_arr.shape}")
        started = monotonic()
        with one_blas_thread(), np.errstate(all="ignore"):
            duals = self._solve(overlay, rhs_arr, warm, KRYLOV_TOLERANCE)
        self._count("adjoint_solves",
                    1 if rhs_arr.ndim == 1 else rhs_arr.shape[1])
        self._count("solve_seconds", monotonic() - started)
        return duals

    def _solve(self, overlay: np.ndarray, rhs: np.ndarray,
               warm: Optional[KrylovState],
               tolerance: float) -> np.ndarray:
        """Exact-repeat, PCG (vectors) or fresh-factor solve, guarded,
        in band order: ``rhs`` goes in and the answer comes out through
        one permutation each.  A warm vector solution that passes the
        guards becomes the sequence's held answer."""
        layout = self._layout
        rhs = rhs[layout.perm]
        solution = None
        if warm is not None and warm.factor is not None:
            if warm.holds(overlay):
                self._count("cache_hits")
                solution = self._back_solve(warm.factor, overlay, rhs)
            elif rhs.ndim == 1:
                start = None
                if warm.vector is not None:
                    self._count("held_starts")
                    start = warm.vector[layout.perm]
                solution = self._pcg(self._load(overlay), rhs,
                                     warm.factor, start, tolerance)
                if solution is not None:
                    self._count("krylov_solves")
                    self._guard(solution, rhs, overlay, self._norm1(),
                                None)
        if solution is None:
            factor = self.factor(overlay)
            if warm is not None:
                self._count("fresh_factorizations")
            solution = self._back_solve(factor, overlay, rhs)
            # Only a factor whose solve passed the guards
            # preconditions the rest of the sequence.
            if warm is not None:
                warm.factor = factor
        solution = solution[layout.inverse]
        if warm is not None:
            warm.accept(solution)
        return solution

    def _back_solve(self, factor: Factorization, overlay: np.ndarray,
                    rhs: np.ndarray) -> np.ndarray:
        solution = factor.solve(rhs)
        self._guard(solution, rhs, overlay, factor.norm1, factor._lu)
        return solution

    def _pcg(self, matrix: csr_matrix, rhs: np.ndarray,
             preconditioner: Factorization, start: Optional[np.ndarray],
             tolerance: float) -> Optional[np.ndarray]:
        """Scalar PCG on one band-ordered RHS vector, preconditioned by
        a factor of a nearby overlay, updating its vectors in place
        (``start``, a band-ordered copy, becomes the answer); ``None``
        when it misses its budget, meets ``p^T A p <= 0`` or
        ``rho <= 0``, or a non-finite iterate.

        Raises :class:`IndefiniteSystemError` when a step's curvature
        certifies ``matrix`` indefinite (see :data:`INDEFINITE_MARGIN`).
        """
        iterations = 0
        witness = None
        solution = preconditioner.solve(rhs) if start is None else start
        residual = rhs - matrix @ solution
        z = preconditioner.solve(residual)
        tolerance *= min(1.0, float(np.abs(solution).max()))
        # A NaN error estimate fails this test, and the next curvature
        # test (NaN > 0 is False) fails the solve.
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
            direction *= rho_next / rho
            direction += z
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

    def _guard(self, temps: np.ndarray, rhs: np.ndarray,
               overlay: np.ndarray, norm1: float, lu) -> None:
        """Singularity/degeneracy checks shared by every solve path.

        A singular-to-working-precision matrix often still factors (the
        pivots round to tiny nonzeros) and yields an absurdly amplified
        or non-finite solution; the dimensionless growth
        ``||x|| ||A|| / ||b||`` lower-bounds ``cond_1(A)``, and healthy
        thermal systems sit many orders of magnitude below the limit.
        ``norm1`` is the 1-norm of the matrix actually solved.  When
        ``lu`` is an ``splu`` factor of that matrix it is handed to
        :func:`condition_estimate`, so the diagnostic reuses it instead
        of refactorizing (a PCG result or a band factor passes
        ``None``, and the estimate factors on this failure path only).
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
        estimate = condition_estimate(self._load_natural(overlay), lu=lu)
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
