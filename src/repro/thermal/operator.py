"""Build-once/update-many sparse thermal operator.

Every steady-state query solves ``(G_static + diag(overlay)) T = rhs``
(the KCL dual of Constraint 14).  The *structure* of that system — the
node graph, the sparsity pattern, the CSC storage layout — is fixed the
moment the network finalizes; only the per-operating-point *state* (the
diagonal overlay and the right-hand side) changes between solves.  This
module separates the two:

* :class:`ThermalOperator` owns the structure: one CSC matrix with every
  diagonal entry stored explicitly, the baseline ``data`` array of the
  static conductances, and a precomputed index map from node ``i`` to
  the position of entry ``(i, i)`` inside ``csc.data``.  Applying an
  overlay is then two vectorized array writes — no COO/CSR/CSC
  round-trips, no matrix additions, no fresh allocations.
* :class:`Factorization` wraps one ``splu`` factor of the operator at a
  specific overlay.  Factors are cached in an LRU keyed by a digest of
  the overlay, so repeated solves at the same operating point (leakage
  iterations at a converged linearization point, re-evaluations after a
  cache clear, campaign stages revisiting the canonical initial point,
  transient steps under constant schedules) back-substitute instead of
  refactorizing.

Keying and bit-identity: the digest hashes the overlay's exact float64
bytes, so a cache hit implies the matrix is bit-for-bit the one the
factor was computed from and the operator path is bit-identical to a
fresh factorization.

SuperLU note: ``scipy.sparse.linalg.spsolve`` and ``splu(...).solve``
run the same SuperLU driver and produce bit-identical solutions for
these systems (verified in ``tests/test_operator.py``), so routing the
legacy :meth:`repro.thermal.ThermalNetwork.solve` through this layer
changes no fault-free result.
"""

from __future__ import annotations

import hashlib
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from ..errors import ConfigurationError, SingularNetworkError
from ..obs import runtime as _obs
from ..obs.clock import monotonic

#: Dimensionless solution-amplification limit above which a finite
#: sparse solve is declared numerically degenerate (see
#: :meth:`ThermalOperator.solve`).  Physical packages stay below ~1e6.
_DEGENERACY_GROWTH_LIMIT = 1.0e13

#: Default number of cached factorizations.  Each entry holds one
#: SuperLU factor (roughly the fill-in of the matrix, a few hundred kB
#: at production grid resolutions), so the default working set stays in
#: the tens of MB.
DEFAULT_FACTOR_CAPACITY = 64


@dataclass(frozen=True)
class OperatorStats:
    """Counters of one :class:`ThermalOperator`'s lifetime.

    Attributes:
        solves: Forward right-hand sides solved.
        factorizations: Sparse LU factorizations performed.
        cache_hits: Solves served from a cached factorization.
        cache_evictions: Factorizations dropped by the LRU cap.
        adjoint_solves: Transposed-system right-hand sides solved by
            the gradient path (counted separately from ``solves`` so
            forward-solve comparisons stay meaningful).
    """

    solves: int
    factorizations: int
    cache_hits: int
    cache_evictions: int
    adjoint_solves: int = 0

    @property
    def reuse_ratio(self) -> float:
        """Fraction of factor requests served from the cache."""
        total = self.factorizations + self.cache_hits
        return self.cache_hits / total if total else 0.0


class Factorization:
    """One ``splu`` factor of ``static + diag(overlay)``.

    Holds everything a back-substitution needs so cached reuse never
    touches the operator's mutable CSC scratch matrix: the SuperLU
    object, the matrix 1-norm (for the degeneracy guard), and the
    digest it is filed under.
    """

    __slots__ = ("_lu", "digest", "norm1", "solve_count")

    def __init__(self, lu, digest: bytes, norm1: float):
        self._lu = lu
        self.digest = digest
        self.norm1 = norm1
        self.solve_count = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one RHS vector or an ``(n, k)`` RHS block."""
        self.solve_count += 1
        with np.errstate(all="ignore"):
            return self._lu.solve(rhs)

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute the *transposed* system ``A^T x = rhs``.

        The adjoint entry point: SuperLU stores one factorization of
        ``A`` and serves both ``A x = b`` and ``A^T x = b`` from it, so
        a gradient costs a back-substitution — never a second
        factorization.  Accepts one RHS vector or an ``(n, k)`` block.
        """
        self.solve_count += 1
        with np.errstate(all="ignore"):
            return self._lu.solve(rhs, trans="T")


class _OperatorInstruments:
    """Telemetry handles resolved once per installed registry.

    ``metrics.counter(name)`` is a dict lookup plus a string hash per
    call; on the warm-solve path (a few hundred microseconds of
    back-substitution) that resolution cost plus two clock reads was
    the bulk of the enabled-session overhead measured by
    ``benchmarks/bench_obs_overhead.py``.  One of these is built the
    first time an operator observes a given registry and reused until
    a different registry is installed (sessions install fresh
    registries, so identity comparison is the correct invalidation).
    """

    __slots__ = ("metrics", "solves", "solve_seconds", "factor_hits",
                 "factorizations", "factorize_seconds",
                 "factor_evictions", "_tick")

    #: Only every Nth warm solve is timed: the latency histogram needs
    #: a sample, not a census, and the two ``monotonic()`` reads are
    #: the single largest per-solve cost of an enabled session.
    SAMPLE_EVERY = 16

    def __init__(self, metrics) -> None:
        self.metrics = metrics
        self.solves = metrics.counter("operator.solves")
        self.solve_seconds = metrics.histogram(
            "operator.solve_seconds")
        self.factor_hits = metrics.counter("operator.factor.hits")
        self.factorizations = metrics.counter(
            "operator.factorizations")
        self.factorize_seconds = metrics.histogram(
            "operator.factorize_seconds")
        self.factor_evictions = metrics.counter(
            "operator.factor.evictions")
        self._tick = 0

    def sample_solve(self) -> bool:
        """True on the solves whose latency should be observed.

        The first solve under a fresh registry always samples, so even
        a one-solve session snapshots a latency histogram; after that,
        one solve in :data:`SAMPLE_EVERY`.
        """
        tick = self._tick
        self._tick = tick + 1
        return tick % self.SAMPLE_EVERY == 0


class ThermalOperator:
    """Structure/state split over one finalized static matrix.

    The operator is immutable in structure (built once from the static
    CSR matrix) and cheap in state: :meth:`solve` writes the diagonal
    overlay into a preallocated CSC ``data`` array through the
    precomputed diagonal index map, factorizes (or reuses a cached
    factor), back-substitutes, and applies the same singularity and
    degeneracy guards as the legacy solve path.
    """

    def __init__(self, static: csr_matrix,
                 factor_capacity: int = DEFAULT_FACTOR_CAPACITY):
        """Build the operator structure from a static CSR matrix.

        Args:
            static: Finalized static conductance matrix, W/K entries.
            factor_capacity: LRU cap on cached factorizations (>= 1).
        """
        if factor_capacity < 1:
            raise ConfigurationError(
                f"factor_capacity must be >= 1, got {factor_capacity}")
        n = static.shape[0]
        if static.shape != (n, n):
            raise ConfigurationError(
                f"static matrix must be square, got {static.shape}")
        self._n = n
        self._capacity = int(factor_capacity)
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
        self._diag_index = self._build_diag_index(csc)
        self._lru: "OrderedDict[bytes, Factorization]" = OrderedDict()
        self._solves = 0
        self._factorizations = 0
        self._hits = 0
        self._evictions = 0
        self._adjoint_solves = 0
        self._obs_handles: Optional[_OperatorInstruments] = None

    def _instruments(self) -> _OperatorInstruments:
        """Handles for the currently installed registry (cached)."""
        handles = self._obs_handles
        metrics = _obs.STATE.metrics
        if handles is None or handles.metrics is not metrics:
            handles = _OperatorInstruments(metrics)
            self._obs_handles = handles
            # Once per registry: snapshot-time gauges mirroring
            # :attr:`stats` (held weakly — see ``add_collector``).
            metrics.add_collector(self._stats_gauges)
        return handles

    def _stats_gauges(self) -> dict:
        """Gauge contributions mirroring the lifetime :attr:`stats`.

        Distinct ``operator.stats.*`` names: the per-event
        ``operator.*`` counters above are registered as counters, and
        a name is bound to one instrument type per registry.
        """
        return {
            "operator.stats.solves": float(self._solves),
            "operator.stats.factorizations":
                float(self._factorizations),
            "operator.stats.factor_hits": float(self._hits),
            "operator.stats.factor_evictions": float(self._evictions),
            "operator.stats.adjoint_solves":
                float(self._adjoint_solves),
            "operator.stats.factor_cache_size": float(len(self._lru)),
        }

    @staticmethod
    def _build_diag_index(csc: csc_matrix) -> np.ndarray:
        """Position of entry ``(j, j)`` inside ``csc.data`` per node."""
        n = csc.shape[0]
        index = np.empty(n, dtype=np.int64)
        indptr, indices = csc.indptr, csc.indices
        for j in range(n):
            start, stop = indptr[j], indptr[j + 1]
            pos = start + int(np.searchsorted(indices[start:stop], j))
            if pos >= stop or indices[pos] != j:
                raise ConfigurationError(
                    f"no diagonal storage slot for node {j}")
            index[j] = pos
        return index

    # -- introspection ------------------------------------------------

    @property
    def node_count(self) -> int:
        """Dimension of the operator."""
        return self._n

    @property
    def factor_capacity(self) -> int:
        """LRU cap on cached factorizations."""
        return self._capacity

    @property
    def cached_factor_count(self) -> int:
        """Factorizations currently held by the LRU."""
        return len(self._lru)

    @property
    def stats(self) -> OperatorStats:
        """Lifetime counters (solves, factorizations, hits, evictions)."""
        return OperatorStats(
            solves=self._solves,
            factorizations=self._factorizations,
            cache_hits=self._hits,
            cache_evictions=self._evictions,
            adjoint_solves=self._adjoint_solves)

    def clear(self) -> None:
        """Drop every cached factorization (counters are kept)."""
        self._lru.clear()

    def reset_stats(self) -> None:
        """Zero the lifetime counters (the cache is kept)."""
        self._solves = 0
        self._factorizations = 0
        self._hits = 0
        self._evictions = 0
        self._adjoint_solves = 0

    # -- pickling -----------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the structure, not the process-local state.

        SuperLU factor objects hold pointers into native memory and
        cannot cross a process boundary, so the LRU is dropped and the
        lifetime counters are zeroed: an unpickled operator starts cold
        in its new process (the worker rebuilds factors on demand,
        which is exactly the exec layer's cache-locality contract).
        """
        state = self.__dict__.copy()
        state["_lru"] = OrderedDict()
        state["_solves"] = 0
        state["_factorizations"] = 0
        state["_hits"] = 0
        state["_evictions"] = 0
        state["_adjoint_solves"] = 0
        state["_obs_handles"] = None
        return state

    # -- state application --------------------------------------------

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

    def _digest(self, overlay: np.ndarray) -> bytes:
        return hashlib.blake2b(overlay.tobytes(),
                               digest_size=16).digest()

    def factor(self, diag_overlay: np.ndarray) -> Factorization:
        """Factorization of ``static + diag(overlay)``, cached by LRU.

        Raises :class:`SingularNetworkError` (with a condition-number
        estimate) when the matrix does not factor; failures are never
        cached.
        """
        overlay = self._checked_overlay(diag_overlay)
        key = self._digest(overlay)
        cached = self._lru.get(key)
        if cached is not None:
            self._lru.move_to_end(key)
            self._hits += 1
            if _obs.STATE.enabled:
                self._instruments().factor_hits.inc()
            return cached
        started = monotonic() if _obs.STATE.enabled else 0.0
        csc = self._load(overlay)
        norm1 = float(np.abs(csc).sum(axis=0).max())
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
        self._factorizations += 1
        factorization = Factorization(lu, key, norm1)
        self._lru[key] = factorization
        evicted = False
        if len(self._lru) > self._capacity:
            self._lru.popitem(last=False)
            self._evictions += 1
            evicted = True
        if _obs.STATE.enabled:
            handles = self._instruments()
            handles.factorizations.inc()
            handles.factorize_seconds.observe(monotonic() - started)
            if evicted:
                handles.factor_evictions.inc()
            _obs.STATE.tracer.event(
                "operator.factorize", cached=len(self._lru),
                evicted=evicted)
        return factorization

    # -- solving ------------------------------------------------------

    def solve(self, diag_overlay: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
        """Solve ``(static + diag(overlay)) T = rhs`` for one RHS.

        Semantically identical to the legacy
        :meth:`repro.thermal.ThermalNetwork.solve`: raises
        :class:`SingularNetworkError` on singular or numerically
        degenerate systems, chaining the linear-algebra diagnostic and
        a 1-norm condition estimate.
        """
        overlay = self._checked_overlay(diag_overlay)
        rhs_arr = np.asarray(rhs, dtype=float)
        if rhs_arr.shape != (self._n,):
            raise ConfigurationError(
                f"RHS must have shape ({self._n},), got {rhs_arr.shape}")
        handles = self._instruments() if _obs.STATE.enabled else None
        sampled = handles is not None and handles.sample_solve()
        started = monotonic() if sampled else 0.0
        factorization = self.factor(overlay)
        temps = factorization.solve(rhs_arr)
        self._solves += 1
        self._guard(temps, rhs_arr, overlay, factorization)
        if handles is not None:
            handles.solves.inc()
            if sampled:
                handles.solve_seconds.observe(monotonic() - started)
        return temps

    def solve_adjoint(self, diag_overlay: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
        """Solve the transposed system ``(static + diag(overlay))^T x = rhs``.

        The gradient entry point: factors through the same LRU as the
        forward path (an adjoint at a just-solved operating point is a
        guaranteed cache hit) and back-substitutes the transposed
        system from the shared factor.  Accepts one RHS vector or an
        ``(n, k)`` block of adjoint right-hand sides; the solve count
        lands in :attr:`OperatorStats.adjoint_solves`, never in
        ``solves``, so forward-solve comparisons stay clean.
        """
        overlay = self._checked_overlay(diag_overlay)
        rhs_arr = np.asarray(rhs, dtype=float)
        if rhs_arr.shape[0] != self._n or rhs_arr.ndim > 2:
            raise ConfigurationError(
                f"Adjoint RHS must have shape ({self._n},) or "
                f"({self._n}, k), got {rhs_arr.shape}")
        factorization = self.factor(overlay)
        duals = factorization.solve_transpose(rhs_arr)
        count = 1 if rhs_arr.ndim == 1 else rhs_arr.shape[1]
        self._adjoint_solves += count
        self._guard(duals, rhs_arr, overlay, factorization)
        return duals

    def _guard(self, temps: np.ndarray, rhs: np.ndarray,
               overlay: np.ndarray,
               factorization: Factorization) -> None:
        """Singularity/degeneracy checks shared by every solve path.

        A singular-to-working-precision matrix often still factors (the
        pivots round to tiny nonzeros) and yields an absurdly amplified
        or non-finite solution; the dimensionless growth
        ``||x|| ||A|| / ||b||`` lower-bounds ``cond_1(A)``, and healthy
        thermal systems sit many orders of magnitude below the limit.
        The live factor is handed to :func:`condition_estimate` so the
        diagnostic reuses it instead of refactorizing the matrix it
        just factored.
        """
        if not np.all(np.isfinite(temps)):
            estimate = condition_estimate(self._load(overlay),
                                          lu=factorization._lu)
            raise SingularNetworkError(
                "Thermal system is singular or numerically degenerate "
                f"(1-norm condition estimate {estimate:.3e})",
                condition_estimate=estimate)
        rhs_scale = float(np.abs(rhs).max())
        if rhs_scale > 0.0:
            growth = (float(np.abs(temps).max())
                      * factorization.norm1 / rhs_scale)
            if growth > _DEGENERACY_GROWTH_LIMIT:
                estimate = condition_estimate(self._load(overlay),
                                              lu=factorization._lu)
                raise SingularNetworkError(
                    "Thermal system is numerically degenerate: solution "
                    f"amplification {growth:.3e} exceeds "
                    f"{_DEGENERACY_GROWTH_LIMIT:.1e} (1-norm condition "
                    f"estimate {estimate:.3e})",
                    condition_estimate=estimate)


def condition_estimate(matrix, lu=None) -> float:
    """Cheap 1-norm condition estimate ``||A||_1 * est(||A^-1||_1)``.

    Used on the failure path only: a Hager-style norm estimate against
    a sparse LU factor, orders of magnitude cheaper than a dense
    condition number.  When the caller already holds a factorization of
    ``matrix`` (the operator's guard path always does), pass it as
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
    "DEFAULT_FACTOR_CAPACITY",
    "Factorization",
    "OperatorStats",
    "ThermalOperator",
    "condition_estimate",
]
