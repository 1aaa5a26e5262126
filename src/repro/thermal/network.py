"""Generic sparse thermal network with static base and dynamic overlays.

The steady-state balance is the KCL dual of Equation (14):

    sum_j g_ij (T_i - T_j) + g_amb,i (T_i - T_amb) = p_i    for every node i

written in matrix form ``G T = P``.  The network splits into

* a **static** part — all geometry-derived conductances, built once per
  package configuration and cached as a CSR matrix, and
* a **dynamic overlay** — per-evaluation diagonal increments (fan-dependent
  ambient coupling, Peltier ``-/+ alpha*I*T`` terms, leakage Taylor slopes)
  and right-hand-side injections (dynamic power, Joule heat, leakage
  constants, ambient sources),

so that one ``(omega, I_TEC)`` evaluation costs at most a single sparse
factorization of ``static + diag(overlay)`` — and usually none at all:
solving is delegated to a lazily built
:class:`~repro.thermal.operator.ThermalOperator`, which applies overlays
in place through a precomputed diagonal index map and, given a caller's
:class:`~repro.thermal.operator.KrylovState`, solves by preconditioned
CG against that sequence's last factor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix, diags

from ..errors import ConfigurationError
from .operator import (
    KRYLOV_TOLERANCE,
    KrylovState,
    ThermalOperator,
    condition_estimate,
)

__all__ = [
    "NodeInfo",
    "NodeKind",
    "ThermalNetwork",
    "condition_estimate",
]


class NodeKind(enum.Enum):
    """What a network node physically represents."""

    BULK = "bulk"              # a grid cell inside a conduction layer
    CHIP = "chip"              # a grid cell of the chip (power-generating)
    TEC_ABS = "tec-abs"        # TEC cold-side absorption node
    TEC_GEN = "tec-gen"        # TEC Joule-generation node
    TEC_REJ = "tec-rej"        # TEC hot-side rejection node
    FILLER = "filler"          # uncovered cell in the TEC layer
    PERIPHERY = "periphery"    # spreader/sink ring node beyond the chip


@dataclass(frozen=True)
class NodeInfo:
    """Metadata attached to a node.

    Attributes:
        name: Unique node identifier (for debugging and lookups).
        kind: Physical role of the node.
        layer: Stack layer the node belongs to.
        cell: Flat grid-cell index, or -1 for periphery nodes.
        heat_capacity: Lumped capacity in J/K (used by the transient
            solver; 0 means "quasi-static node").
    """

    name: str
    kind: NodeKind
    layer: str
    cell: int = -1
    heat_capacity: float = 0.0


class ThermalNetwork:
    """Sparse node/conductance graph with two-phase assembly.

    Phase 1 (build): :meth:`add_node` and :meth:`add_conductance` register
    geometry.  Phase 2 (:meth:`finalize`): the static CSR matrix is built.
    After finalization, :meth:`solve` accepts per-evaluation diagonal and
    RHS overlays.
    """

    def __init__(self) -> None:
        self._infos: List[NodeInfo] = []
        self._by_name: Dict[str, int] = {}
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._vals: List[float] = []
        self._static: Optional[csr_matrix] = None
        self._operator: Optional[ThermalOperator] = None

    # -- phase 1: construction ------------------------------------------------

    def add_node(self, info: NodeInfo) -> int:
        """Register a node; returns its index."""
        if self._static is not None:
            raise ConfigurationError("Network already finalized")
        if info.name in self._by_name:
            raise ConfigurationError(f"Duplicate node name {info.name!r}")
        idx = len(self._infos)
        self._infos.append(info)
        self._by_name[info.name] = idx
        return idx

    def add_conductance(self, i: int, j: int, g: float) -> None:
        """Add a two-terminal thermal conductance ``g`` (W/K) between nodes.

        Contributes ``+g`` to both diagonals and ``-g`` off-diagonal,
        keeping the static matrix symmetric.
        """
        if self._static is not None:
            raise ConfigurationError("Network already finalized")
        self._check_index(i)
        self._check_index(j)
        if i == j:
            raise ConfigurationError(f"Self-conductance on node {i}")
        if g <= 0.0:
            raise ConfigurationError(
                f"Conductance must be positive, got {g} between "
                f"{self._infos[i].name} and {self._infos[j].name}")
        self._rows.extend((i, j, i, j))
        self._cols.extend((i, j, j, i))
        self._vals.extend((g, g, -g, -g))

    def add_grounded_conductance(self, i: int, g: float) -> None:
        """Add a *static* conductance from node ``i`` to the ambient rail.

        Only the diagonal term is stored here; the ambient source term
        ``g * T_amb`` must be supplied in the per-solve RHS overlay (the
        model layer owns the ambient temperature).
        """
        if self._static is not None:
            raise ConfigurationError("Network already finalized")
        self._check_index(i)
        if g <= 0.0:
            raise ConfigurationError(f"Conductance must be positive, got {g}")
        self._rows.append(i)
        self._cols.append(i)
        self._vals.append(g)

    def finalize(self) -> None:
        """Build the static CSR matrix; the network becomes immutable."""
        if self._static is not None:
            raise ConfigurationError("Network already finalized")
        n = len(self._infos)
        if n == 0:
            raise ConfigurationError("Network has no nodes")
        coo = coo_matrix(
            (np.array(self._vals, dtype=float),
             (np.array(self._rows, dtype=int),
              np.array(self._cols, dtype=int))),
            shape=(n, n))
        self._static = coo.tocsr()
        self._static.sum_duplicates()

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship a finalized network without its build-phase dead weight.

        The COO build lists are unreachable once :meth:`finalize` has
        run (every mutator raises), so they are dropped from the pickle
        stream.
        """
        state = self.__dict__.copy()
        if self._static is not None:
            state["_rows"] = []
            state["_cols"] = []
            state["_vals"] = []
        return state

    # -- queries --------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of registered nodes."""
        return len(self._infos)

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` has run."""
        return self._static is not None

    def info(self, idx: int) -> NodeInfo:
        """Metadata of node ``idx``."""
        self._check_index(idx)
        return self._infos[idx]

    def index_of(self, name: str) -> int:
        """Node index by unique name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigurationError(f"No node named {name!r}") from None

    def nodes_of_kind(self, kind: NodeKind) -> List[int]:
        """Indices of all nodes with the given kind."""
        return [i for i, info in enumerate(self._infos) if info.kind is kind]

    def nodes_of_layer(self, layer: str) -> List[int]:
        """Indices of all nodes in the given stack layer."""
        return [i for i, info in enumerate(self._infos)
                if info.layer == layer]

    @property
    def static_matrix(self) -> csr_matrix:
        """The finalized static conductance matrix (copy)."""
        if self._static is None:
            raise ConfigurationError("Network not finalized")
        return self._static.copy()

    def heat_capacities(self) -> np.ndarray:
        """Per-node lumped heat capacities (J/K)."""
        return np.array([info.heat_capacity for info in self._infos])

    # -- phase 2: solving -----------------------------------------------------

    @property
    def operator(self) -> ThermalOperator:
        """The build-once/update-many solve engine (lazily constructed).

        One operator per finalized network: it owns the precomputed CSC
        structure and the diagonal index map, and every :meth:`solve`
        call routes through it.  It holds no factors: those belong to
        each caller's :class:`~repro.thermal.operator.KrylovState`.
        """
        if self._static is None:
            raise ConfigurationError("Network not finalized")
        if self._operator is None:
            self._operator = ThermalOperator(
                self._static, self.nodes_of_kind(NodeKind.PERIPHERY))
        return self._operator

    def system(self, diag_overlay: np.ndarray, rhs: np.ndarray,
               ) -> Tuple[csr_matrix, np.ndarray]:
        """Assemble ``(static + diag(overlay), rhs)`` for one evaluation.

        This materializes a fresh matrix — diagnostics and fault
        injection use it; the hot solve paths go through
        :attr:`operator` instead.
        """
        if self._static is None:
            raise ConfigurationError("Network not finalized")
        overlay, rhs_arr = self._checked_overlays(diag_overlay, rhs)
        matrix = self._static + diags(overlay, format="csr")
        return matrix, rhs_arr

    def solve(self, diag_overlay: np.ndarray, rhs: np.ndarray,
              warm: Optional[KrylovState] = None, *,
              tolerance: float = KRYLOV_TOLERANCE) -> np.ndarray:
        """Solve one linear system ``(static + diag) T = rhs``.

        ``warm`` is the solve sequence's
        :class:`~repro.thermal.operator.KrylovState`, and ``tolerance``
        (K) steers its PCG (see :meth:`ThermalOperator.solve`); without
        ``warm`` the system is factored fresh.  Raises
        :class:`~repro.errors.SingularNetworkError` when the matrix is
        singular (typically a node with no path to ambient) or the
        solution is non-finite.  The error chains the underlying
        linear-algebra diagnostic and carries a condition-number estimate
        of the failed system.
        """
        overlay, rhs_arr = self._checked_overlays(diag_overlay, rhs)
        return self.operator.solve(overlay, rhs_arr, warm,
                                   tolerance=tolerance)

    def _checked_overlays(self, diag_overlay: np.ndarray,
                          rhs: np.ndarray,
                          ) -> Tuple[np.ndarray, np.ndarray]:
        if self._static is None:
            raise ConfigurationError("Network not finalized")
        n = self.node_count
        overlay = np.asarray(diag_overlay, dtype=float)
        rhs_arr = np.asarray(rhs, dtype=float)
        if overlay.shape != (n,) or rhs_arr.shape != (n,):
            raise ConfigurationError(
                f"Overlay/RHS must have shape ({n},), got "
                f"{overlay.shape} and {rhs_arr.shape}")
        return overlay, rhs_arr

    def _check_index(self, idx: int) -> None:
        if not (0 <= idx < len(self._infos)):
            raise ConfigurationError(
                f"Node index {idx} out of range "
                f"(network has {len(self._infos)} nodes)")
