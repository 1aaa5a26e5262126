"""Build the Figure 2 package assembly as a thermal network.

Every layer is discretized into the chip-footprint grid (Figure 3's
six-resistor elements: four lateral neighbors plus up/down interfaces).
Layers wider than the chip (heat spreader, TIM2, heat sink) additionally
get four peripheral ring nodes, HotSpot-style, so heat can spread beyond
the die shadow.  The TEC layer expands into the three sub-layers of
Figure 4 — absorption, generation, rejection — on covered cells, and a
paste-filled conduction node on uncovered cells (the I/D cache region).

The fan enters through the sink-to-ambient coupling: the total
``g_HS&fan(omega)`` of Equation (9) is distributed over the heat-sink
nodes by exposed area and applied per evaluation as a diagonal/RHS
overlay, because it depends on the optimization variable ``omega``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..constants import (
    LEAKAGE_LOOP_MAX_ITER,
    LEAKAGE_LOOP_TOLERANCE,
    RUNAWAY_TEMPERATURE_CEILING,
    T_AMBIENT,
)
from ..errors import ConfigurationError
from ..fan import HeatSinkFanConductance
from ..geometry import Grid
from ..materials import Layer, LayerRole, PackageStack, THERMAL_PASTE
from ..materials.properties import Material
from ..tec import TECArray
from .network import NodeInfo, NodeKind, ThermalNetwork

_SIDES = ("west", "east", "south", "north")


@dataclass(frozen=True)
class PackageModelConfig:
    """Knobs of the package thermal model.

    Attributes:
        ambient: Ambient temperature, K (paper: 318 K).
        pcb_ambient_conductance: Total secondary-path conductance from the
            bottom layer (PCB) to ambient, W/K.  The paper's primary path
            is the sink; this small constant keeps the network grounded
            even at omega = 0.
        filler_material: Material filling uncovered TEC-layer cells.
        runaway_ceiling: Chip temperature (K) above which a solve is
            declared thermal runaway.
        temperature_floor: Sanity floor (K); solutions below it indicate a
            non-physical operating point (over-driven refrigeration).
        leak_tolerance: Convergence threshold of the leakage
            relinearization loop, K.
        leak_max_iterations: Iteration cap of that loop.
    """

    ambient: float = T_AMBIENT
    pcb_ambient_conductance: float = 0.1
    filler_material: Material = THERMAL_PASTE
    runaway_ceiling: float = RUNAWAY_TEMPERATURE_CEILING
    temperature_floor: float = 150.0
    leak_tolerance: float = LEAKAGE_LOOP_TOLERANCE
    leak_max_iterations: int = LEAKAGE_LOOP_MAX_ITER

    def __post_init__(self) -> None:
        if self.ambient <= 0.0:
            raise ConfigurationError("ambient must be in kelvin (> 0)")
        if self.pcb_ambient_conductance < 0.0:
            raise ConfigurationError(
                "pcb_ambient_conductance must be >= 0")
        if not (0.0 < self.temperature_floor < self.runaway_ceiling):
            raise ConfigurationError(
                "Require 0 < temperature_floor < runaway_ceiling")


def _half_vertical(layer: Layer, area: float) -> float:
    """Conductance of half a layer's thickness over ``area`` (W/K)."""
    return 2.0 * layer.material.conductivity * area / layer.thickness


def _series(g1: float, g2: float) -> float:
    """Series combination of two conductances."""
    return 1.0 / (1.0 / g1 + 1.0 / g2)


def _lateral_half(conductivity: float, thickness: float, cross: float,
                  span: float) -> float:
    """Half-cell lateral conductance: k * (t * cross) / (span / 2)."""
    return 2.0 * conductivity * thickness * cross / span


class PackageThermalModel:
    """Assembled thermal network plus the index maps the solver needs.

    Construction is the expensive step (Python-loop assembly of every
    conductance); per-evaluation work is vectorized overlay construction
    plus one sparse solve.  Use :func:`build_package_model` for the
    common construction path.
    """

    def __init__(self, stack: PackageStack, grid: Grid,
                 sink_conductance: HeatSinkFanConductance,
                 tec_array: Optional[TECArray] = None,
                 config: Optional[PackageModelConfig] = None):
        if stack.has_tec and tec_array is None:
            raise ConfigurationError(
                "Stack has a TEC layer: a TECArray is required")
        if not stack.has_tec and tec_array is not None:
            raise ConfigurationError(
                "Stack has no TEC layer: remove the TECArray")
        if tec_array is not None and tec_array.grid is not grid:
            if (tec_array.grid.nx != grid.nx
                    or tec_array.grid.ny != grid.ny
                    or abs(tec_array.grid.width - grid.width) > 1e-12
                    or abs(tec_array.grid.height - grid.height) > 1e-12):
                raise ConfigurationError(
                    "TECArray grid does not match the model grid")
        self.stack = stack
        self.grid = grid
        self.sink_conductance = sink_conductance
        self.tec_array = tec_array
        self.config = config or PackageModelConfig()

        chip = stack.chip_layer
        if (abs(chip.width - grid.width) > 1e-9
                or abs(chip.height - grid.height) > 1e-9):
            raise ConfigurationError(
                "Grid footprint must match the chip layer: "
                f"{grid.width}x{grid.height} vs {chip.width}x{chip.height}")

        self.network = ThermalNetwork()
        # Per-layer cell-node index arrays; TEC layer holds three blocks.
        self._layer_cells: Dict[str, np.ndarray] = {}
        self._periphery: Dict[str, Dict[str, int]] = {}
        self.chip_nodes: np.ndarray = np.empty(0, dtype=int)
        self.tec_abs_nodes: np.ndarray = np.empty(0, dtype=int)
        self.tec_gen_nodes: np.ndarray = np.empty(0, dtype=int)
        self.tec_rej_nodes: np.ndarray = np.empty(0, dtype=int)
        # Dynamic ambient coupling (sink side).
        self._sink_amb_nodes: np.ndarray = np.empty(0, dtype=int)
        self._sink_amb_weights: np.ndarray = np.empty(0, dtype=float)
        # Static ambient coupling (PCB side): per-node conductance vector.
        self._static_amb_g: np.ndarray = np.empty(0, dtype=float)

        self._build()

    # -- construction ---------------------------------------------------------

    def _build(self) -> None:
        self._create_nodes()
        self._connect_lateral()
        self._connect_vertical()
        self._connect_periphery()
        self._attach_static_ambient()
        self.network.finalize()
        self._static_amb_g = self._static_amb_builder
        self._finalize_index_arrays()

    def _create_nodes(self) -> None:
        grid = self.grid
        cell_area = grid.cell_area
        for layer in self.stack:
            if layer.role is LayerRole.TEC:
                self._create_tec_nodes(layer)
                continue
            rho_c = layer.material.volumetric_heat_capacity
            capacity = rho_c * cell_area * layer.thickness
            kind = NodeKind.CHIP if layer.role is LayerRole.CHIP \
                else NodeKind.BULK
            nodes = np.empty(grid.cell_count, dtype=int)
            for cell in range(grid.cell_count):
                nodes[cell] = self.network.add_node(NodeInfo(
                    name=f"{layer.name}:{cell}",
                    kind=kind, layer=layer.name, cell=cell,
                    heat_capacity=capacity))
            self._layer_cells[layer.name] = nodes
            if layer.role is LayerRole.CHIP:
                self.chip_nodes = nodes
            self._maybe_create_periphery(layer)

    def _create_tec_nodes(self, layer: Layer) -> None:
        grid = self.grid
        if self.tec_array is None:
            raise ConfigurationError(
                "stack has a TEC layer but no TEC array is configured")
        mask = self.tec_array.coverage_mask
        film_capacity = (layer.material.volumetric_heat_capacity
                         * grid.cell_area * layer.thickness)
        filler_capacity = (self.config.filler_material
                           .volumetric_heat_capacity
                           * grid.cell_area * layer.thickness)
        abs_nodes = np.full(grid.cell_count, -1, dtype=int)
        gen_nodes = np.full(grid.cell_count, -1, dtype=int)
        rej_nodes = np.full(grid.cell_count, -1, dtype=int)
        filler = np.full(grid.cell_count, -1, dtype=int)
        for cell in range(grid.cell_count):
            if mask[cell]:
                abs_nodes[cell] = self.network.add_node(NodeInfo(
                    f"{layer.name}:abs:{cell}", NodeKind.TEC_ABS,
                    layer.name, cell, film_capacity / 3.0))
                gen_nodes[cell] = self.network.add_node(NodeInfo(
                    f"{layer.name}:gen:{cell}", NodeKind.TEC_GEN,
                    layer.name, cell, film_capacity / 3.0))
                rej_nodes[cell] = self.network.add_node(NodeInfo(
                    f"{layer.name}:rej:{cell}", NodeKind.TEC_REJ,
                    layer.name, cell, film_capacity / 3.0))
            else:
                filler[cell] = self.network.add_node(NodeInfo(
                    f"{layer.name}:fill:{cell}", NodeKind.FILLER,
                    layer.name, cell, filler_capacity))
        self.tec_abs_nodes = abs_nodes
        self.tec_gen_nodes = gen_nodes
        self.tec_rej_nodes = rej_nodes
        self._tec_filler_nodes = filler
        # The "cell node" used for lateral wiring inside the TEC layer is
        # the generation (middle) node on covered cells, filler otherwise.
        self._layer_cells[layer.name] = np.where(mask, gen_nodes, filler)

    def _maybe_create_periphery(self, layer: Layer) -> None:
        chip = self.stack.chip_layer
        if layer.width <= chip.width + 1e-12:
            return
        overhang_area = (layer.footprint_area
                         - chip.width * chip.height) / len(_SIDES)
        capacity = (layer.material.volumetric_heat_capacity
                    * overhang_area * layer.thickness)
        nodes: Dict[str, int] = {}
        for side in _SIDES:
            nodes[side] = self.network.add_node(NodeInfo(
                f"{layer.name}:periph:{side}", NodeKind.PERIPHERY,
                layer.name, -1, capacity))
        self._periphery[layer.name] = nodes

    def _connect_lateral(self) -> None:
        """Four-neighbor lateral conduction inside every gridded layer."""
        grid = self.grid
        for layer in self.stack:
            cells = self._layer_cells[layer.name]
            k_cell = self._lateral_conductivities(layer)
            for ix, iy in grid.iter_cells():
                here = grid.flat_index(ix, iy)
                if ix + 1 < grid.nx:
                    there = grid.flat_index(ix + 1, iy)
                    g = _series(
                        _lateral_half(k_cell[here], layer.thickness,
                                      grid.dy, grid.dx),
                        _lateral_half(k_cell[there], layer.thickness,
                                      grid.dy, grid.dx))
                    self.network.add_conductance(
                        int(cells[here]), int(cells[there]), g)
                if iy + 1 < grid.ny:
                    there = grid.flat_index(ix, iy + 1)
                    g = _series(
                        _lateral_half(k_cell[here], layer.thickness,
                                      grid.dx, grid.dy),
                        _lateral_half(k_cell[there], layer.thickness,
                                      grid.dx, grid.dy))
                    self.network.add_conductance(
                        int(cells[here]), int(cells[there]), g)

    def _lateral_conductivities(self, layer: Layer) -> np.ndarray:
        """Per-cell lateral conductivity (TEC layer mixes film/filler)."""
        if layer.role is LayerRole.TEC:
            if self.tec_array is None:
                raise ConfigurationError(
                    "stack has a TEC layer but no TEC array is "
                    "configured")
            film = layer.material.conductivity
            paste = self.config.filler_material.conductivity
            return np.where(self.tec_array.coverage_mask, film, paste)
        return np.full(self.grid.cell_count, layer.material.conductivity)

    def _connect_vertical(self) -> None:
        """Stack consecutive layers cell by cell."""
        layers = self.stack.layers
        area = self.grid.cell_area
        for below, above in zip(layers, layers[1:]):
            if above.role is LayerRole.TEC:
                self._connect_tec_vertical(below, above, side="below")
            elif below.role is LayerRole.TEC:
                self._connect_tec_vertical(above, below, side="above")
            else:
                lower = self._layer_cells[below.name]
                upper = self._layer_cells[above.name]
                g = _series(_half_vertical(below, area),
                            _half_vertical(above, area))
                for cell in range(self.grid.cell_count):
                    self.network.add_conductance(
                        int(lower[cell]), int(upper[cell]), g)

    def _connect_tec_vertical(self, neighbor: Layer, tec: Layer,
                              side: str) -> None:
        """Wire the TEC sandwich to the layer below or above it.

        Covered cells: the neighbor couples to the TEC face node (abs below,
        rej above) through the neighbor's half thickness; the internal
        K_TEC/2 stages (conductance 2*K each) connect abs-gen-rej.
        Uncovered cells: plain series conduction through the filler.
        """
        if self.tec_array is None:
            raise ConfigurationError(
                "stack has a TEC layer but no TEC array is configured")
        grid = self.grid
        area = grid.cell_area
        mask = self.tec_array.coverage_mask
        cell_k = self.tec_array.cell_conductance
        neighbor_cells = self._layer_cells[neighbor.name]
        filler_layer = Layer("filler", LayerRole.CONDUCT,
                             self.config.filler_material,
                             tec.thickness, tec.width, tec.height)
        g_half_neighbor = _half_vertical(neighbor, area)
        g_filler = _series(g_half_neighbor,
                           _half_vertical(filler_layer, area))
        internal_done = side == "above"  # wire internals only once
        for cell in range(grid.cell_count):
            if mask[cell]:
                face = self.tec_abs_nodes[cell] if side == "below" \
                    else self.tec_rej_nodes[cell]
                self.network.add_conductance(
                    int(neighbor_cells[cell]), int(face), g_half_neighbor)
                if not internal_done:
                    two_k = 2.0 * cell_k[cell]
                    self.network.add_conductance(
                        int(self.tec_abs_nodes[cell]),
                        int(self.tec_gen_nodes[cell]), two_k)
                    self.network.add_conductance(
                        int(self.tec_gen_nodes[cell]),
                        int(self.tec_rej_nodes[cell]), two_k)
            else:
                self.network.add_conductance(
                    int(neighbor_cells[cell]),
                    int(self._tec_filler_nodes[cell]), g_filler)

    def _connect_periphery(self) -> None:
        """Ring nodes: edge-cell coupling, ring-ring, and vertical paths."""
        chip = self.stack.chip_layer
        grid = self.grid
        layers = self.stack.layers
        for layer in layers:
            if layer.name not in self._periphery:
                continue
            rings = self._periphery[layer.name]
            cells = self._layer_cells[layer.name]
            overhang = (layer.width - chip.width) / 2.0
            k = layer.material.conductivity
            for side in _SIDES:
                ring = rings[side]
                edge = grid.edge_cells(side)
                cross = grid.dy if side in ("west", "east") else grid.dx
                span = grid.dx if side in ("west", "east") else grid.dy
                # Edge-cell center to ring centroid.
                g_cell = k * layer.thickness * cross \
                    / (span / 2.0 + overhang / 2.0)
                for ix, iy in edge:
                    cell = grid.flat_index(ix, iy)
                    self.network.add_conductance(int(cells[cell]), ring,
                                                 g_cell)
            # Ring-to-ring coupling around the corners (aspect ~ 1).
            ring_pairs = [("west", "north"), ("north", "east"),
                          ("east", "south"), ("south", "west")]
            for a, b in ring_pairs:
                self.network.add_conductance(
                    rings[a], rings[b], k * layer.thickness)
        # Vertical ring-to-ring between consecutive layers that both have
        # periphery (e.g. spreader <-> TIM2 <-> sink).
        for below, above in zip(layers, layers[1:]):
            if (below.name in self._periphery
                    and above.name in self._periphery):
                area_below = (below.footprint_area
                              - chip.width * chip.height) / len(_SIDES)
                area_above = (above.footprint_area
                              - chip.width * chip.height) / len(_SIDES)
                area = min(area_below, area_above)
                g = _series(_half_vertical(below, area),
                            _half_vertical(above, area))
                for side in _SIDES:
                    self.network.add_conductance(
                        self._periphery[below.name][side],
                        self._periphery[above.name][side], g)

    def _attach_static_ambient(self) -> None:
        """Secondary (board) path: bottom layer to ambient, fan-independent."""
        builder = np.zeros(self.network.node_count, dtype=float)
        total = self.config.pcb_ambient_conductance
        bottom = self.stack.layers[0]
        if total > 0.0 and bottom.role is not LayerRole.CHIP:
            cells = self._layer_cells[bottom.name]
            per_cell = total / self.grid.cell_count
            for cell in range(self.grid.cell_count):
                self.network.add_grounded_conductance(
                    int(cells[cell]), per_cell)
                builder[int(cells[cell])] = per_cell
        self._static_amb_builder = builder

    def _finalize_index_arrays(self) -> None:
        """Precompute sink ambient weights and covered-cell helper arrays."""
        sink = self.stack.heatsink_layer
        chip = self.stack.chip_layer
        nodes: List[int] = []
        weights: List[float] = []
        cell_area = self.grid.cell_area
        sink_cells = self._layer_cells[sink.name]
        for cell in range(self.grid.cell_count):
            nodes.append(int(sink_cells[cell]))
            weights.append(cell_area)
        if sink.name in self._periphery:
            ring_area = (sink.footprint_area
                         - chip.width * chip.height) / len(_SIDES)
            for side in _SIDES:
                nodes.append(self._periphery[sink.name][side])
                weights.append(ring_area)
        weight_arr = np.array(weights, dtype=float)
        self._sink_amb_nodes = np.array(nodes, dtype=int)
        self._sink_amb_weights = weight_arr / weight_arr.sum()
        if self.tec_array is not None:
            self._covered_cells = np.flatnonzero(
                self.tec_array.coverage_mask)
        else:
            self._covered_cells = np.empty(0, dtype=int)
        # Structure-side precomputation for overlays(): the sink node
        # indices are unique, so fancy-index adds replace np.add.at;
        # the static ambient RHS never changes; the covered-cell TEC
        # node/coefficient gathers are hoisted out of the per-solve path.
        n = self.network.node_count
        self._overlay_diag = np.zeros(n, dtype=float)
        self._overlay_rhs = np.zeros(n, dtype=float)
        self._static_amb_rhs = self._static_amb_g * self.config.ambient
        cov = self._covered_cells
        if self.tec_array is not None and cov.size:
            self._cov_abs_nodes = self.tec_abs_nodes[cov]
            self._cov_rej_nodes = self.tec_rej_nodes[cov]
            self._cov_gen_nodes = self.tec_gen_nodes[cov]
            self._cov_seebeck = self.tec_array.cell_seebeck[cov]
            self._cov_resistance = self.tec_array.cell_resistance[cov]
        else:
            empty_i = np.empty(0, dtype=int)
            empty_f = np.empty(0, dtype=float)
            self._cov_abs_nodes = empty_i
            self._cov_rej_nodes = empty_i
            self._cov_gen_nodes = empty_i
            self._cov_seebeck = empty_f
            self._cov_resistance = empty_f

    # -- per-evaluation overlays --------------------------------------

    def overlays(
        self,
        omega: float,
        current: Union[float, np.ndarray],
        dynamic_cell_power: np.ndarray,
        leak_slope: np.ndarray,
        leak_const: np.ndarray,
        sink_heat: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Build the diagonal and RHS overlays for one linear solve.

        Args:
            omega: Fan speed, rad/s.
            current: TEC driving current, A — a scalar for the paper's
                single series string, or a per-cell array for
                independently-driven channels (must be 0 / absent for
                no-TEC stacks).
            dynamic_cell_power: Per-chip-cell dynamic power, W.
            leak_slope: Per-chip-cell linearized leakage slope ``a`` (W/K).
            leak_const: Per-chip-cell constant term ``b - a*t_ref`` (W).
            sink_heat: Extra heat (W) deposited on the heat-sink surface —
                the recirculated share of fan motor/air-friction power.
                This is why over-speeding the fan eventually *heats* the
                system (the paper's Figure 6 discussion).

        The Peltier terms fold into the diagonal: ``-alpha*I*T`` on the
        absorption node adds ``+alpha*I`` to its diagonal, ``+alpha*I*T``
        on the rejection node subtracts it.  Leakage slope ``a`` subtracts
        from chip diagonals.  All temperature-independent injections land
        on the RHS.

        Returns preallocated per-model buffers: the arrays are
        overwritten by the next :meth:`overlays` call on this model, so
        callers that retain them past the following solve must copy.
        """
        ncell = self.grid.cell_count
        dyn = np.asarray(dynamic_cell_power, dtype=float)
        slope = np.asarray(leak_slope, dtype=float)
        const = np.asarray(leak_const, dtype=float)
        for name, arr in (("dynamic_cell_power", dyn),
                          ("leak_slope", slope), ("leak_const", const)):
            if arr.shape != (ncell,):
                raise ConfigurationError(
                    f"{name} must have shape ({ncell},), got {arr.shape}")
        if self.tec_array is None:
            current_arr = np.asarray(current, dtype=float)
            if (current_arr < 0.0).any():
                raise ConfigurationError(
                    f"TEC current must be >= 0, got {current}")
            if (current_arr > 0.0).any():
                raise ConfigurationError(
                    "Nonzero TEC current on a stack without TECs")
            cell_current = None
        else:
            cell_current = self.tec_array.cell_current(current)

        diag = self._overlay_diag
        rhs = self._overlay_rhs
        diag.fill(0.0)
        rhs.fill(0.0)
        ambient = self.config.ambient

        # omega-dependent sink-to-ambient coupling (the sink node index
        # array is duplicate-free, so += is the scatter-add).
        g_total = self.sink_conductance.conductance(omega)
        g_nodes = g_total * self._sink_amb_weights
        diag[self._sink_amb_nodes] += g_nodes
        rhs[self._sink_amb_nodes] += g_nodes * ambient
        if sink_heat < 0.0:
            raise ConfigurationError(
                f"sink_heat must be >= 0, got {sink_heat}")
        if sink_heat > 0.0:
            rhs[self._sink_amb_nodes] += sink_heat * self._sink_amb_weights

        # Static (board) ambient path: diagonal already in the base matrix.
        rhs += self._static_amb_rhs

        # Chip power: dynamic + linearized leakage.
        rhs[self.chip_nodes] += dyn + const
        diag[self.chip_nodes] -= slope

        # I-dependent TEC terms through the cached covered-node gathers.
        if cell_current is not None and self._cov_abs_nodes.size:
            cov_current = cell_current[self._covered_cells]
            peltier = self._cov_seebeck * cov_current
            diag[self._cov_abs_nodes] += peltier
            diag[self._cov_rej_nodes] -= peltier
            rhs[self._cov_gen_nodes] += \
                self._cov_resistance * cov_current ** 2
        return diag, rhs

    # -- structure derivatives (adjoint forcing vectors) ---------------

    def _scalar_current(self, current: Union[float, np.ndarray]) -> float:
        """The series driving current as a scalar (gradient paths only).

        The optimizer differentiates with respect to the paper's single
        series current; per-cell current arrays have no scalar
        derivative direction and are rejected.
        """
        arr = np.asarray(current, dtype=float)
        if arr.ndim != 0:
            raise ConfigurationError(
                "gradient paths need a scalar series TEC current, got "
                f"shape {arr.shape}")
        return float(arr)

    def overlay_omega_gradient(self, omega: float, temps: np.ndarray,
                               sink_heat_gradient: float = 0.0,
                               ) -> np.ndarray:
        """Adjoint forcing vector ``d(rhs - diag*T)/d(omega)``.

        Only the sink-to-ambient coupling depends on the fan speed
        ``omega`` (rad/s): the Equation (9) fit contributes
        ``g'(omega)`` (zero on the natural-convection floor below the
        crossover speed, ``p/omega`` above it) to both the diagonal and
        the ambient injection, and the recirculated fan heat
        contributes ``sink_heat_gradient`` (the caller's
        ``d(sink_heat)/d(omega)``, W/(rad/s)) to the RHS.  ``temps`` is
        the converged node-temperature vector, K.
        """
        forcing = np.zeros(self.network.node_count)
        g_prime = self.sink_conductance.conductance_gradient(omega)
        sink_temps = temps[self._sink_amb_nodes]
        forcing[self._sink_amb_nodes] = self._sink_amb_weights * (
            g_prime * (self.config.ambient - sink_temps)
            + sink_heat_gradient)
        return forcing

    def overlay_current_gradient(self, current: Union[float, np.ndarray],
                                 temps: np.ndarray) -> np.ndarray:
        """Adjoint forcing vector ``d(rhs - diag*T)/d(I_TEC)``.

        ``current`` is the series driving current, A; ``temps`` the
        converged node temperatures, K.  Per covered cell: the Peltier
        diagonal terms contribute ``-alpha*T`` on the absorption node
        and ``+alpha*T`` on the rejection node, and the Joule RHS term
        ``R*I**2`` contributes ``2*R*I`` on the generation node.
        """
        forcing = np.zeros(self.network.node_count)
        if self.tec_array is None or not self._cov_abs_nodes.size:
            return forcing
        i_tec = self._scalar_current(current)
        alpha = self._cov_seebeck
        forcing[self._cov_abs_nodes] -= \
            alpha * temps[self._cov_abs_nodes]
        forcing[self._cov_rej_nodes] += \
            alpha * temps[self._cov_rej_nodes]
        forcing[self._cov_gen_nodes] += \
            2.0 * self._cov_resistance * i_tec
        return forcing

    def power_temperature_gradient(self,
                                   current: Union[float, np.ndarray],
                                   leak_slope: np.ndarray) -> np.ndarray:
        """``d(P_leak + P_TEC)/dT`` over the full node vector, W/K.

        ``current`` is the series driving current, A.  Leakage
        contributes its linearized slope ``a`` (``leak_slope``, W/K per
        cell) on the chip nodes (exact when ``a`` is the tangent at the
        converged temperatures); TEC pumping power
        ``alpha*(T_hot - T_cold)*I`` contributes ``+alpha*I`` on each
        covered rejection node and ``-alpha*I`` on each covered
        absorption node.
        """
        gradient = np.zeros(self.network.node_count)
        gradient[self.chip_nodes] = np.asarray(leak_slope, dtype=float)
        if self.tec_array is not None and self._cov_abs_nodes.size:
            i_tec = self._scalar_current(current)
            peltier = self._cov_seebeck * i_tec
            gradient[self._cov_rej_nodes] += peltier
            gradient[self._cov_abs_nodes] -= peltier
        return gradient

    def tec_power_current_gradient(self,
                                   current: Union[float, np.ndarray],
                                   temps: np.ndarray) -> float:
        """Explicit ``dP_TEC/dI`` (W/A) at fixed temperatures.

        ``current`` is the series driving current, A; ``temps`` the
        converged node temperatures, K.
        ``P_TEC = sum(R*I**2 + alpha*(T_hot - T_cold)*I)`` over covered
        cells, so the partial is ``sum(2*R*I + alpha*(T_hot - T_cold))``.
        """
        if self.tec_array is None or not self._cov_abs_nodes.size:
            return 0.0
        i_tec = self._scalar_current(current)
        delta = (temps[self._cov_rej_nodes]
                 - temps[self._cov_abs_nodes])
        return float(np.sum(2.0 * self._cov_resistance * i_tec
                            + self._cov_seebeck * delta))

    # -- convenient extracts ------------------------------------------

    def chip_temperatures(self, temps: np.ndarray) -> np.ndarray:
        """Per-chip-cell temperatures from a full solution vector."""
        return temps[self.chip_nodes]

    def tec_face_temperatures(self, temps: np.ndarray,
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-cell (cold, hot) TEC face temperatures.

        Uncovered cells carry the ambient placeholder so the arrays align
        with the grid; they contribute nothing to TEC power (their
        coefficients are zero in :class:`TECArray`).
        """
        ncell = self.grid.cell_count
        cold = np.full(ncell, self.config.ambient, dtype=float)
        hot = np.full(ncell, self.config.ambient, dtype=float)
        if self.tec_array is not None and self._covered_cells.size:
            cov = self._covered_cells
            cold[cov] = temps[self.tec_abs_nodes[cov]]
            hot[cov] = temps[self.tec_rej_nodes[cov]]
        return cold, hot

    def layer_temperatures(self, temps: np.ndarray, layer: str) -> np.ndarray:
        """Per-cell temperatures of a named layer."""
        if layer not in self._layer_cells:
            raise ConfigurationError(f"No layer named {layer!r}")
        return temps[self._layer_cells[layer]]


def build_package_model(
    stack: PackageStack,
    grid: Grid,
    sink_conductance: Optional[HeatSinkFanConductance] = None,
    tec_array: Optional[TECArray] = None,
    config: Optional[PackageModelConfig] = None,
) -> PackageThermalModel:
    """Convenience constructor with the paper's default Equation (9)
    heat-sink/fan conductance fit (``sink_conductance`` maps fan speed
    in rad/s to a conductance in W/K)."""
    return PackageThermalModel(
        stack=stack,
        grid=grid,
        sink_conductance=sink_conductance or HeatSinkFanConductance(),
        tec_array=tec_array,
        config=config,
    )
