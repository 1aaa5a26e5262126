"""Uniform grid discretization of a die and unit<->cell area mapping.

The thermal model works on a uniform ``nx x ny`` grid over the chip
footprint.  :class:`Grid` owns the index arithmetic; :class:`CellCoverage`
computes, for every (unit, cell) pair, the fraction of the cell covered by
the unit — used both to distribute unit power onto cells and to aggregate
cell temperatures back to units.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import GeometryError
from .floorplan import Floorplan
from .rect import Rect


class Grid:
    """A uniform ``nx x ny`` grid over a rectangular footprint.

    Cells are indexed ``(ix, iy)`` with ``ix`` along x (width) and ``iy``
    along y (height); the flat index is ``iy * nx + ix`` (row-major in y).
    """

    def __init__(self, width: float, height: float, nx: int, ny: int):
        if width <= 0.0 or height <= 0.0:
            raise GeometryError(
                f"Grid footprint must be positive, got {width} x {height}")
        if nx < 1 or ny < 1:
            raise GeometryError(f"Grid must be at least 1x1, got {nx}x{ny}")
        self.width = float(width)
        self.height = float(height)
        self.nx = int(nx)
        self.ny = int(ny)
        self.dx = self.width / self.nx
        self.dy = self.height / self.ny

    @classmethod
    def for_floorplan(cls, floorplan: Floorplan, nx: int, ny: int) -> "Grid":
        """Grid covering the floorplan's bounding box."""
        box = floorplan.bounding_box
        return cls(box.width, box.height, nx, ny)

    @property
    def cell_count(self) -> int:
        """Number of cells (``nx * ny``)."""
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        """Area of one cell in square meters."""
        return self.dx * self.dy

    def flat_index(self, ix: int, iy: int) -> int:
        """Flat index of cell ``(ix, iy)``."""
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise GeometryError(
                f"Cell ({ix}, {iy}) outside {self.nx}x{self.ny} grid")
        return iy * self.nx + ix

    def cell_coords(self, flat: int) -> Tuple[int, int]:
        """Inverse of :meth:`flat_index`."""
        if not (0 <= flat < self.cell_count):
            raise GeometryError(
                f"Flat index {flat} outside grid of {self.cell_count} cells")
        return flat % self.nx, flat // self.nx

    def cell_rect(self, ix: int, iy: int) -> Rect:
        """Rectangle of cell ``(ix, iy)`` in footprint coordinates."""
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise GeometryError(
                f"Cell ({ix}, {iy}) outside {self.nx}x{self.ny} grid")
        return Rect(ix * self.dx, iy * self.dy, self.dx, self.dy)

    def cell_center(self, ix: int, iy: int) -> Tuple[float, float]:
        """Center point of cell ``(ix, iy)``."""
        return ((ix + 0.5) * self.dx, (iy + 0.5) * self.dy)

    def iter_cells(self) -> Iterator[Tuple[int, int]]:
        """Iterate cell coordinates in flat-index order."""
        for iy in range(self.ny):
            for ix in range(self.nx):
                yield ix, iy

    def neighbors(self, ix: int, iy: int) -> List[Tuple[int, int]]:
        """4-connected lateral neighbors of cell ``(ix, iy)``."""
        out = []
        if ix > 0:
            out.append((ix - 1, iy))
        if ix < self.nx - 1:
            out.append((ix + 1, iy))
        if iy > 0:
            out.append((ix, iy - 1))
        if iy < self.ny - 1:
            out.append((ix, iy + 1))
        return out

    def edge_cells(self, side: str) -> List[Tuple[int, int]]:
        """Cells on a boundary: ``side`` in {'west','east','south','north'}."""
        if side == "west":
            return [(0, iy) for iy in range(self.ny)]
        if side == "east":
            return [(self.nx - 1, iy) for iy in range(self.ny)]
        if side == "south":
            return [(ix, 0) for ix in range(self.nx)]
        if side == "north":
            return [(ix, self.ny - 1) for ix in range(self.nx)]
        raise GeometryError(f"Unknown side {side!r}")


class CellCoverage:
    """Area overlap between floorplan units and grid cells.

    Provides the two linear maps the power/thermal layers need:

    * ``unit power vector -> per-cell power`` (power density of each unit is
      spread uniformly over the cells it covers), and
    * ``per-cell temperatures -> per-unit temperatures`` (area-weighted
      average, or max) for reporting.
    """

    def __init__(self, floorplan: Floorplan, grid: Grid):
        box = floorplan.bounding_box
        if (abs(box.width - grid.width) > 1e-9
                or abs(box.height - grid.height) > 1e-9):
            raise GeometryError(
                "Grid footprint does not match floorplan bounding box: "
                f"{grid.width}x{grid.height} vs {box.width}x{box.height}")
        self.floorplan = floorplan.normalized()
        self.grid = grid
        # overlap[u, c] = area of unit u inside cell c (m^2)
        self._overlap = np.zeros(
            (len(self.floorplan), grid.cell_count), dtype=float)
        for u_idx, unit in enumerate(self.floorplan):
            self._fill_unit_overlaps(u_idx, unit.rect)
        # Each unit's share of its area per cell (None when it covers
        # no cell), keyed by name: the first unit of a name wins, as in
        # Floorplan.index_of.
        self._fractions: Dict[str, Optional[np.ndarray]] = {}
        for unit, row in zip(self.floorplan, self._overlap):
            total = row.sum()
            self._fractions.setdefault(
                unit.name, row / total if total > 0.0 else None)

    def _fill_unit_overlaps(self, u_idx: int, rect: Rect) -> None:
        grid = self.grid
        ix_lo = max(0, int(np.floor(rect.x / grid.dx)))
        ix_hi = min(grid.nx - 1, int(np.ceil(rect.x2 / grid.dx)) - 1)
        iy_lo = max(0, int(np.floor(rect.y / grid.dy)))
        iy_hi = min(grid.ny - 1, int(np.ceil(rect.y2 / grid.dy)) - 1)
        for iy in range(iy_lo, iy_hi + 1):
            for ix in range(ix_lo, ix_hi + 1):
                cell = grid.cell_rect(ix, iy)
                area = rect.intersection_area(cell)
                if area > 0.0:
                    self._overlap[u_idx, grid.flat_index(ix, iy)] = area

    @property
    def overlap_matrix(self) -> np.ndarray:
        """Copy of the (units x cells) overlap-area matrix in m^2."""
        return self._overlap.copy()

    def _fraction(self, unit_name: str) -> np.ndarray:
        """The held fraction of ``unit_name``'s area in each cell."""
        if unit_name not in self._fractions:
            raise GeometryError(f"No unit named {unit_name!r}")
        fraction = self._fractions[unit_name]
        if fraction is None:
            raise GeometryError(
                f"Unit {unit_name!r} covers no grid cells")
        return fraction

    def unit_cell_fractions(self, unit_name: str) -> np.ndarray:
        """For one unit: fraction of the unit's area in each cell."""
        return self._fraction(unit_name).copy()

    def power_map(self, unit_powers: Dict[str, float]) -> np.ndarray:
        """Distribute per-unit powers (W) onto grid cells.

        Each unit's power is spread over its cells proportionally to the
        covered area, i.e. at uniform power density within the unit.
        Unlisted units contribute zero.  Returns a flat array of length
        ``grid.cell_count`` whose sum equals the sum of the inputs.
        """
        cell_power = np.zeros(self.grid.cell_count, dtype=float)
        for name, power in unit_powers.items():
            cell_power += power * self._fraction(name)
        return cell_power

    def cells_of_unit(self, unit_name: str, min_fraction: float = 0.5,
                      ) -> List[int]:
        """Flat indices of cells majority-covered by ``unit_name``.

        ``min_fraction`` is the fraction of the *cell* area that must be
        covered by the unit for the cell to count as belonging to it.
        """
        u_idx = self.floorplan.index_of(unit_name)
        cell_area = self.grid.cell_area
        row = self._overlap[u_idx]
        return [c for c in range(self.grid.cell_count)
                if row[c] / cell_area >= min_fraction]

    def dominant_unit_per_cell(self) -> List[str]:
        """For each cell, the name of the unit covering the largest share.

        Cells covered by no unit (dead space) get the empty string.
        """
        out: List[str] = []
        names = self.floorplan.unit_names
        for c in range(self.grid.cell_count):
            col = self._overlap[:, c]
            best = int(np.argmax(col))
            out.append(names[best] if col[best] > 0.0 else "")
        return out

    def unit_temperatures(self, cell_temps: np.ndarray,
                          reduce: str = "max") -> Dict[str, float]:
        """Aggregate per-cell temperatures back to per-unit values.

        ``reduce`` is ``"max"`` (hotspot, default) or ``"mean"``
        (area-weighted average over the unit's footprint).
        """
        if cell_temps.shape != (self.grid.cell_count,):
            raise GeometryError(
                f"Expected {self.grid.cell_count} cell temperatures, got "
                f"{cell_temps.shape}")
        result: Dict[str, float] = {}
        for u_idx, unit in enumerate(self.floorplan):
            row = self._overlap[u_idx]
            mask = row > 0.0
            if not mask.any():
                continue
            if reduce == "max":
                result[unit.name] = float(cell_temps[mask].max())
            elif reduce == "mean":
                result[unit.name] = float(
                    np.average(cell_temps[mask], weights=row[mask]))
            else:
                raise GeometryError(f"Unknown reduce mode {reduce!r}")
        return result
