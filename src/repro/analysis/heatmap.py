"""ASCII heat maps of die temperature fields.

The library is deliberately plot-free; this renderer makes temperature
fields readable in a terminal: a character ramp over the chip grid, an
optional floorplan-unit overlay, and a side-by-side delta view for
before/after comparisons (e.g. TEC off vs on).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..geometry import CellCoverage, Grid
from ..leakage import CellLeakageModel
from ..thermal import (
    PackageThermalModel,
    SteadyStateResult,
    solve_steady_state_batch,
)
from ..units import kelvin_to_celsius

#: Character ramp from coolest to hottest.
_RAMP = " .:-=+*#%@"


def _normalize(field: np.ndarray, vmin: Optional[float],
               vmax: Optional[float]) -> np.ndarray:
    lo = field.min() if vmin is None else vmin
    hi = field.max() if vmax is None else vmax
    if hi <= lo:
        return np.zeros_like(field)
    return np.clip((field - lo) / (hi - lo), 0.0, 1.0)


def render_heatmap(
    field: np.ndarray,
    grid: Grid,
    title: str = "",
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
) -> str:
    """Render a per-cell field as an ASCII heat map.

    Rows print north-to-south (the top row is the grid's highest y),
    matching how floorplans are usually drawn.  ``vmin``/``vmax`` pin
    the ramp (for comparable side-by-side maps).
    """
    values = np.asarray(field, dtype=float)
    if values.shape != (grid.cell_count,):
        raise ConfigurationError(
            f"Field must have {grid.cell_count} entries, got "
            f"{values.shape}")
    normalized = _normalize(values, vmin, vmax)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"range {kelvin_to_celsius(values.min()):.1f} .. "
        f"{kelvin_to_celsius(values.max()):.1f} C  "
        f"(ramp '{_RAMP}')")
    for iy in reversed(range(grid.ny)):
        row_chars = []
        for ix in range(grid.nx):
            level = normalized[grid.flat_index(ix, iy)]
            index = min(int(level * len(_RAMP)), len(_RAMP) - 1)
            row_chars.append(_RAMP[index] * 2)  # 2:1 aspect correction
        lines.append("".join(row_chars))
    return "\n".join(lines)


def temperature_fields(
    model: PackageThermalModel,
    points: Sequence[Tuple[float, float]],
    dynamic_cell_power: np.ndarray,
    leakage: Optional[CellLeakageModel] = None,
) -> List[Optional[np.ndarray]]:
    """Chip-temperature fields at many ``(omega, current)`` points.

    The bulk producer for side-by-side heat maps (TEC off vs on, a fan
    ladder, ...): each point is one cold-started steady solve, and
    repeated operating points reuse the operator's cached factorization.
    Entries are per-cell chip temperatures in K, or ``None`` where the
    point ran away.
    """
    outcomes = solve_steady_state_batch(
        model, points, dynamic_cell_power, leakage=leakage)
    return [outcome.chip_temperatures
            if isinstance(outcome, SteadyStateResult) else None
            for outcome in outcomes]


def render_unit_overlay(coverage: CellCoverage) -> str:
    """Render which unit owns each cell (first letters), for orientation."""
    grid = coverage.grid
    dominant = coverage.dominant_unit_per_cell()
    lines = ["unit overlay:"]
    for iy in reversed(range(grid.ny)):
        row = []
        for ix in range(grid.nx):
            name = dominant[grid.flat_index(ix, iy)]
            row.append((name[:2] if name else "..").ljust(2))
        lines.append("".join(row))
    return "\n".join(lines)


def render_delta_map(
    before: np.ndarray,
    after: np.ndarray,
    grid: Grid,
    title: str = "delta (after - before)",
) -> str:
    """Render a signed difference field: '-' cooling, '+' heating.

    Characters scale with magnitude: ``.`` below 0.5 K, then one symbol
    per 2 K up to three.
    """
    before_arr = np.asarray(before, dtype=float)
    after_arr = np.asarray(after, dtype=float)
    for name, arr in (("before", before_arr), ("after", after_arr)):
        if arr.shape != (grid.cell_count,):
            raise ConfigurationError(
                f"{name} must have {grid.cell_count} entries, got "
                f"{arr.shape}")
    delta = after_arr - before_arr
    lines = [title,
             f"range {delta.min():+.1f} .. {delta.max():+.1f} K"]
    for iy in reversed(range(grid.ny)):
        row = []
        for ix in range(grid.nx):
            value = delta[grid.flat_index(ix, iy)]
            magnitude = min(int(abs(value) / 2.0) + 1, 3)
            if abs(value) < 0.5:
                cell = ". "
            else:
                symbol = "-" if value < 0.0 else "+"
                cell = (symbol * magnitude).ljust(2)
            row.append(cell)
        lines.append("".join(row))
    return "\n".join(lines)
