"""Grid indexing and coverage mapping."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import CellCoverage, Floorplan, FloorplanUnit, Grid, Rect


class TestGridIndexing:
    def test_cell_count_and_sizes(self):
        g = Grid(2.0, 1.0, 4, 2)
        assert g.cell_count == 8
        assert g.dx == pytest.approx(0.5)
        assert g.dy == pytest.approx(0.5)
        assert g.cell_area == pytest.approx(0.25)

    def test_flat_roundtrip(self):
        g = Grid(1.0, 1.0, 5, 7)
        for iy in range(7):
            for ix in range(5):
                flat = g.flat_index(ix, iy)
                assert g.cell_coords(flat) == (ix, iy)

    def test_flat_index_order(self):
        g = Grid(1.0, 1.0, 3, 3)
        assert g.flat_index(0, 0) == 0
        assert g.flat_index(2, 0) == 2
        assert g.flat_index(0, 1) == 3

    def test_out_of_range_rejected(self):
        g = Grid(1.0, 1.0, 2, 2)
        with pytest.raises(GeometryError):
            g.flat_index(2, 0)
        with pytest.raises(GeometryError):
            g.cell_coords(4)
        with pytest.raises(GeometryError):
            g.cell_rect(0, 2)

    def test_invalid_construction(self):
        with pytest.raises(GeometryError):
            Grid(0.0, 1.0, 2, 2)
        with pytest.raises(GeometryError):
            Grid(1.0, 1.0, 0, 2)

    def test_cell_rect_tiles_footprint(self):
        g = Grid(2.0, 2.0, 2, 2)
        total = sum(g.cell_rect(ix, iy).area for ix, iy in g.iter_cells())
        assert total == pytest.approx(4.0)

    def test_cell_center(self):
        g = Grid(2.0, 2.0, 2, 2)
        assert g.cell_center(0, 0) == (pytest.approx(0.5),
                                       pytest.approx(0.5))

    def test_neighbors_interior(self):
        g = Grid(1.0, 1.0, 3, 3)
        assert len(g.neighbors(1, 1)) == 4

    def test_neighbors_corner(self):
        g = Grid(1.0, 1.0, 3, 3)
        assert len(g.neighbors(0, 0)) == 2

    def test_edge_cells(self):
        g = Grid(1.0, 1.0, 3, 4)
        assert g.edge_cells("west") == [(0, 0), (0, 1), (0, 2), (0, 3)]
        assert g.edge_cells("north") == [(0, 3), (1, 3), (2, 3)]
        with pytest.raises(GeometryError):
            g.edge_cells("up")

    def test_iter_cells_matches_flat_order(self):
        g = Grid(1.0, 1.0, 3, 2)
        flats = [g.flat_index(ix, iy) for ix, iy in g.iter_cells()]
        assert flats == list(range(g.cell_count))


def simple_floorplan():
    """Left/right halves of a 2x1 die."""
    return Floorplan([
        FloorplanUnit("left", Rect(0.0, 0.0, 1.0, 1.0)),
        FloorplanUnit("right", Rect(1.0, 0.0, 1.0, 1.0)),
    ])


class TestCellCoverage:
    def test_footprint_mismatch_rejected(self):
        fp = simple_floorplan()
        with pytest.raises(GeometryError):
            CellCoverage(fp, Grid(3.0, 1.0, 4, 2))

    def test_overlap_partition(self):
        fp = simple_floorplan()
        cov = CellCoverage(fp, Grid.for_floorplan(fp, 4, 2))
        overlap = cov.overlap_matrix
        # Every cell fully covered by exactly one unit.
        assert overlap.sum() == pytest.approx(2.0)
        assert (overlap.sum(axis=0) > 0).all()

    def test_power_map_conserves_power(self):
        fp = simple_floorplan()
        cov = CellCoverage(fp, Grid.for_floorplan(fp, 4, 2))
        pmap = cov.power_map({"left": 3.0, "right": 7.0})
        assert pmap.sum() == pytest.approx(10.0)

    def test_power_map_respects_geometry(self):
        fp = simple_floorplan()
        grid = Grid.for_floorplan(fp, 4, 2)
        cov = CellCoverage(fp, grid)
        pmap = cov.power_map({"left": 8.0})
        # All of the power lands in the left half (ix in {0, 1}).
        for iy in range(2):
            assert pmap[grid.flat_index(0, iy)] > 0
            assert pmap[grid.flat_index(3, iy)] == 0.0

    def test_power_map_unknown_unit(self):
        fp = simple_floorplan()
        cov = CellCoverage(fp, Grid.for_floorplan(fp, 2, 2))
        with pytest.raises(GeometryError):
            cov.power_map({"nope": 1.0})

    def test_power_map_is_bitwise_the_per_unit_formula(self, floorplan,
                                                       profiles):
        # The held per-unit fractions reproduce, bit for bit, the map
        # that looked each unit up and normalized its overlap row on
        # every call, in the caller's unit order.
        for resolution in (8, 12):
            cov = CellCoverage(floorplan, Grid.for_floorplan(
                floorplan, resolution, resolution))
            overlap = cov.overlap_matrix
            for profile in profiles.values():
                powers = profile.as_dict()
                expected = np.zeros(cov.grid.cell_count)
                for name, power in powers.items():
                    row = overlap[cov.floorplan.index_of(name)]
                    expected += power * (row / row.sum())
                assert (cov.power_map(powers) == expected).all()

    def test_unit_cell_fractions_sum_to_one(self):
        fp = simple_floorplan()
        cov = CellCoverage(fp, Grid.for_floorplan(fp, 5, 3))
        fractions = cov.unit_cell_fractions("left")
        assert fractions.sum() == pytest.approx(1.0)

    def test_cells_of_unit(self):
        fp = simple_floorplan()
        grid = Grid.for_floorplan(fp, 4, 2)
        cov = CellCoverage(fp, grid)
        left_cells = cov.cells_of_unit("left")
        assert len(left_cells) == 4
        assert all(grid.cell_coords(c)[0] < 2 for c in left_cells)

    def test_dominant_unit_per_cell(self):
        fp = simple_floorplan()
        cov = CellCoverage(fp, Grid.for_floorplan(fp, 2, 1))
        assert cov.dominant_unit_per_cell() == ["left", "right"]

    def test_unit_temperatures_max_and_mean(self):
        fp = simple_floorplan()
        grid = Grid.for_floorplan(fp, 2, 1)
        cov = CellCoverage(fp, grid)
        temps = np.array([300.0, 350.0])
        assert cov.unit_temperatures(temps, "max")["left"] == 300.0
        assert cov.unit_temperatures(temps, "mean")["right"] == 350.0

    def test_unit_temperatures_shape_check(self):
        fp = simple_floorplan()
        cov = CellCoverage(fp, Grid.for_floorplan(fp, 2, 1))
        with pytest.raises(GeometryError):
            cov.unit_temperatures(np.zeros(5))

    def test_unit_temperatures_bad_reduce(self):
        fp = simple_floorplan()
        cov = CellCoverage(fp, Grid.for_floorplan(fp, 2, 1))
        with pytest.raises(GeometryError):
            cov.unit_temperatures(np.zeros(2), "median")

    def test_misaligned_unit_spreads_across_cells(self):
        # A unit spanning a cell boundary splits power by covered area.
        fp = Floorplan([
            FloorplanUnit("mid", Rect(0.5, 0.0, 1.0, 1.0)),
            FloorplanUnit("west", Rect(0.0, 0.0, 0.5, 1.0)),
            FloorplanUnit("east", Rect(1.5, 0.0, 0.5, 1.0)),
        ])
        grid = Grid.for_floorplan(fp, 2, 1)
        cov = CellCoverage(fp, grid)
        pmap = cov.power_map({"mid": 4.0})
        assert pmap[0] == pytest.approx(2.0)
        assert pmap[1] == pytest.approx(2.0)
