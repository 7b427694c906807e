"""A state file read without a grid comes back on the grid that wrote it.

``read_cell_csv(path)`` and ``read_node_csv(path)`` take the file's own
grid: the rows at x < 0 and x > 0 give the split, and dx is the span
estimate or the float within 2 ulps of it that puts every row at its x
exactly.  The rows are then checked against that grid as against a given
one: coordinates within roundoff, side tags, finite values.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junctionflow import (
    CellField,
    Grid,
    GridMismatchError,
    NodeField,
    read_cell_csv,
    read_node_csv,
    write_cell_csv,
    write_node_csv,
)

# dx log-uniform over most of the double range
random_grids = st.builds(
    Grid, st.integers(1, 200), st.integers(1, 200), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
)


@st.composite
def domain_grids(draw):
    """``Grid.from_domain`` over a domain 6e-3 to 1e4 wide, split anywhere."""
    width = 10.0 ** draw(st.floats(np.log10(6e-3), 4.0))
    left = draw(st.floats(0.01, 0.99))
    return Grid.from_domain(-left * width, (1.0 - left) * width, draw(st.integers(2, 1500)))


def _states(grid: Grid, seed: int):
    """A cell and a node state on ``grid`` with values spread over many magnitudes."""
    rng = np.random.default_rng(seed)
    for write, read, field, n in (
        (write_cell_csv, read_cell_csv, CellField, grid.n_cells),
        (write_node_csv, read_node_csv, NodeField, grid.n_cells + 1),
    ):
        yield write, read, field(grid, rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n))


def _assert_round_trip(grid: Grid, seed: int) -> None:
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "state.csv"
        for write, read, state in _states(grid, seed):
            write(path, state)
            back = read(path)
            assert back.grid == grid
            assert back.values.tobytes() == state.values.tobytes()


# Cell files whose span estimate is 2 ulps from the writer's dx.
@example(Grid.from_domain(-0.3 * 6e-3, 0.7 * 6e-3, 13), 0)
@example(Grid.from_domain(-5e3, 5e3, 6), 0)
@settings(deadline=None)
@given(domain_grids(), st.integers(0, 2**32 - 1))
def test_domain_grids_read_back_exactly(grid, seed):
    _assert_round_trip(grid, seed)


@example(Grid(1, 1, 1e-300), 0)
@example(Grid(3, 2, 1e300), 0)
@settings(deadline=None)
@given(random_grids, st.integers(0, 2**32 - 1))
def test_random_grids_read_back_exactly(grid, seed):
    _assert_round_trip(grid, seed)


def _rewrite(path, edit) -> None:
    header, *rows = path.read_text().strip().splitlines()
    rows = [r.split(",") for r in rows]
    rows = edit(rows) or rows
    path.write_text("\n".join([header, *(",".join(r) for r in rows)]) + "\n")


@pytest.mark.parametrize("which", [0, 1], ids=["cells", "nodes"])
def test_inferred_read_tolerates_roundoff_only(tmp_path, which):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    write, read, state = list(_states(grid, 0))[which]
    path = tmp_path / "state.csv"
    write(path, state)
    _rewrite(path, lambda rows: rows[5].__setitem__(0, repr(float(rows[5][0]) + 1e-12)))
    assert read(path).grid == grid
    write(path, state)
    _rewrite(path, lambda rows: rows[5].__setitem__(0, repr(float(rows[5][0]) + 1e-6)))
    with pytest.raises(GridMismatchError, match="data row 6 has x"):
        read(path)


def test_inferred_cell_read_checks_side_tags(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "cells.csv"
    write_cell_csv(path, CellField(grid, np.linspace(0.0, 1.0, 40)))
    _rewrite(path, lambda rows: [[x, v, "l"] for x, v, _ in rows])
    with pytest.raises(GridMismatchError, match=f"data row {grid.n_left + 1} is tagged side 'l', expected 'r'"):
        read_cell_csv(path)


def test_inferred_node_read_without_a_node_at_or_right_of_the_junction(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "nodes.csv"
    write_node_csv(path, NodeField(grid, np.zeros(41)))
    _rewrite(path, lambda rows: rows[: grid.n_left])
    with pytest.raises(GridMismatchError, match="the x column fits no grid: need at least one cell on each side"):
        read_node_csv(path)


def test_inferred_read_of_a_reversed_x_column(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "cells.csv"
    write_cell_csv(path, CellField(grid, np.zeros(40)))
    _rewrite(path, lambda rows: rows[::-1])
    with pytest.raises(GridMismatchError, match="the x column fits no grid: dx must be positive"):
        read_cell_csv(path)


def test_grid_rejects_a_subnormal_dx():
    """Cell centers do not fix a subnormal dx: Grid(1, 1, 5e-324) and Grid(1, 1, 1e-323) would write one file."""
    for dx in (5e-324, 1e-323, float(np.nextafter(sys.float_info.min, 0.0))):
        with pytest.raises(GridMismatchError, match="dx must be positive, finite and not subnormal"):
            Grid(1, 1, dx)
    assert Grid(1, 1, sys.float_info.min).dx == sys.float_info.min


def _write_x_column(path, xs):
    path.write_text("x,rho,side\n" + "".join(f"{x!r},0.5,{'l' if x < 0 else 'r'}\n" for x in xs))


def test_inferred_read_of_a_subnormal_span(tmp_path):
    path = tmp_path / "cells.csv"
    _write_x_column(path, [-5e-324, 5e-324])
    message = "the x column fits no grid: dx must be positive, finite and not subnormal"
    with pytest.raises(GridMismatchError, match=message):
        read_cell_csv(path)


def test_inferred_read_skips_subnormal_candidates(tmp_path):
    """A span estimate of the smallest normal dx, whose rows no candidate reproduces: the ones below are skipped."""
    tiny = sys.float_info.min
    path = tmp_path / "cells.csv"
    _write_x_column(path, [-tiny / 4, 3 * tiny / 4])
    assert read_cell_csv(path).grid == Grid(1, 1, tiny)
