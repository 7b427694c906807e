"""CSV and manifest serialization: bitwise round trips and grid checks."""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junctionflow import (
    CellField,
    DomainError,
    Grid,
    GridMismatchError,
    NodeField,
    formats,
    read_cell_csv,
    read_manifest,
    read_node_csv,
    write_cell_csv,
    write_manifest,
    write_node_csv,
)
from junctionflow.formats import write_xy_csv


def test_cell_csv_roundtrip_bitwise(tmp_path):
    grid = Grid.from_domain(-1.0, 2.0, 120)
    rng = np.random.default_rng(0)
    state = CellField(grid, rng.uniform(0.0, 1.0, 120), time=0.375)
    path = tmp_path / "cells.csv"
    write_cell_csv(path, state)
    back_inferred = read_cell_csv(path)
    back_explicit = read_cell_csv(path, grid)
    np.testing.assert_array_equal(back_inferred.values, state.values)
    np.testing.assert_array_equal(back_explicit.values, state.values)
    assert back_explicit.grid == grid
    # The inferred grid reproduces the junction split exactly.
    assert back_inferred.grid.n_left == grid.n_left
    assert back_inferred.grid.n_right == grid.n_right


def test_node_csv_roundtrip_bitwise(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 80)
    rng = np.random.default_rng(1)
    vals = np.cumsum(rng.uniform(0.0, 1.0, 81)) * grid.dx
    state = NodeField(grid, vals)
    path = tmp_path / "nodes.csv"
    write_node_csv(path, state)
    back = read_node_csv(path)
    np.testing.assert_array_equal(back.values, state.values)
    assert back.grid.n_left == grid.n_left


def test_cell_csv_rejects_wrong_grid(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    state = CellField(grid, np.zeros(40))
    path = tmp_path / "cells.csv"
    write_cell_csv(path, state)
    with pytest.raises(GridMismatchError):
        read_cell_csv(path, Grid.from_domain(-1.0, 1.0, 80))


def _rewrite(path, edit) -> None:
    header, *rows = path.read_text().strip().splitlines()
    rows = [r.split(",") for r in rows]
    edit(rows)
    path.write_text("\n".join([header, *(",".join(r) for r in rows)]) + "\n")


def test_csv_rows_checked_against_given_grid(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "cells.csv"
    write_cell_csv(path, CellField(grid, np.linspace(0.0, 1.0, 40)))

    def shift_and_reverse(rows):
        rows.reverse()
        for r in rows:
            r[0] = repr(float(r[0]) + 7.0)

    _rewrite(path, shift_and_reverse)
    with pytest.raises(GridMismatchError, match="data row 1 has x"):
        read_cell_csv(path, grid)

    write_cell_csv(path, CellField(grid, np.linspace(0.0, 1.0, 40)))
    _rewrite(path, lambda rows: rows[3].__setitem__(0, "nan"))
    with pytest.raises(GridMismatchError, match="data row 4 has x = nan"):
        read_cell_csv(path, grid)

    write_cell_csv(path, CellField(grid, np.linspace(0.0, 1.0, 40)))
    _rewrite(path, lambda rows: rows[grid.n_left].__setitem__(2, "l"))
    with pytest.raises(GridMismatchError, match=f"data row {grid.n_left + 1} is tagged side 'l'"):
        read_cell_csv(path, grid)


def test_csv_coordinates_tolerate_roundoff_only(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "nodes.csv"
    write_node_csv(path, NodeField(grid, np.zeros(41)))
    _rewrite(path, lambda rows: rows[5].__setitem__(0, repr(float(rows[5][0]) + 1e-12)))
    assert read_node_csv(path, grid).grid == grid
    _rewrite(path, lambda rows: rows[5].__setitem__(0, repr(float(rows[5][0]) + 1e-6)))
    with pytest.raises(GridMismatchError, match="data row 6 has x"):
        read_node_csv(path, grid)
    # a file without side tags is read on its coordinates alone
    path.write_text("x,u\n" + "".join(f"{float(x)!r},0.0\n" for x in grid.node_coords()))
    assert read_node_csv(path, grid).values.shape == (41,)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_values(tmp_path, bad):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "nodes.csv"
    write_node_csv(path, NodeField(grid, np.zeros(41)))
    _rewrite(path, lambda rows: rows[7].__setitem__(1, bad))
    with pytest.raises(DomainError, match="data row 8 holds the non-finite value"):
        read_node_csv(path, grid)
    with pytest.raises(DomainError, match="non-finite"):
        read_node_csv(path)


@pytest.mark.parametrize(
    "row,fields", [(-1, ["0.975"]), (4, ["-0.775", "0.1"]), (0, ["-0.975", "0.0", "l", "1"])],
    ids=["last-row-bare-x", "row-without-side", "row-with-extra-field"],
)
def test_csv_rejects_ragged_rows(tmp_path, row, fields):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "cells.csv"
    write_cell_csv(path, CellField(grid, np.linspace(0.0, 1.0, 40)))
    _rewrite(path, lambda rows: rows.__setitem__(row, fields))
    for g in (grid, None):
        with pytest.raises(GridMismatchError, match=rf"data row {row % 40 + 1} has {len(fields)} field\(s\); the header has 3"):
            read_cell_csv(path, g)


def test_csv_without_side_column_rejects_short_rows(tmp_path):
    grid = Grid.from_domain(-1.0, 1.0, 40)
    path = tmp_path / "nodes.csv"
    path.write_text("x,u\n" + "".join(f"{float(x)!r},0.0\n" for x in grid.node_coords()[:-1]) + "1.0\n")
    with pytest.raises(GridMismatchError, match=r"data row 41 has 1 field\(s\); the header has 2"):
        read_node_csv(path, grid)


def test_side_column_tags_junction(tmp_path):
    grid = Grid.from_domain(-0.5, 1.0, 30)
    write_cell_csv(tmp_path / "c.csv", CellField(grid, np.zeros(30)))
    rows = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert rows[0] == "x,rho,side"
    sides = [r.split(",")[2] for r in rows[1:]]
    assert sides == ["l"] * grid.n_left + ["r"] * grid.n_right

    write_node_csv(tmp_path / "n.csv", NodeField(grid, np.zeros(31)))
    rows = (tmp_path / "n.csv").read_text().strip().splitlines()
    assert rows[0] == "x,u,side"
    sides = [r.split(",")[2] for r in rows[1:]]
    assert sides.count("j") == 1
    assert sides[grid.n_left] == "j"


def test_manifest_roundtrip(tmp_path):
    payload = {"subcommand": "solve-cl", "mass": [1.0, 1.0], "nested": {"dx": 0.0125}}
    path = tmp_path / "manifest.json"
    write_manifest(path, payload)
    assert read_manifest(path) == payload
    # Stable key order keeps byte-level determinism.
    assert json.loads(path.read_text()) == payload
    a = path.read_bytes()
    write_manifest(path, payload)
    assert path.read_bytes() == a


# -- byte identity of the writers -------------------------------------------------
#
# The writers stream their rows in one pass; these are the loops they replaced,
# kept verbatim as references for the bytes.


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_rows_reference(path, header: list[str], xs: np.ndarray, values: np.ndarray, sides: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for x, v, side in zip(xs, values, sides):
            w.writerow([_fmt(x), _fmt(v), side])


def _write_xy_csv_reference(path: Path, header: tuple[str, str], xs: np.ndarray, ys: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


# Signed zero, the smallest subnormal, the two magnitudes where a float's repr
# switches to exponent form, a non-terminating binary fraction, and the non-finite
# values the writers pass through unvalidated.
SPECIAL = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 1 / 3, float("nan"), float("inf"), float("-inf"), -1e-05]
FINITE = [v for v in SPECIAL if np.isfinite(v)]
any_float = st.sampled_from(SPECIAL) | st.floats()


@st.composite
def grids_with_values(draw):
    """A small grid with a random dx, and values for its cells and its nodes."""
    grid = Grid(draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.floats(sys.float_info.min, 1e300)))
    cells = draw(st.lists(any_float, min_size=grid.n_cells, max_size=grid.n_cells))
    nodes = draw(st.lists(any_float, min_size=grid.n_cells + 1, max_size=grid.n_cells + 1))
    return grid, np.array(cells), np.array(nodes)


@settings(max_examples=80, deadline=None)
@example((Grid(5, 5, 0.1), np.array(SPECIAL), np.array([*SPECIAL, 0.5])))
@example((Grid(3, 4, 1 / 3), np.array(FINITE), np.array([*FINITE, 0.5])))
@given(grids_with_values())
def test_state_writers_match_the_csv_writer_bytes(case):
    grid, cells, nodes = case
    nl, nr = grid.n_left, grid.n_right
    files = [
        (write_cell_csv, read_cell_csv, CellField(grid, cells), ["x", "rho", "side"], grid.cell_centers(), ["l"] * nl + ["r"] * nr),
        (write_node_csv, read_node_csv, NodeField(grid, nodes), ["x", "u", "side"], grid.node_coords(), ["l"] * nl + ["j"] + ["r"] * nr),
    ]
    with tempfile.TemporaryDirectory() as td:
        got, want = Path(td) / "got.csv", Path(td) / "want.csv"
        for write, read, state, header, xs, sides in files:
            write(got, state)
            _write_rows_reference(want, header, xs, state.values, sides)
            assert got.read_bytes() == want.read_bytes()
            if np.all(np.isfinite(state.values)):
                back = read(got, grid)
                assert back.values.tobytes() == state.values.tobytes()
            else:
                with pytest.raises(DomainError, match="non-finite"):
                    read(got, grid)


@st.composite
def xy_columns(draw):
    n = draw(st.integers(0, 12))
    column = st.lists(any_float, min_size=n, max_size=n).map(np.array)
    return draw(column), draw(column)


@settings(max_examples=50, deadline=None)
@example((np.array(SPECIAL), np.array(SPECIAL[::-1])))
@given(xy_columns())
def test_xy_writer_matches_the_row_loop_bytes(columns):
    xs, ys = columns
    with tempfile.TemporaryDirectory() as td:
        got, want = Path(td) / "got.csv", Path(td) / "want.csv"
        write_xy_csv(got, ("xi", "rho"), xs, ys)
        _write_xy_csv_reference(want, ("xi", "rho"), xs, ys)
        assert got.read_bytes() == want.read_bytes()


def test_xy_writer_over_more_than_two_blocks_matches_the_row_loop_bytes(tmp_path):
    n = 2 * formats._BLOCK_ROWS + 3  # a last block of three rows
    xs = np.linspace(-2.0, 2.0, n)
    ys = np.resize(np.repeat([*SPECIAL, 0.5], 1500), n)  # runs of each special value, some across a block boundary
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_xy_csv(got, ("x", "u"), xs, ys)
    _write_xy_csv_reference(want, ("x", "u"), xs, ys)
    assert got.read_bytes() == want.read_bytes()
