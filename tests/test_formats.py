"""CSV and manifest serialization: bitwise round trips and grid checks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from junctionflow import (
    CellField,
    DomainError,
    Grid,
    GridMismatchError,
    NodeField,
    read_cell_csv,
    read_manifest,
    read_node_csv,
    write_cell_csv,
    write_manifest,
    write_node_csv,
)


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
