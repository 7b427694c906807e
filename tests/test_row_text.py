"""A grid's row text, kept for its cells and its nodes together, and the message for a mis-tagged row.

``formats._row_templates`` keeps the row templates of the last grid
written, one set for each kind of row written on it: a solve of each
kind on one grid, in any order and any number of times, builds two sets,
and a write on another grid drops both before it builds its own.  The
builds are counted with a spy on ``formats._template_blocks``, looked
up on the module at call time.  Once both kinds are kept, a write of
either holds less than two blocks of strings, and a first write on
another grid peaks less than its own templates above what the last
grid's text held, so that text went first (traced with ``tracemalloc``).

A read names the first mis-tagged row of a file and the tag its side
expects; those messages are frozen here.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import numpy as np
import pytest
from test_state_writers import MEMORY_GRID, _block_strings, _peak_traced_bytes, _run_free_potential

from junctionflow import (
    CellField,
    Grid,
    GridMismatchError,
    NodeField,
    formats,
    read_cell_csv,
    read_node_csv,
    write_cell_csv,
    write_node_csv,
)
from junctionflow.cli import main


@pytest.fixture
def builds(monkeypatch, fresh_row_text):
    """A fresh memo, and a list that gets one entry per template set built."""
    built = []
    template_blocks = formats._template_blocks

    def counted(xs, sides):
        built.append(len(xs))
        return template_blocks(xs, sides)

    monkeypatch.setattr(formats, "_template_blocks", counted)
    return built


SCENARIO = {
    "flux_left": {"kind": "quadratic", "rmax": 1.0, "hmax": 0.25},
    "flux_right": {"kind": "piecewise_linear", "points": [[0, 0], [0.5, 0.25], [1, 0]]},
    "limiter": 0.1875,
    "domain": [-2.0, 2.0],
    "cells": 200,
    "cfl": 0.8,
    "t_end": 0.05,
    "snapshots": [0.025, 0.05],
    "seed": 0,
}
DATA = {
    "solve-cl": {"piecewise_constant": {"breaks": [-0.4, 0.0, 0.35], "values": [0.9, 0.2, 0.6, 0.1]}},
    "solve-hj": {"piecewise_linear": {"points": [[-2.0, 0.0], [0.0, 0.5], [2.0, 1.5]]}},
}


def test_solves_of_both_kinds_on_one_grid_build_each_kind_once(builds, tmp_path):
    for k, command in enumerate(["solve-cl", "solve-hj", "solve-cl", "solve-hj"]):
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps({**SCENARIO, "datum": DATA[command]}))
        assert main([command, "--config", str(config), "--out", str(tmp_path / f"out{k}")]) == 0
    assert builds == [200, 201]  # the cells' set, then the nodes'


def test_another_grid_drops_both_kinds(builds, tmp_path):
    a, b = Grid(5, 7, 0.1), Grid(6, 6, 0.1)
    path = tmp_path / "state.csv"
    write_cell_csv(path, CellField(a, np.zeros(a.n_cells)))
    write_node_csv(path, NodeField(a, np.zeros(a.n_cells + 1)))
    assert builds == [12, 13]
    write_cell_csv(path, CellField(b, np.zeros(b.n_cells)))
    write_cell_csv(path, CellField(a, np.zeros(a.n_cells)))  # a's text went with b's first write
    write_cell_csv(path, CellField(a, np.ones(a.n_cells)))
    assert builds == [12, 13, 12, 12]


def test_a_write_of_either_kind_holds_under_two_blocks_of_strings_once_both_are_kept(fresh_row_text, tmp_path):
    u_path, rho_path = tmp_path / "u.csv", tmp_path / "rho.csv"
    potential = _run_free_potential()
    density = CellField(MEMORY_GRID, np.diff(potential.values))  # no two neighbours equal either
    write_node_csv(u_path, potential)
    write_cell_csv(rho_path, density)  # both kinds kept from here on
    for path, write, state in ((u_path, write_node_csv, potential), (rho_path, write_cell_csv, density)):
        peak = _peak_traced_bytes(lambda: write(path, state))
        assert peak < 2 * _block_strings(path, [1])


def test_another_grids_text_is_built_only_after_the_last_grids_is_dropped(fresh_row_text, tmp_path):
    path, potential = tmp_path / "state.csv", _run_free_potential()
    other = Grid(MEMORY_GRID.n_left, MEMORY_GRID.n_right, 1.5 * MEMORY_GRID.dx)  # as many rows, other coordinates
    density = np.diff(potential.values)
    tracemalloc.start()
    try:
        write_cell_csv(path, CellField(MEMORY_GRID, density))
        write_node_csv(path, potential)  # both kinds of the first grid kept
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_cell_csv(path, CellField(other, density))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    templates = sum(map(sys.getsizeof, formats._row_templates(other, "cells")))
    assert peak - held < templates


# -- side tags read back ---------------------------------------------------------------------------

TAG_GRID = Grid(3, 4, 0.25)  # cells l l l r r r r; nodes l l l j r r r r


@pytest.mark.parametrize(
    "kind, rows, message",
    [
        ("cells", {0: "r"}, "data row 1 is tagged side 'r', expected 'l'"),
        ("cells", {2: "r"}, "data row 3 is tagged side 'r', expected 'l'"),
        ("cells", {3: "j"}, "data row 4 is tagged side 'j', expected 'r'"),
        ("cells", {6: "l"}, "data row 7 is tagged side 'l', expected 'r'"),
        ("cells", {2: "r", 3: "l"}, "data row 3 is tagged side 'r', expected 'l'"),
        ("nodes", {0: "j"}, "data row 1 is tagged side 'j', expected 'l'"),
        ("nodes", {2: "j"}, "data row 3 is tagged side 'j', expected 'l'"),
        ("nodes", {3: "l"}, "data row 4 is tagged side 'l', expected 'j'"),
        ("nodes", {4: "j"}, "data row 5 is tagged side 'j', expected 'r'"),
        ("nodes", {7: "x"}, "data row 8 is tagged side 'x', expected 'r'"),
        ("nodes", {4: "j", 3: "r"}, "data row 4 is tagged side 'r', expected 'j'"),
    ],
    ids=[
        "cells-first", "cells-last-l", "cells-first-r", "cells-last", "cells-swapped-at-the-junction",
        "nodes-first", "nodes-last-l", "nodes-j", "nodes-first-r", "nodes-last", "nodes-j-and-first-r",
    ],
)
def test_a_mis_tagged_row_is_named_as_before(tmp_path, kind, rows, message):
    """The first mis-tagged row, and the tag its side expects, on a given grid and on the file's own."""
    path = tmp_path / f"{kind}.csv"
    if kind == "cells":
        write_cell_csv(path, CellField(TAG_GRID, np.linspace(0.0, 1.0, TAG_GRID.n_cells)))
    else:
        write_node_csv(path, NodeField(TAG_GRID, np.linspace(0.0, 1.0, TAG_GRID.n_cells + 1)))
    lines = path.read_bytes().decode().split("\r\n")
    for row, tag in rows.items():
        x, value, _ = lines[row + 1].split(",")
        lines[row + 1] = f"{x},{value},{tag}"
    path.write_bytes("\r\n".join(lines).encode())
    read = read_cell_csv if kind == "cells" else read_node_csv
    for grid in (TAG_GRID, None):  # a given grid, and the file's own
        with pytest.raises(GridMismatchError) as err:
            read(path, grid)
        assert str(err.value) == f"{path}: {message}"
