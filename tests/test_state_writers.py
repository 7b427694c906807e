"""The state writers against the csv-module loop they replaced, byte for byte.

``write_cell_csv`` and ``write_node_csv`` keep each grid's row text (its
coordinates and side tags) between calls and format each run of
bit-identical neighbouring values once.  ``_write_rows_reference``, the
loop before either, is kept verbatim: both must give the same bytes on
grids wider than two blocks of rows with runs across block boundaries,
on side tags that change exactly at a block boundary, on 0.0 next to
-0.0 and on runs of NaN and ±inf, for strided views, for two grids
written alternately and for equal grids built apart, and when a state's
values change between two writes on one grid.

The properties run with blocks of ``BLOCK_ROWS`` rows, so that grids of
a few dozen rows cross block boundaries and an example costs little.
``solve-cl`` and ``solve-hj`` still write through the module's two
names, once a snapshot (the benchmark's tracer counts files there), and
their outputs on a grid wider than two blocks of the real size are frozen
by digest, with values taken before the row text was kept.  A write, and
the CLI's two-column profile writer, holds the strings of a block or two
at a time, never a whole file's (traced with ``tracemalloc``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import CellField, Grid, NodeField, formats, write_cell_csv, write_node_csv
from junctionflow.cli import main
from junctionflow.formats import write_xy_csv

# Rows a block holds while the properties run, in place of ``formats._BLOCK_ROWS``.
BLOCK_ROWS = 16


@pytest.fixture
def small_blocks(monkeypatch, fresh_row_text):
    """``BLOCK_ROWS``-row blocks, and no row text kept from blocks of another size, for one test."""
    monkeypatch.setattr(formats, "_BLOCK_ROWS", BLOCK_ROWS)


def _fmt(v: float) -> str:
    return repr(float(v))


def _write_rows_reference(path, header: list[str], xs: np.ndarray, values: np.ndarray, sides: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for x, v, side in zip(xs, values, sides):
            w.writerow([_fmt(x), _fmt(v), side])


def _assert_reference_bytes(state) -> None:
    """``state`` written by its writer and by the reference loop gives the same bytes."""
    grid = state.grid
    if isinstance(state, CellField):
        write, header, xs = write_cell_csv, ["x", "rho", "side"], grid.cell_centers()
        sides = ["l"] * grid.n_left + ["r"] * grid.n_right
    else:
        write, header, xs = write_node_csv, ["x", "u", "side"], grid.node_coords()
        sides = ["l"] * grid.n_left + ["j"] + ["r"] * grid.n_right
    with tempfile.TemporaryDirectory() as td:
        got, want = Path(td) / "got.csv", Path(td) / "want.csv"
        write(got, state)
        _write_rows_reference(want, header, xs, state.values, sides)
        assert got.read_bytes() == want.read_bytes()


# Signed zeros, NaNs with other payloads and signs (all print as 'nan'), and
# the infinities: the values whose runs the bitwise comparison must split or keep.
NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
SPECIAL = [0.0, -0.0, float("nan"), -float("nan"), NAN_PAYLOAD, float("inf"), float("-inf"), 1 / 3, 1e16, 5e-324]
run_value = st.sampled_from(SPECIAL) | st.floats()


@st.composite
def grids(draw, min_rows: int, max_rows: int):
    """A grid of ``min_rows`` to ``max_rows`` cells and a random dx."""
    n_cells = draw(st.integers(min_rows, max_rows))
    n_left = draw(st.integers(1, n_cells - 1))
    return Grid(n_left, n_cells - n_left, draw(st.floats(sys.float_info.min, 1e300)))


# More than two blocks of rows; and up to one block boundary, where width is not the point.
wide_grids = grids(2 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + BLOCK_ROWS // 4)
small_grids = grids(2, BLOCK_ROWS + BLOCK_ROWS // 4)


@st.composite
def runs(draw, size: int, values=run_value, max_length: int = 3 * BLOCK_ROWS // 2) -> np.ndarray:
    """``size`` values: a pattern of up to 12 runs, repeated; long runs cross block boundaries."""
    pieces = draw(st.lists(st.tuples(values, st.integers(1, max_length)), min_size=1, max_size=12))
    pattern = np.repeat(np.array([v for v, _ in pieces], dtype=float), [k for _, k in pieces])
    return np.resize(pattern, size)


@pytest.mark.usefixtures("small_blocks")
@settings(deadline=None)
@given(st.data())
def test_wide_grids_with_runs_across_blocks_match_the_reference(data):
    grid = data.draw(wide_grids)
    _assert_reference_bytes(CellField(grid, data.draw(runs(grid.n_cells))))
    _assert_reference_bytes(NodeField(grid, data.draw(runs(grid.n_cells + 1))))


@pytest.mark.usefixtures("small_blocks")
@settings(deadline=None)
@given(st.data())
def test_signed_zeros_nans_and_infinities_match_the_reference(data):
    """Runs of one to three special values, repeated over a grid of up to two blocks."""
    grid = data.draw(small_grids)
    values = data.draw(runs(grid.n_cells + 1, st.sampled_from(SPECIAL), max_length=3))
    _assert_reference_bytes(CellField(grid, values[: grid.n_cells]))
    _assert_reference_bytes(NodeField(grid, values))


@pytest.mark.usefixtures("small_blocks")
@settings(deadline=None)
@given(st.data())
def test_strided_views_match_the_reference(data):
    grid = data.draw(small_grids)
    step = data.draw(st.sampled_from([2, 3, -1, -2]))
    base = data.draw(runs(abs(step) * (grid.n_cells + 1)))
    cells, nodes = base[::step][: grid.n_cells], base[::step][: grid.n_cells + 1]
    state = CellField(grid, cells)
    assert np.shares_memory(state.values, base) and not state.values.flags.c_contiguous  # the view itself
    _assert_reference_bytes(state)
    _assert_reference_bytes(NodeField(grid, nodes))


@pytest.mark.usefixtures("small_blocks")
@settings(deadline=None)
@given(st.data())
def test_two_grids_written_alternately_and_equal_grids_built_apart_match_the_reference(data):
    a, b = data.draw(small_grids), data.draw(small_grids)
    twin = Grid(a.n_left, a.n_right, a.dx)  # equal to ``a``, built apart
    assert twin == a and twin is not a

    def cells(grid):
        return CellField(grid, data.draw(runs(grid.n_cells)))

    # another grid and back, an equal grid, the other kind of row and back
    for state in (cells(a), cells(b), cells(a), cells(twin), NodeField(twin, data.draw(runs(a.n_cells + 1))), cells(a)):
        _assert_reference_bytes(state)


@pytest.mark.usefixtures("small_blocks")
@settings(deadline=None)
@given(st.data())
def test_values_changed_between_two_writes_on_one_grid_match_the_reference(data):
    grid = data.draw(small_grids)
    state = CellField(grid, data.draw(runs(grid.n_cells)))
    _assert_reference_bytes(state)
    k = data.draw(st.integers(0, grid.n_cells - 1))
    state.values[k:] = data.draw(run_value)  # in place, on the array the last write read
    _assert_reference_bytes(state)
    state.values = data.draw(runs(grid.n_cells))  # a new array
    _assert_reference_bytes(state)


# Grids whose side tag changes exactly at a block boundary, and whose last block is one row.
@pytest.mark.usefixtures("small_blocks")
@pytest.mark.parametrize(
    "kind, n_left, n_right",
    [
        pytest.param("cells", BLOCK_ROWS, BLOCK_ROWS + 5, id="cells-r-starts-the-second-block"),
        pytest.param("cells", 2 * BLOCK_ROWS, 5, id="cells-r-starts-the-third-block"),
        pytest.param("nodes", BLOCK_ROWS, 7, id="nodes-j-first-row-of-a-block"),
        pytest.param("nodes", 2 * BLOCK_ROWS - 1, 7, id="nodes-j-last-row-of-a-block"),
        pytest.param("cells", 5, 2 * BLOCK_ROWS - 4, id="cells-last-block-of-one-row"),
        pytest.param("nodes", 5, 2 * BLOCK_ROWS - 5, id="nodes-last-block-of-one-row"),
    ],
)
def test_side_tags_changing_at_a_block_boundary_match_the_reference(kind, n_left, n_right):
    grid = Grid(n_left, n_right, 0.1)
    state, rows = (CellField, grid.n_cells) if kind == "cells" else (NodeField, grid.n_cells + 1)
    run_free = np.linspace(-1.0, 1.0, rows)
    with_runs = np.resize(np.repeat([0.25, 0.0, -0.0, 0.5], 3), rows)
    for values in (run_free, with_runs, run_free):  # the last write fills the kept text again
        _assert_reference_bytes(state(grid, values))


# -- the CLI's solve files: one write a snapshot, and their bytes ---------------------------------

SOLVE_CELLS = 10_001  # more than two blocks of formats._BLOCK_ROWS = 4096 rows
SOLVE_SCENARIO = {
    "flux_left": {"kind": "quadratic", "rmax": 1.0, "hmax": 0.25},
    "flux_right": {"kind": "piecewise_linear", "points": [[0, 0], [0.5, 0.25], [1, 0]]},
    "limiter": 0.1875,
    "domain": [-2.0, 2.0],
    "cells": SOLVE_CELLS,
    "cfl": 0.8,
    "t_end": 0.02,
    "snapshots": [0.0, 0.01, 0.02],
    "seed": 0,
}
SOLVE_DATA = {
    "solve-cl": {
        "piecewise_constant": {"breaks": [-1.3, -0.4, 0.0, 0.35, 1.1], "values": [0.9, 0.2, 0.6, 0.1, 0.75, 0.3]}
    },
    "solve-hj": {"piecewise_linear": {"points": [[-2.0, 0.0], [-1.0, 0.3], [0.0, 0.5], [1.0, 1.2], [2.0, 1.5]]}},
}


def _solve(tmp_path, command: str) -> Path:
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps({**SOLVE_SCENARIO, "datum": SOLVE_DATA[command]}))
    out = tmp_path / command
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


def test_solves_write_each_snapshot_through_the_module_names(monkeypatch, tmp_path):
    """One ``write_cell_csv``/``write_node_csv`` call a snapshot, looked up on ``formats`` at call time."""
    calls = {"write_cell_csv": 0, "write_node_csv": 0}

    def count(name):
        fn = getattr(formats, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(formats, name, counted)

    count("write_cell_csv")
    count("write_node_csv")
    _solve(tmp_path, "solve-cl")
    assert calls == {"write_cell_csv": 3, "write_node_csv": 0}
    _solve(tmp_path, "solve-hj")
    assert calls == {"write_cell_csv": 3, "write_node_csv": 3}


# Taken before the writers kept a grid's row text.
FROZEN_SOLVE_DIGESTS = {
    "solve-cl/cl_snapshot_000.csv": "45bf56c58f92b115a31be25709db0911ad64f92af479c1115845c56a10336250",
    "solve-cl/cl_snapshot_001.csv": "a5fe0199f013b62c999e94a4d94988dc7f34949eb3bbc0486a66535516e328e3",
    "solve-cl/cl_snapshot_002.csv": "79b2e9796b5f6a2281f6c113b6a287917247d26965d0e80a546e18ef05b05f41",
    "solve-cl/manifest.json": "f2376e8cfe6ab6398a6f497782cf525428ac27aa3906f8432f5499db0659e5e1",
    "solve-hj/hj_snapshot_000.csv": "6ec9ae928d2044fd8fda660e87fba8d8c0ff520f581d58ef9dc33b10bc2530f8",
    "solve-hj/hj_snapshot_001.csv": "f0dccb38e31e258d2a422b7fe3af5c73044a69480083e4b2ab2214d5cf058aba",
    "solve-hj/hj_snapshot_002.csv": "e6969c5545fcc5f29a13c340d8afca317d4c1c8c9b05040a36453ba0a45704e8",
    "solve-hj/manifest.json": "e79ee0aa3550b792300da50434255d0912ee1a50ce96a93369c9abc43eb79153",
}


def test_solve_files_on_a_grid_wider_than_a_block_are_frozen(tmp_path):
    assert SOLVE_CELLS > 2 * formats._BLOCK_ROWS  # the real block size
    digests = {}
    for command in SOLVE_DATA:
        for path in sorted(_solve(tmp_path, command).iterdir()):
            digests[f"{command}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == FROZEN_SOLVE_DIGESTS


# -- memory: a write holds a block or two of strings, not a file's ---------------------------------

MEMORY_GRID = Grid(25_000, 25_000, 4.0 / 50_000)  # 50,001 nodes, more than twelve blocks of rows


def _peak_traced_bytes(write) -> int:
    """The most memory ``tracemalloc`` saw allocated at once while ``write()`` ran."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _block_strings(path: Path, columns: list[int]) -> int:
    """Bytes of the strings of the first block of ``path``'s rows: their text, and a ``repr`` a field of ``columns``."""
    lines = path.read_bytes().decode().splitlines(keepends=True)[1 : formats._BLOCK_ROWS + 1]
    reprs = [line.split(",")[k] for line in lines for k in columns]
    return sys.getsizeof("".join(lines)) + sum(map(sys.getsizeof, reprs))


def _run_free_potential() -> NodeField:
    """A potential on ``MEMORY_GRID`` with no two neighbours equal, so each value is one ``repr``."""
    return NodeField(MEMORY_GRID, np.cumsum(np.random.default_rng(0).uniform(0.5, 1.0, MEMORY_GRID.n_cells + 1)))


def test_a_write_on_the_kept_grid_holds_under_two_blocks_of_strings(tmp_path):
    path, state = tmp_path / "u.csv", _run_free_potential()
    write_node_csv(path, state)  # keeps the grid's row text
    peak = _peak_traced_bytes(lambda: write_node_csv(path, state))
    assert peak < 2 * _block_strings(path, [1])


def test_a_first_write_holds_under_its_templates_and_two_blocks_of_strings(fresh_row_text, tmp_path):
    path, state = tmp_path / "u.csv", _run_free_potential()
    peak = _peak_traced_bytes(lambda: write_node_csv(path, state))
    templates = sum(map(sys.getsizeof, formats._row_templates(MEMORY_GRID, "nodes")))
    assert peak < templates + 2 * _block_strings(path, [1])


def test_an_xy_write_holds_under_a_few_blocks_of_strings(tmp_path):
    xs = np.linspace(-2.0, 2.0, 100_001)
    ys = np.cumsum(np.random.default_rng(0).uniform(0.5, 1.0, xs.size))
    path = tmp_path / "xy.csv"
    peak = _peak_traced_bytes(lambda: write_xy_csv(path, ("x", "u"), xs, ys))
    assert peak < 3 * _block_strings(path, [0, 1])
