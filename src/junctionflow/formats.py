"""CSV state files and JSON manifests.

Floats are written with ``repr``, which round-trips every IEEE double
exactly, so states survive the external-process protocol bit for bit.
The junction is pinned at x = 0 in every file and each row carries its
side ('l' left of the junction, 'r' right of it, 'j' the junction node
itself) so there is no off-by-one ambiguity about where the interface
sits.  A file is written in one streamed pass: the header, then one
``x,value,side`` line per row, each ended by ``\r\n``.  These are the
bytes the ``csv`` module's default writer produces (no ``repr`` of a
float and no side tag needs quoting), and files are read back with the
``csv`` module.  Every row must carry as many fields as the header, and
every read is checked row by row against a grid: the one given (the
external-process protocol), or else the file's own, the grid that wrote
it.  The checks are coordinates, side tags and finite values.

``repr`` (0.65 to 1 µs a float) is most of a write, so the writers call
it once per float they print and do little else per row.  A row's
grid-only text (its coordinate and side tag) depends on the grid alone:
``_grid_text``, a one-entry ``functools.lru_cache`` over the grid, keeps
the last grid's, one set of ``%``-templates of ``_BLOCK_ROWS`` rows
(about 22 bytes a row) per kind, cells or nodes, built on the kind's
first write from one ``repr`` per coordinate joined per run of one side
tag; later writes of either kind fill them in again.  The cache drops
the last grid's text once it has made the next grid's empty entry,
before any template is built, so one grid's text is resident.  The
first write of each kind on a grid costs two ``repr`` calls a row and
each later write one.  Values are formatted a block at a time, once per
run of bit-identical neighbours in the block (compared as ``int64``, so
0.0 and -0.0 stay apart): piecewise-constant densities repeat their left
neighbour in most cells, while a block with no such neighbour (every
potential file) is one ``repr`` a float and nothing more.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from dataclasses import replace
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .cl_solver import CellField, Grid
from .errors import DomainError, GridMismatchError
from .hj_solver import NodeField


def _fmt(v: float) -> str:
    return repr(float(v))


def _layout(grid: Grid, kind: str) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    """The x coordinate of each row of ``grid``'s ``kind``, "cells" or "nodes", and its side tags.

    The tags come in row order, each with its count of rows; the x = 0 node is 'j'.
    """
    if kind == "cells":
        return grid.cell_centers(), (("l", grid.n_left), ("r", grid.n_right))
    return grid.node_coords(), (("l", grid.n_left), ("j", 1), ("r", grid.n_right))


# Rows a template of a grid's text holds, and rows of values formatted at
# a time: long enough that a block's numpy calls and ``write`` cost little
# per row, short enough that a block's strings are a small tuple.
_BLOCK_ROWS = 4096


@functools.lru_cache(maxsize=1)
def _grid_text(grid: Grid) -> dict[str, tuple[str, ...]]:
    """The last grid's row templates by kind; each kind's first write adds them (racing threads may build twice)."""
    return {}


def _float_reprs(values: np.ndarray) -> tuple[str, ...]:
    """``repr`` of each float of ``values``, formatting each run of bit-identical neighbours once."""
    values = np.asarray(values, dtype=float)
    bits = values.view(np.int64)
    starts = np.empty(values.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    if starts[1:].all():  # no float equals its left neighbour, as in every potential file
        return tuple(map(repr, values.tolist()))
    starts[0] = True
    firsts = list(map(repr, values[starts].tolist()))
    return itemgetter(*(np.cumsum(starts) - 1).tolist())(firsts)  # two or more floats here, so a tuple


def _row_templates(grid: Grid, kind: str) -> tuple[str, ...]:
    """The ``x,%s,side\r\n`` rows of ``grid``'s cells or nodes, ``_BLOCK_ROWS`` to a string."""
    kinds = _grid_text(grid)  # the last grid's text goes before this one's is built
    templates = kinds.get(kind)
    if templates is None:
        templates = kinds[kind] = tuple(_template_blocks(*_layout(grid, kind)))
    return templates


def _template_blocks(xs: np.ndarray, sides: tuple[tuple[str, int], ...]):
    """Each block's template, from one ``repr`` a coordinate joined per piece of a side's rows in the block."""
    pieces, lo = [], 0
    for tag, count in sides:
        row, hi = f",%s,{tag}\r\n", lo + count
        while lo < hi:
            cut = min(hi, lo - lo % _BLOCK_ROWS + _BLOCK_ROWS)  # the side's end or the block's
            pieces.append(row.join(map(repr, xs[lo:cut].tolist())) + row)
            lo = cut
            if lo % _BLOCK_ROWS == 0:
                yield "".join(pieces)
                pieces = []
    if pieces:
        yield "".join(pieces)


def _write_rows(path, header: list[str], templates: tuple[str, ...], values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k, template in enumerate(templates):
            fh.write(template % _float_reprs(values[k * _BLOCK_ROWS : (k + 1) * _BLOCK_ROWS]))


def write_cell_csv(path, state: CellField) -> None:
    """Write cells as rows (x center, density, side)."""
    _write_rows(path, ["x", "rho", "side"], _row_templates(state.grid, "cells"), state.values)


def read_cell_csv(path, grid: Grid | None = None) -> CellField:
    """Read a cell CSV on ``grid``, or on the grid that wrote it when none is given.

    Every row must sit at its cell center (within 1e-9 * max(dx, 1)) and,
    when the file has a side column, carry its side's tag.  Every value
    must be finite.
    """
    xs, vals, sides = _read_rows(path, "rho")
    grid = _file_grid(path, xs, "cells") if grid is None else grid
    _check_rows(path, xs, sides, grid, "cells")
    return CellField(grid=grid, values=vals)


def write_node_csv(path, state: NodeField) -> None:
    """Write nodes as rows (x, u, side); the x = 0 node is tagged 'j'."""
    _write_rows(path, ["x", "u", "side"], _row_templates(state.grid, "nodes"), state.values)


def read_node_csv(path, grid: Grid | None = None) -> NodeField:
    """Read a node CSV; the same checks as ``read_cell_csv``, against the nodes."""
    xs, vals, sides = _read_rows(path, "u")
    grid = _file_grid(path, xs, "nodes") if grid is None else grid
    _check_rows(path, xs, sides, grid, "nodes")
    return NodeField(grid=grid, values=vals)


def _read_rows(path, value_col: str) -> tuple[np.ndarray, np.ndarray, list[str] | None]:
    """The x and value columns, and the side column when the file has one."""
    with open(path, newline="") as fh:
        rows = (row for row in csv.reader(fh) if row)  # blank lines hold no row
        header = next(rows, [])
        if "x" not in header or value_col not in header:
            raise GridMismatchError(f"{path}: expected columns x,{value_col}")
        ix, iv = header.index("x"), header.index(value_col)
        iside = header.index("side") if "side" in header else None
        xs, vals, sides = [], [], []
        for k, row in enumerate(rows, 1):
            if len(row) != len(header):
                raise GridMismatchError(f"{path}: data row {k} has {len(row)} field(s); the header has {len(header)}")
            try:
                xs.append(float(row[ix]))
                vals.append(float(row[iv]))
            except ValueError as exc:
                raise GridMismatchError(f"{path}: data row {k}: {exc}") from exc
            if iside is not None:
                sides.append(row[iside])
    if len(xs) < 2:
        raise GridMismatchError(f"{path}: too few rows")
    vals = np.array(vals)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise DomainError(f"{path}: data row {bad[0] + 1} holds the non-finite value {_fmt(vals[bad[0]])}")
    return np.array(xs), vals, sides if iside is not None else None


def _check_rows(path, xs, sides, grid: Grid, kind: str) -> None:
    expected_x, side_counts = _layout(grid, kind)
    expected_sides = list(chain.from_iterable(repeat(tag, count) for tag, count in side_counts))
    if len(xs) != len(expected_x):
        raise GridMismatchError(f"{path}: {len(xs)} rows for a grid with {len(expected_x)} {kind}")
    # written so that a NaN coordinate fails too
    off = np.flatnonzero(~(np.abs(xs - expected_x) <= 1e-9 * max(grid.dx, 1.0)))
    if off.size:
        k = off[0]
        raise GridMismatchError(f"{path}: data row {k + 1} has x = {_fmt(xs[k])}, the grid puts {_fmt(expected_x[k])} there")
    if sides is not None and sides != expected_sides:
        k = next(i for i, (got, want) in enumerate(zip(sides, expected_sides)) if got != want)
        raise GridMismatchError(f"{path}: data row {k + 1} is tagged side {sides[k]!r}, expected {expected_sides[k]!r}")


def _file_grid(path, xs: np.ndarray, kind: str) -> Grid:
    """The grid that wrote ``xs``, the x column of a file of ``kind`` rows.

    It has a cell left of the junction for each row at x < 0 and one right
    of it for each row at x > 0.  Its dx is the float nearest the span
    estimate ``(x[-1] - x[0]) / (rows - 1)`` (cells and nodes alike), and
    within 2 ulps of it, whose grid puts every row at its x exactly; if
    none does, the estimate.  ``_check_rows`` then checks the rows against
    it as against a given grid.
    """
    n_left, n_right = int(np.count_nonzero(xs < 0.0)), int(np.count_nonzero(xs > 0.0))
    try:
        grid = Grid(n_left, n_right, float((xs[-1] - xs[0]) / (len(xs) - 1)))
    except GridMismatchError as exc:
        raise GridMismatchError(f"{path}: the x column fits no grid: {exc}") from None
    up, down = np.nextafter(grid.dx, np.inf), np.nextafter(grid.dx, 0.0)
    for dx in (grid.dx, up, down, np.nextafter(up, np.inf), np.nextafter(down, 0.0)):
        if sys.float_info.min <= dx < np.inf:
            candidate = replace(grid, dx=float(dx))
            if np.array_equal(_layout(candidate, kind)[0], xs):
                return candidate
    return grid


def write_xy_csv(path, header: tuple[str, str], xs: np.ndarray, ys: np.ndarray) -> None:
    """Write two float columns under ``header``, one ``x,y`` line per row ended by ``\n``."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        for k in range(0, len(xs), _BLOCK_ROWS):
            rows = zip(_float_reprs(xs[k : k + _BLOCK_ROWS]), _float_reprs(ys[k : k + _BLOCK_ROWS]))
            fh.write("".join([f"{x},{y}\n" for x, y in rows]))


def write_manifest(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
