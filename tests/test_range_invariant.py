"""The invariant that lets a march check its datum only at entry.

Under the CFL bound both schemes are monotone, so a datum inside
[0, R] up to ``BOUNDARY_TOL`` stays there: every snapshot of ``solve``
and of a handle's batch of densities lies within
[-BOUNDARY_TOL, R + BOUNDARY_TOL] on each side, and every snapshot of
``hj_direct_solve`` and of a batch of potentials passes
``validate_lip``.  On the strength of
this, ``cl_solver.FluxKernel`` clips each step without a range check.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    BOUNDARY_TOL,
    CellField,
    Grid,
    NodeField,
    SemigroupHandle,
    hj_direct_solve,
    solve,
    validate_lip,
)
from strategies import junctions, side_values, twin_junctions


@st.composite
def range_marches(draw):
    """(junction, grid, batch size, data seed, cfl in (0, 1], snapshot times ending at t_end)."""
    j = draw(junctions() | twin_junctions())
    grid = Grid(n_left=draw(st.integers(1, 20)), n_right=draw(st.integers(1, 20)), dx=draw(st.floats(0.01, 0.5)))
    size = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    cfl = draw(st.floats(0.0, 1.0, exclude_min=True))
    # t_end a whole number of the largest steps, planned as plan_march plans them
    t_end = draw(st.integers(0, 60)) * (cfl * grid.dx / j.lipschitz_bound)
    snaps = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)))
    return j, grid, size, seed, cfl, [s * t_end for s in snaps] + [t_end]


def _side(rng, flux, n: int, lo: float, hi: float) -> np.ndarray:
    """``side_values`` within [lo, hi], about a third of them the range's edge cases."""
    tol = BOUNDARY_TOL
    edges = np.array([0.0, -0.0, flux.rmax, -tol, tol, flux.rmax - tol, flux.rmax + tol])
    v = side_values(rng, flux, n)
    pick = rng.random(n) < 0.3
    pick[[0, -1]] = rng.random(2) < 0.5  # the outer edges' and the junction's cells
    v[pick] = rng.choice(edges, int(pick.sum()))
    return np.clip(v, lo, hi)


def _densities(rng, j, grid) -> np.ndarray:
    left = _side(rng, j.left, grid.n_left, -BOUNDARY_TOL, j.left.rmax + BOUNDARY_TOL)
    right = _side(rng, j.right, grid.n_right, -BOUNDARY_TOL, j.right.rmax + BOUNDARY_TOL)
    return np.concatenate([left, right])


def _potential(rng, j, grid) -> np.ndarray:
    """Nodes whose slopes lie in [0, R], so that the cumulative sum's round-off passes the entry check."""
    left = _side(rng, j.left, grid.n_left, 0.0, j.left.rmax)
    right = _side(rng, j.right, grid.n_right, 0.0, j.right.rmax)
    slopes = np.concatenate([left, right])
    return np.cumsum(np.concatenate([[rng.uniform(-1.0, 1.0)], grid.dx * slopes]))


def _assert_in_range(snapshots, j):
    for s in snapshots:
        nl = s.grid.n_left
        for side, flux in ((s.values[:nl], j.left), (s.values[nl:], j.right)):
            assert side.min() >= -BOUNDARY_TOL and side.max() <= flux.rmax + BOUNDARY_TOL, (s.time, side)


@given(case=range_marches())
@settings(deadline=None)
def test_densities_stay_in_range(case):
    j, grid, size, seed, cfl, times = case
    rng = np.random.default_rng(seed)
    states = [CellField(grid, _densities(rng, j, grid)) for _ in range(size)]
    _assert_in_range(solve(states[0], j, times[-1], cfl, times), j)
    for run in SemigroupHandle("cl", j, grid, cfl).evolve_cl(states, times):
        _assert_in_range(run, j)


@given(case=range_marches())
@settings(deadline=None)
def test_potentials_stay_in_the_lip_class(case):
    j, grid, size, seed, cfl, times = case
    rng = np.random.default_rng(seed)
    states = [NodeField(grid, _potential(rng, j, grid)) for _ in range(size)]
    for u in hj_direct_solve(states[0], j, times[-1], cfl, times):
        validate_lip(u, j)
    for run in SemigroupHandle("hj", j, grid, cfl).evolve_hj(states, times):
        for u in run:
            validate_lip(u, j)
