"""The shared interface-flux kernel against the per-call flux evaluations it replaced.

``_ref_interface_fluxes``/``_ref_step`` and ``_ref_node_hamiltonians``
are verbatim copies of the density and node schemes as they stood
before both were routed through ``cl_solver.FluxKernel``: every
envelope goes through the validated ``demand``/``supply``/``eval``, so
each step clamps the same data about nine times.  The marches below
must agree with them bit for bit, and every validation error they
raised must still be raised, with the same message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    BOUNDARY_TOL,
    CellField,
    DomainError,
    Grid,
    JunctionModel,
    NodeField,
    PiecewiseLinearFlux,
    QuadraticFlux,
    godunov_flux,
    hj_direct_solve,
    junction_flux,
    plan_steps,
    solve,
    validate_lip,
)
from strategies import junctions, side_values

# -- reference schemes ---------------------------------------------------------


def _ref_interface_fluxes(state: CellField, j: JunctionModel) -> np.ndarray:
    nl = state.grid.n_left
    v = state.values
    left = j.left.clamp(v[:nl])
    right = j.right.clamp(v[nl:])
    fluxes = np.empty(state.grid.n_cells + 1)
    # outer edges: zero-gradient copy cells
    fluxes[0] = godunov_flux(j.left, left[0], left[0])
    fluxes[-1] = godunov_flux(j.right, right[-1], right[-1])
    if nl > 1:
        fluxes[1:nl] = godunov_flux(j.left, left[:-1], left[1:])
    if state.grid.n_right > 1:
        fluxes[nl + 1 : -1] = godunov_flux(j.right, right[:-1], right[1:])
    fluxes[nl] = junction_flux(j, left[-1], right[0])
    return fluxes


def _ref_step(state: CellField, j: JunctionModel, dt: float) -> CellField:
    dx = state.grid.dx
    fluxes = _ref_interface_fluxes(state, j)
    new_values = state.values - (dt / dx) * np.diff(fluxes)
    return CellField(
        grid=state.grid,
        values=new_values,
        time=state.time + dt,
        left_flux_time_integral=state.left_flux_time_integral + dt * fluxes[0],
        right_flux_time_integral=state.right_flux_time_integral + dt * fluxes[-1],
    )


def _ref_solve(rho0: CellField, j: JunctionModel, t_end: float, cfl: float, targets) -> list[CellField]:
    dt_max = cfl * rho0.grid.dx / j.lipschitz_bound
    state = rho0.copy()
    out = []
    for target in targets:
        n, dt = plan_steps(state.time, target, dt_max)
        for _ in range(n):
            state = _ref_step(state, j, dt)
        state.time = target
        out.append(state.copy())
    return out


def _ref_node_hamiltonians(u: np.ndarray, grid: Grid, j: JunctionModel) -> np.ndarray:
    nl = grid.n_left
    p = np.diff(u) / grid.dx
    pl = p[:nl]
    pr = p[nl:]
    h = np.empty(grid.n_cells + 1)
    # outer nodes copy the adjacent one-sided slope (zero-gradient in slope)
    h[0] = j.left.eval(pl[0])
    h[-1] = j.right.eval(pr[-1])
    if nl > 1:
        h[1:nl] = np.minimum(j.left.demand(pl[:-1]), j.left.supply(pl[1:]))
    if grid.n_right > 1:
        h[nl + 1 : -1] = np.minimum(j.right.demand(pr[:-1]), j.right.supply(pr[1:]))
    h[nl] = min(j.limiter, j.left.demand(pl[-1]), j.right.supply(pr[0]))
    return h


def _ref_hj_direct_solve(u0: NodeField, j: JunctionModel, t_end: float, cfl: float, targets) -> list[NodeField]:
    grid = u0.grid
    dt_max = cfl * grid.dx / j.lipschitz_bound
    u = u0.values.copy()
    t_now = u0.time
    out = []
    for target in targets:
        n, dt = plan_steps(t_now, target, dt_max)
        for _ in range(n):
            u = u - dt * _ref_node_hamiltonians(u, grid, j)
        t_now = target
        out.append(NodeField(grid=grid, values=u.copy(), time=target))
    return out


# -- strategies ------------------------------------------------------------------


@st.composite
def marches(draw):
    """(junction, grid, data seed, cfl, t_end, snapshot times)."""
    j = draw(junctions())
    grid = Grid(n_left=draw(st.integers(1, 25)), n_right=draw(st.integers(1, 25)), dx=draw(st.floats(0.01, 0.5)))
    seed = draw(st.integers(0, 2**32 - 1))
    cfl = draw(st.floats(0.05, 1.0))
    steps_to_end = draw(st.integers(0, 12))
    t_end = steps_to_end * cfl * grid.dx / j.lipschitz_bound
    snaps = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)))
    return j, grid, seed, cfl, t_end, [s * t_end for s in snaps] + [t_end]


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except DomainError as exc:
        return None, str(exc)


# -- equivalence -------------------------------------------------------------------


@given(case=marches())
@settings(deadline=None, max_examples=150)
def test_solve_matches_reference_bitwise(case):
    j, grid, seed, cfl, t_end, targets = case
    rng = np.random.default_rng(seed)
    values = np.concatenate([side_values(rng, j.left, grid.n_left), side_values(rng, j.right, grid.n_right)])
    # integrals that start at 0 show an ulp of edge flux that a sum with 0.25 would round away
    left_int, right_int = rng.choice([0.0, 0.25], 2)
    rho0 = CellField(grid, values, left_flux_time_integral=left_int, right_flux_time_integral=right_int)
    ref, ref_err = _outcome(_ref_solve, rho0, j, t_end, cfl, targets)
    new, new_err = _outcome(solve, rho0, j, t_end, cfl, targets)
    assert new_err == ref_err
    if ref is None:
        return
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.time == b.time
        np.testing.assert_array_equal(a.values, b.values)
        assert a.left_flux_time_integral == b.left_flux_time_integral
        assert a.right_flux_time_integral == b.right_flux_time_integral
    np.testing.assert_array_equal(rho0.values, values)  # the datum is not marched in place


@given(case=marches())
@settings(deadline=None, max_examples=150)
def test_hj_direct_solve_matches_reference_bitwise(case):
    j, grid, seed, cfl, t_end, targets = case
    rng = np.random.default_rng(seed)
    slopes = np.concatenate([side_values(rng, j.left, grid.n_left), side_values(rng, j.right, grid.n_right)])
    # keep the entry check (tolerance 1e-9) clear of the cumulative-sum round-off
    slopes = np.concatenate(
        [np.clip(slopes[: grid.n_left], 0.0, j.left.rmax), np.clip(slopes[grid.n_left :], 0.0, j.right.rmax)]
    )
    u = np.concatenate([[rng.uniform(-1.0, 1.0)], grid.dx * slopes])
    u0 = NodeField(grid, np.cumsum(u))
    ref, ref_err = _outcome(_ref_hj_direct_solve, u0, j, t_end, cfl, targets)
    new, new_err = _outcome(hj_direct_solve, u0, j, t_end, cfl, targets)
    assert new_err == ref_err
    if ref is None:
        return
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.time == b.time
        np.testing.assert_array_equal(a.values, b.values)


def test_near_critical_outer_edges_match_reference():
    """Edge cells within a few ulps of p_crit, where H(p) may exceed H(p_crit).

    There the density scheme's copy-cell flux min(D, S) and the node
    scheme's plain H(p) differ by an ulp, so each scheme must keep its own.
    Integrals start at 0 so that the ulp is not rounded away.
    """
    rng = np.random.default_rng(20)
    grid = Grid(n_left=3, n_right=3, dx=0.1)
    for _ in range(200):
        left = QuadraticFlux(rmax=rng.uniform(0.2, 5.0), hmax=rng.uniform(0.05, 2.0))
        right = QuadraticFlux(rmax=rng.uniform(0.2, 5.0), hmax=rng.uniform(0.05, 2.0))
        j = JunctionModel(left, right, 0.5 * min(left.capacity, right.capacity))
        wobble = 1.0 + rng.uniform(-3e-9, 3e-9, 6)
        values = np.concatenate([np.full(3, left.p_crit), np.full(3, right.p_crit)]) * wobble
        t = 2.0 * grid.dx / j.lipschitz_bound
        rho0 = CellField(grid, values)
        (a,), (b,) = solve(rho0, j, t), _ref_solve(rho0, j, t, 0.8, [t])
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.left_flux_time_integral, a.right_flux_time_integral) == (
            b.left_flux_time_integral,
            b.right_flux_time_integral,
        )
        u0 = NodeField(grid, np.concatenate([[0.0], grid.dx * np.cumsum(values)]))
        (a,), (b,) = hj_direct_solve(u0, j, t), _ref_hj_direct_solve(u0, j, t, 0.8, [t])
        np.testing.assert_array_equal(a.values, b.values)


def test_fine_march_matches_reference_bitwise(asym_junction):
    """A longer march on the demo fluxes of the README: quadratic left, polygon right."""
    j = JunctionModel(
        left=QuadraticFlux(rmax=1.0, hmax=0.25),
        right=PiecewiseLinearFlux(points=((0.0, 0.0), (0.4, 0.25), (1.0, 0.0))),
        limiter=0.1875,
    )
    grid = Grid.from_domain(-2.0, 2.0, 600)
    rng = np.random.default_rng(5)
    rho0 = CellField(grid, np.repeat(rng.uniform(0.0, 1.0, 12), 50))
    times = [0.25, 0.5, 0.5, 1.0]
    for a, b in zip(solve(rho0, j, 1.0, 0.8, times), _ref_solve(rho0, j, 1.0, 0.8, times)):
        np.testing.assert_array_equal(a.values, b.values)
        assert (a.left_flux_time_integral, a.right_flux_time_integral) == (
            b.left_flux_time_integral,
            b.right_flux_time_integral,
        )
    u0 = NodeField(grid, np.concatenate([[0.0], grid.dx * np.cumsum(rho0.values)]))
    for a, b in zip(hj_direct_solve(u0, j, 1.0, 0.8, times), _ref_hj_direct_solve(u0, j, 1.0, 0.8, times)):
        np.testing.assert_array_equal(a.values, b.values)


# -- validation still fires ------------------------------------------------------------

BAD_DENSITIES = [
    (math.nan, "density must be finite"),
    (math.inf, "density must be finite"),
    (-math.inf, "density must be finite"),
    (1.5, "density 1.5 outside [0, 1.0]"),
    (-2e-9, "density -2e-09 outside [0, 1.0]"),
    (1.0 + 2e-9, f"density {1.0 + 2e-9} outside [0, 1.0]"),
]


@pytest.mark.parametrize("bad,message", BAD_DENSITIES)
def test_clamp_rejects_bad_values(default_flux, bad, message):
    with pytest.raises(DomainError) as scalar:
        default_flux.clamp(bad)
    assert str(scalar.value) == message
    arr = np.array([0.2, 0.5, bad, 0.7, bad])
    with pytest.raises(DomainError) as array:
        default_flux.clamp(arr)
    assert str(array.value) == message


def test_clamp_fast_path_keeps_values(default_flux):
    assert default_flux.clamp(np.empty(0)).shape == (0,)
    assert default_flux.clamp(-BOUNDARY_TOL) == 0.0
    assert default_flux.clamp(1.0 + BOUNDARY_TOL) == 1.0
    assert default_flux.clamp(0.3) == 0.3
    v = np.array([-BOUNDARY_TOL, 0.3, 1.0 + BOUNDARY_TOL])
    np.testing.assert_array_equal(default_flux.clamp(v), [0.0, 0.3, 1.0])


@pytest.mark.parametrize("bad,message", BAD_DENSITIES)
@pytest.mark.parametrize("where", [0, 9, 10, 19])
def test_solve_rejects_bad_data_like_reference(sym_junction, bad, message, where):
    grid = Grid(n_left=10, n_right=10, dx=0.1)
    values = np.full(20, 0.4)
    values[where] = bad
    rho0 = CellField(grid, values)
    _, ref_err = _outcome(_ref_solve, rho0, sym_junction, 0.1, 0.8, [0.1])
    with pytest.raises(DomainError) as exc:
        solve(rho0, sym_junction, 0.1)
    assert str(exc.value) == ref_err == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 5, 10, 20])
def test_hj_direct_solve_rejects_non_finite_like_reference(sym_junction, bad, where):
    grid = Grid(n_left=10, n_right=10, dx=0.1)
    values = 0.4 * grid.node_coords()
    values[where] = bad
    u0 = NodeField(grid, values)

    def reference(u0):
        validate_lip(u0, sym_junction)  # the entry check
        return _ref_hj_direct_solve(u0, sym_junction, 0.1, 0.8, [0.1])

    _, ref_err = _outcome(reference, u0)
    with pytest.raises(DomainError) as exc:
        hj_direct_solve(u0, sym_junction, 0.1)
    assert str(exc.value) == ref_err
    if math.isnan(bad):  # NaN slopes fail the entry check, before any step
        assert ref_err.startswith("slopes span [nan, nan]")
