"""One flux on both sides: the kernel's one-pass path against the per-side references.

When the junction's two fluxes are equal, ``cl_solver.FluxKernel``
evaluates the envelopes of all cells in one pass instead of one pass a
side.  The marches below run on such twin junctions, with data that
holds ``-0.0``, single and batched (by ``SemigroupHandle``).  They must
agree with ``test_kernel``'s verbatim references as ``test_kernel``
compares, and byte for byte, signs of zero included, with the same
march on a junction whose right flux is an unequal twin: the same
arithmetic under a subclass, which the kernel marches one pass a side.
The references take the junction minimum with
``junction.junction_flux``, which breaks ties as the kernel does (first
of cap, demand, supply), so a zero flux keeps its sign too.  A bad
datum must be reported with the message of the per-side references.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    CellField,
    ConcaveFlux,
    DomainError,
    Grid,
    JunctionModel,
    NodeField,
    PiecewiseLinearFlux,
    QuadraticFlux,
    SemigroupHandle,
    hj_direct_solve,
    solve,
    step,
)
from junctionflow.cl_solver import FluxKernel
from strategies import side_values, twin_junctions
from test_kernel import _outcome, _ref_hj_direct_solve, _ref_solve, _ref_step


@st.composite
def twin_marches(draw):
    """(twin junction, grid, batch size, data seed, cfl, snapshot times ending at t_end)."""
    j = draw(twin_junctions())
    grid = Grid(n_left=draw(st.integers(1, 20)), n_right=draw(st.integers(1, 20)), dx=draw(st.floats(0.01, 0.5)))
    size = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    cfl = draw(st.floats(0.05, 1.0))
    t_end = draw(st.integers(0, 10)) * cfl * grid.dx / j.lipschitz_bound
    snaps = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)))
    return j, grid, size, seed, cfl, [s * t_end for s in snaps] + [t_end]


def _densities(rng, j, grid) -> np.ndarray:
    v = np.concatenate([side_values(rng, j.left, grid.n_left), side_values(rng, j.right, grid.n_right)])
    v[rng.random(grid.n_cells) < 0.2] = -0.0
    return v


def _potential(rng, j, grid) -> np.ndarray:
    """Nodes whose slopes are clipped ``side_values``, one of them ``-0.0``."""
    slopes = np.concatenate(
        [
            np.clip(side_values(rng, j.left, grid.n_left), 0.0, j.left.rmax),
            np.clip(side_values(rng, j.right, grid.n_right), 0.0, j.right.rmax),
        ]
    )
    k = rng.integers(grid.n_cells)
    slopes[k] = 0.0
    u = np.cumsum(np.concatenate([[rng.uniform(-1.0, 1.0)], grid.dx * slopes]))
    u -= u[k]  # u[k] and u[k + 1] are now +0.0
    u[k + 1] = -0.0  # so slope k is -0.0 / dx
    return u


class _SplitQuadratic(QuadraticFlux):
    """``QuadraticFlux`` arithmetic, unequal to every ``QuadraticFlux``."""


class _SplitPolygon(PiecewiseLinearFlux):
    """``PiecewiseLinearFlux`` arithmetic, unequal to every ``PiecewiseLinearFlux``."""


def _split(j: JunctionModel) -> JunctionModel:
    """``j`` with its right flux swapped for an unequal twin, so that the kernel takes a pass a side."""
    cls = _SplitQuadratic if isinstance(j.right, QuadraticFlux) else _SplitPolygon
    right = cls(**{f.name: getattr(j.right, f.name) for f in dataclasses.fields(j.right)})
    assert right != j.left
    return JunctionModel(left=j.left, right=right, limiter=j.limiter)


def _bits(states) -> list[dict]:
    """Each snapshot's time, values and (for cells) edge integrals, as raw bytes."""
    return [{k: np.asarray(v).tobytes() for k, v in vars(s).items() if k != "grid"} for s in states]


def _assert_same_cells(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.time == b.time
        np.testing.assert_array_equal(a.values, b.values)
        assert a.left_flux_time_integral == b.left_flux_time_integral
        assert a.right_flux_time_integral == b.right_flux_time_integral


def _assert_same_nodes(new, ref):
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert a.time == b.time
        np.testing.assert_array_equal(a.values, b.values)


@given(j=twin_junctions())
@settings(max_examples=50)
def test_twin_junctions_draw_equal_sides(j):
    assert j.left == j.right
    assert 0.0 <= j.limiter <= j.left.capacity


@given(case=twin_marches())
@settings(deadline=None, max_examples=150)
def test_solve_on_twin_junctions_matches_reference_bitwise(case):
    j, grid, size, seed, cfl, times = case
    rng = np.random.default_rng(seed)
    states = [CellField(grid, _densities(rng, j, grid), 0.0, *rng.choice([0.0, 0.25], 2)) for _ in range(size)]
    refs = [_outcome(_ref_solve, s, j, times[-1], cfl, times) for s in states]
    for s, (ref, ref_err) in zip(states, refs):
        new, new_err = _outcome(solve, s, j, times[-1], cfl, times)
        assert new_err == ref_err
        if ref is not None:
            _assert_same_cells(new, ref)
            assert _bits(new) == _bits(solve(s, _split(j), times[-1], cfl, times))
    if any(err for _, err in refs):
        with pytest.raises(DomainError):
            SemigroupHandle("cl", j, grid, cfl).evolve_cl(states, times)
        return
    batch = SemigroupHandle("cl", j, grid, cfl).evolve_cl(states, times)
    split_batch = SemigroupHandle("cl", _split(j), grid, cfl).evolve_cl(states, times)
    for run, split_run, (ref, _) in zip(batch, split_batch, refs):
        _assert_same_cells(run, ref)
        assert _bits(run) == _bits(split_run)


@given(case=twin_marches())
@settings(deadline=None, max_examples=150)
def test_hj_direct_solve_on_twin_junctions_matches_reference_bitwise(case):
    j, grid, size, seed, cfl, times = case
    rng = np.random.default_rng(seed)
    states = [NodeField(grid, _potential(rng, j, grid)) for _ in range(size)]
    refs = [_ref_hj_direct_solve(u0, j, times[-1], cfl, times) for u0 in states]
    for u0, ref in zip(states, refs):
        new = hj_direct_solve(u0, j, times[-1], cfl, times)
        _assert_same_nodes(new, ref)
        assert _bits(new) == _bits(hj_direct_solve(u0, _split(j), times[-1], cfl, times))
    batch = SemigroupHandle("hj", j, grid, cfl).evolve_hj(states, times)
    split_batch = SemigroupHandle("hj", _split(j), grid, cfl).evolve_hj(states, times)
    for run, split_run, ref in zip(batch, split_batch, refs):
        _assert_same_nodes(run, ref)
        assert _bits(run) == _bits(split_run)


@given(j=twin_junctions(), seed=st.integers(0, 2**32 - 1), cfl=st.floats(0.05, 1.0))
@settings(deadline=None, max_examples=100)
def test_step_on_twin_junctions_matches_reference_bitwise(j, seed, cfl):
    rng = np.random.default_rng(seed)
    grid = Grid(n_left=int(rng.integers(1, 20)), n_right=int(rng.integers(1, 20)), dx=0.05)
    state = CellField(grid, _densities(rng, j, grid), 0.0, *rng.choice([0.0, 0.25], 2))
    dt = cfl * grid.dx / j.lipschitz_bound
    ref, ref_err = _outcome(_ref_step, state, j, dt)
    new, new_err = _outcome(step, state, j, dt)
    assert new_err == ref_err
    if ref is not None:
        _assert_same_cells([new], [ref])
        assert _bits([new]) == _bits([step(state, _split(j), dt)])


def test_zero_flux_tie_at_a_closed_junction_matches_reference_bytes():
    """Cap +0.0 against a -0.0 demand: the junction flux is +0.0 in both, so the right cell stays +0.0."""
    flux = QuadraticFlux(1.0, 1.0)
    j = JunctionModel(flux, flux, 0.0)
    rho0 = CellField(Grid(2, 1, 0.5), np.array([0.5, -0.0, -0.0]))
    new = solve(rho0, j, 0.125, cfl=1.0)
    ref, _ = _outcome(_ref_solve, rho0, j, 0.125, 1.0, [0.125])
    assert _bits(new) == _bits(ref)
    assert new[-1].values.tobytes() == np.array([0.5, 0.25, 0.0]).tobytes()


# -- bad data: the message of the per-side scan ------------------------------------


@pytest.mark.parametrize(
    "left,right,message",
    [
        (-0.5, math.nan, "density -0.5 outside [0, 1.0]"),
        (math.nan, -0.5, "density must be finite"),
        (1.5, math.inf, "density 1.5 outside [0, 1.0]"),
    ],
)
def test_twin_junction_reports_the_left_half_first(sym_junction, left, right, message):
    grid = Grid(n_left=10, n_right=10, dx=0.1)
    values = np.full(20, 0.4)
    values[3], values[14] = left, right
    rho0 = CellField(grid, values)
    _, ref_err = _outcome(_ref_solve, rho0, sym_junction, 0.1, 0.8, [0.1])
    for march in (solve, step):
        with pytest.raises(DomainError) as exc:
            march(rho0, sym_junction, 0.1)
        assert str(exc.value) == ref_err == message
    # a batch scans the left halves of all rows first, then the right halves
    bad_right, bad_left = np.full(20, 0.4), np.full(20, 0.4)
    bad_right[14], bad_left[3] = right, left
    with pytest.raises(DomainError) as exc:
        batch = [CellField(grid, bad_right), CellField(grid, bad_left)]
        SemigroupHandle("cl", sym_junction, grid).evolve_cl(batch, [0.1])
    assert str(exc.value) == message


# -- the pass count ------------------------------------------------------------------------


@pytest.fixture
def flux_calls(monkeypatch):
    """Counts of ``clamp`` and ``envelopes`` calls, on each flux class that defines one."""
    calls = {"clamp": 0, "envelopes": 0}
    for cls in (ConcaveFlux, PiecewiseLinearFlux):
        for name in calls.keys() & vars(cls).keys():
            method = vars(cls)[name]

            def counted(self, *args, _method=method, _name=name, **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("batch_shape", [(), (3,)])
@pytest.mark.parametrize("plain_edges", [False, True])
@pytest.mark.parametrize("two_flux", [False, True], ids=["twin", "two-flux"])
def test_one_flux_pass_per_distinct_flux(
    flux_calls, monkeypatch, sym_junction, readme_junction, two_flux, batch_shape, plain_edges
):
    twin = JunctionModel(sym_junction.left, dataclasses.replace(sym_junction.left), sym_junction.limiter)
    j = readme_junction if two_flux else twin
    grid = Grid(n_left=6, n_right=5, dx=0.1)
    kernel = FluxKernel(j, grid, batch_shape)
    values = np.random.default_rng(0).uniform(0.0, 1.0, (*batch_shape, grid.n_cells))
    clip, clips = np.clip, []

    def counted_clip(*args, **kwargs):
        clips.append(args)
        return clip(*args, **kwargs)

    monkeypatch.setattr(np, "clip", counted_clip)
    kernel(values, plain_edges=plain_edges)
    passes = 2 if two_flux else 1
    # the range check runs where a march enters; each flux clips its own branches, through ndarray.clip
    assert flux_calls == {"clamp": 0, "envelopes": passes}
    assert clips == []


@pytest.mark.parametrize("two_flux", [False, True], ids=["twin", "two-flux"])
def test_clamp_calls_do_not_grow_with_the_steps(flux_calls, sym_junction, readme_junction, two_flux):
    """A march checks its datum once, at entry: one step and twelve make the same ``clamp`` calls."""
    j = readme_junction if two_flux else sym_junction
    grid = Grid(n_left=6, n_right=5, dx=0.1)
    rng = np.random.default_rng(1)
    cells = [CellField(grid, rng.uniform(0.0, 1.0, grid.n_cells)) for _ in range(3)]
    u0 = NodeField(grid, np.concatenate([[0.0], grid.dx * np.cumsum(cells[0].values)]))
    dt = 0.8 * grid.dx / j.lipschitz_bound

    def clamps(march, *args) -> int:
        flux_calls["clamp"] = 0
        march(*args)
        return flux_calls["clamp"]

    for n in (1, 12):
        assert {
            "solve": clamps(solve, cells[0], j, n * dt),
            "evolve_cl": clamps(SemigroupHandle("cl", j, grid).evolve_cl, cells, [n * dt]),
            "step": clamps(step, cells[0], j, dt),
            "hj_direct_solve": clamps(hj_direct_solve, u0, j, n * dt),
        } == {"solve": 2, "evolve_cl": 2, "step": 2, "hj_direct_solve": 0}
