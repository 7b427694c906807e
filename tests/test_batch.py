"""Batched evolution: a handle's batch is bit for bit its states' single runs.

``SemigroupHandle.evolve_cl``/``evolve_hj`` march a batch of states as
the rows of one array.  Each row must equal ``solve``/``hj_direct_solve``
of its state alone: values, time and, for densities, both flux-time
integrals; a bad entry in any state of the batch must still be rejected,
and so must a list of times the single run refuses, before any march or
external call.
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
    DomainError,
    Grid,
    GridMismatchError,
    NodeField,
    SemigroupHandle,
    StepError,
    hj_direct_solve,
    solve,
)
from strategies import junctions, side_values


@st.composite
def batch_marches(draw):
    """(junction, grid, batch size, data seed, cfl, snapshot times ending at t_end)."""
    j = draw(junctions())
    grid = Grid(n_left=draw(st.integers(1, 20)), n_right=draw(st.integers(1, 20)), dx=draw(st.floats(0.01, 0.5)))
    size = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    cfl = draw(st.floats(0.05, 1.0))
    t_end = draw(st.integers(0, 10)) * cfl * grid.dx / j.lipschitz_bound
    snaps = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)))
    return j, grid, size, seed, cfl, [s * t_end for s in snaps] + [t_end]


def _densities(rng, j, grid) -> np.ndarray:
    return np.concatenate([side_values(rng, j.left, grid.n_left), side_values(rng, j.right, grid.n_right)])


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except DomainError as exc:
        return None, str(exc)


@given(case=batch_marches())
@settings(deadline=None, max_examples=100)
def test_evolve_cl_matches_solve_per_state(case):
    j, grid, size, seed, cfl, times = case
    rng = np.random.default_rng(seed)
    states = [
        CellField(grid, _densities(rng, j, grid), 0.0, *rng.choice([0.0, 0.25], 2)) for _ in range(size)
    ]
    singles = [_outcome(solve, s, j, times[-1], cfl, times) for s in states]
    handle = SemigroupHandle("cl", model=j, cfl=cfl)
    if any(err for _, err in singles):
        with pytest.raises(DomainError):
            handle.evolve_cl(states, times)
        return
    batch = handle.evolve_cl(states, times)
    assert len(batch) == size
    for run, (single, _) in zip(batch, singles):
        assert len(run) == len(single)
        for a, b in zip(run, single):
            assert a.time == b.time
            np.testing.assert_array_equal(a.values, b.values)
            assert a.left_flux_time_integral == b.left_flux_time_integral
            assert a.right_flux_time_integral == b.right_flux_time_integral


@given(case=batch_marches())
@settings(deadline=None, max_examples=100)
def test_evolve_hj_matches_hj_direct_solve_per_state(case):
    j, grid, size, seed, cfl, times = case
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(size):
        slopes = _densities(rng, j, grid)
        # keep the entry check (tolerance 1e-9) clear of the cumulative-sum round-off
        slopes[: grid.n_left] = np.clip(slopes[: grid.n_left], 0.0, j.left.rmax)
        slopes[grid.n_left :] = np.clip(slopes[grid.n_left :], 0.0, j.right.rmax)
        states.append(NodeField(grid, np.cumsum(np.concatenate([[rng.uniform(-1.0, 1.0)], grid.dx * slopes]))))
    singles = [_outcome(hj_direct_solve, u, j, times[-1], cfl, times) for u in states]
    handle = SemigroupHandle("hj", model=j, cfl=cfl)
    if any(err for _, err in singles):
        with pytest.raises(DomainError):
            handle.evolve_hj(states, times)
        return
    batch = handle.evolve_hj(states, times)
    assert len(batch) == size
    for run, (single, _) in zip(batch, singles):
        assert len(run) == len(single)
        for a, b in zip(run, single):
            assert a.time == b.time
            np.testing.assert_array_equal(a.values, b.values)


# -- the batch is validated as a whole -------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, -2e-9])
@pytest.mark.parametrize("where", [0, 9, 10, 19])
def test_bad_entry_in_a_later_state_is_rejected(sym_junction, bad, where):
    grid = Grid(n_left=10, n_right=10, dx=0.1)
    rho = [CellField(grid, np.full(20, 0.4)) for _ in range(3)]
    rho[2].values[where] = bad
    with pytest.raises(DomainError):
        SemigroupHandle("cl", model=sym_junction).evolve_cl(rho, [0.1])
    # potentials: a non-finite node, or a slope outside [0, rmax]
    good = 0.4 * grid.node_coords()
    if math.isfinite(bad):
        slopes = np.full(20, 0.4)
        slopes[where] = bad
        last = np.concatenate([[0.0], grid.dx * np.cumsum(slopes)])
    else:
        last = good.copy()
        last[where] = bad
    u = [NodeField(grid, good), NodeField(grid, good), NodeField(grid, last)]
    with pytest.raises(DomainError):
        SemigroupHandle("hj", model=sym_junction).evolve_hj(u, [0.1])


def test_batch_needs_one_grid_and_one_time(sym_junction):
    a, b = Grid(n_left=10, n_right=10, dx=0.1), Grid(n_left=10, n_right=11, dx=0.1)
    h_cl = SemigroupHandle("cl", model=sym_junction)
    h_hj = SemigroupHandle("hj", model=sym_junction)
    with pytest.raises(GridMismatchError, match="different grids"):
        h_cl.evolve_cl([CellField(a, np.full(20, 0.4)), CellField(b, np.full(21, 0.4))], [0.1])
    with pytest.raises(StepError, match="different times"):
        h_cl.evolve_cl([CellField(a, np.full(20, 0.4)), CellField(a, np.full(20, 0.4), time=0.05)], [0.1])
    with pytest.raises(GridMismatchError, match="different grids"):
        h_hj.evolve_hj([NodeField(a, np.zeros(21)), NodeField(b, np.zeros(22))], [0.1])
    with pytest.raises(StepError, match="different times"):
        h_hj.evolve_hj([NodeField(a, np.zeros(21), time=0.05), NodeField(a, np.zeros(21))], [0.1])
    with pytest.raises(GridMismatchError, match="at least one state"):
        h_cl.evolve_cl([], [0.1])


def test_large_batches_march_in_chunks(sym_junction, monkeypatch):
    """A batch above BATCH_ENTRIES is marched a few rows at a time, each row still its single run."""
    from junctionflow import verifier

    grid = Grid(n_left=10, n_right=10, dx=0.1)
    monkeypatch.setattr(verifier, "BATCH_ENTRIES", 2 * grid.n_cells)
    rng = np.random.default_rng(3)
    states = [CellField(grid, _densities(rng, sym_junction, grid)) for _ in range(5)]
    runs = SemigroupHandle("cl", model=sym_junction).evolve_cl(states, [0.2, 0.4])
    assert len(runs) == 5
    for state, run in zip(states, runs):
        for a, b in zip(run, solve(state, sym_junction, 0.4, snapshot_times=[0.2, 0.4])):
            np.testing.assert_array_equal(a.values, b.values)
            assert (a.time, a.left_flux_time_integral, a.right_flux_time_integral) == (
                b.time,
                b.left_flux_time_integral,
                b.right_flux_time_integral,
            )


# -- the times of a request are checked before any march or call ----------------------


def _handle(kind, scheme, j, log):
    """The in-process handle, or an external one whose command copies its input and logs each call's time."""
    handle = SemigroupHandle(scheme, model=j)
    if kind == "internal":
        return handle
    return dataclasses.replace(handle, command=("sh", "-c", 'echo "$2" >> "$0" && cp "$1" "$3"', str(log)))


def _states(scheme, time=0.0):
    grid = Grid(n_left=10, n_right=10, dx=0.1)
    if scheme == "cl":
        return [CellField(grid, np.full(20, v), time) for v in (0.2, 0.4)]
    return [NodeField(grid, v * grid.node_coords(), time) for v in (0.2, 0.4)]


def _run(handle, states, times):
    return (handle.evolve_cl if handle.scheme == "cl" else handle.evolve_hj)(states, times)


@pytest.mark.parametrize("scheme", ["cl", "hj"])
@pytest.mark.parametrize("kind", ["internal", "external"])
def test_a_request_with_no_times_gets_empty_snapshot_lists(sym_junction, tmp_path, kind, scheme):
    log = tmp_path / "calls.log"
    handle = _handle(kind, scheme, sym_junction, log)
    assert _run(handle, _states(scheme), []) == [[], []]
    assert not log.exists()
    runs = _run(handle, _states(scheme), [0.1])
    assert [[s.time for s in run] for run in runs] == [[0.1], [0.1]]
    calls = log.read_text().split() if log.exists() else []  # the log sees every call the command gets
    assert calls == (["0.1", "0.1"] if kind == "external" else [])


@pytest.mark.parametrize(
    "start, times",
    [(0.0, [0.2, 0.1]), (0.0, [-0.5]), (0.0, [math.nan]), (0.0, [math.inf]), (0.5, [0.2])],
    ids=["decreasing", "negative", "nan", "inf", "before-the-states"],
)
@pytest.mark.parametrize("scheme", ["cl", "hj"])
@pytest.mark.parametrize("kind", ["internal", "external"])
def test_a_bad_request_is_refused_before_any_call(sym_junction, tmp_path, kind, scheme, start, times):
    """Both handles raise the in-process solver's StepError, and the external one starts no command."""
    states = _states(scheme, start)
    single = solve if scheme == "cl" else hj_direct_solve
    with pytest.raises(StepError) as expected:
        single(states[0], sym_junction, max(times), snapshot_times=times)
    log = tmp_path / "calls.log"
    with pytest.raises(StepError) as got:
        _run(_handle(kind, scheme, sym_junction, log), states, times)
    assert str(got.value) == str(expected.value)
    assert not log.exists()
