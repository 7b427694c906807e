"""The battery's random data, drawn in array calls, against the per-draw loops it replaced.

``_ref_random_cell_field``, ``_ref_pair_data`` and
``_ref_oracle_samples`` are verbatim copies of the loops that drew each
level with its own scalar ``rng.uniform`` call.  The array forms must
give the same bytes and leave the generator where the loops left it,
so every seeded check draws the data it drew before.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import Grid, SemigroupHandle
from junctionflow import cl_solver as cl
from junctionflow import hj_solver as hj
from junctionflow import verifier
from junctionflow.verifier import random_cell_field, random_node_field
from strategies import junctions

# -- reference draws -------------------------------------------------------------------------


def _ref_random_cell_field(grid, j, rng, support=(-0.75, 0.75), background=None, vmax=None):
    if background is None:
        background = (rng.uniform(0.0, j.left.rmax), rng.uniform(0.0, j.right.rmax))
    if vmax is None:
        vmax = (j.left.rmax, j.right.rmax)
    xs = grid.cell_centers()
    v = np.where(xs < 0.0, background[0], background[1])
    n_pieces = int(rng.integers(2, 7))
    edges = np.sort(rng.uniform(support[0], support[1], size=n_pieces + 1))
    for k in range(n_pieces):
        block = (xs >= edges[k]) & (xs < edges[k + 1])
        v[block & (xs < 0.0)] = rng.uniform(0.0, vmax[0])
        v[block & (xs >= 0.0)] = rng.uniform(0.0, vmax[1])
    return cl.CellField(grid=grid, values=v)


def _ref_pair_data(h, n_trials, seed, draw):
    """The data of ``_contraction_gap`` as its loop drew them."""
    rng = np.random.default_rng(seed)
    grid = h.grid
    data = []
    for _ in range(n_trials):
        background = (rng.uniform(0.0, h.model.left.rmax), rng.uniform(0.0, h.model.right.rmax))
        data += [draw(grid, h.model, rng, background=background) for _ in range(2)]
    return data


def _ref_oracle_samples(model, n_samples, seed):
    """(eps, t, x, level) of ``check_oracle_scale_invariance`` as its loop drew them."""
    rng = np.random.default_rng(seed)
    amax = model.a_max
    draws = [
        (rng.uniform(0.25, 4.0), rng.uniform(0.1, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.0, amax))
        for _ in range(n_samples)
    ]
    return np.array(draws).reshape(n_samples, 4).T


def _ref_random_node_field(grid, j, rng, support=(-0.6, 0.6), background=None):
    rho = _ref_random_cell_field(grid, j, rng, support=support, background=background)
    u = np.empty(grid.n_cells + 1)
    u[0] = 0.0
    np.cumsum(rho.values * grid.dx, out=u[1:])
    return hj.NodeField(grid=grid, values=u)


# -- the gates ---------------------------------------------------------------------------------

# Every option the checks pass: defaults, mass's compact support on a zero background,
# finite_speed's whole domain, locality's capped levels.
OPTIONS = st.sampled_from(["default", "mass", "whole", "capped"])


def _options(kind, grid, j):
    vcap = min(j.left.rmax, j.right.rmax)
    return {
        "default": {},
        "mass": {"support": (-0.5, 0.5), "background": (0.0, 0.0)},
        "whole": {"support": (grid.x_min, grid.x_max)},
        "capped": {"support": (-1.5, 1.5), "vmax": (vcap, vcap)},
    }[kind]


@given(
    j=junctions(),
    n_cells=st.integers(2, 801),
    kind=OPTIONS,
    seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 3),
)
@settings(deadline=None, max_examples=150)
def test_random_cell_field_matches_the_per_draw_loop(j, n_cells, kind, seed, draws):
    grid = Grid.from_domain(-2.0, 2.0, n_cells)
    opts = _options(kind, grid, j)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        got = random_cell_field(grid, j, rng, **opts)
        want = _ref_random_cell_field(grid, j, ref_rng, **opts)
        assert got.values.tobytes() == want.values.tobytes()
    assert rng.random() == ref_rng.random()


@given(j=junctions(), n_trials=st.integers(0, 4), seed=st.integers(0, 2**32 - 1), nodes=st.booleans())
@settings(deadline=None, max_examples=60)
def test_pair_data_match_the_per_draw_loop(j, n_trials, seed, nodes):
    h = SemigroupHandle("cl", j, Grid.from_domain(-2.0, 2.0, 100))
    drawn = []

    def evolve(data, t_grid):
        drawn.extend(data)
        return [[state] for state in data]

    draw, ref_draw = (random_node_field, _ref_random_node_field) if nodes else (random_cell_field, _ref_random_cell_field)
    distance = hj.sup_distance if nodes else cl.l1_distance
    assert verifier._contraction_gap(h, n_trials, seed, draw, evolve, distance, (1.0,)) == 0.0
    want = _ref_pair_data(h, n_trials, seed, ref_draw)
    assert [s.values.tobytes() for s in drawn] == [s.values.tobytes() for s in want]


@given(j=junctions(), n_samples=st.integers(0, 400), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_oracle_samples_match_the_per_draw_loop(j, n_samples, seed):
    """The first two closed-form calls see (t, x) and (t/eps, x/eps); the drain sees the levels."""
    seen = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("exact_roof0_uncapped", "exact_roof_drain"):
            oracle = getattr(hj, name)

            def logged(model, *args, _oracle=oracle, _name=name):
                seen.setdefault(_name, []).append(args)
                return _oracle(model, *args)

            mp.setattr(verifier.hj, name, logged)
        verifier.check_oracle_scale_invariance(j, n_samples=n_samples, seed=seed)
    eps, t, x, level = _ref_oracle_samples(j, n_samples, seed)
    (t1, x1), (t2, x2) = seen["exact_roof0_uncapped"][:2]
    level1, t3, x3 = seen["exact_roof_drain"][0]
    for got, want in ((t1, t), (x1, x), (t2, t / eps), (x2, x / eps), (level1, level), (t3, t), (x3, x)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
