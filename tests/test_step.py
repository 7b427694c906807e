"""``step`` on every junction the strategies draw, against ``test_kernel``'s verbatim reference.

``step`` is one leg of one step of the density march.  On junctions
with unequal sides, polygon sides and split fluxes among them, it must
give the reference's values, time and both edge flux-time integrals
byte for byte, signs of zero included, and reject bad data with the
reference's message.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import CellField, Grid, step
from strategies import junctions, side_values
from test_kernel import _outcome, _ref_step


def _bytes(state: CellField) -> dict:
    return {k: np.asarray(v).tobytes() for k, v in vars(state).items() if k != "grid"}


@given(
    j=junctions(),
    seed=st.integers(0, 2**32 - 1),
    cfl=st.floats(0.05, 1.0),
    bad=st.sampled_from([None, None, math.nan, -0.5, math.inf, 1e3]),
)
@settings(deadline=None, max_examples=200)
def test_step_matches_reference_bytes_on_every_junction(j, seed, cfl, bad):
    rng = np.random.default_rng(seed)
    grid = Grid(n_left=int(rng.integers(1, 20)), n_right=int(rng.integers(1, 20)), dx=float(rng.uniform(0.01, 0.5)))
    v = np.concatenate([side_values(rng, j.left, grid.n_left), side_values(rng, j.right, grid.n_right)])
    v[rng.random(grid.n_cells) < 0.2] = -0.0
    if bad is not None:
        v[rng.integers(grid.n_cells)] = bad
    state = CellField(grid, v, float(rng.choice([0.0, 0.3])), *rng.choice([0.0, -0.0, 0.25], 2))
    datum = _bytes(state)
    dt = cfl * grid.dx / j.lipschitz_bound
    ref, ref_err = _outcome(_ref_step, state, j, dt)
    new, new_err = _outcome(step, state, j, dt)
    assert new_err == ref_err
    assert (ref is None) == (bad is not None)
    if ref is not None:
        assert _bytes(new) == _bytes(ref)
    assert _bytes(state) == datum  # the datum is not stepped in place
