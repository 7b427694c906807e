"""Hypothesis strategies and data shared by the property tests: random junctions and densities."""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from junctionflow import BOUNDARY_TOL, DomainError, JunctionModel, PiecewiseLinearFlux, QuadraticFlux

quadratic_fluxes = st.builds(QuadraticFlux, rmax=st.floats(0.2, 5.0), hmax=st.floats(0.05, 2.0))


@st.composite
def polygon_fluxes(draw):
    """A concave polygon through 1-4 samples of a random concave parabola."""
    rmax = draw(st.floats(0.5, 3.0))
    hmax = draw(st.floats(0.05, 1.0))
    fracs = sorted(draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True)))
    inner = [(f * rmax, 4.0 * hmax * f * (1.0 - f)) for f in fracs]
    try:
        return PiecewiseLinearFlux(points=((0.0, 0.0), *inner, (rmax, 0.0)))
    except DomainError:  # a zero-slope chord or a breakpoint collision
        assume(False)


any_flux = st.one_of(quadratic_fluxes, polygon_fluxes())


@st.composite
def junctions(draw):
    left, right = draw(any_flux), draw(any_flux)
    frac = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return JunctionModel(left=left, right=right, limiter=frac * min(left.capacity, right.capacity))


@st.composite
def twin_junctions(draw):
    """One flux on both sides, as the same object or as an equal copy; cap 0, a_max or between."""
    flux = draw(any_flux)
    right = flux if draw(st.booleans()) else dataclasses.replace(flux)
    frac = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return JunctionModel(left=flux, right=right, limiter=frac * flux.capacity)


def side_values(rng: np.random.Generator, flux, n: int) -> np.ndarray:
    """Uniform densities, with the points where the envelopes switch and round-off excursions.

    Near p_crit, H(p) can exceed H(p_crit) by an ulp, which is where the
    two kinds of outer edge (Godunov flux of a copy cell, plain H) part.
    """
    v = rng.uniform(0.0, flux.rmax, n)
    special = np.array([0.0, flux.rmax, flux.p_crit, -BOUNDARY_TOL, flux.rmax + BOUNDARY_TOL])
    pick = rng.random(n) < 0.3
    v[pick] = rng.choice(special, int(pick.sum()))
    near = rng.random(n) < 0.3
    near[[0, -1]] = rng.random(2) < 0.5  # the outer edges' cells are the ones that matter
    tweak = rng.random(n) < 0.2
    v[tweak] += rng.uniform(-BOUNDARY_TOL, BOUNDARY_TOL, int(tweak.sum()))
    v[near] = flux.p_crit * (1.0 + rng.uniform(-3e-9, 3e-9, int(near.sum())))
    return np.clip(v, -BOUNDARY_TOL, flux.rmax + BOUNDARY_TOL)
