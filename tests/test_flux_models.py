"""Concave flux primitives: closed forms, envelopes, conjugates, canonical data."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    CanonicalDatum,
    ConfigError,
    DatumShape,
    DomainError,
    JunctionModel,
    LevelError,
    PiecewiseLinearFlux,
    QuadraticFlux,
    canonical_eval,
    flux_from_config,
)
from junctionflow.flux_models import first_max, first_min

# -- frozen point values ------------------------------------------------------


def test_eval_frozen_values(default_flux):
    assert default_flux.eval(0.5) == pytest.approx(0.25, abs=1e-15)
    assert default_flux.eval(0.0) == 0.0
    assert default_flux.eval(1.0) == 0.0
    assert default_flux.eval(0.25) == pytest.approx(0.1875, abs=1e-15)


def test_critical_point(default_flux, pw_flux):
    assert (default_flux.p_crit, default_flux.capacity) == (0.5, 0.25)
    assert (pw_flux.p_crit, pw_flux.capacity) == (0.5, 0.25)
    wide = QuadraticFlux(rmax=2.0, hmax=0.5)
    assert (wide.p_crit, wide.capacity) == (1.0, 0.5)


def test_roots_frozen_values(default_flux):
    assert default_flux.roots(0.1875) == pytest.approx((0.25, 0.75), abs=1e-14)
    assert default_flux.roots(0.0) == (0.0, 1.0)
    lo, hi = default_flux.roots(0.25)
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi == pytest.approx(0.5, abs=1e-12)


def test_demand_supply_frozen_values(default_flux):
    assert default_flux.demand(0.7) == 0.25
    assert default_flux.supply(0.7) == pytest.approx(0.21, abs=1e-15)
    assert default_flux.demand(0.0) == 0.0
    assert default_flux.supply(0.0) == 0.25
    assert default_flux.demand(0.3) == pytest.approx(0.21, abs=1e-15)


def test_truncated_conjugate_frozen_values(default_flux):
    assert default_flux.truncated_conjugate(0.25, 0.0) == pytest.approx(0.25, abs=1e-14)
    assert default_flux.truncated_conjugate(0.25, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert default_flux.truncated_conjugate(0.1875, 0.0) == pytest.approx(0.1875, abs=1e-14)


def test_canonical_eval_frozen_values(sym_junction):
    roof = CanonicalDatum(DatumShape.PHI_HAT, 0.1875)
    assert canonical_eval(roof, sym_junction, -1.0) == pytest.approx(-0.75, abs=1e-14)
    assert canonical_eval(roof, sym_junction, 0.0) == 0.0
    valley_step = CanonicalDatum(DatumShape.PSI_CHECK, 0.1875)
    assert canonical_eval(valley_step, sym_junction, 2.0) == pytest.approx(0.75, abs=1e-14)


def test_canonical_eval_uses_side_specific_roots(asym_junction):
    # Left flux p(1-p)/..., right flux with rmax=1.5: the step datum at level a
    # takes the left congested root on x<0 and the right free root on x>0.
    a = 0.15
    hat = CanonicalDatum(DatumShape.PSI_HAT, a)
    left_val = canonical_eval(hat, asym_junction, -0.5)
    right_val = canonical_eval(hat, asym_junction, 0.5)
    assert left_val == pytest.approx(asym_junction.left.roots(a)[1], abs=1e-14)
    assert right_val == pytest.approx(asym_junction.right.roots(a)[0], abs=1e-14)


# -- validation ---------------------------------------------------------------


def test_eval_rejects_out_of_range(default_flux):
    with pytest.raises(DomainError):
        default_flux.eval(-0.1)
    with pytest.raises(DomainError):
        default_flux.eval(1.1)
    with pytest.raises(DomainError):
        default_flux.eval(float("nan"))


def test_roots_rejects_bad_levels(default_flux):
    with pytest.raises(LevelError):
        default_flux.roots(0.26)
    with pytest.raises(DomainError):
        default_flux.roots(-0.01)


def test_boundary_roundoff_slack(default_flux):
    # Schemes feed back values that may overshoot the range by round-off;
    # a 1e-9 slack clamps them instead of raising.
    assert default_flux.eval(-1e-10) == 0.0
    assert default_flux.eval(1.0 + 1e-10) == 0.0


def test_quadratic_rejects_bad_parameters():
    with pytest.raises(DomainError):
        QuadraticFlux(rmax=0.0, hmax=0.25)
    with pytest.raises(DomainError):
        QuadraticFlux(rmax=1.0, hmax=-0.25)


def test_piecewise_linear_rejects_bad_breakpoints():
    with pytest.raises(DomainError):
        PiecewiseLinearFlux(points=((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(DomainError):
        PiecewiseLinearFlux(points=((0.0, 0.1), (0.5, 0.25), (1.0, 0.0)))
    with pytest.raises(DomainError):
        PiecewiseLinearFlux(points=((0.0, 0.0), (0.5, 0.25), (1.0, 0.1)))
    with pytest.raises(DomainError):
        PiecewiseLinearFlux(points=((0.0, 0.0), (0.6, 0.2), (0.5, 0.25), (1.0, 0.0)))
    # Equal chord slopes violate strict concavity.
    with pytest.raises(DomainError):
        PiecewiseLinearFlux(points=((0.0, 0.0), (0.25, 0.1), (0.5, 0.2), (1.0, 0.0)))
    # Non-finite breakpoints pass every comparison above.
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            PiecewiseLinearFlux(points=((0.0, 0.0), (0.5, bad), (1.0, 0.0)))


def test_flux_from_config_paths():
    flux = flux_from_config({"kind": "quadratic", "rmax": 1.0, "hmax": 0.25}, "flux_left")
    assert isinstance(flux, QuadraticFlux)
    pw = flux_from_config(
        {"kind": "piecewise_linear", "points": [[0, 0], [0.5, 0.25], [1, 0]]}, "flux_right"
    )
    assert isinstance(pw, PiecewiseLinearFlux)
    with pytest.raises(ConfigError, match="flux_left.kind"):
        flux_from_config({"kind": "cubic"}, "flux_left")
    with pytest.raises(ConfigError, match="flux_left"):
        flux_from_config({"kind": "quadratic", "rmax": 1.0}, "flux_left")


def test_canonical_level_validation(sym_junction):
    with pytest.raises(LevelError):
        canonical_eval(CanonicalDatum(DatumShape.PHI_HAT, 0.3), sym_junction, 0.0)
    with pytest.raises(DomainError):
        CanonicalDatum(DatumShape.PHI_HAT, -0.1)


# -- property-based checks ----------------------------------------------------

quadratic_fluxes = st.builds(
    QuadraticFlux,
    rmax=st.floats(0.2, 5.0),
    hmax=st.floats(0.05, 2.0),
)

triangle_fluxes = st.builds(
    lambda r, pfrac, h: PiecewiseLinearFlux(points=((0.0, 0.0), (pfrac * r, h), (r, 0.0))),
    r=st.floats(0.5, 3.0),
    pfrac=st.floats(0.2, 0.8),
    h=st.floats(0.05, 1.0),
)

any_flux = st.one_of(quadratic_fluxes, triangle_fluxes)


@given(flux=any_flux, s=st.floats(0.0, 1.0))
@settings(deadline=None)
def test_envelope_min_max_identity(flux, s):
    p = s * flux.rmax
    d, sup, h = flux.demand(p), flux.supply(p), flux.eval(p)
    assert min(d, sup) == pytest.approx(h, abs=1e-12)
    assert max(d, sup) == pytest.approx(flux.capacity, abs=1e-12)
    assert d >= h - 1e-12 and sup >= h - 1e-12


@given(flux=any_flux, frac=st.floats(0.0, 1.0))
@settings(deadline=None)
def test_roots_invert_eval(flux, frac):
    a = frac * flux.capacity
    lo, hi = flux.roots(a)
    assert lo <= flux.p_crit + 1e-12 and hi >= flux.p_crit - 1e-12
    assert flux.eval(lo) == pytest.approx(a, abs=1e-12)
    assert flux.eval(hi) == pytest.approx(a, abs=1e-12)


@given(flux=quadratic_fluxes, frac=st.floats(0.0, 0.999))
@settings(deadline=None)
def test_roots_strictly_bracket_below_capacity(flux, frac):
    lo, hi = flux.roots(frac * flux.capacity)
    assert lo < hi


@given(
    flux=any_flux,
    frac=st.floats(0.0, 1.0),
    v=st.floats(-3.0, 3.0),
    ys=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
@settings(deadline=None)
def test_conjugate_dominates_objective(flux, frac, v, ys):
    a = frac * flux.capacity
    value, y_star = flux.truncated_conjugate_argmax(a, v)
    for s in ys:
        y = s * flux.rmax
        assert value >= -v * y + min(flux.eval(y), a) - 1e-12
    assert value == pytest.approx(-v * y_star + min(flux.eval(y_star), a), abs=1e-12)


@given(flux=any_flux, frac=st.floats(0.0, 1.0))
@settings(deadline=None)
def test_conjugate_at_zero_speed_is_level(flux, frac):
    a = frac * flux.capacity
    assert flux.truncated_conjugate(a, 0.0) == pytest.approx(a, abs=1e-12)


@given(flux=any_flux, frac=st.floats(0.0, 1.0), v1=st.floats(-3.0, 3.0), v2=st.floats(-3.0, 3.0))
@settings(deadline=None)
def test_conjugate_midpoint_convex_in_speed(flux, frac, v1, v2):
    a = frac * flux.capacity
    mid = flux.truncated_conjugate(a, 0.5 * (v1 + v2))
    avg = 0.5 * (flux.truncated_conjugate(a, v1) + flux.truncated_conjugate(a, v2))
    assert mid <= avg + 1e-12


def test_conjugate_matches_brute_force_grid(default_flux, pw_flux):
    # A grid maximum underestimates the true sup by at most the objective's
    # Lipschitz constant times the spacing, and never exceeds it.
    ys = np.linspace(0.0, 1.0, 20001)
    dy = float(ys[1] - ys[0])
    for flux in (default_flux, pw_flux):
        for a in (0.0, 0.05, 0.1875, 0.25):
            for v in (-2.0, -0.5, 0.0, 0.3, 1.0, 2.5):
                brute = float(np.max(-v * ys + np.minimum(flux.eval(ys), a)))
                exact = flux.truncated_conjugate(a, v)
                slack = (abs(v) + flux.lipschitz_bound) * dy
                assert brute - 1e-12 <= exact <= brute + slack


@given(frac=st.floats(0.0, 1.0), x=st.floats(-3.0, 3.0))
@settings(deadline=None)
def test_canonical_data_are_consistent(frac, x):
    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    j = JunctionModel(left=flux, right=flux, limiter=0.25)
    a = frac * j.a_max
    lo, hi = flux.roots(a)
    roof_slope = hi if x < 0 else lo
    valley_slope = lo if x < 0 else hi
    roof = canonical_eval(CanonicalDatum(DatumShape.PHI_HAT, a), j, x)
    valley = canonical_eval(CanonicalDatum(DatumShape.PHI_CHECK, a), j, x)
    assert roof == pytest.approx(roof_slope * x, abs=1e-12)
    assert valley == pytest.approx(valley_slope * x, abs=1e-12)
    # Step data are the slopes of the wedge data.
    assert canonical_eval(CanonicalDatum(DatumShape.PSI_HAT, a), j, x if x != 0 else -1.0) in (
        pytest.approx(hi, abs=1e-12),
        pytest.approx(lo, abs=1e-12),
    )


def test_derivative_matches_difference_quotient(default_flux):
    ps = np.linspace(0.01, 0.99, 17)
    h = 1e-7
    for p in ps:
        num = (default_flux.eval(p + h) - default_flux.eval(p - h)) / (2 * h)
        assert default_flux.derivative(p) == pytest.approx(num, abs=1e-6)


def test_vectorized_eval_matches_scalar(default_flux, pw_flux):
    ps = np.linspace(0.0, 1.0, 101)
    for flux in (default_flux, pw_flux):
        vec = flux.eval(ps)
        scal = np.array([flux.eval(float(p)) for p in ps])
        np.testing.assert_array_equal(vec, scal)


# -- first-of-equals min and max ----------------------------------------------


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@pytest.mark.parametrize(
    "a, b, low, high",
    [
        (0.0, -0.0, 0.0, 0.0),
        (-0.0, 0.0, -0.0, -0.0),
        (0.25, math.nan, 0.25, 0.25),
        (-1.0, 2.0, -1.0, 2.0),
        (2.0, -1.0, -1.0, 2.0),
    ],
)
def test_first_min_and_max_are_pythons_min_and_max_bit_for_bit(a, b, low, high):
    """Ties, signed zeros included, keep the first argument; so does a NaN second argument."""
    assert _bits(first_min(a, b)) == _bits(min(a, b)) == _bits(low)
    assert _bits(first_max(a, b)) == _bits(max(a, b)) == _bits(high)


def test_first_min_and_max_broadcast_a_scalar_against_an_array():
    """Each entry is Python's ``min``/``max`` of its pair, the scalar first or second."""
    b = np.array([-0.0, 0.0, 0.1, -0.1, math.nan])
    for a in (0.0, -0.0, math.nan):
        for fn, pick in ((first_min, min), (first_max, max)):
            for got, pairs in ((fn(a, b), [(a, v) for v in b.tolist()]), (fn(b, a), [(v, a) for v in b.tolist()])):
                assert got.shape == b.shape
                assert got.tobytes() == np.array([pick(x, y) for x, y in pairs]).tobytes()
