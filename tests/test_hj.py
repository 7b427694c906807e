"""Hamilton-Jacobi semi-group: exact oracles, node scheme, duality with densities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    CanonicalDatum,
    CellField,
    DatumShape,
    DomainError,
    Grid,
    GridMismatchError,
    JunctionModel,
    LevelError,
    QuadraticFlux,
    StepError,
    canonical_eval,
    canonical_field,
    canonical_node_field,
    exact_roof0_capped,
    exact_roof0_uncapped,
    exact_roof_drain,
    exact_valley_capped,
    hj_direct_solve,
    hj_from_cl,
    node_field_from_function,
    solve,
    sup_distance,
    validate_lip,
)

# -- frozen oracle values -----------------------------------------------------


def test_uncapped_roof_frozen_values(sym_junction):
    assert exact_roof0_uncapped(sym_junction, 1.0, 0.0) == pytest.approx(-0.25, abs=1e-14)
    assert exact_roof0_uncapped(sym_junction, 1.0, 1.5) == 0.0
    assert exact_roof0_uncapped(sym_junction, 1.0, -1.5) == pytest.approx(-1.5, abs=1e-14)


def test_capped_roof_frozen_values(sym_junction):
    assert exact_roof0_capped(sym_junction, 0.1875, 1.0, 0.0) == pytest.approx(-0.1875, abs=1e-14)
    # Inside the wedge [-0.5, 0.5]: 0.25*0.25 - 0.1875.
    assert exact_roof0_capped(sym_junction, 0.1875, 1.0, 0.25) == pytest.approx(-0.125, abs=1e-14)
    # At the full cap the formula collapses to the uncapped roof.
    assert exact_roof0_capped(sym_junction, 0.25, 1.0, 0.0) == pytest.approx(-0.25, abs=1e-14)


def test_roof_drain_frozen_values(sym_junction):
    assert exact_roof_drain(sym_junction, 0.1875, 2.0, -1.0) == pytest.approx(-1.125, abs=1e-14)
    assert exact_roof_drain(sym_junction, 0.0, 5.0, 0.0) == 0.0
    assert exact_roof_drain(sym_junction, 0.25, 1.0, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_valley_frozen_values(sym_junction):
    assert exact_valley_capped(sym_junction, 0.1875, 1.0, 0.0) == pytest.approx(-0.1875, abs=1e-14)
    # Level 0 valley is flat zero on the left half-line.
    assert exact_valley_capped(sym_junction, 0.0, 3.0, -1.0) == 0.0
    # Above the cap, the junction throttles the drain rate to the cap.
    assert exact_valley_capped(sym_junction, 0.25, 1.0, 0.0) == pytest.approx(-0.1875, abs=1e-14)


def test_oracle_validation(sym_junction):
    with pytest.raises(DomainError):
        exact_roof0_uncapped(sym_junction, 0.0, 0.5)
    with pytest.raises(DomainError):
        exact_roof0_uncapped(sym_junction, -1.0, 0.5)
    with pytest.raises(LevelError):
        exact_roof0_capped(sym_junction, 0.3, 1.0, 0.0)
    with pytest.raises(LevelError):
        exact_roof_drain(sym_junction, 0.3, 1.0, 0.0)


def test_valley_below_cap_is_uniform_drain(sym_junction):
    """For levels at or below the cap the valley drains uniformly at its level."""
    for a in (0.0, 0.05, 0.1875):
        datum = CanonicalDatum(DatumShape.PHI_CHECK, a)
        for t in (0.3, 1.0, 2.0):
            for x in np.linspace(-2.0, 2.0, 41):
                expected = canonical_eval(datum, sym_junction, float(x)) - t * a
                got = exact_valley_capped(sym_junction, a, t, float(x))
                assert got == pytest.approx(expected, abs=1e-13)


def test_valley_above_cap_takes_roof_near_junction(sym_junction):
    """Above the cap the solution is the max of valley and cap-roof drains.

    Near x = 0 the roof branch wins (rate capped at the junction); far away
    the valley branch wins (interior drains at its own level).
    """
    a = 0.25
    cap = sym_junction.limiter
    t = 1.0
    near = exact_valley_capped(sym_junction, a, t, 0.0)
    assert near == pytest.approx(-cap * t, abs=1e-14)
    roof = CanonicalDatum(DatumShape.PHI_HAT, cap)
    valley = CanonicalDatum(DatumShape.PHI_CHECK, a)
    for x in np.linspace(-2.0, 2.0, 81):
        expected = max(
            canonical_eval(valley, sym_junction, float(x)) - a * t,
            canonical_eval(roof, sym_junction, float(x)) - cap * t,
        )
        assert exact_valley_capped(sym_junction, a, t, float(x)) == pytest.approx(
            expected, abs=1e-13
        )


# -- branch joints of the closed forms ----------------------------------------


def test_uncapped_roof_joint_continuity(sym_junction, asym_junction):
    """The three closed-form branches agree in value and slope where they meet.

    The middle branch is -t * conjugate(a_max, x/t); by the envelope theorem
    its x-derivative equals the conjugate's maximizer, so slope matching can
    be checked analytically instead of by finite differences.
    """
    for j in (sym_junction, asym_junction):
        t = 0.8
        a_max = j.a_max
        x_left = t * j.left.derivative(j.left.rmax)
        x_right = t * j.right.derivative(0.0)
        # Value agreement of adjacent branch formulas at the joints.
        mid_left = -t * j.left.truncated_conjugate(a_max, x_left / t)
        mid_right = -t * j.right.truncated_conjugate(a_max, x_right / t)
        assert abs(mid_left - j.left.rmax * x_left) <= 1e-12
        assert abs(mid_right - 0.0) <= 1e-12
        # Slope agreement: optimizer at the joint equals the outer slope.
        _, y_left = j.left.truncated_conjugate_argmax(a_max, x_left / t)
        _, y_right = j.right.truncated_conjugate_argmax(a_max, x_right / t)
        assert abs(y_left - j.left.rmax) <= 1e-9
        assert abs(y_right - 0.0) <= 1e-9


def test_capped_roof_joint_continuity(sym_junction, asym_junction):
    """Wedge and fan branches of the capped roof meet C1 at the wedge edges."""
    for j in (sym_junction, asym_junction):
        t = 1.3
        for a in (0.3 * j.a_max, 0.75 * j.a_max):
            left_hi = j.left.roots(a)[1]
            right_lo = j.right.roots(a)[0]
            x_minus = t * j.left.derivative(left_hi)
            x_plus = t * j.right.derivative(right_lo)
            assert x_minus < 0.0 < x_plus
            wedge = CanonicalDatum(DatumShape.PHI_HAT, a)
            for x_b, flux, inner_slope in (
                (x_minus, j.left, left_hi),
                (x_plus, j.right, right_lo),
            ):
                wedge_val = canonical_eval(wedge, j, x_b) - t * a
                fan_val = -t * flux.truncated_conjugate(j.a_max, x_b / t)
                assert abs(wedge_val - fan_val) <= 1e-12
                _, y_star = flux.truncated_conjugate_argmax(j.a_max, x_b / t)
                assert abs(y_star - inner_slope) <= 1e-9
            # The implementation returns the same values at the joints.
            for x_b in (x_minus, x_plus):
                assert exact_roof0_capped(j, a, t, x_b) == pytest.approx(
                    canonical_eval(wedge, j, x_b) - t * a, abs=1e-12
                )


@given(
    eps=st.floats(0.25, 4.0),
    t=st.floats(0.1, 2.0),
    x=st.floats(-2.0, 2.0),
    frac=st.floats(0.0, 1.0),
)
@settings(deadline=None, max_examples=100)
def test_oracles_scale_invariant(eps, t, x, frac):
    """eps * S(t/eps, .)(x/eps) = S(t, .)(x): canonical data are 1-homogeneous."""
    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    j = JunctionModel(left=flux, right=flux, limiter=0.1875)
    a = frac * j.a_max
    for fn in (
        lambda tt, xx: exact_roof0_uncapped(j, tt, xx),
        lambda tt, xx: exact_roof0_capped(j, a, tt, xx),
        lambda tt, xx: exact_roof_drain(j, a, tt, xx),
        lambda tt, xx: exact_valley_capped(j, a, tt, xx),
    ):
        assert eps * fn(t / eps, x / eps) == pytest.approx(fn(t, x), abs=1e-12)


# -- node fields ---------------------------------------------------------------


def test_canonical_node_field_and_validation(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 50)
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_HAT, 0.1875))
    assert u0.value_at_zero() == 0.0
    xs = g.node_coords()
    np.testing.assert_allclose(
        u0.values,
        canonical_eval(CanonicalDatum(DatumShape.PHI_HAT, 0.1875), sym_junction, xs),
        atol=1e-14,
    )
    with pytest.raises(DomainError):
        canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PSI_HAT, 0.1))


def test_validate_lip(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 50)
    ok = node_field_from_function(g, lambda x: 0.5 * np.clip(x, 0.0, None))
    validate_lip(ok, sym_junction)
    bad_slope = node_field_from_function(g, lambda x: 2.0 * x)
    with pytest.raises(DomainError):
        validate_lip(bad_slope, sym_junction)
    decreasing = node_field_from_function(g, lambda x: -0.5 * x)
    with pytest.raises(DomainError):
        validate_lip(decreasing, sym_junction)
    ok.values[10] = math.nan
    with pytest.raises(DomainError, match="nan"):
        validate_lip(ok, sym_junction)


def test_zero_step_hj_direct_solve_validates_datum(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 20)
    u0 = node_field_from_function(g, lambda x: 0.5 * x)
    u0.values[7] = math.nan
    with pytest.raises(DomainError, match="nan"):
        hj_direct_solve(u0, sym_junction, 0.0)
    u0.values[7] = 0.5 * g.node_coords()[7]
    for t_end in (math.nan, math.inf):
        with pytest.raises(StepError, match="t_end"):
            hj_direct_solve(u0, sym_junction, t_end)


def test_hj_direct_solve_rejects_targets_before_the_datum_time(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 20)
    u0 = node_field_from_function(g, lambda x: 0.5 * x)
    u0.time = 0.5
    with pytest.raises(StepError, match="outside"):
        hj_direct_solve(u0, sym_junction, 0.5, snapshot_times=[0.25, 0.5])
    with pytest.raises(StepError, match="precedes the datum's time 0.5"):
        hj_direct_solve(u0, sym_junction, 0.25)
    assert [s.time for s in hj_direct_solve(u0, sym_junction, 0.75, snapshot_times=[0.5, 0.75])] == [0.5, 0.75]


# -- direct node scheme --------------------------------------------------------


def test_direct_scheme_drains_cap_roof_at_cap_rate(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 100)
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_HAT, 0.1875))
    t = 0.5
    out = hj_direct_solve(u0, sym_junction, t)[-1]
    np.testing.assert_allclose(out.values, u0.values - t * 0.1875, atol=1e-12)


def test_direct_scheme_freezes_constants(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 60)
    u0 = node_field_from_function(g, lambda x: np.full_like(x, 1.7))
    out = hj_direct_solve(u0, sym_junction, 1.0)[-1]
    np.testing.assert_array_equal(out.values, u0.values)


def test_direct_scheme_validation(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 40)
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_HAT, 0.1))
    with pytest.raises(StepError):
        hj_direct_solve(u0, sym_junction, 1.0, cfl=1.5)
    with pytest.raises(StepError):
        hj_direct_solve(u0, sym_junction, -0.5)
    bad = node_field_from_function(g, lambda x: 3.0 * np.abs(x))
    with pytest.raises(DomainError):
        hj_direct_solve(bad, sym_junction, 0.5)


def test_direct_scheme_matches_capped_roof_oracle(sym_junction):
    g = Grid.from_domain(-2.0, 2.0, 400)
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_HAT, 0.0))
    t = 0.5
    out = hj_direct_solve(u0, sym_junction, t)[-1]
    xs = g.node_coords()
    window = np.abs(xs) <= 1.0
    exact = np.array(
        [exact_roof0_capped(sym_junction, sym_junction.limiter, t, float(x)) for x in xs]
    )
    err = float(np.max(np.abs(out.values[window] - exact[window])))
    assert err <= 0.02


def test_direct_scheme_sup_contraction_small_case(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 60)
    rng = np.random.default_rng(5)

    def lip_field(seed_vals):
        slopes = rng.uniform(0.05, 0.9, g.n_cells)
        vals = np.concatenate([[0.0], np.cumsum(slopes * g.dx)])
        return vals

    u = node_field_from_function(g, lambda x: np.zeros_like(x))
    u.values[:] = lip_field(None)
    v = u.copy()
    v.values[:] = lip_field(None)
    d0 = sup_distance(u, v)
    u1 = hj_direct_solve(u, sym_junction, 0.5)[-1]
    v1 = hj_direct_solve(v, sym_junction, 0.5)[-1]
    assert sup_distance(u1, v1) <= d0 + 1e-12


def test_direct_scheme_commutes_with_constants(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 60)
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_CHECK, 0.12))
    shifted = u0.copy()
    shifted.values = shifted.values + 2.5
    a = hj_direct_solve(u0, sym_junction, 0.7)[-1]
    b = hj_direct_solve(shifted, sym_junction, 0.7)[-1]
    assert float(np.max(np.abs(b.values - a.values - 2.5))) <= 1e-10


# -- duality with the density solver ------------------------------------------


def test_hj_from_cl_constant_flux_drain(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 80)
    rho0 = canonical_field(g, sym_junction, CanonicalDatum(DatumShape.PSI_HAT, 0.1875))
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_HAT, 0.1875))
    t = 0.5
    run = solve(rho0, sym_junction, t, snapshot_times=[0.0, t])
    u_t = hj_from_cl(run, u0, sym_junction)[-1]
    np.testing.assert_allclose(u_t.values, u0.values - t * 0.1875, atol=1e-10)


def test_hj_from_cl_zero_density_is_constant(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 80)
    rho0 = CellField(g, np.zeros(g.n_cells))
    u0 = node_field_from_function(g, lambda x: np.zeros_like(x))
    run = solve(rho0, sym_junction, 0.75, snapshot_times=[0.0, 0.75])
    u_t = hj_from_cl(run, u0, sym_junction)[-1]
    np.testing.assert_allclose(u_t.values, u0.values, atol=1e-14)


def test_hj_from_cl_rejects_grid_mismatch(sym_junction):
    g1 = Grid.from_domain(-1.0, 1.0, 80)
    g2 = Grid.from_domain(-1.0, 1.0, 40)
    rho0 = canonical_field(g1, sym_junction, CanonicalDatum(DatumShape.PSI_HAT, 0.1))
    u0 = node_field_from_function(g2, lambda x: np.zeros_like(x))
    run = solve(rho0, sym_junction, 0.1, snapshot_times=[0.1])
    with pytest.raises(GridMismatchError):
        hj_from_cl(run, u0, sym_junction)


def test_duality_gap_small_case(sym_junction):
    """Potential built from the density run stays within the telescoping budget."""
    g = Grid.from_domain(-2.0, 2.0, 200)
    datum = CanonicalDatum(DatumShape.PHI_HAT, 0.0)
    u0 = canonical_node_field(g, sym_junction, datum)
    rho0 = canonical_field(g, sym_junction, CanonicalDatum(DatumShape.PSI_HAT, 0.0))
    rho0.values[:] = u0.slopes()
    t = 0.5
    run = solve(rho0, sym_junction, t, snapshot_times=[0.0, t])
    via_cl = hj_from_cl(run, u0, sym_junction)[-1]
    direct = hj_direct_solve(u0, sym_junction, t)[-1]
    budget = 2 * g.dx * (1.0 + t * sym_junction.lipschitz_bound)
    assert sup_distance(via_cl, direct) <= budget


def test_direct_scheme_dominates_uncapped_floor(sym_junction):
    """Any capped evolution sits above the uncapped roof solution minus 2 dx."""
    g = Grid.from_domain(-2.0, 2.0, 200)
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_HAT, 0.0))
    t = 0.8
    out = hj_direct_solve(u0, sym_junction, t)[-1]
    xs = g.node_coords()
    floor = np.array([exact_roof0_uncapped(sym_junction, t, float(x)) for x in xs])
    assert float(np.min(out.values - (floor - 2 * g.dx))) >= 0.0


def test_node_value_drains_at_cap_from_valley(sym_junction):
    """S(t, valley_a)(0) = -min(a, cap) * t, the headline junction rate."""
    g = Grid.from_domain(-2.0, 2.0, 200)
    t = 0.5
    for a in (0.05, 0.1875):
        u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_CHECK, a))
        out = hj_direct_solve(u0, sym_junction, t)[-1]
        assert out.value_at_zero() == pytest.approx(-a * t, abs=0.01)
    u0 = canonical_node_field(g, sym_junction, CanonicalDatum(DatumShape.PHI_CHECK, 0.25))
    out = hj_direct_solve(u0, sym_junction, t)[-1]
    assert out.value_at_zero() == pytest.approx(-0.1875 * t, abs=0.01)
