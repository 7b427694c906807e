"""Junction flux, germ membership, dissipativity, and the exact Riemann solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from junctionflow import (
    JunctionModel,
    LevelError,
    QuadraticFlux,
    TracePair,
    classical_riemann,
    germ_contains,
    germ_dissipative,
    junction_flux,
    kruzhkov_flux,
    riemann_profile,
    riemann_traces,
)

# -- frozen point values ------------------------------------------------------


def test_junction_flux_frozen_values(sym_junction, uncapped_junction):
    assert junction_flux(sym_junction, 0.5, 0.5) == pytest.approx(0.1875, abs=1e-15)
    assert junction_flux(uncapped_junction, 0.0, 0.3) == 0.0
    assert junction_flux(uncapped_junction, 0.0, 0.9) == 0.0
    assert junction_flux(sym_junction, 0.1, 0.9) == pytest.approx(0.09, abs=1e-15)


@pytest.mark.parametrize(
    "cap,q_left,q_right,want",
    [
        (0.0, -0.0, 0.5, 0.0),  # cap +0.0 ties a -0.0 demand: the cap wins
        (0.25, -0.0, 1.0, -0.0),  # demand -0.0 ties supply +0.0 under the cap: the demand wins
        (0.0, -0.0, 1.0, 0.0),  # all three zero: the cap wins
    ],
)
def test_junction_flux_ties_go_to_cap_then_demand_then_supply(default_flux, cap, q_left, q_right, want):
    """The kernel's rule (Python's ``min(cap, demand, supply)``), signs of zero included."""
    j = JunctionModel(default_flux, default_flux, cap)
    assert repr(min(j.limiter, j.left.demand(q_left), j.right.supply(q_right))) == repr(want)
    got = junction_flux(j, q_left, q_right)
    assert isinstance(got, float) and repr(got) == repr(want)
    batch = junction_flux(j, np.array([q_left, 0.5]), np.array([q_right, 0.5]))
    assert repr(float(batch[0])) == repr(want)


def test_junction_model_validation(default_flux):
    with pytest.raises(LevelError):
        JunctionModel(left=default_flux, right=default_flux, limiter=0.3)
    with pytest.raises(LevelError):
        JunctionModel(left=default_flux, right=default_flux, limiter=-0.1)
    assert JunctionModel(default_flux, default_flux, 0.25).a_max == 0.25


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_junction_model_rejects_non_finite_limiter(default_flux, bad):
    with pytest.raises(LevelError, match=rf"limiter {bad} outside \[0, 0.25\]"):
        JunctionModel(left=default_flux, right=default_flux, limiter=bad)


def test_germ_contains_frozen_values(sym_junction):
    assert germ_contains(sym_junction, (0.75, 0.25))
    assert not germ_contains(sym_junction, (0.5, 0.5))
    assert germ_contains(sym_junction, (0.1, 0.9))
    # Congested-left with free-right at equal flux below the cap is the one
    # root combination the junction flux rules out.
    assert not germ_contains(sym_junction, (0.9, 0.1))


def test_germ_dissipative_frozen_values(sym_junction):
    p1 = TracePair(0.75, 0.25, 0.1875)
    assert germ_dissipative(sym_junction, p1, p1) == 0.0
    # sign(0.65)*(0.1875-0.09) - sign(0.15)*(0.1875-0.09) = 0
    p2 = TracePair(0.1, 0.1, 0.09)
    assert germ_dissipative(sym_junction, p1, p2) == pytest.approx(0.0, abs=1e-15)
    p3 = TracePair(0.9, 0.9, 0.09)
    assert germ_dissipative(sym_junction, p1, p3) >= 0.0


def test_germ_dissipative_rejects_non_members(sym_junction):
    member = TracePair(0.75, 0.25, 0.1875)
    outsider = TracePair(0.5, 0.5, 0.25)
    with pytest.raises(ValueError):
        germ_dissipative(sym_junction, member, outsider)


def test_riemann_traces_frozen_values(sym_junction, uncapped_junction):
    tr = riemann_traces(sym_junction, 0.5, 0.5)
    assert (tr.q_minus, tr.q_plus) == pytest.approx((0.75, 0.25), abs=1e-14)
    assert tr.flux_value == pytest.approx(0.1875, abs=1e-15)

    tr = riemann_traces(uncapped_junction, 0.2, 0.3)
    assert (tr.q_minus, tr.q_plus) == pytest.approx((0.2, 0.2), abs=1e-14)
    assert tr.flux_value == pytest.approx(0.16, abs=1e-15)

    tr = riemann_traces(sym_junction, 0.0, 0.0)
    assert (tr.q_minus, tr.q_plus, tr.flux_value) == (0.0, 0.0, 0.0)


def test_classical_riemann_frozen_values(default_flux):
    assert classical_riemann(default_flux, 0.4, 0.4, 1.7) == 0.4
    # Ascending jump: shock of speed (H(b)-H(a))/(b-a) = 0.25.
    assert classical_riemann(default_flux, 0.25, 0.5, 0.2) == 0.25
    assert classical_riemann(default_flux, 0.25, 0.5, 0.3) == 0.5
    # Descending jump: rarefaction, (H')^{-1}(0) = p*.
    assert classical_riemann(default_flux, 0.75, 0.25, 0.0) == pytest.approx(0.5, abs=1e-14)


def test_riemann_profile_frozen_values(sym_junction):
    # Left shock from 0.5 up to 0.75 has speed (0.1875-0.25)/0.25 = -0.25.
    assert riemann_profile(sym_junction, 0.5, 0.5, -0.1) == pytest.approx(0.75, abs=1e-14)
    assert riemann_profile(sym_junction, 0.5, 0.5, -0.3) == 0.5
    assert riemann_profile(sym_junction, 0.0, 0.0, 0.7) == 0.0
    assert riemann_profile(sym_junction, 0.0, 0.0, -0.7) == 0.0


# -- exhaustive grid properties -----------------------------------------------


def _state_grid(n: int = 41) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def test_traces_land_in_germ_on_grid(sym_junction):
    rl, rr = np.meshgrid(_state_grid(), _state_grid(), indexing="ij")
    tr = riemann_traces(sym_junction, rl, rr)
    assert np.all(germ_contains(sym_junction, tr, tol=1e-12))
    hl = sym_junction.left.eval(tr.q_minus)
    hr = sym_junction.right.eval(tr.q_plus)
    fj = junction_flux(sym_junction, tr.q_minus, tr.q_plus)
    worst = max(float(np.max(np.abs(gap))) for gap in (hl - hr, hl - tr.flux_value, fj - tr.flux_value))
    assert worst <= 1e-12


def test_junction_flux_monotone_on_grid(sym_junction, asym_junction):
    for j in (sym_junction, asym_junction):
        qls = np.linspace(0.0, j.left.rmax, 21)
        qrs = np.linspace(0.0, j.right.rmax, 21)
        f = junction_flux(j, qls[:, None], qrs[None, :])
        assert np.all(np.diff(f, axis=0) >= -1e-14)
        assert np.all(np.diff(f, axis=1) <= 1e-14)
        assert np.all(f <= j.limiter + 1e-14)


def test_germ_scan_matches_closed_form(sym_junction):
    """Brute-force membership equals the four-branch characterization.

    At common flux f < A the germ holds all root combinations except
    (congested left, free right); at f = A only the (congested, free)
    pair of the cap level remains.
    """
    j = sym_junction
    a_cap = j.limiter
    for rl, rr in itertools.product(_state_grid(), repeat=2):
        hl = j.left.eval(float(rl))
        hr = j.right.eval(float(rr))
        brute = germ_contains(j, (float(rl), float(rr)), tol=1e-12)
        if abs(hl - hr) > 1e-12 or hl > a_cap + 1e-12:
            expected = False
        else:
            f = hl
            left_lo, left_hi = j.left.roots(f)
            right_lo, right_hi = j.right.roots(f)
            congested_left = abs(rl - left_hi) <= 1e-12
            free_left = abs(rl - left_lo) <= 1e-12
            free_right = abs(rr - right_lo) <= 1e-12
            congested_right = abs(rr - right_hi) <= 1e-12
            expected = (free_left or congested_left) and (free_right or congested_right)
            if f < a_cap - 1e-12 and congested_left and free_right and not (
                free_left or congested_right
            ):
                # Below the cap, pairing the congested left root with the
                # free right root leaves demand and supply both above f, so
                # the junction flux stays at min(cap, ...) > f: not a member.
                # At f = cap the same combination is admissible.
                expected = False
        assert brute == expected, (rl, rr, hl, hr, brute, expected)


def test_germ_members_pairwise_dissipative(sym_junction):
    members = []
    for rl, rr in itertools.product(_state_grid(), repeat=2):
        if germ_contains(sym_junction, (float(rl), float(rr)), tol=1e-12):
            f = junction_flux(sym_junction, float(rl), float(rr))
            members.append(TracePair(float(rl), float(rr), f))
    assert len(members) > 10
    worst = min(
        germ_dissipative(sym_junction, p1, p2)
        for p1, p2 in itertools.combinations(members, 2)
    )
    assert worst >= -1e-12


# -- randomized properties ----------------------------------------------------

junctions = st.builds(
    lambda hl, hr, frac: JunctionModel(
        left=QuadraticFlux(rmax=1.0, hmax=hl),
        right=QuadraticFlux(rmax=1.0, hmax=hr),
        limiter=frac * min(hl, hr),
    ),
    hl=st.floats(0.1, 0.5),
    hr=st.floats(0.1, 0.5),
    frac=st.floats(0.0, 1.0),
)


@given(j=junctions, rl=st.floats(0.0, 1.0), rr=st.floats(0.0, 1.0))
@example(
    # congested data already carrying f: the congested root of f lands one
    # ulp above rl, which once read as a left-moving shock of speed 0.17
    j=JunctionModel(
        left=QuadraticFlux(rmax=1.0, hmax=0.36586783861683325),
        right=QuadraticFlux(rmax=1.0, hmax=0.36586783861683325),
        limiter=0.36586783861683325,
    ),
    rl=0.530210358639846,
    rr=0.530210358639846,
)
@settings(deadline=None, max_examples=200)
def test_traces_consistent_for_random_junctions(j, rl, rr):
    tr = riemann_traces(j, rl, rr)
    assert germ_contains(j, tr, tol=1e-9)
    f = junction_flux(j, rl, rr)
    assert tr.flux_value == pytest.approx(f, abs=1e-12)
    assert f <= j.limiter + 1e-14


@given(j=junctions, rl=st.floats(0.0, 1.0), rr=st.floats(0.0, 1.0), xi=st.floats(-2.0, 2.0))
@settings(deadline=None, max_examples=200)
def test_riemann_profile_is_valid_density(j, rl, rr, xi):
    rho = riemann_profile(j, rl, rr, xi)
    rmax = j.left.rmax if xi < 0 else j.right.rmax
    assert -1e-12 <= rho <= rmax + 1e-12


def test_riemann_profile_wave_speed_signs(sym_junction):
    """Left-side waves travel at speed <= 0, right-side waves at >= 0.

    Hence on each side the profile is constant beyond the junction fan:
    the far field equals the datum and the near field equals the trace.
    """
    j = sym_junction
    for rl, rr in itertools.product(np.linspace(0.0, 1.0, 9), repeat=2):
        tr = riemann_traces(j, float(rl), float(rr))
        assert riemann_profile(j, float(rl), float(rr), -1e-9) == pytest.approx(
            tr.q_minus, abs=1e-9
        )
        assert riemann_profile(j, float(rl), float(rr), 1e-9) == pytest.approx(
            tr.q_plus, abs=1e-9
        )
        assert riemann_profile(j, float(rl), float(rr), -5.0) == pytest.approx(
            float(rl), abs=1e-12
        )
        assert riemann_profile(j, float(rl), float(rr), 5.0) == pytest.approx(
            float(rr), abs=1e-12
        )


@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0), xi=st.floats(-1.5, 1.5))
@settings(deadline=None, max_examples=200)
def test_classical_riemann_is_entropy_profile(a, b, xi):
    """The self-similar profile is monotone between its endpoint states."""
    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    rho = classical_riemann(flux, a, b, xi)
    assert min(a, b) - 1e-12 <= rho <= max(a, b) + 1e-12
    far_left = classical_riemann(flux, a, b, -10.0)
    far_right = classical_riemann(flux, a, b, 10.0)
    assert far_left == pytest.approx(a, abs=1e-12)
    assert far_right == pytest.approx(b, abs=1e-12)


def test_kruzhkov_flux_symmetry_and_formula(default_flux):
    # Swapping the arguments flips both the sign factor and the flux
    # difference, so the entropy flux is symmetric.
    vals = np.linspace(0.0, 1.0, 11)
    for a, b in itertools.product(vals, repeat=2):
        fab = kruzhkov_flux(default_flux, float(a), float(b))
        fba = kruzhkov_flux(default_flux, float(b), float(a))
        assert fab == pytest.approx(fba, abs=1e-15)
        assert fab == pytest.approx(
            np.sign(a - b) * (default_flux.eval(float(a)) - default_flux.eval(float(b))),
            abs=1e-15,
        )
    assert kruzhkov_flux(default_flux, 0.4, 0.4) == 0.0
