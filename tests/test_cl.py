"""Finite-volume density semi-group: fluxes, stepping, conservation, traces."""

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
    QuadraticFlux,
    StepError,
    canonical_field,
    field_from_function,
    germ_contains,
    godunov_flux,
    l1_distance,
    mass,
    plan_steps,
    riemann_field,
    riemann_profile,
    solve,
    step,
    trace_estimate,
)

# -- frozen point values ------------------------------------------------------


def test_godunov_flux_frozen_values(default_flux):
    assert godunov_flux(default_flux, 0.3, 0.7) == pytest.approx(0.21, abs=1e-15)
    assert godunov_flux(default_flux, 0.4, 0.4) == pytest.approx(0.24, abs=1e-15)
    assert godunov_flux(default_flux, 0.7, 0.3) == 0.25


@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
@settings(deadline=None)
def test_godunov_flux_consistency_and_monotonicity(a, b):
    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    f = godunov_flux(flux, a, b)
    assert min(flux.eval(a), flux.eval(b)) - 1e-14 <= f <= flux.capacity + 1e-14
    assert godunov_flux(flux, a, a) == pytest.approx(flux.eval(a), abs=1e-15)
    # Nondecreasing in the upstream argument, nonincreasing downstream.
    assert godunov_flux(flux, min(a + 0.05, 1.0), b) >= f - 1e-14
    assert godunov_flux(flux, a, min(b + 0.05, 1.0)) <= f + 1e-14


# -- grids and fields ---------------------------------------------------------


def test_grid_from_domain_places_junction_on_interface():
    g = Grid.from_domain(-1.0, 1.5, 100)
    assert g.n_left + g.n_right == 100
    assert g.n_left * g.dx == pytest.approx(1.0, abs=1e-12)
    centers = g.cell_centers()
    assert len(centers) == 100
    # No cell straddles x = 0.
    assert np.all(np.abs(centers) >= g.dx / 2 - 1e-12)


@pytest.mark.parametrize(
    "x_min, x_max, n_cells, dx",
    [(-5e-324, 5e-324, 80, "0.0"), (-math.inf, math.inf, 10, "inf"), (-math.inf, 1.0, 10, "inf")],
    ids=["width-rounds-to-zero", "both-ends-infinite", "left-end-infinite"],
)
def test_grid_from_domain_checks_its_width_before_dividing(x_min, x_max, n_cells, dx):
    """A width that rounds to 0 or overflows is the grid's own error, not a bare ZeroDivision or NaN one."""
    with pytest.raises(GridMismatchError, match=f"^dx must be positive, finite and not subnormal, got {dx}$"):
        Grid.from_domain(x_min, x_max, n_cells)


def test_grid_rejects_bad_shapes():
    with pytest.raises(Exception):
        Grid(n_left=0, n_right=10, dx=0.1)
    with pytest.raises(Exception):
        Grid(n_left=10, n_right=10, dx=-0.1)


def test_field_range_validation(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 40)
    values = np.full(40, 0.5)
    CellField(g, values.copy())
    values[3] = 1.5
    with pytest.raises(Exception):
        state = CellField(g, values.copy())
        step(state, sym_junction, 0.001)


def test_plan_steps():
    n, dt = plan_steps(0.0, 1.0, 0.004)
    assert n == 250 and n * dt == pytest.approx(1.0, abs=1e-15)
    n, dt = plan_steps(0.0, 0.0, 0.004)
    assert (n, dt) == (0, 0.0)
    n, dt = plan_steps(0.25, 1.0, 0.1)
    assert n == 8 and dt == pytest.approx(0.75 / 8, abs=1e-16)
    assert plan_steps(0.0, 2.0**52, 1.0) == (2**52, 1.0)  # still an exact float count


@pytest.mark.parametrize("t_to, dt_max", [(1.0, 5e-324), (1e308, 1e-3), (2.0**54, 1.0)])
def test_plan_steps_refuses_a_step_count_that_overflows(t_to, dt_max):
    """Past 2**53 steps a float count is no longer exact, and no such march ends."""
    with pytest.raises(StepError, match="cannot march"):
        plan_steps(0.0, t_to, dt_max)


# -- stepping -----------------------------------------------------------------


def test_step_preserves_germ_steady_state(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 80)
    state = riemann_field(g, 0.75, 0.25)
    out = step(state, sym_junction, 0.8 * g.dx)
    np.testing.assert_array_equal(out.values, state.values)


def test_step_preserves_cap_level_step_datum(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 80)
    state = canonical_field(g, sym_junction, CanonicalDatum(DatumShape.PSI_HAT, 0.1875))
    out = state
    for _ in range(5):
        out = step(out, sym_junction, 0.8 * g.dx)
    assert float(np.max(np.abs(out.values - state.values))) <= 1e-14


def test_step_moves_riemann_data_toward_traces(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 80)
    state = riemann_field(g, 0.5, 0.5)
    out = step(state, sym_junction, 0.4 * g.dx)
    i_left = g.n_left - 1
    i_right = g.n_left
    assert out.values[i_left] > 0.5
    assert out.values[i_right] < 0.5
    # Only the two cells adjacent to the junction change after one step.
    untouched = np.ones(g.n_cells, dtype=bool)
    untouched[[i_left, i_right]] = False
    np.testing.assert_array_equal(out.values[untouched], state.values[untouched])


def test_step_rejects_cfl_violation(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 40)
    state = riemann_field(g, 0.5, 0.5)
    with pytest.raises(StepError):
        step(state, sym_junction, 1.5 * g.dx / sym_junction.lipschitz_bound)


def test_step_is_conservative_up_to_boundary_fluxes(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 80)
    rng = np.random.default_rng(7)
    state = CellField(g, rng.uniform(0.0, 1.0, 80))
    dt = 0.8 * g.dx
    out = step(state, sym_junction, dt)
    flux_in = sym_junction.left.eval(state.values[0])
    flux_out = sym_junction.right.eval(state.values[-1])
    assert mass(out) - mass(state) == pytest.approx(dt * (flux_in - flux_out), abs=1e-14)


# -- solve --------------------------------------------------------------------


def test_solve_identity_at_time_zero(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 40)
    state = riemann_field(g, 0.3, 0.6)
    out = solve(state, sym_junction, 0.0)
    assert len(out) == 1
    np.testing.assert_array_equal(out[0].values, state.values)
    assert out[0].time == 0.0


def test_solve_hits_snapshot_times_exactly(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 100)
    state = riemann_field(g, 0.5, 0.5)
    snaps = solve(state, sym_junction, 0.5, snapshot_times=[0.1, 0.33, 0.5])
    assert [s.time for s in snaps] == [0.1, 0.33, 0.5]


def test_solve_validates_inputs(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 40)
    state = riemann_field(g, 0.5, 0.5)
    with pytest.raises(StepError):
        solve(state, sym_junction, 1.0, cfl=0.0)
    with pytest.raises(StepError):
        solve(state, sym_junction, 1.0, cfl=1.2)
    with pytest.raises(StepError):
        solve(state, sym_junction, -1.0)
    with pytest.raises(StepError):
        solve(state, sym_junction, 1.0, snapshot_times=[0.5, 0.25])
    with pytest.raises(StepError):
        solve(state, sym_junction, 1.0, snapshot_times=[2.0])
    for t_end in (math.nan, math.inf):
        with pytest.raises(StepError, match="t_end"):
            solve(state, sym_junction, t_end)
    with pytest.raises(StepError, match="snapshots"):
        solve(state, sym_junction, 1.0, snapshot_times=[math.nan])


def test_solve_rejects_targets_before_the_datum_time(sym_junction):
    """A march runs forwards from its datum: a target before it would come back mislabelled."""
    g = Grid.from_domain(-1.0, 1.0, 40)
    half = solve(riemann_field(g, 0.5, 0.5), sym_junction, 0.5)[-1]
    assert half.time == 0.5
    with pytest.raises(StepError, match=r"snapshots \[0.25, 0.5\] outside \[0.5, t_end=0.5\]"):
        solve(half, sym_junction, 0.5, snapshot_times=[0.25, 0.5])
    with pytest.raises(StepError, match="t_end=0.25 precedes the datum's time 0.5"):
        solve(half, sym_junction, 0.25)
    later = solve(half, sym_junction, 1.0, snapshot_times=[0.5, 0.75, 1.0])
    assert [s.time for s in later] == [0.5, 0.75, 1.0]
    np.testing.assert_array_equal(later[0].values, half.values)


@pytest.mark.parametrize("bad, message", [(math.nan, "density must be finite"), (7.0, "density 7.0 outside")])
def test_zero_step_solve_validates_datum(sym_junction, bad, message):
    g = Grid.from_domain(-1.0, 1.0, 40)
    values = np.full(40, 0.5)
    values[25] = bad
    for snapshots in (None, [0.0, 0.0]):
        with pytest.raises(DomainError, match=message):
            solve(CellField(g, values), sym_junction, 0.0, snapshot_times=snapshots)


def test_solve_deterministic(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 100)
    state = riemann_field(g, 0.4, 0.7)
    a = solve(state, sym_junction, 0.5)[-1]
    b = solve(state, sym_junction, 0.5)[-1]
    np.testing.assert_array_equal(a.values, b.values)


def test_solve_converges_to_riemann_profile(sym_junction, uncapped_junction):
    """Desk-scale accuracy versus the exact self-similar solution."""
    t = 0.5
    for j, rl, rr, budget in (
        (sym_junction, 0.5, 0.5, 0.01),
        (uncapped_junction, 0.2, 0.3, 0.01),
    ):
        g = Grid.from_domain(-1.0, 1.0, 400)
        state = riemann_field(g, rl, rr)
        out = solve(state, j, t)[-1]
        xs = g.cell_centers()
        exact = np.array([riemann_profile(j, rl, rr, x / t) for x in xs])
        err = float(np.sum(np.abs(out.values - exact)) * g.dx)
        assert err <= budget


# -- mass, distance, traces ---------------------------------------------------


def test_mass_and_distance_basics(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 40)
    zero = CellField(g, np.zeros(40))
    assert mass(zero) == 0.0
    state = riemann_field(g, 0.5, 0.25)
    assert l1_distance(state, state) == 0.0
    assert mass(state) == pytest.approx(0.5 * 1.0 + 0.25 * 1.0, abs=1e-14)


def test_l1_distance_rejects_grid_mismatch(sym_junction):
    a = CellField(Grid.from_domain(-1.0, 1.0, 40), np.zeros(40))
    b = CellField(Grid.from_domain(-1.0, 1.0, 80), np.zeros(80))
    with pytest.raises(GridMismatchError):
        l1_distance(a, b)


def test_trace_estimate(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 80)
    steady = riemann_field(g, 0.75, 0.25)
    assert trace_estimate(steady) == (0.75, 0.25)
    zero = CellField(g, np.zeros(80))
    assert trace_estimate(zero) == (0.0, 0.0)


def test_trace_estimate_converges_to_riemann_traces(sym_junction):
    g = Grid.from_domain(-2.0, 2.0, 1600)
    state = riemann_field(g, 0.5, 0.5)
    out = solve(state, sym_junction, 1.0)[-1]
    qm, qp = trace_estimate(out)
    assert qm == pytest.approx(0.75, abs=0.01)
    assert qp == pytest.approx(0.25, abs=0.01)


def test_field_from_function(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 50)
    state = field_from_function(g, lambda x: 0.5 + 0.3 * np.sin(np.pi * x))
    assert state.values.shape == (50,)
    xs = g.cell_centers()
    np.testing.assert_allclose(state.values, 0.5 + 0.3 * np.sin(np.pi * xs), atol=1e-12)


@pytest.mark.parametrize("shape", [DatumShape.PHI_HAT, DatumShape.PHI_CHECK])
def test_canonical_field_rejects_node_data(sym_junction, shape):
    """Wedges are potentials: sampled at cell centers they would pass for densities."""
    g = Grid.from_domain(-1.0, 1.0, 8)
    with pytest.raises(DomainError, match="node"):
        canonical_field(g, sym_junction, CanonicalDatum(shape, 0.1))


# -- semigroup structure ------------------------------------------------------


def test_semigroup_composition(sym_junction):
    """Evolving to t then to t+s equals evolving straight to t+s.

    Both paths take the same dt sequence because each span up to a
    snapshot is split into the same equal steps, so agreement is bitwise.
    """
    g = Grid.from_domain(-1.0, 1.0, 100)
    state = riemann_field(g, 0.6, 0.2)
    two_leg = solve(state, sym_junction, 0.5, snapshot_times=[0.25, 0.5])
    first_leg = solve(state, sym_junction, 0.5, snapshot_times=[0.25])[-1]
    assert first_leg.time == 0.25
    resumed = solve(first_leg, sym_junction, 0.5)[-1]
    assert two_leg[0].time == 0.25 and two_leg[1].time == 0.5
    np.testing.assert_array_equal(two_leg[0].values, first_leg.values)
    np.testing.assert_array_equal(resumed.values, two_leg[1].values)


def test_comparison_principle_small_case(sym_junction):
    g = Grid.from_domain(-1.0, 1.0, 60)
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.0, 0.5, 60)
    hi = lo + rng.uniform(0.0, 0.45, 60)
    s_lo = solve(CellField(g, lo), sym_junction, 0.4)[-1]
    s_hi = solve(CellField(g, hi), sym_junction, 0.4)[-1]
    assert np.all(s_lo.values <= s_hi.values + 1e-15)


def test_invariant_domain(asym_junction):
    g = Grid.from_domain(-1.0, 1.5, 100)
    rng = np.random.default_rng(11)
    vals = np.concatenate(
        [
            rng.uniform(0.0, asym_junction.left.rmax, g.n_left),
            rng.uniform(0.0, asym_junction.right.rmax, g.n_right),
        ]
    )
    out = solve(CellField(g, vals), asym_junction, 0.5)[-1]
    assert np.all(out.values[: g.n_left] >= -1e-14)
    assert np.all(out.values[: g.n_left] <= asym_junction.left.rmax + 1e-14)
    assert np.all(out.values[g.n_left :] >= -1e-14)
    assert np.all(out.values[g.n_left :] <= asym_junction.right.rmax + 1e-14)
