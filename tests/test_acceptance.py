"""Headline acceptance criteria, one recorded PASS/FAIL line each.

Every numbered test measures one end-to-end guarantee of the package at
the stated resolution and tolerance; the conftest reporter echoes the
collected lines after the run.  The shared desk-scale battery fixture
(dx = 1/200 on [-2, 2]) backs the criteria that are themselves battery
records; the remaining criteria run their own dedicated solves.
"""

from __future__ import annotations

import itertools

import numpy as np

from junctionflow import (
    CanonicalDatum,
    DatumShape,
    JunctionModel,
    QuadraticFlux,
    SemigroupHandle,
    canonical_field,
    canonical_node_field,
    germ_contains,
    hj_direct_solve,
    hj_from_cl,
    exact_roof0_capped,
    Grid,
    identify_limiter_cl,
    identify_limiter_hj,
    junction_flux,
    mass,
    random_cell_field,
    riemann_field,
    riemann_profile,
    riemann_traces,
    solve,
    trace_estimate,
)
from conftest import battery_record


def test_criterion_1_riemann_germ_equivalence(sym_junction, battery_report, acceptance):
    """Exact Riemann traces live in the germ; the empirical scan agrees."""
    worst = 0.0
    for rl, rr in itertools.product(np.linspace(0.0, 1.0, 41), repeat=2):
        tr = riemann_traces(sym_junction, float(rl), float(rr))
        assert germ_contains(sym_junction, tr, tol=1e-12)
        hl = sym_junction.left.eval(tr.q_minus)
        hr = sym_junction.right.eval(tr.q_plus)
        fj = junction_flux(sym_junction, tr.q_minus, tr.q_plus)
        worst = max(worst, abs(hl - hr), abs(hl - tr.flux_value), abs(fj - tr.flux_value))
    acceptance.check(
        "[1a] riemann traces in germ",
        worst,
        1e-12,
        detail="worst germ-membership defect over the 41x41 state grid",
    )
    scan = battery_record(battery_report, "germ_scan")
    acceptance.check(
        "[1b] empirical stationarity scan misclassifications",
        scan.measured,
        0.0,
        detail=scan.scenario,
    )


def test_criterion_2_l1_contraction(battery_report, acceptance):
    """100 seeded datum pairs, t in {0.25, 0.5, 1}: L1 distance never grows."""
    rec = battery_record(battery_report, "l1_contraction")
    acceptance.check(
        "[2] discrete L1 contraction",
        rec.measured,
        rec.tolerance,
        detail=rec.scenario,
    )


def test_criterion_3_mass_conservation(sym_junction, acceptance):
    """1000 steps at dx = 1/800 move no mass with compact-support data."""
    dx = 1.0 / 800.0
    grid = Grid.from_domain(-2.0, 2.0, round(4.0 / dx))
    rng = np.random.default_rng(42)
    drift = 0.0
    n_steps = None
    for _ in range(3):
        state = random_cell_field(
            grid, sym_junction, rng, support=(-0.5, 0.5), background=(0.0, 0.0)
        )
        m0 = mass(state)
        out = solve(state, sym_junction, 1.0)[-1]
        drift = max(drift, abs(mass(out) - m0))
        n_steps = round(1.0 / (0.8 * dx / sym_junction.lipschitz_bound))
    acceptance.check(
        "[3] mass conservation",
        drift,
        1e-10,
        detail=f"worst |mass(1) - mass(0)| over 3 compact data, {n_steps} steps",
    )


def test_criterion_4_riemann_convergence(sym_junction, uncapped_junction, acceptance):
    """L1 error vs the exact self-similar profile, and its decay under refinement."""
    t = 0.5
    scenarios = (
        ("capped 0.5/0.5", sym_junction, 0.5, 0.5),
        ("uncapped 0.2/0.3", uncapped_junction, 0.2, 0.3),
    )
    for label, j, rl, rr in scenarios:
        errors = {}
        for n in (400, 800):
            grid = Grid.from_domain(-1.0, 1.0, n)
            out = solve(riemann_field(grid, rl, rr), j, t)[-1]
            xs = grid.cell_centers()
            exact = riemann_profile(j, rl, rr, xs / t)
            errors[n] = float(np.sum(np.abs(out.values - exact)) * grid.dx)
        acceptance.check(
            f"[4] riemann L1 error, {label}",
            errors[400],
            0.01,
            detail=f"dx=1/200, t={t}",
        )
        acceptance.check(
            f"[4] refinement gain, {label}",
            errors[400] / errors[800],
            1.2,
            mode="ge",
            detail=f"error ratio dx=1/200 over dx=1/400 ({errors[400]:.2e} / {errors[800]:.2e})",
        )


def test_criterion_5_limiter_identification(default_flux, acceptance):
    """Both probes recover the configured cap at dx = 1/400 and agree."""
    grid = Grid.from_domain(-2.0, 2.0, 1600)
    worst_err = 0.0
    worst_gap = 0.0
    for limiter in (0.0, 0.09375, 0.1875, 0.25):
        model = JunctionModel(left=default_flux, right=default_flux, limiter=limiter)
        h_cl = SemigroupHandle("cl", model=model, grid=grid)
        h_hj = SemigroupHandle("hj", model=model, grid=grid)
        a_cl = identify_limiter_cl(h_cl)
        a_hj = identify_limiter_hj(h_hj)
        worst_err = max(worst_err, abs(a_cl - limiter), abs(a_hj - limiter))
        worst_gap = max(worst_gap, abs(a_cl - a_hj))
    acceptance.check(
        "[5] limiter recovery error",
        worst_err,
        0.01,
        detail="worst |estimate - cap| over caps {0, 3/32, 3/16, 1/4}, both probes",
    )
    acceptance.check(
        "[5] probe agreement",
        worst_gap,
        0.01,
        detail="worst |density estimate - potential estimate|",
    )


def test_criterion_6_exact_oracle_cross_checks(sym_junction, acceptance):
    """Node scheme vs closed forms: sup error, duality gap, junction values."""
    dx = 1.0 / 400.0
    t = 1.0
    grid = Grid.from_domain(-2.0, 2.0, round(4.0 / dx))
    u0 = canonical_node_field(grid, sym_junction, CanonicalDatum(DatumShape.PHI_HAT, 0.0))
    direct = hj_direct_solve(u0, sym_junction, t)[-1]
    xs = grid.node_coords()
    window = np.abs(xs) <= 1.0
    exact = np.array(
        [exact_roof0_capped(sym_junction, sym_junction.limiter, t, float(x)) for x in xs]
    )
    sup_err = float(np.max(np.abs(direct.values[window] - exact[window])))
    acceptance.check(
        "[6a] node scheme vs closed form",
        sup_err,
        0.02,
        detail="sup over [-1,1] at t=1, dx=1/400, level-0 roof datum",
    )

    rho0 = canonical_field(grid, sym_junction, CanonicalDatum(DatumShape.PSI_HAT, 0.0))
    rho0.values[:] = u0.slopes()
    run = solve(rho0, sym_junction, t, snapshot_times=[0.0, t])
    via_cl = hj_from_cl(run, u0, sym_junction)[-1]
    gap = float(np.max(np.abs(via_cl.values - direct.values)))
    budget = 2 * grid.dx * (1.0 + t * sym_junction.lipschitz_bound)
    acceptance.check(
        "[6b] duality gap",
        gap,
        budget,
        detail="cumulative-sum potential vs node scheme, same datum",
    )

    acceptance.check(
        "[6c] junction value drains at the cap",
        abs(direct.value_at_zero() - (-0.1875)),
        0.01,
        detail="u(1, 0) vs -cap for cap 0.1875",
    )

    worst = 0.0
    for a in (0.05, 0.125, 0.1875):
        v0 = canonical_node_field(grid, sym_junction, CanonicalDatum(DatumShape.PHI_CHECK, a))
        v_t = hj_direct_solve(v0, sym_junction, t)[-1]
        worst = max(worst, abs(v_t.value_at_zero() - (-a * t)))
    acceptance.check(
        "[6d] valley datum junction rate",
        worst,
        0.01,
        detail="worst |u(1, 0) + a| over valley levels a <= cap",
    )


def test_criterion_7_stationarity_classification(sym_junction, acceptance):
    """Germ members freeze bitwise; near-miss Rankine-Hugoniot data must move."""
    dx = 1.0 / 200.0
    grid = Grid.from_domain(-2.0, 2.0, round(4.0 / dx))
    t = 0.5
    germ_pairs = []
    for rl, rr in itertools.product(np.linspace(0.0, 1.0, 21), repeat=2):
        if germ_contains(sym_junction, (float(rl), float(rr)), tol=1e-12):
            germ_pairs.append((float(rl), float(rr)))
    drift = 0.0
    for rl, rr in germ_pairs:
        state = riemann_field(grid, rl, rr)
        out = solve(state, sym_junction, t)[-1]
        drift = max(drift, float(np.max(np.abs(out.values - state.values))))
    acceptance.check(
        "[7a] germ pairs stay put",
        drift,
        1e-10,
        detail=f"max field drift over {len(germ_pairs)} germ pairs, t={t}",
    )

    weakest = np.inf
    for shape, level in (
        (DatumShape.PSI_HAT, 0.1),
        (DatumShape.PSI_HAT, 0.25),
        (DatumShape.PSI_CHECK, 0.25),
    ):
        state = canonical_field(grid, sym_junction, CanonicalDatum(shape, level))
        out = solve(state, sym_junction, t)[-1]
        qm, qp = trace_estimate(out)
        moved = max(
            abs(sym_junction.left.eval(qm) - level),
            abs(sym_junction.right.eval(qp) - level),
        )
        weakest = min(weakest, moved)
    acceptance.check(
        "[7b] non-member data drift",
        weakest,
        0.005,
        mode="ge",
        detail="smallest trace-flux move among step data off the cap, t=0.5",
    )


def test_criterion_8_axiom_battery(battery_report, acceptance):
    """The full property battery passes; support equalities hold bitwise."""
    failed = [r.name for r in battery_report.records if not r.passed]
    acceptance.check(
        "[8] verification battery failures",
        float(len(failed)),
        0.0,
        detail=f"{len(battery_report.records)} checks at dx=1/200 on [-2,2]"
        + (f"; failed: {failed}" if failed else ""),
    )
    for name in ("finite_speed", "locality"):
        rec = battery_record(battery_report, name)
        acceptance.check(
            f"[8] {name} bitwise",
            rec.measured,
            0.0,
            detail=rec.scenario,
        )
