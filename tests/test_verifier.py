"""Property battery: individual checks, limiter recovery, external-process handles."""

from __future__ import annotations

import math
import sys
import textwrap

import numpy as np
import pytest

from junctionflow import (
    CheckRecord,
    Grid,
    JunctionModel,
    NodeField,
    QuadraticFlux,
    SemigroupHandle,
    StepError,
    empirical_germ_scan,
    identify_limiter_cl,
    identify_limiter_hj,
    random_cell_field,
    random_node_field,
    riemann_field,
    run_battery,
)
from junctionflow.verifier import (
    check_comparison,
    check_constants,
    check_duality,
    check_finite_speed,
    check_germ_dissipativity,
    check_hj_exact_agreement,
    check_l1_contraction,
    check_linf_contraction,
    check_locality,
    check_mass,
    check_oracle_scale_invariance,
    check_riemann_admissibility,
    check_scale_invariance_cl,
    check_supersolution_floor,
)

COARSE_DX = 1.0 / 64.0


@pytest.fixture(scope="module")
def cl_handle(sym_junction):
    return SemigroupHandle("cl", model=sym_junction, dx=COARSE_DX)


@pytest.fixture(scope="module")
def hj_handle(sym_junction):
    return SemigroupHandle("hj", model=sym_junction, dx=COARSE_DX)


# -- individual checks at coarse resolution ------------------------------------


def test_model_level_checks(sym_junction, asym_junction):
    for model in (sym_junction, asym_junction):
        rec = check_riemann_admissibility(model, grid_n=17)
        assert rec.passed, rec.summary()
        rec = check_germ_dissipativity(model, grid_n=17)
        assert rec.passed, rec.summary()
        rec = check_oracle_scale_invariance(model, n_samples=25)
        assert rec.passed, rec.summary()


def test_cl_checks_pass_coarse(cl_handle):
    for rec in (
        check_l1_contraction(cl_handle, n_trials=10),
        check_comparison(cl_handle, n_trials=6),
        check_mass(cl_handle, n_trials=3),
        check_finite_speed(cl_handle),
        check_locality(cl_handle),
        check_scale_invariance_cl(cl_handle, eps_list=(2.0,)),
    ):
        assert rec.passed, rec.summary()
        assert rec.measured <= rec.tolerance


def test_hj_checks_pass_coarse(hj_handle):
    for rec in (
        check_linf_contraction(hj_handle, n_trials=6),
        check_constants(hj_handle, n_trials=3),
        check_duality(hj_handle),
        check_supersolution_floor(hj_handle),
        check_hj_exact_agreement(hj_handle),
    ):
        assert rec.passed, rec.summary()


def test_record_fields_are_informative(cl_handle):
    rec = check_mass(cl_handle, n_trials=2)
    d = rec.to_dict()
    assert d["name"] == "mass_conservation"
    assert d["status"] == "pass"
    assert "PASS" in rec.summary() and "tolerance" in rec.summary()
    # the verdict is the margin's own: measured <= tolerance
    assert CheckRecord("equal", 1e-10, 1e-10, "margin at the tolerance").passed
    nan = CheckRecord("nan", math.nan, 0.0, "NaN margin")
    assert not nan.passed and nan.to_dict()["status"] == "fail" and nan.summary().startswith("FAIL")


def test_locality_is_bitwise_on_asymmetric_junctions(asym_junction, readme_junction):
    """The whole-line references march on the junction run's steps, whatever each side's bound."""
    mirror = JunctionModel(left=readme_junction.right, right=readme_junction.left, limiter=readme_junction.limiter)
    for model in (asym_junction, readme_junction, mirror):
        rec = check_locality(SemigroupHandle("cl", model=model, dx=COARSE_DX))
        assert rec.measured == 0.0 and rec.passed, rec.summary()


def test_mass_balance_counts_the_outer_edge_flows():
    """With L = 1.5, compact data reach the outer edges by t = 1; the flow through them is no loss."""
    flux = QuadraticFlux(rmax=1.0, hmax=0.375)
    h = SemigroupHandle("cl", model=JunctionModel(left=flux, right=flux, limiter=0.2), dx=COARSE_DX)
    rec = check_mass(h)
    assert rec.passed, rec.summary()


@pytest.mark.parametrize("junction", ["asym_junction", "readme_junction"])
def test_battery_passes_on_asymmetric_junctions(request, junction):
    report = run_battery(request.getfixturevalue(junction), dx=1.0 / 100.0, l1_trials=10, linf_trials=4, scan_grid_n=5)
    assert len(report.records) == 18
    assert report.all_passed, "\n".join(report.summary_lines())


def test_battery_records_carry_wall_time(battery_report):
    for rec in battery_report.records:
        assert math.isfinite(rec.wall_s) and rec.wall_s >= 0.0, rec.name
        assert rec.to_dict()["wall_s"] == rec.wall_s
        assert "wall" not in rec.summary()
    assert sum(rec.wall_s for rec in battery_report.records) > 0.0


def test_external_handle_times_out(tmp_path, sym_junction):
    script = tmp_path / "hang.py"
    script.write_text("import time; time.sleep(60)\n")
    external = SemigroupHandle("cl", sym_junction, COARSE_DX, command=(sys.executable, str(script)), timeout=0.5)
    with pytest.raises(StepError, match="timed out after 0.5 s"):
        external.evolve_cl([riemann_field(external.grid, 0.5, 0.5)], [0.1])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="external timeout"):
            SemigroupHandle("cl", sym_junction, command=("true",), timeout=bad)


# -- limiter identification -----------------------------------------------------


@pytest.mark.parametrize("limiter", [0.0, 0.09375, 0.1875, 0.25])
def test_identify_limiter_both_methods_coarse(default_flux, limiter):
    model = JunctionModel(left=default_flux, right=default_flux, limiter=limiter)
    h_cl = SemigroupHandle("cl", model=model, dx=COARSE_DX)
    h_hj = SemigroupHandle("hj", model=model, dx=COARSE_DX)
    a_cl = identify_limiter_cl(h_cl)
    a_hj = identify_limiter_hj(h_hj)
    assert abs(a_cl - limiter) <= 0.02
    assert abs(a_hj - limiter) <= 0.02
    assert abs(a_cl - a_hj) <= 0.02


def test_identify_limiter_zero_is_sharp(default_flux):
    model = JunctionModel(left=default_flux, right=default_flux, limiter=0.0)
    h_hj = SemigroupHandle("hj", model=model, dx=COARSE_DX)
    a_hj = identify_limiter_hj(h_hj)
    assert abs(a_hj) <= 1e-10
    assert not np.signbit(a_hj)


def test_germ_scan_coarse(cl_handle, sym_junction):
    scan = empirical_germ_scan(cl_handle, grid_n=9, t_end=0.25)
    assert scan.misclassified == []
    assert scan.record.passed
    assert len(scan.stationary) > 0 and len(scan.evolving) > 0
    assert abs(scan.limiter_estimate - sym_junction.limiter) <= 0.02
    for pair in scan.stationary:
        assert abs(
            sym_junction.left.eval(pair.q_minus) - sym_junction.right.eval(pair.q_plus)
        ) <= sym_junction.equality_tol + 1e-12


# -- random field generators ----------------------------------------------------


def test_random_cell_field_respects_bounds(sym_junction):
    grid = Grid.from_domain(-2.0, 2.0, 128)
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = random_cell_field(grid, sym_junction, rng)
        assert np.all(f.values >= 0.0)
        assert np.all(f.values[: grid.n_left] <= sym_junction.left.rmax)
        assert np.all(f.values[grid.n_left :] <= sym_junction.right.rmax)
        xs = grid.cell_centers()
        outside = np.abs(xs) > 0.76
        left_bg = f.values[0]
        right_bg = f.values[-1]
        expected_bg = np.where(xs[outside] < 0, left_bg, right_bg)
        np.testing.assert_array_equal(f.values[outside], expected_bg)


def test_random_node_field_is_lipschitz(sym_junction):
    grid = Grid.from_domain(-2.0, 2.0, 128)
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = random_node_field(grid, sym_junction, rng)
        slopes = u.slopes()
        assert np.all(slopes >= -1e-12)
        assert np.all(slopes[: grid.n_left] <= sym_junction.left.rmax + 1e-12)
        assert np.all(slopes[grid.n_left :] <= sym_junction.right.rmax + 1e-12)


# -- external process protocol ---------------------------------------------------

REFERENCE_EXTERNAL = textwrap.dedent(
    """
    import sys
    from junctionflow import Grid, JunctionModel, QuadraticFlux, solve
    from junctionflow.formats import read_cell_csv, write_cell_csv

    src, t, dst = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    model = JunctionModel(QuadraticFlux(1.0, 0.25), QuadraticFlux(1.0, 0.25), 0.1875)
    grid = Grid.from_domain(-2.0, 2.0, 128)
    state = read_cell_csv(src, grid)
    out = solve(state, model, t, snapshot_times=[t])[-1]
    write_cell_csv(dst, out)
    """
)


def test_external_handle_matches_internal_bitwise(tmp_path, sym_junction):
    """The CSV protocol round-trips exactly when the command rebuilds the grid."""
    script = tmp_path / "ext.py"
    script.write_text(REFERENCE_EXTERNAL)
    grid = Grid.from_domain(-2.0, 2.0, 128)
    internal = SemigroupHandle("cl", model=sym_junction, dx=grid.dx)
    external = SemigroupHandle(
        "cl",
        model=sym_junction,
        dx=grid.dx,
        command=(sys.executable, str(script)),
    )
    state = riemann_field(grid, 0.6, 0.3)
    ours = internal.evolve_cl([state], [0.25])[0][-1]
    theirs = external.evolve_cl([state], [0.25])[0][-1]
    np.testing.assert_array_equal(ours.values, theirs.values)
    assert theirs.time == 0.25


@pytest.mark.parametrize("command", [(), (sys.executable, "-c", "pass")])
def test_handle_evolves_only_its_scheme(sym_junction, command):
    grid = Grid.from_domain(-2.0, 2.0, 64)
    rho0 = riemann_field(grid, 0.5, 0.5)
    u0 = NodeField(grid, 0.5 * grid.node_coords())
    cl = SemigroupHandle("cl", sym_junction, grid.dx, command=command)
    hj = SemigroupHandle("hj", sym_junction, grid.dx, command=command)
    with pytest.raises(StepError, match="cl handle does not evolve potentials"):
        cl.evolve_hj(u0, [0.1])
    with pytest.raises(StepError, match="hj handle does not evolve densities"):
        hj.evolve_cl(rho0, [0.1])


def test_handle_rejects_unknown_scheme(sym_junction):
    with pytest.raises(ValueError, match="unknown scheme 'cl_internal'"):
        SemigroupHandle("cl_internal", sym_junction)


def test_external_handle_surfaces_failures(tmp_path, sym_junction):
    script = tmp_path / "boom.py"
    script.write_text("import sys; sys.stderr.write('no such scheme'); sys.exit(7)\n")
    external = SemigroupHandle(
        "cl",
        model=sym_junction,
        dx=COARSE_DX,
        command=(sys.executable, str(script)),
    )
    grid = external.grid
    state = riemann_field(grid, 0.5, 0.5)
    with pytest.raises(StepError, match="no such scheme"):
        external.evolve_cl([state], [0.1])


def test_unfaithful_external_fails_checks(tmp_path, sym_junction):
    """A command that freezes the state must be caught by the battery checks."""
    script = tmp_path / "identity.py"
    script.write_text("import sys, shutil; shutil.copyfile(sys.argv[1], sys.argv[3])\n")
    external = SemigroupHandle(
        "cl",
        model=sym_junction,
        dx=COARSE_DX,
        command=(sys.executable, str(script)),
    )
    a_cl = identify_limiter_cl(external)
    # Frozen step datum keeps its full capacity flux, nowhere near the cap.
    assert abs(a_cl - sym_junction.limiter) > 0.01
    scan = empirical_germ_scan(external, grid_n=5, t_end=0.25)
    assert not scan.record.passed
