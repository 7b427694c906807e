"""Property battery: individual checks, limiter recovery, external-process handles."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

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
from junctionflow import verifier
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
    _usable_cpus,
)
from conftest import handles

COARSE = Grid.from_domain(-2.0, 2.0, 256)


@pytest.fixture(scope="module")
def cl_handle(sym_junction):
    return SemigroupHandle("cl", model=sym_junction, grid=COARSE)


@pytest.fixture(scope="module")
def hj_handle(sym_junction):
    return SemigroupHandle("hj", model=sym_junction, grid=COARSE)


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
        rec = check_locality(SemigroupHandle("cl", model=model, grid=COARSE))
        assert rec.measured == 0.0 and rec.passed, rec.summary()


def test_mass_balance_counts_the_outer_edge_flows():
    """With L = 1.5, compact data reach the outer edges by t = 1; the flow through them is no loss."""
    flux = QuadraticFlux(rmax=1.0, hmax=0.375)
    h = SemigroupHandle("cl", model=JunctionModel(left=flux, right=flux, limiter=0.2), grid=COARSE)
    rec = check_mass(h)
    assert rec.passed, rec.summary()


@pytest.mark.parametrize("junction", ["asym_junction", "readme_junction"])
def test_battery_passes_on_asymmetric_junctions(request, junction):
    model = request.getfixturevalue(junction)
    report = run_battery(*handles(model, 400), l1_trials=10, linf_trials=4, scan_grid_n=5)
    assert len(report.records) == 18
    assert report.all_passed, "\n".join(report.summary_lines())


# Every record of a coarse battery on two junctions with L = 1 and a_max = 1/4, frozen
# apart from wall_s: (name, measured, tolerance, scenario).
FROZEN_RECORDS = {
    "sym_junction": [
        ("riemann_traces_admissible", 8.673617379884035e-17, 1e-12, "41x41 density grid"),
        ("germ_dissipativity", 8.673617379884035e-17, 1e-12, "34 admissible pairs from a 41x41 grid"),
        ("l1_contraction", 0.0, 6.5e-11, "3 random pairs, t in (0.25, 0.5, 1.0), dx=0.02"),
        ("comparison_principle", -4.163336342344337e-16, 0.0, "20 ordered pairs, t in (0.5, 1.0), dx=0.02"),
        ("mass_conservation", 1.1102230246251565e-16, 1e-10, "5 compact data, 63 steps to t=1, dx=0.02"),
        ("finite_speed", 0.0, 0.0, "data equal on [-1.2,1.2], window shrunk by 32+1 cells at t=0.5"),
        ("locality", 0.0, 0.0, "junction vs whole-line runs outside |x| > 0.66 at t=0.5"),
        ("scale_invariance_cl", 0.0006138185149950789, 0.08, "riemann (0.5, 0.5), eps in (2.0, 4.0), t=0.5, dx=0.02"),
        ("linf_contraction", 0.0, 1e-12, "2 random Lip pairs, t in (0.5, 1.0), dx=0.02"),
        ("constants_commute", 1.4210854715202004e-14, 1e-10, "5 data x shifts (0.7, -1.3, 2.5), t=1, dx=0.02"),
        ("duality_gap", 1.1102230246251565e-15, 0.08, "roof data at levels (0.0, 0.1875), t=1, dx=0.02"),
        ("supersolution_floor", -0.03572637516214819, 0.0, "roof level 0 and valley levels (0.05, 0.15), t=1"),
        ("oracle_scale_invariance", 4.440892098500626e-16, 1e-12, "100 random (eps, t, x, level) samples"),
        ("hj_exact_agreement", 0.004273624837851816, 0.16, "roof level 0 vs closed form on [-1,1], t=1, dx=0.02"),
        ("limiter_id_cl", 5.551115123125783e-15, 0.01, "step datum estimate 0.1875 vs configured 0.1875, dx=0.02"),
        ("limiter_id_hj", 1.3877787807814457e-16, 0.01, "roof datum estimate 0.1875 vs configured 0.1875, dx=0.02"),
        ("limiter_id_agreement", 5.689893001203927e-15, 0.01, "density-trace estimate vs potential-drain estimate"),
        (
            "germ_scan", 0.0, 0.0,
            "9 compatible pairs on a 5x5 grid, t=0.5, dx=0.02, drift threshold 0.005, cap estimate 0.1875",
        ),
    ],
    "readme_junction": [
        ("riemann_traces_admissible", 6.938893903907228e-17, 1e-09, "41x41 density grid"),
        ("germ_dissipativity", 0.0, 1e-12, "7 admissible pairs from a 41x41 grid"),
        ("l1_contraction", 0.0, 6.5e-11, "3 random pairs, t in (0.25, 0.5, 1.0), dx=0.02"),
        ("comparison_principle", -1.1102230246251565e-16, 0.0, "20 ordered pairs, t in (0.5, 1.0), dx=0.02"),
        ("mass_conservation", 1.1102230246251565e-16, 1e-10, "5 compact data, 63 steps to t=1, dx=0.02"),
        ("finite_speed", 0.0, 0.0, "data equal on [-1.2,1.2], window shrunk by 32+1 cells at t=0.5"),
        ("locality", 0.0, 0.0, "junction vs whole-line runs outside |x| > 0.66 at t=0.5"),
        ("scale_invariance_cl", 0.0007607505595917872, 0.08, "riemann (0.5, 0.5), eps in (2.0, 4.0), t=0.5, dx=0.02"),
        ("linf_contraction", 0.0, 1e-12, "2 random Lip pairs, t in (0.5, 1.0), dx=0.02"),
        ("constants_commute", 2.842170943040401e-14, 1e-10, "5 data x shifts (0.7, -1.3, 2.5), t=1, dx=0.02"),
        ("duality_gap", 1.1102230246251565e-15, 0.08, "roof data at levels (0.0, 0.1875), t=1, dx=0.02"),
        ("supersolution_floor", -0.028429893231917087, 0.0, "roof level 0 and valley levels (0.05, 0.15), t=1"),
        ("oracle_scale_invariance", 4.440892098500626e-16, 1e-12, "100 random (eps, t, x, level) samples"),
        ("hj_exact_agreement", 0.011570106768082912, 0.16, "roof level 0 vs closed form on [-1,1], t=1, dx=0.02"),
        ("limiter_id_cl", 5.551115123125783e-15, 0.01, "step datum estimate 0.1875 vs configured 0.1875, dx=0.02"),
        ("limiter_id_hj", 1.3877787807814457e-16, 0.01, "roof datum estimate 0.1875 vs configured 0.1875, dx=0.02"),
        ("limiter_id_agreement", 5.689893001203927e-15, 0.01, "density-trace estimate vs potential-drain estimate"),
        (
            "germ_scan", 0.0, 0.0,
            "5 compatible pairs on a 5x5 grid, t=0.5, dx=0.02, drift threshold 0.005, cap estimate 0.1875",
        ),
    ],
}


@pytest.mark.parametrize("junction", sorted(FROZEN_RECORDS))
def test_battery_records_are_frozen(request, junction):
    """Each record equals the frozen one; floats compare by repr, so one ulp, or -0.0 for 0.0, fails."""
    report = run_battery(*handles(request.getfixturevalue(junction), 200), l1_trials=3, linf_trials=2, scan_grid_n=5)
    got = [(r.name, repr(r.measured), repr(r.tolerance), r.scenario) for r in report.records]
    assert got == [(name, repr(m), repr(tol), scenario) for name, m, tol, scenario in FROZEN_RECORDS[junction]]


def test_limiter_records_name_their_handles_dx(sym_junction):
    """Handles off the desk grid: every record, the cap probes' too, names the handles' dx."""
    report = run_battery(*handles(sym_junction, 100), l1_trials=1, linf_trials=1, scan_grid_n=2)
    scenarios = {r.name: r.scenario for r in report.records}
    assert scenarios["limiter_id_cl"].endswith(", dx=0.04")
    assert scenarios["limiter_id_hj"].endswith(", dx=0.04")
    assert not [scenario for scenario in scenarios.values() if "dx=0.02" in scenario]


def test_battery_refuses_handles_on_different_junctions(sym_junction, asym_junction):
    with pytest.raises(ValueError, match="the handles evolve different junctions"):
        run_battery(SemigroupHandle("cl", sym_junction, COARSE), SemigroupHandle("hj", asym_junction, COARSE))


@pytest.mark.parametrize("schemes", [("hj", "cl"), ("cl", "cl"), ("hj", "hj")])
def test_battery_refuses_handles_of_the_wrong_schemes_before_any_check(sym_junction, monkeypatch, schemes):
    checks, first = [], verifier.check_riemann_admissibility
    monkeypatch.setattr(verifier, "check_riemann_admissibility", lambda model: checks.append(model) or first(model))
    cl_handle, hj_handle = (SemigroupHandle(scheme, sym_junction, COARSE) for scheme in schemes)
    with pytest.raises(ValueError, match=f"the handles evolve {schemes[0]} and {schemes[1]} states, not cl and hj"):
        run_battery(cl_handle, hj_handle)
    assert checks == []


def test_scale_invariance_refines_the_grids_width(sym_junction, monkeypatch):
    """13 cells on [-2, 2] snap to 6 left of the junction: the fine grids cut that grid's domain into 26 and 52."""
    grids = []
    evolve_cl = SemigroupHandle.evolve_cl

    def logged(self, states, snapshot_times):
        assert self.grid == states[0].grid
        grids.append(self.grid)
        return evolve_cl(self, states, snapshot_times)

    monkeypatch.setattr(SemigroupHandle, "evolve_cl", logged)
    grid = Grid.from_domain(-2.0, 2.0, 13)
    assert grid.n_left == 6
    record = check_scale_invariance_cl(SemigroupHandle("cl", sym_junction, grid))
    assert [g.n_cells for g in grids] == [13, 26, 52]
    assert [g.n_left for g in grids] == [6, 12, 24]
    assert record.passed and record.scenario.endswith(f"dx={grid.dx:g}")


def test_battery_records_carry_wall_time(battery_report):
    for rec in battery_report.records:
        assert math.isfinite(rec.wall_s) and rec.wall_s >= 0.0, rec.name
        assert rec.to_dict()["wall_s"] == rec.wall_s
        assert "wall" not in rec.summary()
    assert sum(rec.wall_s for rec in battery_report.records) > 0.0


def test_external_handle_times_out(tmp_path, sym_junction):
    script = tmp_path / "hang.py"
    script.write_text("import time; time.sleep(60)\n")
    external = SemigroupHandle("cl", sym_junction, COARSE, command=(sys.executable, str(script)), timeout=0.5)
    with pytest.raises(StepError, match="timed out after 0.5 s"):
        external.evolve_cl([riemann_field(external.grid, 0.5, 0.5)], [0.1])
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="external timeout"):
            SemigroupHandle("cl", sym_junction, command=("true",), timeout=bad)


# -- limiter identification -----------------------------------------------------


@pytest.mark.parametrize("limiter", [0.0, 0.09375, 0.1875, 0.25])
def test_identify_limiter_both_methods_coarse(default_flux, limiter):
    model = JunctionModel(left=default_flux, right=default_flux, limiter=limiter)
    h_cl = SemigroupHandle("cl", model=model, grid=COARSE)
    h_hj = SemigroupHandle("hj", model=model, grid=COARSE)
    a_cl = identify_limiter_cl(h_cl)
    a_hj = identify_limiter_hj(h_hj)
    assert abs(a_cl - limiter) <= 0.02
    assert abs(a_hj - limiter) <= 0.02
    assert abs(a_cl - a_hj) <= 0.02


def test_identify_limiter_zero_is_sharp(default_flux):
    model = JunctionModel(left=default_flux, right=default_flux, limiter=0.0)
    h_hj = SemigroupHandle("hj", model=model, grid=COARSE)
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
    internal = SemigroupHandle("cl", model=sym_junction, grid=grid)
    external = SemigroupHandle(
        "cl",
        model=sym_junction,
        grid=grid,
        command=(sys.executable, str(script)),
    )
    state = riemann_field(grid, 0.6, 0.3)
    ours = internal.evolve_cl([state], [0.25])[0][-1]
    theirs = external.evolve_cl([state], [0.25])[0][-1]
    np.testing.assert_array_equal(ours.values, theirs.values)
    assert theirs.time == 0.25


def test_external_batch_matches_internal_bitwise(tmp_path, sym_junction):
    """Each (state, time) call of a concurrent batch lands in its own snapshot slot."""
    script = tmp_path / "ext.py"
    script.write_text(REFERENCE_EXTERNAL)
    grid = Grid.from_domain(-2.0, 2.0, 128)
    internal = SemigroupHandle("cl", model=sym_junction, grid=grid)
    external = SemigroupHandle("cl", model=sym_junction, grid=grid, command=(sys.executable, str(script)))
    rng = np.random.default_rng(3)
    states = [riemann_field(grid, 0.6, 0.3), riemann_field(grid, 0.1, 0.9), random_cell_field(grid, sym_junction, rng)]
    times = [0.1, 0.25]
    theirs = external.evolve_cl(states, times)
    assert [len(run) for run in theirs] == [len(times)] * len(states)
    for k, t in enumerate(times):
        # the command marches from t = 0 straight to t, so the reference does too
        for run_ours, run_theirs in zip(internal.evolve_cl(states, [t]), theirs):
            np.testing.assert_array_equal(run_ours[-1].values, run_theirs[k].values)
            assert run_theirs[k].time == t


def test_external_command_is_told_the_elapsed_time(tmp_path, sym_junction):
    """A state at t = 0.5 marched to t = 1.0 through the command is the internal march, bitwise."""
    script = tmp_path / "ext.py"
    script.write_text(REFERENCE_EXTERNAL)
    grid = Grid.from_domain(-2.0, 2.0, 128)
    internal = SemigroupHandle("cl", model=sym_junction, grid=grid)
    external = SemigroupHandle("cl", model=sym_junction, grid=grid, command=(sys.executable, str(script)))
    half = internal.evolve_cl([riemann_field(grid, 0.6, 0.3)], [0.5])[0][-1]
    assert half.time == 0.5
    ours = internal.evolve_cl([half], [1.0])[0][-1]
    theirs = external.evolve_cl([half], [1.0])[0][-1]
    np.testing.assert_array_equal(ours.values, theirs.values)
    assert theirs.time == 1.0


# Logs its pid, start and end times to a file of its own in the directory argv[1], sleeps, copies.
STAMP_EXTERNAL = textwrap.dedent(
    """
    import os, shutil, sys, time
    log, src, t, dst = sys.argv[1:]
    start = time.time()
    time.sleep(0.5)
    shutil.copyfile(src, dst)
    with open(os.path.join(log, str(os.getpid())), "w") as fh:
        fh.write(f"{start!r} {time.time()!r}")
    """
)


@pytest.mark.skipif(_usable_cpus() < 2, reason="one usable CPU runs the calls one at a time")
def test_external_calls_run_concurrently(tmp_path, sym_junction):
    script = tmp_path / "stamp.py"
    script.write_text(STAMP_EXTERNAL)
    log = tmp_path / "log"
    log.mkdir()
    external = SemigroupHandle("cl", sym_junction, COARSE, command=(sys.executable, str(script), str(log)))
    states = [riemann_field(external.grid, 0.5, 0.5), riemann_field(external.grid, 0.25, 0.75)]
    runs = external.evolve_cl(states, [0.1])
    for state, run in zip(states, runs):
        np.testing.assert_array_equal(run[0].values, state.values)
    (start1, end1), (start2, end2) = (map(float, f.read_text().split()) for f in log.iterdir())
    assert max(start1, start2) < min(end1, end2)


# Records its pid in the directory argv[1]; what it does depends on its state's first density and its time.
FLAKY_EXTERNAL = textwrap.dedent(
    """
    import os, shutil, sys, time
    pids, src, t, dst = sys.argv[1:]
    open(os.path.join(pids, str(os.getpid())), "w").close()
    rho = float(open(src).read().splitlines()[1].split(",")[1])
    if (rho, t) == (0.5, "0.1"):
        time.sleep(0.5)
        sys.exit("first failure in (state, time) order")
    if (rho, t) == (0.5, "0.2"):
        sys.exit("first failure in wall-clock order")
    if (rho, t) == (0.25, "0.1"):
        time.sleep(60)
    shutil.copyfile(src, dst)
    """
)


def test_external_batch_failure_reports_first_call_and_leaves_no_child(tmp_path, sym_junction, monkeypatch):
    """A later call that fails sooner is not the one reported; a sleeping sibling is killed, the rest cancelled."""
    # Two workers on every machine: a larger pool would start all eight calls before the first one fails.
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    script = tmp_path / "flaky.py"
    script.write_text(FLAKY_EXTERNAL)
    pids = tmp_path / "pids"
    pids.mkdir()
    timeout = 1.0
    external = SemigroupHandle(
        "cl", sym_junction, COARSE, command=(sys.executable, str(script), str(pids)), timeout=timeout
    )
    states = [riemann_field(external.grid, rho, rho) for rho in (0.5, 0.25, 0.75, 0.125)]
    threads = threading.active_count()
    t0 = time.perf_counter()
    with pytest.raises(StepError, match=r"exited 1: first failure in \(state, time\) order"):
        external.evolve_cl(states, [0.1, 0.2])
    assert time.perf_counter() - t0 < timeout + 1.5
    assert threading.active_count() == threads
    started = [int(f.name) for f in pids.iterdir()]
    assert 3 <= len(started) < 2 * len(states)  # the sleeper ran; calls still queued at the failure never start
    for pid in started:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# Records its pid in the directory argv[1]; at t = 0.1 it slowly writes an empty state, at t = 0.2 it exits 1 at once.
MIXED_FAILURES_EXTERNAL = textwrap.dedent(
    """
    import os, sys, time
    pids, src, t, dst = sys.argv[1:]
    open(os.path.join(pids, str(os.getpid())), "w").close()
    if t == "0.2":
        sys.exit("later failure, sooner")
    time.sleep(0.5)
    open(dst, "w").close()
    """
)


def test_external_failure_order_holds_across_failure_kinds(tmp_path, sym_junction, monkeypatch):
    """An unusable state from the earlier ask is reported over the later ask's sooner non-zero exit."""
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)  # both asks run at once
    monkeypatch.delenv("PYTHONPATH", raising=False)  # no compiled copy of the package in the temp directory
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    script = tmp_path / "mixed.py"
    script.write_text(MIXED_FAILURES_EXTERNAL)
    pids = tmp_path / "pids"
    pids.mkdir()
    external = SemigroupHandle("cl", sym_junction, COARSE, command=(sys.executable, str(script), str(pids)))
    threads = threading.active_count()
    with pytest.raises(StepError, match="wrote an unusable state: "):
        external.evolve_cl([riemann_field(external.grid, 0.5, 0.5)], [0.1, 0.2])
    assert threading.active_count() == threads
    started = [int(f.name) for f in pids.iterdir()]
    assert len(started) == 2
    for pid in started:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("command", ["missing", "not-executable"])
def test_external_command_that_cannot_start_is_a_step_error(tmp_path, sym_junction, command):
    """Every call fails at once; the first in (state, time) order is reported and no pool thread is left."""
    path = tmp_path / command
    if command == "not-executable":
        path.write_text("#!/bin/sh\n")
        path.chmod(0o644)
    external = SemigroupHandle("cl", sym_junction, COARSE, command=(str(path),))
    states = [riemann_field(external.grid, rho, rho) for rho in (0.5, 0.25, 0.75)]
    threads = threading.active_count()
    with pytest.raises(StepError, match=f"external semi-group {path} could not be started: "):
        external.evolve_cl(states, [0.1, 0.2])
    assert threading.active_count() == threads
    assert _kept(external) == {"_child_path"}


# The thread-pool variables every external call is given; the names are the runtimes' own.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
)

# Writes the environment it sees as JSON to a file of its own in the directory argv[1], copies.
ENV_EXTERNAL = textwrap.dedent(
    """
    import json, os, shutil, sys
    log, src, t, dst = sys.argv[1:]
    with open(os.path.join(log, str(os.getpid())), "w") as fh:
        json.dump(dict(os.environ), fh)
    shutil.copyfile(src, dst)
    """
)


def _child_environments(
    tmp_path, junction, monkeypatch, cpus, n_states, n_times, source: str = ENV_EXTERNAL
) -> list[dict]:
    """The environment of each call of one batch of n_states x n_times calls on `cpus` usable CPUs."""
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: cpus)
    script = tmp_path / "env.py"
    script.write_text(source)
    log = tmp_path / "log"
    log.mkdir()
    external = SemigroupHandle("cl", junction, COARSE, command=(sys.executable, str(script), str(log)))
    states = [riemann_field(external.grid, 0.125 * (k + 1), 0.5) for k in range(n_states)]
    external.evolve_cl(states, [0.1 * (k + 1) for k in range(n_times)])
    envs = [json.loads(f.read_text()) for f in log.iterdir()]
    assert len(envs) == n_states * n_times
    return envs


@pytest.mark.parametrize(
    "cpus, n_states, n_times, threads",
    [(8, 2, 1, "4"), (8, 1, 3, "2"), (3, 1, 2, "1"), (2, 4, 2, "1"), (1, 2, 2, "1")],
)
def test_external_calls_get_their_share_of_the_cpus(tmp_path, sym_junction, monkeypatch, cpus, n_states, n_times, threads):
    """Each call's thread pools get the usable CPUs over the calls that run at once."""
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for env in _child_environments(tmp_path, sym_junction, monkeypatch, cpus, n_states, n_times):
        assert {name: env.get(name) for name in THREAD_VARS} == dict.fromkeys(THREAD_VARS, threads)


def test_external_calls_keep_the_auditing_environment(tmp_path, sym_junction, monkeypatch):
    """A thread-pool variable the audit's environment sets reaches the call unchanged, and so does any other."""
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.setenv("JUNCTIONFLOW_TEST_INHERITED", "kept")
    for env in _child_environments(tmp_path, sym_junction, monkeypatch, 8, 2, 1):
        assert env["OMP_NUM_THREADS"] == "3"
        assert {name: env.get(name) for name in THREAD_VARS[1:]} == dict.fromkeys(THREAD_VARS[1:], "4")
        assert env["JUNCTIONFLOW_TEST_INHERITED"] == "kept"


# The directory whose junctionflow the tests import, and its package directory.
PACKAGE = Path(verifier.__file__).resolve().parent
ROOT = PACKAGE.parent

# ENV_EXTERNAL's record after importing junctionflow, with where the package came from,
# whether its bytecode file was there, and the digest of each of its modules.
IMPORT_EXTERNAL = textwrap.dedent(
    """
    import hashlib, json, os, pathlib, shutil, sys
    import junctionflow
    log, src, t, dst = sys.argv[1:]
    env = dict(os.environ)
    env["junctionflow"] = [junctionflow.__file__, os.path.isfile(junctionflow.__cached__)]
    modules = pathlib.Path(junctionflow.__file__).parent.glob("*.py")
    env["modules"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in modules}
    with open(os.path.join(log, str(os.getpid())), "w") as fh:
        json.dump(env, fh)
    shutil.copyfile(src, dst)
    """
)


def _package_listing() -> list[str]:
    return sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*"))


@pytest.fixture
def bytecode_environment(monkeypatch):
    """The package's directory on PYTHONPATH, no bytecode written, no pycache prefix."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)


def test_external_calls_import_a_compiled_copy_of_the_package(
    tmp_path, sym_junction, monkeypatch, bytecode_environment
):
    """Put right before the user's entry for the package, among the user's other entries; the package gains no file."""
    before, after = tmp_path / "before", tmp_path / "after"
    user_path = os.pathsep.join([str(before), str(ROOT), str(after)])
    monkeypatch.setenv("PYTHONPATH", user_path)
    listing = _package_listing()
    sources = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in PACKAGE.glob("*.py")}
    envs = _child_environments(tmp_path, sym_junction, monkeypatch, 2, 1, 2, source=IMPORT_EXTERNAL)
    assert _package_listing() == listing
    paths = {env["PYTHONPATH"] for env in envs}
    assert len(paths) == 1
    entries = paths.pop().split(os.pathsep)
    copy = Path(entries.pop(1))
    assert os.pathsep.join(entries) == user_path
    assert copy.resolve() not in (ROOT, before, after)
    for env in envs:
        imported, cached = env["junctionflow"]
        assert Path(imported) == copy / "junctionflow" / "__init__.py" and cached
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert env["modules"] == sources
    assert not copy.exists()  # removed with the handle


def test_one_handle_compiles_the_package_once(tmp_path, sym_junction, monkeypatch, bytecode_environment):
    import py_compile

    compiled = []
    compile_ = py_compile.compile

    def counted(source, **kwargs):
        compiled.append(source)
        return compile_(source, **kwargs)

    monkeypatch.setattr(py_compile, "compile", counted)
    external, log = _logging_handle(tmp_path, sym_junction)
    state = riemann_field(external.grid, 0.5, 0.25)
    external.evolve_cl([state], [0.1])
    modules = len(compiled)
    assert modules == len(list(PACKAGE.glob("*.py")))
    copy = external._child_path[1].name
    external.evolve_cl([state], [0.2, 0.3])
    assert len(compiled) == modules and external._child_path[1].name == copy and len(_calls(log)) == 3
    fresh = dataclasses.replace(external)
    fresh.evolve_cl([state], [0.1])
    assert len(compiled) == 2 * modules and fresh._child_path[1].name != copy


@pytest.mark.parametrize("case", ["not-on-path", "earlier-entry-has-another", "pycache-prefix", "unset"])
def test_external_calls_keep_pythonpath_where_a_copy_would_not_stand_in(
    tmp_path, sym_junction, monkeypatch, bytecode_environment, case
):
    """The root not on PYTHONPATH, another junctionflow found first, a pycache prefix set, or no PYTHONPATH at all."""
    other = tmp_path / "other"
    (other / "junctionflow").mkdir(parents=True)
    (other / "junctionflow" / "__init__.py").touch()
    user_path = {
        "not-on-path": str(tmp_path / "elsewhere"),
        "earlier-entry-has-another": os.pathsep.join([str(other), str(ROOT)]),
        "pycache-prefix": str(ROOT),
        "unset": None,
    }[case]
    if user_path is None:
        monkeypatch.delenv("PYTHONPATH")
    else:
        monkeypatch.setenv("PYTHONPATH", user_path)
    if case == "pycache-prefix":
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    for env in _child_environments(tmp_path, sym_junction, monkeypatch, 2, 1, 2):
        assert env.get("PYTHONPATH") == user_path


# Appends one line "t sha256-of-input" per call to the file argv[1]; exits 1 if argv[2] is
# "fail", else copies its input.
LOGGING_EXTERNAL = textwrap.dedent(
    """
    import hashlib, shutil, sys
    log, mode, src, t, dst = sys.argv[1:]
    with open(src, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(log, "a") as fh:
        fh.write(f"{t} {digest}\\n")
    if mode == "fail":
        sys.exit("asked to fail")
    shutil.copyfile(src, dst)
    """
)


def _logging_handle(tmp_path, junction, mode="copy", scheme="cl"):
    script = tmp_path / "logging.py"
    script.write_text(LOGGING_EXTERNAL)
    log = tmp_path / "calls.log"
    log.touch()
    return SemigroupHandle(scheme, junction, COARSE, command=(sys.executable, str(script), str(log), mode)), log


def _calls(log) -> list[str]:
    return log.read_text().splitlines()


def _kept(handle) -> set[str]:
    """The names of what a handle keeps beyond its parameters."""
    return set(vars(handle)) - {f.name for f in dataclasses.fields(handle)}


def test_each_external_ask_is_one_call(tmp_path, sym_junction):
    """A (state, time) repeated in one batch, and again in a later evolve, starts a call each time."""
    external, log = _logging_handle(tmp_path, sym_junction)
    state = riemann_field(external.grid, 0.5, 0.25)
    runs = external.evolve_cl([state, state.copy()], [0.1, 0.1])
    again = external.evolve_cl([state], [0.1])
    assert len(_calls(log)) == 5 and len(set(_calls(log))) == 1
    answers = [snapshot for run in runs + again for snapshot in run]
    assert len({id(a) for a in answers}) == len({id(a.values) for a in answers}) == 5
    for answer in answers:
        np.testing.assert_array_equal(answer.values, state.values)
        assert answer.time == 0.1


def test_external_answers_are_returned_as_copies(tmp_path, sym_junction):
    """An answer the caller changes leaves a later answer to the same ask untouched."""
    external, log = _logging_handle(tmp_path, sym_junction, scheme="hj")
    u0 = NodeField(external.grid, 0.25 * external.grid.node_coords())
    first = external.evolve_hj([u0], [0.1])[0][0]
    first.values[:] = 99.0
    first.time = 7.0
    second = external.evolve_hj([u0], [0.1])[0][0]
    np.testing.assert_array_equal(second.values, u0.values)
    assert second.time == 0.1
    assert len(_calls(log)) == 2


def test_external_evolve_with_no_times_starts_no_call(tmp_path, sym_junction):
    external, log = _logging_handle(tmp_path, sym_junction)
    state = riemann_field(external.grid, 0.5, 0.25)
    assert external.evolve_cl([state, state], []) == [[], []]
    assert _calls(log) == [] and _kept(external) == set()


def test_failed_external_call_is_asked_again(tmp_path, sym_junction):
    external, log = _logging_handle(tmp_path, sym_junction, mode="fail")
    state = riemann_field(external.grid, 0.5, 0.5)
    for n_calls in (1, 2):
        with pytest.raises(StepError, match="asked to fail"):
            external.evolve_cl([state], [0.1])
        assert len(_calls(log)) == n_calls


# The reference node scheme on the coarse test grid; logs like LOGGING_EXTERNAL.
REFERENCE_HJ_EXTERNAL = textwrap.dedent(
    """
    import hashlib, sys
    from junctionflow import Grid, JunctionModel, QuadraticFlux, hj_direct_solve
    from junctionflow.formats import read_node_csv, write_node_csv

    log, src, t, dst = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4]
    with open(src, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(log, "a") as fh:
        fh.write(f"{t!r} {digest}\\n")
    model = JunctionModel(QuadraticFlux(1.0, 0.25), QuadraticFlux(1.0, 0.25), 0.1875)
    state = read_node_csv(src, Grid.from_domain(-2.0, 2.0, 256))
    write_node_csv(dst, hj_direct_solve(state, model, t, snapshot_times=[t])[-1])
    """
)


def test_battery_asks_external_hj_each_state_and_time_once(tmp_path, sym_junction):
    """The HJ checks share answers: one call per distinct (state, time) of the whole battery."""
    script = tmp_path / "ref_hj.py"
    script.write_text(REFERENCE_HJ_EXTERNAL)
    log = tmp_path / "calls.log"
    log.touch()
    external = SemigroupHandle("hj", sym_junction, COARSE, command=(sys.executable, str(script), str(log)))
    cl_handle = SemigroupHandle("cl", sym_junction, COARSE)
    report = run_battery(cl_handle, external, l1_trials=1, linf_trials=1, scan_grid_n=2)
    assert report.all_passed, report.summary_lines()
    calls = _calls(log)
    assert len(set(calls)) == len(calls) == 28


# Copies its input and appends "t sha256-of-input" to the file $1, as LOGGING_EXTERNAL does, without starting Python.
SH_LOGGING_EXTERNAL = 'echo "$3 $(sha256sum < "$2")" >> "$1"; cp "$2" "$4"'


def test_battery_asks_external_cl_each_state_and_time_once(tmp_path, sym_junction):
    """No two density checks ask the same (state, time) of a 2-state germ scan's battery."""
    log = tmp_path / "calls.log"
    log.touch()
    command = ("sh", "-c", SH_LOGGING_EXTERNAL, "sh", str(log))
    external = SemigroupHandle("cl", sym_junction, COARSE, command=command)
    run_battery(external, SemigroupHandle("hj", sym_junction, COARSE), l1_trials=1, linf_trials=1, scan_grid_n=2)
    calls = _calls(log)
    assert len(set(calls)) == len(calls) == 100


@pytest.mark.parametrize("command", [(), (sys.executable, "-c", "pass")])
def test_handle_evolves_only_its_scheme(sym_junction, command):
    grid = Grid.from_domain(-2.0, 2.0, 64)
    rho0 = riemann_field(grid, 0.5, 0.5)
    u0 = NodeField(grid, 0.5 * grid.node_coords())
    cl = SemigroupHandle("cl", sym_junction, grid, command=command)
    hj = SemigroupHandle("hj", sym_junction, grid, command=command)
    with pytest.raises(StepError, match="cl handle does not evolve potentials"):
        cl.evolve_hj(u0, [0.1])
    with pytest.raises(StepError, match="hj handle does not evolve densities"):
        hj.evolve_cl(rho0, [0.1])


def test_handle_rejects_unknown_scheme(sym_junction):
    with pytest.raises(ValueError, match="unknown scheme 'cl_internal'"):
        SemigroupHandle("cl_internal", sym_junction)


def test_handle_whose_grid_no_array_can_hold_fails_at_construction(sym_junction):
    """A handle holds a built Grid, and Grid.__post_init__ bounds the cells before numpy allocates anything."""
    for n_left in (2**61, 2**62):
        with pytest.raises(ValueError, match="too many cells for an array of the grid's nodes to hold"):
            Grid(n_left=n_left, n_right=1, dx=0.1)
    assert Grid(n_left=2**59, n_right=1, dx=0.1).n_cells == 2**59 + 1


def test_external_handle_surfaces_failures(tmp_path, sym_junction):
    script = tmp_path / "boom.py"
    script.write_text("import sys; sys.stderr.write('no such scheme'); sys.exit(7)\n")
    external = SemigroupHandle(
        "cl",
        model=sym_junction,
        grid=COARSE,
        command=(sys.executable, str(script)),
    )
    grid = external.grid
    state = riemann_field(grid, 0.5, 0.5)
    with pytest.raises(StepError, match="no such scheme"):
        external.evolve_cl([state], [0.1])


SPLIT_EXTERNAL = textwrap.dedent(
    """
    import sys
    from junctionflow.formats import read_cell_csv, write_cell_csv

    state = read_cell_csv(sys.argv[1])
    state.values[: state.grid.n_left], state.values[state.grid.n_left :] = 0.0, 0.5
    write_cell_csv(sys.argv[3], state)
    """
)


def test_identify_limiter_cl_refuses_traces_that_break_flux_continuity(tmp_path, sym_junction):
    """Empty cells left of the junction and half-full ones right of it: trace fluxes 0 and 1/4 (Rankine-Hugoniot)."""
    script = tmp_path / "split.py"
    script.write_text(SPLIT_EXTERNAL)
    grid = Grid.from_domain(-2.0, 2.0, 100)
    external = SemigroupHandle("cl", sym_junction, grid, command=(sys.executable, str(script)))
    with pytest.raises(StepError, match=r"^trace fluxes 0\.0 / 0\.25 violate flux continuity beyond 0\.05$"):
        identify_limiter_cl(external)


def test_unfaithful_external_fails_checks(tmp_path, sym_junction):
    """A command that freezes the state must be caught by the battery checks."""
    script = tmp_path / "identity.py"
    script.write_text("import sys, shutil; shutil.copyfile(sys.argv[1], sys.argv[3])\n")
    external = SemigroupHandle(
        "cl",
        model=sym_junction,
        grid=COARSE,
        command=(sys.executable, str(script)),
    )
    a_cl = identify_limiter_cl(external)
    # Frozen step datum keeps its full capacity flux, nowhere near the cap.
    assert abs(a_cl - sym_junction.limiter) > 0.01
    scan = empirical_germ_scan(external, grid_n=5, t_end=0.25)
    assert not scan.record.passed
