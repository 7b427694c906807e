"""Command-line interface: config validation, outputs, exit codes, determinism."""

from __future__ import annotations

import inspect
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from junctionflow import (
    GridMismatchError,
    JunctionModel,
    LevelError,
    QuadraticFlux,
    SemigroupHandle,
    cl_solver,
    hj_solver,
    read_cell_csv,
    read_node_csv,
)
from junctionflow.cli import (
    ConfigError,
    main,
    parse_config_dict,
    resolve_output_dir,
)

BASE_CONFIG = {
    "flux_left": {"kind": "quadratic", "rmax": 1.0, "hmax": 0.25},
    "flux_right": {"kind": "quadratic", "rmax": 1.0, "hmax": 0.25},
    "limiter": 0.1875,
    "cells": 80,
    "t_end": 0.25,
    "datum": {"name": "riemann", "left": 0.5, "right": 0.5},
}


def write_config(tmp_path, **overrides):
    cfg = {**BASE_CONFIG, **overrides}
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


# -- config parsing -------------------------------------------------------------


def test_parse_config_defaults():
    cfg = parse_config_dict(
        {
            "flux_left": BASE_CONFIG["flux_left"],
            "flux_right": BASE_CONFIG["flux_right"],
            "limiter": 0.1,
        }
    )
    assert cfg.domain == (-2.0, 2.0)
    assert cfg.cells == 800
    assert cfg.cfl == 0.8
    assert cfg.t_end == 1.0
    assert cfg.seed == 0


def test_parse_config_amax_keyword():
    cfg = parse_config_dict({**BASE_CONFIG, "limiter": "amax"})
    assert cfg.limiter == 0.25


def test_datum_level_amax_is_the_joint_capacity(tmp_path):
    """A canonical datum at level "amax" parses, and solves byte for byte, as one at the numeric a_max."""
    keyword, numeric = ({**BASE_CONFIG, "datum": {"name": "psi_hat", "level": level}} for level in ("amax", 0.25))
    assert parse_config_dict(numeric).model.a_max == 0.25
    assert parse_config_dict(keyword).datum == parse_config_dict(numeric).datum
    snapshots = []
    for name, cfg in (("keyword", keyword), ("numeric", numeric)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve-cl", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        snapshots.append((tmp_path / name / "cl_snapshot_000.csv").read_bytes())
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize(
    "patch, fragment",
    [
        ({"limiter": -0.5}, "limiter"),
        ({"limiter": 0.3}, "limiter"),
        ({"cells": 4}, "cells"),
        ({"cfl": 0.0}, "cfl"),
        ({"cfl": 1.5}, "cfl"),
        ({"t_end": -1.0}, "t_end"),
        ({"domain": [0.5, 2.0]}, "domain"),
        ({"domain": [-2.0]}, "domain"),
        ({"snapshots": [0.5, 0.25]}, "snapshots"),
        ({"snapshots": [0.5]}, "snapshots"),
        ({"mystery": 1}, "mystery"),
        ({"datum": {"name": "nonsense"}}, "datum"),
        ({"datum": {"name": "riemann", "left": 0.5}}, "datum"),
        ({"datum": {"piecewise_constant": {"breaks": [0.0], "values": [0.1]}}}, "datum"),
        (
            {"datum": {"piecewise_linear": {"points": [[0.0, 0.0]]}}},
            "datum",
        ),
        ({"flux_left": {"kind": "quadratic", "rmax": 1.0}}, "flux_left"),
        ({"cfl": math.nan}, "cfl"),
        ({"t_end": math.nan}, "t_end"),
        ({"t_end": math.inf}, "t_end"),
        ({"snapshots": [math.nan]}, "snapshots"),
        ({"domain": [-2.0, math.inf]}, "domain"),
        ({"domain": [-math.inf, 2.0]}, "domain"),
        ({"t_end": 10**400}, "t_end"),
        ({"datum": {"name": "riemann", "left": math.inf, "right": 0.5}}, "datum"),
        ({"datum": {"piecewise_constant": {"breaks": [0.0], "values": [0.1, math.nan]}}}, "datum"),
        ({"datum": {"piecewise_linear": {"points": [[-2.0, 0.0], [0.0, math.inf]]}}}, "datum"),
        ({"datum": {"piecewise_linear": {"points": [[-2.0, "0"], [0.0, 1.0]]}}}, "datum"),
        ({"seed": -1}, "seed"),
        ({"flux_right": {"kind": "piecewise_linear", "points": [[0, 0], [0.5, math.inf], [1, 0]]}}, "flux_right"),
        ({"flux_left": {"kind": "quadratic", "rmax": True, "hmax": "0.25"}}, "flux_left.rmax"),
        ({"flux_left": {"kind": "quadratic", "rmax": 1.0, "hmax": "0.25"}}, "flux_left.hmax"),
        ({"flux_right": {"kind": "piecewise_linear", "points": [[0, 0], ["0.5", True], [1, 0]]}}, "flux_right.points"),
        ({"flux_right": {"kind": "piecewise_linear", "points": [[0, 0], [0.5, True], [1, 0]]}}, "flux_right.points"),
    ],
)
def test_parse_config_rejects_bad_fields(patch, fragment):
    cfg = {**BASE_CONFIG, "t_end": 0.4, **patch}
    with pytest.raises(ConfigError, match=fragment):
        parse_config_dict(cfg)


def test_parse_config_rejects_bool_numbers():
    with pytest.raises(ConfigError):
        parse_config_dict({**BASE_CONFIG, "limiter": True})


@pytest.mark.parametrize(
    "limiter, expected",
    [
        (0.25 + 5e-10, None),  # past the junction's slack above a_max: refused
        (0.25 * (1.0 + 1e-12), 0.25),  # inside it: clamped
        (-5e-13, 0.0),  # inside its slack below 0: clamped
    ],
)
def test_config_limiter_follows_the_junction_rule(limiter, expected):
    """At the margins of [0, a_max] the config accepts, clamps and refuses a limiter as JunctionModel does."""
    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    config = {**BASE_CONFIG, "limiter": limiter}
    if expected is None:
        with pytest.raises(LevelError) as refused:
            JunctionModel(flux, flux, limiter)
        with pytest.raises(ConfigError, match=f"^limiter: {re.escape(str(refused.value))}$"):
            parse_config_dict(config)
    else:
        assert parse_config_dict(config).limiter == JunctionModel(flux, flux, limiter).limiter == expected


def test_resolve_output_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("JUNCTIONFLOW_OUT", raising=False)
    assert resolve_output_dir(str(tmp_path)) == tmp_path
    monkeypatch.setenv("JUNCTIONFLOW_OUT", str(tmp_path / "env"))
    assert resolve_output_dir(None) == tmp_path / "env"
    assert resolve_output_dir(str(tmp_path / "flag")) == tmp_path / "flag"


# -- riemann subcommand ----------------------------------------------------------


def test_riemann_header_frozen_example(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(["riemann", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    header = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert header["q_minus"] == 0.75
    assert header["q_plus"] == 0.25
    assert header["flux_value"] == 0.1875
    assert header["in_germ"] is True
    assert (tmp_path / "out" / "riemann.json").is_file()
    assert (tmp_path / "out" / "riemann_profile.csv").is_file()
    assert (tmp_path / "out" / "manifest.json").is_file()


def test_riemann_cli_state_flags_override_datum(tmp_path, capsys):
    cfg = write_config(tmp_path)
    rc = main(
        [
            "riemann",
            "--config",
            str(cfg),
            "--left",
            "0.1",
            "--right",
            "0.9",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    header = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert header["flux_value"] == pytest.approx(0.09, abs=1e-15)


# -- solve subcommands ------------------------------------------------------------


def test_solve_cl_outputs_and_roundtrip(tmp_path):
    cfg = write_config(tmp_path, snapshots=[0.0, 0.25])
    out = tmp_path / "out"
    rc = main(["solve-cl", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "solve-cl"
    assert len(manifest["snapshots"]) == 2
    assert manifest["mass"][0] == pytest.approx(manifest["mass"][-1], abs=1e-12)
    s0 = read_cell_csv(out / "cl_snapshot_000.csv")
    s1 = read_cell_csv(out / "cl_snapshot_001.csv")
    assert s0.values.shape == s1.values.shape == (80,)
    # CSV floats are written with repr: reading back is bitwise.
    assert float(np.max(np.abs(s0.values[:40] - 0.5))) == 0.0


def test_solve_cl_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve-cl", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["solve-cl", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("cl_snapshot_000.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_hj_node_drain(tmp_path):
    cfg = write_config(
        tmp_path,
        datum={"name": "phi_hat", "level": 0.1875},
        t_end=0.25,
    )
    out = tmp_path / "out"
    rc = main(["solve-hj", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["value_at_zero"][-1] == pytest.approx(-0.1875 * 0.25, abs=1e-12)
    u = read_node_csv(out / "hj_snapshot_000.csv")
    assert u.values.shape == (81,)


# Leg by leg at the commit before the planner fold: a t = 0 snapshot and a repeated one.
FROZEN_STEPS = [
    {"t_from": 0.0, "t_to": 0.0, "n_steps": 0, "dt": 0.0},
    {"t_from": 0.0, "t_to": 0.1, "n_steps": 3, "dt": 0.03333333333333333},
    {"t_from": 0.1, "t_to": 0.1, "n_steps": 0, "dt": 0.0},
    {"t_from": 0.1, "t_to": 0.25, "n_steps": 4, "dt": 0.0375},
]


@pytest.mark.parametrize(
    "subcommand, scheme, datum",
    [
        ("solve-cl", "cl", {"name": "riemann", "left": 0.5, "right": 0.5}),
        ("solve-hj", "hj", {"name": "phi_hat", "level": 0.1875}),
    ],
)
def test_manifest_steps_frozen(tmp_path, subcommand, scheme, datum):
    path = write_config(tmp_path, datum=datum, snapshots=[0.0, 0.1, 0.1, 0.25])
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"] == FROZEN_STEPS
    assert manifest["snapshots"] == [0.0, 0.1, 0.1, 0.25]
    cfg = parse_config_dict(json.loads(path.read_text()))
    handle = SemigroupHandle(scheme, cfg.model, cfg.build_grid(), cfg.cfl)
    assert handle.count_steps(cfg.snapshots) == sum(leg["n_steps"] for leg in FROZEN_STEPS) == 7


@pytest.mark.parametrize(
    "subcommand, module, name, datum",
    [
        ("solve-cl", cl_solver, "solve", {"name": "riemann", "left": 0.5, "right": 0.5}),
        ("solve-hj", hj_solver, "hj_direct_solve", {"name": "phi_hat", "level": 0.1875}),
    ],
)
def test_solve_looks_its_march_up_on_the_solver_module(tmp_path, monkeypatch, subcommand, module, name, datum):
    """A wrapper installed on the module after import, as the benchmark's tracer does, sees the solve."""
    calls = []
    march = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or march(*args, **kwargs))
    path = write_config(tmp_path, datum=datum)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == [name]


@pytest.mark.parametrize(
    "subcommand, patch",
    [
        ("solve-cl", {"t_end": 0, "datum": {"name": "riemann", "left": math.nan, "right": 0.5}}),
        ("solve-cl", {"t_end": 0, "datum": {"name": "riemann", "left": 0.5, "right": 7.0}}),
        ("solve-hj", {"t_end": 0, "datum": {"piecewise_linear": {"points": [[-2.0, 0.0], [0.0, math.nan], [2.0, 1.0]]}}}),
        ("solve-cl", {"t_end": math.nan}),
        ("solve-cl", {"t_end": math.inf}),
        ("solve-cl", {"snapshots": [math.nan]}),
    ],
)
def test_solve_rejects_bad_datum_or_times(tmp_path, capsys, subcommand, patch):
    """A bad datum fails even a run of no steps; non-finite times fail parsing."""
    path = write_config(tmp_path, **patch)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "patch, message",
    [
        (
            {"datum": {"piecewise_constant": {"breaks": 5, "values": [0.1, 0.2]}}},
            "datum.piecewise_constant.breaks: expected a list of numbers, got 5",
        ),
        (
            {"datum": {"piecewise_constant": {"breaks": [0.0], "values": 0.3}}},
            "datum.piecewise_constant.values: expected a list of numbers, got 0.3",
        ),
        (
            {"datum": {"piecewise_constant": {"breaks": None, "values": [0.1]}}},
            "datum.piecewise_constant.breaks: expected a list of numbers, got None",
        ),
        (
            {"domain": [-1e308, 1e308]},
            "domain: [-1e+308, 1e+308] over 80 cells: dx must be positive, finite and not subnormal, got inf",
        ),
        (
            {"domain": [-5e-324, 5e-324]},
            "domain: [-5e-324, 5e-324] over 80 cells: dx must be positive, finite and not subnormal, got 0.0",
        ),
        (
            {"domain": [-1e-320, 1e-320], "cells": 8},
            "domain: [-1e-320, 1e-320] over 8 cells: dx must be positive, finite and not subnormal, got 2.5e-321",
        ),
        (  # the config's prefix names the domain, the grid's reason does not repeat it
            {"domain": [0.5, 2.0], "cells": 800},
            "domain: [0.5, 2.0] over 800 cells: the domain must contain 0 in its interior",
        ),
    ],
    ids=[
        "breaks-number", "values-number", "breaks-null", "width-overflows", "width-underflows", "width-subnormal",
        "zero-outside",
    ],
)
def test_unusable_datum_table_or_domain_is_a_config_error(tmp_path, capsys, patch, message):
    """Exit 2 with the field named, not a traceback (exit 1) or a numerical failure (exit 3)."""
    path = write_config(tmp_path, **patch)
    assert main(["solve-cl", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


# Sizes numpy refuses before it allocates anything; a size it might try to allocate is never run here.
@pytest.mark.parametrize("cells", [10**30, 2**62], ids=["1e30", "2**62"])
@pytest.mark.parametrize("subcommand", ["solve-cl", "verify"])
def test_cells_too_many_for_a_node_array_is_a_config_error(tmp_path, capsys, subcommand, cells):
    """Exit 2 with the domain and ``cells`` named, not numpy's size error as a traceback (exit 1)."""
    path = write_config(tmp_path, cells=cells)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    message = f"domain: [-2.0, 2.0] over {cells} cells: too many cells for an array of the grid's nodes to hold"
    assert f"error: {message}\n" in capsys.readouterr().err


def test_out_of_memory_is_a_config_error(tmp_path, capsys, monkeypatch):
    """A grid this machine cannot allocate: exit 2 with one line, not a MemoryError traceback (exit 1)."""

    def refuse(self):
        raise MemoryError("Unable to allocate 8.00 PiB for an array with shape (1125899906842624,)")

    monkeypatch.setattr(cl_solver.Grid, "cell_centers", refuse)
    path = write_config(tmp_path)
    assert main(["solve-cl", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: not enough memory for this config: "
        "Unable to allocate 8.00 PiB for an array with shape (1125899906842624,)\n"
    )


def test_march_of_too_many_steps_to_count_is_a_numerical_failure(tmp_path, capsys):
    """t_end / dt_max overflows: exit 3, not an OverflowError traceback (exit 1)."""
    path = write_config(tmp_path, t_end=1e308)
    assert main(["solve-cl", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "cannot march 1e+308 in steps of at most" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch", [{"t_end": 1e20}, {"domain": [-1e-300, 1e-300]}], ids=["long-time", "tiny-cells"]
)
def test_march_of_more_steps_than_can_end_is_refused_at_once(tmp_path, patch):
    """About 1e20 (resp. 5e300) steps: exit 3 from the planner, not a march that runs until killed."""
    path = write_config(tmp_path, cells=8, **patch)
    command = [sys.executable, "-m", "junctionflow.cli", "solve-cl", "--config", str(path), "--out", str(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert "cannot march" in proc.stderr


_DATA = {
    "riemann": {"name": "riemann", "left": 0.5, "right": 0.5},
    **{shape: {"name": shape, "level": 0.1} for shape in ("phi_hat", "phi_check", "psi_hat", "psi_check")},
    "piecewise_constant": {"piecewise_constant": {"breaks": [0.0], "values": [0.2, 0.6]}},
    "piecewise_linear": {"piecewise_linear": {"points": [[-2.0, 0.0], [0.0, 1.0], [2.0, 1.2]]}},
    "none": None,
}


@pytest.mark.parametrize(
    "subcommand, datum",
    [
        *(("solve-hj", name) for name in ("riemann", "psi_hat", "piecewise_constant", "none")),
        *(("solve-cl", name) for name in ("phi_hat", "piecewise_linear", "none")),
        *(("riemann", name) for name in _DATA if name not in ("riemann", "none")),
    ],
)
def test_datum_of_another_solve_is_a_config_error(tmp_path, capsys, subcommand, datum):
    """Exit 2 before any output; the message is the datum's or its field's, so it is not pinned."""
    path = write_config(tmp_path, datum=_DATA[datum])
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_piecewise_datums(tmp_path):
    cfg = write_config(
        tmp_path,
        datum={"piecewise_constant": {"breaks": [-0.5, 0.5], "values": [0.2, 0.8, 0.4]}},
        snapshots=[0.0],
    )
    out = tmp_path / "out"
    assert main(["solve-cl", "--config", str(cfg), "--out", str(out)]) == 0
    s0 = read_cell_csv(out / "cl_snapshot_000.csv")
    xs = s0.grid.cell_centers()
    np.testing.assert_array_equal(
        s0.values, np.where(xs < -0.5, 0.2, np.where(xs < 0.5, 0.8, 0.4))
    )

    cfg = write_config(
        tmp_path,
        datum={"piecewise_linear": {"points": [[-2.0, 0.0], [0.0, 1.0], [2.0, 1.2]]}},
    )
    assert main(["solve-hj", "--config", str(cfg), "--out", str(tmp_path / "out2")]) == 0


# -- exact-hj ---------------------------------------------------------------------


def test_exact_hj_all_datums(tmp_path, capsys):
    cfg = write_config(tmp_path, datum=None)
    out = tmp_path / "out"
    rc = main(
        [
            "exact-hj",
            "--config",
            str(cfg),
            "--datum",
            "phi0_hat",
            "--time",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "u(1.0, 0) = -0.1875" in capsys.readouterr().out
    rows = (out / "exact_hj.csv").read_text().strip().splitlines()
    assert rows[0] == "x,u"

    rc = main(
        ["exact-hj", "--config", str(cfg), "--datum", "phiA_hat", "--limiter", "0.1",
         "--time", "2.0", "--out", str(out)]
    )
    assert rc == 0
    assert "-0.2" in capsys.readouterr().out

    rc = main(
        ["exact-hj", "--config", str(cfg), "--datum", "phiA_check", "--limiter", "0.25",
         "--time", "1.0", "--out", str(out)]
    )
    assert rc == 0
    assert "-0.1875" in capsys.readouterr().out


def test_exact_hj_rejects_drain_above_cap(tmp_path, capsys):
    cfg = write_config(tmp_path, datum=None)
    rc = main(
        ["exact-hj", "--config", str(cfg), "--datum", "phiA_hat", "--limiter", "0.25",
         "--time", "1.0", "--out", str(tmp_path / "out")]
    )
    assert rc == 2
    assert "cap" in capsys.readouterr().err


def test_exact_hj_rejects_nonpositive_time(tmp_path, capsys):
    cfg = write_config(tmp_path, datum=None)
    rc = main(
        ["exact-hj", "--config", str(cfg), "--datum", "phi0_hat", "--time", "0.0",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 2


@pytest.mark.parametrize("datum", ["phi0_hat", "phiA_hat", "phiA_check"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exact_hj_rejects_nonfinite_time(tmp_path, capsys, datum, value):
    """A time that is not finite is a config error for every datum, not a CSV of nan or -inf."""
    cfg = write_config(tmp_path, datum=None)
    out = tmp_path / "out"
    rc = main(["exact-hj", "--config", str(cfg), "--datum", datum, f"--time={value}", "--out", str(out)])
    assert rc == 2
    assert f"error: time must be positive, got {value}\n" in capsys.readouterr().err
    assert not (out / "exact_hj.csv").exists()


# -- identify-limiter --------------------------------------------------------------


@pytest.mark.parametrize("method", ["hj", "cl"])
def test_identify_limiter_subcommand(tmp_path, capsys, method):
    cfg = write_config(tmp_path, cells=160, datum=None)
    out = tmp_path / "out"
    rc = main(["identify-limiter", "--config", str(cfg), "--method", method, "--out", str(out)])
    assert rc == 0
    estimate = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert estimate == pytest.approx(0.1875, abs=0.01)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["estimate"] == estimate


# -- verify -------------------------------------------------------------------------


def test_verify_internal_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, cells=128, datum=None, t_end=1.0)
    out = tmp_path / "out"
    rc = main(
        ["verify", "--config", str(cfg), "--out", str(out),
         "--l1-trials", "4", "--linf-trials", "2", "--scan-grid", "5"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in text
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert report["identified_limiter"] == pytest.approx(0.1875, abs=0.01)
    assert len(report["checks"]) >= 18


STEEP_FLUX = {"kind": "quadratic", "rmax": 1.0, "hmax": 0.5}
TRIANGLE_FLUX = {"kind": "piecewise_linear", "points": [[0, 0], [0.5, 0.25], [1, 0]]}


@pytest.mark.parametrize(
    "patch",
    [
        {"cfl": 0.4},
        {"cfl": 0.2},
        {"flux_left": STEEP_FLUX, "flux_right": STEEP_FLUX, "limiter": 0.375},
        {"flux_right": TRIANGLE_FLUX, "cfl": 0.2},
        {"flux_right": TRIANGLE_FLUX, "cfl": 0.05},
    ],
    ids=["cfl-0.4", "cfl-0.2", "steep", "readme-cfl-0.2", "readme-cfl-0.05"],
)
def test_verify_keeps_its_windows_at_any_cfl_and_wave_speed(tmp_path, capsys, patch):
    """finite_speed and locality end at 0.5 (cfl / 0.8) / L, so 200 cells keep their windows nonempty."""
    cfg = write_config(tmp_path, cells=200, datum=None, t_end=1.0, **patch)
    rc = main(
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--l1-trials", "1", "--linf-trials", "1", "--scan-grid", "2"]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "ALL CHECKS PASSED (18/18)" in out


def test_verify_broken_external_numerical_failure(tmp_path, capsys):
    cfg = write_config(tmp_path, cells=128, datum=None)
    script = tmp_path / "boom.py"
    script.write_text("import sys; sys.exit(1)\n")
    rc = main(
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--external-cl", sys.executable, str(script),
         "--l1-trials", "2", "--linf-trials", "2", "--scan-grid", "5"]
    )
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


# External commands whose output the audit must refuse: rows reversed and shifted by 7,
# one value replaced by NaN, no output file at all, the last row cut to a bare x, and
# one value left empty.
MISGRIDDED_EXTERNAL = """
import csv, sys
header, *rows = list(csv.reader(open(sys.argv[1])))
with open(sys.argv[3], "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(header)
    for x, v, side in reversed(rows):
        w.writerow([repr(float(x) + 7.0), v, side])
"""

NAN_EXTERNAL = """
import csv, sys
header, *rows = list(csv.reader(open(sys.argv[1])))
rows[len(rows) // 2][1] = "nan"
with open(sys.argv[3], "w", newline="") as fh:
    csv.writer(fh).writerows([header, *rows])
"""

SHORT_ROW_EXTERNAL = """
import csv, sys
header, *rows = list(csv.reader(open(sys.argv[1])))
rows[-1] = rows[-1][:1]
with open(sys.argv[3], "w", newline="") as fh:
    csv.writer(fh).writerows([header, *rows])
"""

EMPTY_FIELD_EXTERNAL = """
import csv, sys
header, *rows = list(csv.reader(open(sys.argv[1])))
rows[2][1] = ""
with open(sys.argv[3], "w", newline="") as fh:
    csv.writer(fh).writerows([header, *rows])
"""


@pytest.mark.parametrize(
    "source,flag,message",
    [
        (MISGRIDDED_EXTERNAL, "--external-cl", "data row 1 has x"),
        (MISGRIDDED_EXTERNAL, "--external-hj", "data row 1 has x"),
        (NAN_EXTERNAL, "--external-cl", "non-finite value nan"),
        (NAN_EXTERNAL, "--external-hj", "non-finite value nan"),
        ("", "--external-cl", "No such file"),
        (SHORT_ROW_EXTERNAL, "--external-cl", "data row 64 has 1 field(s); the header has 3"),
        (SHORT_ROW_EXTERNAL, "--external-hj", "data row 65 has 1 field(s); the header has 3"),
        (EMPTY_FIELD_EXTERNAL, "--external-cl", "data row 3: could not convert string to float: ''"),
    ],
    ids=[
        "misgridded-cl", "misgridded-hj", "nan-cl", "nan-hj", "no-output", "short-row-cl", "short-row-hj",
        "empty-field-cl",
    ],
)
def test_verify_rejects_unusable_external_output(tmp_path, capsys, source, flag, message):
    cfg = write_config(tmp_path, cells=64, datum=None)
    script = tmp_path / "ext.py"
    script.write_text(source)
    rc = main(
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
         flag, sys.executable, str(script),
         "--l1-trials", "1", "--linf-trials", "1", "--scan-grid", "2"]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "wrote an unusable state" in err and message in err


@pytest.mark.parametrize("read,column", [(read_cell_csv, "rho"), (read_node_csv, "u")])
@pytest.mark.parametrize("row", ["-0.5,,l", "x,0.5,l"])
def test_reader_names_the_row_of_a_non_numeric_field(tmp_path, read, column, row):
    path = tmp_path / "state.csv"
    path.write_text(f"x,{column},side\r\n-1.5,0.5,l\r\n{row}\r\n0.5,0.5,r\r\n")
    with pytest.raises(GridMismatchError, match=re.escape(f"{path}: data row 2: could not convert string to float")):
        read(path)


def test_readme_scenario_passes_verify(tmp_path, capsys, readme_scenario):
    """The README's scenario block is the committed config, and the battery passes on it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Scenario config\n\n```json\n", 1)[1].split("```", 1)[0]
    assert block == readme_scenario.read_text()
    rc = main(
        ["verify", "--config", str(readme_scenario), "--out", str(tmp_path),
         "--l1-trials", "10", "--linf-trials", "4", "--scan-grid", "5"]
    )
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "ALL CHECKS PASSED (18/18)" in out


@pytest.mark.parametrize("command", ["missing", "not-executable"])
def test_verify_external_that_cannot_start_is_a_numerical_failure(tmp_path, capsys, command):
    """A command that does not exist, or a file that is not executable, exits 3 with a message, not a traceback."""
    cfg = write_config(tmp_path, cells=64, datum=None)
    path = tmp_path / command
    if command == "not-executable":
        path.write_text("#!/bin/sh\n")
        path.chmod(0o644)
    rc = main(
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"), "--external-hj", str(path),
         "--l1-trials", "1", "--linf-trials", "1", "--scan-grid", "2"]
    )
    assert rc == 3
    assert f"numerical failure: external semi-group {path} could not be started: " in capsys.readouterr().err


def test_verify_hanging_external_times_out(tmp_path, capsys):
    cfg = write_config(tmp_path, cells=64, datum=None)
    script = tmp_path / "hang.py"
    script.write_text("import time; time.sleep(60)\n")
    t0 = time.monotonic()
    rc = main(
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--external-cl", sys.executable, str(script), "--external-timeout", "1",
         "--l1-trials", "1", "--linf-trials", "1", "--scan-grid", "2"]
    )
    assert rc == 3
    assert time.monotonic() - t0 < 10.0
    assert "timed out after 1 s" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        *(pytest.param("--external-timeout", value, id=value) for value in ("0", "-3", "inf", "nan")),
        ("--l1-trials", "-3"),
        ("--l1-trials", "0"),
        ("--linf-trials", "0"),
        ("--scan-grid", "1"),
        ("--scan-grid", "0"),
        ("--scan-grid", "-3"),
    ],
)
def test_verify_rejects_bad_external_timeout(tmp_path, capsys, flag, value):
    """A timeout that is not positive seconds, or a count that leaves a check vacuous, is named (exit 2)."""
    cfg = write_config(tmp_path, cells=64, datum=None)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"), flag, value])
    assert rc == 2
    assert f"{flag}: " in capsys.readouterr().err


def test_verify_help_shows_the_battery_defaults(capsys):
    """verify's help reads its defaults from run_battery and EXTERNAL_TIMEOUT_S when it is printed."""
    from junctionflow import verifier

    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    defaults = inspect.signature(verifier.run_battery).parameters
    assert f"(default {verifier.EXTERNAL_TIMEOUT_S:g})" in text
    for flag, param in (("--l1-trials", "l1_trials"), ("--linf-trials", "linf_trials"), ("--scan-grid", "scan_grid_n")):
        assert re.search(rf"{flag} N .*?\(default {defaults[param].default}\)", text), flag


def test_verify_unfaithful_external_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, cells=128, datum=None)
    script = tmp_path / "identity.py"
    script.write_text("import sys, shutil; shutil.copyfile(sys.argv[1], sys.argv[3])\n")
    rc = main(
        ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
         "--external-cl", sys.executable, str(script),
         "--l1-trials", "2", "--linf-trials", "2", "--scan-grid", "5"]
    )
    assert rc == 4
    assert "FAIL" in capsys.readouterr().out


# -- manifests -----------------------------------------------------------------------

# Each subcommand's manifest keys, frozen from the commit before the solve commands merged.
MANIFEST_KEYS = {
    "riemann": {"config", "files", "grid", "header", "seed", "subcommand"},
    "solve-cl": {"config", "files", "grid", "mass", "seed", "snapshots", "steps", "subcommand", "traces"},
    "solve-hj": {"config", "files", "grid", "seed", "snapshots", "steps", "subcommand", "value_at_zero"},
    "exact-hj": {"config", "datum", "files", "grid", "level", "seed", "subcommand", "time", "value_at_zero"},
    "identify-limiter": {"config", "estimate", "files", "method", "seed", "subcommand"},
    "verify": {"all_passed", "config", "files", "seed", "subcommand"},
}


@pytest.mark.parametrize(
    "subcommand, options, datum",
    [
        ("riemann", [], {"name": "riemann", "left": 0.5, "right": 0.5}),
        ("solve-cl", [], {"name": "riemann", "left": 0.5, "right": 0.5}),
        ("solve-hj", [], {"name": "phi_hat", "level": 0.1875}),
        ("exact-hj", ["--datum", "phi0_hat"], None),
        ("identify-limiter", ["--method", "hj"], None),
        ("verify", ["--l1-trials", "1", "--linf-trials", "1", "--scan-grid", "2"], None),
    ],
)
def test_manifest_header_keys_and_json_format(tmp_path, capsys, subcommand, options, datum):
    path = write_config(tmp_path, cells=64, datum=datum, seed=7)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(path), "--out", str(out), *options]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS[subcommand]
    assert manifest["subcommand"] == subcommand
    assert manifest["seed"] == 7
    assert manifest["config"] == json.loads(path.read_text())
    for name in ("manifest.json", "riemann.json", "verify_report.json"):
        if (out / name).exists():
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# -- process-level behavior ----------------------------------------------------------


def test_env_var_output_dir(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("JUNCTIONFLOW_OUT", str(target))
    rc = main(["riemann", "--config", str(cfg)])
    assert rc == 0
    assert (target / "riemann.json").is_file()


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("where", ["file", "under a file"])
def test_output_dir_that_is_not_a_directory_is_config_error(tmp_path, monkeypatch, capsys, source, where):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "results"
    blocker.write_text("not a directory")
    target = blocker if where == "file" else blocker / "run"
    args = ["riemann", "--config", str(cfg)]
    if source == "flag":
        args += ["--out", str(target)]
    else:
        monkeypatch.setenv("JUNCTIONFLOW_OUT", str(target))
    assert main(args) == 2
    assert f"error: output directory {target} cannot be created: " in capsys.readouterr().err
    assert blocker.read_text() == "not a directory"


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["riemann", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["riemann", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


def test_console_script_subprocess(tmp_path):
    cfg = write_config(tmp_path)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "junctionflow.cli",
            "riemann",
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    header = json.loads(proc.stdout.strip().splitlines()[-1])
    assert header["in_germ"] is True


# The public API, spelled out: the package derives ``__all__`` from its imports, so a
# name added or dropped there shows up here and must be edited in on purpose.
PUBLIC_NAMES = [
    "BOUNDARY_TOL", "CanonicalDatum", "CellField", "CheckRecord", "ConcaveFlux", "ConfigError", "DatumShape",
    "DomainError", "GermScanResult", "Grid", "GridMismatchError", "JunctionModel", "LevelError", "NodeField",
    "PiecewiseLinearFlux", "QuadraticFlux", "SemigroupHandle", "StepError", "TracePair", "VerificationReport",
    "canonical_eval", "canonical_field", "canonical_node_field", "classical_riemann", "empirical_germ_scan",
    "exact_roof0_capped", "exact_roof0_uncapped", "exact_roof_drain", "exact_valley_capped",
    "field_from_function", "flux_from_config", "germ_contains", "germ_dissipative", "godunov_flux",
    "hj_direct_solve", "hj_direct_solve_batch", "hj_from_cl", "identify_limiter_cl", "identify_limiter_hj",
    "junction_flux", "kruzhkov_flux", "l1_distance", "mass", "node_field_from_function", "plan_march",
    "plan_steps", "random_cell_field", "random_node_field", "read_cell_csv", "read_manifest", "read_node_csv",
    "riemann_field", "riemann_profile", "riemann_traces", "run_battery", "solve", "solve_batch", "step",
    "sup_distance", "trace_estimate", "validate_lip", "write_cell_csv", "write_manifest", "write_node_csv",
]


def test_public_names_are_the_declared_list():
    import junctionflow

    assert junctionflow.__all__ == PUBLIC_NAMES


# Run in a fresh interpreter: the test session itself has long since imported the verifier.
IMPORT_HYGIENE = """
import sys
import junctionflow, junctionflow.cli, junctionflow.formats
loaded = {"junctionflow.verifier", "subprocess"} & set(sys.modules)
assert not loaded, f"a solver import loaded {sorted(loaded)}"
listed = set(dir(junctionflow))
missing = set(junctionflow.__all__) - listed
assert not missing, f"dir() misses {sorted(missing)}"
import json, tempfile
from pathlib import Path
from junctionflow import cli
with tempfile.TemporaryDirectory() as td:
    config = Path(td) / "scenario.json"
    datum = {"name": "riemann", "left": 0.5, "right": 0.5}
    config.write_text(json.dumps({**cli.DEFAULT_CONFIG, "cells": 40, "t_end": 0.25, "datum": datum}))
    for command in ("solve-cl", "riemann"):
        assert cli.main([command, "--config", str(config), "--out", td]) == 0, command
assert "junctionflow.verifier" not in sys.modules, "a solver subcommand loaded the verifier"
names = {}
exec("from junctionflow import *", names)
from junctionflow import verifier
for name in junctionflow.__all__:
    assert getattr(junctionflow, name) is names[name], name
assert junctionflow.run_battery is verifier.run_battery
try:
    junctionflow.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


def test_solver_imports_leave_the_verifier_unloaded():
    """An external command importing the solvers and formats, or a solver subcommand, does not pay for the verifier."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
