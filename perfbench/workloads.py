"""The benchmark's workloads: the scenario each one builds from its seed,
the CLI commands one measured unit runs, and the gates on the unit's outputs.

verify-desk     ``junctionflow verify`` on the default desk config coarsened
                to 100 cells, with reduced trial counts: per-call and
                per-step overhead, every check of the battery.
march-fine      ``solve-cl`` then ``solve-hj`` on the README scenario
                (quadratic left, piecewise-linear right) with seeded
                piecewise-constant data at 5e4 cells for 500 steps:
                array passes and large CSV writes.
audit-external  ``verify --external-hj`` with the reference command in this
                directory on a coarse grid with the smallest trial counts:
                subprocess spawn, child import and CSV round-trips.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from junctionflow import cl_solver as cl
from junctionflow import cli, formats
from junctionflow import hj_solver as hj
from junctionflow.flux_models import BOUNDARY_TOL

HERE = Path(__file__).resolve().parent

QUADRATIC = {"kind": "quadratic", "rmax": 1.0, "hmax": 0.25}
PIECEWISE_LINEAR = {"kind": "piecewise_linear", "points": [[0, 0], [0.5, 0.25], [1, 0]]}
DESK_SCENARIO = {
    "flux_left": QUADRATIC,
    "flux_right": QUADRATIC,
    "limiter": 0.1875,
    "domain": [-2.0, 2.0],
    "cells": 800,
    "cfl": 0.8,
}
# The battery as users run it (800 cells, 100/20/21 trials) takes about 50 s,
# one unit a run, and the wall times of single units spread too much.  The
# coarse grid and the smaller trial counts keep every check and its code
# paths at about 3 s a unit, so a run takes the median of several.
DESK_CELLS = 100
DESK_TRIALS = ["--l1-trials", "10", "--linf-trials", "4", "--scan-grid", "5"]
AUDIT_CELLS = 100
FINE_CELLS = 50_000
FINE_STEPS = 500
FINE_PIECES_PER_SIDE = 12


# Tolerances up to this size are round-off allowances (1e-12 to 1e-9).  Their
# ratios move by ulps from seed to seed, so they gate pass/fail but stay out of
# the margin figure, which follows the discretization allowances.
ROUNDOFF_TOLERANCE = 1e-6


@dataclass
class Gate:
    """Outcome of the correctness gates of one unit: one operation per check or snapshot."""

    attempted: int = 0
    failed: int = 0
    margin: float = 0.0  # worst measured / tolerance over tolerances above ROUNDOFF_TOLERANCE
    failures: list[str] = field(default_factory=list)
    ratios: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, passed: bool, *bounds: tuple[float, float]) -> None:
        """One operation; ``bounds`` are its (measured, tolerance) pairs."""
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)
        for measured, tolerance in bounds:
            if tolerance > 0:
                ratio = measured / tolerance
                self.ratios[name] = max(self.ratios.get(name, ratio), ratio)
                if tolerance > ROUNDOFF_TOLERANCE:
                    self.margin = max(self.margin, ratio)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


class VerifyDesk:
    """The battery on the desk config; 18/18 checks and exit code 0 are required."""

    name = "verify-desk"
    cells = DESK_CELLS
    calibration = "python"  # the loop of calibration.LOOPS that rescales its times
    pin_cpu = True  # run on one CPU, the one the calibration loop times

    def __init__(self, seed: int, work: Path):
        self.config = _write_json(work / "scenario.json", {**DESK_SCENARIO, "cells": self.cells, "seed": seed})

    def setup_configs(self) -> list[Path]:
        return [self.config]

    def options(self) -> list[str]:
        return DESK_TRIALS

    def commands(self, out: Path) -> list[list[str]]:
        return [["verify", "--config", str(self.config), "--out", str(out), *self.options()]]

    def check(self, out: Path, codes: list[int], solves: dict) -> Gate:
        gate = Gate()
        if codes != [0]:
            gate.record(f"exit codes {codes}", False)
        report_path = out / "verify_report.json"
        if not report_path.exists():
            return gate
        report = json.loads(report_path.read_text())
        for rec in report["checks"]:
            gate.record(rec["name"], rec["status"] == "pass", (rec["measured_margin"], rec["tolerance"]))
        if len(report["checks"]) != 18:
            gate.record(f"{len(report['checks'])} checks instead of 18", False)
        return gate


class AuditExternal(VerifyDesk):
    """The battery auditing the reference external HJ command on a coarse grid.

    The CL handle stays internal: its checks make 100 external calls (the
    comparison check alone makes 80, at any trial count), which would take
    a run from about 13 s to 35-50 s; the HJ checks make 31 through the
    same code path.
    """

    name = "audit-external"
    cells = AUDIT_CELLS
    # Most of the work runs in child processes that the scheduler spreads over
    # the CPUs, so the calibration is a child process too.
    calibration = "spawn"
    pin_cpu = False

    def options(self) -> list[str]:
        return [
            "--external-hj", sys.executable, str(HERE / "ext_ref.py"), "hj", str(self.config),
            "--l1-trials", "1",
            "--linf-trials", "1",
            "--scan-grid", "2",
        ]


class MarchFine:
    """solve-cl then solve-hj at 5e4 cells; every written snapshot is gated."""

    name = "march-fine"
    calibration = "arrays"
    pin_cpu = True

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        scenario = {
            "flux_left": QUADRATIC,
            "flux_right": PIECEWISE_LINEAR,
            "limiter": 0.1875,
            "domain": [-2.0, 2.0],
            "cells": FINE_CELLS,
            "cfl": 0.8,
            "seed": seed,
        }
        base = cli.parse_config_dict(scenario)
        grid = base.build_grid()
        t_end = FINE_STEPS * base.cfl * grid.dx / base.model.lipschitz_bound
        scenario.update(t_end=t_end, snapshots=[t_end / 2, t_end])

        # Breaks sit on grid nodes, so the density is exactly the slope field of the potential.
        nl = grid.n_left
        picks = [
            rng.choice(np.arange(1, nl), FINE_PIECES_PER_SIDE - 1, replace=False),
            [nl],
            rng.choice(np.arange(nl + 1, grid.n_cells), FINE_PIECES_PER_SIDE - 1, replace=False),
        ]
        nodes = np.sort(np.concatenate(picks))
        x = grid.node_coords()
        breaks = [float(v) for v in x[nodes]]
        values = np.concatenate(
            [
                rng.uniform(0.0, base.flux_left.rmax, FINE_PIECES_PER_SIDE),
                rng.uniform(0.0, base.flux_right.rmax, FINE_PIECES_PER_SIDE),
            ]
        )
        edges = np.concatenate([[x[0]], x[nodes], [x[-1]]])
        u = np.concatenate([[0.0], np.cumsum(values * np.diff(edges))])

        self.cl_config = _write_json(
            work / "march_cl.json",
            {**scenario, "datum": {"piecewise_constant": {"breaks": breaks, "values": values.tolist()}}},
        )
        self.hj_config = _write_json(
            work / "march_hj.json",
            {**scenario, "datum": {"piecewise_linear": {"points": [[float(a), float(b)] for a, b in zip(edges, u)]}}},
        )

    def setup_configs(self) -> list[Path]:
        return [self.cl_config, self.hj_config]

    def commands(self, out: Path) -> list[list[str]]:
        return [
            ["solve-cl", "--config", str(self.cl_config), "--out", str(out / "cl")],
            ["solve-hj", "--config", str(self.hj_config), "--out", str(out / "hj")],
        ]

    def check(self, out: Path, codes: list[int], solves: dict) -> Gate:
        gate = Gate()
        if codes != [0, 0]:
            gate.record(f"exit codes {codes}", False)
            return gate
        cfg_cl = cli.parse_config(self.cl_config)
        cfg_hj = cli.parse_config(self.hj_config)
        grid, model = cfg_cl.build_grid(), cfg_cl.model
        rho0 = cli.realize_cell_datum(cfg_cl, grid)
        u0 = cli.realize_node_datum(cfg_hj, grid)
        cl_states = solves["cl_solver.solve"]
        hj_states = solves["hj_solver.hj_direct_solve"]
        via_cl = hj.hj_from_cl([rho0, *cl_states], u0, model)[1:]
        nl = grid.n_left
        mass0 = cl.mass(rho0)
        steps = np.cumsum([s["n_steps"] for s in formats.read_manifest(out / "cl" / "manifest.json")["steps"]])

        for k, state in enumerate(cl_states):
            name = f"cl snapshot {k} (t={state.time!r})"
            back = formats.read_cell_csv(out / "cl" / f"cl_snapshot_{k:03d}.csv", grid=grid)
            v = state.values
            # [0, R] on each side.  No whole-line maximum principle: a capped junction
            # queues traffic at the congested root of the cap, above the initial data.
            tops = (model.left.rmax + BOUNDARY_TOL, model.right.rmax + BOUNDARY_TOL)
            highs = (float(v[:nl].max()), float(v[nl:].max()))
            in_range = v.min() >= -BOUNDARY_TOL and all(h <= t for h, t in zip(highs, tops))
            balance = mass0 + state.left_flux_time_integral - state.right_flux_time_integral
            mass_err = abs(cl.mass(state) - balance)
            mass_tol = 1e-12 * (1 + int(steps[k]))
            passed = np.array_equal(back.values, v) and in_range and mass_err <= mass_tol
            gate.record(name, passed, (mass_err, mass_tol), *zip(highs, tops))

        for k, state in enumerate(hj_states):
            name = f"hj snapshot {k} (t={state.time!r})"
            back = formats.read_node_csv(out / "hj" / f"hj_snapshot_{k:03d}.csv", grid=grid)
            gap = hj.sup_distance(via_cl[k], state)
            gap_tol = 2.0 * grid.dx * (1.0 + state.time * model.lipschitz_bound)
            passed = np.array_equal(back.values, state.values) and via_cl[k].time == state.time and gap <= gap_tol
            gate.record(name, passed, (gap, gap_tol))
        if len(cl_states) != 2 or len(hj_states) != 2:
            gate.record(f"{len(cl_states)} cl / {len(hj_states)} hj snapshots instead of 2 each", False)
        return gate


WORKLOADS = {w.name: w for w in (MarchFine, AuditExternal, VerifyDesk)}


def desk_us_per_step(seed: int, repeats: int = 3) -> dict[str, float]:
    """Median µs per step of ``solve`` and ``hj_direct_solve`` on the 800-cell desk config.

    Random data of the battery, marched to t = 1 (250 steps); the figures
    the roadmap quotes for the full battery.
    """
    from junctionflow import verifier

    cfg = cli.parse_config_dict({**DESK_SCENARIO, "seed": seed})
    grid, model = cfg.build_grid(), cfg.model
    rng = np.random.default_rng(seed)
    marches = {
        "solve": (cl.solve, verifier.random_cell_field(grid, model, rng)),
        "hj_direct_solve": (hj.hj_direct_solve, verifier.random_node_field(grid, model, rng)),
    }
    steps, _ = cl.plan_steps(0.0, 1.0, cfg.cfl * grid.dx / model.lipschitz_bound)
    out = {}
    for name, (march, state) in marches.items():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            march(state, model, 1.0, cfl=cfg.cfl)
            times.append(time.perf_counter() - t0)
        out[name] = 1e6 * statistics.median(times) / steps
    return out


def read_external_solves(log: Path) -> tuple[int, float]:
    """(updates, seconds) the reference commands logged, then clear the log."""
    if not log.exists():
        return 0, 0.0
    rows = [line.split() for line in log.read_text().splitlines() if line.strip()]
    os.remove(log)
    return sum(int(r[0]) for r in rows), sum(float(r[1]) for r in rows)
