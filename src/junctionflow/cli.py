"""Command-line surface: JSON scenario configs, subcommand dispatch, file outputs.

Subcommands: riemann, solve-cl, solve-hj, exact-hj, identify-limiter,
verify.  Every run writes its data files plus a manifest JSON naming
them, echoing the config and the seed; floats are emitted with full
round-trip precision so downstream margins at the 1e-12 scale survive
the file system.  The output directory is the --out flag if given, else
the JUNCTIONFLOW_OUT environment variable, else the current directory.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
failure, 4 verification ran and reported failing checks.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cl_solver as cl
from . import formats
from . import hj_solver as hj
from .errors import ConfigError, DomainError, GridMismatchError, LevelError, StepError
from .flux_models import CanonicalDatum, ConcaveFlux, DatumShape, config_float, flux_from_config
from .junction import JunctionModel, germ_contains, riemann_profile, riemann_traces

OUTPUT_DIR_ENV = "JUNCTIONFLOW_OUT"

DEFAULT_CONFIG: dict = {
    "flux_left": {"kind": "quadratic", "rmax": 1.0, "hmax": 0.25},
    "flux_right": {"kind": "quadratic", "rmax": 1.0, "hmax": 0.25},
    "limiter": 0.1875,
}

_CANONICAL_NAMES = {shape.value for shape in DatumShape}


@dataclass(frozen=True)
class DatumSpec:
    """Parsed but not yet grid-sampled initial datum."""

    kind: str  # canonical | riemann | piecewise_constant | piecewise_linear
    canonical: CanonicalDatum | None = None
    riemann: tuple[float, float] | None = None
    breaks: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    points: tuple[tuple[float, float], ...] = ()


@dataclass
class ScenarioConfig:
    flux_left: ConcaveFlux
    flux_right: ConcaveFlux
    limiter: float
    domain: tuple[float, float] = (-2.0, 2.0)
    cells: int = 800
    cfl: float = 0.8
    t_end: float = 1.0
    snapshots: tuple[float, ...] = ()
    datum: DatumSpec | None = None
    seed: int = 0
    raw: dict = field(default_factory=dict)

    @property
    def model(self) -> JunctionModel:
        return JunctionModel(left=self.flux_left, right=self.flux_right, limiter=self.limiter)

    def build_grid(self) -> cl.Grid:
        return cl.Grid.from_domain(self.domain[0], self.domain[1], self.cells)


# -- config parsing ----------------------------------------------------------

# The config document's fields are the scenario's own, less the echo of the document.
_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)} - {"raw"}


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _config_floats(seq, path: str) -> tuple[float, ...]:
    if not isinstance(seq, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {seq!r}")
    return tuple(config_float(x, path) for x in seq)


def _parse_datum(block, a_max: float, path: str = "datum") -> DatumSpec:
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object, got {type(block).__name__}")
    if "name" in block:
        name = block["name"]
        if name == "riemann":
            left = config_float(block.get("left"), f"{path}.left")
            right = config_float(block.get("right"), f"{path}.right")
            return DatumSpec("riemann", riemann=(left, right))
        if name in _CANONICAL_NAMES:
            level = block.get("level")
            if level == "amax":
                level = a_max
            level = config_float(level, f"{path}.level")
            try:
                return DatumSpec("canonical", canonical=CanonicalDatum(shape=name, level=level))
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from exc
        raise ConfigError(
            f"{path}.name: unknown datum {name!r}; expected riemann or one of {sorted(_CANONICAL_NAMES)}"
        )
    if "piecewise_constant" in block:
        table = block["piecewise_constant"]
        if not isinstance(table, dict):
            raise ConfigError(f"{path}.piecewise_constant: expected an object")
        breaks = _config_floats(table.get("breaks", ()), f"{path}.piecewise_constant.breaks")
        values = _config_floats(table.get("values", ()), f"{path}.piecewise_constant.values")
        if len(values) != len(breaks) + 1:
            raise ConfigError(
                f"{path}.piecewise_constant: need len(values) == len(breaks) + 1,"
                f" got {len(values)} values for {len(breaks)} breaks"
            )
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise ConfigError(f"{path}.piecewise_constant.breaks: must be strictly increasing")
        return DatumSpec("piecewise_constant", breaks=breaks, values=values)
    if "piecewise_linear" in block:
        table = block["piecewise_linear"]
        if not isinstance(table, dict):
            raise ConfigError(f"{path}.piecewise_linear: expected an object")
        pts = table.get("points", ())
        where = f"{path}.piecewise_linear.points"
        if not (isinstance(pts, (list, tuple)) and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pts)):
            raise ConfigError(f"{where}: expected [[x, u], ...]")
        points = tuple((config_float(x, where), config_float(u, where)) for x, u in pts)
        if len(points) < 2:
            raise ConfigError(f"{where}: need at least 2 points")
        if any(a[0] >= b[0] for a, b in zip(points, points[1:])):
            raise ConfigError(f"{where}: x must be strictly increasing")
        return DatumSpec("piecewise_linear", points=points)
    raise ConfigError(
        f"{path}: expected a named datum, a piecewise_constant table, or a piecewise_linear table"
    )


def parse_config_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config: expected a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"config: unknown fields {unknown}; allowed: {sorted(_CONFIG_KEYS)}")
    for key in ("flux_left", "flux_right", "limiter"):
        if key not in data:
            raise ConfigError(f"{key}: field required")

    flux_left = flux_from_config(data["flux_left"], "flux_left")
    flux_right = flux_from_config(data["flux_right"], "flux_right")
    a_max = min(flux_left.capacity, flux_right.capacity)

    limiter = a_max if data["limiter"] == "amax" else config_float(data["limiter"], "limiter")
    try:
        limiter = JunctionModel(left=flux_left, right=flux_right, limiter=limiter).limiter
    except LevelError as exc:
        raise ConfigError(f"limiter: {exc}") from exc

    domain = data.get("domain", (-2.0, 2.0))
    if not (isinstance(domain, (list, tuple)) and len(domain) == 2):
        raise ConfigError(f"domain: expected [x_min, x_max], got {domain!r}")
    x_min = config_float(domain[0], "domain[0]")
    x_max = config_float(domain[1], "domain[1]")

    cells = _as_int(data.get("cells", 800), "cells")
    if cells < 8:
        raise ConfigError(f"cells: need at least 8, got {cells}")
    try:
        cl.Grid.from_domain(x_min, x_max, cells)
    except GridMismatchError as exc:
        raise ConfigError(f"domain: [{x_min}, {x_max}] over {cells} cells: {exc}") from exc

    cfl = config_float(data.get("cfl", 0.8), "cfl")
    t_end = config_float(data.get("t_end", 1.0), "t_end")
    snaps_raw = data.get("snapshots", ())
    if not isinstance(snaps_raw, (list, tuple)):
        raise ConfigError(f"snapshots: expected a list of times, got {snaps_raw!r}")
    snapshots = tuple(config_float(t, f"snapshots[{i}]") for i, t in enumerate(snaps_raw))
    try:
        cl.check_march(cfl, t_end, snapshots or None)
    except StepError as exc:
        raise ConfigError(str(exc)) from exc

    datum = _parse_datum(data["datum"], a_max) if "datum" in data else None

    seed = _as_int(data.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be nonnegative, got {seed}")

    return ScenarioConfig(
        flux_left=flux_left,
        flux_right=flux_right,
        limiter=limiter,
        domain=(x_min, x_max),
        cells=cells,
        cfl=cfl,
        t_end=t_end,
        snapshots=snapshots,
        datum=datum,
        seed=seed,
        raw=data,
    )


def parse_config(path: str | Path) -> ScenarioConfig:
    """Load and validate a JSON scenario config, filling defaults."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config: no such file {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    return parse_config_dict(data)


# -- datum realization -------------------------------------------------------


def realize_cell_datum(cfg: ScenarioConfig, grid: cl.Grid) -> cl.CellField:
    datum = cfg.datum
    if datum is None:
        raise ConfigError("datum: field required for a density solve")
    if datum.kind == "riemann":
        return cl.riemann_field(grid, *datum.riemann)
    if datum.kind == "canonical":
        return cl.canonical_field(grid, cfg.model, datum.canonical)
    if datum.kind == "piecewise_constant":
        centers = grid.cell_centers()
        idx = np.searchsorted(np.asarray(datum.breaks), centers, side="right")
        return cl.CellField(grid=grid, values=np.asarray(datum.values, dtype=float)[idx])
    raise ConfigError(f"datum: {datum.kind} datum cannot initialize a density solve")


def realize_node_datum(cfg: ScenarioConfig, grid: cl.Grid) -> hj.NodeField:
    datum = cfg.datum
    if datum is None:
        raise ConfigError("datum: field required for a potential solve")
    if datum.kind == "canonical":
        return hj.canonical_node_field(grid, cfg.model, datum.canonical)
    if datum.kind == "piecewise_linear":
        px = np.array([p[0] for p in datum.points])
        pu = np.array([p[1] for p in datum.points])
        u = hj.NodeField(grid=grid, values=np.interp(grid.node_coords(), px, pu))
        try:
            hj.validate_lip(u, cfg.model)
        except DomainError as exc:
            raise ConfigError(f"datum.piecewise_linear: {exc}") from exc
        return u
    raise ConfigError(f"datum: {datum.kind} datum cannot initialize a potential solve")


# -- output helpers ----------------------------------------------------------


def _grid_block(cfg: ScenarioConfig, grid: cl.Grid) -> dict:
    requested = [cfg.domain[0], cfg.domain[1]]
    effective = [grid.x_min, grid.x_max]
    return {
        "dx": grid.dx,
        "n_left": grid.n_left,
        "n_right": grid.n_right,
        "requested_domain": requested,
        "effective_domain": effective,
        "domain_adjusted": not (
            abs(requested[0] - effective[0]) <= 1e-12 and abs(requested[1] - effective[1]) <= 1e-12
        ),
    }


def _write_manifest(out_dir: Path, cfg: ScenarioConfig, subcommand: str, **fields) -> None:
    formats.write_manifest(
        out_dir / "manifest.json", {"subcommand": subcommand, "seed": cfg.seed, "config": cfg.raw, **fields}
    )


# -- subcommands -------------------------------------------------------------


def _cmd_riemann(cfg: ScenarioConfig, out_dir: Path, opts: dict) -> int:
    model = cfg.model
    if opts.get("left") is not None or opts.get("right") is not None:
        if opts.get("left") is None or opts.get("right") is None:
            raise ConfigError("riemann: --left and --right must be given together")
        pair = (float(opts["left"]), float(opts["right"]))
    elif cfg.datum is not None and cfg.datum.kind == "riemann":
        pair = cfg.datum.riemann
    else:
        raise ConfigError("datum: riemann subcommand needs a riemann datum or --left/--right")

    tr = riemann_traces(model, *pair)
    header = {
        "left": pair[0],
        "right": pair[1],
        "q_minus": tr.q_minus,
        "q_plus": tr.q_plus,
        "flux_value": tr.flux_value,
        "in_germ": bool(germ_contains(model, tr)),
        "limiter": model.limiter,
        "a_max": model.a_max,
    }
    grid = cfg.build_grid()
    xi = grid.node_coords()
    profile = riemann_profile(model, pair[0], pair[1], xi)

    formats.write_manifest(out_dir / "riemann.json", header)
    formats.write_xy_csv(out_dir / "riemann_profile.csv", ("xi", "rho"), xi, profile)
    _write_manifest(
        out_dir,
        cfg,
        "riemann",
        grid=_grid_block(cfg, grid),
        files={"header": "riemann.json", "profile": "riemann_profile.csv"},
        header=header,
    )
    print(json.dumps(header, sort_keys=True))
    return 0


def _cmd_solve(cfg: ScenarioConfig, out_dir: Path, scheme: str) -> int:
    # Built per call, not at import, so that a caller who swaps cl.solve or
    # hj.hj_direct_solve on its module (a tracer, a test double) is seen.
    realize, march, write, noun, per_state = {
        "cl": (realize_cell_datum, cl.solve, formats.write_cell_csv, "density",
               {"mass": cl.mass, "traces": lambda s: list(cl.trace_estimate(s))}),
        "hj": (realize_node_datum, hj.hj_direct_solve, formats.write_node_csv, "potential",
               {"value_at_zero": hj.NodeField.value_at_zero}),
    }[scheme]
    grid, times = cfg.build_grid(), cfg.snapshots or None
    states = march(realize(cfg, grid), cfg.model, cfg.t_end, cfl=cfg.cfl, snapshot_times=times)

    files = {}
    for k, state in enumerate(states):
        name = f"{scheme}_snapshot_{k:03d}.csv"
        write(out_dir / name, state)
        files[name] = {"time": state.time}
    _write_manifest(
        out_dir,
        cfg,
        f"solve-{scheme}",
        grid=_grid_block(cfg, grid),
        files=files,
        snapshots=[s.time for s in states],
        steps=[leg._asdict() for leg in cl.plan_march(cfg.model, grid.dx, cfg.t_end, cfg.cfl, times)],
        **{key: [value(s) for s in states] for key, value in per_state.items()},
    )
    print(f"wrote {len(states)} {noun} snapshot(s) to {out_dir}")
    return 0


def _cmd_exact_hj(cfg: ScenarioConfig, out_dir: Path, opts: dict) -> int:
    model = cfg.model
    which = opts["datum"]
    t = float(opts["time"])
    level = float(opts["limiter"]) if opts.get("limiter") is not None else model.limiter

    grid = cfg.build_grid()
    xs = grid.node_coords()
    if which == "phi0_hat":
        values = hj.exact_roof0_capped(model, level, t, xs)
    elif which == "phiA_hat":
        if level > model.limiter + 1e-12:
            raise LevelError(
                f"datum level {level} exceeds the configured junction cap {model.limiter};"
                " the uniform-drain formula only applies below the cap"
            )
        values = hj.exact_roof_drain(model, level, t, xs)
    else:  # phiA_check
        values = hj.exact_valley_capped(model, level, t, xs)

    name = "exact_hj.csv"
    formats.write_xy_csv(out_dir / name, ("x", "u"), xs, values)
    _write_manifest(
        out_dir,
        cfg,
        "exact-hj",
        grid=_grid_block(cfg, grid),
        files={name: {"time": t}},
        datum=which,
        level=level,
        time=t,
        value_at_zero=float(values[grid.n_left]),
    )
    print(f"u({t!r}, 0) = {float(values[grid.n_left])!r}")
    return 0


def _cmd_identify(cfg: ScenarioConfig, out_dir: Path, opts: dict) -> int:
    from . import verifier

    method = opts["method"]
    handle = verifier.SemigroupHandle(scheme=method, model=cfg.model, grid=cfg.build_grid(), cfl=cfg.cfl)
    identify = verifier.identify_limiter_hj if method == "hj" else verifier.identify_limiter_cl
    estimate = identify(handle)
    _write_manifest(out_dir, cfg, "identify-limiter", method=method, estimate=estimate, files={})
    print(repr(float(estimate)))
    return 0


# verify's counts: (flag, run_battery parameter, least value that keeps its check from being vacuous, help).
# A germ scan of 2 states per side already holds both 0 and rmax.
_VERIFY_COUNTS = (
    ("--l1-trials", "l1_trials", 1, "random pairs for the contraction check"),
    ("--linf-trials", "linf_trials", 1, "random pairs for the sup-norm check"),
    ("--scan-grid", "scan_grid_n", 2, "states per side in the germ scan"),
)


def _cmd_verify(cfg: ScenarioConfig, out_dir: Path, opts: dict) -> int:
    from . import verifier

    counts = {}
    for flag, param, least, _ in _VERIFY_COUNTS:
        if param in opts:
            if opts[param] < least:
                raise ConfigError(f"{flag}: must be at least {least}, got {opts[param]}")
            counts[param] = opts[param]
    timeout = opts.get("external_timeout", verifier.EXTERNAL_TIMEOUT_S)
    grid = cfg.build_grid()
    try:
        cl_handle, hj_handle = (
            verifier.SemigroupHandle(
                scheme, cfg.model, grid, cfg.cfl, tuple(opts.get(f"external_{scheme}") or ()), timeout
            )
            for scheme in ("cl", "hj")
        )
    except ValueError as exc:  # the scheme is fixed here: the handle refused the timeout
        raise ConfigError(f"--external-timeout: {exc}") from exc
    report = verifier.run_battery(cl_handle, hj_handle, seed=cfg.seed, **counts)
    formats.write_manifest(out_dir / "verify_report.json", report.to_dict())
    _write_manifest(out_dir, cfg, "verify", files={"report": "verify_report.json"}, all_passed=report.all_passed)
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_passed else 4


def run(subcommand: str, cfg: ScenarioConfig, output_dir: Path, options: dict | None = None) -> int:
    """Dispatch a parsed config to one subcommand, writing files into output_dir."""
    opts = options or {}
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {output_dir} cannot be created: {exc.strerror}") from exc
    if subcommand == "riemann":
        return _cmd_riemann(cfg, output_dir, opts)
    if subcommand in ("solve-cl", "solve-hj"):
        return _cmd_solve(cfg, output_dir, subcommand.removeprefix("solve-"))
    if subcommand == "exact-hj":
        return _cmd_exact_hj(cfg, output_dir, opts)
    if subcommand == "identify-limiter":
        return _cmd_identify(cfg, output_dir, opts)
    if subcommand == "verify":
        return _cmd_verify(cfg, output_dir, opts)
    raise ConfigError(f"unknown subcommand {subcommand!r}")


# -- argument parsing --------------------------------------------------------


class _VerifyHelpFormatter(argparse.HelpFormatter):
    """Fills the verifier's defaults into verify's help as it is printed, so that parsing does not load the verifier."""

    def _get_help_string(self, action):
        from . import verifier

        defaults = {name: p.default for name, p in inspect.signature(verifier.run_battery).parameters.items()}
        return action.help.format(EXTERNAL_TIMEOUT_S=verifier.EXTERNAL_TIMEOUT_S, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="junctionflow",
        description="Solve and verify scalar conservation laws and Hamilton-Jacobi"
        " equations on a flux-limited 1:1 junction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool = True):
        p.add_argument("--config", required=config_required, help="path to a JSON scenario config")
        p.add_argument("--out", default=None, help=f"output directory (default: ${OUTPUT_DIR_ENV} or cwd)")

    p = sub.add_parser("riemann", help="solve one junction Riemann problem exactly")
    add_common(p)
    p.add_argument("--left", type=float, default=None, help="left density (overrides config datum)")
    p.add_argument("--right", type=float, default=None, help="right density (overrides config datum)")

    for scheme, what in (("cl", "density datum with the finite-volume"), ("hj", "potential datum with the node")):
        add_common(sub.add_parser(f"solve-{scheme}", help=f"evolve a {what} scheme"))

    p = sub.add_parser("exact-hj", help="sample a closed-form junction solution")
    add_common(p)
    p.add_argument(
        "--datum",
        required=True,
        choices=("phi0_hat", "phiA_hat", "phiA_check"),
        help="phi0_hat: level-0 roof under the cap; phiA_hat: roof at its own level;"
        " phiA_check: valley under the configured cap",
    )
    p.add_argument("--limiter", type=float, default=None, help="level A (default: configured limiter)")
    p.add_argument("--time", type=float, default=1.0, help="evaluation time (default 1.0)")

    p = sub.add_parser("identify-limiter", help="recover the junction cap from a probe run")
    add_common(p)
    p.add_argument("--method", required=True, choices=("hj", "cl"), help="probe semi-group")

    p = sub.add_parser("verify", help="run the semi-group property battery", formatter_class=_VerifyHelpFormatter)
    add_common(p, config_required=False)
    for scheme, what, protocol in (
        ("cl", "density", "invoked as CMD state.csv t out.csv, t the time to march the state"),
        ("hj", "potential", "same protocol, node CSV"),
    ):
        p.add_argument(
            f"--external-{scheme}", nargs="+", default=None, metavar="CMD",
            help=f"external {what} semi-group command ({protocol})",
        )
    p.add_argument(
        "--external-timeout", type=float, default=argparse.SUPPRESS, metavar="SECONDS",
        help="seconds one external call may run before it is a numerical failure"
        " (default {EXTERNAL_TIMEOUT_S:g})",
    )
    # A count the user does not give stays out of the options: run_battery's signature holds the defaults.
    for flag, param, least, what in _VERIFY_COUNTS:
        p.add_argument(
            flag, dest=param, type=int, default=argparse.SUPPRESS, metavar="N",
            help=f"{what}, at least {least} (default {{{param}}})",
        )
    return parser


def resolve_output_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path.cwd()


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = parse_config(args.config)
        else:
            cfg = parse_config_dict(DEFAULT_CONFIG)
        out_dir = resolve_output_dir(args.out)
        opts = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}
        return run(args.command, cfg, out_dir, opts)
    except (ConfigError, DomainError, LevelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StepError, GridMismatchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a config too large for this machine: numpy could not allocate its arrays
        print(f"error: not enough memory for this config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
