"""Wrappers around junctionflow's public functions, installed from outside the package.

A ``Tracer`` resolves its targets by name when it is installed, so a
target that a refactor renamed or deleted is simply absent from the
metrics.  Every module namespace that bound the original function is
patched (``cl_solver.junction_flux`` and ``verifier.junction_flux`` are
the same object), and methods are patched on each class of the
hierarchy that defines them.

Each call records a span: metric key, start, end and parent span.
Self time is the span's duration minus the durations of its direct
children.  Spans of the flux-model methods are aggregated instead of
stored: there are millions of them on the battery, and their time still
counts as child time of the enclosing span.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "junctionflow"


def _clamp_elements(extra, fn, args, kwargs, result, duration):
    extra["elements"] = extra.get("elements", 0) + int(np.size(args[1]))


def _planned_updates(fn, args, kwargs, nodes: bool) -> tuple[int, int]:
    """(points, steps) a solve call is planned to march, from plan_steps on its arguments."""
    plan_steps = getattr(sys.modules[f"{PACKAGE}.cl_solver"], "plan_steps")
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    state, model, t_end = list(bound.arguments.values())[:3]
    snapshot_times = bound.arguments.get("snapshot_times")
    targets = [float(t_end)] if snapshot_times is None else [float(t) for t in snapshot_times]
    dt_max = bound.arguments["cfl"] * state.grid.dx / model.lipschitz_bound
    steps, t_now = 0, state.time
    for target in targets:
        n, _ = plan_steps(t_now, target, dt_max)
        steps += n
        t_now = target
    points = state.grid.n_cells + (1 if nodes else 0)
    return points, steps


def _solve_hook(nodes: bool):
    def hook(extra, fn, args, kwargs, result, duration):
        points, steps = _planned_updates(fn, args, kwargs, nodes)
        extra["updates"] = extra.get("updates", 0) + points * steps
        extra["steps"] = extra.get("steps", 0) + steps
        extra["last_result"] = result

    return hook


def _evolve_hook(extra, fn, args, kwargs, result, duration):
    times = args[2] if len(args) > 2 else kwargs["snapshot_times"]
    extra["snapshots"] = extra.get("snapshots", 0) + len(times)


def _write_hook(extra, fn, args, kwargs, result, duration):
    values = getattr(args[1], "values", None)  # a manifest payload is a dict: no rows
    extra["rows"] = extra.get("rows", 0) + (values.size if isinstance(values, np.ndarray) else 0)
    extra["bytes"] = extra.get("bytes", 0) + os.path.getsize(args[0])


def _read_hook(extra, fn, args, kwargs, result, duration):
    extra["rows"] = extra.get("rows", 0) + (int(np.size(result.values)) if result is not None else 0)


def _external_hook(extra, fn, args, kwargs, result, duration):
    if result is None or result.returncode != 0:
        extra["failed"] = extra.get("failed", 0) + 1


@dataclass(frozen=True)
class Target:
    """One wrap target: ``module`` and ``name`` (``Class.method`` for methods) -> metric ``key``.

    ``hook(extra, fn, args, kwargs, result, duration)`` adds call counters to ``extra``.
    """

    module: str
    name: str
    key: str
    hook: object = None
    store: bool = True


_CHECKS = (
    "check_riemann_admissibility",
    "check_germ_dissipativity",
    "check_l1_contraction",
    "check_comparison",
    "check_mass",
    "check_finite_speed",
    "check_locality",
    "check_scale_invariance_cl",
    "check_linf_contraction",
    "check_constants",
    "check_duality",
    "check_supersolution_floor",
    "check_oracle_scale_invariance",
    "check_hj_exact_agreement",
    "identify_limiter_cl",
    "identify_limiter_hj",
    "empirical_germ_scan",
)

CHECK_METRICS = tuple(f"verifier.check.{fn.removeprefix('check_')}" for fn in _CHECKS)

SOLVE_TARGETS = (
    Target("cl_solver", "solve", "cl_solver.solve", _solve_hook(nodes=False)),
    Target("hj_solver", "hj_direct_solve", "hj_solver.hj_direct_solve", _solve_hook(nodes=True)),
)

# Targets without a metric of their own (derivative, germ_dissipative, validate_lip,
# run_battery, ...) are wrapped so that their time counts in their own layer's self time
# instead of their caller's.
LAYER_TARGETS = SOLVE_TARGETS + (
    Target("flux_models", "ConcaveFlux.clamp", "flux_models.clamp", _clamp_elements, store=False),
    Target("flux_models", "ConcaveFlux.eval", "flux_models.eval", store=False),
    Target("flux_models", "ConcaveFlux.demand", "flux_models.demand", store=False),
    Target("flux_models", "ConcaveFlux.supply", "flux_models.supply", store=False),
    Target("flux_models", "ConcaveFlux.derivative", "flux_models.derivative", store=False),
    Target("flux_models", "ConcaveFlux.roots", "flux_models.roots", store=False),
    Target("flux_models", "ConcaveFlux.truncated_conjugate_argmax", "flux_models.conjugate", store=False),
    Target("flux_models", "canonical_eval", "flux_models.canonical_eval", store=False),
    Target("junction", "junction_flux", "junction.junction_flux"),
    Target("junction", "riemann_traces", "junction.riemann_traces"),
    Target("junction", "germ_contains", "junction.germ_contains"),
    Target("junction", "germ_dissipative", "junction.germ_dissipative"),
    Target("junction", "riemann_profile", "junction.riemann_profile"),
    Target("cl_solver", "step", "cl_solver.step"),
    Target("cl_solver", "_interface_fluxes", "cl_solver.interface_fluxes"),
    Target("hj_solver", "_node_hamiltonians", "hj_solver.node_hamiltonians"),
    Target("hj_solver", "hj_from_cl", "hj_solver.hj_from_cl"),
    Target("hj_solver", "exact_roof0_uncapped", "hj_solver.oracle"),
    Target("hj_solver", "exact_roof0_capped", "hj_solver.oracle"),
    Target("hj_solver", "exact_roof_drain", "hj_solver.oracle"),
    Target("hj_solver", "exact_valley_capped", "hj_solver.oracle"),
    Target("hj_solver", "canonical_node_field", "hj_solver.canonical_node_field"),
    Target("hj_solver", "validate_lip", "hj_solver.validate_lip"),
    *(Target("verifier", fn, key) for fn, key in zip(_CHECKS, CHECK_METRICS)),
    Target("verifier", "run_battery", "verifier.run_battery"),
    Target("verifier", "random_cell_field", "verifier.random_data"),
    Target("verifier", "random_node_field", "verifier.random_data"),
    Target("verifier", "SemigroupHandle.evolve_cl", "verifier.evolve", _evolve_hook),
    Target("verifier", "SemigroupHandle.evolve_hj", "verifier.evolve", _evolve_hook),
    Target("verifier", "subprocess.run", "verifier.external", _external_hook),
    Target("formats", "write_cell_csv", "formats.write", _write_hook),
    Target("formats", "write_node_csv", "formats.write", _write_hook),
    Target("formats", "write_manifest", "formats.write", _write_hook),
    Target("formats", "read_cell_csv", "formats.read", _read_hook),
    Target("formats", "read_node_csv", "formats.read", _read_hook),
    Target("cli", "main", "cli.main"),
    Target("cli", "run", "cli.run"),
    Target("cli", "parse_config", "cli.parse_config"),
    Target("cli", "realize_cell_datum", "cli.realize_datum"),
    Target("cli", "realize_node_datum", "cli.realize_datum"),
)

LAYERS = ("flux_models", "junction", "cl_solver", "hj_solver", "verifier", "formats", "cli")


@dataclass
class KeyStats:
    calls: int = 0
    inclusive_s: float = 0.0  # outermost calls only, so recursion is not double counted
    self_s: float = 0.0
    depth: int = 0
    extra: dict = field(default_factory=dict)


class _ModuleProxy:
    """Stands in for a module that a junctionflow module imported whole (``subprocess``)."""

    def __init__(self, module, name, wrapper):
        self._module = module
        setattr(self, name, wrapper)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    """Installs wrappers for ``targets``; ``spans`` turns on span storage for stored targets."""

    def __init__(self, targets, spans: bool = True):
        self.targets = targets
        self.spans = spans
        self.stats: dict[str, KeyStats] = {}
        self.present: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.keys: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for target in self.targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ImportError:
                continue
            if self._install_one(module, target):
                self.present.add(target.key)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _install_one(self, module, target: Target) -> bool:
        head, _, tail = target.name.partition(".")
        if not tail:
            original = getattr(module, head, None)
            if not inspect.isfunction(original):
                return False
            wrapper = self._wrap(original, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            return True
        owner = getattr(module, head, None)
        if inspect.ismodule(owner):
            original = getattr(owner, tail, None)
            if not callable(original):
                return False
            self._patch(module, head, _ModuleProxy(owner, tail, self._wrap(original, target)))
            return True
        if not isinstance(owner, type):
            return False
        installed = False
        for cls in _class_tree(owner):
            original = cls.__dict__.get(tail)
            if inspect.isfunction(original):
                self._patch(cls, tail, self._wrap(original, target))
                installed = True
        return installed

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, target: Target):
        stats = self.stats.setdefault(target.key, KeyStats())
        if target.key not in self.keys:
            self.keys.append(target.key)
        key_id = self.keys.index(target.key)
        store = self.spans and target.store
        hook = target.hook
        stack = self._stack
        span_key, span_parent = self.span_key, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if store:
                sid = len(span_key)
                span_key.append(key_id)
                span_parent.append(parent[0] if parent else -1)
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                sid = parent[0] if parent else -1
            frame = [sid, 0.0]
            stack.append(frame)
            stats.depth += 1
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                duration = t1 - t0
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if stats.depth == 0:
                    stats.inclusive_s += duration
                if parent is not None:
                    parent[1] += duration
                if store:
                    span_start[sid] = t0
                    span_end[sid] = t1
                if hook is not None:
                    hook(stats.extra, fn, args, kwargs, result, duration)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------

    def get(self, key: str) -> KeyStats | None:
        return self.stats.get(key) if key in self.present else None

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items() if k.split(".")[0] == layer)

    def write_spans(self, path) -> int:
        np.savez_compressed(
            path,
            keys=np.array(self.keys),
            key=np.frombuffer(self.span_key, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_key)


def _class_tree(cls: type):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen
