"""The benchmark harness's contract with the package it measures.

``perfbench/tracing.py`` resolves its wrap targets by name and drops any
it cannot find, so a renamed function would silently take its metrics
out of a traced run.  These tests install the harness's own tracers on
the package and check that every per-layer metric ``BENCHMARK.json``
lists is produced, that every target but two long-dead ones resolves,
that no metric key is fed by only some of its targets, and that the
hooks which read call arguments still count.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from junctionflow import Grid, NodeField, SemigroupHandle, plan_march, riemann_field

ROOT = Path(__file__).resolve().parents[1]
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.fixture(scope="module")
def bench():
    """The harness's ``run`` and ``tracing`` modules, imported from perfbench/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        yield importlib.import_module("run"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_layer_metrics_cover_every_per_layer_name(bench, sym_junction):
    run, tracing = bench
    grid = Grid.from_domain(-1.0, 1.0, 16)
    h_cl = SemigroupHandle("cl", model=sym_junction, grid=grid)
    h_hj = SemigroupHandle("hj", model=sym_junction, grid=grid)
    tracer = tracing.Tracer(tracing.LAYER_TARGETS).install()
    try:
        h_cl.evolve_cl([riemann_field(grid, 0.6, 0.3)] * 3, [0.1, 0.2])
        h_hj.evolve_hj([NodeField(grid, 0.5 * grid.node_coords())], [0.2])
    finally:
        tracer.uninstall()
    metrics = run.layer_metrics(tracer, 0.0, 0.0)
    assert [name for name in PER_LAYER if name not in metrics] == []
    assert metrics["verifier.evolve.calls"]["value"] == 2
    assert metrics["verifier.evolve.snapshots"]["value"] == 3  # the hook counts times per call


def test_no_metric_key_loses_some_of_its_targets(bench):
    """A key fed by several targets (evolve_cl and evolve_hj) keeps every one of them."""
    _, tracing = bench
    whole = tracing.Tracer(tracing.LAYER_TARGETS).install()
    whole.uninstall()
    lost = []
    for target in tracing.LAYER_TARGETS:
        if target.key in whole.present:
            alone = tracing.Tracer([target]).install()
            alone.uninstall()
            if target.key not in alone.present:
                lost.append(f"{target.module}.{target.name}")
    assert lost == []


def test_solve_hooks_count_planned_updates(bench, sym_junction):
    _, tracing = bench
    from junctionflow import cl_solver, hj_solver  # the tracer patches module attributes: call through them

    grid = Grid.from_domain(-1.0, 1.0, 20)
    times = [0.25, 0.5]
    tracer = tracing.Tracer(tracing.SOLVE_TARGETS, spans=False).install()
    try:
        cl_run = cl_solver.solve(riemann_field(grid, 0.6, 0.3), sym_junction, 0.5, snapshot_times=times)
        hj_run = hj_solver.hj_direct_solve(NodeField(grid, 0.5 * grid.node_coords()), sym_junction, 0.5)
    finally:
        tracer.uninstall()
    steps_cl = sum(leg.n_steps for leg in plan_march(sym_junction, grid.dx, 0.5, 0.8, times))
    steps_hj = sum(leg.n_steps for leg in plan_march(sym_junction, grid.dx, 0.5, 0.8, None))
    cl_stats, hj_stats = tracer.get("cl_solver.solve"), tracer.get("hj_solver.hj_direct_solve")
    assert (cl_stats.calls, hj_stats.calls) == (1, 1)
    assert cl_stats.extra["updates"] == grid.n_cells * steps_cl > 0
    assert hj_stats.extra["updates"] == (grid.n_cells + 1) * steps_hj > 0
    assert cl_stats.extra["last_result"] is cl_run and hj_stats.extra["last_result"] is hj_run
    assert np.isfinite(cl_stats.inclusive_s) and np.isfinite(hj_stats.inclusive_s)


def test_every_tracer_target_resolves_but_the_two_dead_ones(bench):
    """A traced name renamed away drops its wrapper without a word, metric or not (``validate_lip``, ``step``)."""
    _, tracing = bench
    missing = set()
    for target in tracing.LAYER_TARGETS:
        alone = tracing.Tracer([target]).install()
        alone.uninstall()
        if target.key not in alone.present:
            missing.add(f"{target.module}.{target.name}")
    # no module has defined these two since the flux kernel replaced them
    assert missing == {"cl_solver._interface_fluxes", "hj_solver._node_hamiltonians"}


@pytest.mark.parametrize(
    "size, rows, lone",
    [
        pytest.param(1, None, 1, id="1"),
        pytest.param(2, None, 0, id="2"),
        pytest.param(3, None, 0, id="3"),
        pytest.param(5, 2, 1, id="5-in-chunks-of-2"),
    ],
)
def test_a_lone_state_is_marched_through_the_counted_names(monkeypatch, sym_junction, size, rows, lone):
    """The harness counts updates in ``solve`` and ``hj_direct_solve`` only, so a chunk of one goes through them.

    A handle hands each chunk of one state to the module's single name,
    once, and marches a chunk of two or more without it: five states at
    two a chunk make one such call, for the last.
    """
    from junctionflow import cl_solver, hj_solver, verifier

    calls = {"solve": 0, "hj_direct_solve": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cl_solver, "solve")
    count(hj_solver, "hj_direct_solve")
    grid = Grid.from_domain(-1.0, 1.0, 20)
    if rows:
        # room for ``rows`` potentials (21 nodes each), and so for ``rows`` densities of 20 cells
        monkeypatch.setattr(verifier, "BATCH_ENTRIES", rows * (grid.n_cells + 1))
    cells = [riemann_field(grid, 0.6, 0.3)] * size
    nodes = [NodeField(grid, 0.5 * grid.node_coords())] * size
    h_cl = SemigroupHandle("cl", model=sym_junction, grid=grid)
    h_hj = SemigroupHandle("hj", model=sym_junction, grid=grid)
    marches = [
        ("solve", lambda: h_cl.evolve_cl(cells, [0.1, 0.2])),
        ("hj_direct_solve", lambda: h_hj.evolve_hj(nodes, [0.1, 0.2])),
    ]
    for name, march in marches:
        before = dict(calls)
        assert len(march()) == size
        assert calls == {**before, name: before[name] + lone}, name
