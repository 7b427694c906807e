"""junctionflow benchmark: one workload per run, end to end or traced per module.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in workloads.py.  With --trace 0 the measured phase
repeats whole units (at least one) until S seconds have passed, timing
the workload's calibration loop before and after each unit, and the
end-to-end metrics are printed: medians over the units, each unit's
times rescaled by its calibration (calibration.py).  With --trace 1 one
untraced unit and one traced unit run back to back and the per-module
metrics of the traced unit are printed, with the tracing overhead.  Every unit's outputs go
through the workload's correctness gates; a failure exits with code 1.
The last line of stdout is the result as one JSON object; details,
machine facts and the stored spans go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

# Baseline figures quoted by the roadmap, for the cross-check verify-desk prints with --trace 0.
ROADMAP_US_PER_STEP = {"solve": 563.0, "hj_direct_solve": 345.0}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def machine_facts(seed: int, nproc: int) -> dict:
    import numpy as np

    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = read(str(ROOT / ".git" / ref[5:])) if ref.startswith("ref: ") else ref
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "l2_cache": read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
        "note": "march-fine's 0.4 MB arrays are cache-resident; an array of 4x the last-level cache"
        " (1.2 GB) does not fit this benchmark's memory budget, so bytes moved are computed"
        " from array sizes and no bandwidth figure is claimed",
    }


def measure_setup(configs: list[Path]) -> tuple[float, float]:
    """Set-up time of fresh processes that import, parse and build, after one warm-up run.

    Each is rescaled by the python calibration loops timed right before and
    after it.  Returns the median rescaled and the median unrescaled time.
    """
    from calibration import LOOPS

    loop, loop_ref_s = LOOPS["python"]
    argv = [sys.executable, str(HERE / "setup_probe.py"), *map(str, configs)]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:1])  # the probes run where the loop is timed
    try:
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(argv, cwd=ROOT, check=True)
        loops = [loop()]
        raw, rescaled = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=ROOT, check=True)
            raw.append(time.perf_counter() - t0)
            loops.append(loop())
            rescaled.append(raw[-1] * 2 * loop_ref_s / (loops[-2] + loops[-1]))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(rescaled), statistics.median(raw)


def run_unit(workload, out: Path, tracer, solve_log: Path) -> dict:
    """One measured unit under ``tracer``, then its gates with every wrapper removed."""
    from junctionflow import cli
    from tracing import KeyStats
    from workloads import read_external_solves

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    sink = io.StringIO()
    tracer.install()
    try:
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            codes = [cli.main(argv) for argv in workload.commands(out)]
            wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    cl_stats = tracer.stats.get("cl_solver.solve", KeyStats())
    hj_stats = tracer.stats.get("hj_solver.hj_direct_solve", KeyStats())
    solves = {"cl_solver.solve": cl_stats.extra.get("last_result"), "hj_solver.hj_direct_solve": hj_stats.extra.get("last_result")}
    gate = workload.check(out, codes, solves)
    shutil.rmtree(out, ignore_errors=True)
    ext_updates, ext_s = read_external_solves(solve_log)
    return {
        "wall_s": wall,
        "gate": gate,
        "updates": cl_stats.extra.get("updates", 0) + hj_stats.extra.get("updates", 0) + ext_updates,
        "solve_s": cl_stats.inclusive_s + hj_stats.inclusive_s + ext_s,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# (metric, tracer key, field, unit); field is a KeyStats attribute or a hook counter.
LAYER_FIELDS = [
    ("flux_models.clamp.calls", "flux_models.clamp", "calls", "count"),
    ("flux_models.clamp.elements", "flux_models.clamp", "elements", "count"),
    ("flux_models.clamp.self_s", "flux_models.clamp", "self_s", "s"),
    ("flux_models.eval.calls", "flux_models.eval", "calls", "count"),
    ("flux_models.demand.calls", "flux_models.demand", "calls", "count"),
    ("flux_models.supply.calls", "flux_models.supply", "calls", "count"),
    ("junction.junction_flux.calls", "junction.junction_flux", "calls", "count"),
    ("junction.riemann_traces.calls", "junction.riemann_traces", "calls", "count"),
    ("junction.germ_contains.calls", "junction.germ_contains", "calls", "count"),
    ("cl_solver.solve.calls", "cl_solver.solve", "calls", "count"),
    ("cl_solver.solve.s", "cl_solver.solve", "inclusive_s", "s"),
    ("cl_solver.step.calls", "cl_solver.step", "calls", "count"),
    ("cl_solver.cell_updates", "cl_solver.solve", "updates", "count"),
    ("hj_solver.hj_direct_solve.calls", "hj_solver.hj_direct_solve", "calls", "count"),
    ("hj_solver.hj_direct_solve.s", "hj_solver.hj_direct_solve", "inclusive_s", "s"),
    ("hj_solver.node_updates", "hj_solver.hj_direct_solve", "updates", "count"),
    ("hj_solver.oracle.calls", "hj_solver.oracle", "calls", "count"),
    ("hj_solver.oracle.s", "hj_solver.oracle", "inclusive_s", "s"),
    ("hj_solver.hj_from_cl.s", "hj_solver.hj_from_cl", "inclusive_s", "s"),
    ("verifier.evolve.calls", "verifier.evolve", "calls", "count"),
    ("verifier.evolve.snapshots", "verifier.evolve", "snapshots", "count"),
    ("verifier.evolve.s", "verifier.evolve", "inclusive_s", "s"),
    ("verifier.external.calls", "verifier.external", "calls", "count"),
    ("verifier.external.wait_s", "verifier.external", "inclusive_s", "s"),
    ("verifier.external.failed", "verifier.external", "failed", "count"),
    ("formats.write.calls", "formats.write", "calls", "count"),
    ("formats.write.rows", "formats.write", "rows", "count"),
    ("formats.write.bytes", "formats.write", "bytes", "B"),
    ("formats.write.s", "formats.write", "inclusive_s", "s"),
    ("formats.read.calls", "formats.read", "calls", "count"),
    ("formats.read.rows", "formats.read", "rows", "count"),
    ("formats.read.s", "formats.read", "inclusive_s", "s"),
    ("cli.run.s", "cli.run", "inclusive_s", "s"),
]


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    from tracing import CHECK_METRICS, LAYERS

    fields = LAYER_FIELDS + [(f"{key}.s", key, "inclusive_s", "s") for key in CHECK_METRICS]
    m = {}
    for name, key, attr, unit in fields:
        stats = tracer.get(key)
        if stats is not None:
            m[name] = metric(getattr(stats, attr) if hasattr(stats, attr) else stats.extra.get(attr, 0), unit)

    def ratio(name, num, den, scale, unit):
        if num in m and den in m:
            d = m[den]["value"]
            m[name] = metric(scale * m[num]["value"] / d if d else 0.0, unit)

    ratio("flux_models.elements_per_call", "flux_models.clamp.elements", "flux_models.clamp.calls", 1, "count/call")
    ratio("cl_solver.ns_per_cell_update", "cl_solver.solve.s", "cl_solver.cell_updates", 1e9, "ns")
    ratio("hj_solver.ns_per_node_update", "hj_solver.hj_direct_solve.s", "hj_solver.node_updates", 1e9, "ns")
    # Floor on memory traffic: every update reads and writes one float64 of state.
    for layer, updates in (("cl_solver", "cl_solver.cell_updates"), ("hj_solver", "hj_solver.node_updates")):
        if updates in m:
            m[f"{layer}.state_bytes_computed"] = metric(16 * m[updates]["value"], "B")
    main, run = tracer.get("cli.main"), tracer.get("cli.run")
    if main is not None and run is not None:
        m["cli.parse.s"] = metric(main.inclusive_s - run.inclusive_s, "s")

    attributed = 0.0
    for layer in LAYERS:
        self_s = tracer.layer_self_s(layer)
        attributed += self_s
        m[f"{layer}.self_s"] = metric(self_s, "s")
    m["trace.wall_s"] = metric(traced_wall, "s")
    m["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    m["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    m["trace.unattributed_s"] = metric(traced_wall - attributed, "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    cpus = sorted(os.sched_getaffinity(0))
    if not (SRC / "junctionflow" / "__init__.py").is_file():
        print(f"error: no junctionflow sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    from calibration import LOOPS
    from tracing import LAYER_TARGETS, SOLVE_TARGETS, Tracer
    from workloads import WORKLOADS, desk_us_per_step

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)  # the external protocol's scratch files
    solve_log = run_dir / "external_solves.log"
    os.environ["PERFBENCH_SOLVE_LOG"] = str(solve_log)

    workload = WORKLOADS[args.workload](args.seed, run_dir)
    if workload.pin_cpu:
        # One CPU for the whole run, so that the calibration loops time the CPU the
        # workload runs on: on a shared host the CPUs' speeds differ and change.
        os.sched_setaffinity(0, cpus[:1])
    setup_s, setup_unrescaled_s = measure_setup(workload.setup_configs())

    def unit(tracer):
        return run_unit(workload, run_dir / "out", tracer, solve_log)

    units = []
    if args.trace == 0:
        # The machine's speed switches within seconds, so each unit is rescaled by
        # the calibration loops timed right before and right after it.
        loop, loop_ref_s = LOOPS[workload.calibration]
        loop()  # warm-up
        start = time.perf_counter()
        while not units or time.perf_counter() - start < args.seconds:
            before = loop()
            u = unit(Tracer(SOLVE_TARGETS, spans=False))
            u["loop_s"] = [before, loop()]
            u["slowdown"] = statistics.fmean(u["loop_s"]) / loop_ref_s
            units.append(u)
        wall_s = statistics.median(u["wall_s"] for u in units)
        updates_per_s = statistics.median(u["updates"] / u["solve_s"] for u in units)
        slowdown = statistics.median(u["slowdown"] for u in units)
        calibration = {"loop": workload.calibration, "reference_s": loop_ref_s, "median_slowdown": slowdown,
                       "wall_s": wall_s, "cell_updates_per_s": updates_per_s, "setup_s": setup_unrescaled_s}
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_ref_s": metric(statistics.median(u["wall_s"] / u["slowdown"] for u in units), "s"),
            "cell_updates_per_ref_s": metric(
                statistics.median(u["updates"] / u["solve_s"] * u["slowdown"] for u in units), "1/s"
            ),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "worst_margin_ratio": metric(max(u["gate"].margin for u in units), "ratio"),
        }
        # After the measured phase, so it does not count in any metric.
        us_per_step = desk_us_per_step(args.seed) if args.workload == "verify-desk" else {}
    else:
        units.append(unit(Tracer(SOLVE_TARGETS, spans=False)))
        tracer = Tracer(LAYER_TARGETS)
        units.append(unit(tracer))
        metrics = layer_metrics(tracer, units[1]["wall_s"], units[0]["wall_s"])
        n_spans = tracer.write_spans(run_dir / "spans.npz")

    attempted = sum(u["gate"].attempted for u in units)
    failed = sum(u["gate"].failed for u in units)
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_facts(args.seed, len(cpus)),
        "units": [
            {"wall_s": u["wall_s"], "attempted": u["gate"].attempted, "failed": u["gate"].failed,
             "failures": u["gate"].failures, "worst_margin_ratio": u["gate"].margin, "ratios": u["gate"].ratios,
             "calibration_loops_s": u.get("loop_s")}
            for u in units
        ],
        "fail_fraction": failed / attempted,
        "metrics": metrics,
    }
    if args.trace == 1:
        details["spans_stored"] = n_spans
    else:
        details["calibration"] = calibration
        if us_per_step:
            details["us_per_step_800_cells"] = {"measured": us_per_step, "roadmap": ROADMAP_US_PER_STEP}
    (run_dir / "result.json").write_text(json.dumps(details, indent=2) + "\n")
    shutil.rmtree(tmp, ignore_errors=True)

    for key, value in details["machine"].items():
        print(f"# machine.{key}: {value}")
    for k, u in enumerate(details["units"]):
        print(f"# unit {k}: wall {u['wall_s']:.3f} s, {u['attempted'] - u['failed']}/{u['attempted']} gates passed")
        for name in u["failures"]:
            print(f"# FAILED {name}")
    if args.trace == 0:
        print(f"# calibration: {workload.calibration} loop, reference {loop_ref_s:g} s, median slowdown"
              f" {slowdown:.4f}; unrescaled wall_s {wall_s:.4f} s, cell_updates_per_s {updates_per_s:.6g} 1/s,"
              f" setup_s {setup_unrescaled_s:.4f} s")
        for name, v in us_per_step.items():
            print(f"# {name} at 800 cells: {v:.1f} us/step (roadmap {ROADMAP_US_PER_STEP[name]:g})")
    print(f"# fail_fraction {details['fail_fraction']:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
