"""The polygon flux's envelopes against the ``np.interp`` evaluation they replaced, byte for byte.

``PiecewiseLinearFlux`` writes demand from its rising segments on
clip(p, 0, p_crit) and supply from its falling ones on
clip(p, p_crit, rmax), each segment with ``np.interp``'s own
arithmetic.  ``_InterpPolygon`` keeps the evaluation it replaced
verbatim: ``_flow_into`` through ``np.interp`` and ``envelopes`` as one
clip to [0, rmax], one evaluation of H and two masked copies of its
peak, on the demand, supply and branch buffers it took then; the
helpers hand it the rows of the kernel's ``(2, ...)`` buffers.
``envelopes`` (on unclipped values, round-off outside [0, rmax]
included), ``eval``, ``demand`` and ``supply`` must give the same
bytes, signs of zero included, on every breakpoint, its two float
neighbours and the ends of the range, for 1-D arrays, for the whole
rows and the strided side views of a ``(batch, cells)`` array that
``cl_solver.FluxKernel`` passes, and for floats.  Two frozen polygons
need the copies of a vertex height that a segment formula misses, one
at p_crit and one at rmax; the README triangle needs neither.  A
polygon given with signed-zero coordinates is the case where a bare
segment formula parts from ``np.interp``: at p = 0 with first vertex
(-0.0, -0.0), slope * (0.0 - -0.0) + -0.0 is +0.0, while ``np.interp``
returns the vertex height -0.0.

The solve outputs on the README junction are frozen by digest, with
values taken before the change; a ``FluxKernel`` call there makes no
``np.interp`` call and holds no temporary of the grid's size, and a
whole march, there and on the desk junction, peaks at seven arrays of
the grid's size.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from junctionflow import (
    CellField,
    DomainError,
    Grid,
    JunctionModel,
    NodeField,
    PiecewiseLinearFlux,
    hj_direct_solve,
    solve,
)
from junctionflow.cl_solver import FluxKernel
from junctionflow.cli import main, parse_config_dict
from strategies import polygon_fluxes, side_values


class _InterpPolygon(PiecewiseLinearFlux):
    """The polygon as evaluated before the branch-by-branch envelopes: ``np.interp``, verbatim."""

    def _flow_into(self, p: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        np.copyto(out, np.interp(p, self._px, self._hy))
        return out

    def envelopes(self, values: np.ndarray, demand_out: np.ndarray, supply_out: np.ndarray, branch: np.ndarray) -> None:
        pc = self.p_crit
        peak = float(self._flow(pc))  # H(p_crit) as the formula evaluates it, which may miss capacity by an ulp
        p = np.clip(values, 0.0, self.rmax, out=branch)
        self._flow_into(p, demand_out, supply_out)
        np.copyto(supply_out, demand_out)
        np.copyto(demand_out, peak, where=p > pc)
        np.copyto(supply_out, peak, where=p < pc)


class _KernelInterpPolygon(_InterpPolygon):
    """``_InterpPolygon`` behind the kernel's ``envelopes(values, out, work)``: its buffers are their rows."""

    def envelopes(self, values: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        super().envelopes(values, out[0], out[1], work[0])


def _reference(flux: PiecewiseLinearFlux) -> _InterpPolygon:
    return _KernelInterpPolygon(points=flux.points)


@st.composite
def wide_polygons(draw):
    """A concave polygon through 1-15 samples of a random concave parabola: up to 16 segments."""
    rmax = draw(st.floats(0.5, 3.0))
    hmax = draw(st.floats(0.05, 1.0))
    fracs = sorted(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=15, unique=True)))
    inner = [(f * rmax, 4.0 * hmax * f * (1.0 - f)) for f in fracs]
    try:
        return PiecewiseLinearFlux(points=((0.0, 0.0), *inner, (rmax, 0.0)))
    except DomainError:  # a zero-slope chord or a breakpoint collision
        assume(False)


@st.composite
def polygons(draw):
    """A polygon of ``polygon_fluxes`` or ``wide_polygons``, its zero coordinates given either sign."""
    flux = draw(polygon_fluxes() | wide_polygons())
    x0, h0, h_end = (draw(st.sampled_from([0.0, -0.0])) for _ in range(3))
    return PiecewiseLinearFlux(points=((x0, h0), *flux.points[1:-1], (flux.rmax, h_end)))


def _densities(flux: PiecewiseLinearFlux, seed: int) -> np.ndarray:
    """``side_values``, then every breakpoint and its two float neighbours, 0, -0.0, rmax and p_crit."""
    px = flux._px
    ends = [0.0, -0.0, flux.rmax, flux.p_crit]
    special = np.concatenate([px, np.nextafter(px, -np.inf), np.nextafter(px, np.inf), ends])
    return np.concatenate([side_values(np.random.default_rng(seed), flux, 64), special])


def _special(flux: PiecewiseLinearFlux) -> int:
    """How many of ``_densities`` are the special points at its end."""
    return 3 * len(flux._px) + 4


def _bits(value) -> tuple[type, bytes]:
    return type(value), np.asarray(value, dtype=float).tobytes()


def _envelopes_into(flux, values: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """``flux.envelopes`` on (2, ...) buffers; a verbatim reference's old four buffers are their rows."""
    if "branch" in inspect.signature(flux.envelopes).parameters:
        flux.envelopes(values, out[0], out[1], work[0])
    else:
        flux.envelopes(values, out, work)


def _envelopes(flux, p: np.ndarray) -> tuple[bytes, bytes]:
    out = np.full((2, *p.shape), np.nan)
    _envelopes_into(flux, p, out, np.full(out.shape, np.nan))
    return out[0].tobytes(), out[1].tobytes()


def _strided_envelopes(flux, p: np.ndarray, n_left: int = 5) -> tuple[bytes, bytes]:
    """Envelopes of the right-side view ``[..., n_left:]`` of a (3, cells) array, as the kernel passes them.

    They go into the ``[:, ..., n_left:]`` views of (2, 3, cells) buffers.
    """
    shape = (3, n_left + p.size)
    values, out, work = np.zeros(shape), np.full((2, *shape), np.nan), np.empty((2, *shape))
    values[..., n_left:] = [p, p[::-1], np.roll(p, 7)]
    side = np.s_[..., n_left:]
    _envelopes_into(flux, values[side], out[side], work[side])
    return out[0].tobytes(), out[1].tobytes()


def _batched_envelopes(flux, p: np.ndarray, n_left: int = 5) -> list[bytes]:
    """Envelopes of (3, cells) values as the kernel passes a batch: all cells at once, then one side at a time.

    Each side is a ``[..., side]`` view of the values and a ``[:, ..., side]`` view of each (2, 3, cells) buffer.
    """
    values = np.stack([p, p[::-1], np.roll(p, 7)])
    results = []
    for sides in (((...,),), (np.s_[..., :n_left], np.s_[..., n_left:])):
        out, work = np.full((2, *values.shape), np.nan), np.full((2, *values.shape), np.nan)
        for side in sides:
            _envelopes_into(flux, values[side], out[(slice(None), *side)], work[(slice(None), *side)])
        results.append(out.tobytes())
    return results


@given(flux=polygons(), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_envelopes_match_np_interp_bytes(flux, seed):
    ref = _reference(flux)
    p = _densities(flux, seed)
    assert _envelopes(flux, p) == _envelopes(ref, p)
    assert _strided_envelopes(flux, p) == _strided_envelopes(ref, p)


@given(flux=polygons(), seed=st.integers(0, 2**32 - 1), n_left=st.integers(1, 40))
@settings(deadline=None)
def test_batched_envelopes_match_np_interp_bytes(flux, seed, n_left):
    p = _densities(flux, seed)
    assert _batched_envelopes(flux, p, n_left) == _batched_envelopes(_reference(flux), p, n_left)


@given(flux=polygons(), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_pointwise_methods_match_np_interp_bytes(flux, seed):
    ref = _reference(flux)
    values = _densities(flux, seed)
    assert float(flux._flow(flux.p_crit)) == float(ref._flow(ref.p_crit)) == flux.capacity
    for method in ("eval", "demand", "supply"):
        new, old = getattr(flux, method), getattr(ref, method)
        assert _bits(new(values)) == _bits(old(values))
        view = np.stack([values, values[::-1]])[:, 3:]
        assert _bits(new(view)) == _bits(old(view))
        for v in values[-_special(flux) :].tolist() + values[:8].tolist():
            assert _bits(new(v)) == _bits(old(v))


def test_signed_zero_heights_are_kept():
    """First vertex (-0.0, -0.0), last (1, -0.0): the zero flows keep the vertices' sign, as with np.interp."""
    flux = PiecewiseLinearFlux(points=((-0.0, -0.0), (0.5, 0.25), (1.0, -0.0)))
    p = np.array([0.0, -0.0, 0.25, 0.5, 1.0])
    demand, supply = np.array([-0.0, -0.0, 0.125, 0.25, 0.25]), np.array([0.25, 0.25, 0.25, 0.25, -0.0])
    assert _envelopes(flux, p) == (demand.tobytes(), supply.tobytes())
    for v in (0.0, -0.0):
        assert _bits(flux.demand(v)) == _bits(flux.eval(v)) == (float, np.float64(-0.0).tobytes())
    assert _bits(flux.supply(1.0)) == _bits(flux.eval(1.0)) == (float, np.float64(-0.0).tobytes())
    assert _envelopes(flux, p) == _envelopes(_reference(flux), p)


# -- the copies of a vertex height that a segment formula misses ------------------------------

# Found by a search over triangles with one-decimal vertices; each misses one height, bit for bit.
PEAK_MISSED = ((0.0, 0.0), (0.3, 0.7), (1.0, 0.0))  # the rising side at p_crit: 0.7 / 0.3 * 0.3 = 0.7000000000000001
END_MISSED = ((0.0, 0.0), (0.1, 0.5), (2.0, 0.0))  # the falling side at rmax: -0.5 / 1.9 * 1.9 + 0.5 = 5.55e-17


def _copyto_calls(monkeypatch, flux, p: np.ndarray) -> int:
    """The ``np.copyto`` calls of one ``envelopes`` call on ``p``."""
    calls = []
    copyto = np.copyto

    def counted(*args, **kwargs):
        calls.append(args)
        return copyto(*args, **kwargs)

    monkeypatch.setattr(np, "copyto", counted)
    _envelopes(flux, p)
    monkeypatch.setattr(np, "copyto", copyto)
    return len(calls)


@pytest.mark.parametrize("points", [PEAK_MISSED, END_MISSED], ids=["peak", "end"])
def test_a_missed_vertex_height_is_copied_in(monkeypatch, points):
    flux = PiecewiseLinearFlux(points=points)
    (x, slope, h), pc = flux._segments[0], flux.p_crit
    end_x, end_slope, end_h = flux._segments[-1]
    misses = {"peak": slope * (pc - x) + h != flux.capacity, "end": end_slope * (flux.rmax - end_x) + end_h != 0.0}
    assert misses == {"peak": points is PEAK_MISSED, "end": points is END_MISSED}
    ref = _reference(flux)
    for seed in range(20):
        p = _densities(flux, seed)
        assert _envelopes(flux, p) == _envelopes(ref, p)
        assert _strided_envelopes(flux, p) == _strided_envelopes(ref, p)
        for method in ("eval", "demand", "supply"):
            assert _bits(getattr(flux, method)(p)) == _bits(getattr(ref, method)(p))
    assert _copyto_calls(monkeypatch, flux, p) == 1


def test_the_readme_triangle_makes_no_copy(monkeypatch, readme_junction):
    """The benchmark's polygon: both segment formulas hit their end heights, so neither copy runs."""
    flux = readme_junction.right
    p = _densities(flux, 0)
    assert _copyto_calls(monkeypatch, flux, p) == 0
    assert _envelopes(flux, p) == _envelopes(_reference(flux), p)


# -- the kernel: no np.interp call, no float temporary of the grid's size ------------------


def test_kernel_call_on_the_readme_junction_makes_no_interp_call(monkeypatch, readme_junction):
    calls = []
    interp = np.interp

    def counted(*args, **kwargs):
        calls.append(args)
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    grid = Grid(n_left=6, n_right=5, dx=0.1)
    values = np.random.default_rng(0).uniform(0.0, 1.0, (3, grid.n_cells))
    for batch_shape, data in (((), values[0]), ((3,), values)):
        kernel = FluxKernel(readme_junction, grid, batch_shape)
        kernel(data)
        kernel(data, plain_edges=True)
    assert calls == []
    # the counter sees the calls of the evaluation replaced
    ref = JunctionModel(readme_junction.left, _reference(readme_junction.right), readme_junction.limiter)
    FluxKernel(ref, grid)(values[0])
    assert calls


def test_march_steps_hold_no_mask_of_the_polygon_side(monkeypatch, readme_junction):
    """No step of either march holds a mask of the triangle side; ``np.interp`` held a float array.

    A step's arithmetic outside the kernel runs in place, so the kernel
    call's transient peak (tracemalloc) is the step's.
    """
    grid = Grid(n_left=100, n_right=20_000, dx=1e-4)
    slopes = np.random.default_rng(1).uniform(0.0, 1.0, grid.n_cells)
    rho0 = CellField(grid, slopes)
    u0 = NodeField(grid, np.concatenate([[0.0], np.cumsum(grid.dx * slopes)]))
    t_end = 4 * 0.8 * grid.dx / readme_junction.lipschitz_bound
    peaks = []
    call = FluxKernel.__call__

    def traced(self, *args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fluxes = call(self, *args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return fluxes

    monkeypatch.setattr(FluxKernel, "__call__", traced)
    ref = JunctionModel(readme_junction.left, _reference(readme_junction.right), readme_junction.limiter)
    worst = {}
    for j in (readme_junction, ref):
        for march, datum in ((solve, rho0), (hj_direct_solve, u0)):
            peaks.clear()
            tracemalloc.start()
            try:
                march(datum, j, t_end)
            finally:
                tracemalloc.stop()
            assert len(peaks) == 4
            worst[j is ref, march] = max(peaks[1:])  # the first call also fills the fluxes' caches
    for march in (solve, hj_direct_solve):
        assert worst[False, march] < 2 * grid.n_right <= 8 * grid.n_right <= worst[True, march]


@pytest.mark.parametrize("junction", ["sym_junction", "readme_junction"])
@pytest.mark.parametrize("march", [solve, hj_direct_solve])
def test_a_march_peaks_at_seven_grid_arrays(request, junction, march):
    """The march's whole peak (tracemalloc), snapshot included, in arrays of the grid's size.

    The datum's copy, the kernel's two (2, cells) buffers, its fluxes and
    the snapshot make 7; the density increments and the slopes live in a
    kernel row, so neither adds an eighth.
    """
    j = request.getfixturevalue(junction)
    grid = Grid(n_left=10_000, n_right=10_000, dx=1e-4)
    slopes = np.random.default_rng(1).uniform(0.0, 1.0, grid.n_cells)
    u0 = NodeField(grid, np.concatenate([[0.0], np.cumsum(grid.dx * slopes)]))
    datum = CellField(grid, slopes) if march is solve else u0
    t_end = 4 * 0.8 * grid.dx / j.lipschitz_bound
    tracemalloc.start()
    try:
        march(datum, j, t_end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.05 * 8 * grid.n_cells


# -- solve-cl/solve-hj outputs on the README junction, frozen by digest --------------------------


def _march_configs(tmp_path, readme_scenario, seed: int, cells: int, pieces: int, steps: int):
    """The two configs of a march-fine unit (perfbench/workloads.py) at ``cells`` cells and ``steps`` steps."""
    readme = json.loads(readme_scenario.read_text())
    rng = np.random.default_rng(seed)
    scenario = {key: readme[key] for key in ("flux_left", "flux_right", "limiter", "domain", "cfl")}
    scenario.update(cells=cells, seed=seed)
    base = parse_config_dict(scenario)
    grid = base.build_grid()
    t_end = steps * base.cfl * grid.dx / base.model.lipschitz_bound
    scenario.update(t_end=t_end, snapshots=[t_end / 2, t_end])
    # breaks on grid nodes, so the density is exactly the slope field of the potential
    nl = grid.n_left
    picks = [
        rng.choice(np.arange(1, nl), pieces - 1, replace=False),
        [nl],
        rng.choice(np.arange(nl + 1, grid.n_cells), pieces - 1, replace=False),
    ]
    nodes = np.sort(np.concatenate(picks))
    x = grid.node_coords()
    values = np.concatenate(
        [rng.uniform(0.0, base.flux_left.rmax, pieces), rng.uniform(0.0, base.flux_right.rmax, pieces)]
    )
    edges = np.concatenate([[x[0]], x[nodes], [x[-1]]])
    u = np.concatenate([[0.0], np.cumsum(values * np.diff(edges))])
    cl_datum = {"piecewise_constant": {"breaks": [float(v) for v in x[nodes]], "values": values.tolist()}}
    hj_datum = {"piecewise_linear": {"points": [[float(a), float(b)] for a, b in zip(edges, u)]}}
    paths = []
    for name, datum in (("march_cl.json", cl_datum), ("march_hj.json", hj_datum)):
        path = tmp_path / name
        path.write_text(json.dumps({**scenario, "datum": datum}, indent=2) + "\n")
        paths.append(path)
    return paths


def _solve_digests(tmp_path, readme_scenario) -> dict[str, str]:
    """sha256 of every file ``solve-cl`` and ``solve-hj`` write on a 300-cell march-fine config, 120 steps."""
    cl_config, hj_config = _march_configs(tmp_path, readme_scenario, seed=4242, cells=300, pieces=6, steps=120)
    digests = {}
    for command, config in (("solve-cl", cl_config), ("solve-hj", hj_config)):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            digests[f"{command}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# Taken with the np.interp polygon, before the branch-by-branch envelopes.
FROZEN_SOLVE_DIGESTS = {
    "solve-cl/cl_snapshot_000.csv": "874856dfc92db3a1d1f2b0ebc9cf7a8e88835d123899ed598c09ea950c2556ce",
    "solve-cl/cl_snapshot_001.csv": "3012a29c75ec5e35d61267f5a68d5c2e0101d31dabf2acede1e7cd9eb6b7b6b4",
    "solve-cl/manifest.json": "c1bf7c3ef2381c60cc9244d8e821e1807ccf9ae9baa1f623c49d52483da32524",
    "solve-hj/hj_snapshot_000.csv": "5b550f48c1ab623e96c71689b5eed0588fa9a306b4c099468e0d04edcf7d9759",
    "solve-hj/hj_snapshot_001.csv": "4a342b5baecab1967a396809caf9601d15df2c7743167945ae165bc7fba16125",
    "solve-hj/manifest.json": "4c5bb10e17b5de6df04635794317a5bd8a55dfce351a9f08a7281d9a67f5ba82",
}


def test_solve_outputs_on_the_readme_junction_are_frozen(tmp_path, readme_scenario):
    assert _solve_digests(tmp_path, readme_scenario) == FROZEN_SOLVE_DIGESTS
