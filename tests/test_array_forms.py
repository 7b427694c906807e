"""The junction algebra and the closed-form oracles on arrays.

Float in gives float out, array in gives array out, and each entry of an
array result is bit for bit the scalar call on that entry.  The
``_ref_*`` functions are verbatim copies of the per-point forms these
array passes replaced (scalar only, valid input only); the array forms,
the scalar calls and the battery checks built on them must reproduce
them exactly.  Validation still runs on the whole array and reports the
first offending entry with the message the scalar call gives it.
"""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionflow import (
    BOUNDARY_TOL,
    CanonicalDatum,
    DatumShape,
    DomainError,
    JunctionModel,
    LevelError,
    PiecewiseLinearFlux,
    QuadraticFlux,
    exact_roof0_capped,
    exact_roof0_uncapped,
    exact_roof_drain,
    exact_valley_capped,
    germ_contains,
    germ_dissipative,
    junction_flux,
    kruzhkov_flux,
    riemann_profile,
    riemann_traces,
)
from junctionflow import cl_solver as cl
from junctionflow.junction import TracePair, _assert_wave_signs
from junctionflow.verifier import (
    CheckRecord,
    GermScanResult,
    SemigroupHandle,
    check_germ_dissipativity,
    check_oracle_scale_invariance,
    check_riemann_admissibility,
    empirical_germ_scan,
    identify_limiter_cl,
)
from strategies import junctions, side_values

# -- the per-point forms the array passes replaced ------------------------------------


def _ref_clamp_level(flux, a):
    a = float(a)
    cap = flux.capacity
    if a < -BOUNDARY_TOL:
        raise DomainError(f"flow level {a} is negative")
    if a > cap * (1.0 + 1e-12) + BOUNDARY_TOL:
        raise LevelError(f"flow level {a} exceeds capacity {cap}")
    return min(max(a, 0.0), cap)


def _ref_roots(flux, a):
    a = _ref_clamp_level(flux, a)
    if isinstance(flux, QuadraticFlux):
        s = math.sqrt(max(1.0 - a / flux.hmax, 0.0))
        return 0.5 * flux.rmax * (1.0 - s), 0.5 * flux.rmax * (1.0 + s)
    iv = flux._ivert
    lo = float(np.interp(a, flux._hy[: iv + 1], flux._px[: iv + 1]))
    hi = float(np.interp(a, flux._hy[iv:][::-1], flux._px[iv:][::-1]))
    return lo, hi


def _ref_truncated_conjugate(flux, a, v):
    a = _ref_clamp_level(flux, a)
    v = float(v)
    lo, hi = _ref_roots(flux, a)
    if isinstance(flux, QuadraticFlux):
        stat = float(np.clip(0.5 * (flux.rmax - v / flux._coef), 0.0, flux.rmax))
        ys = np.array([0.0, flux.rmax, lo, hi, stat])
    else:
        ys = np.concatenate([flux._px, [lo, hi]])
    vals = -v * ys + np.minimum(flux.eval(ys), a)
    i = int(np.argmax(vals))
    return float(vals[i])


def _ref_wedge(j, level, x, roof):
    """canonical_eval of the phi_hat (roof) or phi_check datum at one x."""
    left_lo, left_hi = _ref_roots(j.left, level)
    right_lo, right_hi = _ref_roots(j.right, level)
    if roof:
        return left_hi * x if x <= 0.0 else right_lo * x
    return left_lo * x if x <= 0.0 else right_hi * x


def _ref_roof0_uncapped(j, t, x):
    if x >= t * j.right.derivative(0.0):
        return 0.0
    if x <= t * j.left.derivative(j.left.rmax):
        return j.left.rmax * x
    side = j.left if x <= 0.0 else j.right
    return -t * _ref_truncated_conjugate(side, j.a_max, x / t)


def _ref_roof0_capped(j, cap, t, x):
    left_hi = _ref_roots(j.left, cap)[1]
    right_lo = _ref_roots(j.right, cap)[0]
    lo = t * j.left.derivative(left_hi)
    hi = t * j.right.derivative(right_lo)
    if lo <= x <= hi:
        return _ref_wedge(j, cap, x, roof=True) - t * cap
    return _ref_roof0_uncapped(j, t, x)


def _ref_roof_drain(j, level, t, x):
    return _ref_wedge(j, level, x, roof=True) - t * level


def _ref_valley_capped(j, level, t, x):
    return max(
        _ref_wedge(j, level, x, roof=False) - t * level,
        _ref_wedge(j, j.limiter, x, roof=True) - t * j.limiter,
    )


def _ref_riemann_traces(j, rho_left, rho_right):
    rl = j.left.clamp(rho_left)
    rr = j.right.clamp(rho_right)
    f = junction_flux(j, rl, rr)
    q_minus = rl if abs(j.left.eval(rl) - f) <= j.left.equality_tol else _ref_roots(j.left, f)[1]
    q_plus = rr if abs(j.right.eval(rr) - f) <= j.right.equality_tol else _ref_roots(j.right, f)[0]
    return q_minus, q_plus, f


def _ref_classical_riemann(flux, a, b, xi):
    a = flux.clamp(a)
    b = flux.clamp(b)
    if a == b:
        return a
    if a < b:
        sigma = (flux.eval(b) - flux.eval(a)) / (b - a)
        return a if xi <= sigma else b
    fan = flux.inv_derivative(xi)
    return min(a, max(b, fan))


def _ref_riemann_profile(j, rho_left, rho_right, xi):
    q_minus, q_plus, _ = _ref_riemann_traces(j, rho_left, rho_right)
    if xi < 0.0:
        return _ref_classical_riemann(j.left, j.left.clamp(rho_left), q_minus, xi)
    if xi > 0.0:
        return _ref_classical_riemann(j.right, q_plus, j.right.clamp(rho_right), xi)
    return q_minus


def _ref_germ_contains(j, qm, qp):
    tol = j.equality_tol
    fl = j.left.eval(qm)
    fr = j.right.eval(qp)
    fj = junction_flux(j, qm, qp)
    return abs(fl - fr) <= tol and abs(fl - fj) <= tol


def _ref_kruzhkov(flux, a, b):
    if a == b:
        return 0.0
    return math.copysign(1.0, a - b) * (flux.eval(a) - flux.eval(b))


def _ref_germ_dissipative(j, p1, p2):
    return _ref_kruzhkov(j.left, p1[0], p2[0]) - _ref_kruzhkov(j.right, p1[1], p2[1])


def _ref_grid(model, grid_n):
    return [
        (float(ql), float(qr))
        for ql in np.linspace(0.0, model.left.rmax, grid_n)
        for qr in np.linspace(0.0, model.right.rmax, grid_n)
    ]


def _ref_riemann_admissibility(model, grid_n):
    worst = 0.0
    for ql, qr in _ref_grid(model, grid_n):
        qm, qp, f = _ref_riemann_traces(model, ql, qr)
        fl = model.left.eval(qm)
        fr = model.right.eval(qp)
        fj = junction_flux(model, qm, qp)
        worst = max(worst, abs(fl - fr), abs(fl - fj), abs(f - fj))
    return worst


def _ref_germ_dissipativity(model, grid_n):
    members = [pair for pair in _ref_grid(model, grid_n) if _ref_germ_contains(model, *pair)]
    worst = 0.0
    for p1 in members:
        for p2 in members:
            worst = max(worst, -_ref_germ_dissipative(model, p1, p2))
    return worst, len(members)


def _ref_oracle_scale_invariance(model, n_samples, seed):
    rng = np.random.default_rng(seed)
    amax = model.a_max
    cap = model.limiter
    worst = 0.0
    for _ in range(n_samples):
        eps = rng.uniform(0.25, 4.0)
        t = rng.uniform(0.1, 2.0)
        x = rng.uniform(-2.0, 2.0)
        level = rng.uniform(0.0, amax)
        for f, fs in (
            (_ref_roof0_uncapped(model, t, x), _ref_roof0_uncapped(model, t / eps, x / eps)),
            (_ref_roof0_capped(model, cap, t, x), _ref_roof0_capped(model, cap, t / eps, x / eps)),
            (_ref_roof_drain(model, level, t, x), _ref_roof_drain(model, level, t / eps, x / eps)),
            (_ref_valley_capped(model, level, t, x), _ref_valley_capped(model, level, t / eps, x / eps)),
        ):
            worst = max(worst, abs(eps * fs - f))
    return worst



def _ref_germ_scan(
    h: SemigroupHandle,
    grid_n: int = 21,
    t_end: float = 0.5,
    drift_threshold: float = 0.005,
    germ_tol: float = 0.005,
    limiter_estimate: float | None = None,
) -> GermScanResult:
    """Classify flux-compatible density pairs by evolving their Riemann data.

    A pair is called stationary when its trace flux drifts less than
    drift_threshold by t_end; the stationary set must coincide with the
    admissibility predicate evaluated at the identified cap.
    """
    model = h.model
    if limiter_estimate is None:
        limiter_estimate = identify_limiter_cl(h)
    a_hat = min(max(limiter_estimate, 0.0), model.a_max)
    probe = JunctionModel(left=model.left, right=model.right, limiter=a_hat)
    grid = h.grid
    compat_tol = max(model.equality_tol, 1e-12)

    pairs: list[TracePair] = []
    for ql in np.linspace(0.0, model.left.rmax, grid_n):
        for qr in np.linspace(0.0, model.right.rmax, grid_n):
            f_left = model.left.eval(ql)
            if abs(f_left - model.right.eval(qr)) > compat_tol:
                continue
            pairs.append(TracePair(float(ql), float(qr), f_left))
    runs = h.evolve_cl([cl.riemann_field(grid, pair.q_minus, pair.q_plus) for pair in pairs], [t_end])

    stationary: list[TracePair] = []
    evolving: list[TracePair] = []
    misclassified: list[TracePair] = []
    for pair, run in zip(pairs, runs):
        q_m, q_p = cl.trace_estimate(run[-1])
        drift = max(
            abs(model.left.eval(q_m) - pair.flux_value),
            abs(model.right.eval(q_p) - pair.flux_value),
        )
        is_stationary = drift < drift_threshold
        (stationary if is_stationary else evolving).append(pair)
        if is_stationary != germ_contains(probe, pair, germ_tol):
            misclassified.append(pair)
    n_pairs = len(stationary) + len(evolving)
    record = CheckRecord(
        name="germ_scan",
        measured=float(len(misclassified)),
        tolerance=0.0,
        scenario=(
            f"{n_pairs} compatible pairs on a {grid_n}x{grid_n} grid, t={t_end:g}, dx={grid.dx:g},"
            f" drift threshold {drift_threshold:g}, cap estimate {a_hat:.6g}"
        ),
    )
    return GermScanResult(
        stationary=stationary,
        evolving=evolving,
        misclassified=misclassified,
        limiter_estimate=a_hat,
        record=record,
    )


# -- helpers ------------------------------------------------------------------------


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _assert_entrywise(array_out, fn, *args) -> None:
    """``array_out`` is ``fn`` applied to each broadcast entry of ``args``, bit for bit."""
    cols = np.broadcast_arrays(*args)
    assert np.shape(array_out) == cols[0].shape
    expected = [fn(*(float(c.flat[k]) for c in cols)) for k in range(cols[0].size)]
    assert _bits(np.ravel(array_out)) == _bits(expected)


def _levels(rng, cap, n=12):
    """Flow levels in [0, cap] with the endpoints, a signed zero and the clamped slack."""
    special = [0.0, -0.0, cap, -0.5 * BOUNDARY_TOL, cap + 0.5 * BOUNDARY_TOL]
    return np.concatenate([special, rng.uniform(0.0, cap, n)])


def _members(j, rng):
    """Germ members: free-left/congested-right pairs below the cap and the four root pairs at it."""
    a = j.limiter
    levels = rng.uniform(0.0, a, 6)
    (l_lo, _), (_, r_hi) = j.left.roots(levels), j.right.roots(levels)
    (la, lb), (ra, rb) = j.left.roots(a), j.right.roots(a)
    qm = np.concatenate([l_lo, [la, la, lb, lb]])
    qp = np.concatenate([r_hi, [ra, rb, ra, rb]])
    keep = germ_contains(j, (qm, qp))
    return qm[keep], qp[keep]


DESK = JunctionModel(QuadraticFlux(1.0, 0.25), QuadraticFlux(1.0, 0.25), 0.1875)
README = JunctionModel(
    QuadraticFlux(1.0, 0.25), PiecewiseLinearFlux(((0.0, 0.0), (0.5, 0.25), (1.0, 0.0))), 0.1875
)

seeds = st.integers(0, 2**32 - 1)


# -- array forms equal the scalar calls --------------------------------------------------


@given(j=junctions(), seed=seeds)
@settings(deadline=None, max_examples=100)
def test_roots_and_clamp_level_arrays_match_scalar_calls(j, seed):
    rng = np.random.default_rng(seed)
    for flux in (j.left, j.right):
        levels = _levels(rng, flux.capacity)
        lo, hi = flux.roots(levels)
        _assert_entrywise(lo, lambda a: flux.roots(a)[0], levels)
        _assert_entrywise(hi, lambda a: flux.roots(a)[1], levels)
        _assert_entrywise(lo, lambda a: _ref_roots(flux, a)[0], levels)
        _assert_entrywise(hi, lambda a: _ref_roots(flux, a)[1], levels)
        _assert_entrywise(flux.clamp_level(levels), lambda a: _ref_clamp_level(flux, a), levels)
        assert isinstance(flux.roots(0.5 * flux.capacity)[0], float)


@given(j=junctions(), seed=seeds)
@settings(deadline=None, max_examples=40)
def test_riemann_traces_and_germ_contains_arrays_match_scalar_calls(j, seed):
    rng = np.random.default_rng(seed)
    rl = side_values(rng, j.left, 9)[:, None]
    rr = side_values(rng, j.right, 8)[None, :]
    tr = riemann_traces(j, rl, rr)
    got = np.stack([tr.q_minus, tr.q_plus, tr.flux_value], axis=-1)
    pairs = [(float(a), float(b)) for a, b in zip(*(c.ravel() for c in np.broadcast_arrays(rl, rr)))]
    calls = [riemann_traces(j, a, b) for a, b in pairs]
    assert _bits(got) == _bits([(c.q_minus, c.q_plus, c.flux_value) for c in calls])
    assert _bits(got) == _bits([_ref_riemann_traces(j, a, b) for a, b in pairs])
    scalar = riemann_traces(j, float(rl[0, 0]), float(rr[0, 0]))
    assert all(isinstance(v, float) for v in (scalar.q_minus, scalar.q_plus, scalar.flux_value))

    ql, qr = j.left.clamp(rl), j.right.clamp(rr)
    inside = germ_contains(j, (ql, qr))
    _assert_entrywise(inside, lambda a, b: germ_contains(j, (a, b)), ql, qr)
    _assert_entrywise(inside, lambda a, b: _ref_germ_contains(j, a, b), ql, qr)
    _assert_entrywise(germ_contains(j, tr), lambda a, b: _ref_germ_contains(j, a, b), tr.q_minus, tr.q_plus)
    assert type(germ_contains(j, (float(ql[0, 0]), float(qr[0, 0])))) is bool


@given(j=junctions(), seed=seeds)
@settings(deadline=None, max_examples=40)
def test_riemann_profile_over_an_xi_array_matches_scalar_calls(j, seed):
    rng = np.random.default_rng(seed)
    speed = j.lipschitz_bound
    xi = np.concatenate([[0.0, -0.0, 1e-300, -1e-300, speed, -speed], rng.uniform(-1.5, 1.5, 20) * speed])
    for rl, rr in zip(side_values(rng, j.left, 3), side_values(rng, j.right, 3)):
        profile = riemann_profile(j, rl, rr, xi)
        _assert_entrywise(profile, lambda x: riemann_profile(j, rl, rr, x), xi)
        _assert_entrywise(profile, lambda x: _ref_riemann_profile(j, rl, rr, x), xi)
    assert isinstance(riemann_profile(j, 0.0, 0.0, 0.5), float)


@given(j=junctions(), seed=seeds)
@settings(deadline=None, max_examples=60)
def test_germ_dissipative_matrix_matches_scalar_calls(j, seed):
    qm, qp = _members(j, np.random.default_rng(seed))
    margins = germ_dissipative(j, (qm[:, None], qp[:, None]), (qm, qp))
    assert margins.shape == (qm.size, qm.size)
    pairs = list(zip(qm.tolist(), qp.tolist()))
    assert _bits(margins.ravel()) == _bits([germ_dissipative(j, p1, p2) for p1 in pairs for p2 in pairs])
    assert _bits(margins.ravel()) == _bits([_ref_germ_dissipative(j, p1, p2) for p1 in pairs for p2 in pairs])
    for flux, q in ((j.left, qm), (j.right, qp)):
        _assert_entrywise(kruzhkov_flux(flux, q[:, None], q), lambda a, b: _ref_kruzhkov(flux, a, b), q[:, None], q)


@given(j=junctions(), seed=seeds)
@settings(deadline=None, max_examples=60)
def test_oracle_arrays_match_scalar_calls(j, seed):
    rng = np.random.default_rng(seed)
    n = 24
    t = rng.uniform(0.05, 3.0, n)
    x = np.concatenate([[0.0, -0.0, 1e-300, -1e-300], rng.uniform(-3.0, 3.0, n - 4)])
    level = np.concatenate([[0.0, -0.0, j.a_max], rng.uniform(0.0, j.a_max, n - 3)])
    cap = float(rng.uniform(0.0, j.a_max))
    oracles = (
        (exact_roof0_uncapped, _ref_roof0_uncapped, ()),
        (exact_roof0_capped, _ref_roof0_capped, (cap,)),
        (exact_roof_drain, _ref_roof_drain, (level,)),
        (exact_valley_capped, _ref_valley_capped, (level,)),
    )
    for oracle, ref, first in oracles:
        out = oracle(j, *first, t, x)
        _assert_entrywise(out, lambda *a: oracle(j, *a), *first, t, x)
        _assert_entrywise(out, lambda *a: ref(j, *a), *first, t, x)
        # one time, a grid of positions: the CLI's and the verifier's call
        _assert_entrywise(oracle(j, *first, 0.7, x), lambda *a: ref(j, *a), *first, 0.7, x)
        assert isinstance(oracle(j, *(float(np.ravel(a)[0]) for a in first), 0.7, 0.1), float)


@given(j=junctions(), grid_n=st.integers(2, 9), seed=st.integers(0, 100))
@settings(deadline=None, max_examples=60)
def test_grid_and_oracle_checks_match_the_per_point_loops(j, grid_n, seed):
    assert check_riemann_admissibility(j, grid_n).measured == _ref_riemann_admissibility(j, grid_n)
    record = check_germ_dissipativity(j, grid_n)
    worst, n_members = _ref_germ_dissipativity(j, grid_n)
    assert _bits(record.measured) == _bits(worst)
    assert record.scenario.startswith(f"{n_members} admissible pairs")
    assert check_oracle_scale_invariance(j, n_samples=12, seed=seed).measured == _ref_oracle_scale_invariance(
        j, 12, seed
    )
    h = SemigroupHandle("cl", j, cl.Grid.from_domain(-1.0, 1.0, 32))
    scan = empirical_germ_scan(h, grid_n, t_end=0.25, limiter_estimate=j.limiter)
    ref = _ref_germ_scan(h, grid_n, t_end=0.25, limiter_estimate=j.limiter)
    for kind in ("stationary", "evolving", "misclassified"):
        got, want = getattr(scan, kind), getattr(ref, kind)
        assert [_bits(astuple(p)) for p in got] == [_bits(astuple(p)) for p in want], kind
    assert scan.record == ref.record


# -- validation on arrays ---------------------------------------------------------------


def _message(fn, *args, exc=Exception):
    with pytest.raises(exc) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_array_validation_reports_the_first_bad_entry_like_the_scalar_call():
    j = DESK
    flux = j.left
    for bad in (-0.01, 0.26, -1e-8):
        levels = np.array([0.1, bad, 0.0, -5.0])
        assert _message(flux.clamp_level, levels) == _message(flux.clamp_level, bad)
        assert _message(flux.roots, levels) == _message(flux.roots, bad)
    for bad in (7.0, -0.5, math.nan):
        rho = np.array([0.3, bad, 0.2])
        assert _message(riemann_traces, j, rho, 0.4) == _message(riemann_traces, j, bad, 0.4)
        assert _message(germ_contains, j, (0.75, rho)) == _message(germ_contains, j, (0.75, bad))
        assert _message(kruzhkov_flux, flux, rho, 0.4) == _message(kruzhkov_flux, flux, bad, 0.4)
    assert _message(riemann_traces, j, 0.5, np.array([0.3, 7.0, math.nan]))[1] == "density must be finite"

    for bad in (0.0, -1.0, math.inf, math.nan):
        times = np.array([1.0, bad, -2.0])
        for oracle, first in (
            (exact_roof0_uncapped, ()),
            (exact_roof0_capped, (0.1,)),
            (exact_roof_drain, (0.1,)),
            (exact_valley_capped, (0.1,)),
        ):
            assert _message(oracle, j, *first, times, 0.0) == _message(oracle, j, *first, bad, 0.0)
    for bad, exc in ((-0.1, DomainError), (math.nan, DomainError), (0.3, LevelError)):
        levels = np.array([0.1, bad])
        for oracle in (exact_roof_drain, exact_valley_capped):
            got = _message(oracle, j, levels, 1.0, np.array([-0.5, 0.5]))
            assert got == _message(oracle, j, bad, 1.0, -0.5)
            assert got[0] is exc
        assert _message(exact_roof0_capped, j, bad, 1.0, 0.0)[0] is exc
    assert _message(CanonicalDatum, DatumShape.PHI_HAT, np.array([0.1, math.inf])) == _message(
        CanonicalDatum, DatumShape.PHI_HAT, math.inf
    )


def test_germ_dissipative_names_the_first_non_member_like_the_scalar_call():
    j = DESK
    qm = np.array([0.75, 0.1, 0.5, 0.9])
    qp = np.array([0.25, 0.9, 0.5, 0.1])
    member = (0.75, 0.25)
    got = _message(germ_dissipative, j, member, (qm, qp), exc=ValueError)
    assert got == _message(germ_dissipative, j, member, (0.5, 0.5), exc=ValueError)
    assert got[1] == "p2=(0.5, 0.5) is not an admissible trace pair"
    assert _message(germ_dissipative, j, (qm[:, None], qp[:, None]), member, exc=ValueError)[1].startswith("p1=(0.5")


def test_corrupted_trace_trips_the_wave_sign_assertion(monkeypatch):
    j = DESK
    rl = np.array([0.3, 0.2, 0.6])
    rr = np.array([0.3, 0.9, 0.1])
    tr = riemann_traces(j, rl, rr)
    _assert_wave_signs(j, rl, rr, tr.q_minus, tr.q_plus)
    q_minus = tr.q_minus.copy()
    q_minus[1] = 0.5  # a shock from 0.2 up to 0.5 moves right
    with pytest.raises(AssertionError, match="left shock speed"):
        _assert_wave_signs(j, rl, rr, q_minus, tr.q_plus)
    q_plus = tr.q_plus.copy()
    q_plus[2] = 0.6  # a fan from 0.6 down to 0.1 leaks left
    with pytest.raises(AssertionError, match="right fan leaks left"):
        _assert_wave_signs(j, rl, rr, tr.q_minus, q_plus)

    # roots that hand back the wrong branch: the free root where a jam is due
    roots = QuadraticFlux.roots
    monkeypatch.setattr(QuadraticFlux, "roots", lambda self, a: roots(self, a)[::-1])
    with pytest.raises(AssertionError, match="left fan leaks right"):
        riemann_traces(j, rl, rr)


# -- frozen measured values (taken before the checks became array passes) --------------------


@pytest.mark.parametrize(
    "model,riemann,germ,members,oracle",
    [
        (DESK, 8.673617379884035e-17, 8.673617379884035e-17, 34, 4.440892098500626e-16),
        (README, 6.938893903907228e-17, 0.0, 7, 4.440892098500626e-16),
    ],
    ids=["desk", "readme"],
)
def test_check_margins_frozen(model, riemann, germ, members, oracle):
    assert check_riemann_admissibility(model).measured == riemann
    record = check_germ_dissipativity(model)
    assert _bits(record.measured) == _bits(germ)
    assert record.scenario == f"{members} admissible pairs from a 41x41 grid"
    assert check_oracle_scale_invariance(model).measured == oracle
