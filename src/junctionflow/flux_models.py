"""Strictly concave traffic flux models and flux-derived quantities.

A flux H maps density p in [0, rmax] to a flow rate, vanishes at both
endpoints, and is strictly concave with a unique maximizer p_crit where
it attains the capacity (the largest achievable flow).  Two concrete
kinds are provided:

* ``QuadraticFlux``: H(p) = 4 * hmax * p * (rmax - p) / rmax**2, every
  derived quantity in closed form.
* ``PiecewiseLinearFlux``: a concave polygon through user breakpoints,
  every derived quantity by vertex enumeration or interpolation on the
  monotone branches.  Offered as an engineering extension; convergence
  rate guarantees are only claimed for the quadratic kind.

On top of pointwise evaluation the module computes

* ``roots(a)``: the smallest/largest densities carrying flow level a,
* ``demand`` / ``supply``: the nondecreasing / nonincreasing envelopes
  of H (smallest monotone majorants), the building blocks of every
  interface flux in the solvers,
* ``truncated_conjugate(a, v)``: sup over y in [0, rmax] of
  -v*y + min(H(y), a), the concave conjugate of H truncated at level a,
  which drives the closed-form wedge solutions in ``hj_solver``,
* canonical initial data (wedges and steps) built from the roots.

Densities are validated with an absolute tolerance of 1e-9 at the
domain boundaries and clamped on ingestion, so solver round-off never
trips spurious domain errors.  ``clamp`` tests the range with one
min/max pair and scans for the offending value only when that fails.
The pointwise methods, ``clamp_level``, ``roots``, the truncated
conjugate and ``canonical_eval`` take floats or arrays (float in, float
out; array in, array out, each entry bit for bit the scalar call) and
validate every call, reporting the first offending entry of an array;
``envelopes`` is the unvalidated form of demand and supply for the
schemes' inner loop.  A march checks its datum once, at entry (``clamp``
for densities, ``hj_solver.validate_lip`` for slopes); each step then
hands its values, inside [0, rmax] up to round-off, to ``envelopes``
unclipped, once per distinct flux in ``cl_solver.FluxKernel``'s loop
over the sides, and needs demand and supply of the same cells, bit for
bit as ``demand``/``supply`` give them.  So each envelope is H of its
own branch, clip(p, 0, p_crit) or clip(p, p_crit, rmax): the two are
clipped into the rows of one ``(2, ...)`` buffer with ``ndarray.clip``
(``np.clip``'s ufunc at half its per-call cost on small arrays), and H
runs once over both rows.  A clip to [0, rmax] and then min or max with
p_crit is that clip, signed zeros included.  Each clip takes scalar
bounds: numpy may clip -0.0 to +0.0 where its bounds vary along the
inner loop, as one call with a bound per row does on a side view of a
batch.
The kernel's junction and edge minima, ``junction`` and the closed
forms break ties with ``first_min``/``first_max``: the first of equals,
as Python's ``min``/``max``.

The polygon evaluates its two branches together, segment k of each in
one set of calls: demand from the rising segments only, supply from the
falling ones only, segment j as slopes[j] * (p - px[j]) + hy[j] on
px[j] <= p < px[j+1], which is ``np.interp``'s own arithmetic.  The
shorter branch is padded with segments that start at +inf, which no
density reaches.  The first falling segment gives hy[ivert] at p_crit
exactly.  A vertex height is copied into its row under a mask only
where a formula misses it bit for bit, as ``__post_init__`` finds:
hy[ivert] at p_crit on the last rising segment, hy[-1] at rmax on the
last falling one, and a height of -0.0 at p = 0.  The README's triangle
needs no copy; its envelopes then take five array passes and no mask.
Each segment after a branch's first is written under a mask of the
densities that reach it.  Its H is demand up to p_crit and supply
beyond, so the kernel and the pointwise methods agree by construction,
and every value is bit for bit what ``np.interp`` gives.  Each segment
costs one affine pass over the array: with 2 segments (the README's
triangle) this takes about half the time of ``np.interp``'s per-element
search, at 4-5 segments about as long, beyond that longer (ROADMAP
records the crossover).  ``np.interp`` remains in ``roots``.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import ConfigError, DomainError, LevelError

if TYPE_CHECKING:
    from .junction import JunctionModel

ArrayLike = Union[float, np.ndarray]

#: Absolute slack allowed outside [0, rmax] (resp. [0, capacity]) before
#: a DomainError (resp. LevelError) is raised; values inside the slack
#: are clamped.
BOUNDARY_TOL = 1e-9


def float_or_array(out) -> ArrayLike:
    """A 0-d result as a float, anything else as an array: float in, float out."""
    out = np.asarray(out)
    return out if out.ndim else float(out)


def first_entry(values: np.ndarray, mask: np.ndarray) -> float:
    """The first entry of ``values`` where ``mask`` (same shape) holds."""
    return float(values[mask].flat[0])


def first_min(a, b) -> np.ndarray:
    """Entrywise min(a, b) as Python's ``min`` takes it, the first of equals: a unless b < a."""
    return np.where(b < a, b, a)


def first_max(a, b) -> np.ndarray:
    """Entrywise max(a, b) as Python's ``max`` takes it, the first of equals: a unless b > a."""
    return np.where(b > a, b, a)


class ConcaveFlux:
    """Base interface for a strictly concave flux on [0, rmax].

    Subclasses provide H (``_flow_into``), ``derivative``,
    ``inv_derivative``, ``roots`` and the candidate set for conjugate
    maximization; the envelopes and the truncated conjugate are generic,
    and a subclass may write ``envelopes`` its own way.
    """

    rmax: float

    # -- subclass surface -------------------------------------------------

    @property
    def p_crit(self) -> float:
        """Density of maximum flow."""
        raise NotImplementedError

    @property
    def capacity(self) -> float:
        """Maximum flow max H = H(p_crit)."""
        raise NotImplementedError

    @property
    def lipschitz_bound(self) -> float:
        """max |H'|, the fastest wave speed the flux can produce."""
        raise NotImplementedError

    @property
    def equality_tol(self) -> float:
        """Absolute tolerance for 'this flow equals that flow' tests."""
        raise NotImplementedError

    def eval(self, p: ArrayLike) -> ArrayLike:
        return float_or_array(self._flow(self.clamp(p)))

    def _flow_into(self, p: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Write H(p) into ``out`` for densities already inside [0, rmax]; unvalidated.

        ``work`` (same shape) may be overwritten, and may be ``p`` itself.
        Returns ``out``.
        """
        raise NotImplementedError

    def derivative(self, p: ArrayLike) -> ArrayLike:
        raise NotImplementedError

    def inv_derivative(self, v: ArrayLike) -> ArrayLike:
        """A density whose subdifferential of H contains slope v.

        For v above H'(0) returns 0, below H'(rmax) returns rmax; used to
        evaluate rarefaction fans.
        """
        raise NotImplementedError

    def roots(self, a: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """Smallest and largest densities with H(p) = a, a in [0, capacity]."""
        raise NotImplementedError

    def _conjugate_candidates(self, a: ArrayLike, v: np.ndarray) -> np.ndarray:
        """Candidates stacked on axis 0, containing the maximizer of -v*y + min(H(y), a).

        Shape (k, *broadcast(a, v)): one column of k candidates per (a, v).
        """
        raise NotImplementedError

    # -- generic operations -----------------------------------------------

    def clamp(self, p: ArrayLike, out: np.ndarray | None = None) -> ArrayLike:
        """Validate p against [0, rmax] (tolerance BOUNDARY_TOL) and clamp.

        With ``out`` (an array shaped like p) the clamped values are
        written there instead of into a new array.
        """
        arr = np.asarray(p, dtype=float)
        # fast path: one min/max pair; a NaN anywhere fails both comparisons
        if not (arr.size and arr.min() >= -BOUNDARY_TOL and arr.max() <= self.rmax + BOUNDARY_TOL):
            if not np.all(np.isfinite(arr)):
                raise DomainError("density must be finite")
            bad = (arr < -BOUNDARY_TOL) | (arr > self.rmax + BOUNDARY_TOL)
            if bad.any():
                raise DomainError(f"density {first_entry(arr, bad)} outside [0, {self.rmax}]")
        return float_or_array(np.clip(arr, 0.0, self.rmax, out=out))

    def clamp_level(self, a: ArrayLike) -> ArrayLike:
        """Validate flow levels against [0, capacity] and clamp (NaN passes through)."""
        arr = np.asarray(a, dtype=float)
        cap = self.capacity
        bad = (arr < -BOUNDARY_TOL) | (arr > cap * (1.0 + 1e-12) + BOUNDARY_TOL)
        if bad.any():
            a = first_entry(arr, bad)
            if a < 0.0:
                raise DomainError(f"flow level {a} is negative")
            raise LevelError(f"flow level {a} exceeds capacity {cap}")
        return float_or_array(np.clip(arr, 0.0, cap))

    def demand(self, p: ArrayLike) -> ArrayLike:
        """Nondecreasing envelope of H: H(p) up to p_crit, capacity beyond."""
        return float_or_array(self._flow(np.minimum(self.clamp(p), self.p_crit)))

    def supply(self, p: ArrayLike) -> ArrayLike:
        """Nonincreasing envelope of H: capacity up to p_crit, H(p) beyond."""
        return float_or_array(self._flow(np.maximum(self.clamp(p), self.p_crit)))

    def envelopes(self, values: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Write demand and supply of ``values`` into ``out[0]`` and ``out[1]``; unvalidated.

        ``values`` are densities inside [0, rmax] up to round-off; ``out``
        and ``work`` are shaped ``(2, *values.shape)``, ``work`` is
        overwritten, and ``values`` may be a row of ``out``.  Bit for bit
        what ``demand``/``supply`` give for the clamped values, but without
        validation: the inner loop of the schemes.  The demand branch
        clip(values, 0, p_crit) and the supply branch
        clip(values, p_crit, rmax) are clipped into the rows of ``work``,
        and H is evaluated once over both, into ``out``.  Allocates no
        float array; a polygon takes a boolean mask of both rows for each
        segment after a branch's first, and one of a row for each vertex
        height it copies in.
        """
        pc = self.p_crit
        values.clip(0.0, pc, out=work[0])
        values.clip(pc, self.rmax, out=work[1])
        self._flow_into(work, out, work)

    def _flow(self, p: ArrayLike) -> np.ndarray:
        """H of densities already inside [0, rmax], into a new array; unvalidated."""
        arr = np.asarray(p, dtype=float)
        return self._flow_into(arr, np.empty_like(arr), np.empty_like(arr))

    def truncated_conjugate_argmax(self, a: ArrayLike, v: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(value, maximizer) of y -> -v*y + min(H(y), a) over [0, rmax].

        The objective is concave, so its maximum sits at a boundary point,
        a kink (plateau edge or breakpoint), or an interior stationary
        point; the candidate set enumerates exactly those, and the first
        best candidate is taken.  ``a`` and ``v`` broadcast.
        """
        a = self.clamp_level(a)
        v = np.asarray(v, dtype=float)
        ys = self._conjugate_candidates(a, v)
        vals = -v * ys + np.minimum(self.eval(ys), a)
        i = np.argmax(vals, axis=0)[None]
        return float_or_array(np.take_along_axis(vals, i, 0)[0]), float_or_array(np.take_along_axis(ys, i, 0)[0])

    def truncated_conjugate(self, a: ArrayLike, v: ArrayLike) -> ArrayLike:
        """sup over y in [0, rmax] of -v*y + min(H(y), a)."""
        return self.truncated_conjugate_argmax(a, v)[0]


@dataclass(frozen=True)
class QuadraticFlux(ConcaveFlux):
    """H(p) = 4 * hmax * p * (rmax - p) / rmax**2 on [0, rmax]."""

    rmax: float
    hmax: float

    def __post_init__(self):
        if not (self.rmax > 0.0 and math.isfinite(self.rmax)):
            raise DomainError(f"rmax must be positive, got {self.rmax}")
        if not (self.hmax > 0.0 and math.isfinite(self.hmax)):
            raise DomainError(f"hmax must be positive, got {self.hmax}")

    @property
    def _coef(self) -> float:
        return 4.0 * self.hmax / (self.rmax * self.rmax)

    @property
    def p_crit(self) -> float:
        return 0.5 * self.rmax

    @property
    def capacity(self) -> float:
        return self.hmax

    @property
    def lipschitz_bound(self) -> float:
        return 4.0 * self.hmax / self.rmax

    @property
    def equality_tol(self) -> float:
        return 1e-12

    def _flow_into(self, p: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        # (coef * p) * (rmax - p), the evaluation order every frozen value was taken with
        np.multiply(self._coef, p, out=out)
        np.subtract(self.rmax, p, out=work)
        return np.multiply(out, work, out=out)

    def derivative(self, p: ArrayLike) -> ArrayLike:
        return float_or_array(self._coef * (self.rmax - 2.0 * self.clamp(p)))

    def inv_derivative(self, v: ArrayLike) -> ArrayLike:
        p = 0.5 * (self.rmax - np.asarray(v, dtype=float) / self._coef)
        return float_or_array(np.clip(p, 0.0, self.rmax))

    def roots(self, a: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        # stable form: p = rmax/2 * (1 -/+ sqrt(1 - a/hmax))
        s = np.sqrt(np.maximum(1.0 - self.clamp_level(a) / self.hmax, 0.0))
        return float_or_array(0.5 * self.rmax * (1.0 - s)), float_or_array(0.5 * self.rmax * (1.0 + s))

    def _conjugate_candidates(self, a: ArrayLike, v: np.ndarray) -> np.ndarray:
        lo, hi = self.roots(a)
        stat = np.clip(0.5 * (self.rmax - v / self._coef), 0.0, self.rmax)
        return np.stack(np.broadcast_arrays(0.0, self.rmax, lo, hi, stat))


@dataclass(frozen=True)
class PiecewiseLinearFlux(ConcaveFlux):
    """Concave polygon through ``points``; first point (0, 0), last (rmax, 0).

    Chord slopes must be strictly decreasing and nowhere zero, which
    forces positivity inside the interval and a unique vertex of maximum
    flow.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(h)) for (x, h) in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 3:
            raise DomainError("piecewise linear flux needs at least 3 points")
        px = np.array([x for x, _ in pts])
        hy = np.array([h for _, h in pts])
        if not (np.isfinite(px).all() and np.isfinite(hy).all()):
            raise DomainError(f"breakpoints must be finite, got {pts}")
        if px[0] != 0.0 or hy[0] != 0.0:
            raise DomainError("first breakpoint must be (0, 0)")
        if hy[-1] != 0.0 or px[-1] <= 0.0:
            raise DomainError("last breakpoint must be (rmax, 0) with rmax > 0")
        if np.any(np.diff(px) <= 0.0):
            raise DomainError("breakpoint densities must strictly increase")
        slopes = np.diff(hy) / np.diff(px)
        if np.any(np.diff(slopes) >= 0.0):
            raise DomainError("chord slopes must strictly decrease (strict concavity)")
        if np.any(slopes == 0.0):
            raise DomainError("zero-slope segment breaks the unique-maximizer requirement")
        object.__setattr__(self, "_px", px)
        object.__setattr__(self, "_hy", hy)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_ivert", int(np.argmax(hy)))
        # (px[j], slopes[j], hy[j]) of each segment as floats, for the envelopes' segment arithmetic
        segments = tuple(zip(px[:-1].tolist(), slopes.tolist(), hy[:-1].tolist()))
        object.__setattr__(self, "_segments", segments)
        # segment k of the rising and of the falling branch as (x, slope, h) columns of shape (2,),
        # the shorter branch padded with segments from +inf on
        iv = self._ivert
        pairs = itertools.zip_longest(segments[:iv], segments[iv:], fillvalue=(math.inf, 0.0, 0.0))
        object.__setattr__(self, "_stacked_segments", tuple(tuple(np.array(pair).T) for pair in pairs))
        # the vertex heights the envelopes copy in, as (row, height, density): a height of -0.0 at p = 0,
        # hy[ivert] at p_crit if the last rising segment misses it, hy[-1] at rmax if the last falling one does
        copies = [(0, hy[0], px[0])] if np.signbit(hy[0]) else []
        for row, (x, slope, h), p, end in ((0, segments[iv - 1], px[iv], hy[iv]), (1, segments[-1], px[-1], hy[-1])):
            if (slope * (p - x) + h).tobytes() != end.tobytes():
                copies.append((row, end, p))
        object.__setattr__(self, "_copies", tuple(copies))

    @property
    def rmax(self) -> float:  # type: ignore[override]
        return float(self._px[-1])

    @property
    def p_crit(self) -> float:
        return float(self._px[self._ivert])

    @property
    def capacity(self) -> float:
        return float(self._hy[self._ivert])

    @property
    def lipschitz_bound(self) -> float:
        return float(np.max(np.abs(self._slopes)))

    @property
    def equality_tol(self) -> float:
        return 1e-9

    def _flow_into(self, p: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        # H is the demand up to p_crit and the supply beyond it; ``work`` may be p itself, so the buffers are new
        flat = np.atleast_1d(p)  # the rows of a 0-d buffer would be scalars
        env, branches = np.empty((2, 2, *flat.shape))
        self.envelopes(flat, env, branches)
        demand, supply = env.reshape(2, *p.shape)
        out[...] = np.where(p > self.p_crit, supply, demand)
        return out

    def envelopes(self, values: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Demand from the rising segments, supply from the falling ones, as ``np.interp`` evaluates H.

        A density in [px[j], px[j+1]) of its branch takes
        slopes[j] * (p - px[j]) + hy[j], segment k of both branches in one
        set of calls.  A vertex height that this misses is copied in (see
        the module docstring), and a height of -0.0 at p = 0 is kept, as
        ``np.interp`` returns a breakpoint's height as it is.
        """
        pc = self.p_crit
        values.clip(0.0, pc, out=work[0])
        values.clip(pc, self.rmax, out=work[1])
        # the branch axis last, where the (2,) segment columns broadcast
        out_t, work_t = out.T, work.T
        for k, (x, slope, h) in enumerate(self._stacked_segments):
            # from its start density on: p in [px[j], px[j+1]) ends on segment j
            reached = True if k == 0 else np.greater_equal(work_t, x)
            # slope * (p - x) + h, the order of operations np.interp takes
            np.subtract(work_t, x, out=out_t, where=reached)
            np.multiply(slope, out_t, out=out_t, where=reached)
            np.add(out_t, h, out=out_t, where=reached)
        for row, height, p in self._copies:
            np.copyto(out[row], height, where=work[row] == p)

    def derivative(self, p: ArrayLike) -> ArrayLike:
        idx = np.clip(np.searchsorted(self._px, self.clamp(p), side="right") - 1, 0, len(self._slopes) - 1)
        return float_or_array(self._slopes[idx])

    def inv_derivative(self, v: ArrayLike) -> ArrayLike:
        # breakpoint whose subdifferential [slope_k, slope_{k-1}] contains v
        idx = np.searchsorted(-self._slopes, -np.asarray(v, dtype=float), side="left")
        return float_or_array(self._px[idx])

    def roots(self, a: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        a, iv = self.clamp_level(a), self._ivert
        lo = np.interp(a, self._hy[: iv + 1], self._px[: iv + 1])
        hi = np.interp(a, self._hy[iv:][::-1], self._px[iv:][::-1])
        return float_or_array(lo), float_or_array(hi)

    def _conjugate_candidates(self, a: ArrayLike, v: np.ndarray) -> np.ndarray:
        lo, hi = self.roots(a)
        # v only sets the shape: the breakpoints do not depend on it
        return np.stack(np.broadcast_arrays(*self._px, lo, hi, v)[:-1])


def config_float(value, path: str) -> float:
    """A number of a config document as a float: an int or a float, not a bool, and finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def flux_from_config(block: dict, path: str = "flux") -> ConcaveFlux:
    """Build a flux from its config dictionary.

    Shapes: ``{"kind": "quadratic", "rmax": R, "hmax": h}`` or
    ``{"kind": "piecewise_linear", "points": [[x, H], ...]}``; every
    parameter is a finite JSON number (``config_float``).
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected an object, got {type(block).__name__}")
    kind = block.get("kind")
    try:
        if kind == "quadratic":
            rmax, hmax = (config_float(block[key], f"{path}.{key}") for key in ("rmax", "hmax"))
            return QuadraticFlux(rmax=rmax, hmax=hmax)
        if kind == "piecewise_linear":
            where = f"{path}.points"
            pts = tuple((config_float(x, where), config_float(h, where)) for x, h in block["points"])
            return PiecewiseLinearFlux(points=pts)
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}: missing field") from exc
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raise ConfigError(f"{path}.kind: expected 'quadratic' or 'piecewise_linear', got {kind!r}")


class DatumShape(str, enum.Enum):
    """Canonical initial data built from the roots of a shared flow level.

    The phi shapes are continuous wedges (values of a potential); the psi
    shapes are their slope fields (densities).  ``*_hat`` puts the large
    root upstream and the small root downstream (roof wedge / step down),
    ``*_check`` swaps them (valley wedge / step up).
    """

    PHI_HAT = "phi_hat"
    PHI_CHECK = "phi_check"
    PSI_HAT = "psi_hat"
    PSI_CHECK = "psi_check"


@dataclass(frozen=True)
class CanonicalDatum:
    """A canonical shape at one flow level, or at an array of levels (one datum per entry)."""

    shape: DatumShape
    level: ArrayLike

    def __post_init__(self):
        object.__setattr__(self, "shape", DatumShape(self.shape))
        level = np.asarray(self.level, dtype=float)
        bad = ~((level >= 0.0) & np.isfinite(level))
        if bad.any():
            raise DomainError(f"datum level must be a finite nonnegative flow, got {first_entry(level, bad)}")
        object.__setattr__(self, "level", float_or_array(level))


def canonical_eval(datum: CanonicalDatum, junction: "JunctionModel", x: ArrayLike) -> ArrayLike:
    """Evaluate a canonical datum at position(s) x for the given junction.

    The level must not exceed the junction's joint capacity, otherwise one
    side has no density carrying that flow.  An array of levels
    broadcasts against x.
    """
    a = np.asarray(datum.level)
    high = a > junction.a_max * (1.0 + 1e-12) + BOUNDARY_TOL
    if high.any():
        raise LevelError(f"datum level {first_entry(a, high)} exceeds joint capacity {junction.a_max}")
    left_lo, left_hi = junction.left.roots(datum.level)
    right_lo, right_hi = junction.right.roots(datum.level)
    shape = datum.shape
    arr = np.asarray(x, dtype=float)
    if shape is DatumShape.PHI_HAT:
        out = np.where(arr <= 0.0, left_hi * arr, right_lo * arr)
    elif shape is DatumShape.PHI_CHECK:
        out = np.where(arr <= 0.0, left_lo * arr, right_hi * arr)
    elif shape is DatumShape.PSI_HAT:
        out = np.where(arr < 0.0, left_hi, right_lo)
    else:
        out = np.where(arr < 0.0, left_lo, right_hi)
    return float_or_array(out)
