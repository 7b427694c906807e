"""The junction at x = 0: interface flux, admissible trace pairs, Riemann solutions.

A ``JunctionModel`` couples a left flux and a right flux through a flow
cap (the limiter A).  The flow actually crossing the junction when the
adjacent densities are (qL, qR) is

    min{A, demand_left(qL), supply_right(qR)},

the capped exchange of what the upstream road can send and the
downstream road can absorb.  A trace pair (q_minus, q_plus) is
*admissible* (a member of the germ of the junction) when both sides
carry the same flow and that flow equals the capped exchange of the
pair itself; admissible pairs are exactly the stationary junction
states.  ``riemann_traces`` resolves arbitrary adjacent states to the
admissible pair they relax to, and ``riemann_profile`` assembles the
full self-similar solution from classical single-flux Riemann fans.

The junction algebra works on arrays the way the flux methods do:
``junction_flux``, ``riemann_traces``, ``germ_contains``,
``kruzhkov_flux`` and ``germ_dissipative`` take floats or arrays that
broadcast against each other, and return a float (or bool) for scalar
input and an array otherwise, elementwise bit for bit the scalar call.
A ``TracePair``'s fields are then arrays.  ``classical_riemann`` and
``riemann_profile`` take an array of xi for one Riemann datum.  Every
validation runs on the whole array and reports the first offending entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LevelError
from .flux_models import ArrayLike, ConcaveFlux, first_max, first_min, float_or_array

#: Slack for wave-speed sign assertions (they hold exactly up to round-off).
_SPEED_TOL = 1e-9


@dataclass(frozen=True)
class JunctionModel:
    """Two concave fluxes glued at x = 0 under a flow cap ``limiter``."""

    left: ConcaveFlux
    right: ConcaveFlux
    limiter: float

    def __post_init__(self):
        a = float(self.limiter)
        amax = self.a_max
        if not (-1e-12 <= a <= amax * (1.0 + 1e-12) + 1e-12):  # written so that NaN fails too
            raise LevelError(f"limiter {a} outside [0, {amax}]")
        object.__setattr__(self, "limiter", min(max(a, 0.0), amax))

    @property
    def a_max(self) -> float:
        """Joint capacity: the largest flow both sides can carry."""
        return min(self.left.capacity, self.right.capacity)

    @property
    def lipschitz_bound(self) -> float:
        """Fastest wave speed either side can produce."""
        return max(self.left.lipschitz_bound, self.right.lipschitz_bound)

    @property
    def equality_tol(self) -> float:
        return max(self.left.equality_tol, self.right.equality_tol)


@dataclass(frozen=True)
class TracePair:
    """Adjacent one-sided states (left limit, right limit) and their flow.

    Floats for one Riemann problem, same-shape arrays for many.
    """

    q_minus: ArrayLike
    q_plus: ArrayLike
    flux_value: ArrayLike


def junction_flux(j: JunctionModel, q_left: ArrayLike, q_right: ArrayLike) -> ArrayLike:
    """Flow through the junction for adjacent densities (q_left, q_right).

    Ties go to the first of equals in the order cap, demand, supply, as
    Python's ``min`` and the scheme's kernel take them (so +0.0 beats -0.0).
    """
    return float_or_array(first_min(first_min(j.limiter, j.left.demand(q_left)), j.right.supply(q_right)))


def _unpack(pair) -> tuple[ArrayLike, ArrayLike]:
    qm, qp = (pair.q_minus, pair.q_plus) if isinstance(pair, TracePair) else pair
    return float_or_array(qm), float_or_array(qp)


def germ_contains(j: JunctionModel, pair, tol: float | None = None) -> bool | np.ndarray:
    """Whether (q_minus, q_plus) is an admissible (stationary) trace pair.

    True iff both side fluxes agree and equal the capped exchange
    junction_flux(j, q_minus, q_plus), all within ``tol`` (defaults to
    the coarser of the two fluxes' equality tolerances).  A bool for
    scalar states, a bool array for arrays of states.
    """
    if tol is None:
        tol = j.equality_tol
    qm, qp = _unpack(pair)
    fl = j.left.eval(qm)
    fr = j.right.eval(qp)
    fj = junction_flux(j, qm, qp)
    return (abs(fl - fr) <= tol) & (abs(fl - fj) <= tol)


def kruzhkov_flux(flux: ConcaveFlux, a: ArrayLike, b: ArrayLike) -> ArrayLike:
    """Entropy flux sign(a - b) * (H(a) - H(b)), exactly 0 where a == b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float_or_array(np.where(a == b, 0.0, np.copysign(1.0, a - b) * (flux.eval(a) - flux.eval(b))))


def germ_dissipative(j: JunctionModel, p1, p2) -> ArrayLike:
    """Entropy dissipation margin between two admissible trace pairs.

    Returns Phi_left(q1-, q2-) - Phi_right(q1+, q2+); admissibility of
    the junction coupling requires this to be >= 0 for every pair of
    germ members.  Raises if either pair fails ``germ_contains``.  Arrays
    of pairs broadcast: p1 as a column and p2 as a row give the matrix of
    all margins, each pair validated once.
    """
    for name, p in (("p1", p1), ("p2", p2)):
        qm, qp = np.broadcast_arrays(*_unpack(p))
        inside = germ_contains(j, (qm, qp))
        if not np.all(inside):
            k = int(np.argmin(inside))  # first non-member
            raise ValueError(f"{name}=({qm.flat[k]}, {qp.flat[k]}) is not an admissible trace pair")
    q1m, q1p = _unpack(p1)
    q2m, q2p = _unpack(p2)
    return kruzhkov_flux(j.left, q1m, q2m) - kruzhkov_flux(j.right, q1p, q2p)


def riemann_traces(j: JunctionModel, rho_left: ArrayLike, rho_right: ArrayLike) -> TracePair:
    """Admissible trace pair the junction Riemann problem relaxes to.

    With f the capped exchange of the data, the upstream trace keeps
    rho_left when it already carries f, otherwise it jams to the
    congested density carrying f; mirrored downstream.  This is the
    unique admissible choice whose left waves all have speed <= 0 and
    right waves speed >= 0.  A congested rho_left that carries f already
    is the congested root of f; it is kept as is, because the root that
    ``roots`` recomputes can land an ulp away and read as a shock.
    Arrays of data broadcast into arrays of traces.
    """
    rl = j.left.clamp(rho_left)
    rr = j.right.clamp(rho_right)
    f = junction_flux(j, rl, rr)

    keep_left = abs(j.left.eval(rl) - f) <= j.left.equality_tol
    keep_right = abs(j.right.eval(rr) - f) <= j.right.equality_tol
    q_minus = float_or_array(np.where(keep_left, rl, j.left.roots(f)[1]))
    q_plus = float_or_array(np.where(keep_right, rr, j.right.roots(f)[0]))

    _assert_wave_signs(j, rl, rr, q_minus, q_plus)
    return TracePair(q_minus=q_minus, q_plus=q_plus, flux_value=f)


def _assert_wave_signs(j, rl, rr, q_minus, q_plus):
    # Each wave is checked where it occurs (masks; empty ones pass).  A fan's
    # speed is taken an ulp inside it, so that a kink at its trace end (a
    # polygon vertex) counts with the slope on the fan's side.
    rl, rr, q_minus, q_plus = np.broadcast_arrays(rl, rr, q_minus, q_plus)
    # left-side wave between rl and q_minus must not move right
    up, down = rl < q_minus, rl > q_minus
    speed = (j.left.eval(q_minus[up]) - j.left.eval(rl[up])) / (q_minus[up] - rl[up])
    assert np.all(speed <= _SPEED_TOL), f"left shock speed {speed.max()} > 0"
    fan = j.left.derivative(np.nextafter(q_minus[down], rl[down]))
    assert np.all(fan <= _SPEED_TOL), "left fan leaks right"
    # right-side wave between q_plus and rr must not move left
    up, down = q_plus < rr, q_plus > rr
    speed = (j.right.eval(rr[up]) - j.right.eval(q_plus[up])) / (rr[up] - q_plus[up])
    assert np.all(speed >= -_SPEED_TOL), f"right shock speed {speed.min()} < 0"
    fan = j.right.derivative(np.nextafter(q_plus[down], rr[down]))
    assert np.all(fan >= -_SPEED_TOL), "right fan leaks left"


def classical_riemann(flux: ConcaveFlux, a: float, b: float, xi: ArrayLike) -> ArrayLike:
    """Entropy solution of the single-flux Riemann problem (a | b) at xi = x/t.

    For a concave flux an ascending jump (a < b) is an admissible shock
    with the chord speed; a descending jump opens a rarefaction fan
    ρ = (H')⁻¹(ξ) clamped to [b, a].  At a shock location the left state
    is returned (measure-zero convention).  xi may be an array.
    """
    a = flux.clamp(a)
    b = flux.clamp(b)
    xi = np.asarray(xi, dtype=float)
    if a == b:
        return float_or_array(np.full(xi.shape, a))
    if a < b:
        sigma = (flux.eval(b) - flux.eval(a)) / (b - a)
        return float_or_array(np.where(xi <= sigma, a, b))
    return float_or_array(first_min(a, first_max(b, flux.inv_derivative(xi))))


def riemann_profile(j: JunctionModel, rho_left: float, rho_right: float, xi: ArrayLike) -> ArrayLike:
    """Self-similar junction Riemann solution evaluated at xi = x/t.

    Left of the junction the profile is the classical fan between
    rho_left and the upstream trace; right of it, between the downstream
    trace and rho_right.  At xi == 0 the upstream trace is returned (the
    one-sided limits at the junction are the traces themselves).  xi may
    be an array: the traces are then resolved once for the whole profile.
    """
    traces = riemann_traces(j, rho_left, rho_right)
    xi = np.asarray(xi, dtype=float)
    left = classical_riemann(j.left, j.left.clamp(rho_left), traces.q_minus, xi)
    right = classical_riemann(j.right, traces.q_plus, j.right.clamp(rho_right), xi)
    return float_or_array(np.where(xi < 0.0, left, np.where(xi > 0.0, right, traces.q_minus)))
