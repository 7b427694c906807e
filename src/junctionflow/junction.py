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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelError
from .flux_models import ArrayLike, ConcaveFlux

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
        if a < -1e-12 or a > amax * (1.0 + 1e-12) + 1e-12:
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
    """Adjacent one-sided states (left limit, right limit) and their flow."""

    q_minus: float
    q_plus: float
    flux_value: float


def junction_flux(j: JunctionModel, q_left: ArrayLike, q_right: ArrayLike) -> ArrayLike:
    """Flow through the junction for adjacent densities (q_left, q_right)."""
    d = j.left.demand(q_left)
    s = j.right.supply(q_right)
    out = np.minimum(j.limiter, np.minimum(d, s))
    return float(out) if np.ndim(out) == 0 else out


def _unpack(pair) -> tuple[float, float]:
    if isinstance(pair, TracePair):
        return pair.q_minus, pair.q_plus
    qm, qp = pair
    return float(qm), float(qp)


def germ_contains(j: JunctionModel, pair, tol: float | None = None) -> bool:
    """Whether (q_minus, q_plus) is an admissible (stationary) trace pair.

    True iff both side fluxes agree and equal the capped exchange
    junction_flux(j, q_minus, q_plus), all within ``tol`` (defaults to
    the coarser of the two fluxes' equality tolerances).
    """
    if tol is None:
        tol = j.equality_tol
    qm, qp = _unpack(pair)
    fl = j.left.eval(qm)
    fr = j.right.eval(qp)
    fj = junction_flux(j, qm, qp)
    return abs(fl - fr) <= tol and abs(fl - fj) <= tol


def kruzhkov_flux(flux: ConcaveFlux, a: float, b: float) -> float:
    """Entropy flux sign(a - b) * (H(a) - H(b))."""
    if a == b:
        return 0.0
    return math.copysign(1.0, a - b) * (flux.eval(a) - flux.eval(b))


def germ_dissipative(j: JunctionModel, p1, p2, tol: float | None = None) -> float:
    """Entropy dissipation margin between two admissible trace pairs.

    Returns Phi_left(q1-, q2-) - Phi_right(q1+, q2+); admissibility of
    the junction coupling requires this to be >= 0 for every pair of
    germ members.  Raises if either pair fails ``germ_contains``.
    """
    for name, p in (("p1", p1), ("p2", p2)):
        if not germ_contains(j, p, tol):
            qm, qp = _unpack(p)
            raise ValueError(f"{name}=({qm}, {qp}) is not an admissible trace pair")
    q1m, q1p = _unpack(p1)
    q2m, q2p = _unpack(p2)
    return kruzhkov_flux(j.left, q1m, q2m) - kruzhkov_flux(j.right, q1p, q2p)


def riemann_traces(j: JunctionModel, rho_left: float, rho_right: float) -> TracePair:
    """Admissible trace pair the junction Riemann problem relaxes to.

    With f the capped exchange of the data, the upstream trace keeps
    rho_left when it already carries f, otherwise it jams to the
    congested density carrying f; mirrored downstream.  This is the
    unique admissible choice whose left waves all have speed <= 0 and
    right waves speed >= 0.  A congested rho_left that carries f already
    is the congested root of f; it is kept as is, because the root that
    ``roots`` recomputes can land an ulp away and read as a shock.
    """
    rl = j.left.clamp(rho_left)
    rr = j.right.clamp(rho_right)
    f = junction_flux(j, rl, rr)

    if abs(j.left.eval(rl) - f) <= j.left.equality_tol:
        q_minus = rl
    else:
        q_minus = j.left.roots(f)[1]
    if abs(j.right.eval(rr) - f) <= j.right.equality_tol:
        q_plus = rr
    else:
        q_plus = j.right.roots(f)[0]

    _assert_wave_signs(j, rl, rr, q_minus, q_plus)
    return TracePair(q_minus=q_minus, q_plus=q_plus, flux_value=f)


def _assert_wave_signs(j, rl, rr, q_minus, q_plus):
    # left-side wave between rl and q_minus must not move right
    if rl < q_minus:
        speed = (j.left.eval(q_minus) - j.left.eval(rl)) / (q_minus - rl)
        assert speed <= _SPEED_TOL, f"left shock speed {speed} > 0"
    elif rl > q_minus:
        assert j.left.derivative(q_minus) <= _SPEED_TOL, "left fan leaks right"
    # right-side wave between q_plus and rr must not move left
    if q_plus < rr:
        speed = (j.right.eval(rr) - j.right.eval(q_plus)) / (rr - q_plus)
        assert speed >= -_SPEED_TOL, f"right shock speed {speed} < 0"
    elif q_plus > rr:
        assert j.right.derivative(q_plus) >= -_SPEED_TOL, "right fan leaks left"


def classical_riemann(flux: ConcaveFlux, a: float, b: float, xi: float) -> float:
    """Entropy solution of the single-flux Riemann problem (a | b) at xi = x/t.

    For a concave flux an ascending jump (a < b) is an admissible shock
    with the chord speed; a descending jump opens a rarefaction fan
    ρ = (H')⁻¹(ξ) clamped to [b, a].  At a shock location the left state
    is returned (measure-zero convention).
    """
    a = flux.clamp(a)
    b = flux.clamp(b)
    if a == b:
        return a
    if a < b:
        sigma = (flux.eval(b) - flux.eval(a)) / (b - a)
        return a if xi <= sigma else b
    fan = flux.inv_derivative(xi)
    return min(a, max(b, fan))


def riemann_profile(j: JunctionModel, rho_left: float, rho_right: float, xi: float) -> float:
    """Self-similar junction Riemann solution evaluated at xi = x/t.

    Left of the junction the profile is the classical fan between
    rho_left and the upstream trace; right of it, between the downstream
    trace and rho_right.  At xi == 0 the upstream trace is returned (the
    one-sided limits at the junction are the traces themselves).
    """
    traces = riemann_traces(j, rho_left, rho_right)
    if xi < 0.0:
        return classical_riemann(j.left, j.left.clamp(rho_left), traces.q_minus, xi)
    if xi > 0.0:
        return classical_riemann(j.right, traces.q_plus, j.right.clamp(rho_right), xi)
    return traces.q_minus
