"""Hamilton-Jacobi side of the junction: exact wedge solutions and two discrete routes.

States are potentials u on the grid nodes (cell interfaces, so x = 0 is
itself a node) whose one-sided slopes live in [0, R] on each side; the
density field of ``cl_solver`` is exactly the slope field of such a
potential.

Three independent ways to produce u(t) live here:

* closed-form evaluators for the canonical wedge data (roof and valley
  profiles built from the roots of a flow level), derived from the
  truncated conjugate of the fluxes;
* ``hj_from_cl``: cumulative integration of a Godunov density run, with
  the left-edge value advanced by the time integral of the left
  boundary flux (the discrete analogue of reading the potential off the
  conserved density);
* ``hj_direct_solve``: a monotone finite-difference scheme whose node
  at x = 0 enforces the capped exchange
  min{A, demand_left(backward slope), supply_right(forward slope)}
  pointwise.  Its node Hamiltonians are the interface fluxes of the
  slopes, so it steps u -= dt * F(diff(u) / dx) with the density
  scheme's ``FluxKernel``; only its two outer nodes differ, carrying
  H of their one slope rather than a copy-cell Godunov flux.
  It is a thin call of ``_march_nodes``, which a verifier handle also
  runs on many potentials of one grid as the rows of one array, bit for
  bit their single runs, keeping the 1-D fork of ``cl_solver``'s
  density march for the same reason.

The direct scheme's slope dynamics coincide with the Godunov update, so
the two discrete routes agree up to accumulated round-off.
``hj_from_cl`` steps no potential: it reads u off a density run by
cumulative sums, so it remains the independent route.  The mutual gap
of the two routes and their distance to the closed forms are what the
verifier and the acceptance suite measure.

The four closed forms (``exact_roof0_uncapped``, ``exact_roof0_capped``,
``exact_roof_drain``, ``exact_valley_capped``) take floats or arrays for
level, t and x, broadcast against each other: float in gives float out,
array in gives array out, each entry bit for bit the scalar call.  So a
whole grid of nodes, or a batch of (t, x, level) samples, is one call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .cl_solver import CellField, FluxKernel, Grid, Leg, plan_march
from .errors import DomainError, GridMismatchError
from .flux_models import (
    BOUNDARY_TOL, ArrayLike, CanonicalDatum, DatumShape, canonical_eval, first_entry, first_max, float_or_array,
)
from .junction import JunctionModel


@dataclass
class NodeField:
    """Potential values on the grid nodes at a given time."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells + 1,):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid with {self.grid.n_cells + 1} nodes"
            )

    def copy(self) -> "NodeField":
        return replace(self, values=self.values.copy())

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.grid.dx

    def value_at_zero(self) -> float:
        return float(self.values[self.grid.n_left])


def node_field_from_function(grid: Grid, f: Callable[[np.ndarray], np.ndarray]) -> NodeField:
    return NodeField(grid=grid, values=np.asarray(f(grid.node_coords()), dtype=float))


def canonical_node_field(grid: Grid, j: JunctionModel, datum: CanonicalDatum) -> NodeField:
    """Node field sampling a wedge-shaped canonical datum at the grid nodes."""
    if datum.shape not in (DatumShape.PHI_HAT, DatumShape.PHI_CHECK):
        raise DomainError(f"{datum.shape.value} is cell (density) data, not node data")
    return node_field_from_function(grid, lambda x: canonical_eval(datum, j, x))


def validate_lip(u: NodeField, j: JunctionModel) -> None:
    """Check the discrete Lip class: slopes within [-BOUNDARY_TOL, R + BOUNDARY_TOL] per side (NaN fails)."""
    p = u.slopes()
    nl = u.grid.n_left
    for side, flux in ((p[:nl], j.left), (p[nl:], j.right)):
        if side.size and not (side.min() >= -BOUNDARY_TOL and side.max() <= flux.rmax + BOUNDARY_TOL):
            raise DomainError(
                f"slopes span [{side.min()}, {side.max()}], outside [0, {flux.rmax}] beyond tolerance"
            )


def sup_distance(u1: NodeField, u2: NodeField) -> float:
    if u1.grid != u2.grid:
        raise GridMismatchError("fields live on different grids")
    return float(np.max(np.abs(u1.values - u2.values)))


# -- exact wedge solutions ------------------------------------------------


def _check_time(t: ArrayLike) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    bad = ~((t > 0.0) & np.isfinite(t))
    if bad.any():
        raise DomainError(f"time must be positive, got {first_entry(t, bad)}")
    return t


def exact_roof0_uncapped(j: JunctionModel, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """Solution at (t, x) from the level-0 roof datum with no junction cap.

    The datum is R_left * x left of 0 and 0 right of 0 (a full road
    meeting an empty one).  Outside the fan the datum is unchanged;
    inside, the value is -t * (conjugate of the side flux truncated at
    the joint capacity) evaluated at x/t.
    """
    t, x = _check_time(t), np.asarray(x, dtype=float)
    conj = np.where(x <= 0.0, j.left.truncated_conjugate(j.a_max, x / t), j.right.truncated_conjugate(j.a_max, x / t))
    out = np.where(x <= t * j.left.derivative(j.left.rmax), j.left.rmax * x, -t * conj)
    return float_or_array(np.where(x >= t * j.right.derivative(0.0), 0.0, out))


def exact_roof0_capped(j: JunctionModel, cap: ArrayLike, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """Solution at (t, x) from the level-0 roof datum under junction cap ``cap``.

    Around the junction the cap carves out a wedge draining at rate
    ``cap`` with the slopes of the level-``cap`` roof; outside that
    wedge the uncapped solution is unaffected.
    """
    t, x = _check_time(t), np.asarray(x, dtype=float)
    datum = CanonicalDatum(shape=DatumShape.PHI_HAT, level=cap)
    left_hi = j.left.roots(datum.level)[1]
    right_lo = j.right.roots(datum.level)[0]
    lo = t * j.left.derivative(left_hi)
    hi = t * j.right.derivative(right_lo)
    wedge = (lo <= x) & (x <= hi)
    return float_or_array(
        np.where(wedge, canonical_eval(datum, j, x) - t * datum.level, exact_roof0_uncapped(j, t, x))
    )


def exact_roof_drain(j: JunctionModel, level: ArrayLike, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """Roof datum at its own level drains uniformly: phi_hat_level(x) - t*level.

    The roof's slopes carry exactly ``level`` on both sides and the
    junction passes it, so the whole profile translates downward.
    """
    t = _check_time(t)
    datum = CanonicalDatum(shape=DatumShape.PHI_HAT, level=level)
    return float_or_array(canonical_eval(datum, j, x) - t * datum.level)


def exact_valley_capped(j: JunctionModel, level: ArrayLike, t: ArrayLike, x: ArrayLike) -> ArrayLike:
    """Solution from the valley datum of ``level`` under the model's cap.

    For level <= cap the valley is stationary up to uniform drain at its
    own rate; for level > cap the junction throttles a neighborhood of
    x = 0 down to the cap's roof wedge.  Both cases are the pointwise
    maximum of the two candidate drains (max of solutions is a solution
    for concave Hamiltonians).
    """
    t = _check_time(t)
    valley = CanonicalDatum(shape=DatumShape.PHI_CHECK, level=level)
    down = canonical_eval(valley, j, x) - t * valley.level
    return float_or_array(first_max(down, exact_roof_drain(j, j.limiter, t, x)))


# -- discrete evolutions ---------------------------------------------------


def hj_from_cl(cl_run: Sequence[CellField], u0: NodeField, j: JunctionModel) -> list[NodeField]:
    """Rebuild potentials from a Godunov density run by cumulative sums.

    The left-edge node follows u0(x_min) minus the accumulated flow
    through the left outer edge; interior nodes add dx-weighted partial
    sums of the densities.  Requires cl_run[0] to be the initial state
    at t = 0 with densities matching the slopes of u0.
    """
    if not cl_run:
        raise GridMismatchError("cl_run is empty")
    grid = u0.grid
    for s in cl_run:
        if s.grid != grid:
            raise GridMismatchError("cl_run and u0 live on different grids")
    first = cl_run[0]
    if first.time != 0.0:
        raise GridMismatchError("cl_run must begin with the initial state at t = 0")
    if float(np.max(np.abs(u0.slopes() - first.values))) > 1e-8:
        raise GridMismatchError("u0 slopes do not match the initial densities")

    out = []
    anchor = float(u0.values[0])
    for s in cl_run:
        u = np.empty(grid.n_cells + 1)
        u[0] = anchor - s.left_flux_time_integral
        u[1:] = u[0] + grid.dx * np.cumsum(s.values)
        out.append(NodeField(grid=grid, values=u, time=s.time))
    return out


def hj_direct_solve(
    u0: NodeField,
    j: JunctionModel,
    t_end: float,
    cfl: float = 0.8,
    snapshot_times: Sequence[float] | None = None,
) -> list[NodeField]:
    """March the monotone node scheme to t_end, snapshotting exactly like cl_solver.solve.

    Each node moves by the interface flux of ``cl_solver`` evaluated on
    the slopes: interior nodes by the Godunov Hamiltonian of their
    one-sided slopes, the junction node by the capped exchange, and the
    outer nodes by the plain flux of their single available slope.
    Slopes are validated against the Lip class (tolerance 1e-9, NaN
    rejected) on entry, so a march of no steps rejects a bad datum too;
    each step only clips their round-off, with no range check.
    """
    legs = plan_march(j, u0.grid.dx, t_end, cfl, snapshot_times, t0=u0.time)
    return _march_nodes([u0], j, legs, u0.values.copy())[0]


def _march_nodes(states: Sequence[NodeField], j: JunctionModel, legs: Sequence[Leg], u: np.ndarray):
    """``cl_solver._march_cells`` for potentials: Lip-validate ``states``, march their values ``u``."""
    for u0 in states:
        validate_lip(u0, j)
    grid = states[0].grid
    kernel = FluxKernel(j, grid, u.shape[:-1])
    # the slopes live in the kernel's demand row: each side's clips read them before H overwrites them
    slopes = kernel._envelopes[0]
    right_of, left_of = np.s_[..., 1:], np.s_[..., :-1]
    out: list[list[NodeField]] = [[] for _ in states]
    for leg in legs:
        for _ in range(leg.n_steps):
            np.subtract(u[right_of], u[left_of], out=slopes)
            slopes /= grid.dx
            h = kernel(slopes, plain_edges=True)
            h *= leg.dt
            u -= h
        for snaps, row in zip(out, [u] if u.ndim == 1 else u):
            snaps.append(NodeField(grid=grid, values=row.copy(), time=leg.t_to))
    return out
