"""Godunov finite-volume solver for two conservation laws coupled at x = 0.

The scheme is a first-order explicit conservative update with the
demand/supply (Godunov) flux in each half-line interior, the capped
junction flux at the interface sitting exactly at x = 0, and
zero-gradient copy cells at the two outer boundaries.  First order is a
feature here: the scheme is monotone, hence L1-contractive and
comparison-preserving, which is precisely what the verifier checks.

The grid places x = 0 on a cell interface, cells are uniform with a
shared width on both sides, and every update runs under the CFL bound
dt <= cfl * dx / L with L = max |H'| over both fluxes.  ``check_dx``
and ``Grid`` own the grid rule: the CLI builds one ``Grid`` per run,
and a verifier handle carries the one it is given.

``FluxKernel`` computes the interface fluxes: demand and supply once
per cell, each flux clipping its own two branches of the values.  The
node scheme of ``hj_solver`` steps with the same kernel applied to
slopes.  A march checks its datum's range once, at entry: under the
CFL bound the scheme is monotone, so its states stay inside [0, R] up
to the round-off that each step's branch clips absorb, and no step
checks again.
``_march_cells`` is the one density march, building a ``CellField``
only at snapshots; ``solve``, ``solve_batch`` (states of one grid as
the rows of one array, bit for bit their ``solve`` runs) and ``step``
(one leg of one step) are thin calls of it.  Two forks stay: one state
stays a 1-D array, whose junction and edge minima cost about 15 µs a
step less than as a (1, cells) array; and a batch of one is a call of
the module's ``solve``, the one name a benchmark tracer counts cell
updates in.  ``plan_march`` is the one step planner: both schemes,
the verifier's step counts and the CLI manifests read their legs from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, GridMismatchError, StepError
from .flux_models import CanonicalDatum, ConcaveFlux, DatumShape, canonical_eval, first_min
from .junction import JunctionModel


def check_dx(dx: float) -> float:
    """``dx`` if it is a cell width a grid can take."""
    if not (sys.float_info.min <= dx < math.inf):  # a subnormal dx does not fix the cell centers
        raise GridMismatchError(f"dx must be positive, finite and not subnormal, got {dx}")
    return dx


@dataclass(frozen=True)
class Grid:
    """Uniform two-sided grid with x = 0 exactly on a cell interface."""

    n_left: int
    n_right: int
    dx: float

    def __post_init__(self):
        if self.n_left < 1 or self.n_right < 1:
            raise GridMismatchError("need at least one cell on each side of the junction")
        check_dx(self.dx)
        if self.n_cells + 1 > np.iinfo(np.intp).max // np.dtype(float).itemsize:  # numpy refuses the node array
            raise GridMismatchError("too many cells for an array of the grid's nodes to hold")

    @classmethod
    def from_domain(cls, x_min: float, x_max: float, n_cells: int) -> "Grid":
        """Grid over [x_min, x_max] with n_cells cells, snapping 0 to an interface.

        dx is fixed by the requested domain; the split point is rounded to
        the nearest interface, which may shift the outer edges by less
        than one cell.  Callers can compare x_min/x_max with the result to
        report the adjustment.
        """
        if not x_min < 0.0 < x_max:
            raise GridMismatchError("the domain must contain 0 in its interior")
        if n_cells < 2:
            raise GridMismatchError("need at least 2 cells")
        dx = check_dx((x_max - x_min) / n_cells)
        n_left = int(round(-x_min / dx))
        n_left = min(max(n_left, 1), n_cells - 1)
        return cls(n_left=n_left, n_right=n_cells - n_left, dx=dx)

    @property
    def n_cells(self) -> int:
        return self.n_left + self.n_right

    @property
    def x_min(self) -> float:
        return -self.n_left * self.dx

    @property
    def x_max(self) -> float:
        return self.n_right * self.dx

    def cell_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def node_coords(self) -> np.ndarray:
        """Cell interfaces, length n_cells + 1, with 0.0 exactly at index n_left."""
        x = (np.arange(self.n_cells + 1) - self.n_left) * self.dx
        x[self.n_left] = 0.0
        return x


@dataclass
class CellField:
    """Per-cell densities on a Grid at a given time.

    The two flux-time integrals accumulate the flow through the outer
    edges since t = 0; they make mass accounting and the cumulative
    reconstruction of a potential possible without storing the whole
    time history.
    """

    grid: Grid
    values: np.ndarray
    time: float = 0.0
    left_flux_time_integral: float = 0.0
    right_flux_time_integral: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_cells,):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid with {self.grid.n_cells} cells"
            )

    def copy(self) -> "CellField":
        return replace(self, values=self.values.copy())


def field_from_function(grid: Grid, f: Callable[[np.ndarray], np.ndarray]) -> CellField:
    return CellField(grid=grid, values=np.asarray(f(grid.cell_centers()), dtype=float))


def riemann_field(grid: Grid, rho_left: float, rho_right: float) -> CellField:
    values = np.where(grid.cell_centers() < 0.0, float(rho_left), float(rho_right))
    return CellField(grid=grid, values=values)


def canonical_field(grid: Grid, j: JunctionModel, datum: CanonicalDatum) -> CellField:
    """Cell field sampling a step-shaped canonical datum at cell centers."""
    if datum.shape not in (DatumShape.PSI_HAT, DatumShape.PSI_CHECK):
        raise DomainError(f"{datum.shape.value} is node (potential) data, not cell data")
    return field_from_function(grid, lambda x: canonical_eval(datum, j, x))


def godunov_flux(flux: ConcaveFlux, a, b):
    """Godunov interface flux for a concave flux: min{demand(a), supply(b)}."""
    return np.minimum(flux.demand(a), flux.supply(b))


class FluxKernel:
    """Interface fluxes of a junction on a grid: the update shared by both schemes.

    A call hands ``values`` (densities, or the slopes of a potential)
    unclipped and without a range check to each distinct flux's
    ``envelopes``: the march checked its datum at entry, a monotone step
    leaves only round-off outside [0, R], and each flux clips its demand
    and supply branches itself.  Demand D and supply S are evaluated once
    per cell, into the rows of one ``(2, ..., cells)`` buffer, with a
    second such buffer for the branches: a junction with one flux on
    both sides takes all cells in one pass, any other one pass a side,
    on the ``[:, ..., side]`` views of the two buffers.  Interior
    interfaces carry min(D[:-1], S[1:]), the junction
    min(A, D_left[-1], S_right[0]), and each outer edge the Godunov
    flux min(D, S) of its cell against a copy of itself; with
    ``plain_edges`` the outer edges carry H of the edge value instead
    (the node scheme's arithmetic; the two differ by at most an ulp near
    p_crit), H being D up to p_crit and S beyond, chosen before the
    envelopes run, so ``values`` may be a row of the envelope buffer
    (``hj_solver`` keeps its slopes there).  The march between calls may
    use the branch buffer (``cl_solver`` keeps its increments there).
    The buffers are allocated once; per step a march allocates nothing
    for a quadratic, or for a polygon with one segment a branch that
    needs no copy of a vertex height (the README's triangle; see
    ``flux_models``).  Any other polygon takes one boolean mask at a
    time, for each segment after a branch's first and for each such
    copy.  The returned fluxes are the kernel's own buffer, overwritten
    by the next call.

    With ``batch_shape`` ``(batch,)`` the kernel takes ``(batch, cells)``
    values, one state a row, and works on the last axis; each row's
    fluxes are bit for bit those of the row alone, the junction and edge
    minima taking the first of equals (``first_min``, Python's ``min``).
    """

    def __init__(self, j: JunctionModel, grid: Grid, batch_shape: tuple[int, ...] = ()):
        self.j = j
        self.n_left = grid.n_left
        shape = (2, *batch_shape, grid.n_cells)
        # one block: as two allocations of their own, both start at one offset within a page,
        # and march-fine marched 4-5% fewer cells a second with a 0.3-0.45 MB higher peak RSS
        self._envelopes, self._work = np.empty((2, *shape))
        self._fluxes = np.empty((*batch_shape, grid.n_cells + 1))
        # views and index tuples built once: the inner loop uses them every step
        nl = self.n_left
        d, s = self._envelopes
        self._rows = d, s, d[..., :-1], s[..., 1:], self._fluxes[..., 1:-1]
        self._halves = ((j.left, np.s_[..., :nl]), (j.right, np.s_[..., nl:]))
        # one flux on both sides: the envelopes take all cells in one pass
        sides = ((j.left, (...,)),) if j.left == j.right else self._halves
        self._sides = tuple(
            (flux, side, self._envelopes[(slice(None), *side)], self._work[(slice(None), *side)])
            for flux, side in sides
        )

    def __call__(self, values: np.ndarray, plain_edges: bool = False) -> np.ndarray:
        j, nl, f = self.j, self.n_left, self._fluxes
        if plain_edges:
            # H(p) is D(p) up to p_crit and S(p) from there on, read before ``values`` can be overwritten
            first, last = (values[0], values[-1]) if values.ndim == 1 else (values[:, 0], values[:, -1])
            rising = first <= j.left.p_crit, last <= j.right.p_crit
        for flux, side, out, work in self._sides:
            flux.envelopes(values[side], out, work)
        d, s, d_inner, s_inner, f_inner = self._rows
        # every interior interface in one pass; the junction's entry is overwritten below
        np.minimum(d_inner, s_inner, out=f_inner)
        if values.ndim == 1:
            f[nl] = min(j.limiter, d[nl - 1], s[nl])
            if plain_edges:
                f[0] = d[0] if rising[0] else s[0]
                f[-1] = d[-1] if rising[1] else s[-1]
            else:
                f[0] = min(d[0], s[0])
                f[-1] = min(d[-1], s[-1])
            return f
        f[:, nl] = first_min(first_min(j.limiter, d[:, nl - 1]), s[:, nl])
        if plain_edges:
            f[:, 0] = np.where(rising[0], d[:, 0], s[:, 0])
            f[:, -1] = np.where(rising[1], d[:, -1], s[:, -1])
        else:
            f[:, 0] = first_min(d[:, 0], s[:, 0])
            f[:, -1] = first_min(d[:, -1], s[:, -1])
        return f


def step(state: CellField, j: JunctionModel, dt: float) -> CellField:
    """One conservative explicit update; requires dt * L <= dx."""
    dx = state.grid.dx
    L = j.lipschitz_bound
    if not (dt > 0.0 and math.isfinite(dt)):
        raise StepError(f"dt must be positive, got {dt}")
    if dt * L > dx * (1.0 + 1e-12):
        raise StepError(f"CFL violation: dt={dt} exceeds dx/L={dx / L}")
    return _march_cells([state], j, [Leg(state.time, state.time + dt, 1, dt)], state.values.copy())[0][0]


def plan_steps(t_from: float, t_to: float, dt_max: float) -> tuple[int, float]:
    """Number of equal steps and their size to march from t_from to t_to."""
    span = t_to - t_from
    if span <= 0.0:
        return 0, 0.0
    steps = span / dt_max
    # past 2**53 a float step count is not exact, so span / n would miss t_to; no such march ends anyway
    if not steps <= 2.0**53:
        raise StepError(f"cannot march {span!r} in steps of at most {dt_max!r}")
    n = max(1, math.ceil(steps - 1e-12))
    return n, span / n


def check_march(
    cfl: float, t_end: float, snapshot_times: Sequence[float] | None, t0: float = 0.0
) -> list[float]:
    """Validate a march from the datum's time t0; return its snapshot targets (default [t_end]).

    A march runs forwards only: t_end and every target lie in [t0, t_end].
    """
    if not (0.0 < cfl <= 1.0):
        raise StepError(f"cfl must lie in (0, 1], got {cfl}")
    if not (0.0 <= t_end < math.inf):
        raise StepError(f"t_end must be finite and nonnegative, got {t_end}")
    if not (t0 <= t_end):
        raise StepError(f"t_end={t_end} precedes the datum's time {t0}")
    targets = [float(t_end)] if snapshot_times is None else [float(t) for t in snapshot_times]
    if not all(t0 <= t <= t_end + 1e-12 for t in targets):
        raise StepError(f"snapshots {targets} outside [{t0:.17g}, t_end={t_end}]")
    if any(b < a for a, b in zip(targets, targets[1:])):
        raise StepError(f"snapshots {targets} must be nondecreasing")
    return targets


class Leg(NamedTuple):
    """One span of a march: n_steps equal steps of size dt from t_from to t_to."""

    t_from: float
    t_to: float
    n_steps: int
    dt: float


def plan_march(
    j: JunctionModel,
    dx: float,
    t_end: float,
    cfl: float,
    snapshot_times: Sequence[float] | None,
    t0: float = 0.0,
) -> list[Leg]:
    """Validate a march request and split it into one leg per snapshot target.

    Each leg divides its span into equal steps within the CFL bound
    dt <= cfl * dx / L, so every snapshot time is hit exactly.
    """
    dt_max = cfl * dx / j.lipschitz_bound
    legs, t_now = [], t0
    for target in check_march(cfl, t_end, snapshot_times, t0):
        legs.append(Leg(t_now, target, *plan_steps(t_now, target, dt_max)))
        t_now = target
    return legs


def solve(
    rho0: CellField,
    j: JunctionModel,
    t_end: float,
    cfl: float = 0.8,
    snapshot_times: Sequence[float] | None = None,
) -> list[CellField]:
    """March rho0 to t_end, returning copies at each requested snapshot time.

    Snapshot times must be nondecreasing and within [0, t_end]; they are
    hit exactly by dividing each span into equal CFL-compliant steps.
    When omitted, the single snapshot [t_end] is produced.  The datum is
    validated on entry, so a march of no steps rejects it too.
    """
    legs = plan_march(j, rho0.grid.dx, t_end, cfl, snapshot_times, t0=rho0.time)
    return _march_cells([rho0], j, legs, rho0.values.copy())[0]


def solve_batch(
    states: Sequence[CellField],
    j: JunctionModel,
    t_end: float,
    cfl: float = 0.8,
    snapshot_times: Sequence[float] | None = None,
) -> list[list[CellField]]:
    """``solve`` for each of ``states`` (one grid, one time), marched as one (batch, cells) array.

    Returns one snapshot list per state, bit for bit its ``solve`` run.
    Every state is validated on entry.  A batch of one is a ``solve``
    call (see the module docstring).
    """
    grid, t0 = batch_start(states)
    if len(states) == 1:
        return [solve(states[0], j, t_end, cfl, snapshot_times)]
    legs = plan_march(j, grid.dx, t_end, cfl, snapshot_times, t0=t0)
    return _march_cells(states, j, legs, np.stack([s.values for s in states]))


def _march_cells(states: Sequence[CellField], j: JunctionModel, legs: Sequence[Leg], v: np.ndarray):
    """Validate and march ``v``, the values of ``states`` (one 1-D array, or one a row), in place.

    The range check runs once, here, on the left halves and then the
    right halves; the steps only clip.  Returns one snapshot list per
    state, a snapshot at each leg's end.
    """
    grid = states[0].grid
    kernel = FluxKernel(j, grid, v.shape[:-1])
    # the kernel's branch rows are free outside its calls: one takes the entry clamp, then each step's increments
    dv = kernel._work[0]
    for flux, side in kernel._halves:
        flux.clamp(v[side], out=dv[side])
    dx = grid.dx
    right_of, left_of = np.s_[..., 1:], np.s_[..., :-1]
    if v.ndim == 1:
        # scalar edge fluxes for one state: arithmetic on 0-d arrays costs about a microsecond
        first, last, rows, listed = 0, -1, [v], lambda a: [a]
        left_int, right_int = states[0].left_flux_time_integral, states[0].right_flux_time_integral
    else:
        first, last, rows, listed = np.s_[:, 0], np.s_[:, -1], v, np.ndarray.tolist
        left_int, right_int = np.array([(s.left_flux_time_integral, s.right_flux_time_integral) for s in states]).T
    out: list[list[CellField]] = [[] for _ in states]
    for leg in legs:
        dt = leg.dt
        lam = dt / dx
        for _ in range(leg.n_steps):
            fluxes = kernel(v)
            np.subtract(fluxes[right_of], fluxes[left_of], out=dv)
            dv *= lam
            v -= dv
            left_int = left_int + dt * fluxes[first]
            right_int = right_int + dt * fluxes[last]
        for snaps, row, a, b in zip(out, rows, listed(left_int), listed(right_int)):
            snaps.append(CellField(grid, row.copy(), leg.t_to, a, b))
    return out


def batch_start(states: Sequence) -> tuple[Grid, float]:
    """The one grid and the one start time of a batch of states (cells or nodes)."""
    if not states:
        raise GridMismatchError("a batch needs at least one state")
    grid, t0 = states[0].grid, states[0].time
    for s in states:
        if s.grid != grid:
            raise GridMismatchError("the states of a batch live on different grids")
        if s.time != t0:
            raise StepError(f"the states of a batch start at different times, {t0!r} and {s.time!r}")
    return grid, t0


def mass(state: CellField) -> float:
    """Exactly rounded dx-weighted total mass."""
    return state.grid.dx * math.fsum(state.values.tolist())


def l1_distance(s1: CellField, s2: CellField) -> float:
    if s1.grid != s2.grid:
        raise GridMismatchError("fields live on different grids")
    return s1.grid.dx * float(np.sum(np.abs(s1.values - s2.values)))


def trace_estimate(state: CellField) -> tuple[float, float]:
    """Densities of the two cells adjacent to the junction (numerical traces)."""
    nl = state.grid.n_left
    return float(state.values[nl - 1]), float(state.values[nl])
