"""Godunov finite-volume solver for two conservation laws coupled at x = 0.

The scheme is a first-order explicit conservative update with the
demand/supply (Godunov) flux in each half-line interior, the capped
junction flux at the interface sitting exactly at x = 0, and
zero-gradient copy cells at the two outer boundaries.  First order is a
feature here: the scheme is monotone, hence L1-contractive and
comparison-preserving, which is precisely what the verifier checks.

The grid places x = 0 on a cell interface, cells are uniform with a
shared width on both sides, and every update runs under the CFL bound
dt <= cfl * dx / L with L = max |H'| over both fluxes.

``FluxKernel`` computes the interface fluxes: each side validated and
clamped once per step, demand and supply once per cell.  The node
scheme of ``hj_solver`` steps with the same kernel applied to slopes.
``solve`` marches a bare array with it and builds a ``CellField`` only
at snapshots; ``step`` is the checked single update.  ``plan_march`` is
the one step planner: both schemes, the verifier's step counts and the
CLI manifests read their legs from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, GridMismatchError, StepError
from .flux_models import CanonicalDatum, ConcaveFlux, DatumShape, canonical_eval
from .junction import JunctionModel


@dataclass(frozen=True)
class Grid:
    """Uniform two-sided grid with x = 0 exactly on a cell interface."""

    n_left: int
    n_right: int
    dx: float

    def __post_init__(self):
        if self.n_left < 1 or self.n_right < 1:
            raise GridMismatchError("need at least one cell on each side of the junction")
        if not (self.dx > 0.0 and math.isfinite(self.dx)):
            raise GridMismatchError(f"dx must be positive, got {self.dx}")

    @classmethod
    def from_domain(cls, x_min: float, x_max: float, n_cells: int) -> "Grid":
        """Grid over [x_min, x_max] with n_cells cells, snapping 0 to an interface.

        dx is fixed by the requested domain; the split point is rounded to
        the nearest interface, which may shift the outer edges by less
        than one cell.  Callers can compare x_min/x_max with the result to
        report the adjustment.
        """
        if not x_min < 0.0 < x_max:
            raise GridMismatchError(f"domain [{x_min}, {x_max}] must contain 0 in its interior")
        if n_cells < 2:
            raise GridMismatchError("need at least 2 cells")
        dx = (x_max - x_min) / n_cells
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
        return CellField(
            grid=self.grid,
            values=self.values.copy(),
            time=self.time,
            left_flux_time_integral=self.left_flux_time_integral,
            right_flux_time_integral=self.right_flux_time_integral,
        )


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

    A call validates and clamps each side of ``values`` (densities, or
    the slopes of a potential) once, then evaluates demand D and supply
    S once per cell.  Interior interfaces carry min(D[:-1], S[1:]), the
    junction min(A, D_left[-1], S_right[0]), and each outer edge the
    Godunov flux min(D, S) of its cell against a copy of itself; with
    ``plain_edges`` the outer edges carry H of the edge value instead
    (the node scheme's arithmetic; the two differ by at most an ulp near
    p_crit).  Work arrays are allocated once, so a march allocates
    nothing of grid size per step; the returned fluxes are the kernel's
    own buffer, overwritten by the next call.
    """

    def __init__(self, j: JunctionModel, grid: Grid):
        self.j = j
        self.n_left = grid.n_left
        n = grid.n_cells
        self._clamped = np.empty(n)
        self._demand = np.empty(n)
        self._supply = np.empty(n)
        self._fluxes = np.empty(n + 1)

    def clamp(self, values: np.ndarray) -> np.ndarray:
        """Validate and clamp each side of ``values`` into the kernel's work buffer."""
        nl, p = self.n_left, self._clamped
        self.j.left.clamp(values[:nl], out=p[:nl])
        self.j.right.clamp(values[nl:], out=p[nl:])
        return p

    def __call__(self, values: np.ndarray, plain_edges: bool = False) -> np.ndarray:
        j, nl = self.j, self.n_left
        p, d, s, f = self.clamp(values), self._demand, self._supply, self._fluxes
        for flux, side in ((j.left, slice(0, nl)), (j.right, slice(nl, None))):
            flux.envelopes(p[side], d[side], s[side])
        np.minimum(d[: nl - 1], s[1:nl], out=f[1:nl])
        np.minimum(d[nl:-1], s[nl + 1 :], out=f[nl + 1 : -1])
        f[nl] = min(j.limiter, d[nl - 1], s[nl])
        if plain_edges:
            # H(p) is D(p) up to p_crit and S(p) from there on
            f[0] = d[0] if p[0] <= j.left.p_crit else s[0]
            f[-1] = d[-1] if p[-1] <= j.right.p_crit else s[-1]
        else:
            f[0] = min(d[0], s[0])
            f[-1] = min(d[-1], s[-1])
        return f


def step(state: CellField, j: JunctionModel, dt: float) -> CellField:
    """One conservative explicit update; requires dt * L <= dx."""
    dx = state.grid.dx
    L = j.lipschitz_bound
    if not (dt > 0.0 and math.isfinite(dt)):
        raise StepError(f"dt must be positive, got {dt}")
    if dt * L > dx * (1.0 + 1e-12):
        raise StepError(f"CFL violation: dt={dt} exceeds dx/L={dx / L}")
    fluxes = FluxKernel(j, state.grid)(state.values)
    new_values = state.values - (dt / dx) * np.diff(fluxes)
    return CellField(
        grid=state.grid,
        values=new_values,
        time=state.time + dt,
        left_flux_time_integral=state.left_flux_time_integral + dt * fluxes[0],
        right_flux_time_integral=state.right_flux_time_integral + dt * fluxes[-1],
    )


def plan_steps(t_from: float, t_to: float, dt_max: float) -> tuple[int, float]:
    """Number of equal steps and their size to march from t_from to t_to."""
    span = t_to - t_from
    if span <= 0.0:
        return 0, 0.0
    n = max(1, math.ceil(span / dt_max - 1e-12))
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
    grid = rho0.grid
    dx = grid.dx
    legs = plan_march(j, dx, t_end, cfl, snapshot_times, t0=rho0.time)
    kernel = FluxKernel(j, grid)
    kernel.clamp(rho0.values)
    v = rho0.values.copy()
    dv = np.empty_like(v)
    left_int, right_int = rho0.left_flux_time_integral, rho0.right_flux_time_integral
    out: list[CellField] = []
    for leg in legs:
        dt = leg.dt
        lam = dt / dx
        for _ in range(leg.n_steps):
            fluxes = kernel(v)
            np.subtract(fluxes[1:], fluxes[:-1], out=dv)
            dv *= lam
            v -= dv
            left_int = left_int + dt * fluxes[0]
            right_int = right_int + dt * fluxes[-1]
        out.append(CellField(grid, v.copy(), leg.t_to, left_int, right_int))
    return out


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
