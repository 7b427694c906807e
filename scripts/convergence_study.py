#!/usr/bin/env python3
"""Grid-refinement study against the exact junction Riemann solution.

Runs the finite-volume scheme for a pair of Riemann scenarios over a
ladder of resolutions, measures the L1 error against the self-similar
closed form, and prints the observed convergence order between
consecutive grids.

Usage:
    python3 scripts/convergence_study.py [--levels 5] [--t-end 0.5]
"""

from __future__ import annotations

import argparse

import numpy as np

from junctionflow import (
    Grid,
    JunctionModel,
    QuadraticFlux,
    riemann_field,
    riemann_profile,
    solve,
)


def l1_error(j: JunctionModel, rl: float, rr: float, n: int, t: float) -> float:
    grid = Grid.from_domain(-1.0, 1.0, n)
    out = solve(riemann_field(grid, rl, rr), j, t)[-1]
    xs = grid.cell_centers()
    exact = riemann_profile(j, rl, rr, xs / t)
    return float(np.sum(np.abs(out.values - exact)) * grid.dx)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=5, help="number of refinement levels")
    ap.add_argument("--coarsest", type=int, default=100, help="cells on the coarsest grid")
    ap.add_argument("--t-end", type=float, default=0.5)
    args = ap.parse_args()

    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    scenarios = [
        ("capped shock pair", JunctionModel(flux, flux, 0.1875), 0.5, 0.5),
        ("demand-limited", JunctionModel(flux, flux, 0.25), 0.2, 0.3),
        ("supply-limited", JunctionModel(flux, flux, 0.25), 0.6, 0.8),
    ]
    for label, j, rl, rr in scenarios:
        print(f"\n{label}: data ({rl}, {rr}), cap {j.limiter}, t = {args.t_end}")
        print(f"{'cells':>8} {'dx':>12} {'L1 error':>12} {'order':>8}")
        prev = None
        for lvl in range(args.levels):
            n = args.coarsest * 2**lvl
            err = l1_error(j, rl, rr, n, args.t_end)
            order = "" if prev is None else f"{np.log2(prev / err):8.2f}"
            print(f"{n:>8} {2.0 / n:>12.5f} {err:>12.3e} {order:>8}")
            prev = err


if __name__ == "__main__":
    main()
