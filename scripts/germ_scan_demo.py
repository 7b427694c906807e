#!/usr/bin/env python3
"""Empirical discovery of the admissible junction states.

Sweeps a grid of piecewise-constant data (one value per side), evolves
each, and sorts them into stationary and evolving states by the drift
of their trace fluxes.  The stationary set printed at the end is the
numerically discovered germ of the configured cap; the scan also
cross-checks every classification against the closed-form predicate.

Usage:
    python3 scripts/germ_scan_demo.py [--cap 0.1875] [--grid-n 21]
"""

from __future__ import annotations

import argparse

from junctionflow import (
    JunctionModel,
    QuadraticFlux,
    SemigroupHandle,
    empirical_germ_scan,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cap", type=float, default=0.1875)
    ap.add_argument("--grid-n", type=int, default=21, help="states per side")
    ap.add_argument("--dx", type=float, default=1.0 / 200.0)
    ap.add_argument("--t-end", type=float, default=0.5)
    args = ap.parse_args()

    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    model = JunctionModel(flux, flux, args.cap)
    handle = SemigroupHandle("cl", model=model, dx=args.dx)
    scan = empirical_germ_scan(handle, grid_n=args.grid_n, t_end=args.t_end)

    print(f"cap estimate from probe run: {scan.limiter_estimate:.10f}")
    print(f"stationary pairs found: {len(scan.stationary)}")
    for pair in scan.stationary:
        print(f"  ({pair.q_minus:.4f}, {pair.q_plus:.4f})  flux {pair.flux_value:.6f}")
    print(f"evolving flux-matched pairs: {len(scan.evolving)}")
    if scan.misclassified:
        print(f"MISCLASSIFIED (scan vs closed form): {scan.misclassified}")
    else:
        print("closed-form predicate agrees with every empirical classification")
    print(scan.record.summary())


if __name__ == "__main__":
    main()
