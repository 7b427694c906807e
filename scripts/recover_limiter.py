#!/usr/bin/env python3
"""Recover the junction cap from solver runs alone, two independent ways.

For each configured cap the script evolves the canonical probe data and
reads the cap back from (a) the drain rate of the potential at the
junction node and (b) the trace fluxes of the density scheme, then
reports both estimates and their gap.

Usage:
    python3 scripts/recover_limiter.py [--dx 0.0025] [--caps 0 0.1 0.1875]
"""

from __future__ import annotations

import argparse

from junctionflow import (
    JunctionModel,
    QuadraticFlux,
    SemigroupHandle,
    identify_limiter_cl,
    identify_limiter_hj,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dx", type=float, default=1.0 / 400.0)
    ap.add_argument(
        "--caps",
        type=float,
        nargs="+",
        default=[0.0, 0.09375, 0.1875, 0.25],
        help="configured junction caps to recover",
    )
    args = ap.parse_args()

    flux = QuadraticFlux(rmax=1.0, hmax=0.25)
    print(f"{'configured':>12} {'potential probe':>16} {'density probe':>16} {'gap':>10}")
    for cap in args.caps:
        model = JunctionModel(flux, flux, cap)
        h_hj = SemigroupHandle("hj", model=model, dx=args.dx)
        h_cl = SemigroupHandle("cl", model=model, dx=args.dx)
        a_hj = identify_limiter_hj(h_hj)
        a_cl = identify_limiter_cl(h_cl)
        print(f"{cap:>12.6f} {a_hj:>16.10f} {a_cl:>16.10f} {abs(a_hj - a_cl):>10.2e}")


if __name__ == "__main__":
    main()
