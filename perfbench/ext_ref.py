"""Reference external semi-group for ``junctionflow verify --external-cl/--external-hj``.

Usage: python3 ext_ref.py {cl|hj} SCENARIO.json STATE_IN.csv T STATE_OUT.csv

The verifier appends the last three arguments (the snapshot protocol).
The model, CFL number and grid come from the scenario the audit itself
uses; the grid is rebuilt with ``Grid.from_domain`` exactly as the
verifier builds it, so the two bitwise checks (finite_speed, locality)
see the reference scheme bit for bit.  When PERFBENCH_SOLVE_LOG names a
file, one line "updates seconds" is appended for the solve.
"""

import os
import sys
import time

from junctionflow import Grid, hj_direct_solve, plan_steps, solve
from junctionflow.cli import parse_config
from junctionflow.formats import read_cell_csv, read_node_csv, write_cell_csv, write_node_csv

SCHEMES = {
    "cl": (read_cell_csv, solve, write_cell_csv, 0),
    "hj": (read_node_csv, hj_direct_solve, write_node_csv, 1),
}


def main(argv: list[str]) -> int:
    if len(argv) != 5 or argv[0] not in SCHEMES:
        print(__doc__, file=sys.stderr)
        return 2
    kind, config, src, t, dst = argv
    read, march, write, extra_points = SCHEMES[kind]
    t = float(t)
    cfg = parse_config(config)
    grid = Grid.from_domain(cfg.domain[0], cfg.domain[1], cfg.cells)
    state = read(src, grid)
    t0 = time.perf_counter()
    out = march(state, cfg.model, t, cfl=cfg.cfl, snapshot_times=[t])[-1]
    elapsed = time.perf_counter() - t0
    write(dst, out)
    log = os.environ.get("PERFBENCH_SOLVE_LOG")
    if log:
        steps, _ = plan_steps(state.time, t, cfg.cfl * grid.dx / cfg.model.lipschitz_bound)
        with open(log, "a") as fh:
            fh.write(f"{(grid.n_cells + extra_points) * steps} {elapsed!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
