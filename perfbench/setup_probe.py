"""Set-up as a user pays it, in a fresh process: import junctionflow, parse
each scenario config given on the command line, and build its model, grid
and initial datum.  Usage: python3 setup_probe.py CONFIG.json [...]"""

import sys

from junctionflow import cli

NODE_DATA = ("piecewise_linear",)

for path in sys.argv[1:]:
    cfg = cli.parse_config(path)
    model = cfg.model
    grid = cfg.build_grid()
    if cfg.datum is not None:
        realize = cli.realize_node_datum if cfg.datum.kind in NODE_DATA else cli.realize_cell_datum
        realize(cfg, grid)
