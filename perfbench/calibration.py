"""Calibration loops: fixed work in numpy and Python that no junctionflow change touches.

The benchmark runs on a few cores of a shared host, each of whose CPUs
switches between speeds up to 1.7x apart, for seconds to minutes at a
time, as other tenants come and go.  A loop timed right before and right
after a unit says how fast the machine ran the unit; the unit's times are
rescaled by it to the speed at which the loop takes its reference time.
Each workload uses the loop whose work is like its own: interpreter and
call overhead on small arrays for the battery and for set-up, passes over
large arrays for the fine-grid march, and fresh interpreters for the
external audit, whose work runs in child processes.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_SMALL = np.linspace(-0.5, 1.5, 100)
_LARGE = np.linspace(-0.5, 1.5, 100_000)
_BUFFERS = (np.empty_like(_LARGE), np.empty_like(_LARGE))


def python_loop() -> float:
    """Seconds for 10,000 rounds of small-array numpy calls driven from Python."""
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(10_000):
        y = np.clip(_SMALL, 0.0, 1.0)
        if np.any(y < 0.0):
            acc += 1.0
        acc += float(np.minimum(y, 0.5).sum())
    return time.perf_counter() - t0


def array_loop() -> float:
    """Seconds for 300 rounds of clip, product, minimum and sum over 1e5-element arrays.

    The rounds write into buffers allocated once: freeing large temporaries
    would raise the allocator's mmap and trim thresholds and change how the
    workload's own temporaries are allocated.
    """
    y, z = _BUFFERS
    t0 = time.perf_counter()
    for _ in range(300):
        np.clip(_LARGE, 0.0, 1.0, out=y)
        np.multiply(y, y, out=z)
        np.subtract(y, z, out=z)
        np.minimum(z, 0.2, out=z)
        z.sum()
    return time.perf_counter() - t0


def spawn_loop() -> float:
    """Seconds to start two fresh interpreters, one after the other, that import numpy and exit."""
    t0 = time.perf_counter()
    for _ in range(2):
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


# name -> (loop, reference seconds): about the loop's median on the reference box,
# a 2-core Xeon VM.
LOOPS = {
    "python": (python_loop, 0.12),
    "arrays": (array_loop, 0.09),
    "spawn": (spawn_loop, 0.32),
}
