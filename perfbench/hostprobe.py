"""Fixed host-speed probe, run by the benchmark just before each timed run.

The shared host this benchmark was written on (a 2-vCPU Xeon VM) runs the
same code up to 2x slower for minutes at a time, with wall and CPU time
moving together.  Dividing each run's wall time by this probe's time,
taken just before it, removes most of that drift.  The work resembles the
program's hot paths (tiny numpy calls in a Python loop, list arithmetic)
but is the benchmark's own code, so no change to gamarket can move it.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 4000
# About the probe's median time on that host; end-to-end times are
# reported as if every run had seen the host speed this stands for.
NOMINAL_S = 0.10


def host_probe_s() -> float:
    """Seconds one fixed batch of probe work takes right now."""
    xs = np.linspace(0.1, 0.9, 50)
    w_in = np.linspace(-0.5, 0.5, 6)
    b_in = np.linspace(0.2, -0.2, 6)
    w_out = np.linspace(0.3, -0.3, 6)
    book = [[i, (7 * i) % 13] for i in range(64)]
    acc = 0.0
    t0 = time.perf_counter()
    for step in range(REPEATS):
        hidden = np.tanh(np.outer(xs, w_in) + b_in)
        delta = (2.0 / len(xs)) * (hidden @ w_out - xs)
        w_out = w_out - 1e-3 * (hidden.T @ delta)
        for entry in book:
            fill = min(entry[1], step % 5)
            acc += fill * 0.5 if fill else 0.0
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc + w_out.sum()):
        raise ArithmeticError("host probe diverged")
    return elapsed
