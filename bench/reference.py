"""The reference slice: a fixed numpy kernel that tells how fast the host
is running right now.

The box the benchmark runs on is shared: the same ``run_training`` call
takes anywhere from 0.57 s to 1.0 s within a minute, and the fastest call
of one 30-second window differs from the next window's by a quarter. CPU
time moves with wall time, so the slowdown is the core running slower, not
the process waiting. A slice of fixed work, timed between iterations of the
call being measured, slows down with it. Dividing a timing by the speed
factor of the slices taken during the same call (their mean time over
``NOMINAL_SLICE_NS``) gives the time at reference speed, which is what the
end-to-end metrics report.

The kernel does what the trainers do on a small scale: a dense product, a
``tanh`` layer, a Gram matrix and a small symmetric solve. Its arrays come
from a fixed seed, never from ``--seed``: it is a clock, not an input.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one slice on the host the baseline was taken on, in its usual
# state. Only ratios to it are used, so its exact value does not matter as
# long as it stays the same between the commits being compared.
NOMINAL_SLICE_NS = 400_000
# A slice runs after an iteration once this much iteration time has passed
# since the last slice.
SLICE_EVERY_NS = 5_000_000
_REPEATS = 2

_rng = np.random.default_rng(20240601)
_X = _rng.standard_normal((500, 8))
_W = 0.3 * _rng.standard_normal((8, 30))
_Y = _rng.standard_normal(500)
_EYE = np.eye(30)


def slice_ns() -> int:
    """Run the kernel once and return its wall time in nanoseconds."""
    start = time.perf_counter_ns()
    for _ in range(_REPEATS):
        hidden = np.tanh(_X @ _W)
        np.linalg.solve(hidden.T @ hidden + _EYE, hidden.T @ _Y)
    return time.perf_counter_ns() - start


def speed_factor(slices: list[int]) -> float:
    """How much slower than reference speed the host ran while ``slices``
    were taken: their mean time over the nominal slice time. The mean, not
    the median, because it is the time-weighted slowdown that stretched the
    timed work between the slices."""
    return sum(slices) / len(slices) / NOMINAL_SLICE_NS
