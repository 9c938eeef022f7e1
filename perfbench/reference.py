"""Reference kernels: fixed work timed beside each round of estimates.

An estimate's seconds divided by a kernel's seconds measured around it is a
cost that a shared machine's changing speed moves much less than either.
Nothing here calls the library under test, so a change to the library moves
the ratio by exactly its own effect. Changing a kernel changes the unit of
every cost measured against it.
"""

from __future__ import annotations

import time
from bisect import bisect_right

import numpy as np

_KERNEL_CDF = np.cumsum(np.random.default_rng(0).random(512)).tolist()
_KERNEL_ENERGIES = -(np.arange(65536, dtype=np.float64) % 25)


def draw_kernel() -> float:
    """Seconds for 3,000 draw-like steps: a Generator call, a bisect into a
    512-entry CDF and a dict update, as an exact oracle draw at a cached b."""
    rng = np.random.default_rng(12345)
    counts: dict[int, int] = {}
    start = time.perf_counter()
    for _ in range(3000):
        j = bisect_right(_KERNEL_CDF, rng.random() * _KERNEL_CDF[-1])
        counts[j] = counts.get(j, 0) + 1
    return time.perf_counter() - start


def cdf_kernel() -> float:
    """Seconds to build three 65,536-entry CDFs as Python lists, as an exact
    oracle draw at a fresh b on grid-4x4."""
    start = time.perf_counter()
    for b in (0.1, 0.2, 0.3):
        np.cumsum(np.exp(-b * _KERNEL_ENERGIES)).tolist()
    return time.perf_counter() - start
