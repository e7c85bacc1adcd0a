"""Fixed reference kernel that op times are divided by.

The host's CPU speed drifts by tens of percent over seconds, and the drift
hits an op and a kernel run right after it alike. Timing this kernel right
after each op and reporting op time in units of it cancels most of that
drift. The kernel is deterministic, does the same work on every call, and
imports nothing from densecode, so no change to the program can move it.

Its mix follows the program's two kinds of hot code: the Monte Carlo
samplers (random draws, compares, fancy indexing and ``np.add.at`` on
4096-element arrays) and the closed-form sweeps (scalar Python with many
tiny numpy calls per point).
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 4096
_POINTS_PER_REP = 12


def reference_kernel(reps: int) -> int:
    """Run `reps` fixed rounds of sampler- and sweep-like work; returns a
    checksum so that the work cannot be skipped."""
    rng = np.random.Generator(np.random.PCG64(1703_00804))
    cdf = np.cumsum(np.full((4, 4), 0.25), axis=1)
    counts = np.zeros((4, 4, 16), dtype=np.int64)
    grid = np.outer(np.arange(5), np.arange(5))
    coeffs = np.sqrt(np.array([0.1, 0.15, 0.2, 0.25, 0.3]))
    acc = 0.0
    for _ in range(reps):
        msg = rng.integers(0, 16, size=_BLOCK)
        j, k = msg // 4, msg % 4
        u = rng.random(size=_BLOCK)
        active = np.arange(_BLOCK)
        for offset in (0, 4, 8):
            ok = u[active] < 0.4
            done = active[ok]
            rows = (cdf[j[done]] <= rng.random(size=done.size)[:, None]).sum(axis=1)
            np.add.at(counts, (j[done], k[done], offset + np.minimum(rows, 3)), 1)
            active = active[~ok]
        for _ in range(_POINTS_PER_REP):
            amps = np.exp(2j * np.pi * grid / 5) @ coeffs
            probs = np.abs(amps) ** 2 / 5
            acc += sum(p * math.log2(p) for p in probs.tolist() if p > 1e-15)
    return int(counts.sum()) + int(abs(acc) * 1e6)
