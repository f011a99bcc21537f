"""Drift-normalised timing.

The host's CPU speed drifts by tens of percent within one process and
between processes, and pinning a CPU does not remove it.  Every timed
interval is therefore bracketed by a fixed stdlib-only reference loop and
rescaled to the speed at which that loop takes ``NOMINAL_S``.  The loop
never calls svlie, so no change to the program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median time of one reference_loop() call on the box the benchmark was
# tuned on (2-core x86-64, Python 3.11).  Normalised seconds are seconds
# at this reference speed.
NOMINAL_S = 0.0015

_STEPS = 250

# Cold starts slow down with the host differently from the loop: process
# creation and imports are kernel and file-system work.  They are
# normalised instead by a bare ``python -c pass`` start taken in the same
# round, rescaled to the speed at which that start takes NOMINAL_START_S.
# Over eight processes the median cold start read 0.77-1.12 of its overall
# median raw, 0.85-1.25 loop-normalised and 0.92-1.04 start-normalised.
NOMINAL_START_S = 0.050


def reference_loop() -> int:
    """Fraction arithmetic and dict updates, the mix svlie spends its time on."""
    acc: dict[int, Fraction] = {}
    x = Fraction(0)
    for i in range(_STEPS):
        x += Fraction(i % 7 - 3, i % 5 + 1)
        key = i & 31
        acc[key] = acc.get(key, 0) + x * Fraction(1, key + 1)
    return len(acc) + x.numerator % 7


def sample() -> float:
    """Seconds for one reference loop: the faster of two back-to-back runs,
    so a single interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Multiplier from raw seconds to normalised seconds for an interval
    bracketed by two reference samples."""
    return NOMINAL_S / ((before + after) / 2)
