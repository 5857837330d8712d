"""Machine-speed calibration for the cyclade benchmark.

On a shared VM the speed of one core swings by two times over seconds,
because of other tenants.  The benchmark therefore runs a fixed kernel of
``fractions.Fraction`` arithmetic, the same kind of work cyclade does,
between the calls it times, and scales each call's time by REFERENCE_S over
the mean of the kernel times measured just before and just after it.
Reported times
are seconds at the speed where the kernel takes REFERENCE_S; on an unloaded
core of the 2-vCPU Xeon (Sapphire Rapids, KVM) the figures were taken on,
that is close to real seconds.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.004

_OPERANDS = [Fraction(i, 7) for i in range(1, 60)]


def kernel() -> Fraction:
    total = Fraction(0)
    for x in _OPERANDS:
        for y in _OPERANDS[:20]:
            total += x * y
    return total


def sample() -> float:
    """Seconds one kernel run takes now, with no garbage collection in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def factors(samples: list) -> list:
    """Scale factors for the calls timed between consecutive samples."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(samples, samples[1:])]
