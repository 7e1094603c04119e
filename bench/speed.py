"""Machine-speed reference for the benchmark's end-to-end times.

The shared machine the benchmark runs on changes speed by 10-45% from one
second to the next and from one minute to the next.  CPU time moves with
wall time, so the process is not waiting off the CPU: the core itself runs
slower or faster.  Over whole runs that drift moved the medians of raw wall
times by more than any useful bound.

So the benchmark times a fixed pure-Python kernel right before and right
after every operation, on the same CPU as the operation (``run.py`` pins
itself and its children to one), and scales the operation's wall time by
``REFERENCE_S`` divided by the mean of those two kernel times.  The kernel
is written to run like the program's hot code (a Lentz continued fraction
for the incomplete beta function, with ``lgamma``, ``exp`` and ``log``), so
a slow phase slows both alike.  The kernel belongs to the benchmark, not to
workmix, so no change to workmix moves it.  Scaled times read as
milliseconds on a machine where the kernel takes ``REFERENCE_S``, about
what it takes on the machine the benchmark was built on in a calm phase.

Operations must stay short next to the machine's speed changes for the two
kernel samples to see the speed the operation ran at; the workloads keep
every operation under about a second.
"""

from __future__ import annotations

import math
import time

# Kernel time, in seconds, that scaled times are expressed at.
REFERENCE_S = 0.004
_KERNEL_TERMS = 600
_TINY = 1e-300


def _continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete beta continued fraction."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                   -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def kernel(terms: int = _KERNEL_TERMS) -> float:
    """A fixed amount of float work shaped like a Beta CDF evaluation."""
    values = []
    for k in range(terms):
        a = 1.0 + (k % 7) * 0.5
        b = 2.0 + (k % 5) * 0.75
        x = 0.05 + (k % 9) * 0.1
        log_front = (a * math.log(x) + b * math.log1p(-x)
                     - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
        values.append(math.exp(log_front) * _continued_fraction(a, b, x) / a)
    return sum(sorted(values))


def sample() -> float:
    """Wall seconds of one kernel pass."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` expressed at the reference speed, from the samples around it."""
    return wall * REFERENCE_S * 2.0 / (before + after)
