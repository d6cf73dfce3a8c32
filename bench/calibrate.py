"""Speed normalisation for a shared, unsteady CPU.

The cores of the machine this benchmark was tuned on switch, every few
seconds, between a fast phase and one about 1.5 times slower, whatever runs
on them.  Raw op times therefore mostly measure the phase, not twotree.  The
worker pins itself (and the CLI processes it starts) to one core, times a
fixed kernel of the benchmark's own code next to the ops, and reports each
op time scaled by NOMINAL_S / (kernel time around that op): the time the op
would have taken in a phase where the kernel takes NOMINAL_S.  The kernel
mixes what twotree spends its time on (interpreter dispatch, big-integer
and Fraction arithmetic, allocation), and never calls twotree.  Raw wall
times are kept in the result files next to the normalised ones.
"""

from __future__ import annotations

import os
from fractions import Fraction
from time import perf_counter

# Kernel time on an idle core of the tuning machine (2-vCPU x86-64 VM,
# Python 3.11); it only fixes the unit of the normalised times.
NOMINAL_S = 0.0011
EVERY_S = 0.05


def pin_to_one_core() -> None:
    """Keep this process and its children on one core, so the kernel sees their phase."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _kernel() -> None:
    a, b = 0, 1
    for _ in range(2500):
        a, b = b, a + b
    q = Fraction(0)
    for i in range(1, 80):
        q += Fraction(a % (1000 + i), b % (997 + i) + 1)
    total = 0
    for i in range(8000):
        total += i * i
    table = {str(i): i for i in range(1000)}
    del table, total, q


def sample() -> float:
    """Kernel time now: the faster of two runs, which drops an interrupt hit."""
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel samples `before` and `after`, normalised."""
    return seconds * NOMINAL_S * 2 / (before + after)
