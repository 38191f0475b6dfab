"""The host's current speed, from a fixed pure-Python workload.

On a shared virtual machine the speed of the same pure-Python code drifts
by up to 45% between ten-minute periods, and a regression bound of 25%
cannot be held on raw times.  ``probe`` times a fixed workload that uses
the operations the solver spends its time on -- integer row operations
with exact division, ``Fraction`` arithmetic, list indexing and calls --
but none of biopt's code, so a change to biopt cannot move it.  A run
times the probe before and after each solve and scales the solve's times
by ``REFERENCE_S`` over the mean of the two: the times a run reports are
the times the solves would have taken on a host that runs the probe in
``REFERENCE_S``.  Over 24 s windows of a six-minute trace of alternating
knapsack-24 solves and probes, this cut the spread (interquartile distance
over median) of the per-window front time from 0.11 to 0.04.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# the median probe on the 2-core x86-64 virtual machine the first
# baseline was measured on (Python 3.11.7); it sets the scale only
REFERENCE_S = 0.09
SYSTEMS = 160  # linear systems per probe
SIZE = 10


def solve_system(seed: int) -> list[Fraction]:
    """Solve one seeded random integer system exactly.

    Fraction-free (Bareiss) elimination, then back substitution in
    ``Fraction``; a singular pivot gives 0 for its unknown.
    """
    rng = random.Random(seed)
    n = SIZE
    a = [[rng.randint(-40, 40) for _ in range(n + 1)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    break
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        s = Fraction(a[i][n]) - sum((a[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        x[i] = s / a[i][i] if a[i][i] else Fraction(0)
    return x


def probe() -> float:
    """Wall seconds of one fixed workload, about ``REFERENCE_S`` on the reference host."""
    start = time.perf_counter()
    for seed in range(SYSTEMS):
        solve_system(seed)
    return time.perf_counter() - start
