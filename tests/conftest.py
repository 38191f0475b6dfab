"""Shared fixtures: small hand-analyzed problems, a tiny-instance sampler,
and seeded delays for the parallel runs' shared-bound store."""

import random
import time
from contextlib import contextmanager
from math import floor

import pytest

from biopt.algorithms import SharedBounds
from biopt.model import LinearConstraint, Problem, Relation, Sense, build_problem

# One line per release-gate criterion, filled in by tests/test_acceptance.py
# and replayed at the end of the run so the verdicts are visible in plain
# `pytest -v` output.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def cover() -> Problem:
    """min (x1, x2) s.t. x1 + x2 >= 3 on [0,3]^2.

    Front: (0,3), (1,2), (2,1), (3,0).  The sequential sweep needs five
    subproblem solves on it: four finds plus the closing infeasible probe.
    """
    return build_problem(
        num_vars=2,
        objectives=[(1, 0), (0, 1)],
        constraints=[LinearConstraint((1, 1), Relation.GE, 3)],
        var_bounds=[(0, 3), (0, 3)],
    )


@pytest.fixture
def knapsack() -> Problem:
    """max (3,1,4).x, (1,4,2).x s.t. (2,3,4).x <= 4, x binary.

    Feasible supports: {}, {1}, {2}, {3}.  User-sense front: (4,2), (1,4);
    internal-min front: (-4,-2), (-1,-4).
    """
    return build_problem(
        num_vars=3,
        objectives=[(3, 1, 4), (1, 4, 2)],
        constraints=[LinearConstraint((2, 3, 4), Relation.LE, 4)],
        var_bounds=[(0, 1)] * 3,
        sense=(Sense.MAX, Sense.MAX),
    )


@pytest.fixture
def three_outcomes() -> Problem:
    """Pick exactly one of three items; outcomes (1,5), (10,7), (12,1).

    (10,7) is dominated by (1,5), so the front is {(1,5), (12,1)} while the
    dominated outcome sits strictly between them in f1.  Splitting [1, 12]
    in two puts (10,7) alone in the slice [7, 12]: the slice's sweep must
    not return it, since only a point outside the slice dominates it.
    """
    return build_problem(
        num_vars=3,
        objectives=[(1, 10, 12), (5, 7, 1)],
        constraints=[LinearConstraint((1, 1, 1), Relation.EQ, 1)],
        var_bounds=[(0, 1)] * 3,
    )


def random_tiny_problem(rng: random.Random) -> Problem:
    """A small random bi-objective IP with a nonempty chance of infeasibility."""
    n = rng.randint(1, 4)
    bounds = []
    for _ in range(n):
        lo = rng.randint(-2, 2)
        bounds.append((lo, lo + rng.randint(0, 3)))
    m = rng.randint(0, 3)
    relations = [Relation.LE, Relation.GE, Relation.EQ]
    constraints = [
        LinearConstraint(
            tuple(rng.randint(-4, 4) for _ in range(n)),
            relations[rng.randrange(3)],
            rng.randint(-8, 8),
        )
        for _ in range(m)
    ]
    objectives = [
        [rng.randint(-6, 6) for _ in range(n)],
        [rng.randint(-6, 6) for _ in range(n)],
    ]
    return build_problem(n, objectives, constraints, bounds)


def tightened(x, bounds, pick):
    """Bounds with one variable's box cut to exclude its value in ``x``.

    A fractional value is branched on, down or up as ``pick`` says;
    otherwise the integral value of a variable with room to move is cut
    off.  Returns None when every variable is fixed.
    """
    fractional = [j for j, v in enumerate(x) if v.denominator != 1]
    if fractional:
        j = fractional[pick // 2 % len(fractional)]
        lo, hi = bounds[j]
        split = floor(x[j])
        box = (lo, split) if pick % 2 == 0 else (split + 1, hi)
    else:
        movable = [j for j, (lo, hi) in enumerate(bounds) if lo < hi]
        if not movable:
            return None
        j = movable[pick % len(movable)]
        lo, hi = bounds[j]
        v = int(x[j])
        box = (lo, v - 1) if v > lo else (v + 1, hi)
    return tuple(bounds[:j]) + (box,) + tuple(bounds[j + 1:])


@contextmanager
def delayed(seed: int, max_ms: float = 50.0):
    """Nap before every ``SharedBounds`` read and publish, within the block.

    Randomizes the interleaving of a parallel run's two workers, to test
    schedule independence.  Each worker naps from its own reproducible
    stream ``random.Random(seed * 1_000_003 + worker)`` of delays in
    [0, max_ms] milliseconds.  In meeting and in splitting, whose east
    slice is worker 1 and west slice worker 2, worker ``w`` publishes cell
    ``w`` and reads cell ``3 - w``, so ``publish(index, ...)`` draws from
    worker ``index``'s stream and ``read(index)`` from worker
    ``3 - index``'s.  The forked worker inherits the patched class and both
    fresh streams, and the run joins it before it returns, so give each
    run a block of its own.
    """
    streams = {worker: random.Random(seed * 1_000_003 + worker) for worker in (1, 2)}
    read, publish = SharedBounds.read, SharedBounds.publish

    def nap(worker: int) -> None:
        time.sleep(streams[worker].uniform(0.0, max_ms) / 1000.0)

    def napped_read(self, index):
        nap(3 - index)
        return read(self, index)

    def napped_publish(self, index, value):
        nap(index)
        publish(self, index, value)

    SharedBounds.read, SharedBounds.publish = napped_read, napped_publish
    try:
        yield
    finally:
        SharedBounds.read, SharedBounds.publish = read, publish
