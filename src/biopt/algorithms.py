"""Pareto-set enumeration: sequential sweep and two parallel variants.

All three algorithms walk the non-dominated staircase with one sweep,
``_sweep``: it repeatedly lexicographically minimizes under a strict cap on
one objective and tightens the cap to the value just found.

* ``sequential_boip`` — one worker sweeps west to east: minimize (f1, f2)
  under f2 < l2, tighten l2 to the f2 just found, repeat until infeasible.
  Exactly one subproblem per front point plus the terminating infeasible
  solve.
* ``splitting_boip`` — the f1 range [f1min, f1max] (obtained from the two
  endpoint lexicographic solves) is cut into integer slices that hold
  similar shares of the front (``_knee_slices``).  Each worker sweeps its slice ``[lo, hi]`` east to west: minimize
  (f2, f1) under f1 < cap, starting from ``cap = hi + 1`` (``f1max`` for
  the last slice, whose east end is already known), and stops right after
  the first find with f1 < lo.  Any point dominating a find would satisfy
  the same cap and win the solve, so every find is a global front point;
  the last find of each slice is the first of its western neighbour.  The
  first slice stops when it re-finds the west endpoint, so no slice ends
  on an infeasible solve.  The merge deduplicates by outcome and applies
  no dominance filter.
* ``meeting_boip`` — two workers sweep from opposite ends, each bounding
  its own trailing objective, and additionally pruning with the *other*
  worker's latest published bound (read fresh before every solve,
  published right after every find).  The workers stop where the sweeps
  meet.  Bounds only ever tighten, so stale reads cost duplicated work
  near the meeting point but never correctness: the union of the two
  prefixes is the complete front under every interleaving.

Every algorithm ends in ``_finish``: its front is the union of its parts'
finds (the sweeps, plus splitting's two endpoint solves), deduplicated by
outcome without any dominance filtering — a dominated point would crash
the staircase validation and is treated as a solver bug — and its
``RunStats`` sums their solve counts and ``Work``.

The parallel workers are forked processes, the only way CPython runs them
in parallel, except splitting's west slice: the calling process, which has
just solved the endpoints on that slice's backend, sweeps it itself while
the other slices run forked.  ``SharedBounds`` is the only mutable state
the meeting workers share.  It lives in shared memory, and each cell is
owned by one writer and enforces monotone non-increase.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from biopt.errors import BioptError, BoundRegression
from biopt.ipsolve import BranchAndBoundBackend, ExtraConstraint, SolverBackend, Work
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
    OutcomeVector,
    ParetoSet,
    Problem,
    Relation,
    Solution,
)
from biopt.simplex import solve_lp

# int64 sentinel for "no bound yet"; published bounds must stay well below it
_NO_BOUND = 2**62
_BOUND_RANGE = 2**61


class SharedBounds:
    """The pair (l1, l2) of monotone non-increasing objective caps.

    Each cell is written by exactly one worker and read by the other.
    Reads are cheap and may be stale; they never fabricate values.  Writes
    must not increase a cell — the store enforces min-merge by rejecting
    regressions as hard errors, since the owning sweep only ever tightens
    its own bound and a regression means a logic bug somewhere.

    Backed by shared memory, so forked worker processes see each other's
    writes.
    """

    def __init__(self) -> None:
        self._cells = (
            multiprocessing.Value("q", _NO_BOUND),
            multiprocessing.Value("q", _NO_BOUND),
        )

    def _cell(self, index: int):
        if index not in (1, 2):
            raise ValueError("bound index must be 1 or 2")
        return self._cells[index - 1]

    def read(self, index: int) -> Optional[int]:
        """Current cap on objective ``index``; None while unset."""
        cell = self._cell(index)
        with cell.get_lock():
            value = cell.value
        return None if value >= _NO_BOUND else value

    def publish(self, index: int, value: int) -> None:
        """Tighten the cap on objective ``index`` to ``value``."""
        if not isinstance(value, int):
            raise TypeError("bounds are integers")
        if abs(value) >= _BOUND_RANGE:
            raise BioptError(f"bound {value} outside the shared-store range")
        cell = self._cell(index)
        with cell.get_lock():
            if value > cell.value:
                raise BoundRegression(
                    f"bound l{index} would increase from {cell.value} to {value}"
                )
            cell.value = value

    @property
    def l1(self) -> Optional[int]:
        return self.read(1)

    @property
    def l2(self) -> Optional[int]:
        return self.read(2)


@dataclass(frozen=True)
class DelaySpec:
    """Deterministic random sleeps injected before every store access.

    Used to randomize the interleaving of the meeting workers when testing
    schedule independence: each worker draws its own reproducible stream of
    delays in [0, max_ms] milliseconds from ``seed``.
    """

    seed: int
    max_ms: float = 50.0

    def sleeper(self, worker: int) -> Callable[[], None]:
        rng = random.Random(self.seed * 1_000_003 + worker)

        def nap() -> None:
            time.sleep(rng.uniform(0.0, self.max_ms) / 1000.0)

        return nap


@dataclass(frozen=True)
class RunStats:
    """Work accounting for one enumeration run.

    ``work`` sums the ``Work`` of every IP solve of the run over its
    workers.
    """

    feasible_solves: int
    infeasible_solves: int
    worker_elapsed: tuple[float, ...]
    pareto_size: int
    work: Work = Work()

    @property
    def ip_solves(self) -> int:
        return self.feasible_solves + self.infeasible_solves


@dataclass(frozen=True)
class _SweepOutcome:
    """One part of a run, a worker's sweep or splitting's endpoint solves:
    found solutions plus its local accounting."""

    solutions: tuple[Solution, ...]
    feasible: int
    infeasible: int
    elapsed: float
    work: Work


def _default_backends(n: int) -> tuple[SolverBackend, ...]:
    return tuple(BranchAndBoundBackend() for _ in range(n))


# ---------------------------------------------------------------------------
# sequential
# ---------------------------------------------------------------------------

def sequential_boip(
    problem: Problem, backend: Optional[SolverBackend] = None
) -> tuple[ParetoSet, RunStats]:
    """Enumerate the complete front with the single-worker epsilon sweep."""
    engine = backend if backend is not None else BranchAndBoundBackend()
    sweep = _sweep(problem, engine, own=2)
    return _finish((sweep,), (sweep.elapsed,))


def _sweep(
    problem: Problem,
    backend: SolverBackend,
    own: int,
    cap: Optional[int] = None,
    stop: Optional[int] = None,
    store: Optional[SharedBounds] = None,
    delays: Optional[DelaySpec] = None,
    check: Optional[Callable[[], None]] = None,
) -> _SweepOutcome:
    """The core recursion: lex-minimize under a tightening strict cap on f_own.

    ``own=2`` runs order (f1, f2) capping f2, walking the front west to
    east; ``own=1`` runs (f2, f1) capping f1, walking it east to west.
    Every find tightens ``cap`` to its own objective value.  With no
    ``cap`` the sweep starts from one that every point of the variable box
    meets, so its first solve already carries the cap row and the next
    solve's root LP restarts from that solve's.  The sweep ends on an
    infeasible solve, or once ``cap`` is below ``stop``: right after the
    first find below it, or at once if it starts there.  With a
    ``store`` it re-reads the other objective's cap before every solve and
    publishes its own after every find, napping from
    ``delays.sleeper(own)`` before each store access.  It calls ``check``,
    if given, before each solve.
    """
    order = ObjectiveOrder.F1_FIRST if own == 2 else ObjectiveOrder.F2_FIRST
    other = 3 - own
    nap = delays.sleeper(own) if delays is not None else None
    start = time.perf_counter()
    if cap is None:
        cap = 1 + sum(
            max(c * lo, c * hi)
            for c, (lo, hi) in zip(problem.objective(own), problem.var_bounds)
        )
    found: list[Solution] = []
    feasible = infeasible = 0
    work = Work()
    while stop is None or cap >= stop:
        if check is not None:
            check()
        extras = [ExtraConstraint(own, cap)]
        if store is not None:
            if nap is not None:
                nap()
            other_cap = store.read(other)
            if other_cap is not None:
                extras.append(ExtraConstraint(other, other_cap))
        res = backend.solve_lex(problem, order, extras)
        work += res.work
        if not res.is_optimal:
            infeasible += 1
            break
        assert res.solution is not None
        feasible += 1
        found.append(res.solution)
        cap = res.solution.outcome.component(own)
        if store is not None:
            if nap is not None:
                nap()
            store.publish(own, cap)
    elapsed = time.perf_counter() - start
    return _SweepOutcome(tuple(found), feasible, infeasible, elapsed, work)


def _union(*groups: Sequence[Solution]) -> ParetoSet:
    """The found solutions deduplicated by outcome, in staircase order.

    A later group's representative wins a collision.  No dominance filter
    is applied: every solution must already be a front point, and the
    staircase validation in ParetoSet is a hard check of that.
    """
    by_outcome: dict[OutcomeVector, Solution] = {}
    for group in groups:
        for sol in group:
            by_outcome[sol.outcome] = sol
    ordered = sorted(by_outcome.values(), key=lambda s: s.outcome.as_tuple())
    return ParetoSet(tuple(ordered))


def _finish(
    parts: Sequence[_SweepOutcome], elapsed: tuple[float, ...]
) -> tuple[ParetoSet, RunStats]:
    """The front and stats of a run: the ``_union`` of the parts' finds,
    their solve counts and ``Work`` summed, and the workers' ``elapsed``."""
    front = _union(*(part.solutions for part in parts))
    stats = RunStats(
        feasible_solves=sum(part.feasible for part in parts),
        infeasible_solves=sum(part.infeasible for part in parts),
        worker_elapsed=elapsed,
        pareto_size=len(front),
        work=sum((part.work for part in parts), Work()),
    )
    return front, stats


# ---------------------------------------------------------------------------
# range splitting
# ---------------------------------------------------------------------------

def _slices(f1_min: int, f1_max: int, t: int) -> tuple[tuple[int, int], ...]:
    """Cut [f1_min, f1_max] into ``t`` near-equal inclusive integer slices.

    Each of the first t-1 slices spans w = floor(range/t) values; the last
    absorbs the remainder, so the slices always partition the range.  A
    slice with lo > hi is empty (when the range has fewer values than t).
    """
    width = (f1_max - f1_min + 1) // t
    return tuple(
        (f1_min + i * width, f1_min + (i + 1) * width - 1) for i in range(t - 1)
    ) + ((f1_min + (t - 1) * width, f1_max),)


def _knee_slices(
    problem: Problem, west: OutcomeVector, east: OutcomeVector, t: int
) -> tuple[tuple[int, int], ...]:
    """Cut [west.f1, east.f1] into ``t`` slices with similar shares of the
    front between the two endpoints.

    Scale the endpoints' box to the unit square, with ``u`` the scaled f1
    and ``v`` the scaled f2: the front runs from (0, 1) to (1, 0), and up
    to a point (u, v) its L1 length is ``u + 1 - v``, so the line
    ``u - v = 2k/t - 1`` marks the k-th of ``t`` equal parts.  A front that
    bulges toward the ideal point crosses that line between two estimates:
    east of where the LP relaxation's front crosses it (the least f1 of
    the relaxation on the line's east side, one cold LP), and west of where
    the chord between the endpoints crosses it (``u = k/t``, the
    equal-width cut).  Cut k lands halfway between them.  Every slice
    keeps at least one value; a range of fewer than ``t`` values is cut by
    ``_slices``.
    """
    f1_min, f1_max = west.f1, east.f1
    even = _slices(f1_min, f1_max, t)
    if f1_max - f1_min + 1 < t:
        return even
    r1, r2 = f1_max - f1_min, west.f2 - east.f2
    c1, c2 = problem.objective(1), problem.objective(2)
    # t*r2*(f1 - f1_min) - t*r1*(f2 - east.f2) >= (2k - t)*r1*r2
    coeffs = tuple(t * (r2 * a - r1 * b) for a, b in zip(c1, c2))
    base = t * (r2 * f1_min - r1 * east.f2)
    bounds = [f1_min - 1]
    for k in range(1, t):
        row = LinearConstraint(coeffs, Relation.GE, (2 * k - t) * r1 * r2 + base)
        lp = solve_lp(c1, (*problem.constraints, row), problem.var_bounds)
        chord = even[k - 1][1]
        # the east endpoint meets every row, so the LP is feasible
        assert lp.objective is not None
        cut = (math.floor(lp.objective) + chord) // 2
        bounds.append(min(max(cut, bounds[-1] + 1), f1_max - t + k))
    bounds.append(f1_max)
    return tuple((lo + 1, hi) for lo, hi in zip(bounds, bounds[1:]))


def splitting_boip(
    problem: Problem,
    backends: Optional[Sequence[SolverBackend]] = None,
    t: int = 2,
    executor: str = "process",
) -> tuple[ParetoSet, RunStats]:
    """Enumerate the front by splitting the f1 range across ``t`` workers.

    The range [f1min, f1max] comes from the two lexicographic endpoint
    solves, run here on the last backend: f1min from the (f1, f2) optimum,
    f1max from the (f2, f1) optimum.  Each slice ``[lo, hi]`` of it is
    swept east to west under a strict f1 cap, so every find is a global
    front point; the union with the two endpoint solutions needs no
    dominance filter.  The endpoint solves count in the run's solves and
    work, but not in ``worker_elapsed``, which lists the slices from west
    to east.

    The backends take the slices from east to west, so the last one, warm
    from the endpoint solves, takes the west slice and sweeps it here (the
    next slice east, when that one is empty), while the other slices run
    on forked workers.  It keeps the root LPs and incumbent pool of all its
    solves afterwards.  It already solved the endpoints here, so a backend
    that kills its process stops the caller either way.
    """
    _check_executor(executor)
    if t < 1:
        raise ValueError("worker count must be positive")
    engines = tuple(backends) if backends is not None else _default_backends(t)
    if len(engines) != t:
        raise ValueError(f"expected {t} backends, got {len(engines)}")
    began = time.perf_counter()
    west = engines[-1].solve_lex(problem, ObjectiveOrder.F1_FIRST)
    if not west.is_optimal:
        ends = _SweepOutcome((), 0, 1, time.perf_counter() - began, west.work)
        return _finish((ends,), ())
    east = engines[-1].solve_lex(problem, ObjectiveOrder.F2_FIRST)
    assert west.solution is not None and east.solution is not None
    ends = _SweepOutcome(
        (west.solution, east.solution),
        2,
        0,
        time.perf_counter() - began,
        west.work + east.work,
    )

    f1_min, f1_max = west.solution.outcome.f1, east.solution.outcome.f1
    slices = _knee_slices(problem, west.solution.outcome, east.solution.outcome, t)
    jobs = []
    for (lo, hi), engine in zip(reversed(slices), engines):
        if lo <= hi:
            # the east endpoint is known, so the last slice starts west of
            # it; the first slice stops as soon as it re-finds the west one
            cap = f1_max if hi == f1_max else hi + 1
            jobs.append((_sweep, (problem, engine, 1, cap, max(lo, f1_min + 1))))
    sweeps = _run_parallel(jobs, here=True)[::-1]  # west to east
    done = iter(sweeps)
    elapsed = tuple(next(done).elapsed if lo <= hi else 0.0 for lo, hi in slices)
    return _finish((ends, *sweeps), elapsed)


# ---------------------------------------------------------------------------
# meeting
# ---------------------------------------------------------------------------

def meeting_boip(
    problem: Problem,
    backends: Optional[Sequence[SolverBackend]] = None,
    bounds: Optional[SharedBounds] = None,
    executor: str = "process",
    delays: Optional[DelaySpec] = None,
) -> tuple[ParetoSet, RunStats]:
    """Enumerate the front with two opposed sweeps sharing monotone bounds.

    The union of the two harvests, deduplicated by outcome, is the complete
    front under every read/write interleaving; worker 2's representative is
    kept when both workers find the same outcome.  No dominance filter is
    applied — the staircase validation in ParetoSet doubles as a hard check
    of that guarantee.
    """
    _check_executor(executor)
    engines = tuple(backends) if backends is not None else _default_backends(2)
    if len(engines) != 2:
        raise ValueError("meeting needs exactly two backends")
    store = bounds if bounds is not None else SharedBounds()
    if store.l1 is not None or store.l2 is not None:
        raise ValueError("meeting needs a fresh SharedBounds store")
    jobs = [
        (_sweep, (problem, engines[0], 1, None, None, store, delays)),
        (_sweep, (problem, engines[1], 2, None, None, store, delays)),
    ]
    sweeps = _run_parallel(jobs)
    return _finish(sweeps, tuple(sweep.elapsed for sweep in sweeps))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# Every enumeration algorithm by name, called as ``run(problem)``.
RUNNERS: dict[str, Callable[[Problem], tuple[ParetoSet, RunStats]]] = {
    "sequential": sequential_boip,
    "splitting": splitting_boip,
    "meeting": meeting_boip,
}


# ---------------------------------------------------------------------------
# worker execution
# ---------------------------------------------------------------------------

def _check_executor(executor: str) -> None:
    # workers only ever run as forked processes; the keyword stays for
    # callers that still pass executor="process"
    if executor != "process":
        raise ValueError(f"unknown executor {executor!r} (only 'process')")


def _pipe_runner(conn, fn, args) -> None:
    try:
        conn.send(("ok", fn(*args)))
    except BaseException:  # noqa: BLE001 — the parent re-raises with context
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _run_parallel(jobs: Sequence[tuple], here: bool = False) -> list:
    """Run (fn, args) jobs on forked worker processes; propagate failures.

    With ``here`` the last job runs in this process instead, called with a
    ``check`` keyword that polls the workers' result pipes without
    blocking.  The first failure to arrive, a worker's error or its exit
    without a result, is raised at once, also from ``check``; an exception
    of this process's own job propagates as it is.  Whichever way the call
    ends, the workers are terminated unless all have reported, and joined,
    so none outlives it.
    """
    # imported on first use, as ctx.Pipe does, to keep `import biopt` cheap
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    procs = []
    pending = {}  # result pipe -> job index
    results: list = [None] * len(jobs)

    def collect(ready) -> None:
        for conn in ready:
            i = pending.pop(conn)
            try:
                tag, payload = conn.recv()
            except EOFError:
                tag, payload = "error", "worker exited without reporting"
            finally:
                conn.close()
            if tag == "error":
                raise BioptError(f"worker failed:\n{payload}")
            results[i] = payload

    finished = False
    try:
        forked = jobs[:-1] if here else jobs
        for i, (fn, args) in enumerate(forked):
            parent, child = ctx.Pipe(duplex=False)
            pending[parent] = i
            proc = ctx.Process(target=_pipe_runner, args=(child, fn, args))
            proc.start()
            child.close()
            procs.append(proc)
        if here and jobs:
            fn, args = jobs[-1]
            results[-1] = fn(*args, check=lambda: collect(wait(list(pending), 0)))
        while pending:
            collect(wait(list(pending)))
        finished = True
    finally:
        for conn in pending:
            conn.close()
        for proc in procs:
            if not finished:
                proc.terminate()
            proc.join()
    return results
