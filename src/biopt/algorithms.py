"""Pareto-set enumeration: sequential sweep and two parallel variants.

All three algorithms walk the non-dominated staircase with one sweep,
``_sweep``: it repeatedly lexicographically minimizes under a strict cap on
one objective and tightens the cap to the value just found.

* ``sequential_boip`` — one worker sweeps west to east: minimize (f1, f2)
  under f2 < l2, tighten l2 to the f2 just found, repeat until infeasible.
  Exactly one subproblem per front point plus the terminating infeasible
  solve.
* ``meeting_boip`` — two workers sweep from opposite ends, each bounding
  its own trailing objective, and additionally pruning with the *other*
  worker's latest published bound (read fresh before every solve,
  published right after every find).  The workers stop where the sweeps
  meet.  Every find is a strict-cap lexicographic optimum, so a point
  dominating it would satisfy the same caps and win the solve: every find
  is a global front point.  Bounds only ever tighten, and a cap read from
  the store excludes only points the other worker has already found, so
  stale reads cost duplicated work near the meeting point but never
  correctness: the union of the two prefixes is the complete front under
  every interleaving.
* ``splitting_boip`` — meeting with a fixed seam.  The f1 range
  [f1min, f1max], from the two endpoint lexicographic solves, is cut into
  a west and an east slice that hold similar shares of the front
  (``_knee_cut``).  The east slice is meeting's worker 1 started west of
  the east endpoint, and stops right after its first find at or west of
  the cut: that find is ``W``, the front point of greatest f1 at or below
  the cut.  The west slice is meeting's worker 2 under the fixed cap
  f1 <= cut.  Both also carry the fixed cap f2 < the west endpoint's f2,
  which every other front point meets, and both exchange caps through the
  store by meeting's rule, so meeting's argument covers them; a late read
  costs at most one repeated find of ``W``.

Every algorithm ends in ``_finish``: its front is the union of its parts'
finds (the sweeps, plus splitting's two endpoint solves), deduplicated by
outcome without any dominance filtering — a dominated point would crash
the staircase validation and is treated as a solver bug — and its
``RunStats`` sums their solve counts and ``Work``.

Each parallel run forks worker 1 in one worker process, the only way
CPython runs two sweeps in parallel, and runs worker 2 in the calling
process; splitting's worker 2, the west slice, runs on the backend that
has just solved the endpoints here.  ``_fork_beside`` runs the pair; each
job is a ``_sweep`` with its arguments bound.  A ``SharedBounds`` store,
one per parallel run, is the only mutable state the two share.  It lives
in shared memory, and each cell is owned by one writer and enforces
monotone non-increase.

``biopt.bench.ALGORITHMS`` is the one table of these three algorithms and
the brute-force oracle: name, command-line spelling, worker count and run.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from biopt.errors import BioptError, BoundRegression
from biopt.ipsolve import BranchAndBoundBackend, Caps, LexResult, SolverBackend, Work
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

    Backed by two int64 cells of one anonymous shared mapping, so forked
    worker processes see each other's writes, and one lock, so no read
    sees a half-written cell.
    """

    def __init__(self) -> None:
        # imported on first use, to keep `import biopt` cheap
        import mmap

        self._cells = memoryview(mmap.mmap(-1, 16)).cast("q")
        self._cells[0] = self._cells[1] = _NO_BOUND
        self._lock = multiprocessing.get_context("fork").Lock()

    @staticmethod
    def _slot(index: int) -> int:
        if index not in (1, 2):
            raise ValueError("bound index must be 1 or 2")
        return index - 1

    def read(self, index: int) -> Optional[int]:
        """Current cap on objective ``index``; None while unset."""
        slot = self._slot(index)
        with self._lock:
            value = self._cells[slot]
        return None if value >= _NO_BOUND else value

    def publish(self, index: int, value: int) -> None:
        """Tighten the cap on objective ``index`` to ``value``."""
        if not isinstance(value, int):
            raise TypeError("bounds are integers")
        if abs(value) >= _BOUND_RANGE:
            raise BioptError(f"bound {value} outside the shared-store range")
        slot = self._slot(index)
        with self._lock:
            if value > self._cells[slot]:
                raise BoundRegression(
                    f"bound l{index} would increase from {self._cells[slot]} to {value}"
                )
            self._cells[slot] = value


def _offer(store: SharedBounds, index: int, value: int) -> None:
    """Publish ``value`` to ``store`` when the store can hold it.

    A cap that is never published costs its reader work, never a point:
    every reader must already cope with caps that arrive late.
    """
    if abs(value) < _BOUND_RANGE:
        store.publish(index, value)


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
    """One worker's sweep: found solutions plus its local accounting."""

    solutions: tuple[Solution, ...]  # one per feasible solve
    infeasible: int
    elapsed: float
    work: Work


def _default_backends() -> tuple[SolverBackend, ...]:
    return (BranchAndBoundBackend(), BranchAndBoundBackend())


# ---------------------------------------------------------------------------
# sequential
# ---------------------------------------------------------------------------

def sequential_boip(
    problem: Problem, backend: Optional[SolverBackend] = None
) -> tuple[ParetoSet, RunStats]:
    """Enumerate the complete front with the single-worker epsilon sweep."""
    engine = backend if backend is not None else BranchAndBoundBackend()
    return _finish((_sweep(problem, engine, own=2),))


def _sweep(
    problem: Problem,
    backend: SolverBackend,
    own: int,
    *,
    caps: Caps = (None, None),
    stop: Optional[int] = None,
    store: Optional[SharedBounds] = None,
    check: Optional[Callable[[], None]] = None,
) -> _SweepOutcome:
    """The core recursion: lex-minimize under a tightening strict cap on f_own.

    ``own=2`` runs order (f1, f2) capping f2, walking the front west to
    east; ``own=1`` runs (f2, f1) capping f1, walking it east to west.
    ``caps`` are the strict (f1, f2) caps of its first solve.  Every find
    tightens the own cap to its own objective value.  With no own cap the
    sweep starts from one that every point of the variable box meets, so
    its first solve already carries the cap row and the next solve's root
    LP restarts from that solve's.  The other objective's cap stays fixed.
    The sweep ends on an infeasible solve, or once the own cap is below
    ``stop``: right after the first find below it, or at once if it starts
    there.  With a ``store`` it re-reads the other objective's cap before
    every solve, and uses it where it is tighter than the fixed one, and
    publishes its own after every find.  A value outside the store's range
    is not published; its reader just goes without that cap.  It calls
    ``check``, if given, before each solve.
    """
    order = ObjectiveOrder.F1_FIRST if own == 2 else ObjectiveOrder.F2_FIRST
    other = 3 - own
    start = time.perf_counter()
    cap, fixed = caps[own - 1], caps[other - 1]
    if cap is None:
        cap = 1 + sum(
            max(c * lo, c * hi)
            for c, (lo, hi) in zip(problem.objective(own), problem.var_bounds)
        )
    found: list[Solution] = []
    infeasible = 0
    work = Work()
    while stop is None or cap >= stop:
        if check is not None:
            check()
        other_cap = fixed
        if store is not None:
            read = store.read(other)
            if read is not None and (other_cap is None or read < other_cap):
                other_cap = read
        pair = (cap, other_cap) if own == 1 else (other_cap, cap)
        res = backend.solve_lex(problem, order, pair)
        work += res.work
        if res.solution is None:
            infeasible += 1
            break
        found.append(res.solution)
        cap = res.solution.outcome.component(own)
        if store is not None:
            _offer(store, own, cap)
    elapsed = time.perf_counter() - start
    return _SweepOutcome(tuple(found), infeasible, elapsed, work)


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
    sweeps: Sequence[_SweepOutcome], ends: Sequence[LexResult] = ()
) -> tuple[ParetoSet, RunStats]:
    """The front and stats of a run: the ``_union`` of the finds of
    splitting's endpoint solves ``ends`` and of the ``sweeps``, in that
    order, their solve counts and ``Work`` summed, and the sweeps'
    ``elapsed`` as ``worker_elapsed``."""
    found = tuple(end.solution for end in ends if end.solution is not None)
    front = _union(found, *(sweep.solutions for sweep in sweeps))
    stats = RunStats(
        feasible_solves=len(found) + sum(len(sweep.solutions) for sweep in sweeps),
        infeasible_solves=len(ends) - len(found)
        + sum(sweep.infeasible for sweep in sweeps),
        worker_elapsed=tuple(sweep.elapsed for sweep in sweeps),
        pareto_size=len(front),
        work=sum((part.work for part in (*ends, *sweeps)), Work()),
    )
    return front, stats


# ---------------------------------------------------------------------------
# range splitting
# ---------------------------------------------------------------------------

def _knee_cut(problem: Problem, west: OutcomeVector, east: OutcomeVector) -> int:
    """The last f1 of the west slice of [west.f1, east.f1], cut so that both
    slices hold similar shares of the front; needs ``west.f1 < east.f1``.

    Scale the endpoints' box to the unit square, with ``u`` the scaled f1
    and ``v`` the scaled f2: the front runs from (0, 1) to (1, 0), and up
    to a point (u, v) its L1 length is ``u + 1 - v``, so the line ``u = v``
    halves it.  A front that bulges toward the ideal point crosses that
    line between two estimates: east of where the LP relaxation's front
    crosses it (the least f1 of the relaxation on the line's east side, one
    cold LP), and west of where the chord between the endpoints crosses it
    (the f1 midpoint).  The cut lands halfway between them, and leaves
    each slice at least one value.
    """
    f1_min, f1_max = west.f1, east.f1
    r1, r2 = f1_max - f1_min, west.f2 - east.f2
    c1, c2 = problem.objective(1), problem.objective(2)
    # u >= v:  r2*(f1 - f1_min) >= r1*(f2 - east.f2)
    coeffs = tuple(r2 * a - r1 * b for a, b in zip(c1, c2))
    row = LinearConstraint(coeffs, Relation.GE, r2 * f1_min - r1 * east.f2)
    lp = solve_lp(c1, (*problem.constraints, row), problem.var_bounds)
    # the east endpoint meets the row, so the LP is feasible
    assert lp.objective is not None
    chord = f1_min + (r1 + 1) // 2 - 1
    cut = (math.floor(lp.objective) + chord) // 2
    return min(max(cut, f1_min), f1_max - 1)


def splitting_boip(
    problem: Problem,
    backends: Optional[Sequence[SolverBackend]] = None,
    t: int = 2,
    executor: str = "process",
) -> tuple[ParetoSet, RunStats]:
    """Enumerate the front by splitting the f1 range between two workers.

    The range [f1min, f1max] comes from the two lexicographic endpoint
    solves, run here on the second backend: f1min from the (f1, f2)
    optimum, f1max from the (f2, f1) optimum.  ``_knee_cut`` cuts it into
    a west slice [f1min, cut] and an east slice [cut + 1, f1max].  The
    slices are meeting's two sweeps with a fixed seam: the east slice,
    worker 1, sweeps (f2, f1) west from the east endpoint and stops right
    after its first find at or below the cut; the west slice, worker 2,
    sweeps (f1, f2) east from the west endpoint under the fixed cap
    f1 <= cut.  Both start under the fixed cap f2 < the west endpoint's
    f2, which every other front point undercuts, and share the run's one
    ``SharedBounds`` store as meeting's workers do.  Every find is a
    global front point, so the union with the two endpoint solutions
    needs no dominance filter; the caller's representative is kept when
    both slices find the same outcome.

    The only point both slices can find is ``W``, the front point of
    greatest f1 at or below the cut.  The west slice ends on an infeasible
    solve; the east slice right after finding ``W``, or on an infeasible
    solve when the west slice's cap keeps it off ``W``.  So a run takes
    ``|front| + 1`` IP solves when the east slice finds ``W`` and its
    published ``W.f1`` keeps the west slice off it, and ``|front| + 2``
    otherwise.  The endpoint solves count in the run's solves and work,
    but not in ``worker_elapsed``, which lists the east slice, then the
    west slice, and is empty when no slice runs: for an infeasible
    problem, or a front of one point.

    The east slice runs on the first backend in a forked worker.  The
    second, warm from the endpoint solves, sweeps the west slice here and
    keeps the root LPs and incumbent pool of all its solves afterwards.
    It already solved the endpoints here, so a backend that kills its
    process stops the caller either way.

    ``t`` and ``executor`` stay only for callers that still pass
    ``t=2, executor="process"``; any other value raises ``ValueError``.
    """
    _check_executor(executor)
    if t != 2:
        raise ValueError(f"splitting runs two workers, not {t}")
    engines = tuple(backends) if backends is not None else _default_backends()
    if len(engines) != 2:
        raise ValueError(f"splitting needs exactly two backends, got {len(engines)}")
    # caps always go positionally: a backend may name or default them otherwise
    west = engines[1].solve_lex(problem, ObjectiveOrder.F1_FIRST, (None, None))
    if west.solution is None:
        return _finish((), (west,))
    east = engines[1].solve_lex(problem, ObjectiveOrder.F2_FIRST, (None, None))
    assert east.solution is not None  # the west endpoint is feasible
    ends = (west, east)
    w, e = west.solution.outcome, east.solution.outcome
    if w.f1 == e.f1:
        return _finish((), ends)  # one point is the whole front

    cut = _knee_cut(problem, w, e)
    store = SharedBounds()
    # the endpoints are known, so each slice starts inside them;
    # every other front point has f2 < w.f2
    sweeps = _fork_beside(
        partial(_sweep, problem, engines[0], 1, caps=(e.f1, w.f2), stop=cut + 1,
                store=store),
        partial(_sweep, problem, engines[1], 2, caps=(cut + 1, w.f2), store=store),
    )
    return _finish(sweeps, ends)


# ---------------------------------------------------------------------------
# meeting
# ---------------------------------------------------------------------------

def meeting_boip(
    problem: Problem,
    backends: Optional[Sequence[SolverBackend]] = None,
    executor: str = "process",
) -> tuple[ParetoSet, RunStats]:
    """Enumerate the front with two opposed sweeps sharing monotone bounds.

    The two sweeps share one ``SharedBounds`` store made for the run.  The
    union of the two harvests, deduplicated by outcome, is the complete
    front under every read/write interleaving; worker 2's representative
    is kept when both workers find the same outcome.  No dominance filter is
    applied — the staircase validation in ParetoSet doubles as a hard check
    of that guarantee.  ``worker_elapsed`` lists worker 1, then worker 2.

    Worker 1 sweeps (f2, f1) on the first backend in a forked worker;
    worker 2 sweeps (f1, f2) on the second here, so a backend that kills
    its process stops the caller when it is the second.
    """
    _check_executor(executor)
    engines = tuple(backends) if backends is not None else _default_backends()
    if len(engines) != 2:
        raise ValueError("meeting needs exactly two backends")
    store = SharedBounds()
    sweeps = _fork_beside(
        partial(_sweep, problem, engines[0], 1, store=store),
        partial(_sweep, problem, engines[1], 2, store=store),
    )
    return _finish(sweeps)


# ---------------------------------------------------------------------------
# worker execution
# ---------------------------------------------------------------------------

def _check_executor(executor: str) -> None:
    # workers only ever run as forked processes; the keyword stays for
    # callers that still pass executor="process"
    if executor != "process":
        raise ValueError(f"unknown executor {executor!r} (only 'process')")


def _pipe_runner(conn, job) -> None:
    try:
        conn.send(("ok", job()))
    except BaseException:  # noqa: BLE001 — the parent re-raises with context
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _fork_beside(forked: Callable, own: Callable) -> tuple:
    """Run ``forked`` on a forked worker process while ``own`` runs here.

    ``own`` is called with a ``check`` keyword that polls the worker's
    result pipe without blocking.  The worker's error, or its exit without
    a result, is raised as ``BioptError`` as soon as it arrives, also from
    ``check``; an exception of ``own`` propagates as it is.  Whichever way
    the call ends, the worker is terminated unless it has reported, and
    joined, so it never outlives the call.  Returns the pair of results,
    ``forked``'s first.
    """
    ctx = multiprocessing.get_context("fork")
    conn, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_pipe_runner, args=(child, forked))
    proc.start()
    child.close()
    arrived: list = []  # the worker's result, once it has come

    def collect() -> None:
        try:
            tag, payload = conn.recv()
        except EOFError:
            tag, payload = "error", "worker exited without reporting"
        if tag == "error":
            raise BioptError(f"worker failed:\n{payload}")
        arrived.append(payload)

    def check() -> None:
        if not arrived and conn.poll():
            collect()

    finished = False
    try:
        mine = own(check=check)
        if not arrived:
            collect()
        finished = True
    finally:
        conn.close()
        if not finished:
            proc.terminate()
        proc.join()
    return arrived[0], mine
