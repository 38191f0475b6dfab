"""Single-objective and lexicographic integer solves over the problem model.

This is the subproblem engine the enumeration algorithms lean on.  The
primary backend is an exact branch and bound:

* depth-first node exploration, the rounded-down child first;
* a cold LP at most at the root: both children of a node carry a
  reference to its optimal LP and re-optimize from its basis, since a
  child differs from its parent in one variable bound.  The root itself
  restarts from a given optimal LP whose rows differ from its own only in
  right-hand sides.  Cold and warm LPs run the same bounded dual simplex
  (see ``biopt.simplex``);
* branching on the most fractional variable, ties to the lowest index.
  The decision is read from the basic rows of the node LP's final tableau,
  in integers (``LpResult.most_fractional``), and an integral LP point as
  integers (``LpResult.integral_point``), so no node builds a ``Fraction``
  point;
* pruning with ``ceil(lp_bound) >= incumbent`` (sound because objectives
  take integer values on integer points) after each node's LP;
* reduced-cost tightening (Crowder, Johnson & Padberg, 1983) at every
  node that branches: only points of value at most ``U - 1`` count, with
  ``U`` the incumbent's value or the cutoff, and on the node's LP any
  point has value at least ``z + d_j * |x_j - b_j|``, for its optimum
  ``z`` and each nonbasic column ``j`` at bound ``b_j`` with reduced cost
  ``d_j``.  So ``x_j`` moves at most ``floor((U - 1 - z) / |d_j|)`` off
  that bound, and both children inherit the box cut down to that, all in
  integers;
* an optional strict cutoff: pruning and incumbent acceptance both
  compare against it, and a search that finds no point below it reports
  infeasible;
* an optional initial incumbent, a known integer point below the cutoff:
  the search starts from its value and point, so it only prunes more and
  still proves optimality;
* a node cap, ``NODE_LIMIT`` (10^7), read when each search starts, that
  raises instead of ever returning an unproven answer.

``solve_lex`` is one branch and bound on ``W * f_lead + f_last``.  Over
the variable box, ``f_last = c . x`` lies in ``[L, L + W - 1]`` with

    L = sum_j min(c_j * lo_j, c_j * hi_j),
    W = sum_j |c_j| * (hi_j - lo_j) + 1,

so on integer points a smaller ``f_lead`` always wins, whatever
``f_last`` does, and among points with equal ``f_lead`` the smaller
``f_last`` wins: the minimum is the lexicographic one.  This is the
exact-integer form of the augmented epsilon-constraint method (Mavrotas,
AUGMECON, 2009).  ``EnumerationBackend`` answers the same lexicographic
question by scanning the feasible lattice directly, giving an independent
cross-check; both backends must agree on outcome vectors because the
lexicographic optimum is unique in outcome space.

Epsilon bounds travel as a pair ``caps = (c1, c2)`` of strict caps,
``f_i < c_i``, with ``None`` for no cap; a cap that is not an ``int``
raises ``TypeError``.  In ``solve_lex`` the cap ``f_lead < c`` on the
leading objective never becomes an LP row: it becomes the cutoff ``W * c
+ L``, since ``f_lead <= c - 1`` puts the combined objective at most at
``W * (c - 1) + L + W - 1``, and ``f_lead >= c`` at least at ``W * c +
L``.  The cap on the trailing objective is realized exactly as the row
``f_last <= c - 1``, since all data is integer.

``BranchAndBoundBackend`` remembers one problem at a time, in one
``IncumbentStaircase``, and starts a new one whenever the problem object
changes.  It keeps, per objective order, the optimal root LP of the last
solve: consecutive solves of a sweep differ only in the right-hand side of
their cap row, so the next solve's root restarts from it instead of
solving it cold again.  And it keeps the (f1, f2)-nondominated integer
points among every integral LP point its searches have met, pruned or
not.  A point that dominates another meets every strict cap the other
does, at no larger combined value, so the dominated one is never needed.
Each solve starts from the pooled point least in its order under both its
caps, read off the pooled outcomes.  An earlier solve of a sweep has often
met the next solve's optimum already.  The optima of its solves are front
points, and a solve whose caps on both objectives would leave room only
for points dominating one of them is infeasible without a search: in a
meeting run that is the closing solve after the two workers both found the
same point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from math import ceil
from typing import Callable, NamedTuple, Optional, Sequence

from biopt.errors import NodeLimitExceeded
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
    OutcomeVector,
    Problem,
    Relation,
    Solution,
    evaluate,
)
from biopt.oracle import EnumerationBudget, iter_feasible
from biopt.simplex import LpResult, solve_lp

# branch-and-bound nodes per search before NodeLimitExceeded
NODE_LIMIT = 10_000_000

# strict caps (f1 < c1, f2 < c2); None for no cap
Caps = tuple[Optional[int], Optional[int]]


@dataclass(frozen=True)
class Work:
    """The work of one or more integer solves: branch-and-bound nodes, LP
    solves, the simplex pivots and bound flips of those LPs, and the column
    bounds that reduced-cost tightening moved."""

    nodes: int = 0
    lps: int = 0
    pivots: int = 0
    flips: int = 0
    tightened: int = 0

    def __add__(self, other: Work) -> Work:
        return Work(*(getattr(self, k) + getattr(other, k) for k in WORK_FIELDS))


# the counters of ``Work``, in its field order: the bench CSV's and the CLI
# footer's columns
WORK_FIELDS = tuple(f.name for f in fields(Work))


@dataclass(frozen=True)
class LexResult:
    """Outcome of a (possibly lexicographic) integer solve, with its work.

    The solve is optimal exactly when ``solution`` is set; an infeasible
    one holds None there.
    """

    solution: Solution | None = None
    work: Work = Work()

    @property
    def is_optimal(self) -> bool:
        return self.solution is not None

    # perfbench's solve_lex spans read these two, and its run checks the
    # LP spans against the sum of lp_count
    @property
    def node_count(self) -> int:
        return self.work.nodes

    @property
    def lp_count(self) -> int:
        return self.work.lps


class SolverBackend(ABC):
    """A worker-private engine answering lexicographic solves exactly."""

    @abstractmethod
    def solve_lex(
        self,
        problem: Problem,
        order: ObjectiveOrder,
        caps: Caps = (None, None),
    ) -> LexResult:
        """Lexicographically minimize the objectives in ``order`` under the
        strict ``caps``."""


class _Minimized(NamedTuple):
    """Internal branch-and-bound outcome on raw rows."""

    value: Optional[int]
    assignment: Optional[tuple[int, ...]]
    root: LpResult  # the root node's LP
    work: Work


def _tighten(
    box: tuple[tuple[int, int], ...], lp: LpResult, limit: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The part of ``box`` holding every point of value at most ``limit``
    in ``lp``'s LP, from its reduced costs, and the number of bounds that
    moved.

    ``limit`` must be at least ``lp``'s objective.  With the objective
    ``z / den`` and each reduced cost ``d / den`` over one denominator, a
    column at its lower bound ``lo`` with ``d > 0`` keeps ``x_j <= lo +
    floor(gap / d)``, for ``gap = limit * den - z``; one at its upper bound
    ``hi`` with ``d < 0`` keeps ``x_j >= hi - floor(gap / -d)``.
    """
    nums, z, den = lp.reduced_costs()
    gap = limit * den - z
    out = list(box)
    moved = 0
    for j, d in enumerate(nums):
        if not d:
            continue
        lo, hi = out[j]
        if d > 0:
            cap = lo + gap // d
            if cap < hi:
                out[j] = (lo, cap)
                moved += 1
        else:
            low = hi - gap // -d
            if low > lo:
                out[j] = (low, hi)
                moved += 1
    return (tuple(out), moved) if moved else (box, 0)


def _branch_and_bound(
    costs: Sequence[int],
    rows: Sequence[LinearConstraint],
    bounds: Sequence[tuple[int, int]],
    cutoff: Optional[int] = None,
    start: Optional[LpResult] = None,
    incumbent: Optional[tuple[int, tuple[int, ...]]] = None,
    record: Optional[Callable[[tuple[int, ...]], None]] = None,
) -> _Minimized:
    """Minimize ``costs . x`` over the integer points of ``rows`` and ``bounds``.

    With a ``cutoff`` only points with objective strictly below it count:
    it stands in for an incumbent that has no point.  An ``incumbent``
    ``(value, x)`` is an integer point of the feasible set below any
    cutoff; the search starts from it and returns it unless it finds a
    better one.  ``record`` is called with every integral LP point the
    search meets, before the bound test may prune it.  The root LP
    restarts from ``start`` when one is given.
    """
    limit = NODE_LIMIT
    costs = tuple(costs)
    rows = tuple(rows)
    root = tuple((int(lo), int(hi)) for lo, hi in bounds)
    # stack entries: (variable bounds, the parent's LP to re-optimize from;
    # both children share it)
    stack: list[tuple[tuple[tuple[int, int], ...], Optional[LpResult]]] = [
        (root, start)
    ]
    best_value, best_x = incumbent if incumbent is not None else (cutoff, None)
    nodes = pivots = flips = tightened = 0
    while stack:
        node_bounds, parent = stack.pop()
        nodes += 1
        if nodes > limit:
            raise NodeLimitExceeded(limit)
        lp = solve_lp(costs, rows, node_bounds, start=parent)
        pivots += lp.pivots
        flips += lp.flips
        if nodes == 1:
            root_lp = lp
        if lp.objective is None:
            continue
        branch = lp.most_fractional()
        if branch is None:
            point = lp.integral_point()
            if record is not None:
                record(point)
        lower = ceil(lp.objective)
        if best_value is not None and lower >= best_value:
            continue
        if branch is None:  # an integral point below the incumbent
            best_value, best_x = lower, point
            continue
        if best_value is not None:
            node_bounds, moved = _tighten(node_bounds, lp, best_value - 1)
            tightened += moved
        j, split = branch
        lo_j, hi_j = node_bounds[j]
        down = node_bounds[:j] + ((lo_j, split),) + node_bounds[j + 1:]
        up = node_bounds[:j] + ((split + 1, hi_j),) + node_bounds[j + 1:]
        stack.append((up, lp))
        stack.append((down, lp))  # popped first: floor child leads
    work = Work(nodes, nodes, pivots, flips, tightened)  # one LP per node
    if best_x is None:
        return _Minimized(None, None, root_lp, work)
    return _Minimized(best_value, best_x, root_lp, work)


class IncumbentStaircase:
    """What the solves of one problem leave for the next: per objective
    order the optimal root LP of the last solve that had one, in ``roots``,
    and the (f1, f2)-nondominated integer points met so far.

    Every point added must be an integer point of ``problem``; branch and
    bound adds each integral LP point it meets.  A dominated point is
    never kept, and a point that dominates others replaces them, so no two
    points share an f1 value, nor an outcome.

    It also keeps the outcomes marked as front points: the optima of
    lexicographic solves, which are nondominated whatever strict caps the
    solves had, since a point dominating one would meet the same caps and
    win the solve.
    """

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self.roots: dict[ObjectiveOrder, LpResult] = {}
        self._points: list[tuple[int, int, tuple[int, ...]]] = []
        self._front: set[tuple[int, int]] = set()

    def add(self, x: tuple[int, ...]) -> None:
        f1, f2 = evaluate(self.problem, x).as_tuple()
        if any(g1 <= f1 and g2 <= f2 for g1, g2, _ in self._points):
            return
        self._points = [
            p for p in self._points if not (f1 <= p[0] and f2 <= p[1])
        ]
        self._points.append((f1, f2, x))

    def best(
        self, order: ObjectiveOrder, caps: Caps
    ) -> Optional[tuple[int, int, tuple[int, ...]]]:
        """The pooled ``(f1, f2, x)`` least in ``order`` with ``f1 < c1`` and
        ``f2 < c2``, for ``caps = (c1, c2)`` with None for no cap, or None."""
        c1, c2 = caps
        i, j = order.first - 1, order.last - 1
        under = (p for p in self._points
                 if (c1 is None or p[0] < c1) and (c2 is None or p[1] < c2))
        return min(under, key=lambda p: (p[i], p[j]), default=None)

    def mark_front(self, outcome: OutcomeVector) -> None:
        self._front.add(outcome.as_tuple())

    def rules_out(self, cap1: int, cap2: int) -> bool:
        """Does a front point leave no point with ``f1 < cap1`` and
        ``f2 < cap2``?

        Front point ``F`` does when ``cap1 <= F1 + 1`` and ``cap2 <= F2 + 1``
        with one of them tight: a point under both caps would then have
        ``f1 <= F1`` and ``f2 <= F2`` with one inequality strict, so it
        would dominate ``F``.
        """
        return any(
            cap1 <= f1 + 1 and cap2 <= f2 + 1 and (cap1 <= f1 or cap2 <= f2)
            for f1, f2 in self._front
        )


def _cap_rows(
    problem: Problem, caps: Caps, skip: int = 0
) -> tuple[LinearConstraint, ...]:
    """The rows ``f_i <= c_i - 1`` of the set caps but objective ``skip``'s."""
    if not all(cap is None or isinstance(cap, int) for cap in caps):
        raise TypeError("caps must be int or None")
    return tuple(
        LinearConstraint(problem.objective(i), Relation.LE, cap - 1)
        for i, cap in enumerate(caps, 1)
        if cap is not None and i != skip
    )


def solve_lex(
    problem: Problem,
    order: ObjectiveOrder,
    caps: Caps = (None, None),
    pool: Optional[IncumbentStaircase] = None,
) -> LexResult:
    """Lexicographic minimization by one branch and bound on
    ``W * f_lead + f_last``.

    The cap ``caps`` puts on the leading objective becomes the cutoff, and
    the one on the trailing objective the one cap row: a point of the box
    meets both exactly when it is under both caps.  Without a ``pool``, the
    memory of ``problem``, the root LP runs cold.  With one, the root LP
    restarts from the pool's root of ``order`` when it fits (see
    ``LpResult.fits``), and an optimal root LP replaces it; the search
    starts from ``IncumbentStaircase.best`` at its ``W * f_lead + f_last``,
    and every integral LP point it meets joins the pool.  When the pool's
    front points rule out both caps together (``rules_out``), the solve
    reports infeasible at once, as a root node pruned before its LP; an
    optimum joins the pool's front points.
    """
    box = problem.var_bounds
    last = problem.objective(order.last)
    low = sum(min(c * lo, c * hi) for c, (lo, hi) in zip(last, box))
    weight = sum(abs(c) * (hi - lo) for c, (lo, hi) in zip(last, box)) + 1
    costs = tuple(
        weight * a + b for a, b in zip(problem.objective(order.first), last)
    )
    cap_rows = _cap_rows(problem, caps, skip=order.first)
    cap = caps[order.first - 1]
    cutoff = None if cap is None else weight * cap + low
    rows = problem.constraints + cap_rows
    start = seed = record = None
    if pool is not None:
        if pool.problem is not problem:
            raise ValueError("pool holds the points of another problem")
        if None not in caps and pool.rules_out(*caps):
            return LexResult(None, Work(nodes=1))
        root = pool.roots.get(order)
        start = root if root is not None and root.fits(costs, rows) else None
        if (best := pool.best(order, caps)) is not None:
            seed = (weight * best[order.first - 1] + best[order.last - 1], best[2])
        record = pool.add
    found = _branch_and_bound(costs, rows, box, cutoff, start, seed, record)
    if pool is not None and found.root.is_optimal:
        pool.roots[order] = found.root
    if found.assignment is None:
        return LexResult(None, found.work)
    solution = Solution(found.assignment, evaluate(problem, found.assignment))
    if pool is not None:
        pool.mark_front(solution.outcome)
    return LexResult(solution, found.work)


class BranchAndBoundBackend(SolverBackend):
    """Branch-and-bound lexicographic engine (the default backend).

    The backend keeps one ``IncumbentStaircase``, the root LPs and
    incumbents of the problem it last solved, and replaces it with an
    empty one whenever the problem object changes, even for an equal
    problem; so it belongs to one worker.  Each search reads the node cap
    ``NODE_LIMIT`` when it starts.
    """

    def __init__(self) -> None:
        self._pool: Optional[IncumbentStaircase] = None

    def solve_lex(
        self,
        problem: Problem,
        order: ObjectiveOrder,
        caps: Caps = (None, None),
    ) -> LexResult:
        if self._pool is None or self._pool.problem is not problem:
            self._pool = IncumbentStaircase(problem)
        return solve_lex(problem, order, caps, pool=self._pool)


class EnumerationBackend(SolverBackend):
    """Exhaustive lexicographic engine for cross-checking on tiny boxes.

    Scans the feasible lattice in row-major order keeping the first point
    that strictly improves the lexicographic key, so the representative is
    deterministic.  Its ``Work`` counts the feasible points visited as
    nodes, and no LPs.  Boxes over the oracle's default
    ``EnumerationBudget`` are refused outright.
    """

    def solve_lex(
        self,
        problem: Problem,
        order: ObjectiveOrder,
        caps: Caps = (None, None),
    ) -> LexResult:
        rows = _cap_rows(problem, caps)
        EnumerationBudget().check(problem.box_size())
        augmented = replace(problem, constraints=problem.constraints + rows)
        best_key: Optional[tuple[int, int]] = None
        best: Optional[Solution] = None
        visited = 0
        for point in iter_feasible(augmented):
            visited += 1
            outcome = evaluate(problem, point)
            key = (outcome.component(order.first), outcome.component(order.last))
            if best_key is None or key < best_key:
                best_key = key
                best = Solution(point, outcome)
        return LexResult(best, Work(nodes=visited))
