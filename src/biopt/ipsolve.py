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
* branching on the most fractional variable, ties to the lowest index;
* pruning with ``ceil(lp_bound) >= incumbent`` (sound because objectives
  take integer values on integer points), re-checking the inherited parent
  bound before paying for a node's LP;
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
* a node cap (default 10^7, overridable through the ``BIOPT_NODE_LIMIT``
  environment variable) that raises instead of ever returning an unproven
  answer.

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

Epsilon bounds are expressed as ``ExtraConstraint(objective_index,
strict_upper)`` meaning ``f_index < strict_upper``.  In ``solve_lex`` a
bound ``f_lead < c`` on the leading objective never becomes an LP row: the
tightest one becomes the cutoff ``W * c + L``, since ``f_lead <= c - 1``
puts the combined objective at most at ``W * (c - 1) + L + W - 1``, and
``f_lead >= c`` at least at ``W * c + L``.  Every other bound is realized
exactly as the row ``f_index <= strict_upper - 1``, since all data is
integer.

``BranchAndBoundBackend`` keeps, per objective order, the optimal root LP
of its last solve.  Consecutive solves of a sweep differ only in the
right-hand side of their cap row, so the next solve's root restarts from
it instead of solving it cold again.

It also keeps an incumbent staircase: the (f1, f2)-nondominated integer
points among every integral LP point its searches have met, pruned or
not, for its current problem.  A point that dominates another satisfies
every cap and cutoff the other does, at no larger combined value, so the
dominated one is never needed.  Each solve starts from the pooled point
with the lowest ``W * f_lead + f_last`` that satisfies all its rows,
checked in integers, and lies strictly below its cutoff.  An earlier
solve of a sweep has often met the next solve's optimum already.  The
optima of its solves are front points, and a solve whose caps on both
objectives would leave room only for points dominating one of them is
infeasible without a search: in a meeting run that is the closing solve
after the two workers both found the same point.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, floor
from typing import Callable, NamedTuple, Optional, Sequence

from biopt.errors import BioptError, BudgetExceeded, NodeLimitExceeded
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
    OutcomeVector,
    Problem,
    Relation,
    Solution,
    evaluate,
)
from biopt.oracle import iter_feasible
from biopt.simplex import LpResult, SolveStatus, solve_lp

DEFAULT_NODE_LIMIT = 10_000_000
NODE_LIMIT_ENV = "BIOPT_NODE_LIMIT"


def _node_limit_from_env() -> int:
    raw = os.environ.get(NODE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_NODE_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise BioptError(f"{NODE_LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if limit < 1:
        raise BioptError(f"{NODE_LIMIT_ENV} must be positive, got {limit}")
    return limit


@dataclass(frozen=True)
class ExtraConstraint:
    """A strict epsilon bound ``f_index < strict_upper`` on one objective.

    With integer data the bound is enforced exactly: as the row
    ``f_index <= strict_upper - 1``, or as a branch-and-bound cutoff when
    ``solve_lex`` ranks that objective first.
    """

    objective_index: int
    strict_upper: int

    def __post_init__(self) -> None:
        if self.objective_index not in (1, 2):
            raise ValueError("objective_index must be 1 or 2")
        if not isinstance(self.strict_upper, int):
            raise TypeError("strict_upper must be int")

    def as_row(self, problem: Problem) -> LinearConstraint:
        return LinearConstraint(
            problem.objective(self.objective_index),
            Relation.LE,
            self.strict_upper - 1,
        )


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
        return Work(
            self.nodes + other.nodes,
            self.lps + other.lps,
            self.pivots + other.pivots,
            self.flips + other.flips,
            self.tightened + other.tightened,
        )


@dataclass(frozen=True)
class LexResult:
    """Outcome of a (possibly lexicographic) integer solve, with its work.

    ``root`` is the optimal LP relaxation at the root of the search, if it
    had one, for restarting the next solve's root; it takes no part in
    comparisons.
    """

    status: SolveStatus
    solution: Solution | None = None
    work: Work = Work()
    root: LpResult | None = field(default=None, compare=False, repr=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

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
        extras: Sequence[ExtraConstraint] = (),
    ) -> LexResult:
        """Lexicographically minimize the objectives in ``order``."""


class _Minimized(NamedTuple):
    """Internal branch-and-bound outcome on raw rows."""

    value: Optional[int]
    assignment: Optional[tuple[int, ...]]
    root: LpResult  # the root node's LP
    work: Work


def _most_fractional(x: Sequence[Fraction]) -> Optional[int]:
    """Index of the variable farthest from integrality, or None if integral."""
    best_j: Optional[int] = None
    best_num, best_den = 0, 1  # distance best_num / best_den
    for j, v in enumerate(x):
        den = v.denominator
        if den == 1:
            continue
        rest = v.numerator % den  # v - floor(v) == rest / den
        num = min(rest, den - rest)
        if num * best_den > best_num * den:
            best_num, best_den, best_j = num, den, j
    return best_j


def _tighten(
    box: tuple[tuple[int, int], ...], lp: LpResult, limit: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The part of ``box`` holding every point of value at most ``limit``
    in ``lp``'s LP, from its reduced costs, and the number of bounds that
    moved.

    ``limit`` must be at least ``lp``'s objective ``z``.  A column at its
    lower bound ``lo`` with reduced cost ``d > 0`` keeps ``x_j <= lo +
    floor((limit - z) / d)``; one at its upper bound ``hi`` with ``d < 0``
    keeps ``x_j >= hi - floor((limit - z) / -d)``.
    """
    nums, den = lp.reduced_costs()
    z = lp.objective
    assert z is not None
    q = z.denominator
    gap = (limit * q - z.numerator) * den  # (limit - z) * den * q
    out = list(box)
    moved = 0
    for j, d in enumerate(nums):
        if not d:
            continue
        lo, hi = out[j]
        if d > 0:
            cap = lo + gap // (q * d)
            if cap < hi:
                out[j] = (lo, cap)
                moved += 1
        else:
            low = hi - gap // (-q * d)
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
    limit = _node_limit_from_env()
    costs = tuple(costs)
    rows = tuple(rows)
    root = tuple((int(lo), int(hi)) for lo, hi in bounds)
    # stack entries: (variable bounds, integer bound inherited from the
    # parent, the parent's LP to re-optimize from; both children share it)
    stack: list[
        tuple[tuple[tuple[int, int], ...], Optional[int], Optional[LpResult]]
    ] = [(root, None, start)]
    best_value, best_x = incumbent if incumbent is not None else (cutoff, None)
    nodes = lps = pivots = flips = tightened = 0
    while stack:
        node_bounds, parent_bound, parent = stack.pop()
        nodes += 1
        if nodes > limit:
            raise NodeLimitExceeded(limit)
        if (
            parent_bound is not None
            and best_value is not None
            and parent_bound >= best_value
        ):
            continue
        lps += 1
        lp = solve_lp(costs, rows, node_bounds, start=parent)
        pivots += lp.pivots
        flips += lp.flips
        if nodes == 1:
            root_lp = lp
        if not lp.is_optimal:
            continue
        assert lp.objective is not None and lp.x is not None
        j = _most_fractional(lp.x)
        if j is None:
            point = tuple(v.numerator for v in lp.x)
            if record is not None:
                record(point)
        lower = ceil(lp.objective)
        if best_value is not None and lower >= best_value:
            continue
        if j is None:  # an integral point below the incumbent
            best_value, best_x = lower, point
            continue
        if best_value is not None:
            node_bounds, moved = _tighten(node_bounds, lp, best_value - 1)
            tightened += moved
        split = floor(lp.x[j])
        lo_j, hi_j = node_bounds[j]
        down = node_bounds[:j] + ((lo_j, split),) + node_bounds[j + 1:]
        up = node_bounds[:j] + ((split + 1, hi_j),) + node_bounds[j + 1:]
        stack.append((up, lower, lp))
        stack.append((down, lower, lp))  # popped first: floor child leads
    work = Work(nodes, lps, pivots, flips, tightened)
    if best_x is None:
        return _Minimized(None, None, root_lp, work)
    return _Minimized(best_value, best_x, root_lp, work)


class IncumbentStaircase:
    """The (f1, f2)-nondominated integer points of one problem met so far.

    Every point added must be an integer point of ``problem``; branch and
    bound adds each integral LP point it meets.  A dominated point is
    never kept, and a point that dominates others replaces them, so the
    staircase holds at most one point per f1 value.

    It also keeps the outcomes marked as front points: the optima of
    lexicographic solves, which are nondominated whatever strict caps the
    solves had, since a point dominating one would meet the same caps and
    win the solve.
    """

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
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
        self,
        costs: Sequence[int],
        rows: Sequence[LinearConstraint],
        cutoff: Optional[int],
    ) -> Optional[tuple[int, tuple[int, ...]]]:
        """The pooled ``(costs . x, x)`` of least value that satisfies every
        row and lies strictly below ``cutoff``, or None."""
        ranked = sorted(
            (sum(c * v for c, v in zip(costs, x)), x) for _, _, x in self._points
        )
        for value, x in ranked:
            if cutoff is not None and value >= cutoff:
                break
            if all(row.satisfied_by(x) for row in rows):
                return value, x
        return None

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


def _extras_to_rows(
    problem: Problem, extras: Sequence[ExtraConstraint]
) -> tuple[LinearConstraint, ...]:
    return tuple(e.as_row(problem) for e in extras)


def solve_lex(
    problem: Problem,
    order: ObjectiveOrder,
    extras: Sequence[ExtraConstraint] = (),
    start: Optional[LpResult] = None,
    pool: Optional[IncumbentStaircase] = None,
) -> LexResult:
    """Lexicographic minimization by one branch and bound on
    ``W * f_lead + f_last``.

    The tightest bound ``extras`` put on the leading objective becomes the
    cutoff.  The root LP restarts from ``start`` when its costs and rows
    fit this solve's (see ``LpResult.fits``), and runs cold otherwise.
    With a ``pool`` of ``problem``'s integer points the search starts from
    its best point that fits this solve (``IncumbentStaircase.best``), and
    every integral LP point the search meets joins the pool.  When the
    pool's front points rule out both caps together
    (``IncumbentStaircase.rules_out``), the solve reports infeasible at
    once, as a root node pruned before its LP; an optimum joins the
    pool's front points.
    """
    box = problem.var_bounds
    last = problem.objective(order.last)
    low = sum(min(c * lo, c * hi) for c, (lo, hi) in zip(last, box))
    weight = sum(abs(c) * (hi - lo) for c, (lo, hi) in zip(last, box)) + 1
    costs = tuple(
        weight * a + b for a, b in zip(problem.objective(order.first), last)
    )
    cap = min(
        (e.strict_upper for e in extras if e.objective_index == order.first),
        default=None,
    )
    cutoff = None if cap is None else weight * cap + low
    trailing = [e for e in extras if e.objective_index != order.first]
    rows = problem.constraints + _extras_to_rows(problem, trailing)
    if start is not None and not start.fits(costs, rows):
        start = None
    seed = record = None
    if pool is not None:
        if pool.problem is not problem:
            raise ValueError("pool holds the points of another problem")
        last_cap = min((e.strict_upper for e in trailing), default=None)
        if cap is not None and last_cap is not None:
            caps = (cap, last_cap) if order.first == 1 else (last_cap, cap)
            if pool.rules_out(*caps):
                return LexResult(SolveStatus.INFEASIBLE, None, Work(nodes=1))
        seed, record = pool.best(costs, rows, cutoff), pool.add
    found = _branch_and_bound(costs, rows, box, cutoff, start, seed, record)
    root = found.root if found.root.is_optimal else None
    if found.assignment is None:
        return LexResult(SolveStatus.INFEASIBLE, None, found.work, root)
    solution = Solution(found.assignment, evaluate(problem, found.assignment))
    if pool is not None:
        pool.mark_front(solution.outcome)
    return LexResult(SolveStatus.OPTIMAL, solution, found.work, root)


class BranchAndBoundBackend(SolverBackend):
    """Branch-and-bound lexicographic engine (the default backend).

    The backend keeps the last optimal root LP of each objective order and
    restarts the next solve of that order from it, and it keeps the
    incumbent staircase of the problem it last solved, starting afresh
    whenever the problem changes; so it belongs to one worker.  The node
    cap comes from ``BIOPT_NODE_LIMIT`` or the built-in default at solve
    time.
    """

    def __init__(self) -> None:
        self._roots: dict[ObjectiveOrder, LpResult] = {}
        self._pool: Optional[IncumbentStaircase] = None

    def solve_lex(
        self,
        problem: Problem,
        order: ObjectiveOrder,
        extras: Sequence[ExtraConstraint] = (),
    ) -> LexResult:
        if self._pool is None or self._pool.problem is not problem:
            self._pool = IncumbentStaircase(problem)
        result = solve_lex(
            problem, order, extras, start=self._roots.get(order), pool=self._pool
        )
        if result.root is not None:
            self._roots[order] = result.root
        return result


class EnumerationBackend(SolverBackend):
    """Exhaustive lexicographic engine for cross-checking on tiny boxes.

    Scans the feasible lattice in row-major order keeping the first point
    that strictly improves the lexicographic key, so the representative is
    deterministic.  Its ``Work`` counts the feasible points visited as
    nodes, and no LPs.  Boxes larger than ``max_points`` are refused
    outright.
    """

    def __init__(self, max_points: int = 10_000_000) -> None:
        self.max_points = max_points

    def solve_lex(
        self,
        problem: Problem,
        order: ObjectiveOrder,
        extras: Sequence[ExtraConstraint] = (),
    ) -> LexResult:
        size = problem.box_size()
        if size > self.max_points:
            raise BudgetExceeded(size, self.max_points)
        augmented = replace(
            problem,
            constraints=problem.constraints + _extras_to_rows(problem, extras),
        )
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
        status = SolveStatus.INFEASIBLE if best is None else SolveStatus.OPTIMAL
        return LexResult(status, best, Work(nodes=visited))
