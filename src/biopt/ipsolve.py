"""Single-objective and lexicographic integer solves over the problem model.

This is the subproblem engine the enumeration algorithms lean on.  The
primary backend is an exact branch and bound:

* depth-first node exploration, the rounded-down child first;
* a cold two-phase LP at the root only: both children of a node carry a
  reference to its optimal LP and re-optimize from its basis by bounded
  dual simplex, since a child differs from its parent in one variable
  bound (see ``biopt.simplex``);
* branching on the most fractional variable, ties to the lowest index;
* pruning with ``ceil(lp_bound) >= incumbent`` (sound because objectives
  take integer values on integer points), re-checking the inherited parent
  bound before paying for a node's LP;
* an optional strict cutoff in place of an initial incumbent: pruning and
  incumbent acceptance both compare against it, and a search that finds no
  point below it reports infeasible;
* a node cap (default 10^7, overridable through the ``BIOPT_NODE_LIMIT``
  environment variable) that raises instead of ever returning an unproven
  answer.

``solve_lex`` runs two stages: minimize the leading objective, pin it to
its optimal value with an equality row, then minimize the trailing one.
``EnumerationBackend`` answers the same lexicographic question by scanning
the feasible lattice directly, giving an independent cross-check; both
backends must agree on outcome vectors because the lexicographic optimum
is unique in outcome space.

Epsilon bounds are expressed as ``ExtraConstraint(objective_index,
strict_upper)`` meaning ``f_index < strict_upper``.  In ``solve_lex`` a
bound on the leading objective never becomes an LP row: the tightest such
bound is the first stage's cutoff, and the pin row of the second stage
already implies it.  Every other bound is realized exactly as the row
``f_index <= strict_upper - 1``, since all data is integer.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple, Optional, Sequence

from biopt.errors import BioptError, BudgetExceeded, NodeLimitExceeded
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
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
    ``solve_lex`` minimizes that objective first.
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
class LexResult:
    """Outcome of a (possibly lexicographic) integer solve, with counters."""

    status: SolveStatus
    solution: Solution | None = None
    node_count: int = 0
    lp_count: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


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
    nodes: int
    lps: int


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


def _branch_and_bound(
    costs: Sequence[int],
    rows: Sequence[LinearConstraint],
    bounds: Sequence[tuple[int, int]],
    node_limit: Optional[int],
    cutoff: Optional[int] = None,
) -> _Minimized:
    """Minimize ``costs . x`` over the integer points of ``rows`` and ``bounds``.

    With a ``cutoff`` only points with objective strictly below it count:
    it stands in for an incumbent that has no point.
    """
    limit = node_limit if node_limit is not None else _node_limit_from_env()
    costs = tuple(costs)
    rows = tuple(rows)
    root = tuple((int(lo), int(hi)) for lo, hi in bounds)
    # stack entries: (variable bounds, integer bound inherited from the
    # parent, the parent's LP to re-optimize from; both children share it)
    stack: list[
        tuple[tuple[tuple[int, int], ...], Optional[int], Optional[LpResult]]
    ] = [(root, None, None)]
    best_value: Optional[int] = cutoff
    best_x: Optional[tuple[int, ...]] = None
    nodes = 0
    lps = 0
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
        if lp.status is SolveStatus.UNBOUNDED:
            raise BioptError("unbounded relaxation inside a finite box")
        if not lp.is_optimal:
            continue
        assert lp.objective is not None and lp.x is not None
        lower = ceil(lp.objective)
        if best_value is not None and lower >= best_value:
            continue
        j = _most_fractional(lp.x)
        if j is None:
            value = int(lp.objective)
            if best_value is None or value < best_value:
                best_value = value
                best_x = tuple(int(v) for v in lp.x)
            continue
        split = floor(lp.x[j])
        lo_j, hi_j = node_bounds[j]
        down = node_bounds[:j] + ((lo_j, split),) + node_bounds[j + 1:]
        up = node_bounds[:j] + ((split + 1, hi_j),) + node_bounds[j + 1:]
        stack.append((up, lower, lp))
        stack.append((down, lower, lp))  # popped first: floor child leads
    if best_x is None:
        return _Minimized(None, None, nodes, lps)
    return _Minimized(best_value, best_x, nodes, lps)


def _extras_to_rows(
    problem: Problem, extras: Sequence[ExtraConstraint]
) -> tuple[LinearConstraint, ...]:
    return tuple(e.as_row(problem) for e in extras)


def solve_lex(
    problem: Problem,
    order: ObjectiveOrder,
    extras: Sequence[ExtraConstraint] = (),
    node_limit: Optional[int] = None,
) -> LexResult:
    """Two-stage lexicographic minimization via branch and bound.

    Stage one minimizes the leading objective, cut off at the tightest
    bound ``extras`` put on it; stage two fixes it at its optimum with an
    equality row and minimizes the trailing objective.
    """
    cutoff = min(
        (e.strict_upper for e in extras if e.objective_index == order.first),
        default=None,
    )
    trailing = [e for e in extras if e.objective_index != order.first]
    rows = problem.constraints + _extras_to_rows(problem, trailing)
    leading = problem.objective(order.first)
    first = _branch_and_bound(leading, rows, problem.var_bounds, node_limit, cutoff)
    if first.value is None:
        return LexResult(SolveStatus.INFEASIBLE, None, first.nodes, first.lps)
    pin = LinearConstraint(leading, Relation.EQ, first.value)
    second = _branch_and_bound(
        problem.objective(order.last),
        rows + (pin,),
        problem.var_bounds,
        node_limit,
    )
    if second.value is None:  # cannot happen: stage one's argmin is feasible
        raise BioptError("lexicographic second stage lost feasibility")
    assert second.assignment is not None
    return LexResult(
        SolveStatus.OPTIMAL,
        Solution(second.assignment, evaluate(problem, second.assignment)),
        first.nodes + second.nodes,
        first.lps + second.lps,
    )


class BranchAndBoundBackend(SolverBackend):
    """Branch-and-bound lexicographic engine (the default backend).

    ``node_limit=None`` defers to ``BIOPT_NODE_LIMIT`` or the built-in
    default at solve time.
    """

    def __init__(self, node_limit: Optional[int] = None) -> None:
        self.node_limit = node_limit

    def solve_lex(
        self,
        problem: Problem,
        order: ObjectiveOrder,
        extras: Sequence[ExtraConstraint] = (),
    ) -> LexResult:
        return solve_lex(problem, order, extras, node_limit=self.node_limit)


class EnumerationBackend(SolverBackend):
    """Exhaustive lexicographic engine for cross-checking on tiny boxes.

    Scans the feasible lattice in row-major order keeping the first point
    that strictly improves the lexicographic key, so the representative is
    deterministic.  ``node_count`` reports feasible points visited and
    ``lp_count`` is always zero.  Boxes larger than ``max_points`` are
    refused outright.
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
        if best is None:
            return LexResult(SolveStatus.INFEASIBLE, None, visited, 0)
        return LexResult(SolveStatus.OPTIMAL, best, visited, 0)


def default_backend() -> SolverBackend:
    return BranchAndBoundBackend()
