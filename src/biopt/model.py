"""Immutable problem model, outcome-space dominance, and Pareto-set containers.

Everything downstream (solvers, enumeration algorithms, benchmarks) shares the
types defined here.  All data is integer typed and immutable after
construction, so values can be handed to concurrent workers freely.

Objective sense is normalized at construction: a maximized objective is stored
with negated coefficients and solved as a minimization.  The original sense is
retained so user-facing output can be converted back (see ``user_outcome``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import prod
from typing import Iterable, Iterator, Sequence


class Relation(Enum):
    """Comparison operator of a linear constraint, in file-format spelling."""

    LE = "<="
    GE = ">="
    EQ = "="


class Sense(Enum):
    """User-facing optimization direction of one objective."""

    MIN = "min"
    MAX = "max"


def _check_int_vector(name: str, vec: Sequence[int], length: int) -> tuple[int, ...]:
    out = tuple(vec)
    if len(out) != length:
        raise ValueError(f"{name} has length {len(out)}, expected {length}")
    for v in out:
        if not isinstance(v, int):
            raise TypeError(f"{name} entries must be int, got {type(v).__name__}")
    return out


@dataclass(frozen=True)
class LinearConstraint:
    """One row ``coeffs . x  <relation>  rhs`` over the decision variables."""

    coeffs: tuple[int, ...]
    relation: Relation
    rhs: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _check_int_vector("coeffs", self.coeffs, len(self.coeffs)))
        if not isinstance(self.rhs, int):
            raise TypeError("rhs must be int")
        if not isinstance(self.relation, Relation):
            raise TypeError("relation must be a Relation")

    def satisfied_by(self, assignment: Sequence[int]) -> bool:
        lhs = sum(c * x for c, x in zip(self.coeffs, assignment))
        if self.relation is Relation.LE:
            return lhs <= self.rhs
        if self.relation is Relation.GE:
            return lhs >= self.rhs
        return lhs == self.rhs


class ObjectiveOrder(Enum):
    """Which objective is ranked first in a lexicographic solve."""

    F1_FIRST = (1, 2)
    F2_FIRST = (2, 1)

    @property
    def first(self) -> int:
        return self.value[0]

    @property
    def last(self) -> int:
        return self.value[1]


@dataclass(frozen=True)
class Problem:
    """An integer program with two linear objectives over a bounded box.

    ``objectives`` are stored in the internal minimization sense; ``sense``
    records the user-facing direction per objective.  Use ``build_problem``
    to construct from user-sense data.  Instances are immutable and safe to
    share across workers.
    """

    num_vars: int
    objectives: tuple[tuple[int, ...], tuple[int, ...]]
    constraints: tuple[LinearConstraint, ...]
    var_bounds: tuple[tuple[int, int], ...]
    sense: tuple[Sense, Sense] = (Sense.MIN, Sense.MIN)

    def __post_init__(self) -> None:
        if not isinstance(self.num_vars, int) or self.num_vars < 1:
            raise ValueError("num_vars must be a positive integer")
        if len(self.objectives) != 2:
            raise ValueError("exactly two objectives required")
        objs = tuple(_check_int_vector(f"objective {i + 1}", o, self.num_vars)
                     for i, o in enumerate(self.objectives))
        object.__setattr__(self, "objectives", objs)
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if len(c.coeffs) != self.num_vars:
                raise ValueError(f"constraint arity {len(c.coeffs)} != num_vars {self.num_vars}")
        bounds = tuple((lo, hi) for lo, hi in self.var_bounds)
        if len(bounds) != self.num_vars:
            raise ValueError("var_bounds length must equal num_vars")
        for j, (lo, hi) in enumerate(bounds):
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise TypeError("bounds must be int")
            if lo > hi:
                raise ValueError(f"variable {j} has empty bound interval [{lo}, {hi}]")
        object.__setattr__(self, "var_bounds", bounds)
        if len(self.sense) != 2 or not all(isinstance(s, Sense) for s in self.sense):
            raise ValueError("sense must be a pair of Sense values")
        object.__setattr__(self, "sense", tuple(self.sense))

    def objective(self, index: int) -> tuple[int, ...]:
        """Coefficients of objective 1 or 2, in the internal min sense."""
        if index not in (1, 2):
            raise ValueError("objective index must be 1 or 2")
        return self.objectives[index - 1]

    def user_objective(self, index: int) -> tuple[int, ...]:
        """Coefficients as the user stated them (max objectives de-negated)."""
        coeffs = self.objective(index)
        if self.sense[index - 1] is Sense.MAX:
            return tuple(-c for c in coeffs)
        return coeffs

    def is_feasible(self, assignment: Sequence[int]) -> bool:
        if len(assignment) != self.num_vars:
            raise ValueError("assignment length mismatch")
        for x, (lo, hi) in zip(assignment, self.var_bounds):
            if not lo <= x <= hi:
                return False
        return all(c.satisfied_by(assignment) for c in self.constraints)

    def box_size(self) -> int:
        """Number of lattice points in the variable box."""
        return prod(hi - lo + 1 for lo, hi in self.var_bounds)


def build_problem(
    num_vars: int,
    objectives: Sequence[Sequence[int]],
    constraints: Sequence[LinearConstraint],
    var_bounds: Sequence[tuple[int, int]],
    sense: tuple[Sense, Sense] = (Sense.MIN, Sense.MIN),
) -> Problem:
    """Build a Problem from user-sense objectives, normalizing max to min."""
    if len(objectives) != 2:
        raise ValueError("exactly two objectives required")
    normalized = tuple(
        tuple(-c for c in obj) if s is Sense.MAX else tuple(obj)
        for obj, s in zip(objectives, sense)
    )
    return Problem(num_vars, normalized, tuple(constraints), tuple(var_bounds), tuple(sense))


@dataclass(frozen=True, order=True)
class OutcomeVector:
    """A point (f1, f2) in objective space, internal min sense."""

    f1: int
    f2: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.f1, self.f2)

    def component(self, index: int) -> int:
        """Value of objective 1 or 2."""
        if index == 1:
            return self.f1
        if index == 2:
            return self.f2
        raise ValueError("objective index must be 1 or 2")


def dominates(a: OutcomeVector, b: OutcomeVector) -> bool:
    """True iff a is componentwise <= b and a != b (outcome-level dominance)."""
    return a != b and a.f1 <= b.f1 and a.f2 <= b.f2


def user_outcome(problem: Problem, outcome: OutcomeVector) -> tuple[int, int]:
    """Outcome in the user's original sense (max components de-negated)."""
    f1 = -outcome.f1 if problem.sense[0] is Sense.MAX else outcome.f1
    f2 = -outcome.f2 if problem.sense[1] is Sense.MAX else outcome.f2
    return (f1, f2)


@dataclass(frozen=True)
class Solution:
    """A variable assignment together with its objective-space outcome."""

    assignment: tuple[int, ...]
    outcome: OutcomeVector


def evaluate(problem: Problem, assignment: Sequence[int]) -> OutcomeVector:
    """Dot both objectives with the assignment (internal min sense)."""
    if len(assignment) != problem.num_vars:
        raise ValueError(
            f"assignment length {len(assignment)} != num_vars {problem.num_vars}"
        )
    f1 = sum(c * x for c, x in zip(problem.objectives[0], assignment))
    f2 = sum(c * x for c, x in zip(problem.objectives[1], assignment))
    return OutcomeVector(f1, f2)


def make_solution(problem: Problem, assignment: Sequence[int]) -> Solution:
    return Solution(tuple(assignment), evaluate(problem, assignment))


@dataclass(frozen=True, eq=False)
class ParetoSet:
    """Non-dominated solutions sorted by f1 ascending, one per outcome.

    The constructor enforces the staircase shape: strictly increasing f1 with
    strictly decreasing f2, which implies pairwise non-domination and
    outcome uniqueness.  Equality and hashing are outcome-level, so two sets
    with different representative assignments but equal fronts compare equal.
    """

    solutions: tuple[Solution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "solutions", tuple(self.solutions))
        prev: OutcomeVector | None = None
        for sol in self.solutions:
            if prev is not None:
                if not (prev.f1 < sol.outcome.f1 and prev.f2 > sol.outcome.f2):
                    raise ValueError(
                        f"staircase violated: {prev.as_tuple()} then {sol.outcome.as_tuple()}"
                    )
            prev = sol.outcome

    def outcomes(self) -> tuple[OutcomeVector, ...]:
        return tuple(s.outcome for s in self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __contains__(self, outcome: object) -> bool:
        return any(s.outcome == outcome for s in self.solutions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParetoSet):
            return NotImplemented
        return self.outcomes() == other.outcomes()

    def __hash__(self) -> int:
        return hash(self.outcomes())

    def __repr__(self) -> str:
        pts = ", ".join(str(s.outcome.as_tuple()) for s in self.solutions)
        return f"ParetoSet([{pts}])"


def pareto_filter(points: Iterable[Solution]) -> ParetoSet:
    """Keep the non-dominated solutions, one representative per outcome.

    Deduplicates by outcome keeping the first occurrence, drops every
    dominated outcome, and sorts the survivors into staircase order.
    """
    by_outcome: dict[OutcomeVector, Solution] = {}
    for sol in points:
        by_outcome.setdefault(sol.outcome, sol)
    ordered = sorted(by_outcome.values(), key=lambda s: s.outcome.as_tuple())
    kept: list[Solution] = []
    best_f2: int | None = None
    for sol in ordered:
        # sorted by (f1 asc, f2 asc): a point survives iff it strictly
        # improves f2 over everything with smaller-or-equal f1 seen so far
        if best_f2 is None or sol.outcome.f2 < best_f2:
            kept.append(sol)
            best_f2 = sol.outcome.f2
    return ParetoSet(tuple(kept))
