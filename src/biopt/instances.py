"""Seeded instance generators and the instance/result file formats.

Two benchmark families, both over binary variables:

* **assignment** — n x n bi-objective assignment: variable x_ij (row-major
  index i*n + j) assigns task i to agent j; every task and every agent is
  matched exactly once; two cost matrices, both minimized.
* **knapsack** — n items, weights summing to W, capacity floor(W/2), two
  profit vectors, both maximized.

Cost, weight, and profit entries are i.i.d. uniform integers from the
spec's inclusive ``cost_range`` (default [1, 100]).

Determinism contract: generation uses SplitMix64, a fixed portable 64-bit
generator, so equal specs produce bit-identical instances in any
implementation of this format.  SplitMix64 state update and output mix::

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

``uniform_int(lo, hi)`` maps one output to ``lo + output mod (hi-lo+1)``.
Draw order — assignment: first cost matrix row-major, then the second;
knapsack: weights, then profits 1, then profits 2.

Instance file format (line-oriented UTF-8; single spaces; lines that are
blank or start with ``#`` are skipped; all tokens decimal integers)::

    BOIP 1
    SENSE <min|max> <min|max>
    VARS n
    OBJ1 c1 ... cn        # user-sense coefficients
    OBJ2 c1 ... cn
    B j lo hi             # one line per variable, j = 0 .. n-1 in order
    CONSTRAINTS m
    ROW a1 ... an <op> rhs   # op in {<=, >=, =}

Result file format: one line per Pareto point, ``f1 f2 : x1 ... xn``,
sorted by f1 ascending, objective values in the user's original sense.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

from biopt.errors import ParseError
from biopt.model import (
    LinearConstraint,
    ParetoSet,
    Problem,
    Relation,
    Sense,
    Solution,
    build_problem,
    user_outcome,
)

FAMILIES = ("assignment", "knapsack")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The fixed generator behind all instance randomness (see module docs)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform_int(self, lo: int, hi: int) -> int:
        """One draw, uniform on the inclusive integer interval [lo, hi]."""
        if hi < lo:
            raise ValueError("empty interval")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: family, size (tasks or items), seed, entry range."""

    family: str
    size: int
    seed: int
    cost_range: tuple[int, int] = (1, 100)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        # type(v) is int: a bool is an int too, but no count or seed
        if type(self.size) is not int or self.size < 1:
            raise ValueError("size must be a positive integer")
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        pair = self.cost_range
        if type(pair) is not tuple or list(map(type, pair)) != [int, int]:
            raise ValueError(f"cost_range must be a pair of integers, got {pair!r}")
        lo, hi = pair
        if lo < 1 or hi < lo:
            raise ValueError("cost_range must be non-empty with positive lower bound")


def gen_assignment(spec: GeneratorSpec) -> Problem:
    """n^2 binary variables, 2n matching equalities, two minimized costs."""
    if spec.family != "assignment":
        raise ValueError(f"spec is for family {spec.family!r}")
    n = spec.size
    rng = SplitMix64(spec.seed)
    lo, hi = spec.cost_range
    cost1 = [rng.uniform_int(lo, hi) for _ in range(n * n)]
    cost2 = [rng.uniform_int(lo, hi) for _ in range(n * n)]
    rows = []
    for i in range(n):  # each task assigned exactly once
        coeffs = [0] * (n * n)
        for j in range(n):
            coeffs[i * n + j] = 1
        rows.append(LinearConstraint(tuple(coeffs), Relation.EQ, 1))
    for j in range(n):  # each agent used exactly once
        coeffs = [0] * (n * n)
        for i in range(n):
            coeffs[i * n + j] = 1
        rows.append(LinearConstraint(tuple(coeffs), Relation.EQ, 1))
    return build_problem(
        num_vars=n * n,
        objectives=[cost1, cost2],
        constraints=rows,
        var_bounds=[(0, 1)] * (n * n),
    )


def gen_knapsack(spec: GeneratorSpec) -> Problem:
    """n binary items, capacity = half the total weight, two maximized profits."""
    if spec.family != "knapsack":
        raise ValueError(f"spec is for family {spec.family!r}")
    n = spec.size
    rng = SplitMix64(spec.seed)
    lo, hi = spec.cost_range
    weights = [rng.uniform_int(lo, hi) for _ in range(n)]
    profit1 = [rng.uniform_int(lo, hi) for _ in range(n)]
    profit2 = [rng.uniform_int(lo, hi) for _ in range(n)]
    capacity = sum(weights) // 2
    return build_problem(
        num_vars=n,
        objectives=[profit1, profit2],
        constraints=[LinearConstraint(tuple(weights), Relation.LE, capacity)],
        var_bounds=[(0, 1)] * n,
        sense=(Sense.MAX, Sense.MAX),
    )


def generate(spec: GeneratorSpec) -> Problem:
    """Dispatch on the spec's family."""
    if spec.family == "assignment":
        return gen_assignment(spec)
    return gen_knapsack(spec)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def format_instance(problem: Problem) -> str:
    """Serialize a Problem to the instance format (user-sense objectives)."""
    lines = [
        "BOIP 1",
        f"SENSE {problem.sense[0].value} {problem.sense[1].value}",
        f"VARS {problem.num_vars}",
        "OBJ1 " + " ".join(str(c) for c in problem.user_objective(1)),
        "OBJ2 " + " ".join(str(c) for c in problem.user_objective(2)),
    ]
    for j, (lo, hi) in enumerate(problem.var_bounds):
        lines.append(f"B {j} {lo} {hi}")
    lines.append(f"CONSTRAINTS {len(problem.constraints)}")
    for row in problem.constraints:
        coeffs = " ".join(str(a) for a in row.coeffs)
        lines.append(f"ROW {coeffs} {row.relation.value} {row.rhs}")
    return "\n".join(lines) + "\n"


class _LineReader:
    """Comment/blank-skipping token reader that tracks source line numbers."""

    def __init__(self, text: str) -> None:
        self._lines = [
            (number, line.split())
            for number, line in enumerate(text.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")
        ]
        self._cursor = 0

    def next_line(self, expect: str) -> tuple[int, list[str]]:
        if self._cursor >= len(self._lines):
            raise ParseError(f"unexpected end of file: expected a {expect} line")
        number, tokens = self._lines[self._cursor]
        self._cursor += 1
        return number, tokens

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._lines)


def parse_decimal(raw: str) -> int:
    """``raw`` as an int if it is an optional sign, then ASCII digits.

    Unlike ``int``, raises ``ValueError`` on ``1_000``, non-ASCII digits
    and spaces."""
    digits = raw[1:] if raw[:1] in ("+", "-") else raw
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {raw!r}")
    return int(raw)


def _int_token(tokens: list[str], column: int, line: int, what: str) -> int:
    raw = tokens[column - 1]
    try:
        return parse_decimal(raw)
    except ValueError:
        raise ParseError(
            f"line {line}, column {column}: {what} must be a decimal integer, got {raw!r}"
        ) from None


def _int_row(tokens: list[str], start: int, count: int, line: int, what: str) -> list[int]:
    return [_int_token(tokens, start + k, line, what) for k in range(count)]


_SENSES = {s.value: s for s in Sense}
_RELATIONS = {r.value: r for r in Relation}


def parse_instance(text: str) -> Problem:
    """Parse instance-format text; errors carry line and column numbers."""
    reader = _LineReader(text)

    line, tokens = reader.next_line("header")
    if tokens != ["BOIP", "1"]:
        raise ParseError(f"line {line}: expected header 'BOIP 1'")

    line, tokens = reader.next_line("SENSE")
    if len(tokens) != 3 or tokens[0] != "SENSE":
        raise ParseError(f"line {line}: expected 'SENSE <min|max> <min|max>'")
    try:
        sense = (_SENSES[tokens[1]], _SENSES[tokens[2]])
    except KeyError as bad:
        raise ParseError(f"line {line}: unknown sense {bad.args[0]!r}") from None

    line, tokens = reader.next_line("VARS")
    if len(tokens) != 2 or tokens[0] != "VARS":
        raise ParseError(f"line {line}: expected 'VARS n'")
    num_vars = _int_token(tokens, 2, line, "variable count")
    if num_vars < 1:
        raise ParseError(f"line {line}: variable count must be positive")

    objectives = []
    for name in ("OBJ1", "OBJ2"):
        line, tokens = reader.next_line(name)
        if not tokens or tokens[0] != name:
            raise ParseError(f"line {line}: expected '{name} ...'")
        if len(tokens) != 1 + num_vars:
            raise ParseError(
                f"line {line}: {name} needs {num_vars} coefficients, got {len(tokens) - 1}"
            )
        objectives.append(_int_row(tokens, 2, num_vars, line, f"{name} coefficient"))

    var_bounds = []
    for j in range(num_vars):
        line, tokens = reader.next_line("B")
        if len(tokens) != 4 or tokens[0] != "B":
            raise ParseError(f"line {line}: expected 'B {j} lo hi'")
        index = _int_token(tokens, 2, line, "variable index")
        if index != j:
            raise ParseError(f"line {line}: bound lines must be in order; expected index {j}")
        lo = _int_token(tokens, 3, line, "lower bound")
        hi = _int_token(tokens, 4, line, "upper bound")
        var_bounds.append((lo, hi))

    line, tokens = reader.next_line("CONSTRAINTS")
    if len(tokens) != 2 or tokens[0] != "CONSTRAINTS":
        raise ParseError(f"line {line}: expected 'CONSTRAINTS m'")
    num_rows = _int_token(tokens, 2, line, "constraint count")
    if num_rows < 0:
        raise ParseError(f"line {line}: constraint count must be non-negative")

    constraints = []
    for _ in range(num_rows):
        line, tokens = reader.next_line("ROW")
        if len(tokens) != 3 + num_vars or tokens[0] != "ROW":
            raise ParseError(
                f"line {line}: expected 'ROW a1 .. a{num_vars} <op> rhs'"
            )
        coeffs = _int_row(tokens, 2, num_vars, line, "row coefficient")
        op = tokens[1 + num_vars]
        if op not in _RELATIONS:
            raise ParseError(
                f"line {line}, column {2 + num_vars}: unknown relation {op!r}"
            )
        rhs = _int_token(tokens, 3 + num_vars, line, "right-hand side")
        constraints.append(LinearConstraint(tuple(coeffs), _RELATIONS[op], rhs))

    if not reader.exhausted:
        line, _ = reader.next_line("end of file")
        raise ParseError(f"line {line}: trailing content after the last constraint")

    try:
        return build_problem(num_vars, objectives, constraints, var_bounds, sense)
    except ValueError as bad:
        raise ParseError(f"instance is inconsistent: {bad}") from None


PathLike = Union[str, os.PathLike]


def write_instance(problem: Problem, destination: PathLike) -> None:
    Path(destination).write_text(format_instance(problem), encoding="utf-8")


def read_instance(source: PathLike) -> Problem:
    """``parse_instance`` on a file; a ``ParseError`` names the path first.

    A file that is not UTF-8 raises a ``ParseError`` naming the byte offset
    of its first undecodable byte.
    """
    raw = Path(source).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as bad:
        raise ParseError(f"{source}: byte {bad.start}: not UTF-8 ({bad.reason})") from None
    try:
        return parse_instance(text)
    except ParseError as bad:
        raise ParseError(f"{source}: {bad}") from None


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

def format_result(problem: Problem, front: Union[ParetoSet, Iterable[Solution]]) -> str:
    """One line per point: 'f1 f2 : x1 ... xn', user sense, f1 ascending."""
    ordered = sorted(front, key=lambda sol: user_outcome(problem, sol.outcome))
    lines = []
    for sol in ordered:
        f1, f2 = user_outcome(problem, sol.outcome)
        values = " ".join(str(v) for v in sol.assignment)
        lines.append(f"{f1} {f2} : {values}")
    return "".join(line + "\n" for line in lines)
