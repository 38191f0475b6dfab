"""Exact bounded dual simplex for LPs with bounded integer data, solving
cold from the slack basis or re-optimizing from an earlier basis.

The solver is the workhorse under the branch-and-bound backend, so it must be
exact: every quantity is a rational number, never a float.  Storing a dense
``Fraction`` tableau is an order of magnitude too slow in CPython, so the
tableau is kept fraction-free (Edmonds 1967; Bareiss, *Math. Comp.* 22,
1968): every row, the objective row included, holds integer numerators over
one positive denominator shared by the whole tableau, ``|det B|`` for the
current basis ``B``.  All data, bounds and right-hand sides are integers, so
by Cramer's rule every entry of ``B^-1`` times the data, and every reduced
cost, is an integer once multiplied by ``|det B|``, and a pivot's integer
divisions are exact: no gcd is ever taken.  Ratio tests compare integer
ratios by cross-multiplication, so no ``Fraction`` is built inside the
simplex loop.  A solve makes only its objective a ``Fraction``: the point
``LpResult.x`` is built on first read, and branch and bound reads its
decision from the basic values instead.

The coefficient part of each row is one Python ``int`` whose fixed-width
bit fields hold the row's numerators, one field per column ("SIMD within a
register"): a pivot's row update ``(x * p - e * prow) / den`` is then a
handful of whole-integer operations, which CPython's big-integer routines
run over all the fields at once, in C.  A field of width ``w`` stores its
numerator plus ``2^(w-1)``, so every field is a nonnegative ``w``-bit
number: reading one is a shift and a mask, and no borrow crosses from one
field into the next.  The packed update stays exact because it is linear.
Read as a signed integer, a row is ``sum_j a_j 2^(jw)``, and ``x * p - e *
prow`` is ``sum_j (x_j p - e b_j) 2^(jw)`` whatever size its digits reach.
Every digit is divisible by ``den``, so the whole integer is too, and its
exact quotient is ``sum_j ((x_j p - e b_j) / den) 2^(jw)``: the new row,
each field in range again.

The width comes from the data.  Up to sign, every coefficient entry of the
tableau, and ``den`` itself, is an ``m x m`` minor of the signed ``[A | I]``
(Cramer's rule again), and every reduced cost times ``den`` an ``(m+1) x
(m+1)`` minor of ``[c; A | I]``, so by Hadamard's inequality each is below
``isqrt(prod_i max(1, |a_i|^2)) + 1`` over the ``m + 1`` rows.  Two guard
bits over that bound, rounded up to whole bytes and to at least 64 bits,
make ``w``: a field can never overflow, whatever the basis.  The values of
the rows, which grow with the bounds and right-hand sides, stay a plain
list ``vals``.

The objective row is the tableau's last row, row ``m``, packed like every
other: its fields hold the reduced costs times ``den``, and its value
``vals[m]`` is ``-z``, the negated numerator of the current point's cost,
as in the right-hand side of the classic tableau's row 0.  With that sign,
a pivot and a column move update it by the very formulas of the
constraint rows, so a solve's objective is read, not summed.

Formulation notes:

* Every structural variable has finite integer bounds ``lo <= x <= hi``; it
  is shifted to ``y = x - lo`` with ``0 <= y <= u``.
* Row ``i`` gets exactly one slack column, ``n + i``, with coefficient +1:
  a ``>=`` row is negated into a ``<=`` row, the slack of a ``<=`` row has
  lower bound 0 and no upper bound, and the slack of an ``=`` row is fixed
  at 0 (upper bound 0), so no pivot can ever enter it.

A cold solve (no ``start``) starts from the slack basis: every slack is
basic, and every structural column sits at the bound its cost prefers, its
upper bound when the cost is negative and its lower bound otherwise.  The
objective row is the costs themselves, since no basic column has a cost,
and each reduced cost then has the sign its bound asks for: the basis is
dual feasible.  It need not be primal feasible: a slack may start below 0,
or an ``=`` row's slack away from 0.  The bounded dual simplex below
finishes the solve, so cold and warm solves run the same iterations.

Every optimal result keeps its final tableau, so a child node whose bounds
differ from its parent's re-optimizes from the parent's basis instead
(``solve_lp(..., start=parent)``).  Changing bounds leaves every reduced
cost as it was, so after each nonbasic column is moved to the bound its
reduced cost prefers the basis is still dual feasible; only basic values
may now lie outside their bounds.  The bounded dual simplex then takes as
leaving row that of the lowest-index basic column outside its bounds (dual
Bland).

Its entering column comes from a long-step, or bound-flipping, ratio test
(Maros, *Computational Techniques of the Simplex Method*, 2003, ch. 10;
Koberstein, *The Dual Simplex Method*, 2005).  The eligible columns are
the nonbasic ones whose move off their bound pushes the leaving row's
basic value back toward the bound it violates.  Walking the dual step up
from zero, the dual objective rises at a slope equal to the row's scaled
violation: ``-v`` below the lower bound and ``v - u * den`` above the
upper bound ``u``, for the row's basic value ``v / den``.  The step meets
the eligible columns in order of least ``|d_j| / |a_rj|``
(cross-multiplied, ties to the lowest index).
Passing column ``j`` turns its reduced cost's sign, so ``j`` must move to
its opposite bound, which closes ``|a_rj| * u_j`` of the violation and
lowers the slope by as much.  While the slope exceeds that amount the
column is flipped and the walk goes on; the first column that cannot be
passed (no upper bound, or one too small) enters, and its own primal step
then stays within its box.  If every eligible column is passed, moving
all of them to their far bounds still leaves the row violated, so the LP
is infeasible: the same certificate as a row with no eligible column.
When the least ratio is zero the plain dual Bland step is taken instead:
that column enters with no flips.

The dual objective never decreases.  Every other step, flips or not,
starts with a positive least ratio and a positive slope, so it strictly
raises the dual objective, and no basis, with the bounds its nonbasic
columns sit at, can repeat across it.  A cycle could therefore only be
made of plain dual Bland steps, and Bland's rule applied to the dual LP
does not cycle.  There are finitely many bases, so every solve ends,
optimal or with a row that proves the LP infeasible.  Since every
structural column is boxed, the LP is never unbounded.

A ``start`` may also differ in the right-hand sides of its rows, as
consecutive epsilon-constraint solves do.  Row ``i``'s slack column was
the unit vector ``e_i`` when the tableau was built, so it is ``B^-1 e_i``
in the current tableau, and a change of ``delta`` in the row's rhs adds
that column times ``sign * delta`` to the basic values, where ``sign`` is
-1 for a negated ``>=`` row and 1 otherwise: the tableau shifts the slack
column by ``-sign * delta`` as if it were a nonbasic column moving, which
also moves the objective by the slack's reduced cost times the shift.
Reduced costs do not depend on the rhs, so the basis stays dual feasible
and the same bounded dual simplex finishes the solve.  No row is ever
dropped, even one that depends on the others: if a shift contradicts such
a dependence, the LP is infeasible and the dual simplex proves it like any
other infeasibility.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import isqrt
from typing import NamedTuple, Optional, Sequence

from biopt.errors import BioptError
from biopt.model import LinearConstraint, Relation


@dataclass(frozen=True)
class LpResult:
    """Exact LP outcome: rational optimum and argmin in original coordinates.

    The LP is optimal exactly when ``objective`` is set; an infeasible
    result holds None there.  An optimal result also carries ``restart``,
    an opaque record of its final basis; passing the result back as
    ``solve_lp(..., start=result)`` re-optimizes from that basis.
    ``pivots`` counts the basis changes of this solve alone and ``flips``
    the nonbasic columns it moved from one bound to the other inside a
    simplex iteration; none of the three takes part in comparisons.  ``x``
    is built from the final tableau on first read.
    """

    objective: Fraction | None = None
    restart: _Restart | None = field(default=None, compare=False, repr=False)
    pivots: int = field(default=0, compare=False)
    flips: int = field(default=0, compare=False)

    @property
    def is_optimal(self) -> bool:
        return self.objective is not None

    @cached_property
    def x(self) -> tuple[Fraction, ...] | None:
        """The optimal point, or None unless optimal."""
        if self.restart is None:
            return None
        return tuple(Fraction(v, d) for v, d in self._values())

    def _final(self) -> _Restart:
        if self.restart is None:
            raise ValueError("only an optimal LpResult has a final tableau")
        return self.restart

    def _values(self) -> list[tuple[int, int]]:
        """``x`` as pairs ``(v, d)``, each the value ``v / d``."""
        base = self._final()
        tab, bounds = base.tableau, base.bounds
        at_upper, d = _VarState.AT_UPPER, tab.den
        out = [(hi if s == at_upper else lo, 1) for (lo, hi), s in zip(bounds, tab.state)]
        for v, b in zip(tab.vals, tab.basis):
            if b < len(bounds):
                out[b] = (bounds[b][0] * d + v, d)
        return out

    def most_fractional(self) -> tuple[int, int] | None:
        """``(j, floor(x[j]))`` for the ``j`` farthest from integrality,
        ties to the lowest index, or None when ``x`` is integral.

        Nonbasic columns sit at integer bounds, so only the basic rows are
        read, and none is fractional when the tableau's denominator ``d`` is
        1.  A basic value ``v / d`` is ``min(r, d - r) / d`` from an
        integer, for ``r = v mod d``.
        """
        base = self._final()
        tab, bounds = base.tableau, base.bounds
        d = tab.den
        if d == 1:
            return None
        n = best_j = len(bounds)
        best_r = best_v = 0
        for v, b in zip(tab.vals, tab.basis):
            if b >= n:
                continue
            v += bounds[b][0] * d
            r = v % d
            if not r:
                continue
            if d - r < r:
                r = d - r
            if r > best_r or (r == best_r and b < best_j):
                best_j, best_r, best_v = b, r, v
        return None if best_j == n else (best_j, best_v // d)

    def integral_point(self) -> tuple[int, ...]:
        """``x`` as integers; raises ``ValueError`` unless it is integral."""
        values = self._values()
        if any(v % d for v, d in values):
            raise ValueError("x is fractional")
        return tuple(v // d for v, d in values)

    def fits(self, costs: Sequence[int], rows: Sequence[LinearConstraint]) -> bool:
        """Can ``solve_lp(costs, rows, bounds, start=self)`` restart from here?

        It can when this result is optimal and was solved for the same
        costs and for rows that differ from ``rows`` only in right-hand
        sides.
        """
        base = self.restart
        if base is None:
            return False
        if rows is base.rows and costs is base.costs:  # a branch-and-bound child
            return True
        if tuple(costs) != base.costs or len(rows) != len(base.rows):
            return False
        return all(
            new is old or (new.coeffs == old.coeffs and new.relation is old.relation)
            for new, old in zip(rows, base.rows)
        )

    def reduced_costs(self) -> tuple[list[int], int, int]:
        """The structural columns' reduced costs at this optimum and its
        objective, as integer numerators over one positive denominator:
        ``(nums, z, den)``, read off the tableau's objective row and its
        value ``-z``.

        A basic column's is 0.  A column whose box is not a single point
        sits at its lower bound when its reduced cost is positive and at its
        upper bound when it is negative.
        """
        base = self._final()
        tab = base.tableau
        return tab.row(-1)[: len(base.bounds)], -tab.vals[-1], tab.den


class _VarState:
    """Where a column sits: basic, or nonbasic at one of its bounds.  The
    nonbasic states are signs, so the ratio test reads a column's
    eligibility off the sign of ``a * state``."""

    BASIC = 0
    AT_LOWER = 1
    AT_UPPER = -1


class _Layout:
    """How a tableau packs a row of ``ncols`` integer numerators into one
    ``int``: field ``j`` is bits ``j * width`` up to ``(j + 1) * width`` and
    holds its numerator plus ``bias``, ``2^(width - 1)``.

    ``ones`` has ``bias`` in every field, so a packed row minus ``ones`` is
    the row read as one signed integer, ``sum_j a_j 2^(j * width)``, and a
    packed row XOR ``ones`` holds each numerator in ``width``-bit two's
    complement, ready to be read by bytes.
    """

    __slots__ = ("ncols", "width", "bias", "mask", "ones", "_words")

    def __init__(self, ncols: int, width: int) -> None:
        """``width`` is a whole number of bytes."""
        self.ncols = ncols
        self.width = width
        self.bias = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.ones = self.bias * (((1 << (ncols * width)) - 1) // self.mask)
        # 64-bit fields read as native signed words when bytes are little-endian
        self._words = width == 64 and sys.byteorder == "little"

    @classmethod
    def for_rows(cls, ncols: int, rows: Sequence[Sequence[int]]) -> _Layout:
        """The layout whose fields hold every entry of every tableau over
        ``rows``, each of ``ncols`` entries: the data rows ``[a_i | e_i]``,
        then the cost row ``[c | 0]``.

        Each such entry, each reduced cost times the denominator, and each
        denominator, is up to sign a minor of ``rows``, which Hadamard's
        inequality bounds by the product of the norms of the rows it meets.
        Every factor is taken as at least 1, so the product over all rows
        bounds the minors of every subset of them: a zero cost row must not
        make it 0.  (A data row is at least 1 anyway, from its slack's 1.)
        Two guard bits over that bound, rounded up to whole bytes and to at
        least 64 bits, give the width.
        """
        product = 1
        for row in rows:
            product *= max(1, sum(a * a for a in row))
        bits = (isqrt(product) + 1).bit_length() + 2
        return cls(ncols, max(64, -(-bits // 8) * 8))

    def pack(self, values: Sequence[int]) -> int:
        """One packed row of ``ncols`` numerators, each below ``bias`` in
        magnitude (``OverflowError`` otherwise)."""
        size = self.width // 8
        raw = b"".join(v.to_bytes(size, "little", signed=True) for v in values)
        return int.from_bytes(raw, "little") ^ self.ones

    def field(self, packed: int, j: int) -> int:
        """Numerator ``j`` of a packed row."""
        return (packed >> (j * self.width) & self.mask) - self.bias

    def unpack(self, packed: int) -> list[int]:
        """Every numerator of a packed row, in column order."""
        size = self.width // 8
        raw = (packed ^ self.ones).to_bytes(self.ncols * size, "little")
        if self._words:
            return memoryview(raw).cast("q").tolist()
        return [
            int.from_bytes(raw[k : k + size], "little", signed=True)
            for k in range(0, len(raw), size)
        ]


class _Tableau:
    """Canonical simplex dictionary in fraction-free integer arithmetic.

    Invariant: ``den`` is ``|det B|`` for the current basis ``B``, taken
    over the columns of the rows as they were built, and for every row
    ``i`` with basic column ``b = basis[i]``, entry ``b`` of row ``i`` is
    ``den`` and entry ``b`` of every other row is 0 (the true coefficient
    matrix is the rows over ``den``).  ``rows[i]`` holds row ``i``'s
    coefficients packed as ``layout`` describes; ``row(i)`` reads them as a
    list.  ``vals[i] / den`` is row ``i``'s basic value, with every
    nonbasic column at the bound its ``state`` names.  Moving a nonbasic
    column ``j`` from 0 to its upper bound ``u`` therefore subtracts entry
    ``j`` of row ``i`` times ``u`` from ``vals[i]``, all in integers.

    The last row, ``m = len(basis)``, is the objective row: ``row(m)``,
    or ``row(-1)``, holds the reduced costs times ``den``, one per column,
    and ``vals[m]`` is ``-z`` for the objective ``z / den`` of the current
    point in original coordinates.  Pivots and column moves treat it as any
    other row, so it is never summed anew.  The loops over basic rows zip
    with ``basis``, which has ``m`` entries, so they never see row ``m``.

    ``pivots`` and ``flips`` count the basis changes and bound flips made
    since the tableau was built or copied.
    """

    def __init__(
        self, upper: list[Optional[int]], rows: list[list[int]], vals: list[int]
    ) -> None:
        """The slack basis of the data rows, then the cost row, in
        ``rows``, column ``ncols - m + i`` basic in row ``i``, with row
        values ``vals`` (the denominator is 1): each structural column at
        the bound its cost prefers, the upper one for a negative cost, else
        the lower one."""
        m = len(rows) - 1
        self.layout = layout = _Layout.for_rows(len(upper), rows)
        self.upper = upper
        self.rows = [layout.pack(row) for row in rows]
        self.vals = vals
        self.den = 1
        self.basis = list(range(len(upper) - m, len(upper)))
        self.state: list[int] = [
            _VarState.AT_UPPER if c < 0 else _VarState.AT_LOWER for c in rows[-1]
        ]
        for b in self.basis:
            self.state[b] = _VarState.BASIC
        self.pivots = 0
        self.flips = 0

    def copy(self) -> _Tableau:
        twin = _Tableau.__new__(_Tableau)
        twin.layout = self.layout
        twin.upper = self.upper[:]
        twin.rows = self.rows[:]
        twin.vals = self.vals[:]
        twin.den = self.den
        twin.basis = self.basis[:]
        twin.state = self.state[:]
        twin.pivots = twin.flips = 0
        return twin

    def rebound(
        self,
        old_bounds: Sequence[tuple[int, int]],
        bounds: Sequence[tuple[int, int]],
    ) -> bool:
        """Move the structural columns from ``old_bounds`` to ``bounds``.

        Columns are re-shifted to the new lower bounds.  A basic column's
        value stays where it is, so only its basic value's numerator changes
        and it may end up outside its new bounds.  A nonbasic column whose
        box changed goes to the bound its reduced cost makes dual feasible
        (keeping its side when that cost is zero), so the basis stays dual
        feasible under any change of bounds.  Returns False, leaving the
        tableau half moved, when a new box is empty.  A column whose bound
        pair is the very object it was is skipped unread, as a branch and
        bound child shares every pair it did not change with its parent.
        """
        changed = [
            j
            for j, new, old in zip(count(), bounds, old_bounds)
            if new is not old and new != old
        ]
        for j in changed:
            lo, hi = bounds[j]
            if hi < lo:
                return False
            old_lo, old_hi = old_bounds[j]
            self.upper[j] = hi - lo
            state = self.state[j]
            if state == _VarState.BASIC:
                i = self.basis.index(j)
                self.vals[i] += (old_lo - lo) * self.den
                continue
            was = old_lo if state == _VarState.AT_LOWER else old_hi
            d = self.layout.field(self.rows[-1], j)
            if d:
                state = _VarState.AT_LOWER if d > 0 else _VarState.AT_UPPER
            self.state[j] = state
            self._shift(j, (lo if state == _VarState.AT_LOWER else hi) - was)
        return True

    # -- inspection ----------------------------------------------------

    def row(self, i: int) -> list[int]:
        """Row ``i``'s coefficient numerators, one per column."""
        return self.layout.unpack(self.rows[i])

    # -- pivoting ------------------------------------------------------

    def pivot(self, r: int, c: int, prow: list[int]) -> None:
        """Make column ``c`` basic in row ``r``, which ``prow`` holds
        unpacked, by one fraction-free (Bareiss) row operation per row.

        With ``p`` the pivot entry, made positive, the new denominator
        ``|det B'|`` is ``p``: the pivot row keeps its numerators, and every
        other row ``x`` becomes ``(x * p - x[c] * prow) / den``, a division
        the invariant makes exact.  On a packed row that is one update of
        the whole integer, with the pivot row read as a signed integer and
        ``(den - p) * ones`` added so that every field keeps its bias
        through the division.  The row values, the objective row's ``-z``
        included, are combined the same way, so afterwards they hold the
        basic values and cost of the new basis with every nonbasic column,
        ``c``'s old basic variable included, at its old value.
        """
        lay, rows, vals, den = self.layout, self.rows, self.vals, self.den
        at, mask, bias, ones = c * lay.width, lay.mask, lay.bias, lay.ones
        p, v = prow[c], vals[r]
        if p == 0:
            raise BioptError("pivot on zero entry")
        if p < 0:
            rows[r] = 2 * ones - rows[r]
            v = vals[r] = -v
            p = -p
        signed = rows[r] - ones
        lift = (den - p) * ones
        for i, row in enumerate(rows):
            e = (row >> at & mask) - bias  # layout.field(row, c), inlined
            if e:
                if i != r:
                    rows[i] = (row * p + lift - e * signed) // den
                    vals[i] = (vals[i] * p - e * v) // den
            elif p != den:
                rows[i] = (row * p + lift) // den
                vals[i] = vals[i] * p // den
        self.den = p

    def _shift(self, j: int, amount: int) -> None:
        """Account for nonbasic column ``j`` moving by ``amount``."""
        if amount:
            field, vals = self.layout.field, self.vals
            for i, row in enumerate(self.rows):
                a = field(row, j)
                if a:
                    vals[i] -= a * amount

    def enter(self, r: int, c: int, prow: list[int], landing: int) -> None:
        """Pivot nonbasic ``c`` into row ``r``, unpacked in ``prow``, its
        leaving column to ``landing``."""
        leaving = self.basis[r]
        from_upper = self.state[c] == _VarState.AT_UPPER
        self.pivot(r, c, prow)
        self.pivots += 1
        self.basis[r] = c
        self.state[c] = _VarState.BASIC
        self.state[leaving] = landing
        if from_upper:  # c leaves the upper-bound set: only row r carries it
            u = self.upper[c]
            assert u is not None
            self.vals[r] += u * self.den
        if landing == _VarState.AT_UPPER:
            u = self.upper[leaving]
            assert u is not None
            self._shift(leaving, u)

    # -- simplex iterations ---------------------------------------------

    def flip(self, j: int) -> None:
        """Move nonbasic column ``j`` to its opposite bound."""
        u = self.upper[j]
        assert u is not None
        if self.state[j] == _VarState.AT_LOWER:
            self._shift(j, u)
            self.state[j] = _VarState.AT_UPPER
        else:
            self._shift(j, -u)
            self.state[j] = _VarState.AT_LOWER
        self.flips += 1

    def choose_leaving(self) -> int:
        """Dual Bland: the row of the lowest-index basic column outside its
        bounds, or -1 when the basis is primal feasible."""
        upper, den = self.upper, self.den
        best_r, best_b = -1, self.layout.ncols
        for i, (v, b) in enumerate(zip(self.vals, self.basis)):
            if b >= best_b:
                continue
            if v < 0 or (upper[b] is not None and v > upper[b] * den):
                best_r, best_b = i, b
        return best_r

    def _eligible(self, row: list[int], below: bool) -> list[int]:
        """The columns, in index order, whose move off their bound pushes
        the basic value of ``row`` up when ``below``, else down.

        Raising an at-lower column (state 1) moves that value by ``-a /
        den``, and lowering an at-upper one (state -1) by ``+a / den``, so
        the sign of ``a * state`` tells; a basic column (state 0), a zero
        entry and a fixed column are never eligible.
        """
        upper, cols = self.upper, zip(count(), row, self.state)
        if below:
            return [j for j, a, s in cols if a * s < 0 and upper[j] != 0]
        return [j for j, a, s in cols if a * s > 0 and upper[j] != 0]

    def dual_ratio_test(
        self, r: int, row: list[int], below: bool
    ) -> tuple[Optional[int], list[int]]:
        """Long-step ratio test for leaving row ``r``, unpacked in ``row``:
        ``(entering, flips)``.

        Eligible columns can move off their bound in the direction that
        pushes row ``r``'s basic value back toward the violated bound (up
        when ``below``).  They are passed in order of least
        ``|d_j / a_rj|``, ties to the lowest index, as the module docstring
        describes; ``flips`` lists the passed ones.  ``entering`` is None,
        and the LP infeasible, when no column is eligible or every one is
        passed.
        """
        upper, reduced = self.upper, self.row(-1)
        eligible = self._eligible(row, below)
        flips: list[int] = []
        slope = None
        while eligible:
            j, best_d, best_a = -1, 0, 1
            for k in eligible:
                d, a = abs(reduced[k]), abs(row[k])
                # a strict < keeps the lowest index among equal ratios
                if j < 0 or d * best_a < best_d * a:
                    j, best_d, best_a = k, d, a
            if slope is None:
                if not best_d:
                    return j, flips
                if below:
                    slope = -self.vals[r]
                else:
                    slope = self.vals[r] - upper[self.basis[r]] * self.den
            u = upper[j]
            if u is None or slope <= best_a * u:
                return j, flips
            flips.append(j)
            slope -= best_a * u
            eligible.remove(j)
        return None, flips

    def run_dual(self) -> bool:
        """Bounded dual simplex from a dual feasible basis.

        Returns False when a row proves the LP infeasible.  Each iteration
        flips the columns its ratio test passed, then pivots; the leaving
        column lands exactly on the bound it violated.
        """
        while True:
            r = self.choose_leaving()
            if r < 0:
                return True
            row = self.row(r)  # flips leave it as it is
            below = self.vals[r] < 0
            j, flips = self.dual_ratio_test(r, row, below)
            if j is None:
                return False
            for k in flips:
                self.flip(k)
            self.enter(r, j, row, _VarState.AT_LOWER if below else _VarState.AT_UPPER)


class _Restart(NamedTuple):
    """An optimal basis and the LP it solves, for ``solve_lp(start=...)``."""

    tableau: _Tableau
    bounds: tuple[tuple[int, int], ...]  # columns are shifted by their lows
    costs: tuple[int, ...]
    rows: tuple[LinearConstraint, ...]
    signs: tuple[int, ...]  # per row: -1 if it was negated, else 1


def _optimal(restart: _Restart) -> LpResult:
    tab = restart.tableau
    return LpResult(Fraction(-tab.vals[-1], tab.den), restart, tab.pivots, tab.flips)


def _infeasible(tab: _Tableau) -> LpResult:
    return LpResult(pivots=tab.pivots, flips=tab.flips)


def _reoptimize(
    start: LpResult,
    costs: tuple[int, ...],
    rows: tuple[LinearConstraint, ...],
    bounds: tuple[tuple[int, int], ...],
) -> LpResult:
    """Re-solve ``start``'s LP under new variable bounds and right-hand
    sides from its basis."""
    base = start.restart
    if base is None:
        raise ValueError("start must be an optimal LpResult")
    if not start.fits(costs, rows):
        raise ValueError("start was solved for other costs or rows")
    tab = base.tableau.copy()  # the parent's basis may serve several children
    if not tab.rebound(base.bounds, bounds):
        return LpResult()
    n = len(bounds)
    for i, (new, old, sign) in enumerate(zip(rows, base.rows, base.signs)):
        if new is not old and new.rhs != old.rhs:
            # the row's slack column n + i is B^-1 e_i: a change in its rhs
            # moves each basic value by that column's entry times the change
            tab._shift(n + i, sign * (old.rhs - new.rhs))
    if not tab.run_dual():
        return _infeasible(tab)
    return _optimal(_Restart(tab, bounds, costs, rows, base.signs))


def solve_lp(
    costs: Sequence[int],
    rows: Sequence[LinearConstraint],
    bounds: Sequence[tuple[int, int]],
    *,
    start: LpResult | None = None,
) -> LpResult:
    """Minimize ``costs . x`` over integer-data rows and finite variable bounds.

    Data must be integers; the answer is exact.  Returns the rational
    optimum and one optimal point, or a result with no objective when the
    LP is infeasible.

    Without ``start`` the LP is solved cold by bounded dual simplex from
    the slack basis.  With an optimal ``start`` solved for the same costs,
    and for rows that differ at most in their right-hand sides (see
    ``LpResult.fits``), the solve re-optimizes from ``start``'s basis
    instead and leaves ``start`` untouched; the bounds may differ too.  A
    ``start`` for other costs, another row count, or other coefficients or
    relations raises ``ValueError``.
    """
    n = len(bounds)
    if len(costs) != n:
        raise ValueError("costs length must match bounds length")
    costs, rows, bounds = tuple(costs), tuple(rows), tuple(bounds)
    if start is not None:
        return _reoptimize(start, costs, rows, bounds)
    if any(len(con.coeffs) != n for con in rows):
        raise ValueError("constraint arity mismatch")
    if any(hi < lo for lo, hi in bounds):
        return LpResult()
    m = len(rows)
    upper: list[Optional[int]] = [hi - lo for lo, hi in bounds]
    upper += [0 if con.relation is Relation.EQ else None for con in rows]
    # the structural columns' starting values, in original coordinates
    start_x = [hi if c < 0 else lo for c, (lo, hi) in zip(costs, bounds)]
    signs = tuple(-1 if con.relation is Relation.GE else 1 for con in rows)
    data, vals = [], []
    for i, (con, sign) in enumerate(zip(rows, signs)):
        row = [sign * c for c in con.coeffs] + [0] * m
        row[n + i] = 1
        data.append(row)
        vals.append(sign * (con.rhs - sum(c * v for c, v in zip(con.coeffs, start_x))))
    data.append([int(c) for c in costs] + [0] * m)
    vals.append(-sum(c * v for c, v in zip(costs, start_x)))
    tab = _Tableau(upper, data, vals)
    if not tab.run_dual():
        return _infeasible(tab)
    return _optimal(_Restart(tab, bounds, costs, rows, signs))
