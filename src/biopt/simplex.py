"""Exact bounded dual simplex for LPs with bounded integer data, solving
cold from the slack basis or re-optimizing from an earlier basis.

The solver is the workhorse under the branch-and-bound backend, so it must be
exact: every quantity is a rational number, never a float.  Storing a dense
``Fraction`` tableau is an order of magnitude too slow in CPython, so the
tableau is kept fraction-free (Edmonds 1967; Bareiss, *Math. Comp.* 22,
1968): every row, the objective row included, is a list of integer
numerators over one positive denominator shared by the whole tableau,
``|det B|`` for the current basis ``B``.  All data, bounds and right-hand
sides are integers, so by Cramer's rule every entry of ``B^-1`` times the
data, and every reduced cost, is an integer once multiplied by ``|det B|``,
and a pivot's integer divisions are exact: no gcd is ever taken.  The last
entry of a row is the numerator of its basic variable's current value over
that same denominator, and ratio tests compare integer ratios by
cross-multiplication, so no ``Fraction`` is built inside the simplex loop.
A solve makes only its objective a ``Fraction``: the point ``LpResult.x``
is built on first read, and branch and bound reads its decision from the
basic rows instead.

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
violation: ``-row[-1]`` below the lower bound, ``row[-1] - u * den``
above the upper bound ``u``.  The step meets the eligible columns in order
of least ``|d_j| / |a_rj|`` (cross-multiplied, ties to the lowest index).
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
that column times ``delta`` to the basic values: ``row[-1] += sign *
delta * row[n + i]``, where ``sign`` is -1 for a negated ``>=`` row and
1 otherwise.  Reduced costs do not depend on the rhs, so the basis stays
dual feasible and the same bounded dual simplex finishes the solve.  No
row is ever dropped, even one that depends on the others: if a shift
contradicts such a dependence, the LP is infeasible and the dual simplex
proves it like any other infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import count
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
        for row, b in zip(tab.rows, tab.basis):
            if b < len(bounds):
                out[b] = (bounds[b][0] * d + row[-1], d)
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
        for row, b in zip(tab.rows, tab.basis):
            if b >= n:
                continue
            v = bounds[b][0] * d + row[-1]
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

    def reduced_costs(self) -> tuple[list[int], int]:
        """The structural columns' reduced costs at this optimum, as integer
        numerators over one positive denominator.

        A basic column's is 0.  A column whose box is not a single point
        sits at its lower bound when its reduced cost is positive and at its
        upper bound when it is negative.
        """
        base = self._final()
        return base.tableau.onums[: len(base.bounds)], base.tableau.den


class _VarState:
    """Where a column sits: basic, or nonbasic at one of its bounds.  The
    nonbasic states are signs, so the ratio test reads a column's
    eligibility off the sign of ``a * state``."""

    BASIC = 0
    AT_LOWER = 1
    AT_UPPER = -1


class _Tableau:
    """Canonical simplex dictionary in fraction-free integer arithmetic.

    Invariant: ``den`` is ``|det B|`` for the current basis ``B``, taken
    over the columns of the rows as they were added, and for every row
    ``i`` with basic column ``b = basis[i]``, ``rows[i][b] == den`` and
    ``rows[k][b] == 0`` for ``k != i`` (the true coefficient matrix is
    ``rows / den``).  The last entry of each row is the numerator of its
    basic variable's current value, ``rows[i][-1] / den``, with every
    nonbasic column at the bound its ``state`` names.  Moving a nonbasic
    column ``j`` from 0 to its upper bound ``u`` therefore subtracts
    ``rows[i][j] * u`` from every last entry, all in integers.

    The objective row ``onums / den`` holds the reduced costs only, one
    per column, with no last entry: ``objective`` sums the objective from
    the basic values itself, so no pivot or flip has to carry it.

    ``pivots`` and ``flips`` count the basis changes and bound flips made
    since the tableau was built or copied.
    """

    def __init__(self, upper: list[Optional[int]], costs: list[int]) -> None:
        """A tableau with no rows yet, each column at the bound its cost
        prefers: the upper one for a negative cost, else the lower one."""
        self.ncols = len(upper)
        self.upper = upper
        self.rows: list[list[int]] = []
        self.den = 1
        self.basis: list[int] = []
        self.state: list[int] = [
            _VarState.AT_UPPER if c < 0 else _VarState.AT_LOWER for c in costs
        ]
        self.onums = costs
        self.pivots = 0
        self.flips = 0

    # -- construction -------------------------------------------------

    def add_row(self, row: list[int], basic_col: int) -> None:
        """Append a row, its last entry the basic value, with ``basic_col``
        basic in it at coefficient 1."""
        self.rows.append(row)
        self.basis.append(basic_col)
        self.state[basic_col] = _VarState.BASIC

    def copy(self) -> _Tableau:
        twin = _Tableau.__new__(_Tableau)
        twin.ncols = self.ncols
        twin.upper = self.upper[:]
        twin.rows = [row[:] for row in self.rows]
        twin.den = self.den
        twin.basis = self.basis[:]
        twin.state = self.state[:]
        twin.onums = self.onums[:]
        twin.pivots = twin.flips = 0
        return twin

    def rebound(
        self,
        old_bounds: Sequence[tuple[int, int]],
        bounds: Sequence[tuple[int, int]],
    ) -> bool:
        """Move the structural columns from ``old_bounds`` to ``bounds``.

        Columns are re-shifted to the new lower bounds.  A basic column's
        value stays where it is, so only its row's last entry changes and
        it may end up outside its new bounds.  A nonbasic column whose box
        changed goes to the bound its reduced cost makes dual feasible
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
                self.rows[i][-1] += (old_lo - lo) * self.den
                continue
            was = old_lo if state == _VarState.AT_LOWER else old_hi
            d = self.onums[j]
            if d:
                state = _VarState.AT_LOWER if d > 0 else _VarState.AT_UPPER
            self.state[j] = state
            self._shift(j, (lo if state == _VarState.AT_LOWER else hi) - was)
        return True

    # -- inspection ----------------------------------------------------

    def objective(
        self, bounds: Sequence[tuple[int, int]], costs: Sequence[int]
    ) -> Fraction:
        """The cost of the current point in original coordinates.

        It is summed in integers alone, as one numerator over the
        tableau's denominator, and made a ``Fraction`` once at the end.
        """
        n, d = len(bounds), self.den
        basic, at_upper = _VarState.BASIC, _VarState.AT_UPPER
        num = 0
        for c, (lo, hi), s in zip(costs, bounds, self.state):
            if c and s != basic:
                num += c * (hi if s == at_upper else lo)
        num *= d
        for row, b in zip(self.rows, self.basis):
            if b < n:
                c = costs[b]
                if c:
                    num += c * (bounds[b][0] * d + row[-1])  # the value over d
        return Fraction(num, d)

    # -- pivoting ------------------------------------------------------

    def pivot(self, r: int, c: int) -> None:
        """Make column ``c`` basic in row ``r`` by one fraction-free
        (Bareiss) row operation per row.

        With ``p`` the pivot entry, made positive, the new denominator
        ``|det B'|`` is ``p``: the pivot row keeps its numerators, and every
        other row ``x`` becomes ``(x * p - x[c] * prow) / den``, a division
        the invariant makes exact.  The last entries are combined like
        every other column, so afterwards they hold the basic values of the
        new basis with every nonbasic column, ``c``'s old basic variable
        included, at its old value.  The objective row, which has no last
        entry, is updated on its reduced costs alone.
        """
        rows, den = self.rows, self.den
        prow = rows[r]
        p = prow[c]
        if p == 0:
            raise BioptError("pivot on zero entry")
        if p < 0:
            prow = rows[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(rows):
            e = row[c]
            if e:
                if i != r:
                    rows[i] = [(a * p - e * b) // den for a, b in zip(row, prow)]
            elif p != den:
                rows[i] = [a * p // den for a in row]
        e = self.onums[c]
        if e:
            self.onums = [(a * p - e * b) // den for a, b in zip(self.onums, prow)]
        elif p != den:
            self.onums = [a * p // den for a in self.onums]
        self.den = p

    def _shift(self, j: int, amount: int) -> None:
        """Account for nonbasic column ``j`` moving by ``amount``."""
        if amount:
            for row in self.rows:
                a = row[j]
                if a:
                    row[-1] -= a * amount

    def enter(self, r: int, c: int, landing: int) -> None:
        """Pivot nonbasic ``c`` into row ``r``, its leaving column to ``landing``."""
        leaving = self.basis[r]
        from_upper = self.state[c] == _VarState.AT_UPPER
        self.pivot(r, c)
        self.pivots += 1
        self.basis[r] = c
        self.state[c] = _VarState.BASIC
        self.state[leaving] = landing
        if from_upper:  # c leaves the upper-bound set: only row r carries it
            u = self.upper[c]
            assert u is not None
            self.rows[r][-1] += u * self.den
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
        best_r, best_b = -1, self.ncols
        for i, (row, b) in enumerate(zip(self.rows, self.basis)):
            if b >= best_b:
                continue
            v = row[-1]
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
        self, r: int, below: bool
    ) -> tuple[Optional[int], list[int]]:
        """Long-step ratio test for leaving row ``r``: ``(entering, flips)``.

        Eligible columns can move off their bound in the direction that
        pushes row ``r``'s basic value back toward the violated bound (up
        when ``below``).  They are passed in order of least
        ``|d_j / a_rj|``, ties to the lowest index, as the module docstring
        describes; ``flips`` lists the passed ones.  ``entering`` is None,
        and the LP infeasible, when no column is eligible or every one is
        passed.
        """
        upper, onums = self.upper, self.onums
        row = self.rows[r]
        eligible = self._eligible(row, below)
        flips: list[int] = []
        slope = None
        while eligible:
            j, best_d, best_a = -1, 0, 1
            for k in eligible:
                d, a = abs(onums[k]), abs(row[k])
                # a strict < keeps the lowest index among equal ratios
                if j < 0 or d * best_a < best_d * a:
                    j, best_d, best_a = k, d, a
            if slope is None:
                if not best_d:
                    return j, flips
                if below:
                    slope = -row[-1]
                else:
                    slope = row[-1] - upper[self.basis[r]] * self.den
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
            below = self.rows[r][-1] < 0
            j, flips = self.dual_ratio_test(r, below)
            if j is None:
                return False
            for k in flips:
                self.flip(k)
            self.enter(r, j, _VarState.AT_LOWER if below else _VarState.AT_UPPER)


class _Restart(NamedTuple):
    """An optimal basis and the LP it solves, for ``solve_lp(start=...)``."""

    tableau: _Tableau
    bounds: tuple[tuple[int, int], ...]  # columns are shifted by their lows
    costs: tuple[int, ...]
    rows: tuple[LinearConstraint, ...]
    signs: tuple[int, ...]  # per row: -1 if it was negated, else 1


def _optimal(restart: _Restart) -> LpResult:
    tab = restart.tableau
    objective = tab.objective(restart.bounds, restart.costs)
    return LpResult(objective, restart, tab.pivots, tab.flips)


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
    tab = _Tableau(upper, [int(c) for c in costs] + [0] * m)
    # the structural columns' starting values, in original coordinates
    start_x = [hi if c < 0 else lo for c, (lo, hi) in zip(costs, bounds)]
    signs = tuple(-1 if con.relation is Relation.GE else 1 for con in rows)
    for i, (con, sign) in enumerate(zip(rows, signs)):
        row = [sign * c for c in con.coeffs] + [0] * m
        row[n + i] = 1
        row.append(sign * (con.rhs - sum(c * v for c, v in zip(con.coeffs, start_x))))
        tab.add_row(row, n + i)
    if not tab.run_dual():
        return _infeasible(tab)
    return _optimal(_Restart(tab, bounds, costs, rows, signs))
