"""Exact bounded dual simplex for LPs with bounded integer data, solving
cold from the slack basis or re-optimizing from an earlier basis.

The solver is the workhorse under the branch-and-bound backend, so it must be
exact: every quantity is a rational number, never a float.  Storing a dense
``Fraction`` tableau is an order of magnitude too slow in CPython, so each
tableau row is kept as a list of integer numerators with one shared positive
integer denominator, gcd-reduced after every pivot.  The last entry of a
row is the numerator of its basic variable's current value over that same
denominator, and ratio tests compare integer ratios by cross-multiplication,
so no ``Fraction`` is built inside the simplex loop; only the returned point
and objective are materialized as ``Fraction``.

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
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Sequence

from biopt.errors import BioptError
from biopt.model import LinearConstraint, Relation


class SolveStatus(Enum):
    """Outcome of an exact solve (LPs here, IPs in the layer above)."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LpResult:
    """Exact LP outcome: rational optimum and argmin in original coordinates.

    An optimal result also carries ``restart``, an opaque record of its
    final basis; passing the result back as ``solve_lp(..., start=result)``
    re-optimizes from that basis.  ``pivots`` counts the basis changes of
    this solve alone and ``flips`` the nonbasic columns it moved from one
    bound to the other inside a simplex iteration; none of the three takes
    part in comparisons.
    """

    status: SolveStatus
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    restart: _Restart | None = field(default=None, compare=False, repr=False)
    pivots: int = field(default=0, compare=False)
    flips: int = field(default=0, compare=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def fits(self, costs: Sequence[int], rows: Sequence[LinearConstraint]) -> bool:
        """Can ``solve_lp(costs, rows, bounds, start=self)`` restart from here?

        It can when this result is optimal and was solved for the same
        costs and for rows that differ from ``rows`` only in right-hand
        sides.
        """
        base = self.restart
        if base is None or tuple(costs) != base.costs or len(rows) != len(base.rows):
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
        if self.restart is None:
            raise ValueError("only an optimal LpResult has reduced costs")
        tab = self.restart.tableau
        return tab.onums[: len(self.restart.bounds)], tab.oden


class _VarState(Enum):
    BASIC = 0
    AT_LOWER = 1
    AT_UPPER = 2


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """Normalize a scaled row: positive denominator, gcd canceled."""
    if den < 0:
        nums = [-v for v in nums]
        den = -den
    g = gcd(den, *nums)
    if g > 1:
        nums = [v // g for v in nums]
        den //= g
    return nums, den


class _Tableau:
    """Canonical simplex dictionary with row-scaled integer arithmetic.

    Invariant: for every row ``i`` with basic column ``b = basis[i]``,
    ``rows[i][b] == dens[i]`` and ``rows[k][b] == 0`` for ``k != i`` (the
    true coefficient matrix is ``rows[i] / dens[i]``).  The last entry of
    each row is the numerator of its basic variable's current value,
    ``rows[i][-1] / dens[i]``, with every nonbasic column at the bound its
    ``state`` names.  Moving a nonbasic column ``j`` from 0 to its upper
    bound ``u`` therefore subtracts ``rows[i][j] * u`` from every last
    entry, all in integers.

    The objective row ``onums / oden`` holds the reduced costs only, one
    per column, with no last entry: ``point`` sums the objective from the
    basic values itself.  The objective's value would grow with every
    pivot and block the gcd that keeps the reduced costs small.

    ``pivots`` and ``flips`` count the basis changes and bound flips made
    since the tableau was built or copied.
    """

    def __init__(self, upper: list[Optional[int]], costs: list[int]) -> None:
        """A tableau with no rows yet, each column at the bound its cost
        prefers: the upper one for a negative cost, else the lower one."""
        self.ncols = len(upper)
        self.upper = upper
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.basis: list[int] = []
        self.state: list[_VarState] = [
            _VarState.AT_UPPER if c < 0 else _VarState.AT_LOWER for c in costs
        ]
        self.onums = costs
        self.oden = 1
        self.pivots = 0
        self.flips = 0

    # -- construction -------------------------------------------------

    def add_row(self, row: list[int], basic_col: int) -> None:
        """Append a row, its last entry the basic value, with ``basic_col``
        basic in it at coefficient 1."""
        self.rows.append(row)
        self.dens.append(1)
        self.basis.append(basic_col)
        self.state[basic_col] = _VarState.BASIC

    def copy(self) -> _Tableau:
        twin = _Tableau.__new__(_Tableau)
        twin.ncols = self.ncols
        twin.upper = self.upper[:]
        twin.rows = [row[:] for row in self.rows]
        twin.dens = self.dens[:]
        twin.basis = self.basis[:]
        twin.state = self.state[:]
        twin.onums = self.onums[:]
        twin.oden = self.oden
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
        tableau half moved, when a new box is empty.
        """
        for j, (new, old) in enumerate(zip(bounds, old_bounds)):
            if new == old:
                continue
            lo, hi = new
            if hi < lo:
                return False
            old_lo, old_hi = old
            self.upper[j] = hi - lo
            state = self.state[j]
            if state is _VarState.BASIC:
                i = self.basis.index(j)
                self.rows[i][-1] += (old_lo - lo) * self.dens[i]
                continue
            was = old_lo if state is _VarState.AT_LOWER else old_hi
            d = self.onums[j]
            if d:
                state = _VarState.AT_LOWER if d > 0 else _VarState.AT_UPPER
            self.state[j] = state
            self._shift(j, (lo if state is _VarState.AT_LOWER else hi) - was)
        return True

    # -- inspection ----------------------------------------------------

    def point(
        self, bounds: Sequence[tuple[int, int]], costs: Sequence[int]
    ) -> tuple[tuple[Fraction, ...], Fraction]:
        """Values of the structural columns in original coordinates, and
        their cost.

        Only basic columns can be fractional, and each distinct integral
        value is made a ``Fraction`` once.  The cost is summed in integers
        alone, as one numerator over a running denominator (the least
        common multiple of the denominators of the costed basic values so
        far), and made a ``Fraction`` once at the end.
        """
        n = len(bounds)
        basic = _VarState.BASIC
        ints = [
            hi if s is _VarState.AT_UPPER else lo
            for (lo, hi), s in zip(bounds, self.state)
        ]
        num = sum(c * v for c, v, s in zip(costs, ints, self.state) if s is not basic)
        den = 1
        as_fraction = {v: Fraction(v) for v in set(ints)}
        out = [as_fraction[v] for v in ints]
        for row, d, b in zip(self.rows, self.dens, self.basis):
            if b < n:
                v = bounds[b][0] * d + row[-1]  # the value is v / d
                out[b] = Fraction(v, d)
                c = costs[b]
                if not c:
                    continue
                if d == den:
                    num += c * v
                else:
                    g = gcd(den, d)
                    num = num * (d // g) + c * v * (den // g)
                    den = den // g * d
        return tuple(out), Fraction(num, den)

    # -- pivoting ------------------------------------------------------

    def pivot(self, r: int, c: int) -> None:
        """Make column ``c`` basic in row ``r`` by row operations.

        The last entries are combined like every other column, so afterwards
        they hold the basic values of the new basis with every nonbasic
        column, ``c``'s old basic variable included, at its old value.  The
        objective row, which has no last entry, is updated on its reduced
        costs alone.
        """
        prow = self.rows[r]
        p = prow[c]
        if p == 0:
            raise BioptError("pivot on zero entry")
        if p < 0:
            prow = [-v for v in prow]
            p = -p
        prow, pden = _reduced(prow, p)
        for i in range(len(self.rows)):
            if i == r:
                continue
            e = self.rows[i][c]
            if e == 0:
                continue
            merged = [a * pden - e * b for a, b in zip(self.rows[i], prow)]
            self.rows[i], self.dens[i] = _reduced(merged, self.dens[i] * pden)
        e = self.onums[c]
        if e != 0:
            merged = [a * pden - e * b for a, b in zip(self.onums, prow)]
            self.onums, self.oden = _reduced(merged, self.oden * pden)
        self.rows[r] = prow
        self.dens[r] = pden

    def _shift(self, j: int, amount: int) -> None:
        """Account for nonbasic column ``j`` moving by ``amount``."""
        if amount:
            for row in self.rows:
                a = row[j]
                if a:
                    row[-1] -= a * amount

    def enter(self, r: int, c: int, landing: _VarState) -> None:
        """Pivot nonbasic ``c`` into row ``r``, its leaving column to ``landing``."""
        leaving = self.basis[r]
        from_upper = self.state[c] is _VarState.AT_UPPER
        self.pivot(r, c)
        self.pivots += 1
        self.basis[r] = c
        self.state[c] = _VarState.BASIC
        self.state[leaving] = landing
        if from_upper:  # c leaves the upper-bound set: only row r carries it
            u = self.upper[c]
            assert u is not None
            self.rows[r][-1] += u * self.dens[r]
        if landing is _VarState.AT_UPPER:
            u = self.upper[leaving]
            assert u is not None
            self._shift(leaving, u)

    # -- simplex iterations ---------------------------------------------

    def flip(self, j: int) -> None:
        """Move nonbasic column ``j`` to its opposite bound."""
        u = self.upper[j]
        assert u is not None
        if self.state[j] is _VarState.AT_LOWER:
            self._shift(j, u)
            self.state[j] = _VarState.AT_UPPER
        else:
            self._shift(j, -u)
            self.state[j] = _VarState.AT_LOWER
        self.flips += 1

    def choose_leaving(self) -> int:
        """Dual Bland: the row of the lowest-index basic column outside its
        bounds, or -1 when the basis is primal feasible."""
        upper, dens = self.upper, self.dens
        best_r, best_b = -1, self.ncols
        for i, (row, b) in enumerate(zip(self.rows, self.basis)):
            if b >= best_b:
                continue
            v = row[-1]
            if v < 0 or (upper[b] is not None and v > upper[b] * dens[i]):
                best_r, best_b = i, b
        return best_r

    def dual_ratio_test(
        self, r: int, below: bool
    ) -> tuple[Optional[int], list[int]]:
        """Long-step ratio test for leaving row ``r``: ``(entering, flips)``.

        Eligible columns can move off their bound in the direction that
        pushes row ``r``'s basic value back toward the violated bound (up
        when ``below``).  They are passed in order of least
        ``|d_j / a_rj|``, compared by cross-multiplication, ties to the
        lowest index.  A column with an upper bound ``u_j`` is passed, and
        listed in ``flips``, while the row's remaining scaled violation
        ``slope`` exceeds ``|a_rj| * u_j``; passing it lowers ``slope`` by
        that much.  The first column that cannot be passed enters.  When
        the least ratio is zero, that column enters with no flips (the
        plain dual Bland step).  ``entering`` is None, and the LP
        infeasible, when no column is eligible or every one is passed.
        """
        upper, onums = self.upper, self.onums
        basic, at_lower = _VarState.BASIC, _VarState.AT_LOWER
        row = self.rows[r]
        eligible: list[int] = []  # in index order
        best = -1  # position in eligible of the least ratio
        best_d, best_a = 0, 1
        for j, (a, s) in enumerate(zip(row, self.state)):
            if not a or s is basic:
                continue
            # raising an at-lower column moves the basic value by -a / den
            if (a < 0) != (below == (s is at_lower)):
                continue
            if upper[j] == 0:
                continue
            d = onums[j]
            if d < 0:
                d = -d
            if a < 0:
                a = -a
            if best < 0 or d * best_a < best_d * a:
                best, best_d, best_a = len(eligible), d, a
            eligible.append(j)
        flips: list[int] = []
        if best < 0:
            return None, flips
        if not best_d:
            return eligible[best], flips
        if below:
            slope = -row[-1]
        else:
            slope = row[-1] - upper[self.basis[r]] * self.dens[r]
        while True:
            j = eligible.pop(best)
            u = upper[j]
            if u is None or slope <= best_a * u:
                return j, flips
            flips.append(j)
            slope -= best_a * u
            if not eligible:
                return None, flips
            # a strict < keeps the lowest index among equal ratios
            best = -1
            for k, j in enumerate(eligible):
                d, a = abs(onums[j]), abs(row[j])
                if best < 0 or d * best_a < best_d * a:
                    best, best_d, best_a = k, d, a

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
    x, objective = tab.point(restart.bounds, restart.costs)
    return LpResult(SolveStatus.OPTIMAL, x, objective, restart, tab.pivots, tab.flips)


def _infeasible(tab: _Tableau) -> LpResult:
    return LpResult(SolveStatus.INFEASIBLE, pivots=tab.pivots, flips=tab.flips)


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
        return LpResult(SolveStatus.INFEASIBLE)
    n = len(bounds)
    for i, (new, old, sign) in enumerate(zip(rows, base.rows, base.signs)):
        if new.rhs != old.rhs:
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
    optimum and one optimal point, or an infeasible status.

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
        return LpResult(SolveStatus.INFEASIBLE)
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
