"""Exact simplex for LPs with bounded integer data: cold two-phase primal
simplex, and bounded dual simplex re-optimizing from an earlier basis.

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
  is shifted to ``y = x - lo`` with ``0 <= y <= u``.  Slack and artificial
  columns have lower bound 0 and no upper bound until phase 1 ends.
* Rows are normalized to nonnegative right-hand sides.  A ``<=`` row with
  nonnegative rhs starts with its slack basic; every other row gets a basic
  artificial, and phase 1 minimizes the artificial sum.  Leftover basic
  artificials at value zero are driven out; rows that cannot pivot them out
  are redundant and dropped.  Every artificial column is then fixed at
  zero (upper bound 0), so no later pivot can enter it.
* Anti-cycling in the primal simplex is Bland's rule: the entering column is
  the lowest-index eligible one, and ratio-test ties are broken by the
  lowest blocker variable index, with the entering variable's own opposite
  bound competing under its own index (a tie won there is a bound flip).

A cold solve (no ``start``) runs both phases; branch and bound uses it at
the root.  Every optimal result keeps its final tableau, so a child node
whose bounds differ from its parent's re-optimizes from the parent's basis
instead (``solve_lp(..., start=parent)``).  Changing bounds leaves every
reduced cost as it was, so after each nonbasic column is moved to the
bound its reduced cost prefers the basis is still dual feasible; only basic
values may now lie outside their bounds.  The bounded dual simplex then
takes as leaving row that of the lowest-index basic column outside its
bounds (dual Bland).

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
does not cycle.  There are finitely many bases.

A ``start`` may also differ in the right-hand sides of its rows, as
consecutive epsilon-constraint solves do.  Each row's column that was the
unit vector ``e_i`` when the tableau was built (its slack, or its
artificial if it has one) is ``B^-1 e_i`` in the current tableau, so a
change of ``delta`` in the row's normalized rhs adds that column times
``delta`` to the basic values: ``row[-1] += row[unit] * sign * delta``,
where ``sign`` is the sign phase 1's normalization gave the row.  Reduced
costs do not depend on the rhs, so the basis stays dual feasible and the
same bounded dual simplex finishes the solve.  The rows phase 1 dropped as
redundant are kept as certificate rows: each is a combination of the rows
whose left-hand side vanishes, so it has zero entries outside the
artificial columns and no pivot moves it.  It is shifted the same way,
and if its value leaves zero the combined rows read ``0 = nonzero`` and
the LP is infeasible.

Termination is therefore guaranteed, and with a bounded variable box the
LP can never be unbounded; an unbounded ray indicates a bug and raises.
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
    """Outcome of an exact solve (LPs here, IPs in the layer above).

    UNBOUNDED cannot occur while problems keep finite variable boxes; it is
    reported rather than silently mis-solved so that a model-construction
    bug upstream surfaces immediately.
    """

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class _UnboundedRay(Exception):
    """Internal signal: an improving direction has no blocking bound."""


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

    ``certs`` holds the rows phase 1 dropped as redundant.  Each has zero
    entries outside the artificial columns, so no pivot or bound move
    changes it, and its last entry must stay zero for the LP to be
    feasible.

    The objective row ``onums / oden`` holds the reduced costs only, one
    per column, with no last entry: ``point`` sums the objective from the
    basic values itself.  The objective's value would grow with every
    pivot and block the gcd that keeps the reduced costs small.

    ``pivots`` and ``flips`` count the basis changes and bound flips made
    since the tableau was built or copied.
    """

    def __init__(self, ncols: int, upper: list[Optional[int]]) -> None:
        self.ncols = ncols
        self.upper = upper
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        self.certs: list[list[int]] = []
        self.basis: list[int] = []
        self.state: list[_VarState] = [_VarState.AT_LOWER] * ncols
        self.onums: list[int] = [0] * ncols
        self.oden: int = 1
        self.pivots = 0
        self.flips = 0

    # -- construction -------------------------------------------------

    def add_row(self, nums: list[int], rhs: int, basic_col: int) -> None:
        row = nums + [rhs]
        row, den = _reduced(row, 1)
        self.rows.append(row)
        self.dens.append(den)
        self.basis.append(basic_col)
        self.state[basic_col] = _VarState.BASIC

    def copy(self) -> _Tableau:
        twin = _Tableau.__new__(_Tableau)
        twin.ncols = self.ncols
        twin.upper = self.upper[:]
        twin.rows = [row[:] for row in self.rows]
        twin.dens = self.dens[:]
        twin.certs = [row[:] for row in self.certs]
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

    def move_rhs(self, unit: int, delta: int) -> None:
        """Add ``delta`` to the right-hand side of the row whose unit column
        is ``unit``.

        That column is ``B^-1 e_i`` for the row's ``e_i``, so each basic
        value moves by its entry times ``delta``, and so does the last
        entry of each certificate row.
        """
        self._shift(unit, -delta)
        for row in self.certs:
            row[-1] += row[unit] * delta

    def set_objective(self, costs: dict[int, int]) -> None:
        """Install a cost vector and cancel it on the current basic columns."""
        self.onums = [costs.get(j, 0) for j in range(self.ncols)]
        self.oden = 1
        for i, b in enumerate(self.basis):
            if self.onums[b] != 0:
                self._eliminate_objective(i)

    def _eliminate_objective(self, i: int) -> None:
        b = self.basis[i]
        e = self.onums[b]
        row, den = self.rows[i], self.dens[i]
        # zip stops before the row's last entry: the objective row has none
        merged = [t * den - e * p for t, p in zip(self.onums, row)]
        self.onums, self.oden = _reduced(merged, self.oden * den)

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

    def choose_entering(self) -> Optional[int]:
        """Bland: lowest-index nonbasic column with an improving direction."""
        state, upper = self.state, self.upper
        at_lower, at_upper = _VarState.AT_LOWER, _VarState.AT_UPPER
        for j, d in enumerate(self.onums):
            if d == 0:
                continue  # basic columns always have a zero reduced cost
            if state[j] is not (at_lower if d < 0 else at_upper):
                continue
            if upper[j] == 0:
                continue  # a fixed variable that can never move
            return j
        return None

    def ratio_test(
        self, j: int, direction: int
    ) -> Optional[tuple[int, _VarState]]:
        """Blocking bound for column ``j`` moving off its bound.

        Returns ``(row, landing)`` where ``row`` is the blocking row (-1 for
        the entering variable's own opposite bound) and ``landing`` the
        bound the leaving variable ends on.  ``None`` means unbounded.

        Each candidate step is the integer ratio ``num / den`` with
        ``den > 0``: ``u_j / 1`` for the own bound, ``R / |a|`` for a basic
        value ``R / dens[i]`` falling to 0 and ``(u * dens[i] - R) / |a|``
        for one rising to its upper bound ``u``.  Candidates are compared by
        cross-multiplication.
        """
        best_num = best_den = 0  # best_den == 0: no candidate yet
        best_row = -1
        best_var = j
        best_land = _VarState.AT_UPPER if direction > 0 else _VarState.AT_LOWER
        uj = self.upper[j]
        if uj is not None:
            best_num, best_den = uj, 1
        for i, row in enumerate(self.rows):
            a = row[j]
            if a == 0:
                continue
            if (a > 0) == (direction < 0):  # the basic value increases
                ub = self.upper[self.basis[i]]
                if ub is None:
                    continue
                num = ub * self.dens[i] - row[-1]
                land = _VarState.AT_UPPER
            else:
                num = row[-1]
                land = _VarState.AT_LOWER
            den = a if a > 0 else -a
            bi = self.basis[i]
            if best_den:
                lhs, rhs = num * best_den, best_num * den
                if lhs > rhs or (lhs == rhs and bi > best_var):
                    continue
            best_num, best_den = num, den
            best_row, best_var, best_land = i, bi, land
        if not best_den:
            return None
        return best_row, best_land

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

    def run(self) -> None:
        """Iterate to optimality of the installed objective."""
        while True:
            j = self.choose_entering()
            if j is None:
                return
            direction = 1 if self.state[j] is _VarState.AT_LOWER else -1
            hit = self.ratio_test(j, direction)
            if hit is None:
                raise _UnboundedRay
            row, landing = hit
            if row < 0:
                self.flip(j)
            else:
                self.enter(row, j, landing)

    # -- dual simplex iterations ----------------------------------------

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
    # per row: its unit column, and the sign that normalized its rhs
    units: tuple[tuple[int, int], ...]


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
    for new, old, (unit, sign) in zip(rows, base.rows, base.units):
        if new.rhs != old.rhs:
            tab.move_rhs(unit, sign * (new.rhs - old.rhs))
    if any(row[-1] for row in tab.certs) or not tab.run_dual():
        return _infeasible(tab)
    return _optimal(_Restart(tab, bounds, costs, rows, base.units))


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

    Without ``start`` the LP is solved cold by two-phase primal simplex.
    With an optimal ``start`` solved for the same costs, and for rows that
    differ at most in their right-hand sides (see ``LpResult.fits``), the
    solve re-optimizes from ``start``'s basis by bounded dual simplex and
    leaves ``start`` untouched; the bounds may differ too.  A ``start``
    for other costs, another row count, or other coefficients or relations
    raises ``ValueError``.
    """
    n = len(bounds)
    if len(costs) != n:
        raise ValueError("costs length must match bounds length")
    costs, rows, bounds = tuple(costs), tuple(rows), tuple(bounds)
    if start is not None:
        return _reoptimize(start, costs, rows, bounds)
    lows = tuple(lo for lo, _ in bounds)
    shifted_upper: list[Optional[int]] = []
    for lo, hi in bounds:
        if hi < lo:
            return LpResult(SolveStatus.INFEASIBLE)
        shifted_upper.append(hi - lo)

    # Normalize each row to nonnegative rhs in shifted coordinates and
    # decide its slack sign, whether it needs an artificial, and the sign
    # by which the normalization multiplied it.
    prepared: list[tuple[list[int], int, int, bool, int]] = []
    for con in rows:
        coeffs = list(con.coeffs)
        if len(coeffs) != n:
            raise ValueError("constraint arity mismatch")
        b = con.rhs - sum(c * lo for c, lo in zip(coeffs, lows))
        rel, sign = con.relation, 1
        if rel is Relation.GE:
            coeffs, b, rel, sign = [-c for c in coeffs], -b, Relation.LE, -1
        if rel is Relation.LE:
            if b >= 0:
                prepared.append((coeffs, b, 1, False, sign))
            else:
                # flip to a >=-style row with positive rhs: slack -1 + artificial
                prepared.append(([-c for c in coeffs], -b, -1, True, -sign))
        else:  # EQ: always carried by an artificial, even at rhs 0
            if b < 0:
                coeffs, b, sign = [-c for c in coeffs], -b, -1
            prepared.append((coeffs, b, 0, True, sign))

    n_slacks = sum(1 for _, _, s, _, _ in prepared if s != 0)
    n_arts = sum(1 for _, _, _, a, _ in prepared if a)
    ncols = n + n_slacks + n_arts
    upper: list[Optional[int]] = shifted_upper + [None] * (n_slacks + n_arts)
    tab = _Tableau(ncols, upper)

    art_cols: list[int] = []
    units: list[tuple[int, int]] = []
    slack_at = n
    art_at = n + n_slacks
    for coeffs, b, slack_sign, needs_art, sign in prepared:
        full = coeffs + [0] * (n_slacks + n_arts)
        if slack_sign != 0:
            full[slack_at] = slack_sign
            slack_col = slack_at
            slack_at += 1
        if needs_art:
            full[art_at] = 1
            basic = art_at
            art_cols.append(art_at)
            art_at += 1
        else:
            basic = slack_col  # a <= row with nonnegative rhs
        tab.add_row(full, b, basic)
        units.append((basic, sign))  # the row's +1 column: its e_i

    try:
        if art_cols:
            arts = frozenset(art_cols)
            tab.set_objective({c: 1 for c in art_cols})
            tab.run()
            if any(row[-1] for row, b in zip(tab.rows, tab.basis) if b in arts):
                return _infeasible(tab)  # an artificial stays positive
            _drive_out_artificials(tab, arts)
            for c in art_cols:
                tab.upper[c] = 0  # nonbasic at zero now: fixed there

        tab.set_objective({j: int(c) for j, c in enumerate(costs)})
        tab.run()
    except _UnboundedRay:
        return LpResult(SolveStatus.UNBOUNDED)
    return _optimal(_Restart(tab, bounds, costs, rows, tuple(units)))


def _drive_out_artificials(tab: _Tableau, art_cols: frozenset[int]) -> None:
    """Pivot zero-valued basic artificials out; drop redundant rows."""
    r = 0
    while r < len(tab.rows):
        b = tab.basis[r]
        if b not in art_cols:
            r += 1
            continue
        pivot_col = None
        for j in range(tab.ncols):
            if j in art_cols or tab.state[j] is _VarState.BASIC:
                continue
            if tab.rows[r][j] != 0:
                pivot_col = j
                break
        if pivot_col is None:
            # row is a linear combination of the others: keep it only as
            # a certificate that the combination's rhs stays zero
            tab.state[b] = _VarState.AT_LOWER
            tab.certs.append(tab.rows[r])
            del tab.rows[r], tab.dens[r], tab.basis[r]
            continue
        tab.enter(r, pivot_col, _VarState.AT_LOWER)  # at value zero: nothing moves
        r += 1
