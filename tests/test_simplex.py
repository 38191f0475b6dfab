"""Exact LP solver: hand-checked cases plus randomized scipy cross-checks."""

from fractions import Fraction

import pytest

from biopt.model import LinearConstraint, Relation
from biopt.simplex import LpResult, SolveStatus, solve_lp
from tests.conftest import tightened

scipy_opt = pytest.importorskip("scipy.optimize")


def le(coeffs, rhs):
    return LinearConstraint(tuple(coeffs), Relation.LE, rhs)


def ge(coeffs, rhs):
    return LinearConstraint(tuple(coeffs), Relation.GE, rhs)


def eq(coeffs, rhs):
    return LinearConstraint(tuple(coeffs), Relation.EQ, rhs)


class TestHandChecked:
    def test_unconstrained_box_goes_to_bounds(self):
        res = solve_lp([3, -2], [], [(0, 5), (1, 4)])
        assert res.status is SolveStatus.OPTIMAL
        assert res.x == (0, 4)
        assert res.objective == -8

    def test_covering_row(self):
        # min x1 subject to x1 + x2 >= 3 on [0,3]^2: take x2 = 3
        res = solve_lp([1, 0], [ge([1, 1], 3)], [(0, 3), (0, 3)])
        assert res.is_optimal
        assert res.objective == 0

    def test_covering_row_with_cap(self):
        # same but x2 <= 1 forces x1 = 2
        res = solve_lp([1, 0], [ge([1, 1], 3)], [(0, 3), (0, 1)])
        assert res.objective == 2

    def test_infeasible_bound_vs_row(self):
        res = solve_lp([1, 0], [ge([1, 0], 5)], [(0, 3), (0, 3)])
        assert res.status is SolveStatus.INFEASIBLE
        assert res.x is None

    def test_fractional_optimum(self):
        # min -x1 - x2 s.t. 2x1 + x2 <= 3, x1 + 2x2 <= 3 on [0,2]^2
        # vertex at x1 = x2 = 1 -> -2; relax one row: LP corner is integral here,
        # so use a row pair with an odd crossing instead:
        res = solve_lp([-1, -1], [le([2, 1], 4), le([1, 3], 4)], [(0, 3), (0, 3)])
        # crossing of the two rows: x = (8/5, 4/5), objective -12/5
        assert res.objective == Fraction(-12, 5)
        assert res.x == (Fraction(8, 5), Fraction(4, 5))

    def test_equality_row(self):
        res = solve_lp([1, 1], [eq([1, 1], 3)], [(0, 2), (0, 2)])
        assert res.is_optimal
        assert res.objective == 3

    def test_equality_infeasible(self):
        res = solve_lp([1, 1], [eq([1, 1], 5)], [(0, 2), (0, 2)])
        assert res.status is SolveStatus.INFEASIBLE

    def test_redundant_equality_rows(self):
        res = solve_lp(
            [1, 0],
            [eq([1, 1], 2), eq([2, 2], 4), ge([1, 0], 1)],
            [(0, 2), (0, 2)],
        )
        assert res.is_optimal
        assert res.objective == 1

    def test_zero_row_feasible_and_not(self):
        assert solve_lp([1], [le([0], 0)], [(0, 1)]).is_optimal
        assert solve_lp([1], [le([0], -1)], [(0, 1)]).status is SolveStatus.INFEASIBLE
        assert solve_lp([1], [eq([0], 0)], [(0, 1)]).is_optimal

    def test_negative_lower_bounds(self):
        res = solve_lp([1, 1], [ge([1, 1], -3)], [(-2, 2), (-2, 2)])
        assert res.objective == -3

    def test_empty_bound_interval(self):
        assert solve_lp([1], [], [(2, 1)]).status is SolveStatus.INFEASIBLE
        parent = solve_lp([1], [], [(1, 2)])
        warm = solve_lp([1], [], [(2, 1)], start=parent)
        assert warm.status is SolveStatus.INFEASIBLE

    def test_fixed_variables(self):
        res = solve_lp([5, 1], [ge([1, 1], 4)], [(2, 2), (0, 9)])
        assert res.x == (2, 2)
        assert res.objective == 12

    def test_solution_satisfies_rows_exactly(self):
        rows = [le([3, 5, -2], 7), ge([1, -1, 4], 2), eq([1, 1, 1], 5)]
        res = solve_lp([2, -3, 1], rows, [(0, 4), (0, 4), (0, 4)])
        assert res.is_optimal
        x = res.x
        assert 3 * x[0] + 5 * x[1] - 2 * x[2] <= 7
        assert x[0] - x[1] + 4 * x[2] >= 2
        assert x[0] + x[1] + x[2] == 5


class TestLongStep:
    """The dual ratio test flips the boxed columns it can pass."""

    def test_knapsack_down_branch_is_one_pivot(self):
        # max 12a + 10b + 3c + 2d, 4a + 5b + 2c + 2d <= 7 on [0,1]^4: the
        # root takes a and 3/5 of b.  Its down-branch b <= 0 frees 3/5 of
        # b's weight; c (ratio 5/2) weighs 2/5 of it and is flipped to 1,
        # then d (ratio 5) enters at 1/2 in the one pivot
        costs, rows, box = [-12, -10, -3, -2], [le([4, 5, 2, 2], 7)], [(0, 1)] * 4
        root = solve_lp(costs, rows, box)
        assert root.x == (1, Fraction(3, 5), 0, 0)
        child = [(0, 1), (0, 0), (0, 1), (0, 1)]
        warm = solve_lp(costs, rows, child, start=root)
        assert (warm.pivots, warm.flips) == (1, 1)
        assert warm.x == (1, 0, 1, Fraction(1, 2))
        assert warm.objective == solve_lp(costs, rows, child).objective == -16

    # min x1 + 2 x2 + 3 x3, x1 + x2 + x3 >= 4: the root is (4, 0, 0), and
    # capping x1 makes the row short by 4 - cap with ratios 1 (x2), 2 (x3)
    COVER = ([1, 2, 3], [ge([1, 1, 1], 4)], [(0, 5), (0, 1), (0, 1)])

    def test_slope_equal_to_a_column_enters_it(self):
        # short by 2: x2 is passed (1 < 2), x3 closes the rest exactly and
        # must enter, not be passed
        costs, rows, box = self.COVER
        root = solve_lp(costs, rows, box)
        assert root.x == (4, 0, 0)
        warm = solve_lp(costs, rows, [(0, 2), (0, 1), (0, 1)], start=root)
        assert warm.is_optimal
        assert (warm.pivots, warm.flips) == (1, 1)
        assert warm.x == (2, 1, 1)
        assert warm.objective == 7

    def test_every_column_passed_is_infeasible(self):
        # short by 3, and flipping x2 and x3 closes only 2 of it
        costs, rows, box = self.COVER
        root = solve_lp(costs, rows, box)
        warm = solve_lp(costs, rows, [(0, 1), (0, 1), (0, 1)], start=root)
        assert warm.status is SolveStatus.INFEASIBLE
        assert warm.pivots == 0

    def test_zero_ratio_takes_the_plain_bland_step(self):
        # min x1 + x2, x1 + x2 >= 2: the root is (2, 0) with x2's reduced
        # cost 0.  Fixing x1 at 0 makes the least ratio 0, so x2 enters
        # (to 2, past its bound) instead of being flipped; the next row
        # then has nothing eligible
        costs, rows, box = [1, 1], [ge([1, 1], 2)], [(0, 3), (0, 1)]
        root = solve_lp(costs, rows, box)
        assert root.x == (2, 0)
        warm = solve_lp(costs, rows, [(0, 0), (0, 1)], start=root)
        assert warm.status is SolveStatus.INFEASIBLE
        assert (warm.pivots, warm.flips) == (1, 0)

    def test_cold_solves_count_pivots_and_flips(self):
        # from the slack basis the row is short by 2: the long step passes
        # x1 (ties go to the lowest index), flips it to 1, and enters x2
        res = solve_lp([1, 1], [ge([1, 1], 2)], [(0, 1), (0, 3)])
        assert res.x == (1, 1)
        assert (res.pivots, res.flips) == (1, 1)

    def test_cold_knapsack_root_is_one_pivot(self):
        # every column starts at its upper bound, 6 over the capacity; the
        # cold step passes d (ratio 1) and c (3/2), closing 4 of it, and
        # enters b (2), which closes the rest at 3/5
        res = solve_lp([-12, -10, -3, -2], [le([4, 5, 2, 2], 7)], [(0, 1)] * 4)
        assert res.x == (1, Fraction(3, 5), 0, 0)
        assert (res.pivots, res.flips) == (1, 2)


class TestScipyAgreement:
    """Randomized duels against an independent floating-point LP solver."""

    @staticmethod
    def _scipy_solve(costs, rows, bounds):
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for con in rows:
            if con.relation is Relation.LE:
                a_ub.append(list(con.coeffs))
                b_ub.append(con.rhs)
            elif con.relation is Relation.GE:
                a_ub.append([-c for c in con.coeffs])
                b_ub.append(-con.rhs)
            else:
                a_eq.append(list(con.coeffs))
                b_eq.append(con.rhs)
        return scipy_opt.linprog(
            costs,
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq or None,
            b_eq=b_eq or None,
            bounds=list(bounds),
            method="highs",
        )

    def _check_against_scipy(self, trial, mine, costs, rows, bounds):
        ref = self._scipy_solve(costs, rows, bounds)
        if mine.status is SolveStatus.INFEASIBLE:
            assert ref.status == 2, f"trial {trial}: scipy found it feasible"
            return False
        assert ref.status == 0, f"trial {trial}: scipy status {ref.status}"
        assert abs(float(mine.objective) - ref.fun) <= 1e-7 * (
            1 + abs(ref.fun)
        ), f"trial {trial}: {mine.objective} vs {ref.fun}"
        # exactness: the returned point satisfies every row exactly
        for con in rows:
            assert con.satisfied_by(mine.x)
        for xi, (lo, hi) in zip(mine.x, bounds):
            assert lo <= xi <= hi
        return True

    def test_random_lps_match_scipy(self):
        import random

        rng = random.Random(20260822)
        picks = random.Random(7)  # apart from rng, so the trial LPs do not depend on it
        shifts = random.Random(11)  # likewise apart from picks
        relations = [Relation.LE, Relation.GE, Relation.EQ]
        checked_optimal = 0
        checked_infeasible = 0
        warm_optimal = warm_infeasible = 0
        moved_optimal = moved_infeasible = 0
        for trial in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(0, 4)
            costs = [rng.randint(-9, 9) for _ in range(n)]
            bounds = []
            for _ in range(n):
                lo = rng.randint(-5, 5)
                bounds.append((lo, lo + rng.randint(0, 6)))
            rows = []
            for _ in range(m):
                coeffs = tuple(rng.randint(-6, 6) for _ in range(n))
                rel = relations[rng.randrange(3)]
                rows.append(LinearConstraint(coeffs, rel, rng.randint(-12, 12)))
            mine = solve_lp(costs, rows, bounds)
            if not self._check_against_scipy(trial, mine, costs, rows, bounds):
                checked_infeasible += 1
                continue
            checked_optimal += 1
            # re-optimize a child with one row's rhs moved from this basis
            if rows:
                moved = list(rows)
                i = shifts.randrange(len(rows))
                delta = shifts.choice([-1, 1]) * shifts.randint(1, 12)
                moved[i] = LinearConstraint(rows[i].coeffs, rows[i].relation, rows[i].rhs + delta)
                child = solve_lp(costs, moved, bounds, start=mine)
                if self._check_against_scipy(trial, child, costs, moved, bounds):
                    moved_optimal += 1
                else:
                    moved_infeasible += 1
            # re-optimize a child with one bound tightened from this basis
            child_bounds = tightened(mine.x, bounds, picks.randrange(4))
            if child_bounds is None:
                continue
            child = solve_lp(costs, rows, child_bounds, start=mine)
            if self._check_against_scipy(trial, child, costs, rows, child_bounds):
                warm_optimal += 1
            else:
                warm_infeasible += 1
        assert checked_optimal >= 100
        assert checked_infeasible >= 20
        assert warm_optimal >= 100
        assert warm_infeasible >= 10
        assert moved_optimal >= 50
        assert moved_infeasible >= 5


class TestDefensive:
    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_lp([1, 2], [le([1], 1)], [(0, 1), (0, 1)])

    def test_cost_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_lp([1], [], [(0, 1), (0, 1)])

    def test_start_for_other_costs_or_rows_raises(self):
        rows = [ge([1, 1], 3)]
        parent = solve_lp([1, 2], rows, [(0, 3), (0, 3)])
        with pytest.raises(ValueError, match="other costs or rows"):
            solve_lp([2, 1], rows, [(0, 3), (0, 2)], start=parent)
        with pytest.raises(ValueError, match="other costs or rows"):
            solve_lp([1, 2], [ge([1, 2], 3)], [(0, 3), (0, 2)], start=parent)
        with pytest.raises(ValueError, match="other costs or rows"):
            solve_lp([1, 2], [le([1, 1], 3)], [(0, 3), (0, 2)], start=parent)
        with pytest.raises(ValueError, match="other costs or rows"):
            solve_lp([1, 2], [], [(0, 3), (0, 2)], start=parent)

    def test_start_for_other_rhs_restarts(self):
        parent = solve_lp([1, 2], [ge([1, 1], 3)], [(0, 3), (0, 3)])
        assert parent.fits([1, 2], [ge([1, 1], 5)])
        warm = solve_lp([1, 2], [ge([1, 1], 5)], [(0, 3), (0, 3)], start=parent)
        assert (warm.x, warm.objective) == ((3, 2), 7)
        assert solve_lp([1, 2], [ge([1, 1], 7)], [(0, 3), (0, 3)], start=parent).status is (
            SolveStatus.INFEASIBLE
        )

    def test_start_must_be_optimal(self):
        infeasible = solve_lp([1], [ge([1], 5)], [(0, 3)])
        with pytest.raises(ValueError, match="optimal"):
            solve_lp([1], [ge([1], 5)], [(0, 2)], start=infeasible)

    def test_result_type(self):
        res = solve_lp([0], [], [(0, 0)])
        assert isinstance(res, LpResult)
        assert isinstance(res.objective, Fraction)
