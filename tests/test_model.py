"""Model layer: dominance, filtering, evaluation, and container invariants."""

import pytest

from biopt.model import (
    LinearConstraint,
    OutcomeVector,
    ParetoSet,
    Problem,
    Relation,
    Sense,
    Solution,
    build_problem,
    dominates,
    evaluate,
    make_solution,
    pareto_filter,
    user_outcome,
)


def sol(f1: int, f2: int, assignment=(0,)) -> Solution:
    return Solution(tuple(assignment), OutcomeVector(f1, f2))


class TestDominance:
    def test_strictly_better_both(self):
        assert dominates(OutcomeVector(1, 2), OutcomeVector(3, 4))

    def test_equal_one_better_other(self):
        assert dominates(OutcomeVector(1, 2), OutcomeVector(1, 3))
        assert dominates(OutcomeVector(1, 2), OutcomeVector(2, 2))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(OutcomeVector(1, 2), OutcomeVector(1, 2))

    def test_incomparable(self):
        assert not dominates(OutcomeVector(1, 5), OutcomeVector(2, 3))
        assert not dominates(OutcomeVector(2, 3), OutcomeVector(1, 5))

    def test_antisymmetric(self):
        a, b = OutcomeVector(0, 9), OutcomeVector(4, 4)
        assert not (dominates(a, b) and dominates(b, a))


class TestParetoFilter:
    def test_filters_dominated_point(self):
        got = pareto_filter([sol(4, 2), sol(1, 4), sol(4, 5)])
        assert got.outcomes() == (OutcomeVector(1, 4), OutcomeVector(4, 2))

    def test_empty_input_is_empty_front(self):
        assert len(pareto_filter([])) == 0

    def test_single_point(self):
        got = pareto_filter([sol(7, 7)])
        assert got.outcomes() == (OutcomeVector(7, 7),)

    def test_duplicate_outcomes_keep_first_representative(self):
        first = sol(2, 3, assignment=(1, 0))
        second = sol(2, 3, assignment=(0, 1))
        got = pareto_filter([first, second])
        assert len(got) == 1
        assert got.solutions[0].assignment == (1, 0)

    def test_equal_f1_keeps_lower_f2(self):
        got = pareto_filter([sol(3, 9), sol(3, 5), sol(3, 7)])
        assert got.outcomes() == (OutcomeVector(3, 5),)

    def test_equal_f2_keeps_lower_f1(self):
        got = pareto_filter([sol(9, 3), sol(5, 3), sol(7, 3)])
        assert got.outcomes() == (OutcomeVector(5, 3),)

    def test_result_sorted_by_f1(self):
        got = pareto_filter([sol(5, 0), sol(0, 5), sol(3, 2)])
        f1s = [o.f1 for o in got.outcomes()]
        assert f1s == sorted(f1s)

    def test_idempotent(self):
        once = pareto_filter([sol(4, 2), sol(1, 4), sol(4, 5), sol(2, 3)])
        twice = pareto_filter(once.solutions)
        assert once == twice


class TestParetoSet:
    def test_rejects_dominated_pair(self):
        with pytest.raises(ValueError, match="staircase"):
            ParetoSet((sol(1, 4), sol(4, 5)))

    def test_rejects_duplicate_f1(self):
        with pytest.raises(ValueError, match="staircase"):
            ParetoSet((sol(1, 4), sol(1, 2)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="staircase"):
            ParetoSet((sol(4, 2), sol(1, 4)))

    def test_outcome_level_equality(self):
        a = ParetoSet((sol(1, 4, (0, 1)), sol(4, 2, (1, 0))))
        b = ParetoSet((sol(1, 4, (1, 1)), sol(4, 2, (0, 0))))
        assert a == b
        assert hash(a) == hash(b)

    def test_containment_by_outcome(self):
        ps = ParetoSet((sol(1, 4), sol(4, 2)))
        assert OutcomeVector(4, 2) in ps
        assert OutcomeVector(2, 2) not in ps


class TestProblem:
    def test_evaluate_min_sense(self):
        p = build_problem(
            num_vars=2,
            objectives=[(1, 0), (0, 1)],
            constraints=[],
            var_bounds=[(0, 3), (0, 3)],
        )
        assert evaluate(p, (2, 1)) == OutcomeVector(2, 1)

    def test_evaluate_dot_product(self):
        p = build_problem(
            num_vars=3,
            objectives=[(3, 1, 4), (1, 4, 2)],
            constraints=[],
            var_bounds=[(0, 1)] * 3,
        )
        assert evaluate(p, (1, 0, 1)) == OutcomeVector(7, 3)

    def test_max_sense_negates_internally(self):
        p = build_problem(
            num_vars=3,
            objectives=[(3, 1, 4), (1, 4, 2)],
            constraints=[],
            var_bounds=[(0, 1)] * 3,
            sense=(Sense.MAX, Sense.MIN),
        )
        out = evaluate(p, (1, 0, 1))
        assert out == OutcomeVector(-7, 3)
        assert user_outcome(p, out) == (7, 3)
        assert p.user_objective(1) == (3, 1, 4)
        assert p.objective(1) == (-3, -1, -4)

    def test_feasibility_checks_bounds_and_rows(self):
        p = build_problem(
            num_vars=2,
            objectives=[(1, 0), (0, 1)],
            constraints=[LinearConstraint((1, 1), Relation.GE, 3)],
            var_bounds=[(0, 3), (0, 3)],
        )
        assert p.is_feasible((1, 2))
        assert not p.is_feasible((1, 1))  # row violated
        assert not p.is_feasible((4, 0))  # bound violated

    def test_constraint_relations(self):
        le = LinearConstraint((2, -1), Relation.LE, 3)
        ge = LinearConstraint((2, -1), Relation.GE, 3)
        eq = LinearConstraint((2, -1), Relation.EQ, 3)
        assert le.satisfied_by((1, 0)) and not ge.satisfied_by((1, 0))
        assert eq.satisfied_by((2, 1)) and le.satisfied_by((2, 1)) and ge.satisfied_by((2, 1))

    def test_box_size(self):
        p = build_problem(
            num_vars=2,
            objectives=[(1, 0), (0, 1)],
            constraints=[],
            var_bounds=[(0, 3), (-1, 1)],
        )
        assert p.box_size() == 4 * 3

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError, match="empty bound"):
            build_problem(2, [(1, 0), (0, 1)], [], [(0, 3), (2, 1)])

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError):
            build_problem(
                2,
                [(1, 0), (0, 1)],
                [LinearConstraint((1, 1, 1), Relation.LE, 2)],
                [(0, 1), (0, 1)],
            )

    def test_rejects_noninteger_objective(self):
        with pytest.raises(TypeError):
            Problem(2, ((1.5, 0), (0, 1)), (), ((0, 1), (0, 1)))

    @pytest.mark.parametrize("bound", [(0.0, 2.7), ("0", "2")], ids=["float", "str"])
    def test_rejects_noninteger_bounds(self, bound):
        # a float or str bound is refused, not truncated or parsed to an int
        with pytest.raises(TypeError, match="bounds must be int"):
            Problem(1, ((1,), (-1,)), (), (bound,))

    def test_make_solution(self):
        p = build_problem(2, [(2, 1), (1, 3)], [], [(0, 5), (0, 5)])
        s = make_solution(p, (1, 2))
        assert s.assignment == (1, 2)
        assert s.outcome == OutcomeVector(4, 7)
