"""Integer solves: hand-checked cases, backend duels, and scipy.milp duels."""

import random
from fractions import Fraction

import pytest

from biopt.errors import BioptError, BudgetExceeded, NodeLimitExceeded
from biopt.instances import GeneratorSpec, generate
from biopt.ipsolve import (
    DEFAULT_NODE_LIMIT,
    NODE_LIMIT_ENV,
    BranchAndBoundBackend,
    EnumerationBackend,
    ExtraConstraint,
    IncumbentStaircase,
    LexResult,
    Work,
    _branch_and_bound,
    _tighten,
    solve_lex,
)
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
    OutcomeVector,
    Relation,
    Sense,
    Solution,
    build_problem,
    evaluate,
)
from biopt.simplex import SolveStatus, solve_lp
from tests.conftest import random_tiny_problem

scipy_opt = pytest.importorskip("scipy.optimize")
np = pytest.importorskip("numpy")

BACKENDS = [BranchAndBoundBackend(), EnumerationBackend()]
BACKEND_IDS = ["bnb", "enum"]


def _rows_and_box(problem, extras, branch_bounds):
    rows = problem.constraints + tuple(e.as_row(problem) for e in extras)
    box = problem.var_bounds if branch_bounds is None else tuple(branch_bounds)
    return rows, box


def solve_single(problem, objective_index, extras=(), branch_bounds=None):
    """Minimize one objective by branch and bound, every extra as a row."""
    rows, box = _rows_and_box(problem, extras, branch_bounds)
    res = _branch_and_bound(problem.objective(objective_index), rows, box)
    if res.value is None:
        return LexResult(SolveStatus.INFEASIBLE, None, res.work)
    solution = Solution(res.assignment, evaluate(problem, res.assignment))
    return LexResult(SolveStatus.OPTIMAL, solution, res.work)


def solve_lp_relaxation(problem, objective, extras=(), branch_bounds=None):
    """The LP relaxation of one integer objective vector over the box."""
    rows, box = _rows_and_box(problem, extras, branch_bounds)
    return solve_lp(objective, rows, box)


def fractional_problem():
    """Root LP relaxation sits at (8/5, 4/5); branching is unavoidable."""
    return build_problem(
        2,
        [(-1, -1), (0, 1)],
        [
            LinearConstraint((2, 1), Relation.LE, 4),
            LinearConstraint((1, 3), Relation.LE, 4),
        ],
        [(0, 3), (0, 3)],
    )


class TestSolveSingle:
    def test_cover_min_f1(self, cover):
        res = solve_single(cover, 1)
        assert res.is_optimal
        assert res.solution.outcome.f1 == 0

    def test_knapsack_internal_min_sense(self, knapsack):
        res = solve_single(knapsack, 1)
        assert res.solution.outcome.f1 == -4  # user-sense max profit 4
        assert res.solution.assignment == (0, 0, 1)

    def test_capacity_zero_with_cover_is_infeasible(self):
        p = build_problem(
            3,
            [(3, 1, 4), (1, 4, 2)],
            [
                LinearConstraint((2, 3, 4), Relation.LE, 0),
                LinearConstraint((1, 1, 1), Relation.GE, 1),
            ],
            [(0, 1)] * 3,
            sense=(Sense.MAX, Sense.MAX),
        )
        res = solve_single(p, 1)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.solution is None

    def test_extra_strict_upper(self, cover):
        # f2 < 2, i.e. x2 <= 1, pushes the f1 optimum to 2
        res = solve_single(cover, 1, extras=[ExtraConstraint(2, 2)])
        assert res.solution.outcome.f1 == 2

    def test_infeasible_extras(self, cover):
        res = solve_single(cover, 1, extras=[ExtraConstraint(2, 0), ExtraConstraint(1, 0)])
        assert res.status is SolveStatus.INFEASIBLE

    def test_branch_bounds_shrink_the_box(self, cover):
        res = solve_single(cover, 1, branch_bounds=[(0, 3), (0, 1)])
        assert res.solution.outcome.f1 == 2

    def test_counters_populated(self, cover):
        res = solve_single(cover, 1)
        assert res.node_count >= 1
        assert res.lp_count >= 1

    def test_assignment_is_feasible(self, knapsack):
        res = solve_single(knapsack, 2)
        assert knapsack.is_feasible(res.solution.assignment)


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
class TestSolveLexBackends:
    def test_f1_first(self, cover, backend):
        res = backend.solve_lex(cover, ObjectiveOrder.F1_FIRST)
        assert res.is_optimal
        assert res.solution.outcome == OutcomeVector(0, 3)

    def test_f2_first(self, cover, backend):
        res = backend.solve_lex(cover, ObjectiveOrder.F2_FIRST)
        assert res.solution.outcome == OutcomeVector(3, 0)

    def test_epsilon_bound_moves_the_point(self, cover, backend):
        res = backend.solve_lex(
            cover, ObjectiveOrder.F1_FIRST, extras=[ExtraConstraint(2, 3)]
        )
        assert res.solution.outcome == OutcomeVector(1, 2)

    def test_infeasible(self, cover, backend):
        res = backend.solve_lex(
            cover, ObjectiveOrder.F1_FIRST, extras=[ExtraConstraint(1, 0), ExtraConstraint(2, 0)]
        )
        assert res.status is SolveStatus.INFEASIBLE
        assert res.solution is None

    def test_second_stage_truly_optimizes(self, knapsack, backend):
        res = backend.solve_lex(knapsack, ObjectiveOrder.F2_FIRST)
        assert res.solution.outcome == OutcomeVector(-1, -4)

    def test_solution_is_feasible(self, knapsack, backend):
        res = backend.solve_lex(knapsack, ObjectiveOrder.F1_FIRST)
        assert knapsack.is_feasible(res.solution.assignment)


class TestModuleLevelLex:
    def test_matches_backend(self, cover):
        a = solve_lex(cover, ObjectiveOrder.F1_FIRST)
        b = BranchAndBoundBackend().solve_lex(cover, ObjectiveOrder.F1_FIRST)
        assert a.solution.outcome == b.solution.outcome

    def test_counters_of_one_stage(self, cover):
        res = solve_lex(cover, ObjectiveOrder.F1_FIRST)
        assert res.node_count >= res.lp_count >= 1
        ref = EnumerationBackend().solve_lex(cover, ObjectiveOrder.F1_FIRST)
        assert res.solution.outcome == ref.solution.outcome


def extremes_problem():
    """Exactly one of x, y; f1 = x, f2 = y - x on the box [0, 1]^2.

    f2 ranges over [L, L + W - 1] = [-1, 1] on the box, so W = 3.  The
    lexicographic optimum (0, 1) puts f2 at its top and the runner-up
    (1, -1) at its bottom: with W = 2 both would score 1.
    """
    return build_problem(
        2,
        [(1, 0), (-1, 1)],
        [LinearConstraint((1, 1), Relation.EQ, 1)],
        [(0, 1), (0, 1)],
    )


class TestWeight:
    """The one-stage weight ``W`` and the cutoff ``W * c + L`` are exact."""

    def test_optimum_with_trailing_objective_at_its_top(self):
        res = solve_lex(extremes_problem(), ObjectiveOrder.F1_FIRST)
        assert res.solution.outcome == OutcomeVector(0, 1)

    def test_cutoff_keeps_the_point_just_below_it(self):
        # f1 < 1 admits (0, 1), whose combined value W * 0 + 1 sits one
        # below the cutoff W * 1 + L = 2
        res = solve_lex(extremes_problem(), ObjectiveOrder.F1_FIRST, [ExtraConstraint(1, 1)])
        assert res.solution.outcome == OutcomeVector(0, 1)

    def test_cutoff_drops_the_point_at_it(self):
        # with f2 < 1 only (1, -1) is left; its combined value W * 1 + L
        # equals the cutoff of f1 < 1, so nothing is below it
        extras = [ExtraConstraint(1, 1), ExtraConstraint(2, 1)]
        res = solve_lex(extremes_problem(), ObjectiveOrder.F1_FIRST, extras)
        assert res.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("order", list(ObjectiveOrder))
    @pytest.mark.parametrize("cap", [None, 0, 1, 2])
    def test_agrees_with_enumeration(self, order, cap):
        p = extremes_problem()
        extras = [] if cap is None else [ExtraConstraint(order.first, cap)]
        a = solve_lex(p, order, extras)
        b = EnumerationBackend().solve_lex(p, order, extras)
        assert (a.status, a.solution and a.solution.outcome) == (
            b.status,
            b.solution and b.solution.outcome,
        )


class TestLpRelaxation:
    def test_fractional_root(self):
        p = fractional_problem()
        lp = solve_lp_relaxation(p, p.objective(1))
        assert float(lp.objective) == pytest.approx(-12 / 5)

    def test_branch_bounds(self, cover):
        lp = solve_lp_relaxation(p := cover, p.objective(1), branch_bounds=[(0, 3), (0, 1)])
        assert lp.objective == 2

    def test_extras_apply(self, cover):
        lp = solve_lp_relaxation(cover, cover.objective(1), extras=[ExtraConstraint(2, 2)])
        assert lp.objective == 2

    def test_arbitrary_vector(self, cover):
        lp = solve_lp_relaxation(cover, [1, 1])
        assert lp.objective == 3

    def test_length_check(self, cover):
        with pytest.raises(ValueError):
            solve_lp_relaxation(cover, [1, 2, 3])


class TestReducedCostTightening:
    """Hand-checked reduced-cost steps at the root of a search."""

    def test_keeps_the_point_at_the_full_step(self):
        # min 3y + 2x s.t. 2y + x >= 1, y in [0, 1], x in [0, 2], below the
        # cutoff U = 3.  The root LP has y = 1/2, x = 0 and z = 3/2, and x
        # has reduced cost 1/2, so x <= floor((U - 1 - z) / (1/2)) = 1.  The
        # only point below U, (0, 1) of value 2 = U - 1, lies on that bound.
        rows = [LinearConstraint((2, 1), Relation.GE, 1)]
        found = _branch_and_bound((3, 2), rows, [(0, 1), (0, 2)], cutoff=3)
        assert (found.value, found.assignment) == (2, (0, 1))
        assert found.work.tightened == 1

    def test_steps_round_down(self):
        # min 2y + 2x s.t. 3y + 2x >= 2, y in [0, 1], x in [0, 3]: the root
        # LP has y = 2/3, x = 0 and z = 4/3, and x has reduced cost 2/3.
        # Under U = 4 the step is (4 - 1 - 4/3) / (2/3) = 5/2, so x <= 2.
        rows = [LinearConstraint((3, 2), Relation.GE, 2)]
        lp = solve_lp((2, 2), rows, [(0, 1), (0, 3)])
        assert (lp.x, lp.objective) == ((Fraction(2, 3), 0), Fraction(4, 3))
        assert _tighten(((0, 1), (0, 3)), lp, 3) == (((0, 1), (0, 2)), 1)
        found = _branch_and_bound((2, 2), rows, [(0, 1), (0, 3)], cutoff=4)
        assert found.value == 2
        assert found.work.tightened == 1

    def test_raises_a_lower_bound_at_the_upper_one(self):
        # the case above with x replaced by -x in [-3, 0]: x sits at its
        # upper bound 0 with reduced cost -2/3, so x >= 0 - 2
        rows = [LinearConstraint((3, -2), Relation.GE, 2)]
        lp = solve_lp((2, -2), rows, [(0, 1), (-3, 0)])
        assert _tighten(((0, 1), (-3, 0)), lp, 3) == (((0, 1), (-2, 0)), 1)

    def test_the_step_follows_the_limit(self):
        # on the same LP a limit of 2 gives (2 - 4/3) / (2/3) = 1, so
        # x <= 1; a limit far above z leaves the box as it was, the very
        # same object
        rows = [LinearConstraint((3, 2), Relation.GE, 2)]
        box = ((0, 1), (0, 3))
        lp = solve_lp((2, 2), rows, box)
        assert _tighten(box, lp, 2) == (((0, 1), (0, 1)), 1)
        assert _tighten(box, lp, 100) == (box, 0)
        assert _tighten(box, lp, 100)[0] is box


class TestNodeLimit:
    def test_tight_limit_raises(self, monkeypatch):
        # the exact node count of the search passes; one node fewer raises
        nodes = solve_single(fractional_problem(), 1).node_count
        assert nodes > 1
        monkeypatch.setenv(NODE_LIMIT_ENV, str(nodes))
        assert solve_single(fractional_problem(), 1).node_count == nodes
        monkeypatch.setenv(NODE_LIMIT_ENV, str(nodes - 1))
        with pytest.raises(NodeLimitExceeded):
            solve_single(fractional_problem(), 1)

    def test_backend_limit(self, monkeypatch):
        monkeypatch.setenv(NODE_LIMIT_ENV, "1")
        backend = BranchAndBoundBackend()
        with pytest.raises(NodeLimitExceeded):
            backend.solve_lex(fractional_problem(), ObjectiveOrder.F1_FIRST)

    def test_default_limit_constant(self):
        assert DEFAULT_NODE_LIMIT == 10_000_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(NODE_LIMIT_ENV, "1")
        with pytest.raises(NodeLimitExceeded):
            solve_single(fractional_problem(), 1)

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv(NODE_LIMIT_ENV, "lots")
        with pytest.raises(BioptError, match="must be an integer"):
            solve_single(fractional_problem(), 1)

    def test_env_nonpositive(self, monkeypatch):
        monkeypatch.setenv(NODE_LIMIT_ENV, "0")
        with pytest.raises(BioptError, match="positive"):
            solve_single(fractional_problem(), 1)


class TestEnumerationGuard:
    def test_budget_refusal(self):
        p = build_problem(4, [(1, 1, 1, 1), (1, 0, 0, 0)], [], [(0, 9)] * 4)
        backend = EnumerationBackend(max_points=100)
        with pytest.raises(BudgetExceeded):
            backend.solve_lex(p, ObjectiveOrder.F1_FIRST)

    def test_enum_counters(self, cover):
        res = EnumerationBackend().solve_lex(cover, ObjectiveOrder.F1_FIRST)
        assert res.node_count == 10  # feasible points of the cover box
        assert res.lp_count == 0


class TestExtraConstraintType:
    def test_validates_index(self):
        with pytest.raises(ValueError):
            ExtraConstraint(3, 5)

    def test_as_row(self, cover):
        row = ExtraConstraint(2, 4).as_row(cover)
        assert row.coeffs == (0, 1)
        assert row.relation is Relation.LE
        assert row.rhs == 3


def cover_on(box):
    """min (x1, x2) s.t. x1 + x2 >= 3 on ``box``."""
    return build_problem(
        2, [(1, 0), (0, 1)], [LinearConstraint((1, 1), Relation.GE, 3)], box
    )


class TestIncumbentStaircase:
    def test_keeps_only_nondominated_points(self, cover):
        pool = IncumbentStaircase(cover)
        for x in [(2, 2), (1, 3), (2, 1), (0, 3), (3, 0), (2, 1), (3, 3)]:
            pool.add(x)
        # (2, 1) replaced (2, 2) and (0, 3) replaced (1, 3); (3, 3) was
        # dominated on arrival.  Each dropped point would win one call here.
        def x1_is(v):
            return (LinearConstraint((1, 0), Relation.EQ, v),)

        assert pool.best((1, 0), x1_is(1), None) is None
        assert pool.best((0, -1), x1_is(2), None) == (-1, (2, 1))
        assert pool.best((0, -1), x1_is(3), None) == (0, (3, 0))
        assert pool.best((1, 0), (), None) == (0, (0, 3))

    def test_best_checks_rows_and_cutoff(self, cover):
        pool = IncumbentStaircase(cover)
        for x in [(0, 3), (1, 2), (2, 1), (3, 0)]:
            pool.add(x)
        x2_at_most_1 = LinearConstraint((0, 1), Relation.LE, 1)
        assert pool.best((1, 0), (x2_at_most_1,), None) == (2, (2, 1))
        assert pool.best((1, 0), (x2_at_most_1,), 3) == (2, (2, 1))
        assert pool.best((1, 0), (x2_at_most_1,), 2) is None  # strict cutoff

    def test_seeded_point_is_returned_as_proven(self, cover):
        pool = IncumbentStaircase(cover)
        pool.add((1, 2))
        res = solve_lex(cover, ObjectiveOrder.F1_FIRST, [ExtraConstraint(2, 3)], pool=pool)
        assert res.solution == Solution((1, 2), OutcomeVector(1, 2))
        assert res.node_count >= 1  # the root LP still ran to prove it

    def test_rules_out_caps_beside_a_front_point(self, cover):
        pool = IncumbentStaircase(cover)
        pool.mark_front(OutcomeVector(1, 2))
        assert pool.rules_out(1, 3)  # f1 <= 0, f2 <= 2 would dominate (1, 2)
        assert pool.rules_out(2, 2)
        assert not pool.rules_out(2, 3)  # leaves room for (1, 2) itself
        assert not pool.rules_out(3, 2)
        assert not pool.rules_out(1, 4)

    def test_solve_ruled_out_runs_no_lp(self, cover):
        backend = BranchAndBoundBackend()
        f1_first = ObjectiveOrder.F1_FIRST
        found = backend.solve_lex(cover, f1_first, [ExtraConstraint(2, 3)])
        assert found.solution.outcome == OutcomeVector(1, 2)
        beside = [ExtraConstraint(2, 2), ExtraConstraint(1, 2)]
        res = backend.solve_lex(cover, f1_first, beside)
        assert res == LexResult(SolveStatus.INFEASIBLE, None, Work(nodes=1))
        assert not EnumerationBackend().solve_lex(cover, f1_first, beside).is_optimal
        again = [ExtraConstraint(2, 3), ExtraConstraint(1, 2)]
        assert backend.solve_lex(cover, f1_first, again).solution.outcome == OutcomeVector(1, 2)

    def test_rule_out_reads_each_cap_as_its_objective(self, cover):
        # under (f2, f1) the cap on the leading objective is the one on f2
        backend = BranchAndBoundBackend()
        f2_first = ObjectiveOrder.F2_FIRST
        found = backend.solve_lex(cover, f2_first, [ExtraConstraint(1, 3)])
        assert found.solution.outcome == OutcomeVector(2, 1)
        beside = [ExtraConstraint(1, 3), ExtraConstraint(2, 1)]  # f1 <= 2, f2 <= 0
        assert backend.solve_lex(cover, f2_first, beside) == LexResult(
            SolveStatus.INFEASIBLE, None, Work(nodes=1)
        )

    def test_pool_of_another_problem_raises(self, cover):
        pool = IncumbentStaircase(cover_on([(0, 3), (0, 3)]))
        with pytest.raises(ValueError):
            solve_lex(cover, ObjectiveOrder.F1_FIRST, pool=pool)

    def test_backend_starts_afresh_for_another_problem(self, cover):
        # (0, 3), the first optimum, satisfies the narrower problem's row
        # but not its box
        narrower = cover_on([(1, 3), (0, 3)])
        backend = BranchAndBoundBackend()
        assert backend.solve_lex(cover, ObjectiveOrder.F1_FIRST).solution.assignment == (0, 3)
        res = backend.solve_lex(narrower, ObjectiveOrder.F1_FIRST)
        assert res.solution.assignment == (1, 2)

    def test_pooled_solve_never_takes_more_nodes(self, cover, knapsack):
        """Replay sweeps with and without a pool; each pair of solves
        restarts from the same root LP, so the pool is their only difference."""
        problems = [cover, knapsack] + [
            generate(GeneratorSpec(family, size, seed))
            for family, size in (("knapsack", 12), ("assignment", 4))
            for seed in (1, 2, 3)
        ]
        bare_total = pooled_total = 0
        for problem in problems:
            pool = IncumbentStaircase(problem)
            for order in ObjectiveOrder:
                own, cap, root = order.last, None, None
                while True:
                    extras = [] if cap is None else [ExtraConstraint(own, cap)]
                    bare = solve_lex(problem, order, extras, start=root)
                    pooled = solve_lex(problem, order, extras, start=root, pool=pool)
                    assert pooled.status is bare.status
                    assert pooled.node_count <= bare.node_count
                    bare_total += bare.node_count
                    pooled_total += pooled.node_count
                    if not pooled.is_optimal:
                        break
                    assert pooled.solution.outcome == bare.solution.outcome
                    cap, root = pooled.solution.outcome.component(own), pooled.root
        assert pooled_total < bare_total


class TestBackendDuels:
    def test_lex_outcomes_agree(self):
        rng = random.Random(7)
        bnb, enum = BranchAndBoundBackend(), EnumerationBackend()
        optimal = 0
        for trial in range(150):
            p = random_tiny_problem(rng)
            order = ObjectiveOrder.F1_FIRST if rng.random() < 0.5 else ObjectiveOrder.F2_FIRST
            a = bnb.solve_lex(p, order)
            b = enum.solve_lex(p, order)
            assert a.status is b.status, f"trial {trial}"
            if a.is_optimal:
                assert a.solution.outcome == b.solution.outcome, f"trial {trial}"
                optimal += 1
        assert optimal >= 50


class TestScipyMilpDuels:
    @staticmethod
    def _milp(costs, rows, bounds):
        n = len(costs)
        lcs = []
        for con in rows:
            if con.relation is Relation.LE:
                lo, hi = -np.inf, con.rhs
            elif con.relation is Relation.GE:
                lo, hi = con.rhs, np.inf
            else:
                lo, hi = con.rhs, con.rhs
            lcs.append(scipy_opt.LinearConstraint(np.array([con.coeffs]), lo, hi))
        return scipy_opt.milp(
            c=np.array(costs, dtype=float),
            constraints=lcs,
            integrality=np.ones(n),
            bounds=scipy_opt.Bounds(
                np.array([lo for lo, _ in bounds], dtype=float),
                np.array([hi for _, hi in bounds], dtype=float),
            ),
        )

    def test_single_objective_matches_milp(self):
        rng = random.Random(99)
        optimal = 0
        for trial in range(120):
            p = random_tiny_problem(rng)
            mine = solve_single(p, 1)
            ref = self._milp(p.objective(1), p.constraints, p.var_bounds)
            if mine.is_optimal:
                assert ref.status == 0, f"trial {trial}: milp status {ref.status}"
                assert mine.solution.outcome.f1 == round(ref.fun), (
                    f"trial {trial}: {mine.solution.outcome.f1} vs {ref.fun}"
                )
                optimal += 1
            else:
                assert ref.status == 2, f"trial {trial}: milp status {ref.status}"
        assert optimal >= 40
