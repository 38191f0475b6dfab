"""Integer solves: hand-checked cases, backend duels, and scipy.milp duels."""

import random
from fractions import Fraction

import pytest

from biopt.errors import BudgetExceeded, NodeLimitExceeded
from biopt.instances import GeneratorSpec, generate
import biopt.ipsolve
from biopt.ipsolve import (
    NODE_LIMIT,
    BranchAndBoundBackend,
    EnumerationBackend,
    IncumbentStaircase,
    LexResult,
    Work,
    _branch_and_bound,
    _cap_rows,
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
from biopt.simplex import solve_lp
from tests.conftest import random_tiny_problem

scipy_opt = pytest.importorskip("scipy.optimize")
np = pytest.importorskip("numpy")

BACKENDS = [BranchAndBoundBackend(), EnumerationBackend()]
BACKEND_IDS = ["bnb", "enum"]


def _rows_and_box(problem, caps, branch_bounds):
    rows = problem.constraints + _cap_rows(problem, caps)
    box = problem.var_bounds if branch_bounds is None else tuple(branch_bounds)
    return rows, box


def solve_single(problem, objective_index, caps=(None, None), branch_bounds=None):
    """Minimize one objective by branch and bound, every cap as a row."""
    rows, box = _rows_and_box(problem, caps, branch_bounds)
    res = _branch_and_bound(problem.objective(objective_index), rows, box)
    if res.value is None:
        return LexResult(None, res.work)
    solution = Solution(res.assignment, evaluate(problem, res.assignment))
    return LexResult(solution, res.work)


def solve_lp_relaxation(problem, objective, caps=(None, None), branch_bounds=None):
    """The LP relaxation of one integer objective vector over the box."""
    rows, box = _rows_and_box(problem, caps, branch_bounds)
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
        assert not res.is_optimal
        assert res.solution is None

    def test_extra_strict_upper(self, cover):
        # f2 < 2, i.e. x2 <= 1, pushes the f1 optimum to 2
        res = solve_single(cover, 1, caps=(None, 2))
        assert res.solution.outcome.f1 == 2

    def test_infeasible_extras(self, cover):
        res = solve_single(cover, 1, caps=(0, 0))
        assert not res.is_optimal

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
        res = backend.solve_lex(cover, ObjectiveOrder.F1_FIRST, (None, 3))
        assert res.solution.outcome == OutcomeVector(1, 2)

    def test_infeasible(self, cover, backend):
        res = backend.solve_lex(cover, ObjectiveOrder.F1_FIRST, (0, 0))
        assert not res.is_optimal
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
        res = solve_lex(extremes_problem(), ObjectiveOrder.F1_FIRST, (1, None))
        assert res.solution.outcome == OutcomeVector(0, 1)

    def test_cutoff_drops_the_point_at_it(self):
        # with f2 < 1 only (1, -1) is left; its combined value W * 1 + L
        # equals the cutoff of f1 < 1, so nothing is below it
        res = solve_lex(extremes_problem(), ObjectiveOrder.F1_FIRST, (1, 1))
        assert not res.is_optimal

    @pytest.mark.parametrize("order", list(ObjectiveOrder))
    @pytest.mark.parametrize("cap", [None, 0, 1, 2])
    def test_agrees_with_enumeration(self, order, cap):
        p = extremes_problem()
        caps = (cap, None) if order.first == 1 else (None, cap)
        a = solve_lex(p, order, caps)
        b = EnumerationBackend().solve_lex(p, order, caps)
        assert (a.is_optimal, a.solution and a.solution.outcome) == (
            b.is_optimal,
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
        lp = solve_lp_relaxation(cover, cover.objective(1), caps=(None, 2))
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
        monkeypatch.setattr(biopt.ipsolve, "NODE_LIMIT", nodes)
        assert solve_single(fractional_problem(), 1).node_count == nodes
        monkeypatch.setattr(biopt.ipsolve, "NODE_LIMIT", nodes - 1)
        with pytest.raises(NodeLimitExceeded):
            solve_single(fractional_problem(), 1)

    def test_backend_limit(self, monkeypatch):
        monkeypatch.setattr(biopt.ipsolve, "NODE_LIMIT", 1)
        backend = BranchAndBoundBackend()
        with pytest.raises(NodeLimitExceeded):
            backend.solve_lex(fractional_problem(), ObjectiveOrder.F1_FIRST)

    def test_default_limit_constant(self):
        assert NODE_LIMIT == 10_000_000


class TestEnumerationGuard:
    def test_budget_refusal(self):
        # 10^8 points, past the default budget: refused before any point
        p = build_problem(8, [(1,) * 8, (1,) + (0,) * 7], [], [(0, 9)] * 8)
        with pytest.raises(BudgetExceeded) as refusal:
            EnumerationBackend().solve_lex(p, ObjectiveOrder.F1_FIRST)
        assert (refusal.value.box_size, refusal.value.budget) == (10**8, 10**7)

    def test_enum_counters(self, cover):
        res = EnumerationBackend().solve_lex(cover, ObjectiveOrder.F1_FIRST)
        assert res.node_count == 10  # feasible points of the cover box
        assert res.lp_count == 0


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("order", list(ObjectiveOrder))
@pytest.mark.parametrize("caps", [(2.0, None), (None, 2.0)], ids=["f1", "f2"])
def test_float_cap_raises(cover, backend, order, caps):
    # a float cap would reach the cutoff W * cap + L and the pruning tests
    with pytest.raises(TypeError):
        backend.solve_lex(cover, order, caps)


def cover_on(box):
    """min (x1, x2) s.t. x1 + x2 >= 3 on ``box``."""
    return build_problem(
        2, [(1, 0), (0, 1)], [LinearConstraint((1, 1), Relation.GE, 3)], box
    )


class TestIncumbentStaircase:
    def test_keeps_only_nondominated_points(self, cover):
        pool = IncumbentStaircase(cover)
        added = [(2, 2), (1, 3), (2, 1), (0, 3), (3, 0), (2, 1), (3, 3)]
        for x in added:
            pool.add(x)
        # (2, 1) replaced (2, 2) and (0, 3) replaced (1, 3); (3, 3) was
        # dominated on arrival
        assert sorted(pool._points) == [(0, 3, (0, 3)), (2, 1, (2, 1)), (3, 0, (3, 0))]
        # a dropped point is never missed: under any strict caps, in either
        # order, the staircase answers as the lex-least added point does
        caps_grid = [(c1, c2) for c1 in (None, 0, 1, 2, 3, 4) for c2 in (None, 0, 1, 2, 3, 4)]
        for order in ObjectiveOrder:
            lead, trail = order.first - 1, order.last - 1
            for c1, c2 in caps_grid:
                under = [
                    x for x in added
                    if (c1 is None or x[0] < c1) and (c2 is None or x[1] < c2)
                ]
                want = min(under, key=lambda x: (x[lead], x[trail]), default=None)
                got = pool.best(order, (c1, c2))
                assert (got[2] if got else None) == want, (order, c1, c2)

    def test_best_is_least_in_order_under_strict_caps(self, cover):
        pool = IncumbentStaircase(cover)
        for x in [(0, 3), (1, 2), (2, 1), (3, 0)]:
            pool.add(x)
        f1_first, f2_first = ObjectiveOrder.F1_FIRST, ObjectiveOrder.F2_FIRST
        # no caps: each order's own endpoint
        assert pool.best(f1_first, (None, None)) == (0, 3, (0, 3))
        assert pool.best(f2_first, (None, None)) == (3, 0, (3, 0))
        # a strict cap on the trailing objective, in either slot
        assert pool.best(f1_first, (None, 2)) == (2, 1, (2, 1))
        assert pool.best(f2_first, (2, None)) == (1, 2, (1, 2))
        # a strict cap on the leading objective, in either slot
        assert pool.best(f1_first, (2, None)) == (0, 3, (0, 3))
        assert pool.best(f2_first, (None, 2)) == (3, 0, (3, 0))
        assert pool.best(f1_first, (0, None)) is None  # f1 = 0 is not < 0
        assert pool.best(f2_first, (None, 0)) is None
        # both caps
        assert pool.best(f1_first, (3, 3)) == (1, 2, (1, 2))
        assert pool.best(f2_first, (3, 3)) == (2, 1, (2, 1))
        assert pool.best(f1_first, (3, 1)) is None
        assert pool.best(f2_first, (1, 3)) is None

    def test_best_reads_outcomes_not_assignments(self):
        # f1 = x1 + x2 and f2 = -x1 on [0, 2]^2 with x1 + x2 >= 1: the
        # caps and the order apply to the outcome of each point
        problem = build_problem(
            2, [(1, 1), (-1, 0)], [LinearConstraint((1, 1), Relation.GE, 1)],
            [(0, 2), (0, 2)],
        )
        pool = IncumbentStaircase(problem)
        for x in [(0, 1), (1, 0), (2, 0)]:
            pool.add(x)
        # (0, 1) is dominated by (1, 0): outcomes (1, 0) and (1, -1)
        assert pool.best(ObjectiveOrder.F1_FIRST, (None, None)) == (1, -1, (1, 0))
        assert pool.best(ObjectiveOrder.F2_FIRST, (None, None)) == (2, -2, (2, 0))
        assert pool.best(ObjectiveOrder.F1_FIRST, (None, -1)) == (2, -2, (2, 0))
        assert pool.best(ObjectiveOrder.F2_FIRST, (2, None)) == (1, -1, (1, 0))

    def test_seeded_point_is_returned_as_proven(self, cover):
        pool = IncumbentStaircase(cover)
        pool.add((1, 2))
        res = solve_lex(cover, ObjectiveOrder.F1_FIRST, (None, 3), pool=pool)
        assert res.solution == Solution((1, 2), OutcomeVector(1, 2))
        assert res.node_count >= 1  # the root LP still ran to prove it

    def test_pooled_point_that_breaks_a_cap_is_not_seeded(self, cover):
        # (0, 3) leads (f1, f2) but breaks f2 < 3; seeded, the search would
        # have nothing to beat it and return it
        pool = IncumbentStaircase(cover)
        for x in [(0, 3), (2, 1)]:
            pool.add(x)
        res = solve_lex(cover, ObjectiveOrder.F1_FIRST, (None, 3), pool=pool)
        assert res.solution.outcome == OutcomeVector(1, 2)

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
        found = backend.solve_lex(cover, f1_first, (None, 3))
        assert found.solution.outcome == OutcomeVector(1, 2)
        beside = (2, 2)
        res = backend.solve_lex(cover, f1_first, beside)
        assert res == LexResult(None, Work(nodes=1))
        assert not EnumerationBackend().solve_lex(cover, f1_first, beside).is_optimal
        again = (2, 3)
        assert backend.solve_lex(cover, f1_first, again).solution.outcome == OutcomeVector(1, 2)

    def test_rule_out_reads_each_cap_as_its_objective(self, cover):
        # under (f2, f1) the cap on the leading objective is the one on f2
        backend = BranchAndBoundBackend()
        f2_first = ObjectiveOrder.F2_FIRST
        found = backend.solve_lex(cover, f2_first, (3, None))
        assert found.solution.outcome == OutcomeVector(2, 1)
        beside = (3, 1)  # f1 <= 2, f2 <= 0
        res = backend.solve_lex(cover, f2_first, beside)
        assert res == LexResult(None, Work(nodes=1))

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
        """Replay sweeps with and without pooled points; each pair of solves
        restarts from the same root LP, so the points are their only
        difference: the bare side runs on a fresh staircase that holds only
        the pooled side's root."""
        problems = [cover, knapsack] + [
            generate(GeneratorSpec(family, size, seed))
            for family, size in (("knapsack", 12), ("assignment", 4))
            for seed in (1, 2, 3)
        ]
        bare_total = pooled_total = 0
        for problem in problems:
            pool = IncumbentStaircase(problem)
            for order in ObjectiveOrder:
                own, cap = order.last, None
                while True:
                    caps = (cap, None) if own == 1 else (None, cap)
                    bare_pool = IncumbentStaircase(problem)
                    bare_pool.roots.update(pool.roots)
                    bare = solve_lex(problem, order, caps, pool=bare_pool)
                    pooled = solve_lex(problem, order, caps, pool=pool)
                    assert pooled.is_optimal == bare.is_optimal
                    assert pooled.node_count <= bare.node_count
                    bare_total += bare.node_count
                    pooled_total += pooled.node_count
                    if not pooled.is_optimal:
                        break
                    assert pooled.solution.outcome == bare.solution.outcome
                    cap = pooled.solution.outcome.component(own)
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
            assert a.is_optimal == b.is_optimal, f"trial {trial}"
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
