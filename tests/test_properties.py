"""Property-based suites: staircase shape, filter laws, bound monotonicity,
backend agreement, and format round-trips on randomly drawn inputs."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biopt.algorithms import SharedBounds, sequential_boip
from biopt.errors import BoundRegression
from biopt.instances import SplitMix64, format_instance, parse_instance
import biopt.ipsolve
from biopt.ipsolve import (
    BranchAndBoundBackend,
    EnumerationBackend,
    ExtraConstraint,
    _branch_and_bound,
)
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
    OutcomeVector,
    ParetoSet,
    Relation,
    Solution,
    build_problem,
    dominates,
    evaluate,
    pareto_filter,
)
from biopt.oracle import iter_feasible
from biopt.simplex import SolveStatus, solve_lp
from tests.conftest import tightened

RELATIONS = (Relation.LE, Relation.GE, Relation.EQ)


@st.composite
def tiny_problems(draw):
    """Random instances with at most 27 lattice points — oracle-enumerable."""
    n = draw(st.integers(1, 3))
    bounds = []
    for _ in range(n):
        lo = draw(st.integers(-2, 2))
        bounds.append((lo, lo + draw(st.integers(0, 2))))
    rows = [
        LinearConstraint(
            tuple(draw(st.integers(-3, 3)) for _ in range(n)),
            draw(st.sampled_from(RELATIONS)),
            draw(st.integers(-6, 6)),
        )
        for _ in range(draw(st.integers(0, 2)))
    ]
    objectives = [
        [draw(st.integers(-5, 5)) for _ in range(n)],
        [draw(st.integers(-5, 5)) for _ in range(n)],
    ]
    return build_problem(n, objectives, rows, bounds)


solutions = st.lists(
    st.builds(
        lambda f1, f2: Solution((0,), OutcomeVector(f1, f2)),
        st.integers(-30, 30),
        st.integers(-30, 30),
    ),
    max_size=25,
)


class TestParetoFilterLaws:
    @given(solutions)
    @settings(deadline=None)
    def test_output_is_a_staircase(self, sols):
        front = pareto_filter(sols)
        outs = front.outcomes()
        for prev, cur in zip(outs, outs[1:]):
            assert prev.f1 < cur.f1
            assert prev.f2 > cur.f2

    @given(solutions)
    @settings(deadline=None)
    def test_idempotent(self, sols):
        once = pareto_filter(sols)
        twice = pareto_filter(once)
        assert tuple(twice) == tuple(once)  # same representatives, same order

    @given(solutions)
    @settings(deadline=None)
    def test_agrees_with_naive_dominance_scan(self, sols):
        outs = [s.outcome for s in sols]
        survivors = {
            o for o in outs if not any(dominates(rival, o) for rival in outs)
        }
        assert set(pareto_filter(sols).outcomes()) == survivors

    @given(solutions)
    @settings(deadline=None)
    def test_keeps_first_representative(self, sols):
        front = pareto_filter(sols)
        first_seen = {}
        for sol in sols:
            first_seen.setdefault(sol.outcome, sol)
        for sol in front:
            assert sol is first_seen[sol.outcome]


class TestSharedBoundsMonotonicity:
    @given(st.lists(st.integers(-10_000, 10_000), min_size=1, max_size=15))
    @settings(deadline=None, max_examples=50)
    def test_non_increasing_traces_accepted(self, values):
        store = SharedBounds()
        for value in sorted(values, reverse=True):
            store.publish(2, value)
        assert store.l2 == min(values)
        with pytest.raises(BoundRegression):
            store.publish(2, min(values) + 1)
        assert store.l2 == min(values)  # the rejected write changed nothing

    @given(st.integers(-10_000, 10_000), st.integers(1, 100))
    @settings(deadline=None, max_examples=50)
    def test_any_increase_rejected(self, base, bump):
        store = SharedBounds()
        store.publish(1, base)
        with pytest.raises(BoundRegression):
            store.publish(1, base + bump)


class TestBackendAgreement:
    @given(tiny_problems(), st.sampled_from(list(ObjectiveOrder)))
    @settings(deadline=None, max_examples=200)
    def test_lexicographic_duel(self, problem, order):
        # the lexicographic optimum is unique in outcome space, so both
        # backends must report identical status and outcome
        bnb = BranchAndBoundBackend().solve_lex(problem, order)
        enum = EnumerationBackend().solve_lex(problem, order)
        assert bnb.is_optimal == enum.is_optimal
        if bnb.is_optimal:
            assert bnb.solution.outcome == enum.solution.outcome

    @given(tiny_problems(), st.sampled_from(list(ObjectiveOrder)))
    @settings(deadline=None, max_examples=100)
    def test_branch_and_bound_matches_direct_scan(self, problem, order):
        outcomes = [
            evaluate(problem, point).as_tuple() for point in iter_feasible(problem)
        ]
        result = BranchAndBoundBackend().solve_lex(problem, order)
        if not outcomes:
            assert not result.is_optimal
            return
        lead, trail = order.first, order.last
        best = min(outcomes, key=lambda o: (o[lead - 1], o[trail - 1]))
        got = result.solution.outcome.as_tuple()
        assert (got[lead - 1], got[trail - 1]) == (
            best[lead - 1],
            best[trail - 1],
        )


epsilon_bounds = st.lists(
    st.builds(ExtraConstraint, st.sampled_from((1, 2)), st.integers(-30, 30)),
    max_size=3,
)


def _assert_backends_agree(problem, order, extras):
    bnb = BranchAndBoundBackend().solve_lex(problem, order, extras)
    enum = EnumerationBackend().solve_lex(problem, order, extras)
    assert bnb.is_optimal == enum.is_optimal
    if bnb.is_optimal:
        assert bnb.solution.outcome == enum.solution.outcome
        assert problem.is_feasible(bnb.solution.assignment)
    return bnb


class TestCutoffAgreement:
    """Bounds on the leading objective act as a branch-and-bound cutoff,
    not a row; the enumeration backend still applies every bound as a row."""

    @given(tiny_problems(), st.sampled_from(list(ObjectiveOrder)), epsilon_bounds)
    @settings(deadline=None, max_examples=200)
    def test_random_bounds_on_both_objectives(self, problem, order, extras):
        _assert_backends_agree(problem, order, extras)

    @given(
        tiny_problems(),
        st.sampled_from(list(ObjectiveOrder)),
        st.integers(-2, 1),
        epsilon_bounds,
    )
    @settings(deadline=None, max_examples=200)
    def test_cutoff_around_the_leading_minimum(self, problem, order, offset, extras):
        leads = [
            evaluate(problem, point).component(order.first)
            for point in iter_feasible(problem)
        ]
        assume(leads)
        # offset <= 0 leaves the leading objective no feasible value
        cutoff = ExtraConstraint(order.first, min(leads) + offset)
        result = _assert_backends_agree(problem, order, [cutoff, *extras])
        if offset <= 0:
            assert not result.is_optimal


class TestPooledSweepAgreement:
    """One branch-and-bound backend carries its incumbent staircase from
    solve to solve; every solve must still match a scan of the lattice."""

    @given(
        tiny_problems(),
        st.lists(
            st.one_of(
                st.none(),
                st.integers(-20, 20),
                st.tuples(st.integers(0, 7), st.integers(-1, 2)),
            ),
            min_size=1,
            max_size=8,
        ),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=200)
    def test_epsilon_sweep_in_both_orders(self, problem, lead_caps, f2_first):
        # each order sweeps its trailing objective's cap down, as the
        # sequential and splitting sweeps do, under a cap on the leading
        # objective, as a meeting worker reads one from the store: none, a
        # random one, or (k, d), one at d from the k-th point found so far
        bnb, enum = BranchAndBoundBackend(), EnumerationBackend()
        found = []
        orders = list(ObjectiveOrder)
        for order in reversed(orders) if f2_first else orders:
            cap = None
            for lead_cap in lead_caps:
                if isinstance(lead_cap, tuple):
                    k, d = lead_cap
                    near = found[k % len(found)] if found else None
                    lead_cap = None if near is None else near.component(order.first) + d
                extras = [] if cap is None else [ExtraConstraint(order.last, cap)]
                if lead_cap is not None:
                    extras.append(ExtraConstraint(order.first, lead_cap))
                got = bnb.solve_lex(problem, order, extras)
                want = enum.solve_lex(problem, order, extras)
                assert got.status is want.status
                if not got.is_optimal:
                    continue
                assert got.solution.outcome == want.solution.outcome
                assert problem.is_feasible(got.solution.assignment)
                assert evaluate(problem, got.solution.assignment) == got.solution.outcome
                found.append(got.solution.outcome)
                cap = got.solution.outcome.component(order.last)


@st.composite
def boxed_ips(draw):
    """A small integer program over general integer boxes reaching below
    zero, with costs of both signs and one or two rows that an integer
    point of the box satisfies."""
    n = draw(st.integers(2, 4))
    bounds, point = [], []
    for _ in range(n):
        lo = draw(st.integers(-4, 1))
        bounds.append((lo, lo + draw(st.integers(1, 5))))
        point.append(draw(st.integers(*bounds[-1])))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        coeffs = tuple(draw(st.integers(-5, 5)) for _ in range(n))
        relation = draw(st.sampled_from(RELATIONS))
        rhs = sum(c * v for c, v in zip(coeffs, point))
        if relation is not Relation.EQ:
            slack = draw(st.integers(0, 4))
            rhs += slack if relation is Relation.LE else -slack
        rows.append(LinearConstraint(coeffs, relation, rhs))
    costs = tuple(draw(st.integers(-7, 7)) for _ in range(n))
    return costs, tuple(rows), tuple(bounds)


class TestReducedCostTightening:
    """Branch and bound cuts each branching node's box from its LP's reduced
    costs; with a cutoff and a seeded incumbent it must still agree with a
    scan of the lattice."""

    def test_agrees_with_enumeration(self, monkeypatch):
        moves = {"upper": 0, "lower": 0}  # bounds tightened, by side
        real = biopt.ipsolve._tighten

        def spy(box, lp, limit):
            cut, moved = real(box, lp, limit)
            for (lo, hi), (new_lo, new_hi) in zip(box, cut):
                moves["upper"] += new_hi < hi
                moves["lower"] += new_lo > lo
            return cut, moved

        monkeypatch.setattr(biopt.ipsolve, "_tighten", spy)
        counted: list[int] = []

        @given(
            boxed_ips(),
            st.one_of(st.none(), st.integers(-1, 6)),
            st.one_of(st.none(), st.integers(0, 50)),
        )
        @settings(deadline=None, max_examples=300, database=None)
        def check(ip, offset, seed):
            # the cutoff sits at ``offset`` from the optimum, and the
            # incumbent is a feasible point below it, drawn by ``seed``
            costs, rows, bounds = ip
            points = [
                (sum(c * v for c, v in zip(costs, x)), x)
                for x in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds))
                if all(row.satisfied_by(x) for row in rows)
            ]
            best = min(value for value, _ in points)
            cutoff = None if offset is None else best + offset
            below = sorted(p for p in points if cutoff is None or p[0] < cutoff)
            incumbent = None
            if seed is not None and below:
                incumbent = below[seed % len(below)]
            found = _branch_and_bound(costs, rows, bounds, cutoff, incumbent=incumbent)
            counted.append(found.work.tightened)
            if not below:
                assert (found.value, found.assignment) == (None, None)
                return
            assert found.value == best
            x = found.assignment
            assert all(row.satisfied_by(x) for row in rows)
            assert all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
            assert sum(c * v for c, v in zip(costs, x)) == best

        check()
        assert sum(counted) == moves["upper"] + moves["lower"]
        # both sides of the rule must fire, or half of it goes untested
        assert moves["upper"] > 0 and moves["lower"] > 0


@st.composite
def random_lps(draw):
    """A small LP with LE, GE and EQ rows and boxes reaching below zero."""
    n = draw(st.integers(1, 4))
    bounds = []
    for _ in range(n):
        lo = draw(st.integers(-4, 3))
        bounds.append((lo, lo + draw(st.integers(0, 5))))
    rows = tuple(
        LinearConstraint(
            tuple(draw(st.integers(-6, 6)) for _ in range(n)),
            draw(st.sampled_from(RELATIONS)),
            draw(st.integers(-12, 12)),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    costs = tuple(draw(st.integers(-7, 7)) for _ in range(n))
    return costs, rows, tuple(bounds)


@st.composite
def feasible_lps(draw):
    """Like ``random_lps``, with one to three rows that an integer point of
    the box satisfies, so the LP is never infeasible."""
    n = draw(st.integers(1, 4))
    bounds, point = [], []
    for _ in range(n):
        lo = draw(st.integers(-4, 3))
        bounds.append((lo, lo + draw(st.integers(0, 5))))
        point.append(draw(st.integers(*bounds[-1])))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = tuple(draw(st.integers(-6, 6)) for _ in range(n))
        relation = draw(st.sampled_from(RELATIONS))
        rhs = sum(c * v for c, v in zip(coeffs, point))
        if relation is not Relation.EQ:
            slack = draw(st.integers(0, 6))
            rhs += slack if relation is Relation.LE else -slack
        rows.append(LinearConstraint(coeffs, relation, rhs))
    costs = tuple(draw(st.integers(-7, 7)) for _ in range(n))
    return costs, tuple(rows), tuple(bounds)


@st.composite
def boxed_lps(draw):
    """An LP over boxes 1 to 5 wide with one to three dense rows that an
    integer point of the box satisfies.  Every column has an upper bound
    and an entry in every row, so a dual ratio test has many to pass."""
    n = draw(st.integers(4, 8))
    bounds, point = [], []
    for _ in range(n):
        lo = draw(st.integers(-3, 2))
        bounds.append((lo, lo + draw(st.integers(1, 5))))
        point.append(draw(st.integers(*bounds[-1])))
    entries = st.integers(-6, 6).filter(bool)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = tuple(draw(entries) for _ in range(n))
        relation = draw(st.sampled_from(RELATIONS))
        rhs = sum(c * v for c, v in zip(coeffs, point))
        if relation is not Relation.EQ:
            slack = draw(st.integers(0, 8))
            rhs += slack if relation is Relation.LE else -slack
        rows.append(LinearConstraint(coeffs, relation, rhs))
    costs = tuple(draw(st.integers(-7, 7)) for _ in range(n))
    return costs, tuple(rows), tuple(bounds)


class TestWarmStart:
    """Re-optimizing from a parent's basis must match a cold solve exactly."""

    def test_long_steps_equal_cold(self):
        flipped: list[bool] = []

        @given(
            boxed_lps(),
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(1, 30), st.booleans()),
                min_size=1,
                max_size=3,
            ),
            st.lists(st.integers(0, 7), max_size=2),
        )
        @settings(deadline=None, max_examples=300, database=None)
        def check(lp, moves, picks):
            # tighten rows (an equality row either way), then cut bounds as
            # branching would: large violations that flips can close
            costs, rows, bounds = lp
            parent = solve_lp(costs, rows, bounds)
            assert parent.is_optimal
            moved = list(rows)
            for pick, size, down in moves:
                con = moved[pick % len(rows)]
                if con.relation is Relation.LE or (con.relation is Relation.EQ and down):
                    size = -size
                moved[pick % len(rows)] = LinearConstraint(
                    con.coeffs, con.relation, con.rhs + size
                )
            for pick in picks:
                bounds = tightened(parent.x, bounds, pick) or bounds
            warm = solve_lp(costs, moved, bounds, start=parent)
            cold = solve_lp(costs, moved, bounds)
            assert warm.status is cold.status
            flipped.append(warm.flips > 0)
            if warm.is_optimal:
                assert warm.objective == cold.objective
                for con in moved:
                    assert con.satisfied_by(warm.x)
                for v, (lo, hi) in zip(warm.x, bounds):
                    assert lo <= v <= hi
                assert sum(c * v for c, v in zip(costs, warm.x)) == warm.objective

        check()
        # the draw is built to make flips common (about one solve in six);
        # a share this low would leave the long step untested
        assert sum(flipped) >= 0.08 * len(flipped)

    @given(random_lps(), st.lists(st.integers(0, 7), min_size=1, max_size=3))
    @settings(deadline=None, max_examples=300)
    def test_warm_child_equals_cold_child(self, lp, picks):
        costs, rows, bounds = lp
        parent = solve_lp(costs, rows, bounds)
        assume(parent.is_optimal)
        for pick in picks:
            child_bounds = tightened(parent.x, bounds, pick)
            if child_bounds is None:
                return
            warm = solve_lp(costs, rows, child_bounds, start=parent)
            cold = solve_lp(costs, rows, child_bounds)
            assert warm.status is cold.status
            if not warm.is_optimal:
                return
            assert warm.objective == cold.objective
            for con in rows:
                assert con.satisfied_by(warm.x)
            for v, (lo, hi) in zip(warm.x, child_bounds):
                assert lo <= v <= hi
            assert sum(c * v for c, v in zip(costs, warm.x)) == warm.objective
            parent, bounds = warm, child_bounds

    @given(random_lps(), st.integers(0, 7))
    @settings(deadline=None, max_examples=100)
    def test_siblings_share_a_parent(self, lp, pick):
        # both children start from one parent; solving one must not move it
        costs, rows, bounds = lp
        parent = solve_lp(costs, rows, bounds)
        assume(parent.is_optimal)
        down = tightened(parent.x, bounds, 2 * pick)
        up = tightened(parent.x, bounds, 2 * pick + 1)
        assume(down is not None)
        for child_bounds in (down, up, down):
            warm = solve_lp(costs, rows, child_bounds, start=parent)
            cold = solve_lp(costs, rows, child_bounds)
            assert (warm.status, warm.objective) == (cold.status, cold.objective)
        again = solve_lp(costs, rows, bounds, start=parent)
        assert (again.x, again.objective) == (parent.x, parent.objective)

    @given(
        feasible_lps(),
        st.lists(
            st.tuples(st.integers(0, 2), st.one_of(st.integers(-4, 4), st.just("cross"))),
            min_size=1,
            max_size=2,
        ),
        st.lists(st.integers(0, 7), max_size=2),
    )
    @settings(deadline=None, max_examples=300)
    def test_rhs_change_equals_cold(self, lp, moves, picks):
        # tighten or loosen a row, or reflect its shifted rhs through zero
        # so that its slack changes sign
        costs, rows, bounds = lp
        parent = solve_lp(costs, rows, bounds)
        assert parent.is_optimal
        moved = list(rows)
        for pick, move in moves:
            con = moved[pick % len(rows)]
            if move == "cross":
                shifted = con.rhs - sum(c * lo for c, (lo, _) in zip(con.coeffs, bounds))
                move = -2 * shifted
            moved[pick % len(rows)] = LinearConstraint(con.coeffs, con.relation, con.rhs + move)
        for pick in picks:  # a B&B child of the moved root, bounds cut too
            bounds = tightened(parent.x, bounds, pick) or bounds
        warm = solve_lp(costs, moved, bounds, start=parent)
        cold = solve_lp(costs, moved, bounds)
        assert warm.status is cold.status
        if warm.is_optimal:
            assert warm.objective == cold.objective
            for con in moved:
                assert con.satisfied_by(warm.x)
            for v, (lo, hi) in zip(warm.x, bounds):
                assert lo <= v <= hi

    def test_duplicated_equality_row(self):
        # the two copies of the EQ row are dependent: the tableau keeps both,
        # and shifting one copy alone must make the LP infeasible
        bounds = ((0, 2), (-1, 2))
        row = LinearConstraint((1, 1), Relation.EQ, 2)
        other = LinearConstraint((1, -1), Relation.GE, -1)
        parent = solve_lp((1, 0), (row, row, other), bounds)
        assert parent.is_optimal
        for rhs in (3, 1, 0):
            shifted = LinearConstraint((1, 1), Relation.EQ, rhs)
            one = solve_lp((1, 0), (row, shifted, other), bounds, start=parent)
            assert one.status is SolveStatus.INFEASIBLE
            both = (shifted, shifted, other)
            warm = solve_lp((1, 0), both, bounds, start=parent)
            cold = solve_lp((1, 0), both, bounds)
            assert (warm.status, warm.objective) == (cold.status, cold.objective)
            assert warm.is_optimal

    @given(
        feasible_lps(),
        st.tuples(st.integers(0, 2), st.integers(-3, 3)),
        st.tuples(st.integers(0, 2), st.integers(-3, 3)),
        st.integers(-3, 3).filter(bool),
    )
    @settings(deadline=None, max_examples=300)
    def test_dependent_row(self, lp, first, second, shift):
        # append an integer combination of two rows that they imply: any
        # multiple of an equality row, a nonnegative one of an inequality
        costs, rows, bounds = lp
        coeffs, rhs, relation = [0] * len(bounds), 0, Relation.EQ
        for pick, times in (first, second):
            con = rows[pick % len(rows)]
            if con.relation is not Relation.EQ:
                times = abs(times) * (-1 if con.relation is Relation.GE else 1)
                if times:
                    relation = Relation.LE
            coeffs = [a + times * c for a, c in zip(coeffs, con.coeffs)]
            rhs += times * con.rhs
        extra = LinearConstraint(tuple(coeffs), relation, rhs)
        parent = solve_lp(costs, rows + (extra,), bounds)
        alone = solve_lp(costs, rows, bounds)
        assert (parent.status, parent.objective) == (alone.status, alone.objective)
        moved = rows + (LinearConstraint(extra.coeffs, relation, rhs + shift),)
        warm = solve_lp(costs, moved, bounds, start=parent)
        cold = solve_lp(costs, moved, bounds)
        assert (warm.status, warm.objective) == (cold.status, cold.objective)


class TestSequentialShape:
    @given(tiny_problems())
    @settings(deadline=None, max_examples=60)
    def test_front_is_staircase_and_solves_counted(self, problem):
        front, stats = sequential_boip(problem)
        outs = front.outcomes()
        for prev, cur in zip(outs, outs[1:]):
            assert prev.f1 < cur.f1
            assert prev.f2 > cur.f2
        assert stats.ip_solves == len(front) + 1
        assert stats.ip_solves == stats.feasible_solves + stats.infeasible_solves

    @given(tiny_problems())
    @settings(deadline=None, max_examples=60)
    def test_every_found_point_is_feasible(self, problem):
        front, _ = sequential_boip(problem)
        for sol in front:
            assert problem.is_feasible(sol.assignment)
            assert evaluate(problem, sol.assignment) == sol.outcome


class TestInstanceFormatRoundTrip:
    @given(tiny_problems())
    @settings(deadline=None, max_examples=100)
    def test_parse_inverts_format(self, problem):
        assert parse_instance(format_instance(problem)) == problem


class TestSplitMixRange:
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(-1000, 1000),
        st.integers(0, 500),
    )
    @settings(deadline=None, max_examples=100)
    def test_uniform_int_in_interval_and_deterministic(self, seed, lo, width):
        first = SplitMix64(seed).uniform_int(lo, lo + width)
        again = SplitMix64(seed).uniform_int(lo, lo + width)
        assert lo <= first <= lo + width
        assert first == again


class TestParetoSetValidation:
    @given(solutions)
    @settings(deadline=None)
    def test_filter_output_always_constructs(self, sols):
        front = pareto_filter(sols)
        rebuilt = ParetoSet(tuple(front))
        assert rebuilt == front
