"""Property-based suites: staircase shape, filter laws, bound monotonicity,
backend agreement, and format round-trips on randomly drawn inputs."""

import itertools
from fractions import Fraction
from math import ceil, floor

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
from biopt.simplex import _Layout, _VarState, solve_lp
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
        assert store.read(2) == min(values)
        with pytest.raises(BoundRegression):
            store.publish(2, min(values) + 1)
        assert store.read(2) == min(values)  # the rejected write changed nothing

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


optional_cap = st.one_of(st.none(), st.integers(-30, 30))
epsilon_bounds = st.tuples(optional_cap, optional_cap)


def _assert_backends_agree(problem, order, caps):
    bnb = BranchAndBoundBackend().solve_lex(problem, order, caps)
    enum = EnumerationBackend().solve_lex(problem, order, caps)
    assert bnb.is_optimal == enum.is_optimal
    if bnb.is_optimal:
        assert bnb.solution.outcome == enum.solution.outcome
        assert problem.is_feasible(bnb.solution.assignment)
    return bnb


class TestCutoffAgreement:
    """The cap on the leading objective acts as a branch-and-bound cutoff,
    not a row; the enumeration backend still applies every cap as a row."""

    @given(tiny_problems(), st.sampled_from(list(ObjectiveOrder)), epsilon_bounds)
    @settings(deadline=None, max_examples=200)
    def test_random_bounds_on_both_objectives(self, problem, order, caps):
        _assert_backends_agree(problem, order, caps)

    @given(
        tiny_problems(),
        st.sampled_from(list(ObjectiveOrder)),
        st.integers(-2, 1),
        epsilon_bounds,
    )
    @settings(deadline=None, max_examples=200)
    def test_cutoff_around_the_leading_minimum(self, problem, order, offset, caps):
        leads = [
            evaluate(problem, point).component(order.first)
            for point in iter_feasible(problem)
        ]
        assume(leads)
        # offset <= 0 leaves the leading objective no feasible value
        cutoff = min(leads) + offset
        caps = (cutoff, caps[1]) if order.first == 1 else (caps[0], cutoff)
        result = _assert_backends_agree(problem, order, caps)
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
                caps = (lead_cap, cap) if order.first == 1 else (cap, lead_cap)
                got = bnb.solve_lex(problem, order, caps)
                want = enum.solve_lex(problem, order, caps)
                assert got.is_optimal == want.is_optimal
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
        # derandomized, so the share of flips below is the same on every run
        @settings(deadline=None, max_examples=300, database=None, derandomize=True)
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
            assert warm.is_optimal == cold.is_optimal
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
            assert warm.is_optimal == cold.is_optimal
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
            assert (warm.is_optimal, warm.objective) == (cold.is_optimal, cold.objective)
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
        assert warm.is_optimal == cold.is_optimal
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
            assert not one.is_optimal
            both = (shifted, shifted, other)
            warm = solve_lp((1, 0), both, bounds, start=parent)
            cold = solve_lp((1, 0), both, bounds)
            assert (warm.is_optimal, warm.objective) == (cold.is_optimal, cold.objective)
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
        assert (parent.is_optimal, parent.objective) == (alone.is_optimal, alone.objective)
        moved = rows + (LinearConstraint(extra.coeffs, relation, rhs + shift),)
        warm = solve_lp(costs, moved, bounds, start=parent)
        cold = solve_lp(costs, moved, bounds)
        assert (warm.is_optimal, warm.objective) == (cold.is_optimal, cold.objective)


def _inverse(matrix):
    """The inverse of a square integer matrix and its determinant, by
    Gauss-Jordan elimination in ``Fraction``s."""
    m = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(m)]
            for i, row in enumerate(matrix)]
    det = Fraction(1)
    for c in range(m):
        p = next(r for r in range(c, m) if work[r][c])
        if p != c:
            work[c], work[p] = work[p], work[c]
            det = -det
        pivot = work[c][c]
        det *= pivot
        work[c] = [v / pivot for v in work[c]]
        for r in range(m):
            if r != c and work[r][c]:
                factor = work[r][c]
                work[r] = [v - factor * w for v, w in zip(work[r], work[c])]
    return [row[m:] for row in work], det


def check_one_denominator(lp):
    """Check the final tableau of an optimal ``lp`` against its basis ``B``,
    computed anew from the LP's signed rows: one denominator ``|det B|``,
    the basic columns a scaled identity, and every row and reduced cost
    the exact entry of ``B^-1 [A | I | b']`` and ``c - c_B B^-1 [A | I]``
    times that denominator, with ``b'`` the rhs shifted to where every
    nonbasic column sits.  Returns the denominator."""
    base = lp.restart
    tab, bounds = base.tableau, base.bounds
    n, m, den = len(bounds), len(base.rows), tab.den
    rows = [tab.row(i) + [v] for i, v in enumerate(tab.vals[:m])]
    for i, b in enumerate(tab.basis):
        assert [row[b] for row in rows] == [den * (k == i) for k in range(m)]
    data = [
        [sign * a for a in con.coeffs] + [int(k == i) for k in range(m)]
        for i, (con, sign) in enumerate(zip(base.rows, base.signs))
    ]
    # a nonbasic column's value, shifted by its lower bound
    at = [
        hi - lo if tab.state[j] == _VarState.AT_UPPER else 0 for j, (lo, hi) in enumerate(bounds)
    ] + [0] * m
    for j in tab.basis:
        at[j] = 0
    for row, con, sign in zip(data, base.rows, base.signs):
        shifted = sign * (con.rhs - sum(a * lo for a, (lo, _) in zip(con.coeffs, bounds)))
        row.append(shifted - sum(a * v for a, v in zip(row, at)))
    inverse, det = _inverse([[row[b] for b in tab.basis] for row in data])
    assert den == abs(det)
    for got, inv in zip(rows, inverse):
        want = [sum(f * row[j] for f, row in zip(inv, data)) for j in range(n + m + 1)]
        assert got == [den * v for v in want]
    costs = list(base.costs) + [0] * m
    duals = [sum(costs[b] * inverse[i][k] for i, b in enumerate(tab.basis)) for k in range(m)]
    reduced = [costs[j] - sum(y * row[j] for y, row in zip(duals, data)) for j in range(n + m)]
    assert tab.row(m) == [den * d for d in reduced]
    return den


def optimal_solves(lp, picks, moves):
    """The optimal solves of ``lp``: cold, then warm children on its very
    rows with bounds cut as ``picks`` say, then a restart from the cold
    solve with right-hand sides shifted as ``moves`` say."""
    costs, rows, bounds = lp
    parent = solve_lp(costs, rows, bounds)
    assert parent.is_optimal
    out = [parent]
    node, node_bounds = parent, bounds
    for pick in picks:
        node_bounds = tightened(node.x, node_bounds, pick)
        if node_bounds is None:
            break
        node = solve_lp(costs, rows, node_bounds, start=node)
        if not node.is_optimal:
            break
        out.append(node)
    moved = list(rows)
    for pick, move in moves:
        con = moved[pick % len(rows)]
        moved[pick % len(rows)] = LinearConstraint(con.coeffs, con.relation, con.rhs + move)
    shifted = solve_lp(costs, moved, bounds, start=parent)
    if shifted.is_optimal:
        out.append(shifted)
    return out


class TestOneDenominator:
    """The fraction-free tableau keeps one denominator, ``|det B|``, and
    divides exactly: its integers are the exact tableau scaled by it."""

    def test_final_tableaus(self):
        dens: list[int] = []

        @given(
            boxed_lps(),
            st.lists(st.integers(0, 7), max_size=3),
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(-12, 12)), min_size=1, max_size=2
            ),
        )
        @settings(deadline=None, max_examples=200, database=None, derandomize=True)
        def check(lp, picks, moves):
            dens.extend(map(check_one_denominator, optimal_solves(lp, picks, moves)))

        check()
        # most tableaus must have pivoted away from the slack basis
        assert sum(d > 1 for d in dens) >= 0.5 * len(dens)


def signed(low, high):
    """Integers ``low`` to ``high`` in magnitude, of either sign."""
    return st.builds(
        lambda a, negative: -a if negative else a, st.integers(low, high), st.booleans()
    )


@st.composite
def wide_lps(
    draw, nrows=4, entries=signed(10**5, 10**6), slack=3 * 10**6, costs=st.integers(-7, 7)
):
    """An LP like ``boxed_lps`` with ``nrows`` rows of coefficients drawn
    from ``entries`` and costs from ``costs``.  By default its four rows'
    coefficients are all 10^5 to 10^6 in magnitude, so that Hadamard's
    bound on the tableau's entries passes 2^70 and its fields are wider
    than 64 bits."""
    n = draw(st.integers(4, 6))
    bounds, point = [], []
    for _ in range(n):
        lo = draw(st.integers(-3, 2))
        bounds.append((lo, lo + draw(st.integers(1, 5))))
        point.append(draw(st.integers(*bounds[-1])))
    rows = []
    for _ in range(nrows):
        coeffs = tuple(draw(entries) for _ in range(n))
        relation = draw(st.sampled_from(RELATIONS))
        rhs = sum(c * v for c, v in zip(coeffs, point))
        if relation is not Relation.EQ:
            gap = draw(st.integers(0, slack))
            rhs += gap if relation is Relation.LE else -gap
        rows.append(LinearConstraint(coeffs, relation, rhs))
    return tuple(draw(costs) for _ in range(n)), tuple(rows), tuple(bounds)


class TestPackedRows:
    """A tableau row is one integer of fixed-width fields; its width comes
    from Hadamard's bound on the data, so no field ever overflows."""

    @pytest.mark.parametrize("width", [64, 72, 136])
    def test_pack_field_unpack_round_trip(self, width):
        edge = 2 ** (width - 2) - 1
        values = [0, 1, -1, edge, -edge, 0, -1, edge]
        layout = _Layout(len(values), width)
        packed = layout.pack(values)
        assert packed >= 0 and packed.bit_length() <= len(values) * width
        assert [layout.field(packed, j) for j in range(len(values))] == values
        assert layout.unpack(packed) == values
        # a packed row minus ones is the row read as one signed integer
        assert packed - layout.ones == sum(v << (j * width) for j, v in enumerate(values))

    def test_width_follows_the_data(self):
        assert _Layout.for_rows(3, [[2, 3, 1]]).width == 64
        # |(10^6, 10^6, 1)|^2 is about 2^41, so three such rows bound the
        # minors by about 2^61.5 and four by 2^82: 64 and 88 bits
        row = [10**6, 10**6, 1]
        assert _Layout.for_rows(3, [row] * 3).width == 64
        assert _Layout.for_rows(3, [row] * 4).width == 88
        # an all-zero cost row counts as 1, not 0: a product taken over
        # the bare norms would read 0 and fall back to 64 bits
        assert _Layout.for_rows(3, [row] * 4 + [[0, 0, 0]]).width == 88

    def test_wide_fields_keep_one_denominator(self):
        dens: list[int] = []

        @given(
            wide_lps(),
            st.lists(st.integers(0, 7), min_size=1, max_size=3),
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(-(10**6), 10**6)),
                min_size=1,
                max_size=2,
            ),
        )
        @settings(deadline=None, max_examples=60, database=None, derandomize=True)
        def check(lp, picks, moves):
            solves = optimal_solves(lp, picks, moves)
            assert solves[0].restart.tableau.layout.width > 64
            dens.extend(map(check_one_denominator, solves))

        check()
        # entries past 64 bits must have been reached, not just allowed
        assert max(dens).bit_length() > 64

    def test_wide_costs_keep_one_denominator(self):
        """Small rows and costs of 10^15 to 10^16: the data rows alone fit
        64-bit fields, the reduced costs times the denominator do not, so
        only the cost row in Hadamard's bound keeps them exact."""
        sizes: list[int] = []

        @given(
            wide_lps(3, signed(10, 60), 200, signed(10**15, 10**16)),
            st.lists(st.integers(0, 7), min_size=1, max_size=3),
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(-300, 300)), min_size=1, max_size=2
            ),
        )
        @settings(deadline=None, max_examples=60, database=None, derandomize=True)
        def check(lp, picks, moves):
            costs, rows, bounds = lp
            data = [
                list(con.coeffs) + [int(k == i) for k in range(len(rows))]
                for i, con in enumerate(rows)
            ]
            assert _Layout.for_rows(len(data[0]), data).width == 64
            solves = optimal_solves(lp, picks, moves)
            assert solves[0].restart.tableau.layout.width > 64
            for result in solves:
                check_one_denominator(result)
                sizes.append(max(abs(d) for d in result.restart.tableau.row(-1)).bit_length())

        check()
        # reduced costs past a 64-bit field's range must have been reached
        assert max(sizes) >= 64


class TestCarriedObjective:
    """The tableau carries its objective through every pivot, flip, bound
    change and rhs shift; it must equal the cost of the point it reports."""

    def test_objective_is_the_cost_of_x(self):
        flipped: list[bool] = []

        @given(
            boxed_lps(),
            st.lists(st.integers(0, 7), max_size=3),
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(1, 30), st.booleans()),
                min_size=1,
                max_size=3,
            ),
        )
        @settings(deadline=None, max_examples=300, database=None, derandomize=True)
        def check(lp, picks, moves):
            costs, rows, bounds = lp

            def cost_of_x(result):
                assert result.objective == sum(c * v for c, v in zip(costs, result.x))

            parent = solve_lp(costs, rows, bounds)
            cost_of_x(parent)
            # warm children with cut bounds, on the parent's very rows
            node, node_bounds = parent, bounds
            for pick in picks:
                node_bounds = tightened(node.x, node_bounds, pick)
                if node_bounds is None:
                    break
                node = solve_lp(costs, rows, node_bounds, start=node)
                if not node.is_optimal:
                    break
                cost_of_x(node)
            # a restart with rows tightened far enough that flips close them
            moved = list(rows)
            for pick, size, down in moves:
                con = moved[pick % len(rows)]
                if con.relation is Relation.LE or (con.relation is Relation.EQ and down):
                    size = -size
                moved[pick % len(rows)] = LinearConstraint(
                    con.coeffs, con.relation, con.rhs + size
                )
            shifted = solve_lp(costs, moved, bounds, start=parent)
            flipped.append(shifted.flips > 0)
            if shifted.is_optimal:
                cost_of_x(shifted)

        check()
        # as in TestWarmStart.test_long_steps_equal_cold, the tightened rows
        # make flips common; a share this low would leave them untested
        assert sum(flipped) >= 0.08 * len(flipped)


def most_fractional_reference(x):
    """``(j, floor(x[j]))`` for the entry of ``x`` farthest from an
    integer, ties to the lowest index, or None when all are integers."""
    best, distance = None, Fraction(0)
    for j, v in enumerate(x):
        gap = min(v - floor(v), ceil(v) - v)
        if gap > distance:
            best, distance = j, gap
    return None if best is None else (best, floor(x[best]))


class TestBranchingQuery:
    """Branch and bound's decision, read from the final tableau in
    integers, must match the one a ``Fraction`` point gives."""

    @staticmethod
    def check_query(lp, costs, rows, bounds):
        x = lp.x
        assert x is lp.x  # built once, on first read
        for con in rows:
            assert con.satisfied_by(x)
        for v, (lo, hi) in zip(x, bounds):
            assert lo <= v <= hi
        assert sum(c * v for c, v in zip(costs, x)) == lp.objective
        expected = most_fractional_reference(x)
        assert lp.most_fractional() == expected
        if expected is None:
            assert lp.integral_point() == tuple(v.numerator for v in x)
        else:
            with pytest.raises(ValueError):
                lp.integral_point()
        return expected

    def test_cold_and_warm_child_lps(self):
        seen = {"fractional": 0, "tie": 0, "integral": 0}

        @given(
            st.one_of(random_lps(), boxed_lps()),
            st.lists(st.integers(0, 7), max_size=3),
        )
        @settings(deadline=None, max_examples=400, database=None)
        def check(lp, picks):
            costs, rows, bounds = lp
            parent = solve_lp(costs, rows, bounds)
            assume(parent.is_optimal)
            for pick in [None] + picks:
                if pick is not None:  # a warm child, as branch and bound makes
                    child_bounds = tightened(parent.x, bounds, pick)
                    if child_bounds is None:
                        return
                    warm = solve_lp(costs, rows, child_bounds, start=parent)
                    if not warm.is_optimal:
                        return
                    parent, bounds = warm, child_bounds
                expected = self.check_query(parent, costs, rows, bounds)
                if expected is None:
                    seen["integral"] += 1
                    continue
                seen["fractional"] += 1
                j, _ = expected
                gap = min(parent.x[j] % 1, -parent.x[j] % 1)
                if any(min(v % 1, -v % 1) == gap for v in parent.x[j + 1:]):
                    seen["tie"] += 1

        check()
        # ties to the lowest index must be exercised, not just possible
        assert all(count > 0 for count in seen.values()), seen

    def test_infeasible_lp_has_no_point(self):
        lp = solve_lp((1,), (LinearConstraint((1,), Relation.GE, 2),), ((0, 1),))
        assert lp.x is None
        with pytest.raises(ValueError):
            lp.most_fractional()


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
