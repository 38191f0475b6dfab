"""Tests for the sequential sweep, range splitting, and the meeting run."""

import multiprocessing
import pickle
import os
import random
import time

import pytest

from conftest import random_tiny_problem
from biopt.algorithms import (
    RUNNERS,
    DelaySpec,
    RunStats,
    SharedBounds,
    _knee_slices,
    _run_parallel,
    _slices,
    _sweep,
    meeting_boip,
    sequential_boip,
    splitting_boip,
)
import biopt.algorithms
import biopt.ipsolve
from biopt.errors import BioptError, BoundRegression
from biopt.instances import GeneratorSpec, generate
from biopt.ipsolve import (
    BranchAndBoundBackend,
    EnumerationBackend,
    ExtraConstraint,
    SolverBackend,
    Work,
)
from biopt.model import (
    LinearConstraint,
    ObjectiveOrder,
    OutcomeVector,
    ParetoSet,
    Relation,
    build_problem,
    make_solution,
)
from biopt.oracle import brute_force_pareto


def check_two_sided_cover(low_sweep, high_sweep, meeting_point, reference):
    """Do two opposed partial sweeps plus their meeting point cover a front?

    True iff the union of their outcomes, deduplicated, equals the
    reference front's outcomes exactly.
    """
    outcomes = {sol.outcome for sol in low_sweep}
    outcomes.update(sol.outcome for sol in high_sweep)
    if meeting_point is not None:
        outcomes.add(meeting_point)
    return outcomes == set(reference.outcomes())


def infeasible_problem():
    return build_problem(
        num_vars=1,
        objectives=[(1,), (-1,)],
        constraints=[LinearConstraint((1,), Relation.GE, 5)],
        var_bounds=[(0, 3)],
    )


def outcomes_of(front):
    return set(front.outcomes())


class TestSharedBounds:
    def test_starts_unset(self):
        store = SharedBounds()
        assert store.read(1) is None
        assert store.read(2) is None
        assert store.l1 is None and store.l2 is None

    def test_publish_then_read(self):
        store = SharedBounds()
        store.publish(1, 7)
        assert store.l1 == 7
        assert store.l2 is None
        store.publish(2, -3)
        assert store.l2 == -3

    def test_tightening_and_equal_rewrites_allowed(self):
        store = SharedBounds()
        store.publish(1, 10)
        store.publish(1, 10)
        store.publish(1, 4)
        assert store.l1 == 4

    def test_regression_is_a_hard_error(self):
        store = SharedBounds()
        store.publish(2, 5)
        with pytest.raises(BoundRegression):
            store.publish(2, 6)
        assert store.l2 == 5  # rejected write leaves the cell untouched

    def test_range_guard(self):
        store = SharedBounds()
        with pytest.raises(BioptError):
            store.publish(1, 2**61)
        with pytest.raises(BioptError):
            store.publish(1, -(2**61))
        store.publish(1, 2**61 - 1)
        assert store.l1 == 2**61 - 1

    def test_bad_index(self):
        store = SharedBounds()
        with pytest.raises(ValueError):
            store.read(0)
        with pytest.raises(ValueError):
            store.publish(3, 1)

    def test_non_integer_rejected(self):
        store = SharedBounds()
        with pytest.raises(TypeError):
            store.publish(1, 1.5)


class TestRunStats:
    def test_fields(self):
        stats = RunStats(4, 1, (0.1,), 4)
        assert stats.ip_solves == 5
        assert stats.pareto_size == 4
        assert stats.work == Work(0, 0, 0, 0)

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_work_counters_cover_every_solve(self, name, knapsack):
        # every IP solve runs at least one node, and every node at most one LP
        _, stats = RUNNERS[name](knapsack)
        assert stats.work.nodes >= stats.work.lps >= stats.ip_solves > 0

    def test_counters_sum_the_solves(self, knapsack):
        _, stats = sequential_boip(knapsack, BranchAndBoundBackend())
        # a fresh backend: the sweep's own one holds the incumbents it met,
        # which would shrink the replayed trees
        backend = BranchAndBoundBackend()
        work = Work()
        # the sweep's first cap: every point of the box meets it
        cap = 1 + sum(
            max(c * lo, c * hi)
            for c, (lo, hi) in zip(knapsack.objective(2), knapsack.var_bounds)
        )
        for _ in range(stats.ip_solves):
            extras = (ExtraConstraint(2, cap),)
            res = backend.solve_lex(knapsack, ObjectiveOrder.F1_FIRST, extras)
            work += res.work
            cap = res.solution.outcome.f2 if res.is_optimal else None
        assert stats.work == work
        assert stats.work.pivots > 0

    @pytest.mark.parametrize("name", ["splitting", "meeting"])
    def test_parallel_counters_sum_the_solves(
        self, name, cover, knapsack, three_outcomes, monkeypatch
    ):
        # the workers run one after another in this process, so the
        # backends' records reach this test; for meeting that is the legal
        # schedule in which worker 1 finishes before worker 2 starts
        monkeypatch.setattr(
            biopt.algorithms, "_run_parallel", lambda jobs, here=False: [f(*a) for f, a in jobs]
        )
        for label, problem in sweep_instances(cover, knapsack, three_outcomes).items():
            backends = (_Recording(), _Recording())
            if name == "splitting":
                _, stats = splitting_boip(problem, backends=backends, t=2)
            else:
                _, stats = meeting_boip(problem, backends=backends)
            results = [res for b in backends for res in b.results]
            assert stats.work == sum((res.work for res in results), Work()), label
            assert stats.ip_solves == len(results), label
            optimal = sum(res.is_optimal for res in results)
            assert stats.feasible_solves == optimal, label
            assert stats.infeasible_solves == len(results) - optimal, label


@pytest.fixture
def cold_lps(monkeypatch):
    """Record the costs of every LP solved in this process with no
    ``start``, by spying on the ``solve_lp`` that branch and bound calls."""
    cold: list = []
    real = biopt.ipsolve.solve_lp

    def spy(costs, rows, bounds, *, start=None):
        if start is None:
            cold.append(costs)
        return real(costs, rows, bounds, start=start)

    monkeypatch.setattr(biopt.ipsolve, "solve_lp", spy)
    return cold


def sweep_instances(cover, knapsack, three_outcomes):
    named = {"cover": cover, "knapsack": knapsack, "three": three_outcomes}
    for family, size in (("knapsack", 10), ("assignment", 4)):
        for seed in (1, 2):
            named[f"{family}-{size}-{seed}"] = generate(GeneratorSpec(family, size, seed))
    return named


class TestRootRestart:
    """Each sweep's root LPs restart from the previous solve's root."""

    def test_sequential_sweep_makes_one_cold_lp(
        self, cover, knapsack, three_outcomes, cold_lps
    ):
        # the first solve already carries the cap row, with a slack that
        # every point of the box leaves positive
        for name, problem in sweep_instances(cover, knapsack, three_outcomes).items():
            cold_lps.clear()
            _, stats = sequential_boip(problem)
            assert len(cold_lps) == 1, name
            assert stats.work.lps > 2, name

    def test_each_meeting_worker_makes_one_cold_lp(
        self, cover, knapsack, three_outcomes, cold_lps
    ):
        # each worker sweeps in-process on its own backend; both one-sided
        # interleavings are legal meeting schedules
        for name, problem in sweep_instances(cover, knapsack, three_outcomes).items():
            for first in (1, 2):
                store = SharedBounds()
                for own in (first, 3 - first):
                    cold_lps.clear()
                    _sweep(problem, BranchAndBoundBackend(), own, store=store)
                    assert len(cold_lps) == 1, (name, first, own)

    def test_backends_share_no_root(self, cover, cold_lps):
        first, second = BranchAndBoundBackend(), BranchAndBoundBackend()
        first.solve_lex(cover, ObjectiveOrder.F1_FIRST, [ExtraConstraint(2, 3)])
        assert len(cold_lps) == 1
        first.solve_lex(cover, ObjectiveOrder.F1_FIRST, [ExtraConstraint(2, 2)])
        assert len(cold_lps) == 1  # restarted from its own root
        second.solve_lex(cover, ObjectiveOrder.F1_FIRST, [ExtraConstraint(2, 2)])
        assert len(cold_lps) == 2  # nothing cached for this backend

    def test_ip_solve_counts_unchanged(self, cover, knapsack, three_outcomes):
        # (sequential, splitting) IP solves per instance: restarting the
        # root LP must not change how many solves a sweep makes
        expected = {
            "cover": (5, 6),
            "knapsack": (3, 4),
            "three": (3, 4),
            "knapsack-10-1": (7, 8),
            "knapsack-10-2": (5, 6),
            "assignment-4-1": (5, 6),
            "assignment-4-2": (6, 7),
        }
        for name, problem in sweep_instances(cover, knapsack, three_outcomes).items():
            seq = sequential_boip(problem)[1].ip_solves
            split = splitting_boip(problem)[1].ip_solves
            assert (seq, split) == expected[name], name


class TestDelaySpec:
    def test_frozen_and_picklable(self):
        spec = DelaySpec(seed=3, max_ms=1.0)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_sleeper_runs(self):
        spec = DelaySpec(seed=3, max_ms=0.0)
        nap = spec.sleeper(1)
        nap()
        nap()


class TestSequential:
    def test_cover_front_and_accounting(self, cover):
        front, stats = sequential_boip(cover)
        assert outcomes_of(front) == {
            OutcomeVector(0, 3),
            OutcomeVector(1, 2),
            OutcomeVector(2, 1),
            OutcomeVector(3, 0),
        }
        assert front.outcomes() == (
            OutcomeVector(0, 3),
            OutcomeVector(1, 2),
            OutcomeVector(2, 1),
            OutcomeVector(3, 0),
        )  # found in staircase order
        assert stats.ip_solves == 5
        assert stats.feasible_solves == 4
        assert stats.infeasible_solves == 1
        assert stats.pareto_size == 4
        assert len(stats.worker_elapsed) == 1
        assert stats.worker_elapsed[0] >= 0.0

    def test_infeasible(self):
        front, stats = sequential_boip(infeasible_problem())
        assert len(front) == 0
        assert stats.ip_solves == 1
        assert stats.feasible_solves == 0
        assert stats.infeasible_solves == 1
        assert stats.pareto_size == 0

    def test_knapsack_internal_front(self, knapsack):
        front, stats = sequential_boip(knapsack)
        assert front.outcomes() == (OutcomeVector(-4, -2), OutcomeVector(-1, -4))
        assert stats.ip_solves == 3

    def test_enumeration_backend_agrees(self, cover):
        bnb, _ = sequential_boip(cover, BranchAndBoundBackend())
        enum, _ = sequential_boip(cover, EnumerationBackend())
        assert bnb == enum

    def test_solve_count_is_size_plus_one(self):
        for seed in range(30):
            problem = random_tiny_problem(random.Random(4200 + seed))
            front, stats = sequential_boip(problem)
            assert stats.ip_solves == len(front) + 1
            assert stats.feasible_solves == len(front)


class TestSplitRange:
    # the cover's f1 range is [0, 3]; its endpoint outcomes (0, 3) and
    # (3, 0) are checked by TestSplitting.test_cover_process
    def test_cover_two_workers(self):
        assert _slices(0, 3, 2) == ((0, 1), (2, 3))

    def test_cover_one_worker(self):
        assert _slices(0, 3, 1) == ((0, 3),)

    def test_remainder_goes_to_last(self):
        assert _slices(0, 3, 3) == ((0, 0), (1, 1), (2, 3))

    def test_single_value_range_leaves_first_interval_empty(self):
        intervals = _slices(2, 2, 2)
        assert intervals == ((2, 1), (2, 2))
        lo, hi = intervals[0]
        assert lo > hi  # empty slice marker

    def test_worker_count_validated(self, cover):
        with pytest.raises(ValueError):
            splitting_boip(cover, backends=(), t=0)

    def test_knee_slices_partition_the_range(self):
        for seed in range(40):
            problem = random_tiny_problem(random.Random(6100 + seed))
            outcomes = brute_force_pareto(problem).outcomes()
            if len(outcomes) < 2:
                continue
            west, east = outcomes[0], outcomes[-1]
            for t in (2, 3, 4):
                slices = _knee_slices(problem, west, east, t)
                if east.f1 - west.f1 + 1 < t:
                    assert slices == _slices(west.f1, east.f1, t)
                    continue
                assert slices[0][0] == west.f1 and slices[-1][1] == east.f1
                assert all(lo <= hi for lo, hi in slices)
                assert all(a[1] + 1 == b[0] for a, b in zip(slices, slices[1:]))

    def test_knee_cut_lands_west_of_the_midpoint(self):
        # a gate instance whose front bulges toward the ideal point: the
        # midpoint leaves 10 of its 12 points in the west slice
        problem = generate(GeneratorSpec("knapsack", 24, 1))
        outcomes = sequential_boip(problem)[0].outcomes()
        west, east = outcomes[0], outcomes[-1]
        (_, cut), _ = _knee_slices(problem, west, east, 2)
        (_, mid), _ = _slices(west.f1, east.f1, 2)
        assert sum(o.f1 <= mid for o in outcomes) == 10
        assert 6 <= sum(o.f1 <= cut for o in outcomes) <= 8


class TestSplitting:
    def test_cover_process(self, cover):
        front, stats = splitting_boip(cover, t=2, executor="process")
        assert outcomes_of(front) == {
            OutcomeVector(0, 3),
            OutcomeVector(1, 2),
            OutcomeVector(2, 1),
            OutcomeVector(3, 0),
        }
        assert len(stats.worker_elapsed) == 2
        assert stats.ip_solves == stats.feasible_solves + stats.infeasible_solves

    def test_every_sweep_find_is_on_the_front(self, three_outcomes, monkeypatch):
        # f1 range [1, 12] splits into [1, 6] and [7, 12].  The second
        # slice sweeps west under f1 < 12, where (1, 5) beats (10, 7) on
        # f2, so the dominated outcome is never found.  The slices are
        # independent, so they may run one after another in this process,
        # where the backends' records reach this test.
        monkeypatch.setattr(
            biopt.algorithms, "_run_parallel", lambda jobs, here=False: [f(*a) for f, a in jobs]
        )
        backends = (_Recording(), _Recording())
        front, stats = splitting_boip(three_outcomes, backends=backends, t=2)
        finds = [o for b in backends for o in b.outcomes if o is not None]
        assert len(finds) == 4  # both endpoints, then one find per slice
        assert set(finds) <= {OutcomeVector(1, 5), OutcomeVector(12, 1)}
        assert outcomes_of(front) == {OutcomeVector(1, 5), OutcomeVector(12, 1)}
        assert stats.pareto_size == 2
        # endpoints (2) + one find per slice, each ending below its slice
        assert stats.feasible_solves == 4
        assert stats.infeasible_solves == 0

    def test_infeasible(self):
        front, stats = splitting_boip(infeasible_problem())
        assert len(front) == 0
        assert stats.ip_solves == 1
        assert stats.infeasible_solves == 1
        assert stats.worker_elapsed == ()

    def test_empty_slice_skipped(self):
        point = build_problem(
            num_vars=1,
            objectives=[(1,), (-1,)],
            constraints=[],
            var_bounds=[(2, 2)],
        )
        front, stats = splitting_boip(point, t=2)
        assert outcomes_of(front) == {OutcomeVector(2, -2)}
        assert stats.worker_elapsed[0] == 0.0  # empty slice never ran
        assert stats.worker_elapsed[1] > 0.0

    def test_backend_count_validated(self, cover):
        with pytest.raises(ValueError):
            splitting_boip(cover, backends=(BranchAndBoundBackend(),), t=2)

    def test_unknown_executor(self, cover):
        for executor in ("bogus", "thread"):
            with pytest.raises(ValueError):
                splitting_boip(cover, executor=executor)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(25):
            problem = random_tiny_problem(random.Random(5100 + seed))
            oracle = brute_force_pareto(problem)
            for t in (1, 2, 3, 4):
                backends = tuple(BranchAndBoundBackend() for _ in range(t))
                front, stats = splitting_boip(problem, backends=backends, t=t)
                assert outcomes_of(front) == set(oracle.outcomes())
                assert stats.pareto_size == len(oracle)
                # each slice's closing find repeats a point found elsewhere
                assert stats.ip_solves <= stats.pareto_size + t
                assert stats.infeasible_solves == (0 if len(oracle) else 1)


class TestMeeting:
    def test_cover_process(self, cover):
        front, stats = meeting_boip(cover, executor="process")
        assert front.outcomes() == (
            OutcomeVector(0, 3),
            OutcomeVector(1, 2),
            OutcomeVector(2, 1),
            OutcomeVector(3, 0),
        )
        assert stats.pareto_size == 4
        assert len(stats.worker_elapsed) == 2
        assert stats.infeasible_solves >= 1  # at least one closing probe

    def test_knapsack_with_delays(self, knapsack):
        front, _ = meeting_boip(
            knapsack, delays=DelaySpec(seed=11, max_ms=2.0)
        )
        assert front.outcomes() == (OutcomeVector(-4, -2), OutcomeVector(-1, -4))

    def test_infeasible(self):
        front, stats = meeting_boip(infeasible_problem())
        assert len(front) == 0
        assert stats.feasible_solves == 0
        assert stats.infeasible_solves == 2  # one closing probe per worker

    def test_requires_fresh_store(self, cover):
        used = SharedBounds()
        used.publish(1, 2)
        with pytest.raises(ValueError):
            meeting_boip(cover, bounds=used)

    def test_backend_count_validated(self, cover):
        with pytest.raises(ValueError):
            meeting_boip(cover, backends=(BranchAndBoundBackend(),))

    def test_unknown_executor(self, cover):
        for executor in ("bogus", "thread"):
            with pytest.raises(ValueError):
                meeting_boip(cover, executor=executor)

    def test_matches_oracle_on_random_instances(self):
        for seed in range(25):
            problem = random_tiny_problem(random.Random(6300 + seed))
            oracle = brute_force_pareto(problem)
            front, stats = meeting_boip(problem)
            assert outcomes_of(front) == set(oracle.outcomes())
            assert stats.ip_solves == stats.feasible_solves + stats.infeasible_solves

    def test_one_sided_interleaving_still_covers(self, cover):
        # Worst-case staleness, sequentialized by hand: worker 1 runs to
        # completion before worker 2 reads the store even once.  Worker 2
        # then sees l1 = min f1 and closes immediately with zero finds; the
        # union must still be the whole front.
        backend = BranchAndBoundBackend()
        store = SharedBounds()
        first = _sweep(cover, backend, 1, store=store)
        second = _sweep(cover, backend, 2, store=store)
        assert {s.outcome for s in first.solutions} == {
            OutcomeVector(3, 0),
            OutcomeVector(2, 1),
            OutcomeVector(1, 2),
            OutcomeVector(0, 3),
        }
        assert second.solutions == ()
        assert second.infeasible == 1

    def test_other_one_sided_interleaving(self, cover):
        backend = BranchAndBoundBackend()
        store = SharedBounds()
        second = _sweep(cover, backend, 2, store=store)
        first = _sweep(cover, backend, 1, store=store)
        assert {s.outcome for s in second.solutions} == {
            OutcomeVector(0, 3),
            OutcomeVector(1, 2),
            OutcomeVector(2, 1),
            OutcomeVector(3, 0),
        }
        assert first.solutions == ()

    def test_worker_sweep_directions(self, cover):
        # A fresh store and a lone worker reproduce plain sweeps: worker 1
        # walks f2 ascending (f1 descending), worker 2 the reverse.
        sweep = _sweep(cover, BranchAndBoundBackend(), 1, store=SharedBounds())
        assert [s.outcome.as_tuple() for s in sweep.solutions] == [
            (3, 0),
            (2, 1),
            (1, 2),
            (0, 3),
        ]

    def test_stop_ends_the_sweep_after_the_first_find_below_it(self, cover):
        sweep = _sweep(cover, BranchAndBoundBackend(), 1, stop=2)
        assert [s.outcome.as_tuple() for s in sweep.solutions] == [
            (3, 0),
            (2, 1),
            (1, 2),
        ]
        assert sweep.feasible == 3
        assert sweep.infeasible == 0  # halted with no closing probe


class _Recording(SolverBackend):
    """Branch and bound that records every solve's result, and its outcome
    (None if infeasible)."""

    def __init__(self):
        self.inner = BranchAndBoundBackend()
        self.results = []
        self.outcomes = []

    def solve_lex(self, problem, order, extras=()):
        res = self.inner.solve_lex(problem, order, extras)
        self.results.append(res)
        self.outcomes.append(res.solution.outcome if res.is_optimal else None)
        return res


class _Boom(SolverBackend):
    """Branch and bound in the process that built it; raises in any other,
    such as a forked worker."""

    def __init__(self):
        self.inner = BranchAndBoundBackend()
        self.home = os.getpid()

    def solve_lex(self, problem, order, extras=()):
        if os.getpid() != self.home:
            raise RuntimeError("boom")
        return self.inner.solve_lex(problem, order, extras)


class TestWorkerFailure:
    def test_process_worker_failure_propagates(self, cover):
        with pytest.raises(BioptError, match="boom"):
            meeting_boip(cover, backends=(_Boom(), _Boom()), executor="process")
        assert multiprocessing.active_children() == []

    def test_splitting_worker_failure_propagates(self, cover):
        # the endpoint solves and the west slice run in this process on the
        # second backend; the east slice's forked worker fails
        backends = (_Boom(), BranchAndBoundBackend())
        with pytest.raises(BioptError, match="boom"):
            splitting_boip(cover, backends=backends, t=2)
        assert multiprocessing.active_children() == []


class _SweepNapping(SolverBackend):
    """Branch and bound that sleeps before every capped solve: a sweep naps,
    the endpoint solves do not."""

    def __init__(self, seconds):
        self.inner = BranchAndBoundBackend()
        self.seconds = seconds

    def solve_lex(self, problem, order, extras=()):
        if extras:
            time.sleep(self.seconds)
        return self.inner.solve_lex(problem, order, extras)


class _SweepRaising(SolverBackend):
    """Branch and bound for the endpoint solves; raises ``error`` on the
    first capped solve, as a Ctrl-C or a bug in the sweep would."""

    def __init__(self, error):
        self.inner = BranchAndBoundBackend()
        self.error = error

    def solve_lex(self, problem, order, extras=()):
        if extras:
            raise self.error
        return self.inner.solve_lex(problem, order, extras)


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _fail_at_once():
    raise RuntimeError("early failure")


class TestFailFast:
    def test_first_failure_ends_the_run(self):
        start = time.perf_counter()
        with pytest.raises(BioptError, match="early failure"):
            _run_parallel([(_sleep, (3.0,)), (_fail_at_once, ())])
        assert time.perf_counter() - start < 1.5  # not after the 3 s sleep
        assert multiprocessing.active_children() == []

    def test_results_keep_job_order(self):
        jobs = [(_sleep, (0.2,)), (_sleep, (0.0,))]
        assert _run_parallel(jobs) == [0.2, 0.0]
        assert multiprocessing.active_children() == []

    def test_exit_without_a_result_fails_the_run(self):
        with pytest.raises(BioptError, match="exited without reporting"):
            _run_parallel([(os._exit, (3,)), (_sleep, (0.0,))])
        assert multiprocessing.active_children() == []


class TestSplittingInCaller:
    """Splitting sweeps its west slice in the calling process, on the last
    backend, while the east slice runs on a forked worker."""

    def test_forked_failure_stops_the_callers_sweep(self, cover):
        # the west slice of cover takes two capped solves, 0.5 s each; the
        # caller sees the forked failure at its check before the second
        start = time.perf_counter()
        with pytest.raises(BioptError, match="boom"):
            splitting_boip(cover, backends=(_Boom(), _SweepNapping(0.5)), t=2)
        assert time.perf_counter() - start < 0.8
        assert multiprocessing.active_children() == []

    def test_interrupt_in_the_callers_sweep_leaves_no_child(self, cover):
        backends = (_SweepNapping(5.0), _SweepRaising(KeyboardInterrupt()))
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            splitting_boip(cover, backends=backends, t=2)
        assert time.perf_counter() - start < 2.0
        assert multiprocessing.active_children() == []

    def test_callers_own_error_is_not_wrapped(self, cover):
        backends = (_SweepNapping(5.0), _SweepRaising(RuntimeError("own")))
        with pytest.raises(RuntimeError, match="own") as raised:
            splitting_boip(cover, backends=backends, t=2)
        assert not isinstance(raised.value, BioptError)
        assert multiprocessing.active_children() == []

    def test_last_backend_solves_here(self, cover):
        # the records of a backend reach this test only from this process
        backends = (_Recording(), _Recording())
        splitting_boip(cover, backends=backends, t=2)
        assert backends[0].results == []  # filled in its forked worker only
        assert len(backends[1].results) == 4  # both endpoints, then two finds


class TestTwoSidedCover:
    def test_meet_closes_the_gap(self, cover):
        reference = brute_force_pareto(cover)
        low = [make_solution(cover, (0, 3)), make_solution(cover, (1, 2))]
        high = [make_solution(cover, (3, 0))]
        assert check_two_sided_cover(low, high, OutcomeVector(2, 1), reference)

    def test_missing_meet_fails(self, cover):
        reference = brute_force_pareto(cover)
        low = [make_solution(cover, (0, 3)), make_solution(cover, (1, 2))]
        high = [make_solution(cover, (3, 0))]
        assert not check_two_sided_cover(low, high, None, reference)

    def test_full_sweeps_need_no_meet(self, cover):
        reference = brute_force_pareto(cover)
        low = [make_solution(cover, (0, 3)), make_solution(cover, (1, 2))]
        high = [make_solution(cover, (2, 1)), make_solution(cover, (3, 0))]
        assert check_two_sided_cover(low, high, None, reference)

    def test_empty_front_is_vacuously_covered(self):
        assert check_two_sided_cover([], [], None, ParetoSet(()))

    def test_duplicate_outcomes_collapse(self, cover):
        reference = brute_force_pareto(cover)
        low = [make_solution(cover, (0, 3)), make_solution(cover, (1, 2))]
        high = [
            make_solution(cover, (1, 2)),  # also found by the other sweep
            make_solution(cover, (2, 1)),
            make_solution(cover, (3, 0)),
        ]
        assert check_two_sided_cover(low, high, None, reference)


class TestCrossAlgorithmAgreement:
    def test_all_three_match_the_oracle(self):
        for seed in range(30):
            problem = random_tiny_problem(random.Random(7700 + seed))
            oracle = set(brute_force_pareto(problem).outcomes())
            seq, _ = sequential_boip(problem)
            split, _ = splitting_boip(problem, t=2)
            meet, _ = meeting_boip(problem)
            assert outcomes_of(seq) == oracle
            assert outcomes_of(split) == oracle
            assert outcomes_of(meet) == oracle
