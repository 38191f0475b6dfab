"""Tests for the sequential sweep, range splitting, and the meeting run."""

import multiprocessing
import os
import random
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from conftest import delayed, random_tiny_problem
from biopt.algorithms import (
    RunStats,
    SharedBounds,
    _fork_beside,
    _knee_cut,
    _sweep,
    meeting_boip,
    sequential_boip,
    splitting_boip,
)
import biopt.algorithms
import biopt.ipsolve
from biopt.bench import ALGORITHMS
from biopt.errors import BioptError, BoundRegression
from biopt.instances import GeneratorSpec, generate, read_instance
from biopt.ipsolve import (
    BranchAndBoundBackend,
    EnumerationBackend,
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


GOLDEN = Path(__file__).parent / "golden"


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

    def test_publish_then_read(self):
        store = SharedBounds()
        store.publish(1, 7)
        assert store.read(1) == 7
        assert store.read(2) is None
        store.publish(2, -3)
        assert store.read(2) == -3

    def test_tightening_and_equal_rewrites_allowed(self):
        store = SharedBounds()
        store.publish(1, 10)
        store.publish(1, 10)
        store.publish(1, 4)
        assert store.read(1) == 4

    def test_regression_is_a_hard_error(self):
        store = SharedBounds()
        store.publish(2, 5)
        with pytest.raises(BoundRegression):
            store.publish(2, 6)
        assert store.read(2) == 5  # rejected write leaves the cell untouched

    def test_range_guard(self):
        store = SharedBounds()
        with pytest.raises(BioptError):
            store.publish(1, 2**61)
        with pytest.raises(BioptError):
            store.publish(1, -(2**61))
        store.publish(1, 2**61 - 1)
        assert store.read(1) == 2**61 - 1

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

    def test_writes_cross_a_fork_both_ways(self):
        store = SharedBounds()
        child = multiprocessing.get_context("fork").Process(
            target=_double_l2_into_l1, args=(store,)
        )
        child.start()
        store.publish(2, -4)
        child.join(10)
        assert child.exitcode == 0  # the child read the parent's l2
        assert store.read(1) == -8  # and the parent reads the child's l1

    def test_readers_see_only_published_values_in_order(self):
        # one writer and three readers, more processes than cores; values
        # are multiples of 2**32 + 1, so a read that mixed the halves of two
        # of them would not be one
        store = SharedBounds()
        values = [k * _STRIDE for k in range(2_000, 0, -1)]
        ctx = multiprocessing.get_context("fork")
        readers = [
            ctx.Process(target=_watch_l1, args=(store, values[-1])) for _ in range(3)
        ]
        try:
            for reader in readers:
                reader.start()
            for value in values:
                store.publish(1, value)
            for reader in readers:
                reader.join(20)
            assert [reader.exitcode for reader in readers] == [0, 0, 0]
        finally:
            for reader in readers:
                if reader.is_alive():
                    reader.terminate()
                    reader.join()

    def test_needs_no_ctypes(self):
        code = (
            "import sys\n"
            "from biopt import SharedBounds\n"
            "SharedBounds().publish(1, 3)\n"
            "print('ctypes' in sys.modules)\n"
        )
        src = str(Path(biopt.algorithms.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


_STRIDE = 2**32 + 1


def _watch_l1(store, last):
    """Read l1 until it reads ``last``; fail on a value that no publish
    wrote or that rises."""
    seen = None
    deadline = time.monotonic() + 15.0
    while seen != last:
        value = store.read(1)
        if value is not None:
            assert value % _STRIDE == 0, value
            assert seen is None or value <= seen, (seen, value)
            seen = value
        if time.monotonic() > deadline:
            raise TimeoutError(f"l1 stopped at {seen}")


def _double_l2_into_l1(store):
    """Wait for the other process's l2, then publish twice it as l1."""
    deadline = time.monotonic() + 5.0
    while store.read(2) is None:
        if time.monotonic() > deadline:
            raise TimeoutError("l2 never arrived")
        time.sleep(0.001)
    store.publish(1, 2 * store.read(2))


class TestRunStats:
    def test_fields(self):
        stats = RunStats(4, 1, (0.1,), 4)
        assert stats.ip_solves == 5
        assert stats.pareto_size == 4
        assert stats.work == Work(0, 0, 0, 0)

    @pytest.mark.parametrize("name", sorted(set(ALGORITHMS) - {"brute"}))
    def test_work_counters_cover_every_solve(self, name, knapsack):
        # every IP solve runs at least one node, and every node at most one LP
        _, stats = ALGORITHMS[name].run(knapsack)
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
            res = backend.solve_lex(knapsack, ObjectiveOrder.F1_FIRST, (None, cap))
            work += res.work
            cap = res.solution.outcome.f2 if res.is_optimal else None
        assert stats.work == work
        assert stats.work.pivots > 0

    @pytest.mark.parametrize("name", ["splitting", "meeting"])
    def test_parallel_counters_sum_the_solves(
        self, name, cover, knapsack, three_outcomes, monkeypatch
    ):
        # the workers run one after another in this process, forked job
        # first, so the backends' records reach this test: the legal
        # schedule in which worker 1 finishes before worker 2 starts
        monkeypatch.setattr(
            biopt.algorithms, "_fork_beside", lambda forked, own: (forked(), own())
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

    def test_equal_problem_starts_cold(self, cold_lps):
        # a backend remembers one problem object: handed an equal but
        # distinct one, it sweeps it as a fresh backend does, from one cold
        # root LP and an empty pool
        spec = GeneratorSpec("knapsack", 12, 3)
        backend = BranchAndBoundBackend()
        sequential_boip(generate(spec), backend)
        again = generate(spec)
        cold_lps.clear()
        _, stats = sequential_boip(again, backend)
        assert len(cold_lps) == 1
        assert stats.work == sequential_boip(again)[1].work

    def test_backends_share_no_root(self, cover, cold_lps):
        first, second = BranchAndBoundBackend(), BranchAndBoundBackend()
        first.solve_lex(cover, ObjectiveOrder.F1_FIRST, (None, 3))
        assert len(cold_lps) == 1
        first.solve_lex(cover, ObjectiveOrder.F1_FIRST, (None, 2))
        assert len(cold_lps) == 1  # restarted from its own root
        second.solve_lex(cover, ObjectiveOrder.F1_FIRST, (None, 2))
        assert len(cold_lps) == 2  # nothing cached for this backend

    def test_ip_solve_counts_unchanged(
        self, cover, knapsack, three_outcomes, monkeypatch
    ):
        # (sequential, splitting west slice first, splitting east slice
        # first) IP solves per instance: restarting the root LP must not
        # change how many solves a sweep makes.  Splitting's count depends
        # on the schedule, so it is pinned with the slices run one after the
        # other here; forked, it is one or two more than the front's size.
        expected = {
            "cover": (5, 6, 5),
            "knapsack": (3, 4, 4),
            "three": (3, 4, 4),
            "knapsack-10-1": (7, 8, 7),
            "knapsack-10-2": (5, 6, 6),
            "assignment-4-1": (5, 6, 5),
            "assignment-4-2": (6, 7, 6),
        }
        for name, problem in sweep_instances(cover, knapsack, three_outcomes).items():
            seq = sequential_boip(problem)[1].ip_solves
            forked = splitting_boip(problem)[1].ip_solves
            assert seq <= forked <= seq + 1, name
            counts = [seq]
            for west_first in (True, False):
                with monkeypatch.context() as patch:
                    patch.setattr(biopt.algorithms, "_fork_beside", _serial(west_first))
                    counts.append(splitting_boip(problem)[1].ip_solves)
            assert tuple(counts) == expected[name], name


class TestDelayed:
    def test_each_worker_naps_from_its_own_stream(self, monkeypatch):
        naps = []
        monkeypatch.setattr(time, "sleep", naps.append)
        store = SharedBounds()
        with delayed(seed=3, max_ms=7.0):
            assert store.read(2) is None  # worker 1 reads worker 2's cell
            store.publish(2, 5)  # worker 2
            assert store.read(1) is None  # worker 2
            store.publish(1, 4)  # worker 1
        streams = [random.Random(3 * 1_000_003 + worker) for worker in (1, 2)]
        expected = [
            streams[worker - 1].uniform(0, 7.0) / 1000.0 for worker in (1, 2, 2, 1)
        ]
        assert naps == expected
        assert (store.read(1), store.read(2)) == (4, 5)
        assert naps == expected  # no nap outside the block

    def test_restores_the_store_also_on_error(self):
        originals = (SharedBounds.read, SharedBounds.publish)
        with delayed(seed=3):
            assert (SharedBounds.read, SharedBounds.publish) != originals
        assert (SharedBounds.read, SharedBounds.publish) == originals
        with pytest.raises(RuntimeError):
            with delayed(seed=3):
                raise RuntimeError("inside the block")
        assert (SharedBounds.read, SharedBounds.publish) == originals


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


    @pytest.mark.parametrize(
        "family, size, seeds, expected",
        [
            ("knapsack", 24, range(5, 7), Work(791, 791, 850, 246, 672)),
            ("assignment", 6, range(1, 4), Work(296, 296, 591, 97, 432)),
            ("knapsack", 24, range(1, 11), Work(8305, 8305, 8362, 1711, 6497)),
        ],
    )
    def test_work_is_pinned(self, family, size, seeds, expected):
        # the sequential search is deterministic: a change to branching,
        # pricing or tightening that alters any node shows up here
        work = Work()
        for seed in seeds:
            _, stats = sequential_boip(generate(GeneratorSpec(family, size, seed)))
            work += stats.work
        assert work == expected

    @pytest.mark.parametrize(
        "seed, front, expected",
        [
            (
                1,
                ((177, 458), (184, 437), (186, 361), (195, 345), (222, 254),
                 (276, 239), (304, 214), (358, 199), (421, 193)),
                Work(168, 168, 623, 175, 516),
            ),
            (
                2,
                ((149, 274), (163, 192), (226, 184), (244, 149), (282, 144), (295, 124)),
                Work(189, 189, 546, 107, 664),
            ),
        ],
    )
    def test_assignment_8_is_pinned(self, seed, front, expected):
        # 17 equality rows: the widest tableaus of any pinned run
        found, stats = sequential_boip(generate(GeneratorSpec("assignment", 8, seed)))
        assert tuple(o.as_tuple() for o in found.outcomes()) == front
        assert stats.work == expected


class TestSplitRange:
    def test_cover_two_workers(self, cover):
        # the cover's f1 range is [0, 3], between its endpoint outcomes
        # (0, 3) and (3, 0), which TestSplitting.test_cover_process checks;
        # the cut leaves [0, 1] to the west slice and [2, 3] to the east
        assert _knee_cut(cover, OutcomeVector(0, 3), OutcomeVector(3, 0)) == 1

    def test_worker_count_validated(self, cover):
        for t in (0, 1, 3):
            with pytest.raises(ValueError, match="two workers"):
                splitting_boip(cover, t=t)
        for count in (1, 3):
            backends = tuple(BranchAndBoundBackend() for _ in range(count))
            with pytest.raises(ValueError, match="two backends"):
                splitting_boip(cover, backends=backends)

    def test_knee_slices_partition_the_range(self):
        # both slices [west.f1, cut] and [cut + 1, east.f1] keep a value
        checked = 0
        for seed in range(40):
            problem = random_tiny_problem(random.Random(6100 + seed))
            outcomes = brute_force_pareto(problem).outcomes()
            if len(outcomes) < 2:
                continue
            west, east = outcomes[0], outcomes[-1]
            assert west.f1 <= _knee_cut(problem, west, east) < east.f1, seed
            checked += 1
        assert checked == 10

    def test_knee_cut_lands_west_of_the_midpoint(self):
        # a gate instance whose front bulges toward the ideal point: the
        # midpoint leaves 10 of its 12 points in the west slice
        problem = generate(GeneratorSpec("knapsack", 24, 1))
        outcomes = sequential_boip(problem)[0].outcomes()
        west, east = outcomes[0], outcomes[-1]
        cut = _knee_cut(problem, west, east)
        mid = west.f1 + (east.f1 - west.f1 + 1) // 2 - 1
        assert sum(o.f1 <= mid for o in outcomes) == 10
        assert 6 <= sum(o.f1 <= cut for o in outcomes) <= 8


def _serial(own_first):
    """A ``_fork_beside`` that runs its two jobs one after the other in this
    process, where the backends' records reach the test: ``own`` first
    when ``own_first``.  ``own`` is splitting's west slice and meeting's
    worker 2."""

    def run(forked, own):
        if own_first:
            mine = own()
            return forked(), mine
        return forked(), own()

    return run


def _seam_point(problem, outcomes):
    """The front point of greatest f1 at or below splitting's cut, on a
    front ``outcomes`` of at least two points in staircase order: the one
    point both slices can find."""
    cut = _knee_cut(problem, outcomes[0], outcomes[-1])
    return [o for o in outcomes if o.f1 <= cut][-1]


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
        # f1 range [1, 12] splits into a west and an east slice.  The
        # east slice sweeps west under f1 < 12, where (1, 5) beats
        # (10, 7) on f2, so the dominated outcome is never found.  The
        # slices may run one after another in this process, east first,
        # where the backends' records reach this test.
        monkeypatch.setattr(biopt.algorithms, "_fork_beside", _serial(False))
        backends = (_Recording(), _Recording())
        front, stats = splitting_boip(three_outcomes, backends=backends, t=2)
        finds = [o for b in backends for o in b.outcomes if o is not None]
        assert finds == [OutcomeVector(1, 5), OutcomeVector(12, 1)]  # the endpoints
        assert outcomes_of(front) == {OutcomeVector(1, 5), OutcomeVector(12, 1)}
        assert stats.pareto_size == 2
        # both slices run under f2 < 5, the west endpoint's, and neither
        # holds a front point, so each ends on an infeasible solve
        assert stats.feasible_solves == 2
        assert stats.infeasible_solves == 2

    @pytest.mark.parametrize("west_first", [True, False])
    def test_east_slice_closes_infeasible_in_both_orders(
        self, three_outcomes, monkeypatch, west_first
    ):
        # the west slice holds no front point but the west endpoint, so it
        # has no find to pass east; the east slice still starts under the
        # west endpoint's f2 and proves its slice empty at once
        monkeypatch.setattr(biopt.algorithms, "_fork_beside", _serial(west_first))
        east, west = _Recording(), _Recording()
        splitting_boip(three_outcomes, backends=(east, west))
        assert east.outcomes == [None]
        assert west.outcomes == [OutcomeVector(1, 5), OutcomeVector(12, 1), None]

    @pytest.mark.parametrize("west_first", [True, False])
    def test_closing_solve_in_both_orders(self, cover, monkeypatch, west_first):
        # the slices run one after another in this process.  Run after the
        # west slice, the east slice reads the f2 of the west slice's last
        # find, the seam point, and closes on an infeasible solve.  Run
        # before it, the east slice ends on finding the seam point itself,
        # and the west slice, reading its f1, closes short of it.
        monkeypatch.setattr(biopt.algorithms, "_fork_beside", _serial(west_first))
        # instances whose west slice holds front points besides the west
        # endpoint, so that the seam point is a find of a slice
        instances = {
            "cover": cover,
            **{f"knapsack-10-{seed}": generate(GeneratorSpec("knapsack", 10, seed))
               for seed in (1, 4, 6)},
        }
        for name, problem in instances.items():
            east, west = _Recording(), _Recording()  # west solves the endpoints
            front, stats = splitting_boip(problem, backends=(east, west), t=2)
            outcomes = brute_force_pareto(problem).outcomes()
            assert front.outcomes() == outcomes, name
            seam = _seam_point(problem, outcomes)
            assert seam != outcomes[0], name
            assert west.outcomes[-1] is None, name
            if west_first:
                assert west.outcomes[-2] == seam, name
                assert east.outcomes[-1] is None, name
            else:
                assert east.outcomes[-1] == seam, name
                assert seam not in west.outcomes, name
            assert stats.feasible_solves == stats.pareto_size, name  # no repeat
            assert stats.infeasible_solves == (2 if west_first else 1), name

    @pytest.mark.parametrize(
        ("west_first", "expected"),
        [(True, Work(655, 655, 672, 196, 769)), (False, Work(791, 791, 821, 214, 1021))],
        ids=["west-first", "east-first"],
    )
    def test_work_is_pinned(self, monkeypatch, west_first, expected):
        # run serially in either order on one store, splitting is
        # deterministic: a change to the endpoints, the cut, the caps or
        # the bound exchange that alters any node shows up here
        monkeypatch.setattr(biopt.algorithms, "_fork_beside", _serial(west_first))
        work = Work()
        for seed in range(5, 7):
            _, stats = splitting_boip(generate(GeneratorSpec("knapsack", 24, seed)))
            work += stats.work
        assert work == expected

    def test_each_sweep_publishes_its_own_cap(self, cover, monkeypatch):
        # in both parallel algorithms a sweep publishes its own cap after
        # every find, and only that: worker 1, splitting's east slice, f1,
        # and worker 2, splitting's west slice, f2.  The west endpoint's f2
        # is a fixed cap of both slices, not a store value.  Run serially,
        # each run writes the cells of its sweeps in the order they ran
        published = []
        publish = SharedBounds.publish

        def spy(store, index, value):
            published.append(index)
            publish(store, index, value)

        monkeypatch.setattr(SharedBounds, "publish", spy)
        instances = {
            "cover": cover,
            **{f"knapsack-10-{seed}": generate(GeneratorSpec("knapsack", 10, seed))
               for seed in (1, 4)},
        }
        for west_first in (True, False):
            monkeypatch.setattr(biopt.algorithms, "_fork_beside", _serial(west_first))
            order = (2, 1) if west_first else (1, 2)
            for name, problem in instances.items():
                published.clear()
                east, west = _Recording(), _Recording()
                splitting_boip(problem, backends=(east, west))
                finds = {
                    1: sum(res.is_optimal for res in east.results),
                    2: sum(res.is_optimal for res in west.results[2:]),  # endpoints
                }
                expected = [cell for cell in order for _ in range(finds[cell])]
                assert published == expected, (name, west_first)
            # a meeting run's first sweep finds the whole front, and the
            # second closes at once
            published.clear()
            front, _ = meeting_boip(cover)
            assert published == [order[0]] * len(front), west_first

    @pytest.mark.parametrize("west_first", [True, False])
    def test_one_store_per_run(self, cover, three_outcomes, monkeypatch, west_first):
        # a run with a slice makes one store, and each slice reads the
        # other's cell before each of its solves: the east slice cell 2,
        # the west slice cell 1.  A run of the endpoint solves alone makes
        # none.
        made, reads = [], []
        init, read = SharedBounds.__init__, SharedBounds.read

        def spy_init(store):
            made.append(store)
            init(store)

        def spy_read(store, index):
            reads.append(index)
            return read(store, index)

        monkeypatch.setattr(SharedBounds, "__init__", spy_init)
        monkeypatch.setattr(SharedBounds, "read", spy_read)
        monkeypatch.setattr(biopt.algorithms, "_fork_beside", _serial(west_first))
        instances = {
            "cover": cover,
            "three": three_outcomes,
            **{f"knapsack-10-{seed}": generate(GeneratorSpec("knapsack", 10, seed))
               for seed in (1, 4)},
        }
        for name, problem in instances.items():
            made.clear()
            reads.clear()
            east, west = _Recording(), _Recording()
            splitting_boip(problem, backends=(east, west))
            assert len(made) == 1, name
            east_reads = [2] * len(east.results)
            west_reads = [1] * (len(west.results) - 2)  # not for the endpoints
            if west_first:
                assert reads == west_reads + east_reads, name
            else:
                assert reads == east_reads + west_reads, name
        made.clear()
        point = build_problem(
            num_vars=1, objectives=[(1,), (-1,)], constraints=[], var_bounds=[(2, 2)]
        )
        front, _ = splitting_boip(point)
        assert len(front) == 1
        front, _ = splitting_boip(infeasible_problem())
        assert len(front) == 0
        assert made == []

    def test_infeasible(self):
        front, stats = splitting_boip(infeasible_problem())
        assert len(front) == 0
        assert stats.ip_solves == 1
        assert stats.infeasible_solves == 1
        assert stats.worker_elapsed == ()

    def test_empty_slice_skipped(self):
        # a front of one point leaves nothing between the endpoints to
        # slice: the two endpoint solves are the whole run
        point = build_problem(
            num_vars=1,
            objectives=[(1,), (-1,)],
            constraints=[],
            var_bounds=[(2, 2)],
        )
        front, stats = splitting_boip(point, t=2)
        assert outcomes_of(front) == {OutcomeVector(2, -2)}
        assert stats.ip_solves == stats.feasible_solves == 2
        assert stats.worker_elapsed == ()

    def test_backend_count_validated(self, cover):
        with pytest.raises(ValueError):
            splitting_boip(cover, backends=(BranchAndBoundBackend(),), t=2)

    def test_unknown_executor(self, cover):
        for executor in ("bogus", "thread"):
            with pytest.raises(ValueError):
                splitting_boip(cover, executor=executor)

    def test_matches_oracle_on_random_instances(self, monkeypatch):
        # each run under real forks, then with the slices one after the
        # other in both orders
        for seed in range(25):
            problem = random_tiny_problem(random.Random(5100 + seed))
            oracle = brute_force_pareto(problem)
            outcomes = oracle.outcomes()
            for order in ("fork", "west first", "east first"):
                with monkeypatch.context() as patch:
                    if order != "fork":
                        serial = _serial(order == "west first")
                        patch.setattr(biopt.algorithms, "_fork_beside", serial)
                    front, stats = splitting_boip(problem, t=2)
                label = (seed, order)
                assert front.outcomes() == outcomes, label
                assert stats.pareto_size == len(oracle), label
                if len(oracle) < 2:
                    # the infeasible west solve, or both endpoint solves
                    assert stats.ip_solves == stats.pareto_size + 1, label
                    assert stats.infeasible_solves == 1 - len(oracle), label
                    continue
                # the west slice ends infeasible.  The east slice ends on
                # finding the seam point, or infeasible when the west slice
                # found that point first or it is the west endpoint.  So a
                # run makes one closing solve only when the east slice finds
                # the seam point and the west slice reads its f1 in time;
                # otherwise it makes two, or finds the seam point twice.
                extra = stats.ip_solves - stats.pareto_size
                west_has_a_find = _seam_point(problem, outcomes) != outcomes[0]
                if order == "fork":
                    assert 1 <= extra <= 2, label
                    assert 1 <= stats.infeasible_solves <= 2, label
                elif order == "east first" and west_has_a_find:
                    assert extra == stats.infeasible_solves == 1, label
                else:
                    assert extra == stats.infeasible_solves == 2, label

    def test_matches_oracle_under_delays(self, cover, knapsack, three_outcomes):
        # seeded naps before every store read and publish reorder the two
        # slices' exchanges, each slice napping from its own stream
        problems = sweep_instances(cover, knapsack, three_outcomes)
        for seed in range(4):
            problems[f"tiny-{seed}"] = random_tiny_problem(random.Random(5150 + seed))
        for name, problem in problems.items():
            outcomes = brute_force_pareto(problem).outcomes()
            for seed in range(4):
                with delayed(seed, max_ms=2.0):
                    front, stats = splitting_boip(problem)
                label = (name, seed)
                assert front.outcomes() == outcomes, label
                assert stats.pareto_size + 1 <= stats.ip_solves, label
                assert stats.ip_solves <= stats.pareto_size + 2, label


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
        with delayed(seed=11, max_ms=2.0):
            front, _ = meeting_boip(knapsack)
        assert front.outcomes() == (OutcomeVector(-4, -2), OutcomeVector(-1, -4))

    def test_infeasible(self):
        front, stats = meeting_boip(infeasible_problem())
        assert len(front) == 0
        assert stats.feasible_solves == 0
        assert stats.infeasible_solves == 2  # one closing probe per worker

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

    @pytest.mark.parametrize(
        ("worker_2_first", "expected"),
        [(True, Work(803, 803, 858, 264, 714)), (False, Work(889, 889, 912, 261, 842))],
        ids=["worker-2-first", "worker-1-first"],
    )
    def test_work_is_pinned(self, monkeypatch, worker_2_first, expected):
        # run serially in either order on one store, meeting is
        # deterministic: a change to the caps, the bound exchange or either
        # backend's memory that alters any node shows up here
        monkeypatch.setattr(biopt.algorithms, "_fork_beside", _serial(worker_2_first))
        work = Work()
        for seed in range(5, 7):
            _, stats = meeting_boip(generate(GeneratorSpec("knapsack", 24, seed)))
            work += stats.work
        assert work == expected

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
        assert sweep.infeasible == 0  # halted with no closing probe


class _Recording(SolverBackend):
    """Branch and bound that records every solve's result, and its outcome
    (None if infeasible)."""

    def __init__(self):
        self.inner = BranchAndBoundBackend()
        self.results = []
        self.outcomes = []

    def solve_lex(self, problem, order, caps=(None, None)):
        res = self.inner.solve_lex(problem, order, caps)
        self.results.append(res)
        self.outcomes.append(res.solution.outcome if res.is_optimal else None)
        return res


class _ExtrasBackend(BranchAndBoundBackend):
    """Branch and bound behind the override that perfbench's test backends
    keep, which names the caps ``extras`` and defaults them to ``()``."""

    def solve_lex(self, problem, order, extras=()):
        return super().solve_lex(problem, order, extras)


class _Boom(SolverBackend):
    """Branch and bound in the process that built it; raises in any other,
    such as a forked worker."""

    def __init__(self):
        self.inner = BranchAndBoundBackend()
        self.home = os.getpid()

    def solve_lex(self, problem, order, caps=(None, None)):
        if os.getpid() != self.home:
            raise RuntimeError("boom")
        return self.inner.solve_lex(problem, order, caps)


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

    def test_node_limit_in_the_forked_worker(self, monkeypatch):
        # enumeration, worker 2's backend here, counts no branch-and-bound
        # nodes, so only worker 1's forked branch and bound, which inherits
        # the patched constant, can trip the limit.  Its first solve
        # branches whether or not worker 2's f2 cap has arrived.
        monkeypatch.setattr(biopt.ipsolve, "NODE_LIMIT", 1)
        problem = read_instance(GOLDEN / "knapsack-n3-s42.boip")
        backends = (BranchAndBoundBackend(), EnumerationBackend())
        with pytest.raises(BioptError, match="node limit of 1 exceeded"):
            meeting_boip(problem, backends=backends)
        assert multiprocessing.active_children() == []


class _SweepNapping(SolverBackend):
    """Branch and bound that sleeps before every capped solve: a sweep naps,
    the endpoint solves do not."""

    def __init__(self, seconds):
        self.inner = BranchAndBoundBackend()
        self.seconds = seconds

    def solve_lex(self, problem, order, caps=(None, None)):
        if caps != (None, None):
            time.sleep(self.seconds)
        return self.inner.solve_lex(problem, order, caps)


class _SweepRaising(SolverBackend):
    """Branch and bound for the endpoint solves; raises ``error`` on the
    first capped solve, as a Ctrl-C or a bug in the sweep would."""

    def __init__(self, error):
        self.inner = BranchAndBoundBackend()
        self.error = error

    def solve_lex(self, problem, order, caps=(None, None)):
        if caps != (None, None):
            raise self.error
        return self.inner.solve_lex(problem, order, caps)


def _sleep(seconds, check=None):
    """Sleep ``seconds`` in short naps, calling ``check`` before each."""
    end = time.perf_counter() + seconds
    while (left := end - time.perf_counter()) > 0:
        if check is not None:
            check()
        time.sleep(min(left, 0.05))
    return seconds


def _fail_at_once(check=None):
    raise RuntimeError("early failure")


def _unpicklable(check=None):
    return lambda: None


class TestFailFast:
    """``_fork_beside`` runs its first job on a forked worker and its second
    here, with a ``check`` that polls the worker."""

    def test_first_failure_ends_the_run(self):
        start = time.perf_counter()
        with pytest.raises(BioptError, match="early failure"):
            _fork_beside(_fail_at_once, partial(_sleep, 3.0))
        assert time.perf_counter() - start < 1.5  # not after the 3 s sleep
        assert multiprocessing.active_children() == []

    def test_own_failure_ends_the_run(self):
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="early failure") as raised:
            _fork_beside(partial(_sleep, 3.0), _fail_at_once)
        assert not isinstance(raised.value, BioptError)
        assert time.perf_counter() - start < 1.5  # the worker is terminated
        assert multiprocessing.active_children() == []

    def test_results_keep_job_order(self):
        assert _fork_beside(partial(_sleep, 0.2), partial(_sleep, 0.0)) == (0.2, 0.0)
        assert multiprocessing.active_children() == []

    def test_exit_without_a_result_fails_the_run(self):
        # seen after this process's job returns, or at one of its checks
        for seconds in (0.0, 3.0):
            start = time.perf_counter()
            with pytest.raises(BioptError, match="exited without reporting"):
                _fork_beside(partial(os._exit, 3), partial(_sleep, seconds))
            assert time.perf_counter() - start < 1.5, seconds
            assert multiprocessing.active_children() == []

    def test_unpicklable_result_fails_the_run(self):
        # the worker's send fails, and it reports the pickling error instead
        with pytest.raises(BioptError, match="Can't pickle local object"):
            _fork_beside(_unpicklable, partial(_sleep, 0.0))
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
        # both endpoints and the infeasible closing solve, after the find
        # (1, 2) unless the east slice's f1 cap kept the west slice off it
        assert len(backends[1].results) in (3, 4)
        assert backends[1].outcomes[-1] is None


def _unshared(forked, own):
    """A ``_fork_beside`` that runs meeting's two sweeps one after the other
    in this process, each on a store of its own: the legal schedule in which
    every read of either sweep comes before the other's first publish, so
    both sweep the whole front."""
    return forked(store=SharedBounds()), own(store=SharedBounds())


class TestMeetingInCaller:
    """Meeting sweeps worker 2 in the calling process, on the second
    backend, while worker 1 runs on a forked worker."""

    def test_forked_failure_stops_the_callers_sweep(self, cover):
        # worker 2 alone takes five capped solves of cover, 0.5 s each; the
        # caller sees the forked failure at its check before the second
        start = time.perf_counter()
        with pytest.raises(BioptError, match="boom"):
            meeting_boip(cover, backends=(_Boom(), _SweepNapping(0.5)))
        assert time.perf_counter() - start < 0.8
        assert multiprocessing.active_children() == []

    def test_interrupt_in_the_callers_sweep_leaves_no_child(self, cover):
        backends = (_SweepNapping(5.0), _SweepRaising(KeyboardInterrupt()))
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            meeting_boip(cover, backends=backends)
        assert time.perf_counter() - start < 2.0
        assert multiprocessing.active_children() == []

    def test_callers_own_error_is_not_wrapped(self, cover):
        backends = (_SweepNapping(5.0), _SweepRaising(RuntimeError("own")))
        with pytest.raises(RuntimeError, match="own") as raised:
            meeting_boip(cover, backends=backends)
        assert not isinstance(raised.value, BioptError)
        assert multiprocessing.active_children() == []

    def test_second_backend_solves_here(self, cover):
        # the records of a backend reach this test only from this process;
        # each sweep makes at least one solve
        backends = (_Recording(), _Recording())
        _, stats = meeting_boip(cover, backends=backends)
        assert backends[0].results == []  # filled in its forked worker only
        assert 0 < len(backends[1].results) < stats.ip_solves
        assert multiprocessing.active_children() == []

    def test_worker_2_representative_is_kept(self, cover, monkeypatch):
        monkeypatch.setattr(biopt.algorithms, "_fork_beside", _unshared)
        backends = (_Recording(), _Recording())
        front, _ = meeting_boip(cover, backends=backends)
        first, second = (
            [res.solution for res in b.results if res.is_optimal] for b in backends
        )
        assert tuple(s.outcome for s in reversed(first)) == front.outcomes()
        assert tuple(s.outcome for s in second) == front.outcomes()
        assert all(kept is found for kept, found in zip(front.solutions, second))
        assert not any(kept is found for kept in front.solutions for found in first)


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

    def test_backend_that_names_the_caps_otherwise(self, cover, three_outcomes):
        # every solve gets its caps positionally, so an override that names
        # and defaults its third parameter as perfbench's test backends do
        # still receives them
        for problem in (cover, three_outcomes, generate(GeneratorSpec("knapsack", 10, 1))):
            oracle = brute_force_pareto(problem).outcomes()
            pair = (_ExtrasBackend(), _ExtrasBackend())
            for front, _ in (
                sequential_boip(problem, _ExtrasBackend()),
                splitting_boip(problem, backends=pair),
                meeting_boip(problem, backends=pair),
            ):
                assert front.outcomes() == oracle

    def test_objective_values_beyond_the_store_range(self):
        # f1 or f2 values of about 2**62 cannot be shared through
        # SharedBounds; the parallel runs go without those caps
        big = 2**62
        for objectives in (
            [(big, 1, 2), (-1, -big, -3)],
            [(3, 1, 2), (-1, -big, -2 * big)],
            [(-big, 1, -2), (1, big, 3)],
        ):
            problem = build_problem(
                num_vars=3,
                objectives=objectives,
                constraints=[LinearConstraint((1, 1, 1), Relation.LE, 2)],
                var_bounds=[(0, 1)] * 3,
            )
            seq, _ = sequential_boip(problem)
            assert outcomes_of(seq) == set(brute_force_pareto(problem).outcomes())
            split, _ = splitting_boip(problem, t=2)
            assert split.outcomes() == seq.outcomes(), objectives
            meet, _ = meeting_boip(problem)
            assert meet.outcomes() == seq.outcomes(), objectives
