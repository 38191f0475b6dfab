"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
They use small instances, so they take seconds, not the minutes a
benchmark run does.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import biopt.simplex  # noqa: E402
from biopt import (  # noqa: E402
    BranchAndBoundBackend,
    GeneratorSpec,
    generate,
    meeting_boip,
    sequential_boip,
    splitting_boip,
)

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from freeze_references import freeze  # noqa: E402
from tracing import END, LEX, LP, NAME, PARENT, PID, PUBLISH, READ, SID, START  # noqa: E402

SMALL = [("knapsack", 12, 5), ("assignment", 4, 7)]
ALGORITHMS = {
    "seq": sequential_boip,
    "meet": lambda p: meeting_boip(p, executor="process"),
    "split": lambda p: splitting_boip(p, t=2, executor="process"),
}


def _traced(spill: Path, algorithm, problem):
    tracer = tracing.Tracer(spill)
    with tracer.install(), tracer.span("algorithms.test"):
        front, stats = algorithm(problem)
    tracer.collect()
    return front, stats, tracer.spans


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("spec", SMALL)
def test_traced_and_untraced_fronts_are_identical(tmp_path, name, spec):
    problem = generate(GeneratorSpec(*spec))
    plain, _ = ALGORITHMS[name](problem)
    front, _, _ = _traced(tmp_path, ALGORITHMS[name], problem)
    assert front.outcomes() == plain.outcomes()
    if name != "meet":  # meeting picks representatives by timing
        assert front.solutions == plain.solutions


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("spec", SMALL)
def test_cross_layer_identities(tmp_path, name, spec):
    problem = generate(GeneratorSpec(*spec))
    _, stats, spans = _traced(tmp_path, ALGORITHMS[name], problem)
    lex = [s for s in spans if s[NAME] == LEX]
    assert len(lex) == stats.ip_solves
    assert sum(1 for s in spans if s[NAME] == LP) == sum(s[tracing.ATTRS][2] for s in lex)
    workers = {s[PID] for s in spans} - {os.getpid()}
    assert len(workers) == (0 if name == "seq" else 2)
    assert not list(tmp_path.iterdir())  # every spill file was collected
    # every worker span descends from the main process's algorithm span
    by_id = {s[SID]: s for s in spans}
    root = next(s for s in spans if s[NAME] == "algorithms.test")
    for s in spans:
        while s[PARENT] is not None:
            s = by_id[s[PARENT]]
        assert s is root


def test_phase1_share_matches_the_simplex(monkeypatch):
    """needs_phase1 predicts whether solve_lp starts with an artificial objective."""
    from biopt import LinearConstraint, Relation

    started = []
    real = biopt.simplex._Tableau.set_objective

    def recorded(tab, costs):
        started.append(costs)
        return real(tab, costs)

    monkeypatch.setattr(biopt.simplex._Tableau, "set_objective", recorded)
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        bounds = []
        for _ in range(n):
            lo = rng.randint(-3, 1)
            bounds.append((lo, lo + rng.randint(0, 3)))
        rows = [LinearConstraint(tuple(rng.randint(-3, 3) for _ in range(n)),
                                 rng.choice(list(Relation)), rng.randint(-6, 6))
                for _ in range(rng.randint(1, 3))]
        started.clear()
        biopt.simplex.solve_lp([rng.randint(-3, 3) for _ in range(n)], rows, bounds)
        phase1 = bool(started) and min(started[0], default=0) >= n
        assert tracing.needs_phase1(rows, bounds) == phase1
        seen.add(phase1)
    assert seen == {True, False}


def _span(sid, pid, name, start, end, attrs=()):
    return ["r", pid, sid, None, name, start, end, list(attrs)]


def test_stale_reads_on_a_synthetic_trace():
    a, b = 1, 2
    spans = [
        # A reads l2 unset, then B publishes l2 = 50 during A's solve: stale
        _span(1, a, READ, 0.0, 1.0, [2, None]),
        _span(2, a, LEX, 1.0, 10.0),
        _span(3, b, PUBLISH, 4.0, 5.0, [2, 50]),
        # A reads 50; B's tighter 40 lands only after A's solve ends: fresh
        _span(4, a, READ, 10.0, 11.0, [2, 50]),
        _span(5, a, LEX, 11.0, 20.0),
        _span(6, b, PUBLISH, 24.0, 25.0, [2, 40]),
        # a publish to the other cell never makes an l2 read stale
        _span(7, a, PUBLISH, 20.0, 20.5, [1, 7]),
        # A reads 50 after 40 was published (a lagging read): stale
        _span(8, a, READ, 26.0, 27.0, [2, 50]),
        _span(9, a, LEX, 27.0, 30.0),
        # A reads 40, then B republishes the same 40: not tighter, fresh
        _span(10, a, READ, 31.0, 32.0, [2, 40]),
        _span(11, b, PUBLISH, 33.0, 34.0, [2, 40]),
        _span(12, a, LEX, 32.0, 40.0),
        # B's read of l1 with no later solve is in use only until it returns
        _span(13, b, READ, 19.0, 19.5, [1, None]),
    ]
    assert tracing.stale_reads(spans) == 2
    # the next run starts from a fresh store: earlier runs' publishes are
    # not newer caps for its reads
    later = [_span(20, a, READ, 50.0, 51.0, [2, None]), _span(21, a, LEX, 51.0, 60.0)]
    for s in later:
        s[tracing.RUN] = "r2"
    assert tracing.stale_reads(spans + later) == 2


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, 1, "p", 0.0, 10.0)
    kids = [_span(i, 2, "c", lo, hi) for i, (lo, hi) in
            enumerate([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], start=2)]
    for kid in kids:
        kid[PARENT] = 1
    assert tracing.self_times([parent, *kids])[1] == pytest.approx(4.0)



def test_host_probe_solves_its_systems():
    """The probe's workload is real arithmetic, not work the interpreter can skip."""
    for seed in range(5):
        rng = random.Random(seed)
        a = [[rng.randint(-40, 40) for _ in range(hostspeed.SIZE + 1)]
             for _ in range(hostspeed.SIZE)]
        x = hostspeed.solve_system(seed)
        assert all(sum(c * xj for c, xj in zip(row, x)) == row[-1] for row in a)
    assert hostspeed.probe() > 0

# ---------------------------------------------------------------------------
# watchdog and failure accounting
# ---------------------------------------------------------------------------

class _Sleeper(BranchAndBoundBackend):
    def solve_lex(self, problem, order, extras=()):
        time.sleep(60)


class _Crasher(BranchAndBoundBackend):
    def solve_lex(self, problem, order, extras=()):
        os._exit(3)


def _instance():
    problem = generate(GeneratorSpec("knapsack", 8, 1))
    return workloads.Instance("k", "", "", problem)


def _ref(problem):
    front, _ = sequential_boip(problem)
    return {"k": tuple(o.as_tuple() for o in front.outcomes())}


@pytest.mark.parametrize("algorithm", [
    lambda p: sequential_boip(p, _Sleeper()),
    lambda p: meeting_boip(p, backends=(_Sleeper(), _Sleeper())),
])
def test_watchdog_kills_a_hung_solve(algorithm):
    inst = _instance()
    solver = run.Solver(_ref(inst.problem), watchdog_s=1.0)
    start = time.perf_counter()
    assert solver.solve(algorithm, inst) is None
    assert time.perf_counter() - start < 10
    assert solver.failures == ["k: killed by the watchdog"]
    assert not multiprocessing.active_children()


def test_crashed_worker_and_wrong_front_are_failures():
    inst = _instance()
    solver = run.Solver({"k": ((0, 0),)})
    assert solver.solve(lambda p: meeting_boip(p, backends=(_Crasher(), _Crasher())), inst) is None
    assert solver.solve(sequential_boip, inst) is None
    assert solver.attempted == 2 and len(solver.failures) == 2
    assert "worker failed" in solver.failures[0]
    assert "differs from reference" in solver.failures[1]


def test_front_error_checks_every_point():
    from biopt import ParetoSet, Solution

    problem = generate(GeneratorSpec("knapsack", 8, 1))
    front, _ = sequential_boip(problem)
    reference = _ref(problem)["k"]
    assert run.front_error(problem, front, reference) is None
    first, *rest = front.solutions
    for assignment, reason in (((1,) * 8, "infeasible"), ((0,) * 8, "does not attain")):
        forged = ParetoSet((Solution(assignment, first.outcome), *rest))
        assert reason in run.front_error(problem, forged, reference)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@pytest.fixture
def small_workloads(tmp_path, monkeypatch):
    """The four workloads on small instance sets with freshly built fronts."""
    sets = {"knapsack": ("knapsack", 12, (5, 6)), "assignment": ("assignment", 4, (7,))}
    for name, w in list(workloads.WORKLOADS.items()):
        small = workloads.Workload(name, sets[w.instance_set[0]], w.algorithm)
        monkeypatch.setitem(workloads.WORKLOADS, name, small)
    refs = tmp_path / "references.json"
    freeze(["knapsack-12-5", "knapsack-12-6", "assignment-4-7"], refs)
    monkeypatch.setattr(workloads, "REFERENCES", refs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_report_names_match_benchmark_json(small_workloads, capsys, workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code = run.main(["--workload", workload, "--seed", "4", "--seconds", "0",
                         "--trace", str(trace)])
        lines = capsys.readouterr().out.splitlines()
        report = json.loads(lines[-1])
        assert code == 0 and report["correct"] and report["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
        printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
        assert printed == set(expected)
        if trace == 1 and workload != "assignment-seq":
            assert report["metrics"]["ipsolve.lex_calls"]["value"] == \
                report["metrics"]["algorithms.ip_solves"]["value"]
            if workload != "knapsack-seq":
                assert report["metrics"]["trace.worker_spans"]["value"] > 0


def test_seed_relabels_rows_and_keeps_the_work(tmp_path):
    """Each seed permutes the rows of the assignment-seq instances differently,
    and every permutation asks the branch and bound for the same nodes."""
    assignment = workloads.WORKLOADS["assignment-seq"]
    by_seed = {s: workloads.make_instances(assignment, s) for s in (1, 2, 3)}
    assert len({tuple(sorted(i.boip for i in insts)) for insts in by_seed.values()}) == 3
    assert [i.boip for i in by_seed[1]] == [i.boip for i in workloads.make_instances(assignment, 1)]

    work = set()
    for instances in by_seed.values():
        nodes = {}
        for inst in instances:
            _, _, spans = _traced(tmp_path, sequential_boip, inst.problem)
            nodes[inst.key] = sum(s[tracing.ATTRS][1] for s in spans if s[NAME] == LEX)
        work.add(tuple(sorted(nodes.items())))
    assert len(work) == 1
