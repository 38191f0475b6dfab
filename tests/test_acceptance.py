"""Release gate: seven checks with pinned tolerances.

Each test prints exactly one PASS/FAIL line (replayed in the terminal
summary).  Criteria 3 and 4 compare wall-clock means of the two-worker
algorithms against the sequential baseline, so both need a second CPU core
free while they are timed; without one the worker timeshares with the
caller and elapsed time cannot drop.  Their lines carry the measured ratios
and the readings of a second-core probe taken before and after the timed
pass (see the "Release gates" section of README.md).
"""

import multiprocessing
import random
import time

import pytest

import conftest
from conftest import delayed, random_tiny_problem
from biopt.algorithms import (
    SharedBounds,
    meeting_boip,
    sequential_boip,
    splitting_boip,
)
from biopt.cli import main
from biopt.errors import BoundRegression
from biopt.instances import GeneratorSpec, format_instance, generate
from biopt.ipsolve import BranchAndBoundBackend, EnumerationBackend
from biopt.model import (
    ObjectiveOrder,
    OutcomeVector,
    ParetoSet,
    Solution,
    pareto_filter,
)
from biopt.oracle import EnumerationBudget, brute_force_pareto

# Pinned tolerances and workloads.
ORACLE_BUDGET = EnumerationBudget(2**26)  # admits 25 binary variables
EQUIVALENCE_TIME_BUDGET_S = 120.0
MEETING_RATIO_BOUND = 0.70
SPLITTING_RATIO_BOUND = 0.90
SPEEDUP_FAMILY, SPEEDUP_SIZE = "knapsack", 24  # sequential mean ~0.03-0.04 s, 2-core host
DELAY_RUNS_PER_INSTANCE = 20
WORK_BOUND_SLACK = 4
WORK_BOUND_QUANTILE = 0.90


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {number} [{name}]: {verdict} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    if not passed:
        pytest.fail(line, pytrace=False)


def _outcomes(front) -> set:
    return set(front.outcomes())


def _schedule_instances():
    """Ten small mixed-family instances used for delay-randomized runs."""
    problems = [generate(GeneratorSpec("knapsack", 6 + k, 300 + k)) for k in range(5)]
    problems += [
        generate(GeneratorSpec("assignment", 2 + k % 2, 400 + k)) for k in range(5)
    ]
    return problems


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    specs = [GeneratorSpec("assignment", 2 + i % 4, 1000 + i) for i in range(50)]
    specs += [GeneratorSpec("knapsack", 4 + i % 13, 2000 + i) for i in range(50)]
    for spec in specs:
        problem = generate(spec)
        reference = _outcomes(brute_force_pareto(problem, ORACLE_BUDGET))
        for label, front in (
            ("sequential", sequential_boip(problem)[0]),
            ("splitting", splitting_boip(problem, t=2)[0]),
            ("meeting", meeting_boip(problem)[0]),
        ):
            got = _outcomes(front)
            if got != reference:
                _report(
                    1,
                    "oracle equivalence",
                    False,
                    f"{label} diverged on {spec.family} size {spec.size} "
                    f"seed {spec.seed}",
                )
    elapsed = time.perf_counter() - start
    within_budget = elapsed < EQUIVALENCE_TIME_BUDGET_S
    _report(
        1,
        "oracle equivalence",
        within_budget,
        f"100 instances x 3 algorithms all exactly match exhaustive "
        f"enumeration in {elapsed:.1f}s (budget {EQUIVALENCE_TIME_BUDGET_S:.0f}s)",
    )


def test_criterion_2_schedule_independence():
    failures = 0
    runs = 0
    for index, problem in enumerate(_schedule_instances()):
        reference = _outcomes(brute_force_pareto(problem))
        for rep in range(DELAY_RUNS_PER_INSTANCE):
            with delayed(seed=index * 1000 + rep):
                front, _ = meeting_boip(problem)
            runs += 1
            if _outcomes(front) != reference:
                failures += 1
    _report(
        2,
        "schedule independence",
        failures == 0,
        f"meeting matched the oracle on {runs - failures}/{runs} "
        f"delay-randomized runs (10 instances x {DELAY_RUNS_PER_INSTANCE} delays)",
    )


def _spin(loops: int) -> None:
    total = 0
    for i in range(loops):
        total += i


def _core_probe(loops: int = 2_000_000) -> float:
    """Wall time of two forked copies of a pure-Python loop, over one alone.

    Reads about 1.0 when a second core is free and about 2.0 when it is not.
    """
    ctx = multiprocessing.get_context("fork")

    def wall(copies: int) -> float:
        procs = [ctx.Process(target=_spin, args=(loops,)) for _ in range(copies)]
        start = time.perf_counter()
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        return time.perf_counter() - start

    alone = wall(1)
    return wall(2) / alone


@pytest.fixture(scope="module")
def timed_ratios():
    """Wall-clock means over ten seeded instances at the calibrated size,
    and under "probes" the second-core probe before and after them."""
    before = _core_probe()
    samples = {"sequential": [], "meeting": [], "splitting": []}
    for seed in range(1, 11):
        problem = generate(GeneratorSpec(SPEEDUP_FAMILY, SPEEDUP_SIZE, seed))
        for name, run in (
            ("sequential", lambda p: sequential_boip(p)),
            ("meeting", lambda p: meeting_boip(p, executor="process")),
            ("splitting", lambda p: splitting_boip(p, t=2, executor="process")),
        ):
            start = time.perf_counter()
            run(problem)
            samples[name].append(time.perf_counter() - start)
    means = {name: sum(times) / len(times) for name, times in samples.items()}
    means["probes"] = (before, _core_probe())
    return means


def _probe_note(timed_ratios) -> str:
    before, after = timed_ratios["probes"]
    return (
        f"; second-core probe {before:.2f} before, {after:.2f} after "
        f"(1.0 free, 2.0 busy)"
    )


def test_criterion_3_meeting_speedup(timed_ratios):
    ratio = timed_ratios["meeting"] / timed_ratios["sequential"]
    _report(
        3,
        "meeting speedup",
        ratio <= MEETING_RATIO_BOUND,
        f"mean elapsed meeting/sequential = {timed_ratios['meeting']:.2f}s / "
        f"{timed_ratios['sequential']:.2f}s = {ratio:.3f} "
        f"(bound {MEETING_RATIO_BOUND}) on 10 {SPEEDUP_FAMILY} "
        f"size-{SPEEDUP_SIZE} instances" + _probe_note(timed_ratios),
    )


def test_criterion_4_splitting_speedup(timed_ratios):
    ratio = timed_ratios["splitting"] / timed_ratios["sequential"]
    _report(
        4,
        "splitting speedup",
        ratio <= SPLITTING_RATIO_BOUND,
        f"mean elapsed splitting/sequential = {timed_ratios['splitting']:.2f}s / "
        f"{timed_ratios['sequential']:.2f}s = {ratio:.3f} "
        f"(bound {SPLITTING_RATIO_BOUND}) on 10 {SPEEDUP_FAMILY} "
        f"size-{SPEEDUP_SIZE} instances" + _probe_note(timed_ratios),
    )


def test_criterion_5_work_accounting():
    # sequential: exactly one subproblem per front point plus the closing
    # infeasible probe, on every oracle-verified instance
    problems = [generate(GeneratorSpec("knapsack", 4 + k, 5000 + k)) for k in range(10)]
    problems += [
        generate(GeneratorSpec("assignment", 2 + k % 3, 5100 + k)) for k in range(6)
    ]
    problems += [random_tiny_problem(random.Random(5200 + k)) for k in range(20)]
    for problem in problems:
        reference = _outcomes(brute_force_pareto(problem))
        front, stats = sequential_boip(problem)
        assert _outcomes(front) == reference
        if stats.ip_solves != len(front) + 1:
            _report(
                5,
                "work accounting",
                False,
                f"sequential used {stats.ip_solves} solves for "
                f"{len(front)} points",
            )

    # meeting: total solves within pareto_size + 4 on at least 90% of
    # delay-randomized runs; overshoots are reported, not hidden
    runs = 0
    overshoots = []
    for index, problem in enumerate(_schedule_instances()):
        size = len(brute_force_pareto(problem))
        for rep in range(10):
            with delayed(seed=9000 + index * 100 + rep):
                _, stats = meeting_boip(problem)
            runs += 1
            if stats.ip_solves > size + WORK_BOUND_SLACK:
                overshoots.append(
                    f"instance {index} rep {rep}: {stats.ip_solves} solves "
                    f"for {size} points"
                )
    share = (runs - len(overshoots)) / runs
    detail = (
        f"sequential solves = front size + 1 on all 36 instances; meeting "
        f"within size+{WORK_BOUND_SLACK} on {share:.0%} of {runs} randomized "
        f"runs (required {WORK_BOUND_QUANTILE:.0%}); overshoots: "
        f"{overshoots if overshoots else 'none'}"
    )
    _report(5, "work accounting", share >= WORK_BOUND_QUANTILE, detail)


def test_criterion_6_property_suites():
    rng = random.Random(616)

    # staircase + idempotence of the dominance filter
    for _ in range(300):
        sols = [
            Solution((0,), OutcomeVector(rng.randint(-30, 30), rng.randint(-30, 30)))
            for _ in range(rng.randint(0, 25))
        ]
        front = pareto_filter(sols)
        outs = front.outcomes()
        for prev, cur in zip(outs, outs[1:]):
            assert prev.f1 < cur.f1 and prev.f2 > cur.f2
        assert tuple(pareto_filter(front)) == tuple(front)
        ParetoSet(tuple(front))  # construction re-validates the staircase

    # shared-bound store accepts exactly the monotone traces
    for _ in range(100):
        store = SharedBounds()
        trace = sorted((rng.randint(-5000, 5000) for _ in range(8)), reverse=True)
        for value in trace:
            store.publish(1, value)
        assert store.read(1) == trace[-1]
        with pytest.raises(BoundRegression):
            store.publish(1, trace[-1] + 1)
        assert store.read(1) == trace[-1]

    # the two bundled backends agree on 200 random tiny instances
    bnb, enum = BranchAndBoundBackend(), EnumerationBackend()
    agreements = 0
    for seed in range(200):
        problem = random_tiny_problem(random.Random(33_000 + seed))
        for order in ObjectiveOrder:
            first = bnb.solve_lex(problem, order)
            second = enum.solve_lex(problem, order)
            assert first.is_optimal == second.is_optimal
            if first.is_optimal:
                assert first.solution.outcome == second.solution.outcome
        agreements += 1
    _report(
        6,
        "property suites",
        True,
        f"staircase + filter idempotence (300 sets), bound-store monotonicity "
        f"(100 traces), backend agreement ({agreements} instances) all exact",
    )


def test_criterion_7_determinism(tmp_path, capsys):
    # generation: identical bytes from identical specs, twice over
    for spec in (
        GeneratorSpec("assignment", 3, 1),
        GeneratorSpec("assignment", 3, 42),
        GeneratorSpec("knapsack", 3, 42),
        GeneratorSpec("knapsack", 8, 7),
    ):
        if format_instance(generate(spec)) != format_instance(generate(spec)):
            _report(7, "determinism", False, f"generation differs for {spec}")
    target = tmp_path / "gen.boip"
    argv = ["gen", "--family", "knapsack", "--size", "5", "--seed", "9",
            "-o", str(target)]
    assert main(argv) == 0
    first_bytes = target.read_bytes()
    first_stdout = capsys.readouterr().out
    assert main(argv) == 0
    same_gen = target.read_bytes() == first_bytes
    same_gen &= capsys.readouterr().out == first_stdout

    # solving: sequential and brute-force output streams repeat exactly
    instance = tmp_path / "det.boip"
    instance.write_text(
        format_instance(generate(GeneratorSpec("knapsack", 10, 3))), encoding="utf-8"
    )
    same_solve = True
    for algorithm in ("seq", "brute"):
        outputs = []
        for _ in range(2):
            assert main(["solve", "--alg", algorithm, str(instance)]) in (0, 3)
            outputs.append(capsys.readouterr().out)
        same_solve &= outputs[0] == outputs[1]
    _report(
        7,
        "determinism",
        same_gen and same_solve,
        "generation and sequential/brute solve outputs byte-identical "
        "across repeated seeded runs",
    )
