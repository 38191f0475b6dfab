"""Command-line frontend: generate, solve, verify, benchmark.

Exit codes: 0 success; 1 I/O, parse, or solver runtime failure; 2 usage or
contract violation (including enumeration-budget refusals); 3 success with
an empty Pareto front; 4 verification mismatch.

Result data goes to standard output; diagnostics (the solve stats footer,
error messages) go to standard error, so repeated deterministic runs
produce byte-identical standard output.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from biopt.algorithms import RUNNERS
from biopt.bench import (
    ALGORITHMS,
    THREADS,
    BenchConfig,
    render_summary,
    run_algorithm,
    run_bench,
    summarize,
    write_csv,
)
from biopt.errors import BioptError, BudgetExceeded, ParseError
from biopt.instances import (
    FAMILIES,
    GeneratorSpec,
    format_result,
    generate,
    read_instance,
    write_instance,
)
from biopt.oracle import EnumerationBudget, brute_force_pareto

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_EMPTY_FRONT = 3
EXIT_MISMATCH = 4

_ALG_NAMES = {
    "seq": "sequential",
    "split": "splitting",
    "meet": "meeting",
    "brute": "brute",
}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _runtime_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_RUNTIME


def _parse_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise ValueError("expected lo:hi")
    return int(lo, 10), int(hi, 10)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        cost_range = _parse_range(args.range)
    except ValueError:
        return _usage_error(f"--range must be lo:hi with integers, got {args.range!r}")
    try:
        spec = GeneratorSpec(args.family, args.size, args.seed, cost_range)
    except ValueError as bad:
        return _usage_error(str(bad))
    problem = generate(spec)
    destination = args.output or f"{spec.family}-n{spec.size}-s{spec.seed}.boip"
    try:
        write_instance(problem, destination)
    except OSError as bad:
        return _runtime_error(f"cannot write {destination}: {bad}")
    print(f"{destination} vars={problem.num_vars} constraints={len(problem.constraints)}")
    return EXIT_OK


def _load_instance(path: str) -> tuple[Optional[object], int]:
    try:
        return read_instance(path), EXIT_OK
    except ParseError as bad:
        return None, _runtime_error(f"{path}: {bad}")
    except OSError as bad:
        return None, _runtime_error(str(bad))


def cmd_solve(args: argparse.Namespace) -> int:
    algorithm = _ALG_NAMES[args.alg]
    workers = THREADS[algorithm]
    if args.threads is not None and args.threads != workers:
        if workers == 1:
            return _usage_error(f"--alg {args.alg} runs single-threaded; use --threads 1")
        return _usage_error(f"--alg {args.alg} requires --threads {workers}")

    problem, status = _load_instance(args.file)
    if problem is None:
        return status

    start = time.perf_counter()
    try:
        front, stats = run_algorithm(algorithm, problem)
    except BudgetExceeded as bad:
        return _usage_error(str(bad))
    except BioptError as bad:
        return _runtime_error(str(bad))
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    sys.stdout.write(format_result(problem, front))
    print(
        f"algorithm={algorithm} points={len(front)} "
        f"ip_solves={stats.ip_solves} elapsed_ms={elapsed_ms:.3f} "
        f"nodes={stats.work.nodes} lps={stats.work.lps} "
        f"pivots={stats.work.pivots} flips={stats.work.flips} "
        f"tightened={stats.work.tightened}",
        file=sys.stderr,
    )
    return EXIT_OK if len(front) > 0 else EXIT_EMPTY_FRONT


def cmd_verify(args: argparse.Namespace) -> int:
    problem, status = _load_instance(args.file)
    if problem is None:
        return status
    budget = EnumerationBudget()
    if problem.box_size() > budget.max_points:
        return _usage_error(
            f"instance too large for exhaustive verification: "
            f"{problem.box_size()} lattice points exceed the budget of {budget.max_points}"
        )
    try:
        oracle = brute_force_pareto(problem, budget)
        fronts = {name: run(problem)[0] for name, run in RUNNERS.items()}
    except BioptError as bad:
        return _runtime_error(str(bad))

    reference = set(oracle.outcomes())
    clean = True
    for name, front in fronts.items():
        got = set(front.outcomes())
        if got == reference:
            continue
        clean = False
        missing = sorted(o.as_tuple() for o in reference - got)
        extra = sorted(o.as_tuple() for o in got - reference)
        print(f"{name}: MISMATCH missing={missing} extra={extra}")
    if not clean:
        return EXIT_MISMATCH
    print(f"verified: {len(oracle)} points, all algorithms agree with the oracle")
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        config = BenchConfig(
            families=tuple(args.families),
            sizes=tuple(args.sizes),
            reps=args.reps,
            algorithms=tuple(args.algs),
            time_limit_s=args.time_limit,
        )
    except ValueError as bad:
        return _usage_error(str(bad))
    try:
        records = run_bench(config)
    except BudgetExceeded as bad:
        return _usage_error(str(bad))
    except BioptError as bad:
        return _runtime_error(str(bad))
    try:
        write_csv(records, args.out)
    except OSError as bad:
        return _runtime_error(f"cannot write {args.out}: {bad}")
    sys.stdout.write(render_summary(summarize(records)))
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biopt",
        description="Exact bi-objective integer programming: enumerate Pareto fronts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="generate a seeded benchmark instance")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--size", required=True, type=int)
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--range", default="1:100", help="inclusive cost range lo:hi")
    gen.add_argument("-o", "--output", help="instance file path")
    gen.set_defaults(handler=cmd_gen)

    solve = commands.add_parser("solve", help="enumerate the Pareto front of a file")
    solve.add_argument("--alg", required=True, choices=sorted(_ALG_NAMES))
    solve.add_argument("--threads", type=int, help="1 for seq/brute, 2 for split/meet")
    solve.add_argument("file")
    solve.set_defaults(handler=cmd_solve)

    verify = commands.add_parser(
        "verify", help="cross-check every algorithm against exhaustive enumeration"
    )
    verify.add_argument("file")
    verify.set_defaults(handler=cmd_verify)

    bench = commands.add_parser("bench", help="run the timing harness")
    bench.add_argument("--families", nargs="+", required=True, choices=FAMILIES)
    bench.add_argument("--sizes", nargs="+", required=True, type=int)
    bench.add_argument("--reps", type=int, default=10)
    bench.add_argument(
        "--algs", nargs="+", default=list(ALGORITHMS), choices=ALGORITHMS
    )
    bench.add_argument("--time-limit", type=float, help="per-run time limit in seconds")
    bench.add_argument("--out", default="bench.csv", help="CSV output path")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage, 0 on --help
        return int(exit_.code or 0)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
