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

from biopt.bench import (
    ALGORITHMS,
    SOLVERS,
    BenchConfig,
    render_summary,
    run_bench,
    summarize,
    write_csv,
)
from biopt.errors import BioptError, BudgetExceeded
from biopt.instances import (
    FAMILIES,
    GeneratorSpec,
    format_result,
    generate,
    parse_decimal,
    read_instance,
    write_instance,
)
from biopt.ipsolve import WORK_FIELDS
from biopt.oracle import brute_force_pareto

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_EMPTY_FRONT = 3
EXIT_MISMATCH = 4


def _fail(code: int, reason: object) -> int:
    print(f"error: {reason}", file=sys.stderr)
    return code


def _parse_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition(":")
    if not sep:
        raise ValueError("expected lo:hi")
    return parse_decimal(lo), parse_decimal(hi)


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        cost_range = _parse_range(args.range)
    except ValueError:
        return _fail(EXIT_USAGE, f"--range must be lo:hi with integers, got {args.range!r}")
    try:
        spec = GeneratorSpec(args.family, args.size, args.seed, cost_range)
    except ValueError as bad:
        return _fail(EXIT_USAGE, bad)
    problem = generate(spec)
    destination = args.output or f"{spec.family}-n{spec.size}-s{spec.seed}.boip"
    write_instance(problem, destination)
    print(f"{destination} vars={problem.num_vars} constraints={len(problem.constraints)}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    algorithm, alg = next(
        (name, alg) for name, alg in ALGORITHMS.items() if alg.flag == args.alg
    )
    if args.threads is not None and args.threads != alg.workers:
        if alg.workers == 1:
            return _fail(EXIT_USAGE, f"--alg {args.alg} runs single-threaded; use --threads 1")
        return _fail(EXIT_USAGE, f"--alg {args.alg} requires --threads {alg.workers}")

    problem = read_instance(args.file)
    start = time.perf_counter()
    front, stats = alg.run(problem)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    sys.stdout.write(format_result(problem, front))
    counters = " ".join(f"{name}={getattr(stats.work, name)}" for name in WORK_FIELDS)
    print(
        f"algorithm={algorithm} points={len(front)} "
        f"ip_solves={stats.ip_solves} elapsed_ms={elapsed_ms:.3f} {counters}",
        file=sys.stderr,
    )
    return EXIT_OK if len(front) > 0 else EXIT_EMPTY_FRONT


def cmd_verify(args: argparse.Namespace) -> int:
    problem = read_instance(args.file)
    # the oracle refuses an over-budget box before any algorithm runs
    oracle = brute_force_pareto(problem)
    fronts = {name: ALGORITHMS[name].run(problem)[0] for name in SOLVERS}

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
        )
    except ValueError as bad:
        return _fail(EXIT_USAGE, bad)
    records = run_bench(config)
    write_csv(records, args.out)
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
    gen.add_argument("--size", required=True, type=parse_decimal)
    gen.add_argument("--seed", required=True, type=parse_decimal)
    gen.add_argument("--range", default="1:100", help="inclusive cost range lo:hi")
    gen.add_argument("-o", "--output", help="instance file path")
    gen.set_defaults(handler=cmd_gen)

    solve = commands.add_parser("solve", help="enumerate the Pareto front of a file")
    solve.add_argument(
        "--alg", required=True, choices=sorted(alg.flag for alg in ALGORITHMS.values())
    )
    workers = ", ".join(f"{alg.workers} for {alg.flag}" for alg in ALGORITHMS.values())
    solve.add_argument("--threads", type=parse_decimal, help=f"worker count: {workers}")
    solve.add_argument("file")
    solve.set_defaults(handler=cmd_solve)

    verify = commands.add_parser(
        "verify", help="cross-check every algorithm against exhaustive enumeration"
    )
    verify.add_argument("file")
    verify.set_defaults(handler=cmd_verify)

    bench = commands.add_parser("bench", help="run the timing harness")
    bench.add_argument("--families", nargs="+", required=True, choices=FAMILIES)
    bench.add_argument("--sizes", nargs="+", required=True, type=parse_decimal)
    bench.add_argument("--reps", type=parse_decimal, default=10)
    bench.add_argument(
        "--algs", nargs="+", default=list(SOLVERS), choices=tuple(ALGORITHMS)
    )
    bench.add_argument("--out", default="bench.csv", help="CSV output path")
    bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage, 0 on --help
        return int(exit_.code or 0)
    # a BioptError or OSError comes from the input or the host: one line, no
    # traceback; anything else, ValueError included, is a bug and keeps one
    try:
        return args.handler(args)
    except BudgetExceeded as bad:
        return _fail(EXIT_USAGE, bad)
    except (BioptError, OSError) as bad:
        return _fail(EXIT_RUNTIME, bad)


if __name__ == "__main__":
    sys.exit(main())
