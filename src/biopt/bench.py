"""Timed benchmark harness: seeded instances, wall-clock timing, CSV, summary.

The protocol: for every (family, size) cell, run seeds 1..reps through each
configured algorithm, timing wall-clock elapsed around the algorithm call
only (instance generation, oracle cross-checks, and I/O are outside the
timed region).  One untimed warm-up run per cell, of the first configured
algorithm on seed 1, precedes the timed reps so first-touch effects don't
pollute short runs.  Cells run strictly one at a time — parallelism exists
only inside the splitting/meeting runs themselves.

When an instance's variable box is within the oracle's default budget
(``oracle.DEFAULT_MAX_POINTS``, 10^7 points), every algorithm result is
cross-checked against the brute-force oracle; a mismatch aborts the whole
benchmark loudly rather than recording a questionable number.

CSV schema (header mandatory, one row per run)::

    family,size,seed,algorithm,threads,elapsed_ms,ip_solves,pareto_size,nodes,lps,pivots,flips,tightened,verified

``nodes`` to ``tightened`` are the fields of the run's ``RunStats.work``
(``ipsolve.WORK_FIELDS``): its branch-and-bound nodes and LP solves, the
simplex pivots and bound flips of those LPs, and the column bounds that
reduced-cost tightening moved; ``brute`` writes 0 for them and for
``ip_solves``.  ``verified`` is ``true`` when the oracle
cross-check ran (a mismatch never reaches the file), empty when the
instance was too large to check.

``ALGORITHMS`` is the one table of the algorithms: each name's
``biopt solve --alg`` spelling, worker count and run, for this harness and
the CLI alike.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from biopt.algorithms import RunStats, meeting_boip, sequential_boip, splitting_boip
from biopt.errors import BioptError, BudgetExceeded
from biopt.instances import FAMILIES, GeneratorSpec, generate
from biopt.ipsolve import WORK_FIELDS, Work
from biopt.model import ParetoSet, Problem
from biopt.oracle import brute_force_pareto


@dataclass(frozen=True)
class Algorithm:
    """One enumeration algorithm: its ``--alg`` spelling, its worker count,
    and its run, called as ``run(problem)``."""

    flag: str
    workers: int
    run: Callable[[Problem], tuple[ParetoSet, RunStats]]


def _brute(problem: Problem) -> tuple[ParetoSet, RunStats]:
    """The oracle's front, and all-zero work: it makes no IP solves."""
    front = brute_force_pareto(problem)
    return front, RunStats(0, 0, (), len(front))


# every algorithm by name; "brute" is the oracle the others are checked against
ALGORITHMS: dict[str, Algorithm] = {
    "sequential": Algorithm("seq", 1, sequential_boip),
    "splitting": Algorithm("split", 2, splitting_boip),
    "meeting": Algorithm("meet", 2, meeting_boip),
    "brute": Algorithm("brute", 1, _brute),
}

# every algorithm but the oracle, which refuses boxes over its budget: what
# the bench times by default and what `biopt verify` checks
SOLVERS: tuple[str, ...] = tuple(name for name in ALGORITHMS if name != "brute")


@dataclass(frozen=True)
class BenchConfig:
    """What to benchmark and how."""

    families: tuple[str, ...]
    sizes: tuple[int, ...]
    reps: int = 10
    algorithms: tuple[str, ...] = SOLVERS

    def __post_init__(self) -> None:
        # type(v) is int: a bool is an int too, but no count
        if type(self.reps) is not int or self.reps < 1:
            raise ValueError(f"reps must be an integer of at least 1, got {self.reps!r}")
        if not self.families or not self.sizes:
            raise ValueError("need at least one family and one size")
        if any(type(size) is not int for size in self.sizes):
            raise ValueError(f"sizes must be integers, got {self.sizes!r}")
        if min(self.sizes) < 1:
            raise ValueError("sizes must be at least 1")
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r}")
        # a repeat would time its cells twice and merge them in the summary
        for name in ("families", "sizes", "algorithms"):
            given = getattr(self, name)
            if len(set(given)) != len(given):
                raise ValueError(f"{name} must not repeat an entry, got {given!r}")


@dataclass(frozen=True)
class BenchRecord:
    """One timed run."""

    family: str
    size: int
    seed: int
    algorithm: str
    threads: int
    elapsed_ms: float
    ip_solves: int
    pareto_size: int
    verified: Optional[bool] = None
    work: Work = Work()

    def __post_init__(self) -> None:
        if self.elapsed_ms < 0:
            raise ValueError("elapsed time cannot be negative")


def run_bench(config: BenchConfig) -> list[BenchRecord]:
    """Execute the whole benchmark grid; abort loudly on any oracle mismatch."""
    records: list[BenchRecord] = []
    for family in config.families:
        for size in config.sizes:
            problem = generate(GeneratorSpec(family, size, 1))
            ALGORITHMS[config.algorithms[0]].run(problem)  # untimed warm-up
            for seed in range(1, config.reps + 1):
                problem = generate(GeneratorSpec(family, size, seed))
                try:
                    oracle: Optional[ParetoSet] = brute_force_pareto(problem)
                except BudgetExceeded:
                    oracle = None  # too large to cross-check
                for algorithm in config.algorithms:
                    start = time.perf_counter()
                    front, stats = ALGORITHMS[algorithm].run(problem)
                    # round to the CSV's precision here so summaries computed
                    # from records and from the emitted file agree exactly
                    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
                    verified: Optional[bool] = None
                    if oracle is not None:
                        if front != oracle:
                            raise BioptError(
                                f"{algorithm} disagrees with the oracle on "
                                f"{family} size {size} seed {seed}"
                            )
                        verified = True
                    records.append(
                        BenchRecord(
                            family=family,
                            size=size,
                            seed=seed,
                            algorithm=algorithm,
                            threads=ALGORITHMS[algorithm].workers,
                            elapsed_ms=elapsed_ms,
                            ip_solves=stats.ip_solves,
                            pareto_size=len(front),
                            verified=verified,
                            work=stats.work,
                        )
                    )
    return records


CSV_COLUMNS = (
    "family",
    "size",
    "seed",
    "algorithm",
    "threads",
    "elapsed_ms",
    "ip_solves",
    "pareto_size",
    *WORK_FIELDS,
    "verified",
)


def write_csv(records: Sequence[BenchRecord], destination) -> None:
    with Path(destination).open("w", newline="", encoding="utf-8") as sink:
        writer = csv.writer(sink)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            cells = {**vars(rec), **vars(rec.work)}
            cells["elapsed_ms"] = f"{rec.elapsed_ms:.3f}"
            cells["verified"] = "" if rec.verified is None else str(rec.verified).lower()
            writer.writerow(cells[name] for name in CSV_COLUMNS)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over the reps of one (family, size, algorithm) cell."""

    family: str
    size: int
    algorithm: str
    runs: int
    mean_elapsed_ms: float
    stdev_elapsed_ms: float
    mean_ip_solves: float
    speedup: Optional[float] = None  # mean(sequential) / mean(this), if known


def summarize(records: Sequence[BenchRecord]) -> list[SummaryRow]:
    """Aggregate records per cell; speedups are against the sequential mean."""
    if not records:
        raise ValueError("nothing to summarize")
    cells: dict[tuple[str, int, str], list[BenchRecord]] = {}
    for rec in records:
        cells.setdefault((rec.family, rec.size, rec.algorithm), []).append(rec)
    seq_means = {
        (family, size): statistics.fmean(r.elapsed_ms for r in recs)
        for (family, size, algorithm), recs in cells.items()
        if algorithm == "sequential"
    }
    rows = []
    for (family, size, algorithm), recs in sorted(cells.items()):
        mean = statistics.fmean(r.elapsed_ms for r in recs)
        baseline = seq_means.get((family, size))
        speedup = None
        if baseline is not None and mean > 0:
            speedup = baseline / mean
        rows.append(
            SummaryRow(
                family=family,
                size=size,
                algorithm=algorithm,
                runs=len(recs),
                mean_elapsed_ms=mean,
                stdev_elapsed_ms=statistics.pstdev(r.elapsed_ms for r in recs),
                mean_ip_solves=statistics.fmean(r.ip_solves for r in recs),
                speedup=speedup,
            )
        )
    return rows


# each summary column: its heading and its cell
SUMMARY_COLUMNS: tuple[tuple[str, Callable[[SummaryRow], str]], ...] = (
    ("family", lambda row: row.family),
    ("size", lambda row: str(row.size)),
    ("algorithm", lambda row: row.algorithm),
    ("runs", lambda row: str(row.runs)),
    ("mean_ms", lambda row: f"{row.mean_elapsed_ms:.2f}"),
    ("stdev_ms", lambda row: f"{row.stdev_elapsed_ms:.2f}"),
    ("mean_solves", lambda row: f"{row.mean_ip_solves:.1f}"),
    ("speedup", lambda row: "-" if row.speedup is None else f"{row.speedup:.2f}"),
)


def render_summary(rows: Sequence[SummaryRow]) -> str:
    """Aligned text table of the summary rows."""
    lines = [[heading for heading, _ in SUMMARY_COLUMNS]]
    lines += [[cell(row) for _, cell in SUMMARY_COLUMNS] for row in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() + "\n"
        for line in lines
    )
