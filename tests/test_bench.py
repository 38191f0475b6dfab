"""Tests for the benchmark harness: records, CSV schema, summaries."""

import csv
import statistics
from dataclasses import replace

import pytest

from biopt.bench import (
    ALGORITHMS,
    BenchConfig,
    BenchRecord,
    CSV_COLUMNS,
    SOLVERS,
    render_summary,
    run_bench,
    summarize,
    write_csv,
)
from biopt.errors import BioptError
from biopt.model import ParetoSet, Solution


def tiny_config(**overrides):
    base = dict(
        families=("knapsack",),
        sizes=(5,),
        reps=2,
        algorithms=tuple(ALGORITHMS),
    )
    base.update(overrides)
    return BenchConfig(**base)


class TestBenchConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(reps=0),
            dict(families=()),
            dict(sizes=()),
            dict(families=("matching",)),
            dict(algorithms=("simplex",)),
            dict(algorithms=()),
            # a float reps used to fail inside run_bench, and True to run as 1
            dict(reps=2.5),
            dict(reps=True),
            dict(sizes=(2.5,)),
            dict(sizes=(True,)),
            # a repeat used to time its cells twice and merge them in the summary
            dict(families=("knapsack", "assignment", "knapsack")),
            dict(sizes=(5, 6, 5)),
            dict(algorithms=("sequential", "sequential")),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    def test_defaults(self):
        config = BenchConfig(families=("knapsack",), sizes=(4,))
        assert config.reps == 10
        assert config.algorithms == ("sequential", "splitting", "meeting")
        assert config.algorithms == SOLVERS


class TestBenchRecord:
    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            BenchRecord("knapsack", 4, 1, "sequential", 1, -1.0, 5, 4)


class TestRunBench:
    def test_grid_cardinality_all_verified(self):
        records = run_bench(tiny_config(sizes=(12,), reps=2))
        assert len(records) == 8  # 1 family x 1 size x 2 seeds x 4 algorithms
        assert all(rec.verified is True for rec in records)
        assert {rec.seed for rec in records} == {1, 2}
        assert {rec.algorithm for rec in records} == set(ALGORITHMS)

    def test_single_cell_single_record(self):
        records = run_bench(tiny_config(reps=1, algorithms=("sequential",)))
        assert len(records) == 1
        (rec,) = records
        assert (rec.family, rec.size, rec.seed) == ("knapsack", 5, 1)
        assert rec.threads == 1
        assert rec.elapsed_ms >= 0.0

    def test_threads_column(self):
        records = run_bench(tiny_config(reps=1))
        threads = {rec.algorithm: rec.threads for rec in records}
        assert threads == {"sequential": 1, "brute": 1, "splitting": 2, "meeting": 2}

    def test_sequential_work_accounting(self):
        records = run_bench(tiny_config(reps=3, algorithms=("sequential",)))
        for rec in records:
            assert rec.ip_solves == rec.pareto_size + 1

    def test_oracle_skipped_when_too_large(self):
        # knapsack-24's box of 2^24 points exceeds the oracle's 10^7 budget
        records = run_bench(
            tiny_config(sizes=(24,), reps=1, algorithms=("sequential",))
        )
        assert records[0].verified is None

    def test_oracle_check_compares_outcomes(self, monkeypatch):
        # another representative of each outcome still agrees with the oracle
        def relabelled(problem):
            front, stats = sequential(problem)
            return ParetoSet(
                Solution(tuple(reversed(s.assignment)), s.outcome) for s in front
            ), stats

        sequential = ALGORITHMS["sequential"].run
        monkeypatch.setitem(
            ALGORITHMS, "sequential", replace(ALGORITHMS["sequential"], run=relabelled)
        )
        records = run_bench(tiny_config(reps=2, algorithms=("sequential",)))
        assert all(rec.verified is True for rec in records)

    def test_mismatch_aborts_loudly(self, monkeypatch):
        def corrupted(problem):
            return ParetoSet(()), 0  # drop every point

        meeting = replace(ALGORITHMS["meeting"], run=corrupted)
        monkeypatch.setitem(ALGORITHMS, "meeting", meeting)
        with pytest.raises(BioptError, match="disagrees"):
            run_bench(tiny_config(reps=1, algorithms=("sequential", "meeting")))


class TestCsv:
    def test_schema_and_values(self, tmp_path):
        records = run_bench(tiny_config(reps=2, algorithms=("sequential", "meeting")))
        target = tmp_path / "bench.csv"
        write_csv(records, target)
        with target.open(newline="", encoding="utf-8") as source:
            rows = list(csv.reader(source))
        assert rows[0] == list(CSV_COLUMNS)
        assert CSV_COLUMNS[-6:] == (
            "nodes", "lps", "pivots", "flips", "tightened", "verified"
        )
        assert len(rows) == 1 + len(records)
        for row, rec in zip(rows[1:], records):
            cell = dict(zip(CSV_COLUMNS, row))
            assert cell["family"] == "knapsack"
            assert cell["algorithm"] in ("sequential", "meeting")
            assert float(cell["elapsed_ms"]) >= 0.0
            assert cell["verified"] == "true"
            work = rec.work
            assert (int(cell["nodes"]), int(cell["lps"])) == (work.nodes, work.lps)
            assert (int(cell["pivots"]), int(cell["flips"])) == (work.pivots, work.flips)
            assert int(cell["tightened"]) == work.tightened
            assert work.nodes >= work.lps >= rec.ip_solves > 0
            assert work.pivots > 0

    def test_brute_writes_zero_counters(self, tmp_path):
        records = run_bench(tiny_config(reps=1, algorithms=("brute",)))
        target = tmp_path / "bench.csv"
        write_csv(records, target)
        with target.open(newline="", encoding="utf-8") as source:
            (row,) = list(csv.DictReader(source))
        counters = ("ip_solves", "nodes", "lps", "pivots", "flips", "tightened")
        assert [row[name] for name in counters] == ["0"] * 6

    def test_unverified_cell_is_empty(self, tmp_path):
        records = run_bench(
            tiny_config(sizes=(24,), reps=1, algorithms=("sequential",))
        )
        target = tmp_path / "bench.csv"
        write_csv(records, target)
        last = target.read_text(encoding="utf-8").strip().splitlines()[-1]
        assert last.endswith(",")

    def test_speedup_recomputable_from_csv(self, tmp_path):
        records = run_bench(tiny_config(reps=3, algorithms=("sequential", "meeting")))
        target = tmp_path / "bench.csv"
        write_csv(records, target)
        with target.open(newline="", encoding="utf-8") as source:
            rows = list(csv.DictReader(source))
        means = {}
        for alg in ("sequential", "meeting"):
            means[alg] = statistics.fmean(
                float(r["elapsed_ms"]) for r in rows if r["algorithm"] == alg
            )
        summary = {row.algorithm: row for row in summarize(records)}
        recomputed = means["sequential"] / means["meeting"]
        assert summary["meeting"].speedup == recomputed  # exact, by construction


class TestSummarize:
    def test_mean_of_two_runs(self):
        records = [
            BenchRecord("knapsack", 4, 1, "sequential", 1, 10.0, 5, 4),
            BenchRecord("knapsack", 4, 2, "sequential", 1, 20.0, 5, 4),
        ]
        (row,) = summarize(records)
        assert row.mean_elapsed_ms == pytest.approx(15.0)
        assert row.stdev_elapsed_ms == pytest.approx(5.0)
        assert row.runs == 2
        assert row.speedup == pytest.approx(1.0)

    def test_speedup_ratio(self):
        records = [
            BenchRecord("knapsack", 4, 1, "sequential", 1, 100.0, 5, 4),
            BenchRecord("knapsack", 4, 1, "meeting", 2, 50.0, 7, 4),
        ]
        rows = {row.algorithm: row for row in summarize(records)}
        assert rows["meeting"].speedup == pytest.approx(2.0)

    def test_no_sequential_baseline(self):
        records = [BenchRecord("knapsack", 4, 1, "meeting", 2, 50.0, 7, 4)]
        (row,) = summarize(records)
        assert row.speedup is None

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestRenderSummary:
    def test_renders_aligned_table(self):
        records = [
            BenchRecord("knapsack", 4, 1, "sequential", 1, 100.0, 5, 4),
            BenchRecord("knapsack", 4, 1, "meeting", 2, 50.0, 7, 4),
        ]
        text = render_summary(summarize(records))
        lines = text.splitlines()
        assert lines[0].startswith("family")
        assert "speedup" in lines[0]
        assert any("2.00" in line for line in lines[1:])

    def test_columns_align_to_the_widest_cell(self):
        records = [
            BenchRecord("assignment", 12, 1, "sequential", 1, 12345.0, 5, 4),
            BenchRecord("assignment", 12, 1, "meeting", 2, 50.0, 7, 4),
        ]
        header, *body = render_summary(summarize(records)).splitlines()
        assert header == (
            "family      size  algorithm   runs  mean_ms   stdev_ms  mean_solves  speedup"
        )
        assert body == [
            "assignment  12    meeting     1     50.00     0.00      7.0          246.90",
            "assignment  12    sequential  1     12345.00  0.00      5.0          1.00",
        ]

    def test_missing_speedup_renders_dash(self):
        records = [BenchRecord("knapsack", 4, 1, "meeting", 2, 50.0, 7, 4)]
        text = render_summary(summarize(records))
        assert "-" in text.splitlines()[1].split()
