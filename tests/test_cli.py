"""End-to-end tests of the command-line frontend and its exit codes."""

import csv
import re
from pathlib import Path

import pytest

from biopt.algorithms import RUNNERS
from biopt.cli import (
    EXIT_EMPTY_FRONT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    main,
)
from biopt.instances import format_instance, parse_instance, read_instance
from biopt.model import (
    LinearConstraint,
    ParetoSet,
    Relation,
    build_problem,
)

GOLDEN = Path(__file__).parent / "golden"

T1_RESULT = "0 3 : 0 3\n1 2 : 1 2\n2 1 : 2 1\n3 0 : 3 0\n"


@pytest.fixture
def cover_file(tmp_path, cover):
    path = tmp_path / "t1.boip"
    path.write_text(format_instance(cover), encoding="utf-8")
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    problem = build_problem(
        num_vars=1,
        objectives=[(1,), (-1,)],
        constraints=[LinearConstraint((1,), Relation.GE, 5)],
        var_bounds=[(0, 3)],
    )
    path = tmp_path / "void.boip"
    path.write_text(format_instance(problem), encoding="utf-8")
    return str(path)


class TestGen:
    def test_writes_parseable_instance(self, tmp_path, capsys):
        target = tmp_path / "k3.boip"
        code = main(["gen", "--family", "knapsack", "--size", "3", "--seed", "42",
                     "-o", str(target)])
        assert code == EXIT_OK
        assert target.exists()
        problem = read_instance(target)
        assert problem.num_vars == 3
        out = capsys.readouterr().out
        assert str(target) in out
        assert "vars=3" in out and "constraints=1" in out

    def test_matches_golden_snapshot(self, tmp_path):
        target = tmp_path / "k3.boip"
        main(["gen", "--family", "knapsack", "--size", "3", "--seed", "42",
              "-o", str(target)])
        golden = (GOLDEN / "knapsack-n3-s42.boip").read_text(encoding="utf-8")
        assert target.read_text(encoding="utf-8") == golden

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["gen", "--family", "assignment", "--size", "2", "--seed", "1"])
        assert code == EXIT_OK
        generated = tmp_path / "assignment-n2-s1.boip"
        assert generated.exists()
        assert parse_instance(generated.read_text(encoding="utf-8")).num_vars == 4

    def test_custom_range(self, tmp_path):
        target = tmp_path / "r.boip"
        code = main(["gen", "--family", "knapsack", "--size", "4", "--seed", "2",
                     "--range", "5:9", "-o", str(target)])
        assert code == EXIT_OK
        problem = read_instance(target)
        assert all(5 <= c <= 9 for c in problem.user_objective(1))

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--family", "knapsack", "--size", "0", "--seed", "1"],
            ["gen", "--family", "knapsack", "--size", "3", "--seed", "-1"],
            ["gen", "--family", "matching", "--size", "3", "--seed", "1"],
            ["gen", "--family", "knapsack", "--size", "3", "--seed", "1",
             "--range", "nine"],
            ["gen", "--family", "knapsack", "--size", "3", "--seed", "1",
             "--range", "9:1"],
        ],
    )
    def test_usage_errors(self, argv, tmp_path):
        assert main(argv + ["-o", str(tmp_path / "x.boip")]) == EXIT_USAGE

    def test_io_failure(self, tmp_path):
        code = main(["gen", "--family", "knapsack", "--size", "3", "--seed", "1",
                     "-o", str(tmp_path / "absent-dir" / "x.boip")])
        assert code == EXIT_RUNTIME


class TestSolve:
    def test_sequential_result_lines(self, cover_file, capsys):
        code = main(["solve", "--alg", "seq", cover_file])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == T1_RESULT
        assert "ip_solves=5" in captured.err
        assert "elapsed_ms=" in captured.err
        footer = (
            r" nodes=(\d+) lps=(\d+) pivots=(\d+) flips=(\d+) tightened=(\d+)\n\Z"
        )
        nodes, lps, pivots, flips, tightened = map(
            int, re.search(footer, captured.err).groups()
        )
        assert nodes >= lps >= 5
        assert pivots > 0 and flips >= 0 and tightened >= 0

    def test_meeting_same_lines(self, cover_file, capsys):
        code = main(["solve", "--alg", "meet", "--threads", "2", cover_file])
        assert code == EXIT_OK
        assert capsys.readouterr().out == T1_RESULT

    def test_splitting_same_lines(self, cover_file, capsys):
        code = main(["solve", "--alg", "split", cover_file])  # threads default 2
        assert code == EXIT_OK
        assert capsys.readouterr().out == T1_RESULT

    def test_brute_same_lines(self, cover_file, capsys):
        code = main(["solve", "--alg", "brute", cover_file])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == T1_RESULT
        assert "ip_solves=0" in captured.err

    def test_max_sense_prints_user_values(self, tmp_path, knapsack, capsys):
        path = tmp_path / "k.boip"
        path.write_text(format_instance(knapsack), encoding="utf-8")
        code = main(["solve", "--alg", "seq", str(path)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "1 4 : 0 1 0\n4 2 : 0 0 1\n"

    def test_threads_contract(self, cover_file):
        assert main(["solve", "--alg", "split", "--threads", "1", cover_file]) == EXIT_USAGE
        assert main(["solve", "--alg", "meet", "--threads", "1", cover_file]) == EXIT_USAGE
        assert main(["solve", "--alg", "seq", "--threads", "2", cover_file]) == EXIT_USAGE

    def test_empty_front_exit_code(self, infeasible_file, capsys):
        code = main(["solve", "--alg", "seq", infeasible_file])
        assert code == EXIT_EMPTY_FRONT
        captured = capsys.readouterr()
        assert captured.out == ""  # empty result still printed (zero lines)
        assert "points=0" in captured.err

    def test_parse_error_names_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.boip"
        bad.write_text("BOIP 2\n", encoding="utf-8")
        code = main(["solve", "--alg", "seq", str(bad)])
        assert code == EXIT_RUNTIME
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--alg", "seq", str(tmp_path / "nope.boip")]) == EXIT_RUNTIME

    def test_node_limit_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BIOPT_NODE_LIMIT", "1")
        golden = GOLDEN / "knapsack-n3-s42.boip"  # fractional LP, needs branching
        code = main(["solve", "--alg", "seq", str(golden)])
        assert code == EXIT_RUNTIME
        assert "node" in capsys.readouterr().err.lower()

    def test_determinism_of_seq_and_brute_output(self, cover_file, capsys):
        outputs = []
        for alg in ("seq", "brute", "seq", "brute"):
            main(["solve", "--alg", alg, cover_file])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[2]
        assert outputs[1] == outputs[3]


class TestVerify:
    def test_all_agree(self, cover_file, capsys):
        code = main(["verify", cover_file])
        assert code == EXIT_OK
        assert "all algorithms agree" in capsys.readouterr().out

    def test_budget_refusal(self, tmp_path, capsys):
        wide = build_problem(
            num_vars=30,
            objectives=[(1,) * 30, (-1,) * 30],
            constraints=[],
            var_bounds=[(0, 1)] * 30,
        )
        path = tmp_path / "wide.boip"
        path.write_text(format_instance(wide), encoding="utf-8")
        code = main(["verify", str(path)])
        assert code == EXIT_USAGE
        assert str(2**30) in capsys.readouterr().err

    def test_corrupted_algorithm_detected(self, cover_file, capsys, monkeypatch):
        def broken(problem):
            return ParetoSet(()), None

        monkeypatch.setitem(RUNNERS, "sequential", broken)
        code = main(["verify", cover_file])
        assert code == EXIT_MISMATCH
        out = capsys.readouterr().out
        assert "sequential: MISMATCH" in out
        assert "missing=" in out

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.boip"
        bad.write_text("not an instance\n", encoding="utf-8")
        assert main(["verify", str(bad)]) == EXIT_RUNTIME


class TestBench:
    def test_csv_cardinality(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--families", "knapsack", "--sizes", "5", "--reps", "2",
            "--algs", "sequential", "brute", "--out", str(out),
        ])
        assert code == EXIT_OK
        with out.open(newline="", encoding="utf-8") as source:
            rows = list(csv.reader(source))
        assert len(rows) == 1 + 4  # header + 2 reps x 2 algorithms
        assert rows[0][0] == "family"

    def test_summary_printed(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--families", "knapsack", "--sizes", "4", "--reps", "1",
            "--algs", "sequential", "--out", str(out),
        ])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "speedup" in stdout
        assert "sequential" in stdout

    def test_unwritable_out(self, tmp_path):
        code = main([
            "bench", "--families", "knapsack", "--sizes", "4", "--reps", "1",
            "--algs", "sequential", "--out", str(tmp_path / "no-dir" / "b.csv"),
        ])
        assert code == EXIT_RUNTIME

    def test_bad_reps(self, tmp_path):
        code = main([
            "bench", "--families", "knapsack", "--sizes", "4", "--reps", "0",
            "--algs", "sequential", "--out", str(tmp_path / "b.csv"),
        ])
        assert code == EXIT_USAGE

    def test_bad_size(self, tmp_path, capsys):
        code = main([
            "bench", "--families", "knapsack", "--sizes", "0", "--reps", "1",
            "--algs", "sequential", "--out", str(tmp_path / "b.csv"),
        ])
        assert code == EXIT_USAGE
        assert "sizes must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_brute_over_budget_is_usage_error(self, tmp_path):
        # knapsack-30 has a box of 2^30 points, past the enumeration budget
        code = main([
            "bench", "--families", "knapsack", "--sizes", "30", "--reps", "1",
            "--algs", "brute", "--out", str(tmp_path / "b.csv"),
        ])
        assert code == EXIT_USAGE


class TestParser:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["solve", "--wat", "x"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK
