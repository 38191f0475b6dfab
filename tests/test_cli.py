"""End-to-end tests of the command-line frontend and its exit codes."""

import csv
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import biopt
import biopt.ipsolve
from biopt.bench import ALGORITHMS
from biopt.cli import (
    EXIT_EMPTY_FRONT,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _parse_range,
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
def wide_file(tmp_path):
    """30 free binaries: a box of 2^30 points, past the enumeration budget."""
    wide = build_problem(
        num_vars=30,
        objectives=[(1,) * 30, (-1,) * 30],
        constraints=[],
        var_bounds=[(0, 1)] * 30,
    )
    path = tmp_path / "wide.boip"
    path.write_text(format_instance(wide), encoding="utf-8")
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
            ["gen", "--family", "knapsack", "--size", "3", "--seed", "1",
             "--range", "1_0:20"],
            ["gen", "--family", "knapsack", "--size", "3", "--seed", "1",
             "--range", "\u0661:9"],
        ],
    )
    def test_usage_errors(self, argv, tmp_path):
        assert main(argv + ["-o", str(tmp_path / "x.boip")]) == EXIT_USAGE

    def test_range_takes_signed_ascii_decimals(self):
        # the bounds are checked by GeneratorSpec; parsing only reads them
        assert _parse_range("-3:+5") == (-3, 5)
        for raw in ("1_0:20", "\u0661:9", "1: 9", "1:9:10", "0x1:9"):
            with pytest.raises(ValueError):
                _parse_range(raw)

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

    def test_alg_choices_are_the_table_flags(self, cover_file, capsys):
        assert main(["solve", "--alg", "bogus", cover_file]) == EXIT_USAGE
        choices = re.search(r"choose from (.*)\)", capsys.readouterr().err).group(1)
        assert re.findall(r"\w+", choices) == sorted(a.flag for a in ALGORITHMS.values())

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_threads_contract_from_the_table(self, name, cover_file, capsys):
        flag, workers = ALGORITHMS[name].flag, ALGORITHMS[name].workers
        argv = ["solve", "--alg", flag, "--threads"]
        assert main(argv + [str(workers), cover_file]) == EXIT_OK
        assert capsys.readouterr().out == T1_RESULT
        for threads in {0, 1, 2, 3} - {workers}:
            assert main(argv + [str(threads), cover_file]) == EXIT_USAGE

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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: line 1: ")
        assert captured.err.count(str(bad)) == 1  # read_instance names it

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--alg", "seq", str(tmp_path / "nope.boip")]) == EXIT_RUNTIME

    @pytest.mark.parametrize("alg", ["seq", "split", "meet"])
    def test_node_limit_failure(self, alg, monkeypatch, capsys):
        # split trips the limit in this process's endpoint solves; meet in
        # its own sweep here or in its forked worker, which inherits the
        # patched constant, whichever branches first.
        # tests/test_algorithms.py trips it in the forked worker alone.
        monkeypatch.setattr(biopt.ipsolve, "NODE_LIMIT", 1)
        golden = GOLDEN / "knapsack-n3-s42.boip"  # fractional LP, needs branching
        code = main(["solve", "--alg", alg, str(golden)])
        assert code == EXIT_RUNTIME
        assert "node" in capsys.readouterr().err.lower()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "family, size, seed", [("knapsack", 24, 5), ("knapsack", 24, 6), ("assignment", 6, 2)]
    )
    def test_seq_stdout_matches_golden(self, family, size, seed, tmp_path, capsys):
        # the benchmark's instances, byte for byte; only seq (and brute) are
        # deterministic down to the representative of each outcome, since a
        # parallel run may keep another one at the seam between its workers
        path = tmp_path / "instance.boip"
        argv = ["gen", "--family", family, "--size", str(size), "--seed", str(seed)]
        assert main([*argv, "-o", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["solve", "--alg", "seq", str(path)]) == EXIT_OK
        golden = GOLDEN / f"{family}-n{size}-s{seed}.result"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

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

    def test_budget_refusal(self, wide_file, capsys):
        code = main(["verify", wide_file])
        assert code == EXIT_USAGE
        assert str(2**30) in capsys.readouterr().err

    def test_corrupted_algorithm_detected(self, cover_file, capsys, monkeypatch):
        def broken(problem):
            return ParetoSet(()), None

        sequential = replace(ALGORITHMS["sequential"], run=broken)
        monkeypatch.setitem(ALGORITHMS, "sequential", sequential)
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

    def test_repeated_size_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main([
            "bench", "--families", "knapsack", "--sizes", "8", "8", "--reps", "1",
            "--algs", "sequential", "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "sizes must not repeat" in capsys.readouterr().err
        assert not out.exists()

    def test_brute_over_budget_is_usage_error(self, tmp_path):
        # knapsack-30 has a box of 2^30 points, past the enumeration budget
        code = main([
            "bench", "--families", "knapsack", "--sizes", "30", "--reps", "1",
            "--algs", "brute", "--out", str(tmp_path / "b.csv"),
        ])
        assert code == EXIT_USAGE

    def test_default_algs_past_the_oracle_budget(self, tmp_path):
        # knapsack-24 has a box of 2^24 points: the default leaves out brute
        out = tmp_path / "b.csv"
        code = main([
            "bench", "--families", "knapsack", "--sizes", "24", "--reps", "1",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        with out.open(newline="", encoding="utf-8") as source:
            rows = list(csv.reader(source))
        assert len(rows) == 1 + 3  # header + 1 rep x 3 algorithms
        assert [row[3] for row in rows[1:]] == ["sequential", "splitting", "meeting"]


class TestIntegerFlags:
    """Every integer flag reads the instance files' integers: an optional
    sign, then ASCII digits (``instances.parse_decimal``)."""

    @staticmethod
    def argv(flag, value, cover_file, out):
        commands = {
            "gen": ["gen", "--family", "knapsack", "--size", "3", "--seed", "1",
                    "-o", out],
            "solve": ["solve", "--alg", "split", "--threads", "2", cover_file],
            "bench": ["bench", "--families", "knapsack", "--sizes", "4", "--reps", "1",
                      "--algs", "sequential", "--out", out],
        }
        argv = next(argv for argv in commands.values() if flag in argv)
        argv[argv.index(flag) + 1] = value
        return argv

    @pytest.mark.parametrize("flag", ["--size", "--seed", "--threads", "--sizes", "--reps"])
    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    def test_other_spellings_refused(self, flag, value, cover_file, tmp_path, capsys):
        # int() reads "1_0" as 10 and the Arabic-Indic one as 1
        out = tmp_path / "out"
        assert main(self.argv(flag, value, cover_file, str(out))) == EXIT_USAGE
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err and repr(value) in captured.err

    @pytest.mark.parametrize("flag, value", [("--seed", "7"), ("--sizes", "4"),
                                             ("--threads", "2")])
    def test_decimals_parse(self, flag, value, cover_file, tmp_path):
        out = tmp_path / "out"
        assert main(self.argv(flag, value, cover_file, str(out))) == EXIT_OK
        assert out.exists() or flag == "--threads"


def run_module(*argv, cwd):
    """``python -m biopt`` in a child process, with this package on its path."""
    src = str(Path(biopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "biopt", *argv],
        capture_output=True, text=True, cwd=cwd, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestModuleEntryPoint:
    def test_solved_front_exits_zero(self, cover_file, tmp_path):
        done = run_module("solve", "--alg", "seq", cover_file, cwd=tmp_path)
        assert done.returncode == EXIT_OK
        assert done.stdout == T1_RESULT
        assert done.stderr.startswith("algorithm=sequential points=4 ")

    def test_empty_front_exits_three(self, infeasible_file, tmp_path):
        done = run_module("solve", "--alg", "seq", infeasible_file, cwd=tmp_path)
        assert done.returncode == EXIT_EMPTY_FRONT
        assert done.stdout == ""
        assert "points=0" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize(
        "command, code",
        [("missing", EXIT_RUNTIME), ("not_utf8", EXIT_RUNTIME), ("over_budget", EXIT_USAGE)],
    )
    def test_failure_prints_one_error_line(self, command, code, wide_file, tmp_path):
        not_utf8 = tmp_path / "latin.boip"
        not_utf8.write_bytes(b"BOIP 1\n\xff\n")
        argv = {
            "missing": ("solve", "--alg", "seq", str(tmp_path / "nope.boip")),
            "not_utf8": ("solve", "--alg", "seq", str(not_utf8)),
            "over_budget": ("verify", wide_file),
        }[command]
        done = run_module(*argv, cwd=tmp_path)
        assert done.returncode == code
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ")


class TestParser:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["solve", "--wat", "x"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK
