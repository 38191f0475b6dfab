"""Tests for the seeded generators and the instance/result file formats."""

import random
from pathlib import Path

import pytest

from conftest import random_tiny_problem
from biopt.errors import ParseError
from biopt.instances import (
    GeneratorSpec,
    SplitMix64,
    format_instance,
    format_result,
    gen_assignment,
    gen_knapsack,
    generate,
    parse_instance,
    read_instance,
    write_instance,
)
from biopt.model import Relation, Sense, user_outcome
from biopt.oracle import brute_force_pareto

GOLDEN = Path(__file__).parent / "golden"


class TestSplitMix64:
    def test_reference_vector_seed_zero(self):
        # Canonical SplitMix64 outputs for seed 0, cross-checked against the
        # published reference sequence.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_reference_vector_large_seed(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()

    def test_uniform_int_stays_in_range(self):
        rng = SplitMix64(99)
        draws = [rng.uniform_int(1, 100) for _ in range(1000)]
        assert all(1 <= d <= 100 for d in draws)
        assert min(draws) < 10 and max(draws) > 90  # actually spreads out

    def test_uniform_int_single_value(self):
        assert SplitMix64(5).uniform_int(7, 7) == 7

    def test_uniform_int_empty_interval(self):
        with pytest.raises(ValueError):
            SplitMix64(5).uniform_int(3, 2)


class TestGeneratorSpec:
    def test_defaults(self):
        spec = GeneratorSpec("knapsack", 4, 9)
        assert spec.cost_range == (1, 100)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="matching", size=3, seed=1),
            dict(family="assignment", size=0, seed=1),
            dict(family="assignment", size=3, seed=-1),
            dict(family="assignment", size=3, seed=2**64),
            dict(family="assignment", size=3, seed=1, cost_range=(0, 10)),
            dict(family="assignment", size=3, seed=1, cost_range=(5, 4)),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize(
        "cost_range",
        [(1.5, 3), (1, 3.0), (1, 2, 3), (5,), "1:5", [1, 5], (True, 5)],
        ids=["float-lo", "float-hi", "triple", "single", "str", "list", "bool"],
    )
    def test_cost_range_must_be_a_pair_of_ints(self, cost_range):
        # refused when the spec is built, not later inside the generator
        with pytest.raises(ValueError, match="cost_range must be a pair of integers"):
            GeneratorSpec("knapsack", 3, 1, cost_range)

    @pytest.mark.parametrize("field", ["size", "seed"])
    def test_bool_is_not_an_integer(self, field):
        # True == 1 as an int, but a flag is no count and no seed
        kwargs = dict(family="knapsack", size=3, seed=1)
        kwargs[field] = True
        with pytest.raises(ValueError, match=field):
            GeneratorSpec(**kwargs)

    def test_family_mismatch_rejected(self):
        spec = GeneratorSpec("assignment", 2, 1)
        with pytest.raises(ValueError):
            gen_knapsack(spec)
        with pytest.raises(ValueError):
            gen_assignment(GeneratorSpec("knapsack", 2, 1))


class TestGenAssignment:
    def test_structure_n2(self):
        p = gen_assignment(GeneratorSpec("assignment", 2, 1))
        assert p.num_vars == 4
        assert len(p.constraints) == 4
        assert all(r.relation is Relation.EQ and r.rhs == 1 for r in p.constraints)
        assert p.var_bounds == ((0, 1),) * 4
        assert p.sense == (Sense.MIN, Sense.MIN)
        for i in (1, 2):
            assert all(1 <= c <= 100 for c in p.objective(i))

    def test_matching_rows_cover_rows_then_columns(self):
        p = gen_assignment(GeneratorSpec("assignment", 3, 5))
        # first three rows: task i uses variables i*3 .. i*3+2
        for i in range(3):
            coeffs = p.constraints[i].coeffs
            assert [k for k, a in enumerate(coeffs) if a] == [3 * i, 3 * i + 1, 3 * i + 2]
        # next three: agent j appears once per task block
        for j in range(3):
            coeffs = p.constraints[3 + j].coeffs
            assert [k for k, a in enumerate(coeffs) if a] == [j, 3 + j, 6 + j]

    def test_deterministic(self):
        spec = GeneratorSpec("assignment", 4, 123)
        assert gen_assignment(spec) == gen_assignment(spec)
        assert format_instance(gen_assignment(spec)) == format_instance(
            gen_assignment(spec)
        )

    def test_always_feasible(self):
        for n in (1, 2, 3):
            p = gen_assignment(GeneratorSpec("assignment", n, 77))
            assert len(brute_force_pareto(p)) >= 1


class TestGenKnapsack:
    def test_structure(self):
        p = gen_knapsack(GeneratorSpec("knapsack", 5, 3))
        assert p.num_vars == 5
        assert p.sense == (Sense.MAX, Sense.MAX)
        (row,) = p.constraints
        assert row.relation is Relation.LE
        assert row.rhs == sum(row.coeffs) // 2

    def test_single_item_never_fits(self):
        # capacity floor(w/2) < w, so the only feasible set is the empty one
        p = gen_knapsack(GeneratorSpec("knapsack", 1, 7))
        front = brute_force_pareto(p)
        assert len(front) == 1
        (sol,) = front
        assert sol.assignment == (0,)
        assert user_outcome(p, sol.outcome) == (0, 0)

    def test_deterministic(self):
        spec = GeneratorSpec("knapsack", 8, 2024)
        assert gen_knapsack(spec) == gen_knapsack(spec)

    def test_generate_dispatch(self):
        assert generate(GeneratorSpec("knapsack", 3, 42)) == gen_knapsack(
            GeneratorSpec("knapsack", 3, 42)
        )
        assert generate(GeneratorSpec("assignment", 2, 1)) == gen_assignment(
            GeneratorSpec("assignment", 2, 1)
        )


class TestInstanceFormat:
    def test_round_trip_fixtures(self, cover, knapsack, three_outcomes):
        for p in (cover, knapsack, three_outcomes):
            assert parse_instance(format_instance(p)) == p

    def test_round_trip_random(self):
        for seed in range(60):
            p = random_tiny_problem(random.Random(8800 + seed))
            assert parse_instance(format_instance(p)) == p

    def test_max_sense_written_in_user_coefficients(self, knapsack):
        text = format_instance(knapsack)
        assert "SENSE max max" in text
        assert "OBJ1 3 1 4" in text  # user sense, not the internal negation

    def test_comments_and_blank_lines_skipped(self, cover):
        text = format_instance(cover)
        noisy = "# generated for a test\n\n" + text.replace(
            "VARS 2", "# vars follow\nVARS 2"
        )
        assert parse_instance(noisy) == cover

    def test_file_round_trip(self, tmp_path, knapsack):
        target = tmp_path / "k.boip"
        write_instance(knapsack, target)
        assert read_instance(target) == knapsack

    @pytest.mark.parametrize(
        "mangle,needle",
        [
            (lambda t: t.replace("BOIP 1", "BOIP 2"), "header"),
            (lambda t: t.replace("SENSE min min", "SENSE min most"), "sense"),
            (lambda t: t.replace("VARS 2", "VARS x"), "integer"),
            (lambda t: t.replace("OBJ1 1 0", "OBJ1 1"), "OBJ1"),
            (lambda t: t.replace("OBJ2 0 1", "OBJ2 0 one"), "integer"),
            (lambda t: t.replace("B 1 0 3", "B 2 0 3"), "order"),
            (lambda t: t.replace(">= 3", ">> 3"), "relation"),
            (lambda t: t.replace(">= 3", ">= 3.5"), "integer"),
            (lambda t: t + "ROW 1 1 <= 9\n", "trailing"),
            (lambda t: t.replace("CONSTRAINTS 1", "CONSTRAINTS 2"), "end of file"),
        ],
    )
    def test_malformed_files_name_the_line(self, cover, mangle, needle):
        text = mangle(format_instance(cover))
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert needle in str(err.value)

    def test_file_errors_name_the_path_and_line(self, tmp_path, cover):
        target = tmp_path / "bad.boip"
        target.write_text(format_instance(cover).replace("VARS 2", "VARS x"), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_instance(target)
        message = str(err.value)
        assert message.startswith(f"{target}: line 3, column 2: ")
        assert message.count(str(target)) == 1

    def test_non_utf8_file_names_the_path_and_byte(self, tmp_path):
        target = tmp_path / "bad.boip"
        target.write_bytes(b"BOIP 1\n\xff\n")
        with pytest.raises(ParseError) as err:
            read_instance(target)
        assert str(err.value).startswith(f"{target}: byte 7: not UTF-8")

    def test_error_messages_carry_line_numbers(self, cover):
        text = format_instance(cover).replace("OBJ2 0 1", "OBJ2 0 one")
        with pytest.raises(ParseError, match=r"line 5, column 3"):
            parse_instance(text)

    @pytest.mark.parametrize("spelling", ["1_0", "\u0661", "+\u0663", "0x3"])
    def test_only_ascii_decimal_integers(self, cover, spelling):
        # int() reads "1_0" as 10 and Arabic-Indic digits as their values;
        # the format takes an optional sign and ASCII digits only
        text = format_instance(cover).replace("OBJ2 0 1", f"OBJ2 0 {spelling}")
        with pytest.raises(ParseError, match=r"line 5, column 3: .* decimal integer"):
            parse_instance(text)

    def test_signed_integers_still_parse(self, cover):
        text = format_instance(cover).replace("OBJ2 0 1", "OBJ2 -3 +1")
        assert parse_instance(text).user_objective(2) == (-3, 1)


class TestResultFormat:
    def test_user_sense_sorted_by_f1(self, knapsack):
        front = brute_force_pareto(knapsack)
        text = format_result(knapsack, front)
        assert text == "1 4 : 0 1 0\n4 2 : 0 0 1\n"

    def test_min_sense_matches_internal_order(self, cover):
        front = brute_force_pareto(cover)
        text = format_result(cover, front)
        assert text.splitlines() == [
            "0 3 : 0 3",
            "1 2 : 1 2",
            "2 1 : 2 1",
            "3 0 : 3 0",
        ]

    def test_empty_front(self, cover):
        assert format_result(cover, ()) == ""


class TestGoldenSnapshots:
    @pytest.mark.parametrize("family", ["assignment", "knapsack"])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_instances_frozen(self, family, seed):
        spec = GeneratorSpec(family, 3, seed)
        expected = (GOLDEN / f"{family}-n3-s{seed}.boip").read_text(encoding="utf-8")
        assert format_instance(generate(spec)) == expected
        assert parse_instance(expected) == generate(spec)

    @pytest.mark.parametrize("family", ["assignment", "knapsack"])
    @pytest.mark.parametrize("seed", [1, 42])
    def test_oracle_results_frozen(self, family, seed):
        p = generate(GeneratorSpec(family, 3, seed))
        expected = (GOLDEN / f"{family}-n3-s{seed}.result").read_text(encoding="utf-8")
        assert format_result(p, brute_force_pareto(p)) == expected

    def test_assignment_42_front_hand_checked(self):
        # permutation outcomes: (71,233) (86,222) (133,236) (136,174)
        # (163,169) (181,96); only (133,236) is dominated.
        p = generate(GeneratorSpec("assignment", 3, 42))
        front = brute_force_pareto(p)
        assert [o.as_tuple() for o in front.outcomes()] == [
            (71, 233),
            (86, 222),
            (136, 174),
            (163, 169),
            (181, 96),
        ]

    def test_knapsack_42_front_hand_checked(self):
        # weights 14 92 59, capacity 82: only items {1,3} fit together and
        # their profits (128, 32) dominate every other feasible subset.
        p = generate(GeneratorSpec("knapsack", 3, 42))
        (sol,) = brute_force_pareto(p)
        assert sol.assignment == (1, 0, 1)
        assert user_outcome(p, sol.outcome) == (128, 32)
