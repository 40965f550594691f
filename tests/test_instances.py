"""Instance document parsing, exact text forms, and the seeded generator."""

from fractions import Fraction

import pytest

from kinclust import (
    GeneratorConfig,
    InstanceError,
    Trajectory,
    dumps_instance,
    generate_instance,
    parse_instance,
    scalar_decimal,
    scalar_literal,
)


class TestParse:
    def test_two_verticals(self):
        S = parse_instance('{"trajectories":[{"x0":"0","x1":"0"},{"x0":"1","x1":"1"}]}')
        assert len(S) == 2
        assert S[0] == Trajectory("0", "0")
        assert S[1] == Trajectory("1", "1")

    def test_decimal_strings_are_exact(self):
        S = parse_instance('{"trajectories":[{"x0":"-2.4142135624","x1":"1"}]}')
        assert S[0].x0 == Fraction(-24142135624, 10**10)

    def test_fraction_strings(self):
        S = parse_instance('{"trajectories":[{"x0":"1/3","x1":"-2/7"}]}')
        assert S[0].x0 == Fraction(1, 3) and S[0].x1 == Fraction(-2, 7)

    def test_bytes_accepted(self):
        S = parse_instance(b'{"trajectories":[{"x0":"1","x1":"2"}]}')
        assert S[0] == Trajectory(1, 2)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("not json", "line 1"),
            ("[]", "top-level"),
            ('{"trajectories": []}', "nonempty"),
            ('{"trajectories": "x"}', "nonempty"),
            ('{"trajectories":[{"x0":"0"}]}', "trajectories[0].x1: missing"),
            ('{"trajectories":[{"x0":"0","x1":1.5}]}', "trajectories[0].x1"),
            ('{"trajectories":[{"x0":"0","x1":"abc"}]}', "trajectories[0].x1"),
            ('{"trajectories":[{"x0":"0","x1":"1/0"}]}', "trajectories[0].x1"),
            ('{"name": 3, "trajectories":[{"x0":"0","x1":"1"}]}', "name"),
        ],
    )
    def test_malformed_documents(self, doc, fragment):
        with pytest.raises(InstanceError, match=None) as err:
            parse_instance(doc)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("raw", ["1e4301", "1e-4301", "-2.5E+4301", "1e00004_301"])
    def test_huge_decimal_exponent_rejected(self, raw):
        doc = '{"trajectories":[{"x0":"0","x1":"%s"}]}' % raw
        with pytest.raises(InstanceError, match=r"trajectories\[0\]\.x1"):
            parse_instance(doc)

    def test_largest_decimal_exponent_parses(self):
        S = parse_instance('{"trajectories":[{"x0":"1e4300","x1":"-1e-4300"}]}')
        assert S[0].x0 == 10**4300 and S[0].x1 == Fraction(-1, 10**4300)

    def test_duplicate_rows_rejected(self):
        doc = '{"trajectories":[{"x0":"1","x1":"2"},{"x0":"1","x1":"2"}]}'
        with pytest.raises(InstanceError, match="duplicate"):
            parse_instance(doc)


class TestScalarText:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(0), "0"),
            (Fraction(5), "5"),
            (Fraction(1, 10), "0.1"),
            (Fraction(-1, 4), "-0.25"),
            (Fraction(7, 40), "0.175"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-22, 7), "-22/7"),
        ],
    )
    def test_literal(self, value, text):
        assert scalar_literal(value) == text
        assert Fraction(text) == value

    def test_decimal_significant_digits(self):
        assert scalar_decimal(Fraction(1, 3)) == "0.333333333333"
        assert scalar_decimal(Fraction(2)) == "2"
        assert scalar_decimal(Fraction(-1, 8)) == "-0.125"


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(seed=9, n=8)
        assert generate_instance(cfg) == generate_instance(cfg)

    def test_different_seeds_differ(self):
        a = generate_instance(GeneratorConfig(seed=1, n=8))
        b = generate_instance(GeneratorConfig(seed=2, n=8))
        assert a != b

    def test_respects_ranges_and_grid(self):
        cfg = GeneratorConfig(seed=5, n=9, x0_range=("0", "4"), slope_range=("-2", "2"), grid=4)
        S = generate_instance(cfg)
        assert len(S) == 9
        for s in S:
            assert 0 <= s.x0 <= 4
            assert -2 <= s.velocity <= 2
            assert (s.x0 * 4).denominator == 1
            assert (s.velocity * 4).denominator == 1

    def test_grid_too_small(self):
        with pytest.raises(InstanceError, match="distinct"):
            generate_instance(
                GeneratorConfig(seed=1, n=5, x0_range=(0, 0), slope_range=(0, 1), grid=1)
            )

    @pytest.mark.parametrize("field,value", [("n", 2.5), ("n", True), ("grid", 2.5), ("n", "3")])
    def test_sizes_must_be_ints(self, field, value):
        with pytest.raises(InstanceError, match=f"{field} must be an int of at least 1"):
            GeneratorConfig(**{"seed": 1, "n": 3, field: value})

    def test_bad_config(self):
        with pytest.raises(InstanceError):
            GeneratorConfig(seed=1, n=0)
        with pytest.raises(InstanceError):
            GeneratorConfig(seed=1, n=3, x0_range=(2, 1))


class TestRoundTrip:
    def test_generate_write_parse_identity(self):
        for seed in range(20):
            S = generate_instance(GeneratorConfig(seed=seed, n=7))
            assert parse_instance(dumps_instance(S, name=f"seed-{seed}")) == S

    def test_awkward_rationals_round_trip(self):
        from kinclust import TrajectorySet

        S = TrajectorySet.from_pairs([("1/3", "-2/7"), ("0.125", "5")])
        assert parse_instance(dumps_instance(S)) == S
