"""Core geometry: positions, pairwise areas, envelopes, span areas."""

import random
from fractions import Fraction

import pytest

from kinclust import (
    Trajectory,
    TrajectorySet,
    as_scalar,
    diameter,
    envelope,
    normalize_clustering,
    pairwise_diameter,
)
from kinclust.oracle import bottom_leftmost_index, numeric_diameter

from conftest import BALL_FACTOR, make_instance, random_trajectory


def T(x0, x1):
    return Trajectory(x0, x1)


class TestPosition:
    def test_midpoint_of_rising_segment(self):
        assert T("0", "2").position(Fraction(1, 2)) == 1

    def test_identity_at_zero(self):
        assert T("0", "2").position(0) == 0

    def test_endpoint_readoff(self):
        assert T("-9/10", "2").position(1) == 2

    def test_rejects_time_outside_strip(self):
        with pytest.raises(ValueError):
            T("0", "2").position(Fraction(3, 2))
        with pytest.raises(ValueError):
            T("0", "2").position(Fraction(-1, 10))


class TestMidpoint:
    @pytest.mark.parametrize(
        "x0,x1,expected",
        [("0", "2", 1), ("1", "0", Fraction(1, 2)), ("1/10", "3/7", Fraction(37, 140))],
    )
    def test_average_of_endpoints(self, x0, x1, expected):
        assert T(x0, x1).midpoint() == expected

    def test_equals_position_at_half(self):
        rng = random.Random(11)
        for _ in range(50):
            s = random_trajectory(rng)
            assert s.midpoint() == s.position(Fraction(1, 2))


class TestPairwiseDiameter:
    def test_parallel_unit_strip(self):
        assert pairwise_diameter(T("0", "0"), T("1", "1")) == 1

    def test_symmetric_crossing(self):
        assert pairwise_diameter(T("0", "1"), T("1", "0")) == Fraction(1, 2)

    def test_wedge_pair_has_unit_area(self):
        # With an exact sqrt(2) the area is exactly 1; the 10-digit rational
        # stand-in lands within 1e-9.
        d = pairwise_diameter(T("-2.4142135624", "1"), T("0", "0"))
        assert abs(d - 1) < Fraction(1, 10**9)

    def test_symmetric_in_arguments(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = random_trajectory(rng), random_trajectory(rng)
            assert pairwise_diameter(a, b) == pairwise_diameter(b, a)

    def test_triangle_inequality(self):
        rng = random.Random(13)
        for _ in range(500):
            a, b, c = (random_trajectory(rng) for _ in range(3))
            assert pairwise_diameter(a, b) + pairwise_diameter(b, c) >= pairwise_diameter(a, c)

    def test_midpoint_distance_lower_bound(self):
        rng = random.Random(17)
        for _ in range(500):
            s, v = random_trajectory(rng), random_trajectory(rng)
            assert pairwise_diameter(s, v) >= abs(s.midpoint() - v.midpoint())


class TestBottomLeftmost:
    def test_min_initial_position(self):
        S = TrajectorySet.from_pairs([("0", "5"), ("1", "0")])
        assert S[bottom_leftmost_index(S, {0, 1})] == T("0", "5")

    def test_tie_broken_by_final_position(self):
        S = TrajectorySet.from_pairs([("0", "5"), ("0", "1")])
        assert S[bottom_leftmost_index(S, {0, 1})] == T("0", "1")

    def test_quartet_leftmost(self, quartet):
        assert bottom_leftmost_index(quartet, quartet.all_indices()) == 0

    def test_empty_cluster_rejected(self, quartet):
        with pytest.raises(ValueError):
            bottom_leftmost_index(quartet, frozenset())


class TestAsScalar:
    @pytest.mark.parametrize("raw", ["1e4301", "1e-4301", " 7.5e+4301 ", "1e999999999"])
    def test_huge_decimal_exponent_rejected(self, raw):
        # Rejected from the text alone: 10**exponent is never built.
        with pytest.raises(ValueError, match="exponent"):
            as_scalar(raw)

    def test_bound_is_inclusive(self):
        # 4300 digits in the numerator or denominator is the most allowed.
        assert as_scalar("1e4299") == 10**4299
        assert as_scalar("-1e-4299") == Fraction(-1, 10**4299)
        assert as_scalar("-1.5e-2") == Fraction(-3, 200)

    @pytest.mark.parametrize("raw", ["1e4300", "1e-4300", "12e4299", "-1e4300"])
    def test_more_than_4300_digits_rejected(self, raw):
        # The exponent passes, but the value could not be written back.
        with pytest.raises(ValueError, match="more than 4300 digits"):
            as_scalar(raw)

    @pytest.mark.parametrize("raw", ["1_000", "1e1_0", "\u0663", "1e00004_301", "1/ 2"])
    def test_outside_the_ascii_grammar_rejected(self, raw):
        # Rejected on every Python version, whatever its Fraction accepts.
        with pytest.raises(ValueError, match="invalid scalar literal"):
            as_scalar(raw)

    def test_ratios_and_plain_decimals_unaffected(self):
        assert as_scalar("3/4") == Fraction(3, 4)
        assert as_scalar("0.25") == Fraction(1, 4)
        # The rest of the grammar: signs, bare points, whitespace around.
        assert as_scalar(" -3/6\n") == Fraction(-1, 2)
        assert as_scalar("+.5") == Fraction(1, 2)
        assert as_scalar("3.") == 3
        assert as_scalar("1.E+2") == 100

    @pytest.mark.parametrize("raw", ["1/0", "-3/0", "0/0"])
    def test_zero_denominator_is_a_value_error(self, raw):
        with pytest.raises(ValueError, match="zero denominator"):
            as_scalar(raw)

    @pytest.mark.parametrize(
        "raw",
        ["1" * 5000, "1/" + "1" * 4301, "." + "5" * 4301, "1e" + "0" * 4301],
        ids=["whole", "denominator", "fraction", "exponent"],
    )
    def test_digit_string_past_4300_digits_rejected(self, raw):
        # Bounded before any int is built, so CPython's own int-string
        # limit, and its message, is never reached.
        with pytest.raises(ValueError, match="more than 4300 digits") as err:
            as_scalar(raw)
        assert "set_int_max_str_digits" not in str(err.value)

    def test_digit_strings_at_4300_digits_parse(self):
        assert as_scalar("1" * 4300) == int("1" * 4300)
        assert as_scalar("1." + "0" * 4300) == 1
        assert as_scalar("1e" + "0" * 4299 + "1") == 10

    def test_long_invalid_literal_echoed_in_part(self):
        with pytest.raises(ValueError, match=r"'x{40}'… \(100000 characters\)$"):
            as_scalar("x" * 100_000)

    def test_grammar_valid_literals_parse_as_fraction_does(self):
        # Fraction(text) is the referee on the literals both grammars accept.
        rng = random.Random(2801)

        def digits(lo, hi):
            return "".join(rng.choice("0123456789") for _ in range(rng.randint(lo, hi)))

        for _ in range(5000):
            sign = rng.choice(["", "-", "+"])
            whole, frac = digits(1, 8), digits(1, 8)
            if rng.random() < 0.3:
                if not int(frac):
                    continue
                text = f"{sign}{whole}/{frac}"
            else:
                text = sign + rng.choice([whole, whole + ".", f"{whole}.{frac}", "." + frac])
                if rng.random() < 0.5:
                    text += rng.choice("eE") + rng.choice(["", "-", "+"]) + digits(1, 3)
            padded = rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\n"])
            assert as_scalar(padded) == Fraction(text), text


class TestTrajectorySet:
    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(10**4300, id="int"),
            pytest.param(-(10**4300), id="negative-int"),
            pytest.param(Fraction(1, 10**4300), id="fraction-denominator"),
            pytest.param(Fraction(10**4300 + 1, 3), id="fraction-numerator"),
            pytest.param("1e4300", id="str"),
        ],
    )
    def test_coordinates_past_4300_digits_rejected(self, value):
        # Whatever its type, such a coordinate could not be written back.
        with pytest.raises(ValueError, match="more than 4300 digits"):
            TrajectorySet.from_pairs([(0, 1), (value, 0)])
        with pytest.raises(ValueError, match="more than 4300 digits"):
            T(0, value)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TrajectorySet.from_pairs([("0", "1"), ("0", "1")])

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError):
            Trajectory(0.5, 1)

    def test_indexing_is_stable(self):
        S = TrajectorySet.from_pairs([("3", "1"), ("0", "0")])
        assert S[0] == T("3", "1") and S[1] == T("0", "0")


class TestEnvelope:
    def test_singleton_is_one_segment(self):
        S = TrajectorySet.from_pairs([("0", "2")])
        for side in ("left", "right"):
            env = envelope(S, {0}, side)
            assert env == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)))

    def test_two_crossing_segments_left(self):
        S = TrajectorySet.from_pairs([("0", "2"), ("2", "0")])
        env = envelope(S, {0, 1}, "left")
        assert env == (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1)),
            (Fraction(1), Fraction(0)),
        )

    def test_empty_cluster_rejected(self, quartet):
        with pytest.raises(ValueError):
            envelope(quartet, frozenset(), "left")

    def test_unknown_side_rejected(self, quartet):
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            envelope(quartet, {0, 1}, "up")

    def test_pointwise_equals_direct_min_max(self):
        # Every point is the extreme position at its time, and so is the
        # linear interpolation at each midpoint between consecutive points.
        rng = random.Random(23)
        for trial in range(10):
            S = TrajectorySet(tuple(random_trajectory(rng) for _ in range(6)))
            for side, pick in (("left", min), ("right", max)):
                points = envelope(S, S.all_indices(), side)
                assert [t for t, _ in points] == sorted({t for t, _ in points})
                assert points[0][0] == 0 and points[-1][0] == 1
                for t, x in points:
                    assert x == pick(s.position(t) for s in S)
                for (t0, x0), (t1, x1) in zip(points, points[1:]):
                    t = (t0 + t1) / 2
                    assert (x0 + x1) / 2 == pick(s.position(t) for s in S)

    def test_consecutive_segments_have_distinct_slopes(self):
        rng = random.Random(29)
        for trial in range(20):
            S = TrajectorySet(tuple(random_trajectory(rng) for _ in range(5)))
            for side in ("left", "right"):
                bps = envelope(S, S.all_indices(), side)
                slopes = [
                    (x1 - x0) / (t1 - t0)
                    for (t0, x0), (t1, x1) in zip(bps, bps[1:])
                ]
                assert all(a != b for a, b in zip(slopes, slopes[1:]))


class TestDiameter:
    def test_crossing_pair(self):
        S = TrajectorySet.from_pairs([("0", "2"), ("2", "0")])
        assert diameter(S, {0, 1}) == 1

    def test_empty_and_singleton_are_zero(self, quartet):
        assert diameter(quartet, frozenset()) == 0
        assert diameter(quartet, {2}) == 0

    def test_matches_numeric_integration(self):
        rng = random.Random(31)
        S = TrajectorySet(tuple(random_trajectory(rng) for _ in range(4)))
        exact = diameter(S, S.all_indices())
        approx = numeric_diameter(S, S.all_indices(), steps=1 << 18)
        assert abs(approx - exact) < Fraction(1, 10**9)

    def test_pair_matches_pairwise_diameter(self):
        rng = random.Random(37)
        for _ in range(100):
            a, b = random_trajectory(rng), random_trajectory(rng)
            if a == b:
                continue
            S = TrajectorySet((a, b))
            assert diameter(S, {0, 1}) == pairwise_diameter(a, b)

    def test_monotone_under_inclusion(self):
        rng = random.Random(41)
        for trial in range(30):
            S = make_instance(trial + 1000, 7)
            members = list(range(7))
            rng.shuffle(members)
            small = frozenset(members[:4])
            bigger = small | frozenset(members[4:6])
            assert diameter(S, small) <= diameter(S, bigger)

    def test_ball_bound(self):
        # Everything within pairwise diameter r of a common trajectory spans
        # an area of at most (2 + sqrt(2)) r.
        rng = random.Random(43)
        for _ in range(200):
            s = random_trajectory(rng)
            r = Fraction(rng.randint(1, 40), 10)
            candidates = []
            for _ in range(6):
                dx0 = Fraction(rng.randint(-30, 30), 10)
                dx1 = Fraction(rng.randint(-30, 30), 10)
                candidates.append(Trajectory(s.x0 + dx0, s.x1 + dx1))
            close = [a for a in candidates if a != s and pairwise_diameter(s, a) <= r]
            S = TrajectorySet(tuple(dict.fromkeys([s] + close)))
            assert diameter(S, S.all_indices()) <= BALL_FACTOR * r


class TestNormalizeClustering:
    def test_drops_empties_and_sorts(self):
        out = normalize_clustering([frozenset(), {3, 1}, {0}, frozenset()])
        assert out == (frozenset({0}), frozenset({1, 3}))
