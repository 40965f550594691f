"""Partition enumeration, counting identities, and brute-force optima."""

import random
from fractions import Fraction

import pytest

import kinclust
from kinclust import (
    TrajectorySet,
    canonical_key,
    diameter,
    is_well_separated,
    md_value,
    sd_value,
)
from kinclust.oracle import (
    brute_opt,
    brute_opt_md,
    brute_opt_sd,
    brute_opt_wellsep,
    enumerate_partitions,
    goodseq_by_frontier,
    numeric_diameter,
    stirling2,
    wellsep_dp_by_sets,
)

from conftest import make_instance, run_python

REFEREES = (
    "brute_opt_md",
    "brute_opt_sd",
    "brute_opt_wellsep",
    "enumerate_partitions",
    "numeric_diameter",
    "stirling2",
)


class TestPackageSurface:
    """The package top level exports the library; each referee has one
    name, in ``kinclust.oracle``."""

    def test_import_leaves_the_oracle_unloaded(self):
        proc = run_python(["-c", "import sys, kinclust; print('kinclust.oracle' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout == "False\n"

    def test_referees_only_in_the_oracle(self):
        for name in REFEREES:
            assert callable(getattr(kinclust.oracle, name))
            assert not hasattr(kinclust, name)
        assert all(hasattr(kinclust, name) for name in kinclust.__all__)


class TestEnumeratePartitions:
    def test_bell_three(self):
        assert len(list(enumerate_partitions(3, 3))) == 5

    def test_four_into_at_most_two(self):
        # S(4,1) + S(4,2) = 1 + 7
        assert len(list(enumerate_partitions(4, 2))) == 8

    def test_each_partition_once(self):
        seen = set()
        for blocks in enumerate_partitions(5, 3):
            assert blocks not in seen
            seen.add(blocks)
            flat = sorted(i for b in blocks for i in b)
            assert flat == list(range(5))

    def test_counts_match_stirling(self):
        for n in range(1, 9):
            for k in range(1, n + 1):
                exact_k = sum(
                    1 for blocks in enumerate_partitions(n, k) if len(blocks) == k
                )
                assert exact_k == stirling2(n, k)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_partitions(13, 3)
        with pytest.raises(ValueError):
            enumerate_partitions(4, 0)


class TestStirling2:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_boundary_values(self, n):
        assert stirling2(n, 1) == 1
        assert stirling2(n, n) == 1

    def test_recurrence(self):
        for n in range(2, 12):
            for k in range(2, n):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    def test_known_lower_bound(self):
        # (k^2+k+2) k^(n-k-1) / 2 - 1, valid below the diagonal.
        assert stirling2(10, 4) >= (16 + 4 + 2) * 4**5 // 2 - 1
        for n in range(2, 11):
            for k in range(1, n):
                bound = Fraction(k * k + k + 2, 2) * Fraction(k) ** (n - k - 1) - 1
                assert stirling2(n, k) >= bound


class TestBruteOptima:
    def test_k_equals_n_is_zero(self):
        S = make_instance(7, 5)
        assert brute_opt_sd(S, 5).value == 0
        assert brute_opt_md(S, 5).value == 0

    def test_crossing_pair_single_cluster(self):
        S = TrajectorySet.from_pairs([("0", "2"), ("2", "0")])
        assert brute_opt_sd(S, 1).value == 1
        assert brute_opt_md(S, 1).value == 1

    def test_values_match_reported_clustering(self):
        for trial in range(10):
            S = make_instance(6100 + trial, 6)
            sd_sol = brute_opt_sd(S, 3)
            md_sol = brute_opt_md(S, 3)
            assert sd_value(S, sd_sol.clustering) == sd_sol.value
            assert md_value(S, md_sol.clustering) == md_sol.value

    def test_quartet_unique_pairing(self, quartet):
        # The interleaved pairing is the only 2-clustering with maximum
        # diameter within 1e-9 of 1; everything else is clearly worse.
        sol = brute_opt_md(quartet, 2)
        assert sol.clustering == (frozenset({0, 2}), frozenset({1, 3}))
        assert abs(sol.value - 1) < Fraction(1, 10**8)
        from kinclust.oracle import enumerate_partitions as parts

        for blocks in parts(4, 2):
            clusters = tuple(frozenset(b) for b in blocks)
            if clusters == sol.clustering:
                continue
            assert md_value(quartet, clusters) > sol.value + Fraction(1, 10**9)

    def test_size_guard(self):
        S = make_instance(11, 5)
        with pytest.raises(ValueError):
            brute_opt_sd(S, 0)

    @pytest.mark.parametrize("grid", [1, 10])
    def test_one_scan_gives_both_optima(self, grid):
        # Each optimum is the least (value, canonical key) over all
        # partitions; grid 1 puts every coordinate on a few integers, so
        # ties are common.
        for trial in range(8):
            S = make_instance(6200 + trial, 4 + trial % 3, grid)
            k = 2 + trial % 3
            candidates = [
                tuple(frozenset(b) for b in blocks) for blocks in enumerate_partitions(len(S), k)
            ]
            sd_sol, md_sol = brute_opt(S, k)
            for sol, value in ((sd_sol, sd_value), (md_sol, md_value)):
                best = min(candidates, key=lambda c: (value(S, c), canonical_key(c)))
                assert (sol.clustering, sol.value) == (best, value(S, best))
            assert (sd_sol.objective, md_sol.objective) == ("sd", "md")
            assert (sd_sol, md_sol) == (brute_opt_sd(S, k), brute_opt_md(S, k))


class TestBruteWellSeparated:
    def test_two_verticals(self, two_verticals):
        assert brute_opt_wellsep(two_verticals, 2, "sd").value == 0

    def test_restriction_never_helps(self):
        for trial in range(12):
            S = make_instance(6300 + trial, 6)
            for k in (2, 3):
                assert brute_opt_wellsep(S, k, "sd").value >= brute_opt_sd(S, k).value
                assert brute_opt_wellsep(S, k, "md").value >= brute_opt_md(S, k).value

    def test_result_is_well_separated(self):
        for trial in range(12):
            S = make_instance(6500 + trial, 6)
            sol = brute_opt_wellsep(S, 3, "sd")
            assert is_well_separated(S, sol.clustering)

    def test_strict_gap_on_interleaved_quartet(self, quartet):
        # The unique best 2-clustering for the max objective is not well
        # separated, so the filtered optimum is strictly worse.
        assert brute_opt_wellsep(quartet, 2, "md").value > brute_opt_md(quartet, 2).value

    def test_invalid_objective(self, two_verticals):
        with pytest.raises(ValueError):
            brute_opt_wellsep(two_verticals, 2, "sum")


class TestWellsepDpBySets:
    @pytest.mark.parametrize("objective", ["sd", "md"])
    def test_matches_filtered_brute_force(self, objective):
        value = sd_value if objective == "sd" else md_value
        for trial in range(10):
            S = make_instance(6700 + trial, 4 + trial % 4)
            for k in range(1, len(S) + 1):
                sol = wellsep_dp_by_sets(S, k, objective)
                assert sol.value == brute_opt_wellsep(S, k, objective).value
                assert value(S, sol.clustering) == sol.value
                assert is_well_separated(S, sol.clustering)
                chain = (frozenset(),) + sol.chain + (S.all_indices(),)
                assert all(a < b for a, b in zip(chain, chain[1:]))

    def test_invalid_objective_and_k(self, two_verticals):
        with pytest.raises(ValueError):
            wellsep_dp_by_sets(two_verticals, 2, "sum")
        for k in (0, 3):
            with pytest.raises(ValueError):
                wellsep_dp_by_sets(two_verticals, k, "sd")


class TestGoodseqByFrontier:
    def test_matches_brute_force(self):
        for trial in range(10):
            S = make_instance(6800 + trial, 4 + trial % 4)
            for k in range(1, len(S) + 1):
                sol = goodseq_by_frontier(S, k)
                assert sol.value == brute_opt_sd(S, k).value
                assert sd_value(S, sol.clustering) == sol.value
                assert sol.sequence.replay(S) == sol.clustering

    def test_invalid_k(self, two_verticals):
        for k in (0, 3):
            with pytest.raises(ValueError):
                goodseq_by_frontier(two_verticals, k)


class TestNumericDiameter:
    def test_parallel_pair_exact_at_any_steps(self):
        S = TrajectorySet.from_pairs([("0", "0"), ("1", "1")])
        for steps in (1, 3, 10, 101):
            assert numeric_diameter(S, {0, 1}, steps) == 1

    def test_crossing_pair_close_at_1000_steps(self):
        S = TrajectorySet.from_pairs([("0", "2"), ("2", "0")])
        assert abs(numeric_diameter(S, {0, 1}, 1000) - 1) < Fraction(1, 1000)

    def test_singleton_is_zero(self, three_lines):
        assert numeric_diameter(three_lines, {1}, 64) == 0

    def test_step_guard(self, three_lines):
        with pytest.raises(ValueError):
            numeric_diameter(three_lines, {0, 1}, 0)

    def test_converges_to_exact_area(self):
        rng = random.Random(97)
        for trial in range(15):
            S = make_instance(6700 + trial, 5)
            C = frozenset(rng.sample(range(5), rng.randint(2, 5)))
            exact = diameter(S, C)
            coarse = abs(numeric_diameter(S, C, 16) - exact)
            fine = abs(numeric_diameter(S, C, 1024) - exact)
            assert fine <= coarse
            assert fine <= max(exact, Fraction(1)) / 256
