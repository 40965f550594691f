"""Sum-of-diameters solvers against the brute-force referee."""

import dataclasses
import random
from fractions import Fraction

import pytest

from kinclust import (
    TrajectorySet,
    compute_holes,
    diameter,
    is_well_separated,
    md_value,
    md_wellsep_dp,
    sd_exact_goodseq,
    sd_value,
    sd_wellsep_dp,
    sum_diameter,
)
from kinclust.oracle import (
    brute_opt_md,
    brute_opt_sd,
    brute_opt_wellsep,
    goodseq_by_frontier,
    wellsep_dp_by_sets,
)

from conftest import (
    DEGENERATE_FAMILIES,
    make_instance,
    mirrored,
    permuted,
    scaled,
    time_reversed,
    translated,
)

WELLSEP_DP = {"sd": sd_wellsep_dp, "md": md_wellsep_dp}


class TestSdValue:
    def test_singletons_are_zero(self, three_lines):
        assert sd_value(three_lines, [{0}, {1}, {2}]) == 0

    def test_single_cluster(self):
        S = TrajectorySet.from_pairs([("0", "2"), ("2", "0")])
        assert sd_value(S, [{0, 1}]) == 1

    def test_equals_sum_of_diameters(self):
        rng = random.Random(51)
        for trial in range(20):
            S = make_instance(1700 + trial, 7)
            ids = list(range(7))
            rng.shuffle(ids)
            clustering = (frozenset(ids[:3]), frozenset(ids[3:5]), frozenset(ids[5:]))
            assert sd_value(S, clustering) == sum(
                (diameter(S, c) for c in clustering), Fraction(0)
            )


class TestExactSolver:
    def test_k_equals_one(self, three_lines):
        sol = sd_exact_goodseq(three_lines, 1)
        assert sol.clustering == (frozenset({0, 1, 2}),)
        assert sol.value == diameter(three_lines, {0, 1, 2})

    def test_k_equals_n_gives_singletons(self):
        S = make_instance(42, 6)
        sol = sd_exact_goodseq(S, 6)
        assert sol.value == 0
        assert all(len(c) == 1 for c in sol.clustering)

    def test_k_out_of_range(self, three_lines):
        for bad in (0, 4):
            with pytest.raises(ValueError):
                sd_exact_goodseq(three_lines, bad)

    @pytest.mark.parametrize("seed,n,k", [(i, 4 + i % 4, 2 + i % 3) for i in range(24)])
    def test_matches_brute_force(self, seed, n, k):
        S = make_instance(1900 + seed, n)
        k = min(k, n)
        sol = sd_exact_goodseq(S, k)
        ref = brute_opt_sd(S, k)
        assert sol.value == ref.value
        assert sd_value(S, sol.clustering) == sol.value

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_ties_go_to_the_least_canonical_key(self, k):
        # Parallel lines one unit apart: every split into k runs of
        # neighbours has the same sum, and the least canonical key peels
        # off the first k-1 lines.
        S = TrajectorySet.from_pairs(DEGENERATE_FAMILIES["all-parallel"])
        sol = sd_exact_goodseq(S, k)
        expected = tuple(frozenset({i}) for i in range(k - 1)) + (frozenset(range(k - 1, 8)),)
        assert sol.clustering == expected == brute_opt_sd(S, k).clustering

    def test_certificate_replays_to_solution(self):
        for trial in range(10):
            S = make_instance(2100 + trial, 6)
            sol = sd_exact_goodseq(S, 3)
            assert sol.sequence is not None
            assert sol.sequence.replay(S) == sol.clustering

    def test_certificate_names_the_first_hole_of_each_split(self):
        S = make_instance(2200, 9)
        bounded = [h for h in compute_holes(S) if h.kind == "bounded"]
        for k in (2, 3, 4):
            for hole, cluster in sd_exact_goodseq(S, k).sequence.steps:
                sides = {cluster & hole.left_set, cluster - hole.left_set}
                first = next(h for h in bounded if {cluster & h.left_set, cluster - h.left_set} == sides)
                assert hole == first

    def test_optimum_has_no_empty_clusters(self):
        # Splitting any multi-member cluster along an interior hole never
        # hurts, so a best clustering uses all k slots.
        for trial in range(10):
            S = make_instance(2300 + trial, 6)
            sol = sd_exact_goodseq(S, 3)
            assert len(sol.clustering) == 3
            assert all(c for c in sol.clustering)


class TestExactSolverMatchesFrontierReferee:
    """The split-tree DP against the oracle's frontier of whole clusterings.

    Value and clustering must be identical beyond brute-force sizes and on
    the degenerate families; the certificates may name different splits,
    so the DP's own sequence must replay to its clustering.  The referee
    runs on its own copy of the instance.
    """

    @staticmethod
    def check(make, ks):
        S, R = make(), make()
        for k in ks:
            sol = sd_exact_goodseq(S, k)
            assert sol == dataclasses.replace(goodseq_by_frontier(R, k), sequence=sol.sequence), k
            assert sol.sequence.replay(S) == sol.clustering
            assert len(sol.sequence.steps) == k - 1

    @pytest.mark.parametrize("n,ks", [(16, (2, 3, 4)), (20, (3,))])
    def test_random_beyond_brute_force(self, n, ks):
        self.check(lambda: make_instance(4500 + n, n), ks)

    @pytest.mark.parametrize("seed,n,grid", [(4601, 14, 3), (4602, 16, 4)])
    def test_integer_grid(self, seed, n, grid):
        # Integer coordinates on a narrow range: concurrent crossings and
        # many equal sums, so the tie rule decides.
        points = [(Fraction(x0), Fraction(x1)) for x0 in range(grid + 1) for x1 in range(grid + 1)]
        pairs = random.Random(seed).sample(points, n)
        self.check(lambda: TrajectorySet.from_pairs(pairs), (2, 3, 4))

    @pytest.mark.parametrize("family", sorted(DEGENERATE_FAMILIES))
    def test_degenerate_families(self, family):
        pairs = DEGENERATE_FAMILIES[family]
        # The 16 coprime-denominator lines nearly all cross, so the
        # referee's frontier takes about 4 s at k=4 and 70 s at k=5.
        top = 3 if family == "coprime-denominators" else 5
        self.check(lambda: TrajectorySet.from_pairs(pairs), range(1, min(top, len(pairs)) + 1))


class TestExactSolverWorkGuard:
    def test_raises_past_the_cap(self, monkeypatch):
        # The count is per call: a kernel warmed by an earlier solve does
        # not let a later one past the cap.
        S = make_instance(4700, 8)
        sd_exact_goodseq(S, 3)
        monkeypatch.setattr(sum_diameter, "MAX_SPLIT_WORK", 5)
        with pytest.raises(ValueError, match="MAX_SPLIT_WORK = 5"):
            sd_exact_goodseq(S, 3)
        with pytest.raises(ValueError, match="MAX_SPLIT_WORK = 5"):
            sd_exact_goodseq(make_instance(4700, 8), 3)

    def test_combines_are_charged(self, monkeypatch):
        # 20 parallel lines at k=20 scan about 3.6k hole masks but try
        # about 86k (split, j, j1) triples in their combines.
        S = TrajectorySet.from_pairs([(i, i) for i in range(20)])
        monkeypatch.setattr(sum_diameter, "MAX_SPLIT_WORK", 50_000)
        with pytest.raises(ValueError, match="MAX_SPLIT_WORK = 50000"):
            sd_exact_goodseq(S, 20)

    def test_k_one_needs_one_cluster(self, monkeypatch):
        # One cluster lists no split, so it does no work.
        monkeypatch.setattr(sum_diameter, "MAX_SPLIT_WORK", 0)
        S = make_instance(4701, 8)
        assert sd_exact_goodseq(S, 1).value == diameter(S, S.all_indices())


# (solver, its objective's value, id prefix) over (seed, n, k); the exact
# solver's cases keep ids without a solver name.
METAMORPHIC = [
    pytest.param(solve, value_of, seed, n, k, id=f"{prefix}{seed}-{n}-{k}")
    for solve, value_of, prefix in (
        (sd_exact_goodseq, sd_value, ""),
        (sd_wellsep_dp, sd_value, "sd_wellsep_dp-"),
        (md_wellsep_dp, md_value, "md_wellsep_dp-"),
    )
    for seed, n, k in [(4800, 16, 4), (4801, 18, 3), (4802, 20, 3), (4803, 24, 4)]
]


class TestExactSolverMetamorphic:
    """Each solver's optimal value is invariant under the maps that keep
    every span area and the arrangement's holes up to relabelling, and
    scales by |a| under x -> a x, at sizes past brute force."""

    @pytest.mark.parametrize("solve,value_of,seed,n,k", METAMORPHIC)
    def test_translation_drift_mirror_and_time_reversal(self, solve, value_of, seed, n, k):
        S = make_instance(seed, n)
        pairs = [(s.x0, s.x1) for s in S]
        value = solve(S, k).value
        c0, c1 = Fraction(-37, 3), Fraction(5, 7)
        for moved in (
            translated(pairs, c0, c0),
            translated(pairs, c0, c1),
            mirrored(pairs),
            time_reversed(pairs),
        ):
            assert solve(moved, k).value == value

    @pytest.mark.parametrize("solve,value_of,seed,n,k", METAMORPHIC)
    def test_scaling_multiplies_by_abs(self, solve, value_of, seed, n, k):
        S = make_instance(seed, n)
        pairs = [(s.x0, s.x1) for s in S]
        value = solve(S, k).value
        for a in (Fraction(3, 2), Fraction(-5, 3)):
            assert solve(scaled(pairs, a), k).value == abs(a) * value

    @pytest.mark.parametrize("solve,value_of,seed,n,k", METAMORPHIC)
    def test_index_permutation(self, solve, value_of, seed, n, k):
        S = make_instance(seed, n)
        value = solve(S, k).value
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        moved, _ = permuted(S, perm)
        sol = solve(moved, k)
        assert sol.value == value
        assert value_of(S, [{perm[i] for i in C} for C in sol.clustering]) == value


class TestWellSeparatedDp:
    def test_k_equals_one(self, three_lines):
        sol = sd_wellsep_dp(three_lines, 1)
        assert sol.clustering == (frozenset({0, 1, 2}),)

    def test_two_verticals(self, two_verticals):
        sol = sd_wellsep_dp(two_verticals, 2)
        assert sol.value == 0
        assert sol.clustering == (frozenset({0}), frozenset({1}))

    @pytest.mark.parametrize("seed,n,k", [(i, 4 + i % 4, 2 + i % 3) for i in range(24)])
    def test_matches_filtered_brute_force(self, seed, n, k):
        S = make_instance(2500 + seed, n)
        k = min(k, n)
        sol = sd_wellsep_dp(S, k)
        ref = brute_opt_wellsep(S, k, "sd")
        assert sol.value == ref.value
        assert sd_value(S, sol.clustering) == sol.value

    def test_output_is_well_separated(self):
        for trial in range(12):
            S = make_instance(2700 + trial, 7)
            sol = sd_wellsep_dp(S, 3)
            assert is_well_separated(S, sol.clustering)

    def test_dominates_exact_optimum(self):
        for trial in range(12):
            S = make_instance(2900 + trial, 6)
            for k in (2, 3):
                assert sd_wellsep_dp(S, k).value >= sd_exact_goodseq(S, k).value

    def test_ratio_bound_vs_exact(self):
        # Restricting to well-separated clusterings costs at most a factor
        # 1 + floor(k/2).
        for trial in range(12):
            S = make_instance(3100 + trial, 6)
            for k in (2, 3, 4):
                exact = sd_exact_goodseq(S, k).value
                wellsep = sd_wellsep_dp(S, k).value
                assert wellsep <= (1 + k // 2) * exact

    def test_chain_certificate_is_nested(self):
        for trial in range(8):
            S = make_instance(3300 + trial, 6)
            sol = sd_wellsep_dp(S, 3)
            chain = (frozenset(),) + sol.chain + (S.all_indices(),)
            for a, b in zip(chain, chain[1:]):
                assert a < b


class TestDegenerateInstances:
    def test_tiny_grid_heavy_ties(self):
        # Integer coordinates on {0..3} force many concurrent crossings
        # and boundary contacts; solvers must still match the referee.
        rng = random.Random(2024)
        for trial in range(40):
            n = rng.randint(2, 6)
            pairs = set()
            while len(pairs) < n:
                pairs.add((Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))))
            S = TrajectorySet.from_pairs(sorted(pairs))
            k = rng.randint(1, n)
            assert sd_exact_goodseq(S, k).value == brute_opt_sd(S, k).value
            assert sd_wellsep_dp(S, k).value == brute_opt_wellsep(S, k, "sd").value
            assert md_wellsep_dp(S, k).value == brute_opt_wellsep(S, k, "md").value


class TestMdWellSeparatedDp:
    def test_k_equals_one(self, three_lines):
        sol = md_wellsep_dp(three_lines, 1)
        assert sol.clustering == (frozenset({0, 1, 2}),)

    def test_two_verticals(self, two_verticals):
        assert md_wellsep_dp(two_verticals, 2).value == 0

    @pytest.mark.parametrize("seed,n,k", [(i, 4 + i % 4, 2 + i % 2) for i in range(16)])
    def test_matches_filtered_brute_force(self, seed, n, k):
        S = make_instance(3500 + seed, n)
        k = min(k, n)
        sol = md_wellsep_dp(S, k)
        ref = brute_opt_wellsep(S, k, "md")
        assert sol.value == ref.value
        assert md_value(S, sol.clustering) == sol.value
        assert is_well_separated(S, sol.clustering)

    def test_never_below_unrestricted_optimum(self):
        for trial in range(10):
            S = make_instance(3700 + trial, 6)
            for k in (2, 3):
                assert md_wellsep_dp(S, k).value >= brute_opt_md(S, k).value


class TestWellSeparatedDpMatchesSetReferee:
    """The chain-table DP against the frozenset DP of the oracle.

    The whole Solution must be identical, clustering, value and chain
    certificate included, for both objectives and beyond brute-force
    sizes.  The referee runs on its own copy of the instance, so it shares
    no kernel memo or chain table with the solver.
    """

    @staticmethod
    def check(make, ks):
        S, R = make(), make()
        for objective in ("sd", "md"):
            for k in ks:
                expected = wellsep_dp_by_sets(R, k, objective)
                assert WELLSEP_DP[objective](S, k) == expected, (objective, k)

    @pytest.mark.parametrize("n", [16, 24, 40])
    def test_random_beyond_brute_force(self, n):
        self.check(lambda: make_instance(4100 + n, n), range(1, 7))

    @pytest.mark.parametrize("family", sorted(DEGENERATE_FAMILIES))
    def test_degenerate_families(self, family):
        pairs = DEGENERATE_FAMILIES[family]
        self.check(lambda: TrajectorySet.from_pairs(pairs), range(1, min(6, len(pairs)) + 1))

    def test_layers_shared_in_any_order(self):
        # k = 4 fills layers 1..4 first; the later, smaller k and the other
        # objective must read them back exactly as fresh instances compute.
        S = make_instance(4300, 14)
        for objective in ("md", "sd"):
            for k in (4, 2, 3):
                sol = WELLSEP_DP[objective](S, k)
                assert sol == WELLSEP_DP[objective](make_instance(4300, 14), k)
                assert sol == wellsep_dp_by_sets(make_instance(4300, 14), k, objective)
