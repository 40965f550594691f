"""Greedy partition, binary search, and k-center against the referee."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from kinclust import (
    TrajectorySet,
    bsearch,
    diameter,
    gp,
    kcenter_gonzalez,
    md_value,
    normalize_clustering,
    max_diameter,
    pairwise_diameter,
)
from kinclust.oracle import bottom_leftmost_index, brute_opt_md

from conftest import (
    BSEARCH_WORST,
    DEGENERATE_FAMILIES,
    GP_BOUND,
    GP_WORST,
    KCENTER_BOUND,
    make_instance,
    mirrored,
    permuted,
    scaled,
    time_reversed,
    translated,
)


# Instances whose pairwise areas tie all over: the degenerate line families
# and every (x0, x1) of a 4 x 4 integer grid.
TIE_FAMILIES = {**DEGENERATE_FAMILIES, "grid-4x4": [(x0, x1) for x0 in range(4) for x1 in range(4)]}


def pair_areas(S):
    return [pairwise_diameter(S[i], S[j]) for i, j in combinations(range(len(S)), 2)]


def min_pairwise(S):
    return min(pair_areas(S))


def pair_area_table(S):
    """table[i][j], the pairwise_diameter of members i and j."""
    n = len(S)
    table = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        table[i][j] = table[j][i] = pairwise_diameter(S[i], S[j])
    return table


def gp_by_definition(S, D, table=None):
    """gp straight from its definition, one pairwise_diameter per test.

    The areas are read from ``table`` (see ``pair_area_table``) when given.
    """
    order = sorted(range(len(S)), key=lambda i: S[i])
    area = (lambda s, j: pairwise_diameter(S[s], S[j])) if table is None else (lambda s, j: table[s][j])
    taken = set()
    clusters = []
    for s in order:
        if s not in taken:
            members = {j for j in order if j not in taken and area(s, j) <= D}
            taken |= members
            clusters.append(frozenset(members))
    return tuple(clusters)


def kcenter_by_definition(S, k):
    """Farthest-point seeding and nearest-center assignment, from the definition."""
    n = len(S)
    dist = lambda i, j: pairwise_diameter(S[i], S[j])  # noqa: E731
    centers = [min(range(n), key=lambda i: S[i])]
    while len(centers) < k:
        centers.append(max(range(n), key=lambda i: (min(dist(c, i) for c in centers), -i)))
    assignment = tuple(min(centers, key=lambda c: (dist(c, i), c)) for i in range(n))
    return tuple(centers), assignment


def kcenter_owners(result):
    """(centers, each member's center) of a ``kcenter_gonzalez`` result.

    Each cluster must hold exactly one center, the owner of its members.
    """
    centers, clustering = result
    owner = {}
    for C in clustering:
        (c,) = set(centers.centers) & C
        owner.update(dict.fromkeys(C, c))
    return centers.centers, tuple(owner[i] for i in range(len(owner)))


class TestMdValue:
    def test_singletons(self, three_lines):
        assert md_value(three_lines, [{0}, {1}, {2}]) == 0

    def test_quartet_pairing_is_unit(self, quartet):
        v = md_value(quartet, [{0, 2}, {1, 3}])
        assert abs(v - 1) < Fraction(1, 10**9)

    def test_equals_max_of_diameters(self):
        rng = random.Random(61)
        for trial in range(20):
            S = make_instance(4100 + trial, 6)
            ids = list(range(6))
            rng.shuffle(ids)
            clustering = (frozenset(ids[:3]), frozenset(ids[3:]))
            assert md_value(S, clustering) == max(diameter(S, c) for c in clustering)


class TestGp:
    def test_zero_threshold_gives_singletons(self):
        S = make_instance(77, 7)
        clusters = gp(S, 0)
        assert len(clusters) == 7
        assert all(len(c) == 1 for c in clusters)

    @pytest.mark.parametrize("n", [7, 24, 48])
    def test_matches_definition(self, n):
        # Thresholds include exact pairwise values, where <= decides.
        rng = random.Random(n)
        for seed in range(3):
            S = make_instance(19500 + seed, n)
            pairs = [pairwise_diameter(S[i], S[j]) for i in range(n) for j in range(i + 1, n)]
            for D in [0, *rng.sample(pairs, 6), max(pairs) / 3, max(pairs)]:
                assert gp(S, D) == gp_by_definition(S, D)

    @pytest.mark.parametrize("pairs", list(TIE_FAMILIES.values()), ids=list(TIE_FAMILIES))
    def test_matches_definition_at_tied_thresholds(self, pairs):
        # At each distinct pairwise area every pair tied at it joins (<=
        # is inclusive); a hair below it, none of them does.
        S = TrajectorySet.from_pairs(pairs)
        for D in sorted(set(pair_areas(S))):
            for threshold in (D, D - Fraction(1, 10**30)):
                assert gp(S, threshold) == gp_by_definition(S, threshold)
        assert gp(S, 0) == gp_by_definition(S, 0)

    @pytest.mark.parametrize("n, grid", [(200, 10), (200, 100), (400, 10), (400, 100)])
    def test_matches_definition_in_midpoint_windows(self, n, grid):
        # A pair's area is at least its midpoint distance, and equals it when
        # the pair does not cross inside the strip: at such an area the pair
        # sits on the edge of the first representative's midpoint window,
        # where <= decides, and a hair below it falls out.
        S = make_instance(19600 + n, n, grid)
        table = pair_area_table(S)
        s = S.kernel.leftmost[0]
        x0, x1 = S[s].x0, S[s].x1
        level = sorted({table[s][j] for j in range(n) if (x0 - S[j].x0) * (x1 - S[j].x1) > 0})
        hair = Fraction(1, 10**30)
        for D in (S.kernel.min_pair_area(), *level[:3], level[len(level) // 2]):
            # The window is shorter than the n members left.
            assert sum(abs(S[j].midpoint() - S[s].midpoint()) <= D for j in range(n)) < n
            for threshold in (D, D - hair):
                assert gp(S, threshold) == gp_by_definition(S, threshold, table)
        assert gp(S, 0) == gp_by_definition(S, 0, table)

    def test_matches_definition_on_a_long_pencil(self):
        # Every midpoint coincides, so every window holds every member.
        S = TrajectorySet.from_pairs([(i, -i) for i in range(-150, 150)])
        table = pair_area_table(S)
        # Pair areas are the multiples of 1/2 up to 299/2.
        for D in (Fraction(1, 2), Fraction(3, 2), 10, 149):
            for threshold in (D, D - Fraction(1, 10**30)):
                assert gp(S, threshold) == gp_by_definition(S, threshold, table)
        assert gp(S, 0) == gp_by_definition(S, 0, table)

    def test_verticals_merge_at_unit_threshold(self, two_verticals):
        assert gp(two_verticals, 1) == (frozenset({0, 1}),)

    def test_quartet_at_optimum_threshold(self, quartet):
        # At the exact best 2-clustering value (1 up to the rational
        # stand-in error) the greedy needs at most 2 clusters; below it,
        # more may be needed.
        opt = brute_opt_md(quartet, 2).value
        assert len(gp(quartet, opt)) <= 2

    def test_negative_threshold_rejected(self, quartet):
        with pytest.raises(ValueError):
            gp(quartet, "-1/2")

    def test_returns_partition(self):
        rng = random.Random(67)
        for trial in range(30):
            S = make_instance(4300 + trial, 6)
            D = Fraction(rng.randint(0, 60), 10)
            clusters = gp(S, D)
            seen = set()
            for c in clusters:
                assert c and not (c & seen)
                seen |= c
            assert seen == set(range(6))

    def test_cluster_diameter_bound(self):
        rng = random.Random(71)
        for trial in range(150):
            S = make_instance(4500 + trial, rng.randint(2, 7))
            D = Fraction(rng.randint(0, 50), 10)
            for c in gp(S, D):
                assert diameter(S, c) <= GP_BOUND * D

    def test_representatives_pairwise_far(self):
        rng = random.Random(73)
        for trial in range(60):
            S = make_instance(4700 + trial, 6)
            D = Fraction(rng.randint(0, 40), 10)
            reps = [min(c, key=lambda i: S[i]) for c in gp(S, D)]
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    assert pairwise_diameter(S[reps[a]], S[reps[b]]) > D

    def test_too_many_clusters_certifies_optimum_above_threshold(self):
        rng = random.Random(79)
        for trial in range(60):
            S = make_instance(4900 + trial, 6)
            D = Fraction(rng.randint(0, 30), 10)
            for k in (2, 3):
                if len(gp(S, D)) > k:
                    assert brute_opt_md(S, k).value > D


class TestBsearch:
    def test_one_gp_call_per_round(self, monkeypatch):
        # The clusters of the last round that set b are gp(S, b): gp runs
        # once more after the rounds only when no round set b.
        calls = []
        real = max_diameter.gp
        monkeypatch.setattr(max_diameter, "gp", lambda S, D: calls.append(D) or real(S, D))
        for seed in range(10):
            S = make_instance(5400 + seed, 12)
            for k in (1, 2, 3):
                calls.clear()
                sol = bsearch(S, k)
                b = sol.interval[1]
                assert sol.clustering == normalize_clustering(real(S, b))
                assert len(calls) == sol.iterations + (b not in calls[:sol.iterations])

    def test_k_equals_n_gives_singletons(self):
        S = make_instance(81, 5)
        sol = bsearch(S, 5)
        assert sol.value == 0
        assert all(len(c) == 1 for c in sol.clustering)

    @pytest.mark.parametrize("k", [0, -1, 6, 7])
    def test_k_outside_1_to_n_rejected(self, k):
        # the same rule as kcenter_gonzalez and the sum-of-diameters solvers
        S = make_instance(81, 5)
        with pytest.raises(ValueError, match=r"k must satisfy 1 <= k <= 5"):
            bsearch(S, k)

    def test_invalid_eps(self, quartet):
        with pytest.raises(ValueError):
            bsearch(quartet, 2, "0")

    def test_quartet_ratio(self, quartet):
        sol = bsearch(quartet, 2, "0.1")
        opt = brute_opt_md(quartet, 2).value
        assert sol.value <= (GP_BOUND + Fraction("0.1")) * opt

    def test_ratio_on_random_instances(self):
        eps = Fraction(1, 20)
        for trial in range(25):
            n = 4 + trial % 5
            S = make_instance(5100 + trial, n)
            for k in (2, 3):
                if k >= n:
                    continue
                sol = bsearch(S, k, eps)
                assert len(sol.clustering) <= k
                opt = brute_opt_md(S, k).value
                assert sol.value <= (GP_BOUND + eps) * opt

    def test_worst_found_ratios_within_bound(self):
        # The adversarial search's worst instance for each GP_FACTOR bound.
        pairs, D, ratio = GP_WORST
        S = TrajectorySet.from_pairs(pairs)
        assert md_value(S, gp(S, D)) / D == ratio <= GP_BOUND
        pairs, k, ratio = BSEARCH_WORST
        S = TrajectorySet.from_pairs(pairs)
        assert bsearch(S, k).value / brute_opt_md(S, k).value == ratio
        assert ratio <= GP_BOUND + Fraction(1, 20)

    def test_final_interval_and_iteration_bound(self):
        for trial in range(15):
            S = make_instance(5300 + trial, 6)
            sol = bsearch(S, 3, "0.05")
            a, b = sol.interval
            assert b - a <= sol.delta
            # halving [0, diameter(S)] reaches delta within log2 steps
            width = diameter(S, S.all_indices())
            bound = 1
            steps = 0
            while width > sol.delta * bound:
                bound *= 2
                steps += 1
            assert sol.iterations <= steps + 1

    @pytest.mark.parametrize(
        "S",
        [
            *(make_instance(1, n) for n in (12, 64, 2000)),
            TrajectorySet.from_pairs([(i, -i) for i in range(-99, 100)]),
        ],
        ids=["n=12", "n=64", "n=2000", "pencil-199"],
    )
    def test_iterations_are_the_least_halving_count(self, S):
        sol = bsearch(S, 3)
        width = diameter(S, S.all_indices())
        rounds = 0
        while width > sol.delta * 2**rounds:
            rounds += 1
        assert sol.iterations == rounds
        a, b = sol.interval
        assert b - a == width / 2**rounds

    def test_delta_uses_min_pairwise_diameter(self):
        S = make_instance(97, 5)
        eps = Fraction(1, 20)
        sol = bsearch(S, 2, eps)
        assert sol.delta == eps * min_pairwise(S) / GP_BOUND


class TestKcenter:
    def test_k_equals_n(self):
        S = make_instance(83, 5)
        centers, clustering = kcenter_gonzalez(S, 5)
        assert sorted(centers.centers) == list(range(5))
        assert md_value(S, clustering) == 0

    def test_k_equals_one(self):
        S = make_instance(89, 6)
        centers, clustering = kcenter_gonzalez(S, 1)
        assert centers.centers[0] == bottom_leftmost_index(S, S.all_indices())
        assert clustering == (frozenset(range(6)),)

    @pytest.mark.parametrize("n", [6, 24, 48])
    def test_matches_definition(self, n):
        for seed in range(3):
            S = make_instance(19700 + seed, n)
            for k in (1, 2, 4, n if n <= 24 else 9):
                assert kcenter_owners(kcenter_gonzalez(S, k)) == kcenter_by_definition(S, k)

    @pytest.mark.parametrize("pairs", list(TIE_FAMILIES.values()), ids=list(TIE_FAMILIES))
    def test_matches_definition_on_ties(self, pairs):
        # Tied distances exercise both tie rules: the farthest member with
        # the lowest index, and the nearest center with the lowest index.
        S = TrajectorySet.from_pairs(pairs)
        for k in range(1, len(S) + 1):
            assert kcenter_owners(kcenter_gonzalez(S, k)) == kcenter_by_definition(S, k)

    def test_out_of_range(self, quartet):
        for bad in (0, 5):
            with pytest.raises(ValueError):
                kcenter_gonzalez(quartet, bad)

    def test_assignment_is_nearest_center(self):
        for trial in range(20):
            S = make_instance(5500 + trial, 7)
            centers, owner = kcenter_owners(kcenter_gonzalez(S, 3))
            for i, c in enumerate(owner):
                d = pairwise_diameter(S[i], S[c])
                best = min(pairwise_diameter(S[i], S[x]) for x in centers)
                assert d == best

    def test_radius_at_most_twice_optimum(self):
        for trial in range(20):
            n = 5 + trial % 3
            S = make_instance(5700 + trial, n)
            for k in (2, 3):
                _, owner = kcenter_owners(kcenter_gonzalez(S, k))
                radius = max(pairwise_diameter(S[i], S[c]) for i, c in enumerate(owner))
                assert radius <= 2 * brute_opt_md(S, k).value

    def test_ratio_on_random_instances(self):
        for trial in range(25):
            n = 4 + trial % 5
            S = make_instance(5900 + trial, n)
            for k in (2, 3, 4):
                if k > n:
                    continue
                _, clustering = kcenter_gonzalez(S, k)
                assert md_value(S, clustering) <= KCENTER_BOUND * brute_opt_md(S, k).value


class TestBsearchRoundGuard:
    def test_raises_past_the_cap_before_any_gp_call(self, monkeypatch):
        S = make_instance(5960, 8)
        expected = bsearch(S, 3)

        def no_gp(*args):
            raise AssertionError("gp ran past the cap")

        monkeypatch.setattr(max_diameter, "MAX_BSEARCH_ROUNDS", expected.iterations - 1)
        with monkeypatch.context() as m:
            m.setattr(max_diameter, "gp", no_gp)
            with pytest.raises(ValueError, match=f"{expected.iterations} halvings"):
                bsearch(S, 3)
        monkeypatch.setattr(max_diameter, "MAX_BSEARCH_ROUNDS", expected.iterations)
        assert bsearch(S, 3) == expected

    def test_wide_coordinates_refused(self):
        # 14,286 halvings: each costs milliseconds on 14,000-digit integers.
        S = TrajectorySet.from_pairs([("1e4299", "0"), ("1/3", "2"), ("1e-4299", "1/7")])
        with pytest.raises(ValueError, match="14286 halvings .* MAX_BSEARCH_ROUNDS"):
            bsearch(S, 2)


class TestKcenterWorkGuard:
    def test_raises_past_the_cap_before_any_pair_term(self, monkeypatch):
        S = make_instance(5950, 8)
        expected = kcenter_gonzalez(S, 3)

        def no_terms(*args):
            raise AssertionError("a pair term was computed past the cap")

        monkeypatch.setattr(max_diameter, "MAX_CENTER_WORK", 8 * 3 - 1)
        with monkeypatch.context() as m:
            m.setattr(max_diameter, "_pair_terms", no_terms)
            with pytest.raises(ValueError, match="n \\* k = 24 .* MAX_CENTER_WORK = 23"):
                kcenter_gonzalez(S, 3)
        monkeypatch.setattr(max_diameter, "MAX_CENTER_WORK", 8 * 3)
        assert kcenter_gonzalez(S, 3) == expected

    def test_k_is_checked_before_the_cap(self, monkeypatch, quartet):
        monkeypatch.setattr(max_diameter, "MAX_CENTER_WORK", 0)
        with pytest.raises(ValueError, match="MAX_CENTER_WORK = 0"):
            kcenter_gonzalez(quartet, 1)
        for bad in (0, 5):
            with pytest.raises(ValueError) as caught:
                kcenter_gonzalez(quartet, bad)
            assert "MAX_CENTER_WORK" not in str(caught.value)


def pairs_of(S):
    return [(s.x0, s.x1) for s in S]


EQUIVARIANCE_CASES = [(21000 + i, n, k) for i, (n, k) in enumerate([(8, 2), (12, 3), (16, 4), (24, 5)])]

# Maps that keep the bottom-leftmost order, each with the factor a > 0 it
# applies to every pairwise span area.
ORDER_KEEPING_MAPS = {
    "translation": (lambda p: translated(p, Fraction(-37, 3), Fraction(-37, 3)), 1),
    "drift": (lambda p: translated(p, Fraction(-37, 3), Fraction(5, 7)), 1),
    "scaling": (lambda p: scaled(p, Fraction(3, 2)), Fraction(3, 2)),
}

# Maps that keep every span area up to |a| but change the bottom-leftmost
# order, so the solvers' outputs may change.
ORDER_CHANGING_MAPS = {
    "mirror": mirrored,
    "time-reversal": time_reversed,
    "negative-scaling": lambda p: scaled(p, Fraction(-5, 3)),
}


class TestEquivariance:
    """gp, bsearch and kcenter_gonzalez under maps of the instance.

    Translation, common drift and scaling by a > 0 keep the order gp and
    k-center seed from and multiply every pairwise area by a, so the
    clusters stay and bsearch's certificate scales by a.  An index
    permutation relabels gp and bsearch exactly, and k-center when no two
    pairwise areas tie (its ties go to the lowest index).  Under the other
    maps only bsearch's approximation bound is checked.
    """

    @pytest.mark.parametrize("name", sorted(ORDER_KEEPING_MAPS))
    @pytest.mark.parametrize("seed,n,k", EQUIVARIANCE_CASES)
    def test_order_keeping_maps(self, name, seed, n, k):
        move, a = ORDER_KEEPING_MAPS[name]
        S = make_instance(seed, n)
        T = move(pairs_of(S))
        for D in sorted(set(pair_areas(S))):
            assert gp(T, a * D) == gp(S, D)
        sol = bsearch(S, k)
        lo, hi = sol.interval
        assert bsearch(T, k) == replace(
            sol, value=a * sol.value, interval=(a * lo, a * hi), delta=a * sol.delta
        )
        assert kcenter_gonzalez(T, k) == kcenter_gonzalez(S, k)

    @pytest.mark.parametrize("seed,n,k", EQUIVARIANCE_CASES)
    def test_index_permutation(self, seed, n, k):
        S = make_instance(seed, n)
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        T, new = permuted(S, perm)

        def relabel(C):
            return frozenset(new[i] for i in C)

        for D in sorted(set(pair_areas(S))):
            assert gp(T, D) == tuple(map(relabel, gp(S, D)))
        sol = bsearch(S, k)
        assert bsearch(T, k) == replace(sol, clustering=normalize_clustering(map(relabel, sol.clustering)))

    @pytest.mark.parametrize("seed,n,k", EQUIVARIANCE_CASES)
    def test_kcenter_index_permutation_without_ties(self, seed, n, k):
        # A fine grid, so that no two pairwise areas tie.
        S = make_instance(seed, n, grid=1000)
        areas = pair_areas(S)
        assert len(set(areas)) == len(areas)
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        T, new = permuted(S, perm)
        centers, clustering = kcenter_gonzalez(S, k)
        moved_centers, moved_clustering = kcenter_gonzalez(T, k)
        assert moved_centers.centers == tuple(new[c] for c in centers.centers)
        assert moved_clustering == normalize_clustering({new[i] for i in C} for C in clustering)

    @pytest.mark.parametrize("name", sorted(ORDER_CHANGING_MAPS))
    def test_bsearch_bound_under_order_changing_maps(self, name):
        eps = Fraction(1, 20)
        for trial in range(12):
            n, k = 7 + trial % 3, 2 + trial % 2
            T = ORDER_CHANGING_MAPS[name](pairs_of(make_instance(21100 + trial, n)))
            assert bsearch(T, k, eps).value <= (GP_BOUND + eps) * brute_opt_md(T, k).value
