"""Arrangement holes, side predicates, and the side-set inclusion poset."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from kinclust import (
    TrajectorySet,
    build_poset,
    compute_holes,
    envelope,
    hole_within_span,
    is_covered,
    is_well_separated,
    separates,
    side_partition,
)
from kinclust.oracle import brute_opt_sd, holes_slab, poset_by_inclusion

from conftest import DEGENERATE_FAMILIES, make_instance

F = Fraction


def holes_by_left_set(S):
    return {h.left_set: h for h in compute_holes(S)}


def hasse_edges(poset):
    """Cover relations of the poset: A -> B with A < B and nothing strictly between."""
    edges = []
    for a in poset.elements:
        sups = poset.successors[a]
        for b in sups:
            if not any(a < c < b for c in sups):
                edges.append((a, b))
    return tuple(edges)


class TestComputeHoles:
    def test_two_verticals(self, two_verticals):
        holes = compute_holes(two_verticals)
        assert len(holes) == 3
        assert {h.left_set for h in holes} == {frozenset(), frozenset({0}), frozenset({0, 1})}
        kinds = {frozenset(): "unbounded_left", frozenset({0}): "bounded",
                 frozenset({0, 1}): "unbounded_right"}
        for h in holes:
            assert h.kind == kinds[h.left_set]
            assert (h.t_lo, h.t_hi) == (0, 1)

    def test_three_lines_hole_table(self, three_lines):
        # Hand-workable sweep: crossings at t = 1/10, 1/2, 9/10.
        table = {h.left_set: (h.t_lo, h.t_hi) for h in compute_holes(three_lines)}
        expected = {
            frozenset(): (F(0), F(1)),
            frozenset({0, 1, 2}): (F(0), F(1)),
            frozenset({0}): (F(0), F(1, 10)),
            frozenset({0, 2}): (F(0), F(1, 2)),
            frozenset({2}): (F(1, 10), F(9, 10)),
            frozenset({1, 2}): (F(1, 2), F(1)),
            frozenset({1}): (F(9, 10), F(1)),
        }
        assert table == expected

    def test_pairwise_crossing_count_is_exact(self):
        # All crossings inside the strip at distinct times: the face count
        # reaches 1 + n + C(n, 2).
        n = 6
        S = TrajectorySet.from_pairs(
            [(F(i), F(-i) + F(2**i, 1000)) for i in range(1, n + 1)]
        )
        times = set()
        for i, j in combinations(range(n), 2):
            d0 = S[i].x0 - S[j].x0
            d1 = S[i].x1 - S[j].x1
            t = d0 / (d0 - d1)
            assert 0 < t < 1
            times.add(t)
        assert len(times) == n * (n - 1) // 2
        assert len(compute_holes(S)) == 1 + n + n * (n - 1) // 2

    def test_single_trajectory(self):
        S = TrajectorySet.from_pairs([("0", "1")])
        holes = compute_holes(S)
        assert len(holes) == 2
        assert {h.kind for h in holes} == {"unbounded_left", "unbounded_right"}

    def test_pencil_of_concurrent_lines(self):
        # n lines through one interior point cut the strip into 2n sectors;
        # the sweep must survive the maximal concurrency.
        S = TrajectorySet.from_pairs(
            [(F(2) - F(s, 2), F(2) + F(s, 2)) for s in range(-3, 4)]
        )
        assert len(compute_holes(S)) == 2 * len(S)

    def test_crossings_at_strip_boundary(self):
        # shared endpoints at t=0 and t=1 are legal; only identical
        # endpoint pairs are duplicates
        S = TrajectorySet.from_pairs(
            [("0", "0"), ("0", "1"), ("1", "1"), ("1", "0"), ("0.5", "0.5")]
        )
        holes = compute_holes(S)
        assert len(holes) <= 5 * 6 // 2 + 1
        assert len({h.left_set for h in holes}) == len(holes)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            compute_holes(TrajectorySet(()))

    def test_count_bound_and_unbounded_pair(self):
        rng = random.Random(3)
        for trial in range(200):
            n = rng.randint(1, 7)
            S = make_instance(5000 + trial, n)
            holes = compute_holes(S)
            assert len(holes) <= n * (n + 1) // 2 + 1
            kinds = [h.kind for h in holes]
            assert kinds.count("unbounded_left") == 1
            assert kinds.count("unbounded_right") == 1
            # distinct faces have distinct left sets
            assert len({h.left_set for h in holes}) == len(holes)

    def test_no_trajectory_enters_a_gap(self):
        # Sampled at slab midpoints: every trajectory position stays outside
        # the open gap of every hole.
        for trial in range(40):
            S = make_instance(7000 + trial, 6)
            full = S.all_indices()
            for h in compute_holes(S):
                if h.kind != "bounded":
                    continue
                right = full - h.left_set
                for num in (1, 3, 7):
                    t = h.t_lo + (h.t_hi - h.t_lo) * F(num, 8)
                    lo = max(S[i].position(t) for i in h.left_set)
                    hi = min(S[i].position(t) for i in right)
                    assert lo <= hi
                    for i in range(len(S)):
                        assert not lo < S[i].position(t) < hi


# Families that stress the event sweep: several pencils at one time, a line
# passing between them, an integer grid full of concurrent crossings, and
# crossing times too close for floats to tell apart.
SWEEP_FAMILIES = {
    **DEGENERATE_FAMILIES,
    "two-pencils-one-time": [(i, -i) for i in range(-2, 3)] + [(10 + i, 10 - i) for i in range(-2, 3)],
    "three-pencils-and-a-bystander": [(i, -i) for i in (-1, 1)]
    + [(3 + i, 3 - i) for i in (-2, 0, 2)]
    + [(7 + i, 7 - i) for i in (-1, 1)]
    + [(5, 0)],
    "integer-grid": [(a, b) for a in range(4) for b in range(4)],
    # Lines 0 and 1 cross at t=1/3; line 2 crosses line 1, and line 3
    # crosses line 0, at t=1/3 + 10^-20, whose float equals that of 1/3,
    # so only the exact times put the events in order.
    "equal-float-times": [
        (-F(1, 3), F(2, 3)),
        (F(1, 3), -F(2, 3)),
        (-F(1, 10**20) - 3 * (F(1, 3) + F(1, 10**20)), -F(1, 10**20) + 3 * (F(2, 3) - F(1, 10**20))),
        (F(1, 10**20) + 3 * (F(1, 3) + F(1, 10**20)), F(1, 10**20) - 3 * (F(2, 3) - F(1, 10**20))),
    ],
}


def _assert_sweep_matches_referees(S):
    holes = compute_holes(S)
    assert holes == holes_slab(S)
    poset = build_poset(S, holes)
    reference = poset_by_inclusion(S, holes)
    assert poset.elements == reference.elements
    assert poset.successors == reference.successors


class TestSweepMatchesReferees:
    """The event sweep and the bitset poset against the slab-sort and
    frozenset-comparison referees in ``kinclust.oracle``."""

    def test_random_small(self):
        for trial in range(60):
            n = 1 + trial % 12
            _assert_sweep_matches_referees(make_instance(16000 + trial, n))

    @pytest.mark.parametrize("n", [24, 40, 64])
    def test_random_beyond_brute_force(self, n):
        for seed in range(2 if n == 64 else 3):
            _assert_sweep_matches_referees(make_instance(17000 + seed, n))

    @pytest.mark.parametrize("grid", [1, 2, 1000])
    def test_coarse_and_fine_grids(self, grid):
        # On a coarse grid many crossings share a time or a point.
        for seed in range(4):
            _assert_sweep_matches_referees(make_instance(18000 + seed, 20, grid=grid))

    @pytest.mark.parametrize("pairs", list(SWEEP_FAMILIES.values()), ids=list(SWEEP_FAMILIES))
    def test_degenerate_families(self, pairs):
        _assert_sweep_matches_referees(TrajectorySet.from_pairs(pairs))


class TestSidePredicates:
    def test_unbounded_left_partition(self, three_lines):
        h = holes_by_left_set(three_lines)[frozenset()]
        assert side_partition(three_lines, h) == (frozenset(), frozenset({0, 1, 2}))

    def test_two_verticals_middle(self, two_verticals):
        h = holes_by_left_set(two_verticals)[frozenset({0})]
        assert side_partition(two_verticals, h) == (frozenset({0}), frozenset({1}))

    def test_span_instance_has_low_pair_hole(self):
        # The two trajectories with black endpoints lie left of the shaded
        # face between them and the white-ended ones.
        S = TrajectorySet.from_pairs(
            [("0", "6.15385"), ("2.46154", "2.46154"), ("4.92308", "1.23077"), ("8", "4.30769")]
        )
        table = holes_by_left_set(S)
        assert frozenset({0, 1}) in table
        h = table[frozenset({0, 1})]
        assert side_partition(S, h) == (frozenset({0, 1}), frozenset({2, 3}))

    def test_hole_within_span_full_set(self, three_lines):
        for h in compute_holes(three_lines):
            expected = h.kind == "bounded"
            assert hole_within_span(three_lines, h, {0, 1, 2}) is expected

    def test_hole_within_span_one_side(self, three_lines):
        h = holes_by_left_set(three_lines)[frozenset({0, 2})]
        assert not hole_within_span(three_lines, h, {0, 2})
        assert not hole_within_span(three_lines, h, {1})

    def test_hole_within_span_matches_geometric_containment(self):
        # Independent check: C spans the hole iff at slab midpoints inside
        # the extent, C's envelopes enclose the gap.
        rng = random.Random(9)
        for trial in range(30):
            S = make_instance(9000 + trial, 6)
            full = S.all_indices()
            holes = [h for h in compute_holes(S) if h.kind == "bounded"]
            for _ in range(8):
                C = frozenset(rng.sample(range(6), rng.randint(1, 5)))
                left_env = envelope(S, C, "left")
                right_env = envelope(S, C, "right")
                for h in holes:
                    t = (h.t_lo + h.t_hi) / 2
                    gap_lo = max(S[i].position(t) for i in h.left_set)
                    gap_hi = min(S[i].position(t) for i in full - h.left_set)
                    geometric = left_env.value(t) <= gap_lo and right_env.value(t) >= gap_hi
                    assert hole_within_span(S, h, C) is geometric

    def test_is_covered(self, three_lines):
        holes = compute_holes(three_lines)
        singletons = (frozenset({0}), frozenset({1}), frozenset({2}))
        for h in holes:
            assert is_covered(three_lines, h, [{0, 1, 2}]) is (h.kind == "bounded")
            assert not is_covered(three_lines, h, singletons)

    def test_quartet_covers_every_bounded_hole(self, quartet):
        clustering = (frozenset({0, 2}), frozenset({1, 3}))
        for h in compute_holes(quartet):
            if h.kind == "bounded":
                assert is_covered(quartet, h, clustering)
        assert not is_well_separated(quartet, clustering)

    def test_separates(self, two_verticals):
        h = holes_by_left_set(two_verticals)[frozenset({0})]
        assert separates(two_verticals, h, {0}, {1})
        assert separates(two_verticals, h, {1}, {0})
        assert not separates(two_verticals, h, {0, 1}, {1})

    def test_optimal_pairs_are_hole_separated(self):
        # In a best clustering for the diameter sum, merging any two
        # clusters never helps, so some hole separates each pair.
        for trial in range(12):
            n = 5 + trial % 3
            S = make_instance(11000 + trial, n)
            sol = brute_opt_sd(S, 3)
            holes = compute_holes(S)
            clusters = sol.clustering
            for a, b in combinations(clusters, 2):
                assert any(separates(S, h, a, b) for h in holes)


class TestWellSeparated:
    def test_single_cluster_trivially_true(self, three_lines):
        assert is_well_separated(three_lines, [{0, 1, 2}])

    def test_two_verticals_split(self, two_verticals):
        assert is_well_separated(two_verticals, [{0}, {1}])

    def test_nested_span_clustering_is_not(self):
        # A trajectory escaping through a straddling cluster: every hole
        # separating it from its host pair is covered.
        S = TrajectorySet.from_pairs(
            [("0.5", "0.5"), ("1.3", "5"), ("3", "4"), ("5", "2"), ("6", "6")]
        )
        clustering = (frozenset({0, 2}), frozenset({1}), frozenset({3, 4}))
        assert not is_well_separated(S, clustering)

    def test_quartet_pairing_is_not(self, quartet):
        assert not is_well_separated(quartet, [{0, 2}, {1, 3}])

    def test_matches_pairwise_definition(self):
        # Random clusterings, partitions or not, with empty, duplicate and
        # overlapping clusters, against the pair-by-pair reading of the rule.
        rng = random.Random(12000)
        seen = set()
        for trial in range(600):
            n = 1 + trial % 9
            S = make_instance(12000 + trial, n)
            labels = [rng.randrange(1 + trial % 5) for _ in range(n)]
            clustering = [{i for i in range(n) if labels[i] == c} for c in set(labels)]
            extra = rng.randrange(4)
            if extra == 1:
                clustering.append(set())
            elif extra == 2:
                clustering.append(set(rng.choice(clustering)))
            elif extra == 3:
                clustering.append(set(rng.sample(range(n), rng.randint(1, n))))
            rng.shuffle(clustering)
            clusters = [frozenset(C) for C in clustering if C]
            uncovered = [h for h in compute_holes(S) if not is_covered(S, h, clusters)]
            expected = all(
                any(separates(S, h, a, b) for h in uncovered)
                for a, b in combinations(clusters, 2)
            )
            assert is_well_separated(S, clustering) is expected, (trial, clustering)
            seen.add(expected)
        assert seen == {True, False}


class TestSeparatorPoset:
    def test_two_verticals_structure(self, two_verticals):
        poset = build_poset(two_verticals, compute_holes(two_verticals))
        e, a, b, s = frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})
        assert poset.elements == (e, a, b, s)
        assert poset.elements[0] == e and poset.elements[-1] == s
        assert poset.successors[e] == (a, b, s)
        assert poset.successors[a] == (s,)
        assert poset.successors[b] == (s,)

    def test_three_lines_all_subsets(self, three_lines):
        poset = build_poset(three_lines, compute_holes(three_lines))
        assert len(poset) == 8  # every subset of a 3-element set

    def test_order_is_strict_inclusion(self):
        for trial in range(10):
            S = make_instance(13000 + trial, 6)
            poset = build_poset(S, compute_holes(S))
            for a in poset.elements:
                sups = set(poset.successors[a])
                for b in poset.elements:
                    assert (b in sups) == (a < b)

    def test_source_sink(self):
        for trial in range(10):
            S = make_instance(14000 + trial, 5)
            poset = build_poset(S, compute_holes(S))
            assert poset.elements[0] == frozenset()
            assert poset.elements[-1] == S.all_indices()


class TestSixTrajectoryDag:
    """A six-trajectory instance with 14 faces whose 26 side-sets form a
    reference inclusion dag; its Hasse diagram is re-derived here from raw
    set inclusion and compared with the poset's."""

    S = TrajectorySet.from_pairs(
        [("0", "1.5"), ("0.7", "11"), ("3", "4.5"), ("4", "8"), ("6", "3"), ("10", "6")]
    )

    EXPECTED_SIDE_SETS = [
        (), (0,), (1,), (5,),
        (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (3, 5), (4, 5),
        (0, 1, 2), (0, 2, 4), (1, 3, 5), (3, 4, 5),
        (0, 1, 2, 3), (0, 1, 2, 4), (0, 2, 3, 4), (0, 2, 4, 5),
        (1, 2, 3, 5), (1, 3, 4, 5), (2, 3, 4, 5),
        (0, 1, 2, 3, 4), (0, 2, 3, 4, 5), (1, 2, 3, 4, 5),
        (0, 1, 2, 3, 4, 5),
    ]

    def test_fourteen_holes(self):
        assert len(compute_holes(self.S)) == 14

    def test_side_sets(self):
        poset = build_poset(self.S, compute_holes(self.S))
        assert sorted(tuple(sorted(c)) for c in poset.elements) == sorted(self.EXPECTED_SIDE_SETS)

    def test_hasse_matches_raw_inclusion(self):
        poset = build_poset(self.S, compute_holes(self.S))
        sets = [frozenset(c) for c in self.EXPECTED_SIDE_SETS]
        covers = set()
        for a in sets:
            for b in sets:
                if a < b and not any(a < c < b for c in sets):
                    covers.add((a, b))
        assert set(hasse_edges(poset)) == covers
        assert len(covers) == 44

    def test_isomorphic_to_reference_dag(self):
        networkx = pytest.importorskip("networkx")
        poset = build_poset(self.S, compute_holes(self.S))
        ours = networkx.DiGraph()
        ours.add_edges_from(
            (tuple(sorted(a)), tuple(sorted(b))) for a, b in hasse_edges(poset)
        )
        reference = networkx.DiGraph()
        sets = [frozenset(c) for c in self.EXPECTED_SIDE_SETS]
        for a in sets:
            for b in sets:
                if a < b and not any(a < c < b for c in sets):
                    reference.add_edge(tuple(sorted(a)), tuple(sorted(b)))
        assert networkx.is_isomorphic(ours, reference)


class TestUncoveredHoleAtOptimum:
    def test_sum_optimum_leaves_a_bounded_hole_uncovered(self):
        # With more than one cluster a best clustering cannot cover every
        # bounded face, otherwise splitting off the bottom-leftmost
        # trajectory would improve it.
        for trial in range(12):
            S = make_instance(15000 + trial, 6)
            for k in (2, 3):
                sol = brute_opt_sd(S, k)
                if len(sol.clustering) < 2:
                    continue
                bounded = [h for h in compute_holes(S) if h.kind == "bounded"]
                assert any(not is_covered(S, h, sol.clustering) for h in bounded)
