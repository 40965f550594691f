"""Acceptance criteria: oracle equivalence and bound checks at desk scale.

One test per criterion, each printing a PASS line (run with ``-v -s`` to
see them).  The shared corpus holds 200 seeded instances with n in 4..9
and k in {2,3,4}, together with their brute-force optima.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from kinclust import (
    GeneratorConfig,
    Solution,
    Trajectory,
    TrajectorySet,
    bsearch,
    compute_holes,
    diameter,
    generate_instance,
    gp,
    is_covered,
    is_well_separated,
    kcenter_gonzalez,
    md_value,
    pairwise_diameter,
    sd_exact_goodseq,
    sd_value,
    sd_wellsep_dp,
)
from kinclust.max_diameter import GP_FACTOR
from kinclust.oracle import (
    bottom_leftmost_index,
    brute_opt,
    brute_opt_md,
    brute_opt_wellsep,
    enumerate_partitions,
    numeric_diameter,
    separates,
    stirling2,
)

from conftest import INTERLEAVED_QUARTET, KCENTER_BOUND

CORPUS_SIZE = 200
EPS = Fraction(1, 20)
BALL_BOUND = Fraction("3.4143")


def _report(num: int, name: str) -> None:
    print(f"criterion {num:02d} ({name}): PASS")


@dataclass(frozen=True)
class CorpusRecord:
    seed: int
    S: TrajectorySet
    k: int
    sd_opt: Solution
    md_opt: Solution
    wellsep_sd_opt: Solution


def _corpus_params():
    for i in range(CORPUS_SIZE):
        yield i, 4 + i % 6, 2 + (i // 6) % 3


@pytest.fixture(scope="session")
def corpus():
    records = []
    for i, n, k in _corpus_params():
        S = generate_instance(GeneratorConfig(seed=20000 + i, n=n))
        sd_opt, md_opt = brute_opt(S, k)
        records.append(
            CorpusRecord(
                seed=20000 + i,
                S=S,
                k=k,
                sd_opt=sd_opt,
                md_opt=md_opt,
                wellsep_sd_opt=brute_opt_wellsep(S, k, "sd"),
            )
        )
    return records


@pytest.fixture(scope="session")
def quartet_session():
    return TrajectorySet.from_pairs(INTERLEAVED_QUARTET)


def test_criterion_01_exact_solver_equals_brute_force(corpus):
    started = time.monotonic()
    for rec in corpus:
        sol = sd_exact_goodseq(rec.S, rec.k)
        assert sol.value == rec.sd_opt.value, f"seed {rec.seed}"
        assert sd_value(rec.S, sol.clustering) == sol.value
    elapsed = time.monotonic() - started
    assert elapsed < 300
    _report(1, f"exact solver == brute force on {CORPUS_SIZE} instances, {elapsed:.0f}s")


def test_criterion_02_wellsep_dp_equals_filtered_brute_force(corpus):
    for rec in corpus:
        sol = sd_wellsep_dp(rec.S, rec.k)
        assert sol.value == rec.wellsep_sd_opt.value, f"seed {rec.seed}"
        assert is_well_separated(rec.S, sol.clustering), f"seed {rec.seed}"
    _report(2, "well-separated DP == filtered brute force, traceback well separated")


def test_criterion_03_wellsep_ratio_bound(corpus):
    for rec in corpus:
        bound = (1 + rec.k // 2) * rec.sd_opt.value
        assert sd_wellsep_dp(rec.S, rec.k).value <= bound, f"seed {rec.seed}"
    _report(3, "well-separated value <= (1 + floor(k/2)) * optimum")


def test_criterion_04_bsearch_ratio_bound(corpus):
    for rec in corpus:
        sol = bsearch(rec.S, rec.k, EPS)
        assert len(sol.clustering) <= rec.k
        assert sol.value <= (GP_FACTOR + EPS) * rec.md_opt.value, f"seed {rec.seed}"
    _report(4, "bsearch value <= (2.7072 + 1/20) * optimum")


def test_criterion_05_gp_cluster_diameter_bound():
    rng = random.Random(424242)
    pairs = 0
    while pairs < 1000:
        n = rng.randint(2, 7)
        S = generate_instance(GeneratorConfig(seed=30000 + pairs, n=n))
        whole = diameter(S, S.all_indices())
        D = whole * Fraction(rng.randint(0, 64), 64)
        for C in gp(S, D):
            assert diameter(S, C) <= GP_FACTOR * D
        pairs += 1
    _report(5, "every gp cluster diameter <= 2.7072 * D on 1000 (instance, D) pairs")


def test_criterion_06_gp_certificate(corpus):
    rng = random.Random(515151)
    checked = 0
    for rec in corpus:
        whole = diameter(rec.S, rec.S.all_indices())
        for _ in range(5):
            D = whole * Fraction(rng.randint(0, 32), 32)
            if len(gp(rec.S, D)) > rec.k:
                assert rec.md_opt.value > D, f"seed {rec.seed}"
                checked += 1
    assert checked > 0
    _report(6, f"gp overflow certifies optimum > D ({checked} occurrences)")


def test_criterion_07_kcenter_ratio(corpus):
    for rec in corpus:
        _, clustering = kcenter_gonzalez(rec.S, rec.k)
        assert md_value(rec.S, clustering) <= KCENTER_BOUND * rec.md_opt.value, f"seed {rec.seed}"
    _report(7, "k-center value <= 6.8285 * optimum")


def test_criterion_08_interleaved_quartet(quartet_session):
    S = quartet_session
    sol = brute_opt_md(S, 2)
    expected = (frozenset({0, 2}), frozenset({1, 3}))
    assert abs(sol.value - 1) <= Fraction(1, 10**8)
    assert sol.clustering == expected
    for blocks in enumerate_partitions(4, 2):
        clusters = tuple(frozenset(b) for b in blocks)
        if clusters != expected:
            assert md_value(S, clusters) > sol.value + Fraction(1, 10**9)
    for h in compute_holes(S):
        if h.kind == "bounded":
            assert is_covered(S, h, expected)
    assert not is_well_separated(S, expected)
    _report(8, "interleaved quartet: unique optimum 1, all bounded holes covered")


def test_criterion_09_structure_of_optima(corpus):
    for rec in corpus:
        clustering = rec.sd_opt.clustering
        assert all(c for c in clustering)
        holes = compute_holes(rec.S)
        bounded = [h for h in holes if h.kind == "bounded"]
        # at least one bounded hole stays uncovered
        assert any(not is_covered(rec.S, h, clustering) for h in bounded), f"seed {rec.seed}"
        # every pair of clusters is separated by some hole
        for a, b in combinations(clustering, 2):
            assert any(separates(rec.S, h, a, b) for h in holes), f"seed {rec.seed}"
        # an optimum with exactly k clusters exists: peel bottom-leftmost
        # trajectories off multi-member clusters without losing value
        clusters = list(clustering)
        while len(clusters) < rec.k:
            donor = max(clusters, key=len)
            assert len(donor) >= 2
            s = bottom_leftmost_index(rec.S, donor)
            clusters.remove(donor)
            clusters += [donor - {s}, frozenset({s})]
        assert sd_value(rec.S, clusters) == rec.sd_opt.value, f"seed {rec.seed}"
    _report(9, "optima: uncovered hole, pairwise separation, no empty clusters")


def test_criterion_10_geometry_invariants():
    started = time.monotonic()
    rng = random.Random(616161)

    def rand_traj():
        x0 = Fraction(rng.randint(0, 100), 10)
        v = Fraction(rng.randint(-50, 50), 10)
        return Trajectory(x0, x0 + v)

    for _ in range(10**4):
        a, b, c = rand_traj(), rand_traj(), rand_traj()
        assert pairwise_diameter(a, b) + pairwise_diameter(b, c) >= pairwise_diameter(a, c)

    for _ in range(10**4):
        s, v = rand_traj(), rand_traj()
        assert pairwise_diameter(s, v) >= abs(s.midpoint() - v.midpoint())

    for _ in range(10**4):
        s = rand_traj()
        r = Fraction(rng.randint(1, 30), 10)
        members = {s}
        for _ in range(4):
            a = Trajectory(
                s.x0 + Fraction(rng.randint(-25, 25), 10),
                s.x1 + Fraction(rng.randint(-25, 25), 10),
            )
            if a not in members and pairwise_diameter(s, a) <= r:
                members.add(a)
        S = TrajectorySet(tuple(members))
        assert diameter(S, S.all_indices()) <= BALL_BOUND * r

    for trial in range(10**4):
        n = 1 + trial % 7
        seen = []
        while len(seen) < n:
            t = rand_traj()
            if t not in seen:
                seen.append(t)
        S = TrajectorySet(tuple(seen))
        holes = compute_holes(S)
        assert len(holes) <= n * (n + 1) // 2 + 1
        kinds = [h.kind for h in holes]
        assert kinds.count("unbounded_left") == 1
        assert kinds.count("unbounded_right") == 1

    elapsed = time.monotonic() - started
    assert elapsed < 120
    _report(10, f"triangle/midpoint/ball/hole invariants, 4x10^4 trials, {elapsed:.0f}s")


def test_criterion_11_numeric_area_cross_check(corpus):
    rng = random.Random(717171)
    checked = 0
    while checked < 500:
        rec = corpus[rng.randrange(len(corpus))]
        n = len(rec.S)
        size = rng.randint(2, min(5, n))
        C = frozenset(rng.sample(range(n), size))
        exact = diameter(rec.S, C)
        approx = numeric_diameter(rec.S, C, steps=4096)
        assert abs(approx - exact) <= exact / 256
        checked += 1
    _report(11, "midpoint rule at 4096 steps within diameter/256 on 500 clusters")


def test_criterion_12_partition_counts_and_bound():
    for n in range(1, 11):
        for k in range(1, n + 1):
            counts = {}
            for blocks in enumerate_partitions(n, k):
                counts[len(blocks)] = counts.get(len(blocks), 0) + 1
            for j in range(1, k + 1):
                assert counts.get(j, 0) == stirling2(n, j)
    # closed-form lower bound, valid for k < n (and trivially at n = k = 1)
    for n in range(1, 11):
        for k in range(1, n):
            bound = Fraction(k * k + k + 2, 2) * Fraction(k) ** (n - k - 1) - 1
            assert stirling2(n, k) >= bound
    assert stirling2(1, 1) >= Fraction(4, 2) * Fraction(1) ** (-1) - 1
    _report(12, "partition stream counts match Stirling numbers; lower bound holds")
