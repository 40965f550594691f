"""Shared instances and helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kinclust import GeneratorConfig, TrajectorySet, generate_instance

# Rational upper bounds for the irrational constants used in bound checks.
SQRT2_UPPER = Fraction("1.4142135624")
BALL_FACTOR = 2 + SQRT2_UPPER            # >= 2 + sqrt(2)
GP_BOUND = Fraction("2.7072")            # >= (4 + sqrt(2)) / 2
KCENTER_BOUND = Fraction("6.8285")       # >= 2 * (2 + sqrt(2))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# Degenerate line families, as (x0, x1) pairs by name, shared by the checks
# of the kernel and of the arrangement sweep against their referees.
DEGENERATE_FAMILIES = {
    # pencil through x=0 at t=1/2
    "pencil-mid": [(i, -i) for i in range(-4, 5)],
    # pencil through x=1/3 at t=1/7, plus lines off the pencil
    "pencil-off-grid": [
        (Fraction(1, 3) - Fraction(i, 7), Fraction(1, 3) + 6 * Fraction(i, 7)) for i in range(-3, 4)
    ]
    + [("5", "-5"), ("-2", "4")],
    # every crossing exactly at t=0, or exactly at t=1
    "pencil-at-0": [(0, i) for i in range(-4, 5)],
    "pencil-at-1": [(i, 3) for i in range(-4, 5)],
    # crossings at both strip edges together
    "pencils-at-both-edges": [(0, 1), (0, -1), (1, 0), (-1, 0), (2, 2)],
    # all parallel, and parallel families mixed with crossers
    "all-parallel": [(i, i + 2) for i in range(8)],
    "parallel-mixed": [(i, i) for i in range(5)] + [(0, 4), (4, 0), (Fraction(1, 2), Fraction(1, 2) + 1)],
    # a single member
    "single": [("3/7", "-2")],
    # pairwise co-prime denominators: the common denominator is huge
    "coprime-denominators": [
        (Fraction(1, p), Fraction(i % 5 - 2) - Fraction(1, p)) for i, p in enumerate(PRIMES)
    ],
}


ROOT = Path(__file__).resolve().parent.parent


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports kinclust from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


def make_instance(seed: int, n: int, grid: int = 10) -> TrajectorySet:
    """Seeded random instance on the default grid."""
    return generate_instance(GeneratorConfig(seed=seed, n=n, grid=grid))


# Instance transforms of the metamorphic checks, on (x0, x1) pairs.  Each
# keeps every span area (scaling multiplies it by |a|), and all but the
# permutation keep the indices.


def translated(pairs, c0, c1) -> TrajectorySet:
    """Shifted by c0 at t=0 and by c1 at t=1: a translation plus a common drift."""
    return TrajectorySet.from_pairs([(x0 + c0, x1 + c1) for x0, x1 in pairs])


def scaled(pairs, a) -> TrajectorySet:
    return TrajectorySet.from_pairs([(a * x0, a * x1) for x0, x1 in pairs])


def mirrored(pairs) -> TrajectorySet:
    """x -> -x."""
    return TrajectorySet.from_pairs([(-x0, -x1) for x0, x1 in pairs])


def time_reversed(pairs) -> TrajectorySet:
    """t -> 1 - t: the positions at t=0 and t=1 swap."""
    return TrajectorySet.from_pairs([(x1, x0) for x0, x1 in pairs])


def permuted(S: TrajectorySet, perm) -> tuple[TrajectorySet, dict[int, int]]:
    """New index j holds old index perm[j]; also returns the old -> new map."""
    return TrajectorySet(tuple(S[old] for old in perm)), {old: new for new, old in enumerate(perm)}


def random_fraction(rng: random.Random, lo: int, hi: int, den: int = 10) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_trajectory(rng: random.Random, span: int = 10, den: int = 10):
    from kinclust import Trajectory

    x0 = random_fraction(rng, 0, span, den)
    v = random_fraction(rng, -span // 2, span // 2, den)
    return Trajectory(x0, x0 + v)


# The four-trajectory instance whose unique optimal 2-clustering for the
# max-diameter objective pairs the interleaved wedges {0,2} and {1,3}; no
# hole-guided split sequence can produce it.  Uses a 10-digit rational
# stand-in for sqrt(2).
INTERLEAVED_QUARTET = (
    ("-2.4142135624", "1"),
    ("-0.9", "2"),
    ("0", "0"),
    ("0.1", "-0.4142135624"),
)


# Instances on which the well-separated DP's sum of diameters lies strictly
# above the exact optimum, by name: the k of the gap and the (x0, x1) pairs.
# On each, some well-separated clustering also beats the DP, because its
# clusters are not the differences of any chain of nested hole side-sets:
# on "n8-k4" that is {0}, {1}, {2, 3, 4, 5, 7}, {6}, at 4/3 against 17/12.
WELLSEP_GAP_CORPUS = {
    "n8-k4": (4, [(0, 0), (0, 3), (1, 3), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1)]),
    "n9-k5": (5, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 2), (2, 0), (3, 0), (3, 3)]),
    "n9-k4": (4, [(0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0), (3, 3)]),
}

# The worst instances a hill-climb over integer endpoints (n 3-8, grids
# 3-12) found for the two GP_FACTOR bounds, as (x0, x1) pairs with their
# exact ratios; neither ratio is known to be the largest possible.
# gp at threshold D: the largest cluster diameter over D.
GP_WORST = (
    [(0, 7), (0, 12), (1, 2), (2, 1), (5, 0), (5, 7), (5, 12), (6, 5)], Fraction(5, 2), Fraction(5, 2)
)
# bsearch at k (default eps): its value over the brute-force optimum.
BSEARCH_WORST = (
    [(0, 7), (0, 12), (1, 2), (2, 1), (3, 10), (5, 7), (6, 5), (11, 1)], 4, Fraction(5, 2)
)


@pytest.fixture
def decoded(monkeypatch) -> list:
    """The masks whose member sets ``arrangement`` decodes, one entry per decode.

    Every ``Hole.left_set`` read decodes its hole's mask afresh, so a path
    that reads no left set leaves the list empty.
    """
    from kinclust import arrangement

    masks = []
    decode = arrangement._mask_members

    def counting(mask, n):
        masks.append(mask)
        return decode(mask, n)

    monkeypatch.setattr(arrangement, "_mask_members", counting)
    return masks


@pytest.fixture(scope="session")
def quartet() -> TrajectorySet:
    return TrajectorySet.from_pairs(INTERLEAVED_QUARTET)


@pytest.fixture(scope="session")
def two_verticals() -> TrajectorySet:
    return TrajectorySet.from_pairs([("0", "0"), ("1", "1")])


@pytest.fixture(scope="session")
def three_lines() -> TrajectorySet:
    # Two crossing diagonals and one slow vertical: crossings at t = 1/10,
    # 1/2, 9/10, giving seven holes.
    return TrajectorySet.from_pairs([("0", "2"), ("2", "0"), ("0.2", "0.2")])
