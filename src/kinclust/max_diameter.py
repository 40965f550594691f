"""Approximation algorithms minimizing the maximum cluster diameter.

The decision-style greedy ``gp`` grows a cluster around the current
bottom-leftmost trajectory out of everything within pairwise diameter D,
and recurses on the rest.  ``bsearch`` wraps it in an approximate binary
search over D.  ``kcenter_gonzalez`` instead reduces to metric k-center
(the pairwise span area is a metric) with farthest-point seeding.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .geometry import (
    Clustering,
    ScalarLike,
    Solution,
    TrajectorySet,
    _pair_terms,
    as_scalar,
    check_k,
    diameter,
    normalize_clustering,
)

# Exact rational upper bound on the growth constant (4 + sqrt(2)) / 2 that
# caps the diameter of every cluster built by gp at GP_FACTOR * D.
GP_FACTOR = Fraction("2.7072")

# Most pair terms one ``kcenter_gonzalez`` call may compute, n per center.
# A term takes about 0.75 us on CPython 3.11.7, so the cap is about 11 s;
# n=10^5 at k=4 takes 400,000 terms and n=2000 at k=1000 two million.  Past
# the cap the call raises ValueError before the first center.
MAX_CENTER_WORK = 15_000_000

# Most halvings one ``bsearch`` call may make, counted before the first gp
# call; past the cap it raises ValueError.  Generated instances need 9-18
# (the tier-1 tests) and 10-14 (the benchmark); eps = 2^-980 needs 990, in
# 0.24 s at n=256, and three lines with 4000-digit coordinates need 996, in
# 1.3 s, on CPython 3.11.7.  Coordinates 1e4299 and 1e-4299 apart need
# 14,286 halvings of about 5 ms each.
MAX_BSEARCH_ROUNDS = 1000


def md_value(S: TrajectorySet, clustering: Iterable[Iterable[int]]) -> Fraction:
    """Largest cluster diameter in the clustering."""
    return max((diameter(S, C) for C in clustering), default=Fraction(0))


@dataclass(frozen=True)
class CenterSet:
    """The chosen center indices, in the order they were picked."""

    centers: tuple[int, ...]


def gp(S: TrajectorySet, D: ScalarLike) -> Clustering:
    """Greedy partition with pairwise-diameter threshold D.

    Repeatedly take the bottom-leftmost remaining trajectory s and make a
    cluster of every remaining s' with pairwise diameter at most D (s
    itself included, its self-distance being zero).  Clusters come out in
    the order their representatives were picked.  A representative's
    pairwise diameters p / (2 den q) to the members still left (see
    ``_pair_terms``) are tested against D = Dn / Dd as
    p * Dd <= Dn * 2 den * q, with no Fraction per entry and no row kept.
    A pair's area is at least its midpoint distance |Δ(2a + v)| / (2 den),
    so only the members whose midpoint lies within (Dn * 2 den) // Dd of
    the representative's, a window of the kernel's ``by_mid`` order, are
    tested, or every member still left when fewer remain.  Lines that all
    share one midpoint, a pencil through t = 1/2, still test every pair.
    """
    D = as_scalar(D)
    if D < 0:
        raise ValueError(f"threshold D must be nonnegative, got {D}")
    kernel = S.kernel
    lines, mids, by_mid = kernel.lines, kernel.mids, kernel.by_mid
    Dd, bound = D.denominator, D.numerator * 2 * kernel.den
    reach = bound // Dd
    rest = set(range(len(S)))
    clusters = []
    for s in kernel.leftmost:
        if s in rest:
            v, a = lines[s]
            mid = 2 * a + v
            lo = bisect_left(mids, mid - reach)
            hi = bisect_right(mids, mid + reach, lo)
            window = rest if hi - lo >= len(rest) else rest.intersection(by_mid[lo:hi])
            members = []
            # _pair_terms written out: a call per entry made bsearch up to 40%
            # slower at n = 32-64, a row built and then compared 20-30%.
            for j in window:
                w, b = lines[j]
                d0 = a - b
                d1 = d0 + v - w
                if (
                    abs(d0 + d1) * Dd <= bound
                    if d0 * d1 >= 0
                    else (d0 * d0 + d1 * d1) * Dd <= bound * abs(d0 - d1)
                ):
                    members.append(j)
            rest.difference_update(members)
            clusters.append(frozenset(members))
    return tuple(clusters)


def bsearch(S: TrajectorySet, k: int, eps: ScalarLike = Fraction(1, 20)) -> Solution:
    """Approximate binary search over the gp threshold.

    Halves [0, diameter(S)] until the interval is shorter than
    delta = eps * (minimum pairwise diameter) / GP_FACTOR, keeping the
    invariant that gp at b needs at most k clusters.  The result is within
    a factor GP_FACTOR + eps of the best possible maximum diameter.  All
    arithmetic stays rational, so the number of halvings is known exactly
    before the first gp call; past MAX_BSEARCH_ROUNDS the call raises
    ValueError.  k must satisfy 1 <= k <= n; k == n gives the singletons.
    """
    eps = as_scalar(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    n = len(S)
    check_k(k, n)
    if k == n:
        singletons = normalize_clustering([frozenset([i]) for i in range(n)])
        return Solution(
            singletons,
            Fraction(0),
            "md",
            "bsearch",
            interval=(Fraction(0), Fraction(0)),
            iterations=0,
        )

    delta = eps * S.kernel.min_pair_area() / GP_FACTOR
    a = Fraction(0)
    b = diameter(S, S.all_indices())
    # Round t leaves an interval of width b / 2^t: the search stops at the
    # least t with b <= delta * 2^t.
    rounds = (math.ceil(b / delta) - 1).bit_length()
    if rounds > MAX_BSEARCH_ROUNDS:
        raise ValueError(
            f"bsearch: {rounds} halvings to reach delta = eps * (least pair diameter) "
            f"/ GP_FACTOR is more than MAX_BSEARCH_ROUNDS = {MAX_BSEARCH_ROUNDS}"
        )
    # The clusters of the last round that set b, which are gp(S, b).
    clusters: Clustering | None = None
    for _ in range(rounds):
        D = (a + b) / 2
        found = gp(S, D)
        if len(found) > k:
            a = D
        else:
            b, clusters = D, found
    if clusters is None:
        clusters = gp(S, b)
    clustering = normalize_clustering(clusters)
    return Solution(
        clustering,
        md_value(S, clustering),
        "md",
        "bsearch",
        interval=(a, b),
        delta=delta,
        iterations=rounds,
    )


def kcenter_gonzalez(S: TrajectorySet, k: int) -> tuple[CenterSet, Clustering]:
    """Farthest-point k-center under the pairwise-diameter metric.

    Seeded at the bottom-leftmost trajectory for determinism; each next
    center maximizes the distance to the chosen ones (ties to the lowest
    index).  Every trajectory is then assigned to its nearest center,
    again with ties to the lowest center index, so the induced clusters
    are disjoint.  Each member keeps its nearest distance as an integer
    pair p / q (see ``_pair_terms``), 1/0 before the seed, and its owning
    center; a new center takes a member over when (distance, center
    index) is lexicographically smaller, compared by cross-multiplication.
    A center owns itself, so each cluster holds exactly one center, and
    each center's distances are computed once, when it is picked.  Raises
    ValueError when its n * k pair terms would exceed MAX_CENTER_WORK.
    """
    n = len(S)
    check_k(k, n)
    if n * k > MAX_CENTER_WORK:
        raise ValueError(
            f"kcenter_gonzalez: n * k = {n * k} pair terms is more than "
            f"MAX_CENTER_WORK = {MAX_CENTER_WORK}"
        )

    kernel = S.kernel
    near_p, near_q, owner = [1] * n, [0] * n, [n] * n
    centers = [kernel.leftmost[0]]
    for c in centers:  # the list grows to k centers
        v, a = kernel.lines[c]
        for i, (w, b) in enumerate(kernel.lines):
            p, q = _pair_terms(a - b, a - b + v - w)
            cmp = p * near_q[i] - near_p[i] * q
            if cmp < 0 or (cmp == 0 and c < owner[i]):
                near_p[i], near_q[i], owner[i] = p, q, c
        if len(centers) < k:
            far = 0
            for i in range(1, n):
                if near_p[i] * near_q[far] > near_p[far] * near_q[i]:
                    far = i
            centers.append(far)

    groups: dict[int, set[int]] = {c: set() for c in centers}
    for i, c in enumerate(owner):
        groups[c].add(i)
    clustering = normalize_clustering(groups.values())
    return CenterSet(tuple(centers)), clustering
