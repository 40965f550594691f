"""Solvers minimizing the sum of cluster diameters.

Two routes:

* exact enumeration of hole-guided split sequences, optimal for fixed k;
* a dynamic program over nested hole side-sets that is exact among
  well-separated clusterings (every pair of clusters separated by an
  uncovered hole) and polynomial even when k is part of the input.

The same dynamic program, with max in place of sum, optimizes the maximum
cluster diameter over well-separated clusterings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .arrangement import Hole, build_poset, compute_holes, hole_within_span
from .geometry import (
    Clustering,
    Solution,
    TrajectorySet,
    canonical_key,
    diameter,
    normalize_clustering,
)


def sd_value(S: TrajectorySet, clustering: Iterable[Iterable[int]]) -> Fraction:
    """Sum of the diameters of the clusters."""
    return sum((diameter(S, C) for C in clustering), Fraction(0))


@dataclass(frozen=True)
class GoodSequence:
    """A list of (hole, cluster) split steps building a clustering from {S}.

    Each step picks a cluster of the current clustering and a hole inside
    its span, and splits the cluster along the hole's two sides.
    """

    steps: tuple[tuple[Hole, frozenset], ...]

    def replay(self, S: TrajectorySet) -> Clustering:
        """Re-run the splits from {S}, validating every step."""
        current = {S.all_indices()}
        for hole, cluster in self.steps:
            if cluster not in current:
                raise ValueError(f"split of {sorted(cluster)}: not a current cluster")
            if not hole_within_span(S, hole, cluster):
                raise ValueError(
                    f"hole with left side {sorted(hole.left_set)} is not inside "
                    f"the span of {sorted(cluster)}"
                )
            current.remove(cluster)
            current.add(cluster & hole.left_set)
            current.add(cluster - hole.left_set)
        return normalize_clustering(current)


def sd_exact_goodseq(S: TrajectorySet, k: int) -> Solution:
    """Exact optimum for the sum of diameters with at most k clusters.

    Enumerates every clustering reachable by k-1 hole-guided splits,
    breadth-first by split depth, deduplicating clusterings so that the
    many sequences producing the same partition are explored once.  Every
    optimal clustering arises this way, so the best leaf is the optimum.
    """
    n = len(S)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")

    holes = compute_holes(S)
    splitters = [h for h in holes if h.kind == "bounded"]

    start = (S.all_indices(),)
    frontier: dict[Clustering, tuple[tuple[Hole, frozenset], ...]] = {start: ()}
    for _ in range(k - 1):
        nxt: dict[Clustering, tuple[tuple[Hole, frozenset], ...]] = {}
        for clustering, steps in frontier.items():
            for C in clustering:
                if len(C) < 2:
                    continue
                rest = tuple(D for D in clustering if D != C)
                for h in splitters:
                    left = C & h.left_set
                    if not left or left == C:
                        continue
                    child = normalize_clustering(rest + (left, C - left))
                    if child not in nxt:
                        nxt[child] = steps + ((h, C),)
        frontier = nxt

    best = None
    for clustering, steps in frontier.items():
        value = sd_value(S, clustering)
        key = (value, canonical_key(clustering))
        if best is None or key < best[0]:
            best = (key, clustering, steps)
    assert best is not None, "split enumeration cannot dead-end for k <= n"
    (value, _), clustering, steps = best
    return Solution(clustering, value, "sd", "exact-goodseq", sequence=GoodSequence(steps))


def _wellsep_chain_dp(
    S: TrajectorySet, k: int, combine: Callable[[Fraction, Fraction], Fraction]
) -> tuple[Clustering, Fraction, tuple[frozenset, ...]]:
    """Shared chain dynamic program over the side-set poset.

    State (C, j): best value of a well-separated j-clustering of the
    complement of C, taken over chains of strictly nested side-sets.  A
    chain may reach the full set early, in which case the remaining
    clusters are empty and the result has fewer than k nonempty clusters.
    """
    n = len(S)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")

    poset = build_poset(S, compute_holes(S))
    full = S.all_indices()
    empty = frozenset()

    def block(sup: frozenset, sub: frozenset) -> Fraction:
        return diameter(S, sup - sub)

    # values[j][C]; layer j only looks at layer j-1, so a plain sweep of the
    # elements (largest first, matching the poset direction) is enough.
    order = tuple(reversed(poset.elements))
    values: dict[frozenset, Fraction] = {}
    choice: dict[tuple[frozenset, int], frozenset] = {}
    for C in order:
        values[C] = Fraction(0) if C == full else block(full, C)
    for j in range(2, k + 1):
        nxt: dict[frozenset, Fraction] = {full: Fraction(0)}
        for C in order:
            if C == full:
                continue
            # The full set is a strict superset of every other element.
            best_val = best_sup = None
            for sup in poset.strict_supersets(C):
                val = combine(block(sup, C), values[sup])
                if best_val is None or val < best_val:
                    best_val, best_sup = val, sup
            nxt[C] = best_val
            choice[(C, j)] = best_sup
        values = nxt

    total = values[empty]
    chain = []
    C, j = empty, k
    while C != full and j > 1:
        C = choice[(C, j)]
        j -= 1
        if C != full:
            chain.append(C)
    clusters = []
    prev = empty
    for nxt_set in chain + [full]:
        clusters.append(nxt_set - prev)
        prev = nxt_set
    return (normalize_clustering(clusters), total, tuple(chain))


def sd_wellsep_dp(S: TrajectorySet, k: int) -> Solution:
    """Optimal well-separated clustering for the sum of diameters.

    Dynamic program over chains in the side-set poset; the traceback chain
    yields the clustering as consecutive set differences.
    """
    clustering, value, chain = _wellsep_chain_dp(S, k, lambda a, b: a + b)
    return Solution(clustering, value, "sd", "wellsep-dp", chain=chain)


def md_wellsep_dp(S: TrajectorySet, k: int) -> Solution:
    """Optimal well-separated clustering for the maximum diameter.

    Same chain dynamic program as the sum objective with + replaced by max.
    """
    clustering, value, chain = _wellsep_chain_dp(S, k, max)
    return Solution(clustering, value, "md", "wellsep-dp", chain=chain)
