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
from math import gcd
from typing import Iterable

from .arrangement import Hole, SeparatorPoset, build_poset, compute_holes, hole_within_span
from .geometry import (
    Clustering,
    Objective,
    Solution,
    SpanKernel,
    TrajectorySet,
    canonical_key,
    diameter,
    normalize_clustering,
)

_ZERO = Fraction(0)


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

    # Ties go to the smaller canonical key, built only when a value ties.
    best_value = best_key = best = None
    for clustering, steps in frontier.items():
        value = sd_value(S, clustering)
        if best is None or value < best_value:
            best_value, best_key, best = value, None, (clustering, steps)
        elif value == best_value:
            if best_key is None:
                best_key = canonical_key(best[0])
            key = canonical_key(clustering)
            if key < best_key:
                best_key, best = key, (clustering, steps)
    assert best is not None, "split enumeration cannot dead-end for k <= n"
    clustering, steps = best
    return Solution(clustering, best_value, "sd", "exact-goodseq", sequence=GoodSequence(steps))


class ChainTable:
    """Per-instance table of the well-separated chain dynamic program.

    Element e is ``elements[e]`` of the instance's side-set poset, in the
    poset's canonical order, so the empty set is element 0 and the full
    set the last one.  Its row holds its strict supersets as element
    indices in ``succ[e]``, in canonical order, and the exact area of
    each block (superset minus element) as the integers ``nums[e][i] /
    dens[e][i]``.

    ``layers`` maps (objective, j) to DP layer j: the best value of a
    well-separated j-clustering of each element's complement, as reduced
    (num, den) pairs, and the superset each element's best value steps to
    (element indices; layer 1 has none).  Layer j depends on layer j-1
    only, so a layer computed for one k serves every larger k.  Layers are
    stored with ``dict.setdefault``: threads racing on one instance may
    compute a layer twice, but every thread reads the same stored one.
    """

    __slots__ = ("elements", "succ", "nums", "dens", "layers")

    def __init__(self, kernel: SpanKernel, poset: SeparatorPoset) -> None:
        elements = poset.elements
        index = {C: e for e, C in enumerate(elements)}
        span_area = kernel.span_area
        succ, nums, dens = [], [], []
        for C in elements:
            sups = poset.strict_supersets(C)
            blocks = [sup - C for sup in sups]
            areas = [span_area(B) if len(B) > 1 else _ZERO for B in blocks]
            succ.append(tuple([index[sup] for sup in sups]))
            nums.append(tuple([a.numerator for a in areas]))
            dens.append(tuple([a.denominator for a in areas]))
        self.elements = elements
        self.succ, self.nums, self.dens = succ, nums, dens
        # Layer 1 is the single block from an element to the full set, the
        # last strict superset of every other element; it is the same for
        # both objectives.
        first = ([(num[-1], den[-1]) for num, den in zip(nums[:-1], dens[:-1])] + [(0, 1)], None)
        self.layers = {("sd", 1): first, ("md", 1): first}

    def layers_upto(self, objective: Objective, k: int) -> list:
        """Layers 1..k of the objective, computing only the missing ones."""
        layers = [self.layers[objective, 1]]
        for j in range(2, k + 1):
            key = (objective, j)
            layer = self.layers.get(key)
            if layer is None:
                layer = self.layers.setdefault(key, self._layer(objective, layers[-1][0]))
            layers.append(layer)
        return layers

    def _layer(self, objective: Objective, prev: list) -> tuple[list, list]:
        """The layer after the one with values ``prev``.

        Each element takes the first superset, in canonical order, with
        the least combined value of block and ``prev``: their sum, or
        their max.  Fractions compare by cross-multiplication; a sum is
        reduced once per element, and a max is one of two reduced values.
        """
        add = objective == "sd"
        values, choice = [], []
        for succ, nums, dens in zip(self.succ, self.nums, self.dens):
            best_num, best_den, best = 0, 1, -1
            for s, num, den in zip(succ, nums, dens):
                prev_num, prev_den = prev[s]
                if add:
                    num, den = num * prev_den + prev_num * den, den * prev_den
                elif num * prev_den < prev_num * den:
                    num, den = prev_num, prev_den
                if best < 0 or num * best_den < best_num * den:
                    best_num, best_den, best = num, den, s
            if add:
                g = gcd(best_num, best_den)
                best_num, best_den = best_num // g, best_den // g
            values.append((best_num, best_den))
            choice.append(best)
        return values, choice


def _wellsep_chain_dp(S: TrajectorySet, k: int, objective: Objective) -> Solution:
    """Shared chain dynamic program over the side-set poset.

    State (C, j): best value of a well-separated j-clustering of the
    complement of C, taken over chains of strictly nested side-sets.  A
    chain may reach the full set early, in which case the remaining
    clusters are empty and the result has fewer than k nonempty clusters.
    The layers come from the instance's chain table, built on first use.
    """
    n = len(S)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")

    kernel = S.kernel
    table = kernel.chain_table
    if table is None:
        table = kernel.chain_table = ChainTable(kernel, build_poset(S, compute_holes(S)))
    layers = table.layers_upto(objective, k)
    elements = table.elements
    full = len(elements) - 1

    num, den = layers[k - 1][0][0]
    chain = []
    e, j = 0, k
    while e != full and j > 1:
        e = layers[j - 1][1][e]
        j -= 1
        if e != full:
            chain.append(elements[e])
    clusters = []
    prev = frozenset()
    for nxt_set in chain + [elements[full]]:
        clusters.append(nxt_set - prev)
        prev = nxt_set
    clustering = normalize_clustering(clusters)
    return Solution(clustering, Fraction(num, den), objective, "wellsep-dp", chain=tuple(chain))


def sd_wellsep_dp(S: TrajectorySet, k: int) -> Solution:
    """Optimal well-separated clustering for the sum of diameters.

    Dynamic program over chains in the side-set poset; the traceback chain
    yields the clustering as consecutive set differences.
    """
    return _wellsep_chain_dp(S, k, "sd")


def md_wellsep_dp(S: TrajectorySet, k: int) -> Solution:
    """Optimal well-separated clustering for the maximum diameter.

    Same chain dynamic program as the sum objective with + replaced by max.
    """
    return _wellsep_chain_dp(S, k, "md")
