"""Brute-force referees for the solvers and the exact kernel.

Exhaustive enumeration of set partitions (restricted growth strings),
optima over all or only well-separated clusterings, Stirling counting
checks, a numeric Riemann cross-check of the exact span area, and slow
exact referees for the kernel: the bottom-leftmost member by a direct
minimum, the least pair area over every pair, span areas by trapezoids
over the pairwise crossing-time grid, envelopes read off at slab
midpoints, holes from a re-sort of the trajectories in every slab, the
well-separation rule pair by pair over the holes' left sets, the
side-set poset from frozenset comparisons, the well-separated chain DP
over frozensets and Fractions, and the exact sum of diameters by a
breadth-first frontier of whole clusterings.  Diameters come straight
from the core geometry; nothing here reuses solver logic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .arrangement import Hole, SeparatorPoset, compute_holes, is_well_separated
from .geometry import (
    Clustering,
    Objective,
    Side,
    Solution,
    Trajectory,
    TrajectorySet,
    _pair_terms,
    as_cluster,
    canonical_key,
    check_k,
    diameter,
    normalize_clustering,
)
from .sum_diameter import GoodSequence

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Bell(12) is about 4.2 million, the ceiling for desk-scale exhaustion.
MAX_BRUTE_N = 12


def enumerate_partitions(n: int, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of {0..n-1} into at most k nonempty blocks, each once.

    Blocks are emitted as sorted tuples ordered by their smallest element
    (the natural order of restricted growth strings).
    """
    check_k(k, n)
    if n > MAX_BRUTE_N:
        raise ValueError(f"refusing exhaustive enumeration for n={n} > {MAX_BRUTE_N}")

    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for idx, lab in enumerate(labels):
                blocks[lab].append(idx)
            yield tuple(tuple(b) for b in blocks)
            return
        for lab in range(min(used + 1, k)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    return rec(0, 0)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the alternating-sum formula."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if n == k == 0:
        return 1
    total = sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))
    assert total % math.factorial(k) == 0
    return total // math.factorial(k)


def _scan(S: TrajectorySet, k: int, wellsep_only: bool):
    """Yield (clustering, sd, md) over partitions, optionally filtered."""
    n = len(S)
    check_k(k, n)
    for blocks in enumerate_partitions(n, k):
        clusters = tuple(frozenset(b) for b in blocks)
        if wellsep_only and not is_well_separated(S, clusters):
            continue
        diams = [diameter(S, c) for c in clusters]
        yield clusters, sum(diams, _ZERO), max(diams)


class _Best:
    """The best (value, clusters) offered so far, ties to the canonical key."""

    __slots__ = ("value", "key", "clusters")

    def __init__(self) -> None:
        self.value = self.key = self.clusters = None

    def offer(self, value: Fraction, clusters: tuple) -> None:
        if self.value is None or value < self.value:
            self.value, self.key, self.clusters = value, None, clusters
        elif value == self.value:
            # canonical keys are computed lazily, on ties only
            if self.key is None:
                self.key = canonical_key(self.clusters)
            key = canonical_key(clusters)
            if key < self.key:
                self.key, self.clusters = key, clusters


def brute_opt(S: TrajectorySet, k: int) -> tuple[Solution, Solution]:
    """Exact optima over all partitions into <= k blocks, from one enumeration.

    Returns the (sum of diameters, maximum diameter) pair of Solutions.
    """
    sd, md = _Best(), _Best()
    for clusters, sd_value, md_value in _scan(S, k, wellsep_only=False):
        sd.offer(sd_value, clusters)
        md.offer(md_value, clusters)
    return (
        Solution(sd.clusters, sd.value, "sd", "brute"),
        Solution(md.clusters, md.value, "md", "brute"),
    )


def brute_opt_sd(S: TrajectorySet, k: int) -> Solution:
    """Exact optimum of the diameter sum over all partitions into <= k blocks."""
    return brute_opt(S, k)[0]


def brute_opt_md(S: TrajectorySet, k: int) -> Solution:
    """Exact optimum of the maximum diameter over all partitions into <= k blocks."""
    return brute_opt(S, k)[1]


def brute_opt_wellsep(S: TrajectorySet, k: int, objective: Objective) -> Solution:
    """Exact optimum over well-separated partitions into <= k blocks only.

    {S} alone is always well separated, so some partition qualifies.
    """
    if objective not in ("sd", "md"):
        raise ValueError(f"objective must be 'sd' or 'md', got {objective!r}")
    best = _Best()
    for clusters, sd, md in _scan(S, k, wellsep_only=True):
        best.offer(sd if objective == "sd" else md, clusters)
    return Solution(best.clusters, best.value, objective, "wellsep-brute")


def separates(S: TrajectorySet, h: Hole, C1, C2) -> bool:
    """True when the hole has C1 and C2 entirely on opposite sides."""
    a, b, left = frozenset(C1), frozenset(C2), h.left_set
    right = S.all_indices() - left
    return (a <= left and b <= right) or (b <= left and a <= right)


def well_separated_by_pairs(S: TrajectorySet, clustering) -> bool:
    """The well-separation rule read pair by pair, over frozensets.

    A hole is uncovered when every cluster lies inside its left set or
    outside it, and each pair of nonempty clusters needs an uncovered
    hole that ``separates`` them.  A referee for ``is_well_separated``,
    which compares int masks instead.
    """
    clusters = [C for C in map(frozenset, clustering) if C]
    uncovered = []
    for h in compute_holes(S):
        left = h.left_set
        if all(C <= left or not C & left for C in clusters):
            uncovered.append(h)
    return all(any(separates(S, h, a, b) for h in uncovered) for a, b in combinations(clusters, 2))


def numeric_diameter(S: TrajectorySet, C, steps: int) -> Fraction:
    """Midpoint-rule Riemann sum of the cluster width, in exact rationals.

    Width is evaluated directly as max minus min of member positions, so
    this cross-check shares no code with the envelope-based area.  Over
    the members' own common denominator den, the positions at the
    midpoints t = u / (2 steps), u odd, are integers in units of
    1 / (2 steps den); their widths are summed as ints and divided once.
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    members = [S[i] for i in sorted(frozenset(C))]
    if len(members) <= 1:
        return Fraction(0)
    den = math.lcm(*(x.denominator for s in members for x in (s.x0, s.x1)))
    scale = 2 * steps
    lines = []
    for s in members:
        x0 = s.x0.numerator * (den // s.x0.denominator)
        x1 = s.x1.numerator * (den // s.x1.denominator)
        lines.append((x0 * scale, x1 - x0))
    total = 0
    for u in range(1, scale, 2):
        positions = [a + v * u for a, v in lines]
        total += max(positions) - min(positions)
    return Fraction(total, scale * steps * den)


def bottom_leftmost_index(S: TrajectorySet, C) -> int:
    """Index of C's member with least position at t=0, ties by t=1.

    A referee for the kernel's ``leftmost`` order, whose first member of C
    it is.
    """
    cluster = as_cluster(C, len(S))
    if not cluster:
        raise ValueError("bottom_leftmost_index of an empty cluster")
    return min(cluster, key=lambda i: S[i])


def min_pair_area_by_pairs(S: TrajectorySet) -> Fraction:
    """Smallest span area over all pairs of members, one pass over every pair.

    A referee for ``SpanKernel.min_pair_area``, which prunes the pairs by
    midpoint distance: here no pair is skipped.  Areas are the kernel's
    integer pair terms over its lines, compared by cross-multiplication.
    """
    kernel = S.kernel
    lines = kernel.lines
    if len(lines) < 2:
        raise ValueError("min_pair_area needs at least two members")
    best_p, best_q = None, 1
    for i, (v, a) in enumerate(lines):
        for w, b in lines[i + 1:]:
            p, q = _pair_terms(a - b, a - b + v - w)
            if best_p is None or p * best_q < best_p * q:
                best_p, best_q = p, q
    return Fraction(best_p, 2 * kernel.den * best_q)


def crossing_time(a: Trajectory, b: Trajectory) -> Fraction | None:
    """Time at which two trajectories meet, or None for parallel ones.

    The returned value may fall outside [0, 1]; callers filter.
    """
    d0 = a.x0 - b.x0
    d1 = a.x1 - b.x1
    if d0 == d1:
        return None
    return d0 / (d0 - d1)


def _crossing_grid(S: TrajectorySet, members: list[int]) -> list[Fraction]:
    """0, 1, and every pairwise crossing time strictly between, sorted."""
    cuts = {_ZERO, _ONE}
    for i, j in combinations(members, 2):
        t = crossing_time(S[i], S[j])
        if t is not None and _ZERO < t < _ONE:
            cuts.add(t)
    return sorted(cuts)


def span_area_grid(S: TrajectorySet, C) -> Fraction:
    """Exact span area by trapezoids over the pairwise crossing-time grid.

    The width (max minus min position) is linear between consecutive
    crossing times, so the trapezoid sum is exact.  O(m^3) for m members;
    a referee for ``diameter``, which shares none of this code.
    """
    members = sorted(as_cluster(C, len(S)))
    if len(members) <= 1:
        return _ZERO

    def width(t: Fraction) -> Fraction:
        positions = [S[i].position(t) for i in members]
        return max(positions) - min(positions)

    grid = _crossing_grid(S, members)
    widths = [width(t) for t in grid]
    pieces = zip(grid, grid[1:], widths, widths[1:])
    return sum(((w0 + w1) * (t1 - t0) / 2 for t0, t1, w0, w1 in pieces), _ZERO)


def envelope_grid(S: TrajectorySet, C, side: Side) -> tuple[tuple[Fraction, Fraction], ...]:
    """Envelope points by brute force: the extreme member at every slab midpoint.

    Between consecutive pairwise crossing times one member carries the
    boundary; a breakpoint is emitted wherever that member changes.  A
    referee for ``envelope``.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    members = sorted(as_cluster(C, len(S)))
    if not members:
        raise ValueError("envelope of an empty cluster")
    pick = min if side == "left" else max
    grid = _crossing_grid(S, members)

    def boundary(t: Fraction) -> Fraction:
        return pick(S[i].position(t) for i in members)

    actives = [
        pick(members, key=lambda i: S[i].position((lo + hi) / 2))
        for lo, hi in zip(grid, grid[1:])
    ]
    breaks = [k for k in range(1, len(actives)) if actives[k] != actives[k - 1]]
    return tuple((grid[k], boundary(grid[k])) for k in [0, *breaks, len(grid) - 1])


def holes_slab(S: TrajectorySet) -> tuple[Hole, ...]:
    """Holes by brute force: re-sort the trajectories in every slab.

    Between consecutive crossing times the left-to-right order is
    constant, and the faces meeting the slab are exactly the prefixes of
    that order (the empty prefix and the full set included).  Merging
    equal prefixes across adjacent slabs gives each face with its full
    time extent; a prefix reappearing after a gap would contradict the
    concavity of its gap function and raises AssertionError.  O(n^4) set
    work; a referee for ``compute_holes``, in the same order.
    """
    n = len(S)
    if n == 0:
        raise ValueError("compute_holes of an empty trajectory set")
    grid = _crossing_grid(S, list(range(n)))

    runs: dict[frozenset, list[Fraction]] = {}
    for lo, hi in zip(grid, grid[1:]):
        mid = (lo + hi) / 2
        order = sorted(range(n), key=lambda i: S[i].x0 + S[i].velocity * mid)
        for size in range(n + 1):
            prefix = frozenset(order[:size])
            run = runs.get(prefix)
            if run is None:
                runs[prefix] = [lo, hi]
            elif run[1] == lo:
                run[1] = hi
            else:
                raise AssertionError(f"face {sorted(prefix)} re-opened at t={lo}")

    ordered = sorted(runs.items(), key=lambda run: (run[1][0], len(run[0]), sorted(run[0])))
    return tuple(Hole(sum(1 << (n - 1 - i) for i in left), n, lo, hi) for left, (lo, hi) in ordered)


def poset_by_inclusion(S: TrajectorySet, holes) -> SeparatorPoset:
    """The side-set poset by pairwise frozenset comparison, O(P^2).

    A referee for ``build_poset``: the empty set, the full set and the
    distinct hole side-sets, sorted by (size, indices), each as the mask
    in which index i of n carries the flag ``1 << (n - 1 - i)``, and each
    with the indices of its strict supersets among them.  That order is
    stored as the poset's ``succ``, so reading the order of this poset
    runs none of the library's row code.
    """
    n = len(S)
    full = S.all_indices()
    lefts = [h.left_set for h in holes]
    sets = {frozenset(), full, *lefts} | {full - left for left in lefts}
    elements = tuple(sorted(sets, key=lambda c: (len(c), tuple(sorted(c)))))
    poset = SeparatorPoset(tuple(sum(1 << (n - 1 - i) for i in c) for c in elements))
    # Fill the cached property, which ``succ`` would otherwise build.
    vars(poset)["succ"] = tuple(
        tuple(j for j, b in enumerate(elements) if a < b) for a in elements
    )
    return poset


def wellsep_dp_by_sets(S: TrajectorySet, k: int, objective: Objective) -> Solution:
    """The well-separated chain DP over frozensets, with Fraction values.

    State (C, j) is the best value of a well-separated j-clustering of the
    complement of C over chains of strictly nested side-sets of the
    ``poset_by_inclusion`` poset; blocks are ``diameter`` calls on the set
    differences, and values combine as Fractions, by sum ("sd") or max
    ("md").  Ties go to the first minimal superset in canonical order, and
    the traceback chain gives the clustering as consecutive set
    differences.  A referee for ``sd_wellsep_dp`` and ``md_wellsep_dp``:
    it returns the Solution they return, certificate included.
    """
    if objective not in ("sd", "md"):
        raise ValueError(f"objective must be 'sd' or 'md', got {objective!r}")
    check_k(k, len(S))
    combine = (lambda a, b: a + b) if objective == "sd" else max
    poset = poset_by_inclusion(S, compute_holes(S))
    full = S.all_indices()
    empty = frozenset()

    blocks = {
        C: [(sup, diameter(S, sup - C)) for sup in poset.successors[C]]
        for C in poset.elements
    }

    # Layer j looks only at layer j-1, so any sweep of the elements will do.
    values = {C: _ZERO if C == full else diameter(S, full - C) for C in poset.elements}
    choice: dict[tuple[frozenset, int], frozenset] = {}
    for j in range(2, k + 1):
        nxt = {full: _ZERO}
        for C in poset.elements:
            if C == full:
                continue
            # The full set is a strict superset of every other element.
            best_val = best_sup = None
            for sup, block in blocks[C]:
                val = combine(block, values[sup])
                if best_val is None or val < best_val:
                    best_val, best_sup = val, sup
            nxt[C] = best_val
            choice[(C, j)] = best_sup
        values = nxt

    chain = []
    C, j = empty, k
    while C != full and j > 1:
        C = choice[(C, j)]
        j -= 1
        if C != full:
            chain.append(C)
    clustering = normalize_clustering(b - a for a, b in zip([empty] + chain, chain + [full]))
    return Solution(clustering, values[empty], objective, "wellsep-dp", chain=tuple(chain))


def goodseq_by_frontier(S: TrajectorySet, k: int) -> Solution:
    """Exact sum-of-diameters optimum by enumerating whole clusterings.

    Lists every clustering that k-1 hole-guided splits reach, breadth-first
    by split depth, deduplicating clusterings so that the many sequences
    producing the same partition are explored once, and keeps the first
    sequence found for each.  The least value wins, ties going to the
    smaller canonical key.  A referee for ``sd_exact_goodseq``: same value
    and clustering, though its certificate may name other splits.  Its
    cost follows the number of distinct clusterings in the frontier.
    """
    check_k(k, len(S))

    holes = compute_holes(S)
    splitters = [(h, h.left_set) for h in holes if h.kind == "bounded"]

    start = (S.all_indices(),)
    frontier: dict[Clustering, tuple[tuple[Hole, frozenset], ...]] = {start: ()}
    for _ in range(k - 1):
        nxt: dict[Clustering, tuple[tuple[Hole, frozenset], ...]] = {}
        for clustering, steps in frontier.items():
            for C in clustering:
                if len(C) < 2:
                    continue
                rest = tuple(D for D in clustering if D != C)
                for h, side in splitters:
                    left = C & side
                    if not left or left == C:
                        continue
                    child = normalize_clustering(rest + (left, C - left))
                    if child not in nxt:
                        nxt[child] = steps + ((h, C),)
        frontier = nxt

    best = _Best()
    for clustering in frontier:
        best.offer(sum((diameter(S, C) for C in clustering), _ZERO), clustering)
    assert best.clusters is not None, "split enumeration cannot dead-end for k <= n"
    steps = frontier[best.clusters]
    return Solution(best.clusters, best.value, "sd", "exact-goodseq", sequence=GoodSequence(steps))
