"""Brute-force referees for the solvers and the exact kernel.

Exhaustive enumeration of set partitions (restricted growth strings),
optima over all or only well-separated clusterings, Stirling counting
checks, a numeric Riemann cross-check of the exact span area, and slow
exact referees for the kernel: the bottom-leftmost member by a direct
minimum, span areas by trapezoids over the pairwise crossing-time grid,
envelopes read off at slab midpoints, holes
from a re-sort of the trajectories in every slab, the side-set poset
from frozenset comparisons, the well-separated chain DP over
frozensets and Fractions, and the exact sum of diameters by a
breadth-first frontier of whole clusterings.  Diameters come straight
from the core geometry; nothing here reuses solver logic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .arrangement import Hole, HoleKind, SeparatorPoset, compute_holes, is_well_separated
from .geometry import (
    Clustering,
    Envelope,
    Objective,
    Side,
    Solution,
    Trajectory,
    TrajectorySet,
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
        raise ValueError("bottom_leftmost of an empty cluster")
    return min(cluster, key=lambda i: S[i])


def bottom_leftmost(S: TrajectorySet, C) -> Trajectory:
    """Member with minimum position at t=0, ties broken by position at t=1."""
    return S[bottom_leftmost_index(S, C)]


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
    for ai in range(len(members)):
        for bi in range(ai + 1, len(members)):
            t = crossing_time(S[members[ai]], S[members[bi]])
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
    total = _ZERO
    for k in range(1, len(grid)):
        total += (widths[k - 1] + widths[k]) * (grid[k] - grid[k - 1]) / 2
    return total


def envelope_grid(S: TrajectorySet, C, side: Side) -> Envelope:
    """Envelope by brute force: the extreme member at every slab midpoint.

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
    points = [(grid[0], boundary(grid[0]))]
    for k in range(1, len(actives)):
        if actives[k] != actives[k - 1]:
            points.append((grid[k], boundary(grid[k])))
    points.append((grid[-1], boundary(grid[-1])))
    return Envelope(tuple(points))


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
        prefix: frozenset = frozenset()
        for size in range(n + 1):
            if size > 0:
                prefix = prefix | {order[size - 1]}
            run = runs.get(prefix)
            if run is None:
                runs[prefix] = [lo, hi]
            elif run[1] == lo:
                run[1] = hi
            else:
                raise AssertionError(f"face {sorted(prefix)} re-opened at t={lo}")

    full = S.all_indices()
    holes = []
    for left, (lo, hi) in runs.items():
        if not left:
            kind: HoleKind = "unbounded_left"
        elif left == full:
            kind = "unbounded_right"
        else:
            kind = "bounded"
        holes.append(Hole(left, lo, hi, kind))
    holes.sort(key=lambda h: (h.t_lo, len(h.left_set), tuple(sorted(h.left_set))))
    return tuple(holes)


def poset_by_inclusion(S: TrajectorySet, holes) -> SeparatorPoset:
    """The side-set poset by pairwise frozenset comparison, O(P^2).

    A referee for ``build_poset``: the distinct hole side-sets sorted by
    (size, indices), each with the indices of its strict supersets in that
    order.
    """
    full = S.all_indices()
    sets = {h.left_set for h in holes} | {full - h.left_set for h in holes}
    elements = tuple(sorted(sets, key=lambda c: (len(c), tuple(sorted(c)))))
    succ = tuple(tuple(j for j, b in enumerate(elements) if a < b) for a in elements)
    return SeparatorPoset(elements, succ)


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
    clusters = []
    prev = empty
    for nxt_set in chain + [full]:
        clusters.append(nxt_set - prev)
        prev = nxt_set
    clustering = normalize_clustering(clusters)
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

    best = _Best()
    for clustering in frontier:
        best.offer(sum((diameter(S, C) for C in clustering), _ZERO), clustering)
    assert best.clusters is not None, "split enumeration cannot dead-end for k <= n"
    steps = frontier[best.clusters]
    return Solution(best.clusters, best.value, "sd", "exact-goodseq", sequence=GoodSequence(steps))
