"""Solvers minimizing the sum of cluster diameters.

Two routes:

* an exact dynamic program over the binary split trees that hole-guided
  split sequences build, with one state per reachable cluster and number
  of clusters, optimal for fixed k;
* a dynamic program over nested hole side-sets, polynomial even when k
  is part of the input, that is exact over the clusterings whose clusters
  are the differences of a chain of nested side-sets.  Every such
  clustering is well separated (every pair of clusters separated by an
  uncovered hole), but not every well-separated clustering is such a
  chain: on the n=8 instance (0,0) (0,3) (1,3) (2,1) (2,2) (2,3) (3,0)
  (3,1) at k=4 the program gives 17/12, while the well-separated
  {0}, {1}, {2, 3, 4, 5, 7}, {6} has sum 4/3.

The same dynamic program, with max in place of sum, optimizes the maximum
cluster diameter over the same chain clusterings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable

from .arrangement import (
    Hole,
    SeparatorPoset,
    _hole_mask,
    _straddles,
    build_poset,
    compute_holes,
)
from .geometry import (
    Clustering,
    Objective,
    Solution,
    SpanKernel,
    TrajectorySet,
    _ZERO,
    _chains_area,
    _upper_chain,
    check_k,
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
        """Re-run the splits from {S} on int masks; ValueError on an invalid step.

        A step's hole must be one of ``compute_holes(S)``: a hole of another
        instance, even of the same size, is refused.
        """
        kernel = S.kernel
        # No two faces share a mask, so the face with a step's mask is its only match.
        faces = {h.mask: h for h in compute_holes(S)}
        current = {(1 << len(S)) - 1}
        for hole, cluster in self.steps:
            L, C = _hole_mask(S, hole, "replay"), kernel.mask(cluster)
            if faces.get(L) != hole:
                raise ValueError(
                    f"hole with left side {sorted(hole.left_set)} is not a hole of this instance"
                )
            if C not in current:
                raise ValueError(f"split of {sorted(cluster)}: not a current cluster")
            if not _straddles(C, L):
                raise ValueError(
                    f"hole with left side {sorted(hole.left_set)} is not inside "
                    f"the span of {sorted(cluster)}"
                )
            current.remove(C)
            current |= {C & L, C & ~L}
        return normalize_clustering(map(kernel.members, current))


# Most units of work one ``sd_exact_goodseq`` call may do: one per
# bounded-hole mask scanned while listing a cluster's splits, and one per
# (split, j, j1) triple a combine tries.  Every memoized cluster is a side
# of a listed split, so the budget bounds memory as well as time.  n=40,
# k=4 (seed 1) takes about 7.4 million units, 48 parallel lines at k=48
# about 6.6 million; past the cap the call raises ValueError.
MAX_SPLIT_WORK = 20_000_000


def sd_exact_goodseq(S: TrajectorySet, k: int) -> Solution:
    """Exact optimum for the sum of diameters with at most k clusters.

    Every clustering that k-1 hole-guided splits reach is the leaf set of
    a binary split tree, and whether a bounded hole may split a cluster
    depends on that cluster alone.  So the optimum decomposes over
    clusters: f(C, 1) = diam(C), and f(C, j) is the least f(A, j1) +
    f(C - A, j - j1) over the distinct splits {A, C - A} of C by a bounded
    hole and over 1 <= j1 < j with each side holding at least as many
    members as clusters.  Clusters and hole sides are the instance
    kernel's int masks (member i carries the flag 1 << (n - 1 - i), see
    SpanKernel), values reduced integer (num, den) pairs compared by
    cross-multiplication, and each leaf area is read once per distinct
    cluster through ``diameter``.

    Ties go to the least canonical key: each state keeps the least
    (value, key) pair, where the key of a split is the sorted merge of
    its sides' keys, built only when values tie.  That merge is monotone
    in each side, so the root gets the least key among all optima.  The
    certificate lists the splits of the tree, parents first, each by the
    first bounded hole in hole order that realizes it.  Raises ValueError
    before its work would exceed MAX_SPLIT_WORK units.
    """
    n = len(S)
    check_k(k, n)

    # The bounded holes by left mask, in hole order; the sweep emits each
    # face once, so no two holes share a left mask.
    kernel = S.kernel
    splitters = {h.mask: h for h in compute_holes(S) if h.kind == "bounded"}
    masks = tuple(splitters)

    values: dict[int, list[tuple[int, int]]] = {}  # cluster -> f(C, j) for j = 1, 2, ...
    choice: dict[tuple[int, int], tuple[int, int]] = {}  # (C, j >= 2) -> (A, j1)
    keys: dict[tuple[int, int], tuple] = {}  # (C, j) -> canonical key, built on ties

    def walk(C: int, j: int):
        """The states of the best split tree of (C, j), parents first."""
        todo = [(C, j)]
        while todo:
            C, j = todo.pop()
            yield C, j
            if j > 1:
                a, j1 = choice[C, j]
                todo.append((C ^ a, j - j1))
                todo.append((a, j1))

    def key(C: int, j: int) -> tuple:
        """Canonical key of the best clustering of state (C, j)."""
        found = keys.get((C, j))
        if found is None:
            leaves = [tuple(sorted(kernel.members(D))) for D, i in walk(C, j) if i == 1]
            found = keys[C, j] = tuple(sorted(leaves))
        return found

    def split_key(C: int, a: int, j1: int, j: int) -> tuple:
        """Key of splitting C into A with j1 clusters and C - A with j - j1."""
        return tuple(sorted(key(a, j1) + key(C ^ a, j - j1)))

    work = 0

    def charge(units: int) -> None:
        nonlocal work
        work += units
        if work > MAX_SPLIT_WORK:
            raise ValueError(
                f"sd_exact_goodseq: the split-tree DP needs more than "
                f"MAX_SPLIT_WORK = {MAX_SPLIT_WORK} units of work"
            )

    def leaf(C: int) -> list[tuple[int, int]]:
        """values[C] for a cluster not memoized yet: f(C, 1) alone."""
        area = diameter(S, kernel.members(C))
        vals = values[C] = [(area.numerator, area.denominator)]
        return vals

    # Fill f(C, j) for j up to r, children before parents, on an explicit
    # stack, so that a deep split tree (k near n) meets no recursion limit:
    # a (C, r) entry lists C's splits and stacks its children above the
    # (C, r, splits) entry that then combines their values.
    full = (1 << n) - 1
    leaf(full)
    todo: list = [(full, k, None)]
    while todo:
        C, r, splits = todo.pop()
        vals = values[C]
        have = len(vals)
        if have >= r:
            continue
        if splits is None:
            # The distinct splits {A, C - A}, by their smaller side, as (A,
            # f(A, .), f(C - A, .)); the value lists are the sides' own, which
            # their entries, stacked above this one, extend in place.  Each
            # side needs f for up to min(its size, r - 1) clusters.
            charge(len(masks))
            splits, seen = [], set()
            todo.append((C, r, splits))
            for L in masks:
                a = C & L
                if not a or a == C:
                    continue
                b = C ^ a
                if (a if a < b else b) in seen:
                    continue
                seen.add(a if a < b else b)
                va = values.get(a) or leaf(a)
                vb = values.get(b) or leaf(b)
                splits.append((a, va, vb))
                if len(va) < r - 1 and len(va) < a.bit_count():
                    todo.append((a, min(a.bit_count(), r - 1), None))
                if len(vb) < r - 1 and len(vb) < b.bit_count():
                    todo.append((b, min(b.bit_count(), r - 1), None))
            continue
        # The (j, j1) pairs to try on a split whose sides both have f up to
        # r - 1; a smaller side drops the pairs giving it too many clusters.
        pairs = [(j, j1) for j in range(have + 1, r + 1) for j1 in range(1, j)]
        charge(len(splits) * len(pairs))
        # best[j] = [num, den, A, j1, key or None] of the least (value, key) so far.
        best: list = [None] * (r + 1)
        for a, va, vb in splits:
            la, lb = len(va), len(vb)
            for j, j1 in pairs if la >= r - 1 and lb >= r - 1 else [
                (j, j1) for j, j1 in pairs if j1 <= la and j - j1 <= lb
            ]:
                an, ad = va[j1 - 1]
                bn, bd = vb[j - j1 - 1]
                num, den = an * bd + bn * ad, ad * bd
                cur = best[j]
                if cur is not None:
                    diff = num * cur[1] - cur[0] * den
                    if diff > 0:
                        continue
                    if diff == 0:
                        if cur[4] is None:
                            cur[4] = split_key(C, cur[2], cur[3], j)
                        merged = split_key(C, a, j1, j)
                        if merged < cur[4]:
                            best[j] = [num, den, a, j1, merged]
                        continue
                best[j] = [num, den, a, j1, None]
        for j in range(have + 1, r + 1):
            num, den, a, j1, merged = best[j]
            g = gcd(num, den)
            vals.append((num // g, den // g))
            choice[C, j] = (a, j1)
            if merged is not None:
                keys[C, j] = merged

    # The certificate names each split by the first bounded hole giving it.
    steps: list[tuple[Hole, frozenset]] = []
    leaves: list[frozenset] = []
    for C, j in walk(full, k):
        members = kernel.members(C)
        if j == 1:
            leaves.append(members)
        else:
            a = choice[C, j][0]
            steps.append((next(h for L, h in splitters.items() if C & L in (a, C ^ a)), members))
    num, den = values[full][k - 1]
    return Solution(
        normalize_clustering(leaves),
        Fraction(num, den),
        "sd",
        "exact-goodseq",
        sequence=GoodSequence(tuple(steps)),
    )


class ChainTable:
    """Per-instance table of the well-separated chain dynamic program.

    Element e is ``masks[e]`` of the instance's side-set poset, the kernel's
    int mask of the side-set, in the poset's canonical order, so the empty
    set is element 0 and the full set the last one.  ``succ`` is the
    poset's order, read rather than built: ``succ[e]`` lists the element
    indices of e's strict supersets, in canonical order.  Row e holds the
    exact area of each block (superset minus element) as the integers
    ``nums[e][i] / dens[e][i]``; a block is the XOR of the two elements'
    masks.

    A block's area is read from the kernel's span memo when the memo has
    it.  Otherwise it is computed from the block's two clipped chains (see
    ``geometry._upper_chain``) and written into the memo; a block of one
    member has one-line chains and, as in ``span_area``, area 0.  The
    chains are inherited.  The parent of the block of superset s is the
    block of the first superset of e one member smaller than s, in
    canonical order and read off ``succ``, whose chains are known, and the
    block's chains are the parent's with the missing member's line added,
    run through ``_upper_chain`` again.  That is exact: a line not on the
    parent's chain never carries the maximum inside (0, 1), and adding a
    line cannot change that.  A block with no such parent, or whose
    parents were all read from the memo and so have no chains, starts
    from all of its lines (``SpanKernel.chains``, as in ``span_area``).
    The chains are transient: those of row e's blocks, at most one pair
    per superset, are kept while the row is filled and dropped with it.
    Building a table raises ValueError, before computing any area, when
    the poset's order refuses to build past MAX_CHAIN_PAIRS comparable
    pairs (see ``SeparatorPoset``).

    ``layers`` maps (objective, j) to DP layer j: the best value of a
    well-separated j-clustering of each element's complement, as reduced
    (num, den) pairs, and the superset each element's best value steps to
    (element indices; layer 1 has none).  Layer j depends on layer j-1
    only, so a layer computed for one k serves every larger k.  Layers are
    stored with ``dict.setdefault``: threads racing on one instance may
    compute a layer twice, but every thread reads the same stored one.
    """

    __slots__ = ("masks", "succ", "nums", "dens", "layers")

    def __init__(self, kernel: SpanKernel, poset: SeparatorPoset) -> None:
        masks, succ = poset.masks, poset.succ
        lines, spans = kernel.lines, kernel.spans
        n = len(lines)
        mirrors = [(-v, -a) for v, a in lines]
        sizes = [mask.bit_count() for mask in masks]
        # below[s]: (p, i) for each element p inside s and one member smaller,
        # i the missing member, in canonical order; succ[p] runs by size, so
        # the supersets of p one member larger are its first entries.
        below = [[] for _ in masks]
        for p, (C, sups) in enumerate(zip(masks, succ)):
            size = sizes[p] + 1
            for s in sups:
                if sizes[s] != size:
                    break
                below[s].append((p, n - (masks[s] ^ C).bit_length()))
        get = spans.get
        nums, dens = [], []
        for e, (C, sups) in enumerate(zip(masks, succ)):
            # The clipped chains of e's blocks by superset, kept for the row;
            # below[s] names only elements one member smaller than s, so a
            # lookup in them finds exactly s's possible parents.  Every
            # superset from here on comes after e, so below[e] is read no more.
            chains = {}
            below[e] = None
            areas = []
            for s in sups:
                D = masks[s] ^ C
                if not D & (D - 1):
                    # One member: one-line chains and, as in span_area, area 0.
                    i = n - D.bit_length()
                    chains[s] = ((lines[i],), (mirrors[i],))
                    areas.append(_ZERO)
                    continue
                area = get(D)
                if area is None:
                    for p, i in below[s]:
                        parent = chains.get(p)
                        if parent is not None:
                            upper = _upper_chain(sorted((*parent[0], lines[i])))
                            lower = _upper_chain(sorted((*parent[1], mirrors[i])))
                            break
                    else:
                        upper, lower = kernel.chains(D)
                    chains[s] = (upper, lower)
                    area = spans[D] = _chains_area(upper, lower, kernel.den)
                areas.append(area)
            nums.append(tuple([area.numerator for area in areas]))
            dens.append(tuple([area.denominator for area in areas]))
        self.masks, self.succ = masks, succ
        self.nums, self.dens = nums, dens
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
    check_k(k, len(S))

    kernel = S.kernel
    table = kernel.chain_table
    if table is None:
        table = kernel.chain_table = ChainTable(kernel, build_poset(S, compute_holes(S)))
    layers = table.layers_upto(objective, k)
    masks = table.masks
    full = len(masks) - 1

    num, den = layers[k - 1][0][0]
    chain = []
    e, j = 0, k
    while e != full and j > 1:
        e = layers[j - 1][1][e]
        j -= 1
        if e != full:
            chain.append(kernel.members(masks[e]))
    # The clusters are the differences of consecutive sets of the chain.
    nested = zip([frozenset()] + chain, chain + [S.all_indices()])
    clustering = normalize_clustering(b - a for a, b in nested)
    return Solution(clustering, Fraction(num, den), objective, "wellsep-dp", chain=tuple(chain))


def sd_wellsep_dp(S: TrajectorySet, k: int) -> Solution:
    """Optimal chain clustering for the sum of diameters.

    Dynamic program over chains in the side-set poset; the traceback chain
    yields the clustering as consecutive set differences.  The result is
    well separated, and optimal among the clusterings of that chain form,
    which some well-separated clusterings are not (see the module
    docstring).
    """
    return _wellsep_chain_dp(S, k, "sd")


def md_wellsep_dp(S: TrajectorySet, k: int) -> Solution:
    """Optimal chain clustering for the maximum diameter.

    Same chain dynamic program as the sum objective with + replaced by max,
    and exact over the same chain clusterings.
    """
    return _wellsep_chain_dp(S, k, "md")
