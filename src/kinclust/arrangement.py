"""Holes of the trajectory arrangement and the inclusion order on their sides.

Between t=0 and t=1 the trajectories cut the strip into convex faces,
called holes.  Every hole is identified by the set of trajectories lying
entirely to its left together with the time window on which the face has
positive width; that is all the clustering algorithms need, so holes are
stored this way instead of as polygons.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import groupby
from math import gcd
from operator import and_
from typing import Iterable, Literal, NamedTuple

from .geometry import TrajectorySet, _mask_members, _picked

HoleKind = Literal["bounded", "unbounded_left", "unbounded_right"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Most left-set members the hole table may hold, bounded as (n + 1 +
# crossings) * n while the sweep counts the crossings in (0, 1); past the
# cap ``compute_holes`` raises ValueError before it builds any hole.  Holes
# keep int masks, so the members cost memory only while a caller keeps the
# left sets it reads, which only ``kinclust holes`` reads: about 28 bytes
# of peak RSS per unit of the bound on CPython 3.11.7.
# Seed-1 instances: the bound is 0.27 million at n=128, 16.2 million at
# n=512 (0.12 s and +15 MB for the holes alone, 1.0-1.1 s and +452 MB
# with every left set read and kept) and 55 million at n=768, which the
# cap refuses.
MAX_HOLE_MEMBERS = 20_000_000

# Most comparable pairs P of side-sets that a poset's order may hold, one
# block area each in the chain table; past the cap every reader of the
# order raises ValueError (see SeparatorPoset).  A cold table costs about
# 8 microseconds and 120 bytes of peak RSS per pair on CPython 3.11.7.
# Seed-1 instances: P is 1.1 million at n=96 (8-10 s, +133 MB), 3.2
# million at n=128 (25 s, +408 MB) and 14.7 million at n=192, which the
# cap refuses.  The pairs are counted while the order's rows are built,
# so a refusal builds only a prefix of the order: n=512 (P 655 million)
# is refused in 0.4 s and +7 MB past the poset, and its well-separated DP
# in 0.7 s and +82 MB, holes included.
MAX_CHAIN_PAIRS = 4_000_000


class Hole(NamedTuple):
    """One face of the arrangement, ``Hole(mask, n, t_lo, t_hi)``.

    ``mask`` flags the trajectories entirely to the face's left, member i
    of n carrying ``1 << (n - 1 - i)`` as in the kernel; (t_lo, t_hi) is
    the maximal open time interval on which the gap between them and the
    rest is positive.  ``left_set``, their frozenset of indices, is
    decoded from the mask on each read and kept nowhere, and ``kind``
    follows the mask.  A hole is a named tuple: it equals, hashes and
    orders like the plain tuple of its four fields, and has no ``__dict__``.
    """

    mask: int
    n: int
    t_lo: Fraction
    t_hi: Fraction

    @property
    def left_set(self) -> frozenset:
        return _mask_members(self.mask, self.n)

    @property
    def kind(self) -> HoleKind:
        if not self.mask:
            return "unbounded_left"
        if self.mask == (1 << self.n) - 1:
            return "unbounded_right"
        return "bounded"


def compute_holes(S: TrajectorySet) -> tuple[Hole, ...]:
    """All faces of the arrangement, one Hole per face.

    Computed once per instance and kept in its kernel, the one result of
    this module it keeps; every later call on the same instance returns
    the same tuple, ordered by (t_lo, size of the left set, its sorted
    indices).

    Event sweep (kinetic sorting): at any time the faces are exactly the
    prefixes of the left-to-right order of the trajectories, the empty
    prefix and the full set included.  The order changes only at crossing
    times inside (0, 1); there the lines through each crossing point form
    a contiguous block of the order that simply reverses, so the prefixes
    strictly inside such a block close (t_hi = t) and new ones open
    (t_lo = t), while every other face carries on.  Most times hold one
    crossing of two lines, which swaps two neighbours at places lo and
    lo + 1: the face of size lo + 1 closes and one opens, the size-lo
    prefix plus the line now at lo, with no sort or grouping.  The gap
    above a fixed prefix is a concave function of time, hence positive on
    a single interval, so no face ever re-opens and each is emitted
    exactly once with its full time extent; the sweep keeps only the open
    faces, and ``oracle.holes_slab``, the referee the tests compare it
    with, checks that claim.  Crossing times come from the kernel's
    integer lines, and only crossing pairs are visited: the crossings
    inside (0, 1) are the inversions between the lines' orders at t=0 and
    at t=1, so the X crossing pairs take O(n log n + X) Python steps, not
    one per pair of lines.  Prefixes are the kernel's int masks, and each
    hole keeps its mask, so no frozenset is built until a left set is
    read.  Raises ValueError, before building any hole, when the table's
    left sets may hold more than MAX_HOLE_MEMBERS members.
    """
    kernel = S.kernel
    if kernel.holes is None:
        kernel.holes = _sweep_holes(S)
    return kernel.holes


def _sweep_holes(S: TrajectorySet) -> tuple[Hole, ...]:
    n = len(S)
    if n == 0:
        raise ValueError("compute_holes of an empty trajectory set")
    kernel = S.kernel
    lines = kernel.lines

    # Visited by start, then end (the ``leftmost`` order), a line crosses
    # inside (0, 1) exactly the earlier lines that end strictly to its
    # right, past one bisection of their sorted ends.  A shared start never
    # crosses inside the strip, and a shared end crosses only at t=1.
    # Crossings are grouped by their reduced time (a_i - a_j) / (v_j - v_i),
    # each with its lines.  Each crossing pair opens at most one face, and
    # a face's left set holds at most n members, which bounds the hole
    # table's size.
    most = MAX_HOLE_MEMBERS // n - n - 1
    pairs = 0
    ends: list[tuple[int, int]] = []  # (end, line) of the lines visited, by end
    crossing: dict[tuple[int, int], set[int]] = {}
    for i in kernel.leftmost:
        v, a = lines[i]
        e = a + v
        k = bisect_right(ends, (e, n))
        pairs += len(ends) - k
        if pairs > most:
            raise ValueError(
                f"compute_holes: the hole table may hold more than "
                f"MAX_HOLE_MEMBERS = {MAX_HOLE_MEMBERS} left-set members"
            )
        for _, j in ends[k:]:
            w, b = lines[j]
            da, dv = a - b, w - v
            g = gcd(da, dv)
            crossing.setdefault((da // g, dv // g), set()).update((i, j))
        ends.insert(k, (e, i))
    # Correctly rounded division is monotone, so the float decides the
    # order and the exact time only breaks ties between equal floats; no
    # two keys share a time, so the member sets are never compared.
    events = sorted([(p / q, Fraction(p, q), p, q, members) for (p, q), members in crossing.items()])

    # Left-to-right order just after t=0, by position at 0, then slope.
    order = list(kernel.leftmost)
    place = [0] * n
    for k, i in enumerate(order):
        place[i] = k
    # Member i's flag in the kernel's masks; n * n <= MAX_HOLE_MEMBERS here.
    bit = [1 << (n - 1 - i) for i in range(n)]

    # faces holds [left mask, n, t_lo, t_hi] lists, a Hole's fields;
    # opened[size] is the open face whose left set is the current prefix of
    # that size.  Faces open in (t_lo, size) order, so they need no sort.
    prefix = 0
    faces = [[0, n, _ZERO, None]]
    for i in order:
        prefix |= bit[i]
        faces.append([prefix, n, _ZERO, None])
    opened = faces[:]

    for _, t, p, q, members in events:
        if len(members) == 2:
            # The one crossing at t swaps two neighbours: only the prefix
            # of size lo + 1 changes, by the line now at lo.
            i, j = members
            if place[i] > place[j]:
                i, j = j, i
            lo = place[i]
            order[lo], order[lo + 1] = j, i
            place[i], place[j] = lo + 1, lo
            opened[lo + 1][3] = t
            opened[lo + 1] = face = [opened[lo][0] | bit[j], n, t, None]
            faces.append(face)
            continue
        # Lines through one crossing point are adjacent in the order and
        # share their position at t, the integer a*q + v*p over den*q.
        members = sorted(members, key=place.__getitem__)
        for _, pencil in groupby(members, key=lambda i: lines[i][1] * q + lines[i][0] * p):
            pencil = list(pencil)
            lo, hi = place[pencil[0]], place[pencil[-1]]
            order[lo:hi + 1] = reversed(order[lo:hi + 1])
            for k in range(lo, hi + 1):
                place[order[k]] = k
            mask = opened[lo][0]
            for size in range(lo + 1, hi + 1):
                opened[size][3] = t
                mask |= bit[order[size - 1]]
                opened[size] = face = [mask, n, t, None]
                faces.append(face)
    for face in opened:
        face[3] = _ONE
    return tuple(map(Hole._make, faces))


def _hole_mask(S: TrajectorySet, h: Hole, caller: str) -> int:
    """The mask of a hole, checked to be a hole of an instance of S's size."""
    if h.n != len(S):
        raise ValueError(f"{caller}: a hole of {h.n} trajectories, not {len(S)}")
    return h.mask


def _straddles(C: int, L: int) -> bool:
    """True when cluster mask C meets both sides of the hole with left mask L."""
    return 0 != C & L != C


def hole_within_span(S: TrajectorySet, h: Hole, C: Iterable[int]) -> bool:
    """True when the hole's face lies inside span(C).

    During the hole's time window no trajectory enters the face, so C's
    span covers the face as soon as C has a member on each side of it.
    Tangential corner contact still counts as covered: it changes the
    containment only on a set of measure zero.  Raises ``ValueError`` on
    a member that is not an index of ``S`` or a hole of another size.
    """
    return _straddles(S.kernel.mask(C), _hole_mask(S, h, "hole_within_span"))


def is_covered(S: TrajectorySet, h: Hole, clustering: Iterable[Iterable[int]]) -> bool:
    """True when some cluster's span contains the hole, as ``hole_within_span``."""
    L, mask = _hole_mask(S, h, "is_covered"), S.kernel.mask
    return any(_straddles(mask(C), L) for C in clustering)


def is_well_separated(S: TrajectorySet, clustering: Iterable[Iterable[int]]) -> bool:
    """Every pair of nonempty clusters is separated by some uncovered hole.

    No cluster meets both sides of an uncovered hole, so each uncovered
    hole puts every cluster on one side, and two clusters are separated
    exactly when their tuples of sides over the uncovered holes differ.
    Clusters and holes are compared as the kernel's int masks.  Raises
    ``ValueError`` on a member that is not an index of ``S``.
    """
    clusters = [C for C in map(S.kernel.mask, clustering) if C]
    if len(clusters) <= 1:
        return True
    holes = [h.mask for h in compute_holes(S)]
    uncovered = [L for L in holes if not any(_straddles(C, L) for C in clusters)]
    return len({tuple(C & L == C for L in uncovered) for C in clusters}) == len(clusters)


@dataclass(frozen=True)
class SeparatorPoset:
    """The distinct hole side-sets, ordered by strict inclusion.

    ``SeparatorPoset(masks)``: ``masks`` holds the side-sets as the
    kernel's int masks (member i of n carries the flag ``1 << (n - 1 -
    i)``), sorted by (size, indices), so the empty set, the unique source,
    is ``masks[0]`` and the full index set, the unique sink, is
    ``masks[-1]``, whose bit length is ``n``.  The order is a function of
    the masks, so two posets are equal, and hash equal, when their masks
    are.

    Everything else is built on first read and kept.  ``elements`` holds
    the side-sets as frozensets of indices, ``succ[e]`` lists the strict
    supersets of element e as element indices, in the same canonical
    order, and ``successors`` maps each element to its strict supersets
    as frozensets.  A caller that reads only the masks never pays for the
    order, its P comparable pairs or any frozenset.  ``succ`` is the one
    routine that builds the order and the one form it is kept in: it
    builds each row as an int mask over the m elements, counts the pairs
    as the rows arrive and raises ValueError, keeping nothing, once they
    pass MAX_CHAIN_PAIRS, before it decodes any row, so ``successors``
    and the chain table, which read it, refuse at the same row.
    """

    masks: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.masks[-1].bit_length()

    @cached_property
    def elements(self) -> tuple[frozenset, ...]:
        return tuple(_mask_members(mask, self.n) for mask in self.masks)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        # Row e, the AND over e's members of the elements holding each member,
        # flags its strict supersets.  The masks are sorted by size, so no earlier
        # element can be one, and the smallest, with the most, come first.
        masks, n, m = self.masks, self.n, len(self.masks)
        # Digit e*n + i of the concatenated n-digit numerals flags index i in
        # element e, so every n-th digit from i on is the base-2 numeral of
        # containing[i], in which element e carries the flag 1 << (m - 1 - e).
        # The numerals are joined 4096 elements at a time, each slice's digits
        # appended to containing[i], so at most 4096 * n digits are alive.
        containing = [0] * n
        for start in range(0, m, 4096):
            piece = masks[start:start + 4096]
            digits = "".join([f"{mask:0{n}b}" for mask in piece])
            for i in range(n):
                containing[i] = containing[i] << len(piece) | int(digits[i::n], 2)
        rows, pairs = [], 0
        for e, mask in enumerate(masks):
            row = reduce(and_, _picked(containing, mask), (1 << (m - 1 - e)) - 1)
            pairs += row.bit_count()
            if pairs > MAX_CHAIN_PAIRS:
                raise ValueError(
                    f"SeparatorPoset: the order has more comparable pairs than "
                    f"MAX_CHAIN_PAIRS = {MAX_CHAIN_PAIRS}"
                )
            rows.append(row)
        # Decoding from one tuple shares its int objects between all the rows.
        index = tuple(range(m))
        return tuple(tuple(_picked(index, row)) for row in rows)

    @cached_property
    def successors(self) -> dict[frozenset, tuple[frozenset, ...]]:
        # The order first: past the cap it refuses before any frozenset.
        succ = self.succ
        elements = self.elements
        return {C: tuple(map(elements.__getitem__, sups)) for C, sups in zip(elements, succ)}

    def __len__(self) -> int:
        return len(self.masks)


def build_poset(S: TrajectorySet, holes: tuple[Hole, ...]) -> SeparatorPoset:
    """Deduplicated side-sets of ``holes`` under strict inclusion.

    The empty and the full index set are always elements, so the poset
    has its source and sink even when ``holes`` omits the unbounded faces
    (or is empty).

    Built afresh on every call and kept nowhere: the well-separated DP
    keeps what it needs of the instance's poset in its chain table.
    Raises ValueError on a hole of an instance of another size.

    Each side-set is a hole's mask, and a complement is the mask XOR the
    full set, so no left set is read.  Of two sets of one size,
    the one with the greater mask has the lesser sorted indices, so
    sorting by (size, -mask) gives the (size, indices) order.  Only the
    masks are built here; the order is built when first read.
    """
    n = len(S)
    full = (1 << n) - 1
    sides = {0, full}
    for h in holes:
        if h.n != n:
            raise ValueError(f"build_poset: a hole of {h.n} trajectories, not {n}")
        sides.add(h.mask)
        sides.add(full ^ h.mask)
    # Two sorts keyed in C: by descending mask, then stably by size.
    return SeparatorPoset(tuple(sorted(sorted(sides, reverse=True), key=int.bit_count)))
