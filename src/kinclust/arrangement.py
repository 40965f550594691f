"""Holes of the trajectory arrangement and the inclusion order on their sides.

Between t=0 and t=1 the trajectories cut the strip into convex faces,
called holes.  Every hole is identified by the set of trajectories lying
entirely to its left together with the time window on which the face has
positive width; that is all the clustering algorithms need, so holes are
stored this way instead of as polygons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import groupby
from math import gcd
from operator import and_
from typing import Iterable, Literal

from .geometry import TrajectorySet, _picked

HoleKind = Literal["bounded", "unbounded_left", "unbounded_right"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Hole:
    """One face of the arrangement.

    ``left_set`` holds the indices of the trajectories entirely to the
    face's left; (t_lo, t_hi) is the maximal open time interval on which
    the gap between ``left_set`` and its complement is positive.
    """

    left_set: frozenset
    t_lo: Fraction
    t_hi: Fraction
    kind: HoleKind


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
    (t_lo = t), while every other face carries on.  The gap above a fixed
    prefix is a concave function of time, hence positive on a single
    interval, so no face ever re-opens and each is emitted exactly once
    with its full time extent.  Crossing times come from the kernel's
    integer lines; prefixes are the kernel's int masks, each turned into a
    frozenset once, when its hole is emitted.
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

    # Lines r < s (slope order) cross at t = (a_r - a_s) / (v_s - v_r);
    # group the crossings strictly inside (0, 1) by their reduced time.
    crossing: dict[tuple[int, int], set[int]] = {}
    for r in range(n):
        v1, a1 = lines[r]
        for s in range(r + 1, n):
            v2, a2 = lines[s]
            da, dv = a1 - a2, v2 - v1
            if 0 < da < dv:
                g = gcd(da, dv)
                crossing.setdefault((da // g, dv // g), set()).update((r, s))
    # Correctly rounded division is monotone, so the float decides the
    # order and the exact time only breaks ties between equal floats.
    events = sorted((p / q, Fraction(p, q), p, q) for p, q in crossing)

    # Left-to-right order just after t=0, by position at 0, then slope.
    order = [kernel.rank[i] for i in kernel.leftmost]
    place = [0] * n
    for k, r in enumerate(order):
        place[r] = k
    bit = [kernel.bits[i] for i in kernel.order]  # line r's flag in the kernel's masks

    # faces[slot] = [left mask, t_lo, t_hi]; open_slot[size] is the slot of
    # the face whose left set is the current prefix of that size.  Faces
    # open in (t_lo, size) order, so they need no sort.
    prefix = 0
    faces = [[0, _ZERO, None]]
    for r in order:
        prefix |= bit[r]
        faces.append([prefix, _ZERO, None])
    open_slot = list(range(n + 1))
    seen = {face[0] for face in faces}

    for _, t, p, q in events:
        # Lines through one crossing point are adjacent in the order and
        # share their position at t, the integer a*q + v*p over den*q.
        ranks = sorted(crossing[p, q], key=place.__getitem__)
        for _, pencil in groupby(ranks, key=lambda r: lines[r][1] * q + lines[r][0] * p):
            pencil = list(pencil)
            lo, hi = place[pencil[0]], place[pencil[-1]]
            order[lo:hi + 1] = reversed(order[lo:hi + 1])
            for k in range(lo, hi + 1):
                place[order[k]] = k
            mask = faces[open_slot[lo]][0]
            for size in range(lo + 1, hi + 1):
                faces[open_slot[size]][2] = t
                mask |= bit[order[size - 1]]
                if mask in seen:
                    # A prefix reappearing after a gap would contradict the
                    # concavity of its gap function.
                    raise AssertionError(f"face {sorted(kernel.members(mask))} re-opened at t={t}")
                seen.add(mask)
                open_slot[size] = len(faces)
                faces.append([mask, t, None])
    for slot in open_slot:
        faces[slot][2] = _ONE

    full = (1 << n) - 1
    holes = []
    for mask, lo, hi in faces:
        if not mask:
            kind: HoleKind = "unbounded_left"
        elif mask == full:
            kind = "unbounded_right"
        else:
            kind = "bounded"
        holes.append(Hole(kernel.members(mask), lo, hi, kind))
    return tuple(holes)


def side_partition(S: TrajectorySet, h: Hole) -> tuple[frozenset, frozenset]:
    """The two sides induced by a hole: (left set, right set)."""
    return h.left_set, S.all_indices() - h.left_set


def hole_within_span(S: TrajectorySet, h: Hole, C: Iterable[int]) -> bool:
    """True when the hole's face lies inside span(C).

    During the hole's time window no trajectory enters the face, so C's
    span covers the face as soon as C has a member on each side of it.
    Tangential corner contact still counts as covered: it changes the
    containment only on a set of measure zero.
    """
    cluster = C if isinstance(C, frozenset) else frozenset(C)
    return bool(cluster & h.left_set) and not cluster <= h.left_set


def is_covered(S: TrajectorySet, h: Hole, clustering: Iterable[Iterable[int]]) -> bool:
    """True when some cluster's span contains the hole."""
    return any(hole_within_span(S, h, C) for C in clustering)


def separates(S: TrajectorySet, h: Hole, C1: Iterable[int], C2: Iterable[int]) -> bool:
    """True when the hole has C1 and C2 entirely on opposite sides."""
    a = C1 if isinstance(C1, frozenset) else frozenset(C1)
    b = C2 if isinstance(C2, frozenset) else frozenset(C2)
    left, right = side_partition(S, h)
    return (a <= left and b <= right) or (b <= left and a <= right)


def is_well_separated(S: TrajectorySet, clustering: Iterable[Iterable[int]]) -> bool:
    """Every pair of nonempty clusters is separated by some uncovered hole.

    No cluster meets both sides of an uncovered hole, so each uncovered
    hole puts every cluster on one side, and two clusters are separated
    exactly when their tuples of sides over the uncovered holes differ.
    """
    clusters = [C for C in map(frozenset, clustering) if C]
    if len(clusters) <= 1:
        return True
    uncovered = [h.left_set for h in compute_holes(S) if not is_covered(S, h, clusters)]
    return len({tuple(C <= left for left in uncovered) for C in clusters}) == len(clusters)


@dataclass(frozen=True)
class SeparatorPoset:
    """The distinct hole side-sets, ordered by strict inclusion.

    ``elements`` is sorted by (size, indices), so the empty set, the
    unique source, is ``elements[0]`` and the full index set, the unique
    sink, is ``elements[-1]``.  ``succ[e]`` lists the strict supersets of
    element e among the elements as element indices, in the same
    canonical order.  ``successors`` maps each element to its strict
    supersets as frozensets; it is built on first read.
    """

    elements: tuple[frozenset, ...]
    succ: tuple[tuple[int, ...], ...]

    @cached_property
    def successors(self) -> dict[frozenset, tuple[frozenset, ...]]:
        elements = self.elements
        return {C: tuple(map(elements.__getitem__, sups)) for C, sups in zip(elements, self.succ)}

    def __len__(self) -> int:
        return len(self.elements)


def build_poset(S: TrajectorySet, holes: tuple[Hole, ...]) -> SeparatorPoset:
    """Deduplicated side-sets of ``holes`` under strict inclusion.

    Built afresh on every call and kept nowhere: the well-separated DP
    keeps what it needs of the instance's poset in its chain table.
    """
    # Complements are frozen from a set, so that each frozenset's table is
    # sized to its members rather than grown one member at a time.
    full = set(range(len(S)))
    sets = set()
    for h in holes:
        sets.add(h.left_set)
        sets.add(frozenset(full - h.left_set))
    elements = tuple(sorted(sets, key=lambda c: (len(c), tuple(sorted(c)))))
    # containing[i] flags the elements holding i; element e carries the flag
    # 1 << (m - 1 - e) of m, so each is read from one base-2 numeral.
    m = len(elements)
    numerals = [bytearray(b"0") * m for _ in range(len(S))]
    for e, c in enumerate(elements):
        for i in c:
            numerals[i][e] = 49  # "1"
    containing = [int(numeral, 2) for numeral in numerals]
    # An element's strict supersets are the later elements holding all of
    # its members: elements sort by size, so no earlier one can.  Decoding
    # from one tuple shares its int objects between all the rows.
    holding = containing.__getitem__
    index = tuple(range(m))
    succ = tuple(
        tuple(_picked(index, reduce(and_, map(holding, c), (1 << (m - 1 - e)) - 1)))
        for e, c in enumerate(elements)
    )
    return SeparatorPoset(elements, succ)
