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
from typing import Iterable, Literal

from .geometry import TrajectorySet, crossing_time

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

    def extent(self) -> tuple[Fraction, Fraction]:
        return (self.t_lo, self.t_hi)


HoleSet = tuple


def compute_holes(S: TrajectorySet) -> tuple[Hole, ...]:
    """All faces of the arrangement, one Hole per face.

    Computed once per instance and kept in its kernel; every later call on
    the same instance returns the same tuple.

    Slab sweep: between consecutive crossing times the left-to-right order
    of the trajectories is constant, and the faces meeting the slab are
    exactly the prefixes of that order (including the empty prefix and the
    full set).  The gap above a fixed prefix is a concave function of time,
    hence positive on a single interval, so merging equal prefixes across
    adjacent slabs reconstructs each face exactly once with its full time
    extent.  Zero-width slabs never arise (cuts are deduplicated) and every
    emitted face has positive area by construction.
    """
    kernel = S.kernel
    if kernel.holes is None:
        kernel.holes = _sweep_holes(S)
    return kernel.holes


def _sweep_holes(S: TrajectorySet) -> tuple[Hole, ...]:
    n = len(S)
    if n == 0:
        raise ValueError("compute_holes of an empty trajectory set")

    cuts = {_ZERO, _ONE}
    for i in range(n):
        for j in range(i + 1, n):
            t = crossing_time(S[i], S[j])
            if t is not None and _ZERO < t < _ONE:
                cuts.add(t)
    grid = sorted(cuts)

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
                # A prefix reappearing after a gap would contradict the
                # concavity of its gap function.
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


def is_well_separated(
    S: TrajectorySet,
    clustering: Iterable[Iterable[int]],
    holes: tuple[Hole, ...] | None = None,
) -> bool:
    """Every pair of nonempty clusters is separated by some uncovered hole."""
    clusters = [C if isinstance(C, frozenset) else frozenset(C) for C in clustering]
    clusters = [C for C in clusters if C]
    if len(clusters) <= 1:
        return True
    if holes is None:
        holes = compute_holes(S)
    uncovered = [h for h in holes if not is_covered(S, h, clusters)]
    full = S.all_indices()
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            a, b = clusters[i], clusters[j]
            for h in uncovered:
                left = h.left_set
                right = full - left
                if (a <= left and b <= right) or (b <= left and a <= right):
                    break
            else:
                return False
    return True


@dataclass(frozen=True)
class SeparatorPoset:
    """The distinct hole side-sets, ordered by strict inclusion.

    ``elements`` is sorted by (size, indices); ``successors[C]`` lists the
    strict supersets of C among the elements, in the same canonical order.
    The empty set is the unique source and the full index set the unique
    sink.
    """

    elements: tuple[frozenset, ...]
    successors: dict

    def strict_supersets(self, C: frozenset) -> tuple[frozenset, ...]:
        return self.successors[C]

    def source(self) -> frozenset:
        return self.elements[0]

    def sink(self) -> frozenset:
        return self.elements[-1]

    def __contains__(self, C: frozenset) -> bool:
        return C in self.successors

    def __len__(self) -> int:
        return len(self.elements)

    def hasse_edges(self) -> tuple[tuple[frozenset, frozenset], ...]:
        """Cover relations: A -> B with A < B and nothing strictly between."""
        edges = []
        for a in self.elements:
            for b in self.successors[a]:
                if not any(a < c < b for c in self.successors[a]):
                    edges.append((a, b))
        return tuple(edges)


def build_poset(S: TrajectorySet, holes: tuple[Hole, ...]) -> SeparatorPoset:
    """Deduplicated side-sets of all holes under strict inclusion.

    When ``holes`` is the instance's own hole table (the very tuple
    ``compute_holes(S)`` returns) the poset is built once and kept in the
    instance's kernel; any other hole tuple gets a freshly built poset.
    """
    kernel = S.kernel
    if kernel.holes is not None and holes is kernel.holes:
        if kernel.poset is None:
            kernel.poset = _inclusion_poset(S, holes)
        return kernel.poset
    return _inclusion_poset(S, holes)


def _inclusion_poset(S: TrajectorySet, holes: tuple[Hole, ...]) -> SeparatorPoset:
    full = S.all_indices()
    sets = set()
    for h in holes:
        sets.add(h.left_set)
        sets.add(full - h.left_set)
    elements = tuple(sorted(sets, key=lambda c: (len(c), tuple(sorted(c)))))
    successors = {
        a: tuple(b for b in elements if a < b)
        for a in elements
    }
    return SeparatorPoset(elements, successors)
