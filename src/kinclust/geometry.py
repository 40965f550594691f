"""Exact geometry for points moving on a line during the unit time interval.

A moving point is stored as the pair of its positions at t=0 and t=1; its
trajectory is the straight segment joining those two points in the (x, t)
plane.  All coordinates are ``fractions.Fraction``, so every predicate
(ordering, crossing) and every measure (span area) the clustering code
relies on is computed exactly and reproducibly.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Union

if TYPE_CHECKING:
    from .sum_diameter import GoodSequence

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]
Side = Literal["left", "right"]
# "sd" is the sum of the cluster diameters, "md" the largest of them.
Objective = Literal["sd", "md"]

# A cluster is a frozenset of trajectory indices; a clustering is a tuple of
# pairwise-disjoint clusters covering all indices.
Cluster = frozenset
Clustering = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest decimal exponent magnitude a scalar literal may carry.
# Fraction("1e999999999") would build 10**999999999 digit by digit; the
# bound matches CPython's default limit on the digits of a parsed int.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _parse_scalar(text: str) -> Fraction:
    match = _EXPONENT.search(text)
    if match is not None:
        digits = match[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond +-{MAX_EXPONENT} in scalar literal")
    return Fraction(text)


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, str, or Fraction to an exact Fraction.

    Strings may be decimal literals ("0.25", "-1.5e-2") or ratios ("3/4");
    both parse exactly.  A decimal exponent beyond MAX_EXPONENT in
    magnitude raises ValueError instead of building a huge power of ten.
    Floats are rejected on purpose: converting one would bake binary
    rounding error into an otherwise exact pipeline.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_scalar(value)
    raise TypeError(f"expected Fraction, int, or str, got {type(value).__name__}")


@dataclass(frozen=True, order=True)
class Trajectory:
    """One moving point: its positions at t=0 and t=1; velocity is derived.

    Ordering compares (x0, x1) lexicographically, which is exactly the
    bottom-leftmost order used by the solvers.
    """

    x0: Fraction
    x1: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", as_scalar(self.x0))
        object.__setattr__(self, "x1", as_scalar(self.x1))

    @property
    def velocity(self) -> Fraction:
        return self.x1 - self.x0

    def position(self, t: ScalarLike) -> Fraction:
        """Position at time ``t``; only 0 <= t <= 1 is meaningful."""
        t = as_scalar(t)
        if not _ZERO <= t <= _ONE:
            raise ValueError(f"time {t} outside [0, 1]")
        return self.x0 + (self.x1 - self.x0) * t

    def midpoint(self) -> Fraction:
        """Position at t = 1/2, i.e. the average of the two endpoints."""
        return (self.x0 + self.x1) / 2

    def __repr__(self) -> str:  # compact: Trajectory(0 -> 2)
        return f"Trajectory({self.x0} -> {self.x1})"


@dataclass(frozen=True)
class TrajectorySet:
    """Ordered, duplicate-free collection of trajectories with stable indices.

    The value is immutable.  Each instance also carries a ``kernel`` (see
    SpanKernel), built on first use, that memoizes span areas, holes, and
    the well-separated DP's chain table for that instance alone; it is
    not a field, so equality, hashing, repr, pickling, and copying ignore
    it.
    """

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "trajectories", tuple(self.trajectories))
        seen: dict[Trajectory, int] = {}
        for i, s in enumerate(self.trajectories):
            if s in seen:
                raise ValueError(f"duplicate trajectory at indices {seen[s]} and {i}: {s}")
            seen[s] = i

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[ScalarLike, ScalarLike]]) -> "TrajectorySet":
        return cls(tuple(Trajectory(x0, x1) for x0, x1 in pairs))

    def __len__(self) -> int:
        return len(self.trajectories)

    def __getitem__(self, index: int) -> Trajectory:
        return self.trajectories[index]

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def all_indices(self) -> frozenset:
        return frozenset(range(len(self.trajectories)))

    @cached_property
    def kernel(self) -> "SpanKernel":
        return SpanKernel(self.trajectories)

    def __getstate__(self) -> dict:
        # Pickles and copies carry the trajectories only, never the kernel.
        return {"trajectories": self.trajectories}


def as_cluster(indices: Iterable[int], n: int) -> frozenset:
    """Validate a collection of indices into n trajectories and freeze it."""
    cluster = frozenset(indices)
    for i in cluster:
        if type(i) is not int and (not isinstance(i, int) or isinstance(i, bool)):
            raise ValueError(f"cluster member {i!r} is not an integer index")
        if not 0 <= i < n:
            raise ValueError(f"cluster index {i} out of range")
    return cluster


def canonical_key(clustering: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Order-free key for a clustering: sorted tuple of sorted clusters."""
    return tuple(sorted(tuple(sorted(c)) for c in clustering))


def normalize_clustering(clusters: Iterable[Iterable[int]]) -> Clustering:
    """Drop empty clusters and put the rest in canonical order."""
    live = [frozenset(c) for c in clusters if c]
    live.sort(key=lambda c: tuple(sorted(c)))
    return tuple(live)


@dataclass(frozen=True)
class Solution:
    """Result of a clustering solver, for either objective.

    ``value`` is the ``objective`` of ``clustering``.  Only the solver's
    own certificate is set: the split ``sequence`` of the exact solver,
    the side-set ``chain`` of the well-separated dynamic program, or the
    final ``interval``, ``delta`` and ``iterations`` of bsearch.
    """

    clustering: Clustering
    value: Fraction
    objective: Objective
    method: str
    sequence: GoodSequence | None = None
    chain: tuple[frozenset, ...] | None = None
    interval: tuple[Fraction, Fraction] | None = None
    delta: Fraction | None = None
    iterations: int | None = None


def check_k(k: int, n: int) -> None:
    """Require a number of clusters k: an int, not a bool, in [1, n]."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k!r}")


def check_clustering(S: TrajectorySet, clustering: Iterable[Iterable[int]]) -> Clustering:
    """Validate that ``clustering`` partitions the index set of ``S``."""
    clusters = tuple(as_cluster(c, len(S)) for c in clustering)
    total = 0
    union: set[int] = set()
    for c in clusters:
        total += len(c)
        union |= c
    if total != len(union) or union != set(range(len(S))):
        raise ValueError("clusters must be disjoint and cover every trajectory index")
    return clusters


def pairwise_diameter(a: Trajectory, b: Trajectory) -> Fraction:
    """Area of the span of two trajectories: the time integral of their distance.

    Closed form (see ``_pair_terms``) in the signed differences d0 and d1 of
    the positions at t=0 and t=1.
    """
    p, q = _pair_terms(a.x0 - b.x0, a.x1 - b.x1)
    return p / (2 * q)


@dataclass(frozen=True)
class Envelope:
    """Piecewise-linear boundary of a span: breakpoints (t, x), t increasing 0..1."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def value(self, t: ScalarLike) -> Fraction:
        t = as_scalar(t)
        if not _ZERO <= t <= _ONE:
            raise ValueError(f"time {t} outside [0, 1]")
        times = [bp[0] for bp in self.breakpoints]
        i = bisect.bisect_right(times, t) - 1
        if i >= len(self.breakpoints) - 1:
            return self.breakpoints[-1][1]
        t0, x0 = self.breakpoints[i]
        t1, x1 = self.breakpoints[i + 1]
        return x0 + (x1 - x0) * (t - t0) / (t1 - t0)


def _upper_chain(lines: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The lines carrying max(a + v*t) over 0 <= t <= 1, in time order.

    ``lines`` are distinct integer (v, a) pairs sorted by slope, then
    intercept.  This is Andrew's monotone chain on the dual points (v, a):
    a line stays only while it is strictly above its neighbours on an
    interval of positive length, so lines through a common crossing
    (pencils) and parallel lower lines drop out.  The chain is then
    clipped to the lines that carry the maximum somewhere inside (0, 1),
    which makes every breakpoint between consecutive lines lie strictly
    between 0 and 1.
    """
    chain: list[tuple[int, int]] = []
    for v, a in lines:
        if chain and chain[-1][0] == v:
            chain.pop()  # parallel and lower
        while len(chain) >= 2:
            v1, a1 = chain[-2]
            v2, a2 = chain[-1]
            # Drop line 2 unless it overtakes line 1 strictly before line 3 overtakes it.
            if (a1 - a2) * (v - v2) < (a2 - a) * (v2 - v1):
                break
            chain.pop()
        chain.append((v, a))
    # Breakpoint j is at t = (a_j - a_j+1) / (v_j+1 - v_j), increasing in j.
    lo, hi = 0, len(chain)
    while lo + 1 < hi and chain[lo][1] <= chain[lo + 1][1]:  # at t <= 0
        lo += 1
    while lo + 1 < hi and sum(chain[hi - 2]) >= sum(chain[hi - 1]):  # at t >= 1
        hi -= 1
    return chain[lo:hi]


# Maps the characters of a binary numeral to the bytes 0 and 1, so that a
# bitmask decodes into itertools.compress selectors in C.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _picked(items, mask: int):
    """The items flagged in ``mask``, in order.

    Item k of m items carries the flag 1 << (m - 1 - k), so the binary
    numeral of ``mask`` reads the flags from its first flagged item on.
    """
    flags = f"{mask:b}".encode().translate(_BITS)
    return compress(items[len(items) - len(flags):], flags)


def _mirrored(lines: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The lines of x -> -x, again sorted by slope, then intercept."""
    return [(-v, -a) for v, a in reversed(lines)]


def _pair_terms(d0, d1):
    """(p, q) with p / (2 q) the span area of two members.

    d0 and d1 are the members' signed differences at t=0 and t=1, as
    Fractions or as integers in units of 1/den (the area is then over den
    as well).  The integral of the difference's absolute value over [0, 1]
    is |d0 + d1| / 2 without a sign change, else (d0^2 + d1^2) / (2 |d0 -
    d1|) for the two triangles on either side of the crossing.
    """
    if d0 * d1 >= 0:
        return abs(d0 + d1), 1
    return d0 * d0 + d1 * d1, abs(d0 - d1)


class SpanKernel:
    """Exact per-instance kernel of a TrajectorySet.

    Member i moves along x(t) = (a + v*t) / den, where a = x0 * den and
    v = (x1 - x0) * den are integers over the common denominator ``den``
    of every coordinate.  ``lines`` holds the (v, a) pairs sorted by slope,
    then intercept, ``rank[i]`` is member i's place in that order and
    ``order`` the members in that order.  ``leftmost`` lists the member
    indices in bottom-leftmost order, by (x0, x1).

    The kernel alone encodes clusters: a cluster is the int mask in which
    member i carries the flag ``bits[i] = 1 << (n - 1 - rank[i])``, so the
    mask's binary numeral reads the members in slope order and decodes
    straight into sorted lines.  ``mask`` and ``members`` convert between
    a frozenset of indices and its mask.

    ``spans`` memoizes span areas by mask and ``rows`` the pairwise
    span-area rows of the members asked for; ``holes`` holds the
    arrangement's hole table once computed (see ``arrangement``), and
    ``chain_table`` the block areas and layers of the well-separated
    dynamic program (see ``sum_diameter.ChainTable``), which keep the
    side-set poset's elements and index successors; the poset itself is
    not kept.  The kernel lives and dies with its instance.
    """

    __slots__ = (
        "den", "lines", "rank", "order", "bits", "leftmost",
        "spans", "rows", "holes", "chain_table",
    )

    def __init__(self, trajectories: tuple[Trajectory, ...]) -> None:
        den = math.lcm(*(x.denominator for s in trajectories for x in (s.x0, s.x1)))
        ends = [
            (s.x0.numerator * (den // s.x0.denominator), s.x1.numerator * (den // s.x1.denominator))
            for s in trajectories
        ]
        raw = [(x1 - x0, x0) for x0, x1 in ends]
        order = sorted(range(len(raw)), key=raw.__getitem__)
        rank = [0] * len(raw)
        for r, i in enumerate(order):
            rank[i] = r
        self.den = den
        self.lines = tuple(raw[i] for i in order)
        self.rank = tuple(rank)
        self.order = tuple(order)
        self.bits = tuple(1 << (len(raw) - 1 - r) for r in rank)
        self.leftmost = tuple(sorted(range(len(ends)), key=ends.__getitem__))
        self.spans: dict[int, Fraction] = {}
        self.rows: dict[int, tuple[Fraction, ...]] = {}
        self.holes = None
        self.chain_table = None

    def mask(self, members: Iterable[int]) -> int:
        """The int mask of distinct valid member indices."""
        return sum(map(self.bits.__getitem__, members))

    def members(self, mask: int) -> frozenset:
        """The frozenset of member indices flagged in ``mask``."""
        # Frozen from a set, so that its table is sized to its members.
        return frozenset(set(_picked(self.order, mask)))

    def span_area(self, mask: int) -> Fraction:
        """Span area of the members flagged in ``mask``, memoized by mask.

        Zero below two members.

        For a convex chain with breakpoints between lines (v1, a1) and
        (v2, a2), integrating piece by piece and summing by parts gives
        F(1) plus (a1 - a2)^2 / (2 (v2 - v1)) per breakpoint, where F is
        the antiderivative a*t + v*t^2/2 of the line carrying t = 1.  The
        span area is the integral of the upper chain of the lines plus that
        of the upper chain of the mirrored lines, all over den.
        """
        if not mask & (mask - 1):
            return _ZERO
        area = self.spans.get(mask)
        if area is None:
            ends = 0  # 2 F(1) of both chains, in units of 1/den
            num, den = 0, 1  # sum of (a1 - a2)^2 / (v2 - v1) over the breakpoints
            ordered = list(_picked(self.lines, mask))
            for chain in (_upper_chain(ordered), _upper_chain(_mirrored(ordered))):
                v, a = chain[-1]
                ends += 2 * a + v
                for (v1, a1), (v2, a2) in zip(chain, chain[1:]):
                    dv, da = v2 - v1, a1 - a2
                    g = math.gcd(den, dv)
                    num = num * (dv // g) + da * da * (den // g)
                    den = den // g * dv
            area = self.spans[mask] = Fraction(ends * den + num, 2 * self.den * den)
        return area

    def pair_row(self, i: int) -> tuple[Fraction, ...]:
        """Member i's pairwise span areas to every member j, in index order.

        Entry j equals ``pairwise_diameter(S[i], S[j])``; the row is
        memoized, and only rows asked for are ever built.
        """
        row = self.rows.get(i)
        if row is None:
            lines, den2 = self.lines, 2 * self.den
            v, a = lines[self.rank[i]]
            row = []
            for r in self.rank:
                w, b = lines[r]
                p, q = _pair_terms(a - b, a - b + v - w)
                row.append(Fraction(p, den2 * q))
            row = self.rows[i] = tuple(row)
        return row

    def min_pair_area(self) -> Fraction:
        """Smallest span area over all pairs of at least two members.

        One pass over the pairs in integers, comparing p / q by
        cross-multiplication; a single Fraction is built at the end.
        """
        lines = self.lines
        if len(lines) < 2:
            raise ValueError("min_pair_area needs at least two members")
        best_p, best_q = None, 1
        for r, (v, a) in enumerate(lines):
            for w, b in lines[r + 1:]:
                p, q = _pair_terms(a - b, a - b + v - w)
                if best_p is None or p * best_q < best_p * q:
                    best_p, best_q = p, q
        return Fraction(best_p, 2 * self.den * best_q)


def envelope(S: TrajectorySet, C: Iterable[int], side: Side) -> Envelope:
    """Left (pointwise min) or right (pointwise max) side of the cluster's span.

    Breakpoints appear only where the boundary switches between member
    trajectories; switching members cross at the breakpoint, so consecutive
    pieces always have distinct slopes.  They come from the same convex
    chain of lines that ``diameter`` integrates.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    members = as_cluster(C, len(S))
    if not members:
        raise ValueError("envelope of an empty cluster")
    kernel = S.kernel
    lines = list(_picked(kernel.lines, kernel.mask(members)))
    # The left envelope is the right envelope of the mirrored lines, negated.
    sign = 1 if side == "right" else -1
    chain = _upper_chain(lines if sign == 1 else _mirrored(lines))
    den = kernel.den
    points = [(_ZERO, Fraction(sign * chain[0][1], den))]
    for (v1, a1), (v2, a2) in zip(chain, chain[1:]):
        dv, da = v2 - v1, a1 - a2
        points.append((Fraction(da, dv), Fraction(sign * (a1 * dv + v1 * da), dv * den)))
    points.append((_ONE, Fraction(sign * sum(chain[-1]), den)))
    return Envelope(tuple(points))


def diameter(S: TrajectorySet, C: Iterable[int]) -> Fraction:
    """Area of the cluster's span: the integral over [0,1] of its width.

    Zero for empty and singleton clusters; otherwise the integral of the
    right envelope minus that of the left, summed exactly over the convex
    chains of the members' lines, which the cluster's mask yields already
    sorted.  Results are memoized in the instance's kernel, keyed by the
    cluster's int mask.
    """
    kernel = S.kernel
    return kernel.span_area(kernel.mask(as_cluster(C, len(S))))
