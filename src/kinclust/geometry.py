"""Exact geometry for points moving on a line during the unit time interval.

A moving point is stored as the pair of its positions at t=0 and t=1; its
trajectory is the straight segment joining those two points in the (x, t)
plane.  All coordinates are ``fractions.Fraction``, so every predicate
(ordering, crossing) and every measure (span area) the clustering code
relies on is computed exactly and reproducibly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Union

if TYPE_CHECKING:
    from .sum_diameter import GoodSequence

ScalarLike = Union[Fraction, int, str]
Side = Literal["left", "right"]
# "sd" is the sum of the cluster diameters, "md" the largest of them.
Objective = Literal["sd", "md"]

# A cluster is a frozenset of trajectory indices; a clustering is a tuple of
# pairwise-disjoint clusters covering all indices.
Clustering = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Largest decimal exponent magnitude, and most digits of one digit string of
# a literal or of a scalar's numerator or denominator: "1e999999999" would
# build 10**999999999, and CPython reads and writes no int of more digits as
# text by default.
MAX_EXPONENT = 4300
_DIGITS_BOUND = 10**MAX_EXPONENT
# The one scalar grammar, in ASCII on every Python version: a signed ratio
# of digit strings (groups 2 and 3), or a signed decimal (whole and fraction
# digits, groups 4 and 5) with an optional exponent (group 6).
_SCALAR = re.compile(
    r"\s*([-+]?)(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?)\s*", re.ASCII
)


def _shown(text: str) -> str:
    """repr of a literal for a message: its first 40 characters, then its length."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}… ({len(text)} characters)"


def _parse_scalar(text: str) -> Fraction:
    match = _SCALAR.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid scalar literal {_shown(text)}")
    sign, num, den, whole, frac, exp = match.groups()
    # Each digit string is bounded before any int is built from it.
    if len(text) > MAX_EXPONENT and max(map(len, filter(None, match.groups()))) > MAX_EXPONENT:
        raise ValueError(f"more than {MAX_EXPONENT} digits in one digit string of a scalar literal")
    if den is not None:
        num, den = int(num), int(den)
        if not den:
            raise ValueError(f"zero denominator in scalar literal {_shown(text)}")
    else:
        shift = int(exp or "0")
        if abs(shift) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond +-{MAX_EXPONENT} in scalar literal")
        num, den = int(whole or "0"), 10 ** len(frac or "")
        num = num * den + int(frac or "0")
        if shift >= 0:
            num *= 10**shift
        else:
            den *= 10**-shift
    return _printable(Fraction(-num if sign == "-" else num, den))


def _printable(value: Fraction) -> Fraction:
    """value, unless its numerator or denominator has more than MAX_EXPONENT digits."""
    if abs(value.numerator) >= _DIGITS_BOUND or value.denominator >= _DIGITS_BOUND:
        raise ValueError(f"more than {MAX_EXPONENT} digits in a scalar's numerator or denominator")
    return value


def as_scalar(value: ScalarLike) -> Fraction:
    """Coerce an int, str, or Fraction to an exact Fraction.

    Strings follow one ASCII grammar on every Python version, a signed
    decimal ("0.25", "-1.5e-2", ".5", "3.") or a signed ratio of digit
    strings ("3/4") with surrounding whitespace allowed, and parse exactly;
    underscores and non-ASCII digits are rejected.  The value is built
    from the match's own digit strings, each of at most MAX_EXPONENT
    digits, or ValueError.  A decimal exponent beyond MAX_EXPONENT in
    magnitude raises ValueError instead of building a huge power of ten,
    and so do a zero denominator ("1/0") and a literal whose numerator or
    denominator has more digits ("1e4300").
    Ints and Fractions are not bounded: ``gp`` takes the thresholds that
    ``bsearch`` computes, longer than any coordinate, and ``Trajectory``
    bounds its coordinates of every type.  Floats are rejected on purpose:
    converting one would bake binary rounding error into an otherwise
    exact pipeline.
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
    bottom-leftmost order used by the solvers.  A coordinate of any type
    whose numerator or denominator has more than MAX_EXPONENT digits
    raises ValueError, so every trajectory can be written back as text.
    """

    x0: Fraction
    x1: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", _printable(as_scalar(self.x0)))
        object.__setattr__(self, "x1", _printable(as_scalar(self.x1)))

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
        # Keyed by the coordinates' integer parts, which hash faster than
        # the Fractions or the dataclass.
        seen: dict[tuple[int, int, int, int], int] = {}
        for i, s in enumerate(self.trajectories):
            x0, x1 = s.x0, s.x1
            j = seen.setdefault((x0.numerator, x0.denominator, x1.numerator, x1.denominator), i)
            if j != i:
                raise ValueError(f"duplicate trajectory at indices {j} and {i}: {s}")

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
    union = frozenset().union(*clusters)
    if sum(map(len, clusters)) != len(union) or len(union) != len(S):
        raise ValueError("clusters must be disjoint and cover every trajectory index")
    return clusters


def pairwise_diameter(a: Trajectory, b: Trajectory) -> Fraction:
    """Area of the span of two trajectories: the time integral of their distance.

    Closed form (see ``_pair_terms``) in the signed differences d0 and d1 of
    the positions at t=0 and t=1.
    """
    p, q = _pair_terms(a.x0 - b.x0, a.x1 - b.x1)
    return p / (2 * q)


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
    for line in lines:
        v, a = line
        if chain and chain[-1][0] == v:
            chain.pop()  # parallel and lower
        while len(chain) >= 2:
            v1, a1 = chain[-2]
            v2, a2 = chain[-1]
            # Drop line 2 unless it overtakes line 1 strictly before line 3 overtakes it.
            if (a1 - a2) * (v - v2) < (a2 - a) * (v2 - v1):
                break
            chain.pop()
        chain.append(line)
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


def _mask_members(mask: int, n: int) -> frozenset:
    """The frozenset of the indices among n flagged in ``mask`` (see SpanKernel)."""
    # Frozen from a set, so that its table is sized to its members.
    return frozenset(set(_picked(range(n), mask)))


def _mirrored(lines: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The lines of x -> -x, again sorted by slope, then intercept."""
    return [(-v, -a) for v, a in reversed(lines)]


def _beats(chain, line: tuple[int, int]) -> bool:
    """Whether ``line`` is strictly above the clipped chain's max somewhere in (0, 1).

    The line minus the max is piecewise linear with its corners at the
    breakpoints, so it is positive somewhere in (0, 1) exactly when it is
    at t = 0, at a breakpoint or at t = 1.  When it is not, the clipped
    chain of the chain's lines and ``line`` is the chain again.
    """
    v, a = line
    v1, a1 = chain[0]
    if a > a1:
        return True
    for v2, a2 in chain[1:]:
        dv, da = v2 - v1, a1 - a2  # the breakpoint is at t = da / dv
        if (a - a1) * dv + (v - v1) * da > 0:
            return True
        v1, a1 = v2, a2
    return v + a > v1 + a1


def _chain_term(chain) -> tuple[int, int]:
    """(num, d) with num / d = 2 den times the integral of the clipped chain's max.

    The lines are over the denominator ``den``.  Integrating the convex
    chain piece by piece and summing by parts gives F(1) plus (a1 - a2)^2
    / (2 (v2 - v1)) per breakpoint between lines (v1, a1) and (v2, a2),
    where F is the antiderivative a*t + v*t^2/2 of the line carrying t = 1.
    """
    v, a = chain[-1]
    num, d = 2 * a + v, 1
    for (v1, a1), (v2, a2) in zip(chain, chain[1:]):
        dv, da = v2 - v1, a1 - a2
        g = math.gcd(d, dv)
        num = num * (dv // g) + da * da * (d // g)
        d = d // g * dv
    return num, d


def _chains_area(upper: tuple[int, int], lower: tuple[int, int], den: int) -> Fraction:
    """Span area of members from the ``_chain_term`` of their two clipped chains.

    ``upper`` is the term of ``_upper_chain`` of the members' lines and
    ``lower`` that of their mirrored lines, the lines being over the
    denominator ``den``: the span area is the integral of the upper chain
    plus that of the mirrored one.
    """
    (p, q), (r, s) = upper, lower
    return Fraction(p * s + r * q, 2 * den * q * s)


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
    of every coordinate; ``lines[i]`` is member i's (v, a) pair.
    ``leftmost`` lists the member indices in bottom-leftmost order, by
    (x0, x1).  ``by_mid`` lists them by midpoint, (x0 + x1) * den = 2a + v,
    ties by index, and ``mids`` holds those midpoints in that order, for
    the scans that bound a pair's area below by its midpoint distance.

    One int-mask format serves the hole sweep, the side-set poset, the
    chain table and the span memo: a cluster is the mask in which member
    i carries the flag ``1 << (n - 1 - i)``, so the mask's binary numeral
    reads the members in index order, and of two clusters of one size the
    one with the greater mask has the lesser sorted indices.  ``mask`` and
    ``members`` convert between a frozenset of indices and its mask, each
    in time linear in n.

    ``spans`` memoizes span areas by mask; ``holes`` holds the
    arrangement's hole table once computed (see ``arrangement``), and
    ``chain_table`` the block areas and layers of the well-separated
    dynamic program (see ``sum_diameter.ChainTable``), which keep the
    side-set poset's masks and its index successors; the poset itself is
    not kept.  Pairwise span areas are not memoized: the max-diameter
    solvers compute each pair they compare from ``lines`` (see
    ``_pair_terms``).  The kernel lives and dies with its instance.
    """

    __slots__ = ("den", "lines", "leftmost", "by_mid", "mids", "spans", "holes", "chain_table")

    def __init__(self, trajectories: tuple[Trajectory, ...]) -> None:
        den = math.lcm(*(x.denominator for s in trajectories for x in (s.x0, s.x1)))
        ends = [
            (s.x0.numerator * (den // s.x0.denominator), s.x1.numerator * (den // s.x1.denominator))
            for s in trajectories
        ]
        self.den = den
        self.lines = tuple((x1 - x0, x0) for x0, x1 in ends)
        self.leftmost = tuple(sorted(range(len(ends)), key=ends.__getitem__))
        mids = [x0 + x1 for x0, x1 in ends]
        self.by_mid = tuple(sorted(range(len(ends)), key=mids.__getitem__))
        self.mids = tuple(map(mids.__getitem__, self.by_mid))
        self.spans: dict[int, Fraction] = {}
        self.holes = None
        self.chain_table = None

    def mask(self, members: Iterable[int]) -> int:
        """The int mask of a cluster of member indices, checked by ``as_cluster``."""
        digits = bytearray(b"0") * len(self.lines)  # the mask's binary numeral
        for i in as_cluster(members, len(digits)):
            digits[i] = 49  # b"1"
        return int(digits or b"0", 2)

    def members(self, mask: int) -> frozenset:
        """The frozenset of member indices flagged in ``mask``."""
        return _mask_members(mask, len(self.lines))

    def span_area(self, mask: int) -> Fraction:
        """Span area of the members flagged in ``mask``, memoized by mask.

        Zero below two members.  The area is that of the members' upper
        chain and the upper chain of their mirrored lines (see
        ``_chains_area``), taken over the members' lines sorted by slope.
        """
        if not mask & (mask - 1):
            return _ZERO
        area = self.spans.get(mask)
        if area is None:
            area = self.spans[mask] = _chains_area(*map(_chain_term, self.chains(mask)), self.den)
        return area

    def chains(self, mask: int) -> tuple[list, list]:
        """The clipped upper chains of the flagged members' lines and of their mirrors."""
        ordered = sorted(_picked(self.lines, mask))
        return _upper_chain(ordered), _upper_chain(_mirrored(ordered))

    def min_pair_area(self) -> Fraction:
        """Smallest span area over all pairs of at least two members.

        A pair's area p / (2 den q) (see ``_pair_terms``) is at least the
        distance between its members' midpoints, |Δ(2a + v)| / (2 den),
        the absolute value of the mean of their difference.  So the members
        are scanned in ``by_mid`` order, the one-dimensional closest-pair
        sweep: each inner scan stops at the first later member whose
        midpoint distance reaches the best area so far.  Areas are compared
        as integers by cross-multiplication; a single Fraction is built at
        the end.
        """
        mids = self.mids
        if len(mids) < 2:
            raise ValueError("min_pair_area needs at least two members")
        ordered = tuple(map(self.lines.__getitem__, self.by_mid))
        (v, a), (w, b) = ordered[:2]
        best_p, best_q = _pair_terms(a - b, a - b + v - w)
        for i, (v, a) in enumerate(ordered):
            mid = mids[i]
            for j in range(i + 1, len(ordered)):
                if (mids[j] - mid) * best_q >= best_p:
                    break
                w, b = ordered[j]
                p, q = _pair_terms(a - b, a - b + v - w)
                if p * best_q < best_p * q:
                    best_p, best_q = p, q
        return Fraction(best_p, 2 * self.den * best_q)


def envelope(
    S: TrajectorySet, C: Iterable[int], side: Side
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Left (pointwise min) or right (pointwise max) side of the cluster's span.

    The (t, x) points of the piecewise-linear boundary, t increasing from
    0 to 1.  Breakpoints appear only where the boundary switches between
    member trajectories; switching members cross at the breakpoint, so
    consecutive pieces always have distinct slopes.  They come from the
    same convex chain of lines that ``diameter`` integrates.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    kernel = S.kernel
    mask = kernel.mask(C)
    if not mask:
        raise ValueError("envelope of an empty cluster")
    return _span_side(kernel, mask, side, _ZERO, _ONE)


def _span_side(
    kernel: SpanKernel, mask: int, side: Side, lo: Fraction, hi: Fraction
) -> tuple[tuple[Fraction, Fraction], ...]:
    """The (t, x) points of one side of the flagged members' span on [lo, hi].

    ``mask`` flags at least one member, and 0 <= lo < hi <= 1.  The points
    are the side's values at lo and at hi and, between them, the
    breakpoints of its clipped chain strictly inside the window.  The left
    side is the upper chain of the mirrored lines, negated; at t = p / q
    a side is sign * max(a*q + v*p) / (den*q) over its chain's lines.
    """
    lines = sorted(_picked(kernel.lines, mask))
    sign = 1 if side == "right" else -1
    chain = _upper_chain(lines if sign == 1 else _mirrored(lines))
    den = kernel.den

    def end(t: Fraction) -> tuple[Fraction, Fraction]:
        p, q = t.numerator, t.denominator
        return t, Fraction(sign * max(a * q + v * p for v, a in chain), den * q)

    points = [end(lo)]
    lp, lq, hp, hq = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for (v1, a1), (v2, a2) in zip(chain, chain[1:]):
        dv, da = v2 - v1, a1 - a2  # the breakpoint is at t = da / dv
        if lp * dv < da * lq and da * hq < hp * dv:
            points.append((Fraction(da, dv), Fraction(sign * (a1 * dv + v1 * da), dv * den)))
    points.append(end(hi))
    return tuple(points)


def diameter(S: TrajectorySet, C: Iterable[int]) -> Fraction:
    """Area of the cluster's span: the integral over [0,1] of its width.

    Zero for empty and singleton clusters; otherwise the integral of the
    right envelope minus that of the left, summed exactly over the convex
    chains of the members' lines.  Results are memoized in the instance's
    kernel, keyed by the cluster's int mask.
    """
    kernel = S.kernel
    return kernel.span_area(kernel.mask(C))
