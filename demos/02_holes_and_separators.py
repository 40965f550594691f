"""Holes of the arrangement and the inclusion order on their side-sets.

The trajectories cut the strip into convex faces ("holes").  Each hole
splits the set into a left part and a right part; collecting all of these
side-sets and ordering them by inclusion gives the dag that drives the
well-separated dynamic program.
"""

from kinclust import (
    TrajectorySet,
    build_poset,
    compute_holes,
    hole_within_span,
    is_covered,
    is_well_separated,
)

# Two crossing diagonals and a slow near-vertical: crossings at
# t = 1/10, 1/2, 9/10.
S = TrajectorySet.from_pairs([("0", "2"), ("2", "0"), ("0.2", "0.2")])

holes = compute_holes(S)
print(f"{len(holes)} holes:")
for h in holes:
    left = h.left_set
    right = S.all_indices() - left
    print(f"  left={sorted(left)} right={sorted(right)} "
          f"t=({h.t_lo}, {h.t_hi}) {h.kind}")

full = S.all_indices()
print("\nholes inside the span of the whole set (the bounded ones):")
for h in holes:
    print(f"  left={sorted(h.left_set)}: {hole_within_span(S, h, full)}")

clustering = (frozenset({0, 1}), frozenset({2}))
print(f"\nclustering {{0,1}} | {{2}}:")
for h in holes:
    if h.kind == "bounded":
        print(f"  hole left={sorted(h.left_set)} covered: {is_covered(S, h, clustering)}")
print("well separated:", is_well_separated(S, clustering))


def cover_relations(poset):
    """A -> B for A < B with no side-set strictly between them."""
    for a in poset.elements:
        sups = poset.successors[a]
        for b in sups:
            if not any(a < c < b for c in sups):
                yield a, b


poset = build_poset(S, holes)
print(f"\nside-set poset: {len(poset)} elements "
      f"(source {sorted(poset.elements[0])}, sink {sorted(poset.elements[-1])})")
print("cover relations:")
for a, b in cover_relations(poset):
    print(f"  {sorted(a)} -> {sorted(b)}")
