"""Spans and diameters of moving points.

Four points move on a line during the unit time interval; each one traces
a straight segment across the (x, t) strip.  A cluster's diameter is the
area of its span: the integral over time of the distance between its
leftmost and rightmost members.
"""

from fractions import Fraction

from kinclust import TrajectorySet, diameter, envelope, pairwise_diameter
from kinclust.oracle import numeric_diameter

# Positions at t=0 and t=1, as exact decimal strings.
S = TrajectorySet.from_pairs(
    [("0", "6.15385"), ("2.46154", "2.46154"), ("4.92308", "1.23077"), ("8", "4.30769")]
)

print("trajectories:")
for i, s in enumerate(S):
    print(f"  {i}: x(0) = {s.x0}, x(1) = {s.x1}, velocity = {s.velocity}")

print("\npositions at t = 1/2:")
for i, s in enumerate(S):
    print(f"  {i}: {s.position(Fraction(1, 2))}  (midpoint {s.midpoint()})")

print("\npairwise diameters (the metric used by the k-center reduction):")
for i in range(len(S)):
    for j in range(i + 1, len(S)):
        d = pairwise_diameter(S[i], S[j])
        print(f"  diam({{{i},{j}}}) = {d} = {float(d):.6f}")

# The span of the whole set is bounded by its left and right envelopes,
# piecewise-linear curves with breakpoints where the extreme member changes.
left = envelope(S, S.all_indices(), "left")
right = envelope(S, S.all_indices(), "right")
print("\nleft envelope breakpoints: ", [(str(t), str(x)) for t, x in left])
print("right envelope breakpoints:", [(str(t), str(x)) for t, x in right])

exact = diameter(S, S.all_indices())
print(f"\ndiameter of the whole set (exact area): {exact} = {float(exact):.6f}")

# A midpoint-rule Riemann sum over the width converges to the same area.
for steps in (8, 64, 512, 4096):
    approx = numeric_diameter(S, S.all_indices(), steps)
    print(f"  midpoint rule, {steps:4d} steps: {float(approx):.9f} "
          f"(error {float(abs(approx - exact)):.2e})")
