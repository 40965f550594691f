"""Minimizing the sum of cluster diameters.

The exact solver is a dynamic program over the split trees of
hole-guided split sequences; the dynamic program over nested hole
side-sets is polynomial but optimizes only over the clusterings along
a chain of nested side-sets, all of them well separated.  Both are
compared against exhaustive enumeration on a small random instance.
"""

from kinclust import (
    GeneratorConfig,
    generate_instance,
    is_well_separated,
    sd_exact_goodseq,
    sd_wellsep_dp,
)
from kinclust.oracle import brute_opt_sd, brute_opt_wellsep

S = generate_instance(GeneratorConfig(seed=11, n=7))
print("instance (seed 11, n = 7):")
for i, s in enumerate(S):
    print(f"  {i}: {s.x0} -> {s.x1}")

for k in (2, 3, 4):
    exact = sd_exact_goodseq(S, k)
    brute = brute_opt_sd(S, k)
    dp = sd_wellsep_dp(S, k)
    wellsep_brute = brute_opt_wellsep(S, k, "sd")
    print(f"\nk = {k}")
    print(f"  exact split enumeration: {float(exact.value):.6f} "
          f"{[sorted(c) for c in exact.clustering]}")
    print(f"  exhaustive check:        {float(brute.value):.6f} (equal: {exact.value == brute.value})")
    print(f"  well-separated DP:       {float(dp.value):.6f} "
          f"{[sorted(c) for c in dp.clustering]}")
    print(f"  filtered exhaustive:     {float(wellsep_brute.value):.6f} "
          f"(equal: {dp.value == wellsep_brute.value})")
    print(f"  DP output well separated: {is_well_separated(S, dp.clustering)}")
    if exact.value:
        print(f"  restriction ratio: {float(dp.value / exact.value):.4f} "
          f"(guarantee: {1 + k // 2})")

# The split sequence is a checkable certificate: replaying it from the
# one-cluster state reproduces the solver's clustering.
sol = sd_exact_goodseq(S, 3)
print("\ncertificate replay for k = 3:")
for hole, cluster in sol.sequence.steps:
    print(f"  split {sorted(cluster)} along the hole left of {sorted(hole.left_set)}")
print("  replay equals solution:", sol.sequence.replay(S) == sol.clustering)
