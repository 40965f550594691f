"""Host-speed probe: the yardstick that turns wall seconds into calibrated seconds.

The host's speed drifts by a third and more over minutes, as other tenants
come and go, and a run that lands in a slow phase reads slow on every op.
So a short, fixed piece of pure-Python work (``probe``) runs next to the
timed work.  It calls no kinclust code, so no change to the library can
make it faster or slower.  A wall time w is scaled by REF_S / p, where p
is the probe time measured around it: the result is the time w would have
taken on a host where one probe takes REF_S.  On a steady host a change
to the library moves calibrated and wall times by the same share.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

ROUNDS = 500
REPEATS = 2  # a probe is the fastest of this many passes, to skip interrupts
REF_S = 0.005  # the probe's time on the reference host: calibrated s = wall s * REF_S / probe
EXPECTED = (Fraction(589, 3), 321)  # the result of one pass


def one_pass(rounds: int = ROUNDS):
    """Fraction arithmetic, frozenset hashing and dict updates, as the library does."""
    best = Fraction(0)
    seen: dict = {}
    for i in range(rounds):
        a = Fraction(i % 97 + 1, i % 89 + 2)
        b = Fraction(i % 31 + 1, i % 23 + 3)
        best = max(best, a * b - a / 3 + b)
        key = frozenset((i % 13, i % 7, i % 5, i % 11))
        seen[key] = seen.get(key, 0) + 1
        tuple(sorted(key))
    return best, len(seen)


def probe() -> float:
    """Seconds of one probe; the garbage collector is off meanwhile, so the
    size of the library's heap does not leak into the host's speed."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(REPEATS):
            t0 = perf_counter()
            out = one_pass()
            dt = perf_counter() - t0
            best = dt if best is None else min(best, dt)
    finally:
        if was_enabled:
            gc.enable()
    if out != EXPECTED:
        raise RuntimeError(f"host probe computed {out}, expected {EXPECTED}")
    return best


def calibrated(wall_s: float, probe_before: float, probe_after: float) -> float:
    """Wall seconds scaled to the reference host, by the probes on either side."""
    return wall_s * REF_S * 2 / (probe_before + probe_after)
