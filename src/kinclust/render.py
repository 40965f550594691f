"""SVG pictures of instances: the strip, trajectories, spans, and holes.

Time runs upward (t=0 at the bottom edge, t=1 at the top), position runs
to the right.  The clustering overlay shades each cluster's span; the
holes overlay outlines the face polygon of every bounded hole.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .arrangement import compute_holes, side_partition
from .geometry import Envelope, TrajectorySet, check_clustering, envelope

_WIDTH, _HEIGHT = 640, 480  # pixels
_PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2")


def _env_points(
    env: Envelope, lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    points = [(lo, env.value(lo))]
    points += [(t, x) for t, x in env.breakpoints if lo < t < hi]
    points.append((hi, env.value(hi)))
    return points


def render_svg(
    S: TrajectorySet,
    overlay: str = "none",
    clustering: Iterable[Iterable[int]] | None = None,
) -> bytes:
    """Render the instance as an SVG 1.1 document.

    overlay is one of "none", "clustering" (requires ``clustering``), or
    "holes".
    """
    if overlay not in ("none", "clustering", "holes"):
        raise ValueError(f"overlay must be 'none', 'clustering', or 'holes', got {overlay!r}")
    if overlay == "clustering":
        if clustering is None:
            raise ValueError("overlay 'clustering' needs a clustering")
        clusters = check_clustering(S, clustering)
    elif clustering is not None:
        raise ValueError(f"overlay {overlay!r} does not take a clustering")

    xs = [s.x0 for s in S] + [s.x1 for s in S]
    x_min, x_max = min(xs), max(xs)
    pad = (x_max - x_min) / 20 if x_max > x_min else Fraction(1)
    x_min, x_max = x_min - pad, x_max + pad
    margin = 20.0
    span_w = float(x_max - x_min)

    def px(x: Fraction) -> float:
        return margin + (float(x) - float(x_min)) / span_w * (_WIDTH - 2 * margin)

    def py(t: Fraction) -> float:
        return _HEIGHT - margin - float(t) * (_HEIGHT - 2 * margin)

    def polygon(points, style: str, css: str) -> str:
        coords = []
        for t, x in points:
            pt = f"{px(x):.2f},{py(t):.2f}"
            if not coords or coords[-1] != pt:
                coords.append(pt)
        return f'<polygon class="{css}" points="{" ".join(coords)}" style="{style}"/>'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect class="strip" x="{margin}" y="{margin}" '
        f'width="{_WIDTH - 2 * margin}" height="{_HEIGHT - 2 * margin}" '
        f'fill="none" stroke="#999999" stroke-width="1"/>',
    ]

    if overlay == "clustering":
        zero, one = Fraction(0), Fraction(1)
        for idx, C in enumerate(clusters):
            if len(C) < 2:
                continue  # singleton spans have no area
            left = envelope(S, C, "left")
            right = envelope(S, C, "right")
            pts = _env_points(left, zero, one) + _env_points(right, zero, one)[::-1]
            color = _PALETTE[idx % len(_PALETTE)]
            parts.append(polygon(pts, f"fill:{color};fill-opacity:0.35;stroke:none", "span"))

    if overlay == "holes":
        for h in compute_holes(S):
            if h.kind != "bounded":
                continue
            left_set, right_set = side_partition(S, h)
            wall_l = envelope(S, left_set, "right")
            wall_r = envelope(S, right_set, "left")
            pts = _env_points(wall_l, h.t_lo, h.t_hi) + _env_points(wall_r, h.t_lo, h.t_hi)[::-1]
            parts.append(
                polygon(pts, "fill:#dddddd;fill-opacity:0.6;stroke:#555555;stroke-width:1", "hole")
            )

    for s in S:
        parts.append(
            f'<line class="trajectory" x1="{px(s.x0):.2f}" y1="{py(Fraction(0)):.2f}" '
            f'x2="{px(s.x1):.2f}" y2="{py(Fraction(1)):.2f}" '
            f'stroke="#222222" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
