"""Clustering of points moving on a line with constant velocity.

Each point traces a straight segment across the strip 0 <= t <= 1; a
cluster's diameter is the area of its span (the region between the
cluster's pointwise min and max positions).  The package provides exact
rational geometry for spans and arrangement holes, an exact solver and a
well-separated dynamic program for the minimum-sum-of-diameters
clustering, and approximation algorithms for the minimum-maximum-diameter
clustering.  The brute-force referees that check them at small sizes are
not exported here; import them from ``kinclust.oracle``.
"""

from .arrangement import (
    Hole,
    SeparatorPoset,
    build_poset,
    compute_holes,
    hole_within_span,
    is_covered,
    is_well_separated,
)
from .geometry import (
    Clustering,
    Solution,
    Trajectory,
    TrajectorySet,
    as_cluster,
    as_scalar,
    canonical_key,
    diameter,
    envelope,
    normalize_clustering,
    pairwise_diameter,
)
from .instances import (
    GeneratorConfig,
    InstanceError,
    dumps_instance,
    generate_instance,
    parse_instance,
    scalar_decimal,
    scalar_literal,
)
from .max_diameter import (
    GP_FACTOR,
    CenterSet,
    bsearch,
    gp,
    kcenter_gonzalez,
    md_value,
)
from .render import render_svg
from .sum_diameter import (
    GoodSequence,
    md_wellsep_dp,
    sd_exact_goodseq,
    sd_value,
    sd_wellsep_dp,
)

__version__ = "0.1.0"

__all__ = [
    "Clustering",
    "CenterSet",
    "GeneratorConfig",
    "GoodSequence",
    "GP_FACTOR",
    "Hole",
    "InstanceError",
    "SeparatorPoset",
    "Solution",
    "Trajectory",
    "TrajectorySet",
    "as_cluster",
    "as_scalar",
    "bsearch",
    "build_poset",
    "canonical_key",
    "compute_holes",
    "diameter",
    "dumps_instance",
    "envelope",
    "generate_instance",
    "gp",
    "hole_within_span",
    "is_covered",
    "is_well_separated",
    "kcenter_gonzalez",
    "md_value",
    "md_wellsep_dp",
    "normalize_clustering",
    "pairwise_diameter",
    "parse_instance",
    "render_svg",
    "scalar_decimal",
    "scalar_literal",
    "sd_exact_goodseq",
    "sd_value",
    "sd_wellsep_dp",
]
