"""Command line front end.

Subcommands: ``holes`` (face table), ``sd`` and ``md`` (solvers), ``gen``
(seeded instance generator), ``render`` (SVG).  Exit codes: 0 on success,
1 on any input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .arrangement import compute_holes
from .geometry import TrajectorySet, diameter
from .instances import (
    GeneratorConfig,
    InstanceError,
    dumps_instance,
    generate_instance,
    parse_instance,
    scalar_decimal,
)
from .max_diameter import bsearch, gp, kcenter_gonzalez, md_value
from .oracle import brute_opt_md, brute_opt_sd
from .render import render_svg
from .sum_diameter import md_wellsep_dp, sd_exact_goodseq, sd_wellsep_dp

# The solvers of (command, solver) that take (S, k) and return a Solution.
_SOLVERS = {
    ("sd", "exact"): sd_exact_goodseq,
    ("sd", "wellsep"): sd_wellsep_dp,
    ("sd", "brute"): brute_opt_sd,
    ("md", "wellsep"): md_wellsep_dp,
    ("md", "brute"): brute_opt_md,
}
_OBJECTIVE_NAMES = {"sd": "sum of diameters", "md": "max diameter"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; every input error exits
    # with 1, so usage errors are remapped to 1 as well.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _fmt(v: Fraction) -> str:
    return f"{v} ({scalar_decimal(v)})"


def _load(path: str) -> TrajectorySet:
    return parse_instance(Path(path).read_bytes())


def _cmd_holes(args) -> int:
    S = _load(args.file)
    holes = compute_holes(S)
    print(f"{len(holes)} holes")
    for h in holes:
        left = "{" + ", ".join(str(i) for i in sorted(h.left_set)) + "}"
        print(f"left={left} t=({h.t_lo}, {h.t_hi}) {h.kind}")
    return 0


def _cmd_solve(args) -> int:
    S = _load(args.file)
    tally = None
    if args.solver == "gp":
        clustering = gp(S, args.threshold)
        value = md_value(S, clustering)
    elif args.solver == "kcenter":
        centers, clustering = kcenter_gonzalez(S, args.k)
        value = md_value(S, clustering)
        tally = f"centers: {list(centers.centers)}"
    else:
        if args.solver == "bsearch":
            sol = bsearch(S, args.k, args.eps)
        else:
            sol = _SOLVERS[args.command, args.solver](S, args.k)
        clustering, value = sol.clustering, sol.value
    for i, C in enumerate(clustering):
        print(f"cluster {i}: {sorted(C)} diameter = {_fmt(diameter(S, C))}")
    print(tally or f"clusters: {len(clustering)}")
    print(f"{_OBJECTIVE_NAMES[args.command]} = {_fmt(value)}")
    return 0


def _cmd_gen(args) -> int:
    cfg = GeneratorConfig(
        seed=args.seed,
        n=args.n,
        x0_range=tuple(args.x0_range),
        slope_range=tuple(args.slope_range),
        grid=args.grid,
    )
    S = generate_instance(cfg)
    Path(args.out).write_text(dumps_instance(S, name=f"seed-{args.seed}"))
    print(f"wrote {args.out}: {len(S)} trajectories")
    return 0


def _cmd_render(args) -> int:
    S = _load(args.file)
    if args.holes:
        svg = render_svg(S, overlay="holes")
    elif args.clusters:
        import json

        doc = json.loads(Path(args.clusters).read_text())
        clusters = doc.get("clusters") if isinstance(doc, dict) else None
        if not isinstance(clusters, list) or not all(
            isinstance(c, list) and all(type(i) is int for i in c) for c in clusters
        ):
            raise InstanceError(
                "clusters file must be an object with a 'clusters' list of index lists"
            )
        svg = render_svg(S, overlay="clustering", clustering=clusters)
    else:
        svg = render_svg(S)
    Path(args.out).write_bytes(svg)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="kinclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_holes = sub.add_parser("holes", help="print the hole table of an instance")
    p_holes.add_argument("file")
    p_holes.set_defaults(handler=_cmd_holes)

    p_sd = sub.add_parser("sd", help="minimize the sum of cluster diameters")
    p_sd.add_argument("solver", choices=["exact", "wellsep", "brute"])
    p_sd.add_argument("file")
    p_sd.add_argument("-k", type=int, required=True, help="number of clusters")
    p_sd.set_defaults(handler=_cmd_solve)

    p_md = sub.add_parser("md", help="minimize the maximum cluster diameter")
    p_md.add_argument("solver", choices=["gp", "bsearch", "kcenter", "wellsep", "brute"])
    p_md.add_argument("file")
    p_md.add_argument("-k", type=int, help="number of clusters")
    p_md.add_argument("-D", dest="threshold", help="gp growth threshold (exact decimal)")
    p_md.add_argument("--eps", default="0.05", help="bsearch precision (exact decimal)")
    p_md.set_defaults(handler=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("-n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--x0-range", nargs=2, default=("0", "10"), metavar=("LO", "HI"))
    p_gen.add_argument("--slope-range", nargs=2, default=("-5", "5"), metavar=("LO", "HI"))
    p_gen.add_argument("--grid", type=int, default=10)
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(handler=_cmd_gen)

    p_render = sub.add_parser("render", help="render an instance to SVG")
    p_render.add_argument("file")
    group = p_render.add_mutually_exclusive_group()
    group.add_argument("--clusters", help="JSON file with a 'clusters' list to shade")
    group.add_argument("--holes", action="store_true", help="outline bounded holes")
    p_render.add_argument("-o", "--out", required=True)
    p_render.set_defaults(handler=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        print("run 'kinclust --help' for usage", file=sys.stderr)
        return 1
    try:
        if args.command == "md":
            if args.solver == "gp" and args.threshold is None:
                raise _UsageError("md gp requires -D")
            if args.solver != "gp" and args.k is None:
                raise _UsageError(f"md {args.solver} requires -k")
        return args.handler(args)
    except (_UsageError, InstanceError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
