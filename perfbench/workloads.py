"""The benchmark's workloads: seeded instances, the op each one times, the
checks on every output, and the exact records hashed into the digest.

Ops look library functions up on the ``kinclust`` package at call time, so
the tracer's wrappers on those names are seen.  Checks and records run
outside the timed op.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from common import run_child

HERE = Path(__file__).resolve().parent


def instance_seed(seed: int, workload: str, i: int) -> int:
    """Generator seed of the i-th instance of a workload under a benchmark seed."""
    digest = hashlib.sha256(f"kinclust-bench/{seed}/{workload}/{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def fr(v: Fraction) -> str:
    """Exact value as a p/q string."""
    return f"{v.numerator}/{v.denominator}"


# --- output checks ---------------------------------------------------------


def check_partition(K, S, clustering, k: int, label: str, errs: list) -> bool:
    try:
        K.geometry.check_clustering(S, clustering)
    except (TypeError, ValueError) as e:
        errs.append(f"{label}: not a partition of range({len(S)}): {e}")
        return False
    if len(clustering) > k:
        errs.append(f"{label}: {len(clustering)} clusters, more than k={k}")
        return False
    return True


def check_value(K, S, sol, k: int, value_fn, label: str, errs: list) -> bool:
    if not check_partition(K, S, sol.clustering, k, label, errs):
        return False
    recomputed = value_fn(S, sol.clustering)
    if sol.value != recomputed:
        errs.append(f"{label}: reported value {sol.value} != recomputed {recomputed}")
        return False
    return True


def check_sd_pair(K, S, k: int, wellsep, exact, errs: list) -> None:
    """Both sum-of-diameters solvers, and the bound between them."""
    ok_w = check_value(K, S, wellsep, k, K.sd_value, f"sd_wellsep k={k}", errs)
    ok_e = check_value(K, S, exact, k, K.sd_value, f"sd_exact k={k}", errs)
    if ok_w and not K.is_well_separated(S, wellsep.clustering):
        errs.append(f"sd_wellsep k={k}: clustering is not well separated")
    if ok_e:
        try:
            replayed = exact.sequence.replay(S)
        except ValueError as e:
            errs.append(f"sd_exact k={k}: split sequence does not replay: {e}")
        else:
            if K.canonical_key(replayed) != K.canonical_key(exact.clustering):
                errs.append(f"sd_exact k={k}: replayed sequence gives another clustering")
    if ok_w and ok_e and not exact.value <= wellsep.value <= (1 + k // 2) * exact.value:
        errs.append(
            f"k={k}: need sd_exact {exact.value} <= sd_wellsep {wellsep.value} "
            f"<= {1 + k // 2} * sd_exact"
        )


def check_md_wellsep(K, S, k: int, sol, errs: list) -> None:
    label = f"md_wellsep k={k}"
    if check_value(K, S, sol, k, K.md_value, label, errs):
        if not K.is_well_separated(S, sol.clustering):
            errs.append(f"{label}: clustering is not well separated")


def check_bsearch(K, S, k: int, sol, errs: list) -> None:
    label = f"bsearch k={k}"
    if check_value(K, S, sol, k, K.md_value, label, errs):
        if not sol.value <= K.GP_FACTOR * sol.interval[1]:
            errs.append(f"{label}: value {sol.value} > GP_FACTOR * {sol.interval[1]}")


def check_centers(centers, clustering, k: int, label: str, errs: list) -> None:
    """Farthest-point seeding picks k distinct centers, one in each cluster."""
    if len(set(centers)) != k:
        errs.append(f"{label}: centers {list(centers)} are not {k} distinct indices")
    elif sorted(sum(c in C for c in centers) for C in clustering) != [1] * len(clustering):
        errs.append(f"{label}: clusters do not hold one center each")


def check_kcenter(K, S, k: int, result, errs: list) -> None:
    centers, clustering = result
    label = f"kcenter k={k}"
    if check_partition(K, S, clustering, k, label, errs):
        check_centers(centers.centers, clustering, k, label, errs)


def check_holes(n: int, holes, errs: list) -> None:
    """holes: (left set, t_lo, t_hi, kind) tuples of one arrangement."""
    full = frozenset(range(n))
    kinds = Counter(kind for _, _, _, kind in holes)
    if kinds["unbounded_left"] != 1 or kinds["unbounded_right"] != 1:
        errs.append(f"holes: need one unbounded face on each side, got {dict(kinds)}")
    if len({left for left, _, _, _ in holes}) != len(holes):
        errs.append("holes: two faces share a left set")
    for left, lo, hi, kind in holes:
        if not 0 <= lo < hi <= 1:
            errs.append(f"holes: face {sorted(left)} has time window ({lo}, {hi})")
        expected = "unbounded_left" if not left else "unbounded_right" if left == full else "bounded"
        if kind != expected:
            errs.append(f"holes: face {sorted(left)} is {kind}, expected {expected}")


def check_svg(svg: bytes, n: int, css: bytes, expected: int, label: str, errs: list) -> None:
    if not (svg.startswith(b"<?xml") and svg.rstrip().endswith(b"</svg>")):
        errs.append(f"{label}: not an SVG document")
        return
    lines = svg.count(b'class="trajectory"')
    shapes = svg.count(b'class="' + css + b'"')
    if lines != n:
        errs.append(f"{label}: {lines} trajectories drawn, expected {n}")
    if shapes != expected:
        errs.append(f"{label}: {shapes} {css.decode()} shapes drawn, expected {expected}")


def hole_tuples(holes):
    return [(h.left_set, h.t_lo, h.t_hi, h.kind) for h in holes]


# --- digest records --------------------------------------------------------


def sol_record(K, label: str, sol) -> str:
    return f"{label} {fr(sol.value)} {K.canonical_key(sol.clustering)}"


def kcenter_record(K, label: str, result) -> str:
    centers, clustering = result
    return f"{label} {list(centers.centers)} {K.canonical_key(clustering)}"


def holes_record(holes) -> list[str]:
    lines = [f"holes {len(holes)}"]
    for left, lo, hi, kind in holes:
        lines.append(f"hole {sorted(left)} {fr(lo)} {fr(hi)} {kind}")
    return lines


# --- workloads -------------------------------------------------------------


class Workload:
    """One closed-loop workload; op i runs on subject(i)."""

    name: str
    sizes: tuple[int, ...]
    pool: int  # instances generated at set-up; later ones are made outside the timed ops
    digest_ops: int  # the digest covers exactly the first digest_ops ops
    rss_ops: int  # peak RSS is read once this many ops have completed

    @property
    def cycle(self) -> int:
        """Ops in one turn of the workload's rotation; timing stops on a whole turn."""
        return len(self.sizes)

    def __init__(self, K, seed: int, workdir: Path, tracer=None):
        self.K = K
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.instances: list = []

    def make(self, i: int):
        n = self.sizes[i % len(self.sizes)]
        cfg = self.K.GeneratorConfig(seed=instance_seed(self.seed, self.name, i), n=n)
        return self.K.generate_instance(cfg)

    def setup(self) -> None:
        self.instances = [self.make(i) for i in range(self.pool)]

    def subject(self, i: int):
        while len(self.instances) <= i:
            self.instances.append(self.make(len(self.instances)))
        return self.instances[i]

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SumDiam(Workload):
    name = "sumdiam"
    sizes = (10, 12, 14)
    pool = 120
    digest_ops = 12
    rss_ops = 36

    def run(self, i, S):
        K = self.K
        return K.sd_wellsep_dp(S, 3), K.sd_exact_goodseq(S, 3)

    def check(self, i, S, out) -> list[str]:
        errs: list[str] = []
        check_sd_pair(self.K, S, 3, *out, errs)
        return errs

    def record(self, i, S, out) -> list[str]:
        wellsep, exact = out
        return [sol_record(self.K, "sd_wellsep", wellsep), sol_record(self.K, "sd_exact", exact)]


class Large(Workload):
    name = "large"
    sizes = (32, 48, 64)
    pool = 48
    digest_ops = 6
    rss_ops = 36

    def run(self, i, S):
        K = self.K
        holes = K.compute_holes(S)
        poset = K.build_poset(S, holes)
        bs = K.bsearch(S, 4)
        kc = K.kcenter_gonzalez(S, 4)
        return holes, poset, bs, kc, K.md_value(S, kc[1])

    def check(self, i, S, out) -> list[str]:
        K = self.K
        holes, poset, bs, kc, _ = out
        errs: list[str] = []
        check_holes(len(S), hole_tuples(holes), errs)
        full = S.all_indices()
        sides = {h.left_set for h in holes} | {full - h.left_set for h in holes}
        if set(poset.elements) != sides or len(poset.elements) != len(sides):
            errs.append("poset: elements are not the distinct hole side-sets")
        elif poset.elements[0] != frozenset() or poset.elements[-1] != full:
            errs.append("poset: source is not the empty set or sink is not the full set")
        check_bsearch(K, S, 4, bs, errs)
        check_kcenter(K, S, 4, kc, errs)
        return errs

    def record(self, i, S, out) -> list[str]:
        K = self.K
        holes, poset, bs, kc, kc_value = out
        return holes_record(hole_tuples(holes)) + [
            f"poset {len(poset.elements)}",
            sol_record(K, "bsearch", bs),
            kcenter_record(K, "kcenter", kc) + f" {fr(kc_value)}",
        ]


class KSweep(Workload):
    name = "ksweep"
    sizes = (12,)
    pool = 60
    digest_ops = 6
    rss_ops = 18
    ks = (2, 3, 4)
    exact_ks = (2, 3)

    def run(self, i, S):
        K = self.K
        T = K.parse_instance(K.dumps_instance(S))
        out = {"instance": T}
        for k in self.ks:
            out["sd_wellsep", k] = K.sd_wellsep_dp(T, k)
            out["md_wellsep", k] = K.md_wellsep_dp(T, k)
            out["bsearch", k] = K.bsearch(T, k)
            out["kcenter", k] = K.kcenter_gonzalez(T, k)
        for k in self.exact_ks:
            out["sd_exact", k] = K.sd_exact_goodseq(T, k)
        out["svg_holes"] = K.render_svg(T, overlay="holes")
        out["svg_clustering"] = K.render_svg(
            T, overlay="clustering", clustering=out["sd_exact", 3].clustering
        )
        return out

    def check(self, i, S, out) -> list[str]:
        K = self.K
        errs: list[str] = []
        if out["instance"] != S:
            return ["dumps_instance/parse_instance round trip changed the instance"]
        for k in self.ks:
            check_md_wellsep(K, S, k, out["md_wellsep", k], errs)
            check_bsearch(K, S, k, out["bsearch", k], errs)
            check_kcenter(K, S, k, out["kcenter", k], errs)
            if k in self.exact_ks:
                check_sd_pair(K, S, k, out["sd_wellsep", k], out["sd_exact", k], errs)
            else:
                check_value(K, S, out["sd_wellsep", k], k, K.sd_value, f"sd_wellsep k={k}", errs)
        bounded = sum(h.kind == "bounded" for h in K.compute_holes(S))
        check_svg(out["svg_holes"], len(S), b"hole", bounded, "render holes", errs)
        spans = sum(len(C) > 1 for C in out["sd_exact", 3].clustering)
        check_svg(out["svg_clustering"], len(S), b"span", spans, "render clustering", errs)
        return errs

    def record(self, i, S, out) -> list[str]:
        K = self.K
        lines = []
        for k in self.ks:
            lines.append(sol_record(K, f"sd_wellsep k={k}", out["sd_wellsep", k]))
            lines.append(sol_record(K, f"md_wellsep k={k}", out["md_wellsep", k]))
            lines.append(sol_record(K, f"bsearch k={k}", out["bsearch", k]))
            lines.append(kcenter_record(K, f"kcenter k={k}", out["kcenter", k]))
        for k in self.exact_ks:
            lines.append(sol_record(K, f"sd_exact k={k}", out["sd_exact", k]))
        return lines


# The rotated CLI commands: (label, arguments); {file} is an instance file.
CLI_COMMANDS = (
    ("holes", ("holes", "{file}")),
    ("sd_wellsep", ("sd", "wellsep", "{file}", "-k", "3")),
    ("sd_exact", ("sd", "exact", "{file}", "-k", "3")),
    ("md_bsearch", ("md", "bsearch", "{file}", "-k", "3")),
    ("md_kcenter", ("md", "kcenter", "{file}", "-k", "3")),
    ("render_holes", ("render", "{file}", "--holes", "-o", "out.svg")),
)
CLI_K = 3
CLI_TIMEOUT_S = 120

_HOLE = re.compile(r"^left=\{([\d, ]*)\} t=\((\S+), (\S+)\) (\S+)$")
_CLUSTER = re.compile(r"^cluster \d+: \[([\d, ]*)\] diameter = (\S+) \(")
_TOTAL = re.compile(r"^(sum of diameters|max diameter) = (\S+) \(")
_CENTERS = re.compile(r"^centers: \[([\d, ]*)\]$")


def _indices(text: str) -> frozenset:
    return frozenset(int(x) for x in text.split(",") if x.strip())


def parse_holes(stdout: str):
    """The hole table printed by ``kinclust holes``, as (left, t_lo, t_hi, kind) tuples."""
    lines = stdout.splitlines()
    count = int(lines[0].split()[0])
    holes = []
    for line in lines[1:]:
        m = _HOLE.match(line)
        if m is None:
            raise ValueError(f"unexpected line {line!r}")
        holes.append((_indices(m[1]), Fraction(m[2]), Fraction(m[3]), m[4]))
    if len(holes) != count:
        raise ValueError(f"header says {count} holes, table has {len(holes)}")
    return holes


def parse_solution(stdout: str):
    """(clusters, diameters, objective, value, centers) from an ``sd``/``md`` command."""
    clusters, diameters, objective, value, centers = [], [], None, None, None
    for line in stdout.splitlines():
        if m := _CLUSTER.match(line):
            clusters.append(_indices(m[1]))
            diameters.append(Fraction(m[2]))
        elif m := _TOTAL.match(line):
            objective, value = m[1], Fraction(m[2])
        elif m := _CENTERS.match(line):
            centers = [int(x) for x in m[1].split(",") if x.strip()]
    if value is None:
        raise ValueError("no objective value printed")
    return clusters, diameters, objective, value, centers


class Cli(Workload):
    """Each op is one CLI child process; files are written at set-up."""

    name = "cli"
    sizes = (14,)
    # More files than a run has ops, so the ops' cost is averaged over as many
    # instances as they can be; coprime to the six commands.
    pool = 125
    digest_ops = 12
    rss_ops = 24

    def __init__(self, K, seed, workdir, tracer=None):
        super().__init__(K, seed, workdir, tracer)
        self.child_stats: list[dict] = []

    def setup(self) -> None:
        super().setup()
        self.workdir.mkdir(parents=True, exist_ok=True)
        for j, S in enumerate(self.instances):
            (self.workdir / f"inst{j}.json").write_text(self.K.dumps_instance(S))

    @property
    def cycle(self) -> int:
        return len(CLI_COMMANDS)

    def subject(self, i: int) -> int:
        return i % self.pool

    def run(self, i, j):
        label, args = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        args = [a.format(file=f"inst{j}.json") for a in args]
        # While the worker is traced, the child runs the CLI under the tracer too.
        traced = self.tracer is not None and self.tracer.enabled
        if traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), "stats.json", *args]
        else:
            argv = [sys.executable, "-m", "kinclust.cli", *args]
        code, out, err = run_child(argv, CLI_TIMEOUT_S, cwd=self.workdir)
        if traced and code == 0:
            self.child_stats.append(json.loads((self.workdir / "stats.json").read_text()))
        return label, code, out, err

    def check(self, i, j, out) -> list[str]:
        label, code, stdout, stderr = out
        if code != 0:
            return [f"{label}: exit code {code}: {stderr.strip()[-500:]}"]
        S = self.instances[j]
        n = len(S)
        errs: list[str] = []
        try:
            if label == "holes":
                check_holes(n, parse_holes(stdout), errs)
            elif label == "render_holes":
                bounded = sum(h.kind == "bounded" for h in self.K.compute_holes(S))
                svg = (self.workdir / "out.svg").read_bytes()
                check_svg(svg, n, b"hole", bounded, label, errs)
            else:
                clusters, diameters, objective, value, centers = parse_solution(stdout)
                check_partition(self.K, S, clusters, CLI_K, label, errs)
                combine = sum if objective == "sum of diameters" else max
                if value != combine(diameters):
                    errs.append(f"{label}: printed value {value} is not the {objective} of the printed diameters")
                if label == "md_kcenter":
                    check_centers(centers or [], clusters, CLI_K, label, errs)
        except (ValueError, IndexError) as e:
            errs.append(f"{label}: cannot parse output: {e}")
        return errs

    def record(self, i, j, out) -> list[str]:
        label, _, stdout, _ = out
        if label == "holes":
            return holes_record(parse_holes(stdout))
        if label == "render_holes":
            return [label]
        clusters, _, _, value, centers = parse_solution(stdout)
        line = f"{label} {fr(value)} {self.K.canonical_key(clusters)}"
        return [line + (f" {centers}" if centers is not None else "")]

    def peak_rss_kb(self) -> int:
        # Largest CLI child so far; the worker itself runs no library code in ops.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


WORKLOADS = {w.name: w for w in (SumDiam, Large, KSweep, Cli)}
