"""Per-layer tracing of kinclust, installed from the benchmark's side.

``Tracer.install`` replaces each traced library function with a wrapper on
every name a caller looks up: the attribute of each loaded ``kinclust``
module that holds the function (for example ``kinclust.sum_diameter.diameter``
as well as ``kinclust.geometry.diameter``) and the package's re-export.
``remove`` puts the originals back.  A function that a refactor has
removed is recorded as missing, and so are the metrics that need it.

Spans nest: a function's self time is its duration minus the time of the
traced calls made inside it.  Only totals per function are kept, not one
record per call, which keeps the cost of hot leaf calls low.  The tracer
times nothing while ``enabled`` is false.
"""

from __future__ import annotations

import functools
import statistics
import sys
import traceback
from time import perf_counter

# Timed functions, as (module, name) under the package.
SPANS = (
    ("geometry", "diameter"),
    ("geometry", "pairwise_diameter"),
    ("geometry", "envelope"),
    ("arrangement", "compute_holes"),
    ("arrangement", "build_poset"),
    ("sum_diameter", "sd_exact_goodseq"),
    ("sum_diameter", "sd_wellsep_dp"),
    ("sum_diameter", "md_wellsep_dp"),
    ("max_diameter", "bsearch"),
    ("max_diameter", "gp"),
    ("max_diameter", "kcenter_gonzalez"),
    ("instances", "generate_instance"),
    ("instances", "parse_instance"),
    ("instances", "dumps_instance"),
    ("render", "render_svg"),
)
# Functions only counted while an exact split-sequence solve is running.
COUNTED = (("geometry", "normalize_clustering"), ("sum_diameter", "sd_value"))

GOODSEQ = "sum_diameter.sd_exact_goodseq"
DP_SPANS = ("sum_diameter.sd_wellsep_dp", "sum_diameter.md_wellsep_dp")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self._stack = [[0.0]]  # per open span: time spent in traced callees
        self._active = {f"{m}.{n}": 0 for m, n in SPANS}
        self._restore: list = []
        self._tokens: dict[int, int] = {}  # id(instance) -> content number
        self._content: dict = {}  # instance -> content number
        self._keep: list = []  # keeps instances alive so their ids stay unique
        self._seen_clusters: set = set()
        self._seen_children: set = set()
        self.missing: set[str] = set()
        self.broken: set[str] = set()
        self.calls = {f"{m}.{n}": 0 for m, n in SPANS}
        self.self_s = {f"{m}.{n}": 0.0 for m, n in SPANS}
        self.size_sum = 0
        self.children = 0
        self.distinct_children = 0
        self.leaves = 0
        self.block_calls = 0
        self.holes: dict[int, int] = {}
        self.poset_elements: dict[int, int] = {}
        self.poset_pairs: dict[int, int] = {}
        self.iterations: list[int] = []

    # --- installation ----------------------------------------------------

    def install(self, package) -> None:
        hooks = {
            "geometry.diameter": self._on_diameter,
            "arrangement.compute_holes": self._on_holes,
            "arrangement.build_poset": self._on_poset,
            "max_diameter.bsearch": self._on_bsearch,
            GOODSEQ: self._on_goodseq,
        }
        counters = {
            "geometry.normalize_clustering": self._on_normalize,
            "sum_diameter.sd_value": self._on_sd_value,
        }
        wrappers = {}
        for module, name in SPANS + COUNTED:
            key = f"{module}.{name}"
            fn = getattr(getattr(package, module, None), name, None)
            if not callable(fn):
                self.missing.add(key)
                continue
            if key in counters:
                wrappers[id(fn)] = (fn, self._counter(fn, counters[key]))
            else:
                wrappers[id(fn)] = (fn, self._span(key, fn, hooks.get(key)))
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))

    def remove(self) -> None:
        self.enabled = False
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _span(self, key, fn, hook):
        tracer, stack, active, calls, self_s = self, self._stack, self._active, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                active[key] -= 1
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[0]
                stack[-1][0] += dt
            if hook is not None and key not in tracer.broken:
                # The hook's own time counts as neither this span's nor the caller's.
                t1 = perf_counter()
                tracer._run_hook(key, hook, args, kwargs, result)
                stack[-1][0] += perf_counter() - t1
            return result

        return wrapper

    def _counter(self, fn, hook):
        tracer, active = self, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled and active[GOODSEQ]:
                hook(result)
            return result

        return wrapper

    def _run_hook(self, key, hook, args, kwargs, result) -> None:
        try:
            hook(args, kwargs, result)
        except Exception:  # a changed signature must not stop the run
            self.broken.add(key)
            print(f"tracer: hook for {key} failed and is off:\n{traceback.format_exc()}", file=sys.stderr)

    # --- hooks -----------------------------------------------------------

    def _token(self, S) -> int:
        token = self._tokens.get(id(S))
        if token is None:
            token = self._content.setdefault(S, len(self._content))
            self._tokens[id(S)] = token
            self._keep.append(S)
        return token

    def _on_diameter(self, args, kwargs, result) -> None:
        S, C = _arg(args, kwargs, 0, "S"), _arg(args, kwargs, 1, "C")
        members = C if isinstance(C, frozenset) else frozenset(C)
        self.size_sum += len(members)
        self._seen_clusters.add((self._token(S), members))
        if any(self._active[k] for k in DP_SPANS):
            self.block_calls += 1

    def _on_holes(self, args, kwargs, result) -> None:
        self.holes[self._token(_arg(args, kwargs, 0, "S"))] = len(result)

    def _on_poset(self, args, kwargs, result) -> None:
        token = self._token(_arg(args, kwargs, 0, "S"))
        self.poset_elements[token] = len(result.elements)
        self.poset_pairs[token] = sum(len(v) for v in result.successors.values())

    def _on_bsearch(self, args, kwargs, result) -> None:
        self.iterations.append(result.iterations)

    def _on_goodseq(self, args, kwargs, result) -> None:
        self.distinct_children += len(self._seen_children)
        self._seen_children.clear()

    def _on_normalize(self, result) -> None:
        self.children += 1
        self._seen_children.add(result)

    def _on_sd_value(self, result) -> None:
        self.leaves += 1

    # --- results ---------------------------------------------------------

    def stats(self) -> dict:
        """Totals as plain JSON data; see ``merge_stats`` and ``layer_metrics``."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "size_sum": self.size_sum,
            "distinct_clusters": len(self._seen_clusters),
            "children": self.children,
            "distinct_children": self.distinct_children,
            "leaves": self.leaves,
            "block_calls": self.block_calls,
            "holes": list(self.holes.values()),
            "poset_elements": list(self.poset_elements.values()),
            "poset_pairs": list(self.poset_pairs.values()),
            "iterations": list(self.iterations),
            "missing": sorted(self.missing),
            "broken": sorted(self.broken),
        }


def merge_stats(parts: list[dict]) -> dict:
    """Sum the stats of several processes (distinct counts add up per process)."""
    total = parts[0]
    for part in parts[1:]:
        merged = {}
        for key, value in total.items():
            other = part[key]
            if isinstance(value, dict):
                merged[key] = {k: value.get(k, 0) + other.get(k, 0) for k in value.keys() | other.keys()}
            elif key in ("missing", "broken"):
                merged[key] = sorted(set(value) | set(other))
            else:
                merged[key] = value + other
        total = merged
    return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _calls_per_op(key):
    return "calls/op", (key,), lambda s, ops: s["calls"][key] / ops


def _self_per_call(key):
    return "s/call", (key,), lambda s, ops: _ratio(s["self_s"][key], s["calls"][key])


_DIAM = "geometry.diameter"
_HOLES = "arrangement.compute_holes"
_POSET = "arrangement.build_poset"
_NORMALIZE = "geometry.normalize_clustering"

# name -> (unit, functions and hooks it needs, value from (stats, traced ops)).
# Counts named .calls are per op; self times and the goodseq/dp/bsearch
# counts are per call of their function; arrangement sizes are per
# distinct instance.  A layer the workload never calls reads 0.
LAYER_METRICS = {
    "geometry.diameter.calls": _calls_per_op(_DIAM),
    "geometry.diameter.self_s": _self_per_call(_DIAM),
    "geometry.diameter.distinct_ratio": (
        "ratio", (_DIAM, "hook:" + _DIAM),
        lambda s, ops: _ratio(s["distinct_clusters"], s["calls"][_DIAM]),
    ),
    "geometry.diameter.mean_size": (
        "members", (_DIAM, "hook:" + _DIAM),
        lambda s, ops: _ratio(s["size_sum"], s["calls"][_DIAM]),
    ),
    "geometry.pairwise_diameter.calls": _calls_per_op("geometry.pairwise_diameter"),
    "geometry.pairwise_diameter.self_s": _self_per_call("geometry.pairwise_diameter"),
    "geometry.envelope.calls": _calls_per_op("geometry.envelope"),
    "geometry.envelope.self_s": _self_per_call("geometry.envelope"),
    "arrangement.compute_holes.calls": _calls_per_op(_HOLES),
    "arrangement.compute_holes.self_s": _self_per_call(_HOLES),
    "arrangement.build_poset.self_s": _self_per_call(_POSET),
    "arrangement.holes_per_instance": (
        "holes", (_HOLES, "hook:" + _HOLES), lambda s, ops: _mean(s["holes"]),
    ),
    "arrangement.poset_elements": (
        "sets", (_POSET, "hook:" + _POSET), lambda s, ops: _mean(s["poset_elements"]),
    ),
    "arrangement.poset_pairs": (
        "pairs", (_POSET, "hook:" + _POSET), lambda s, ops: _mean(s["poset_pairs"]),
    ),
    "sum_diameter.sd_exact_goodseq.self_s": _self_per_call(GOODSEQ),
    "sum_diameter.goodseq.children": (
        "calls/solve", (GOODSEQ, _NORMALIZE),
        lambda s, ops: _ratio(s["children"], s["calls"][GOODSEQ]),
    ),
    "sum_diameter.goodseq.leaves": (
        "calls/solve", (GOODSEQ, "sum_diameter.sd_value"),
        lambda s, ops: _ratio(s["leaves"], s["calls"][GOODSEQ]),
    ),
    "sum_diameter.goodseq.dedup_ratio": (
        "ratio", (GOODSEQ, _NORMALIZE, "hook:" + GOODSEQ),
        lambda s, ops: _ratio(s["distinct_children"], s["children"]),
    ),
    "sum_diameter.sd_wellsep_dp.self_s": _self_per_call(DP_SPANS[0]),
    "sum_diameter.md_wellsep_dp.self_s": _self_per_call(DP_SPANS[1]),
    "sum_diameter.dp.block_calls": (
        "calls/solve", (_DIAM, "hook:" + _DIAM) + DP_SPANS,
        lambda s, ops: _ratio(s["block_calls"], sum(s["calls"][k] for k in DP_SPANS)),
    ),
    "max_diameter.bsearch.self_s": _self_per_call("max_diameter.bsearch"),
    "max_diameter.bsearch.iterations": (
        "count/call", ("max_diameter.bsearch", "hook:max_diameter.bsearch"),
        lambda s, ops: _mean(s["iterations"]),
    ),
    "max_diameter.gp.calls": _calls_per_op("max_diameter.gp"),
    "max_diameter.gp.self_s": _self_per_call("max_diameter.gp"),
    "max_diameter.kcenter_gonzalez.self_s": _self_per_call("max_diameter.kcenter_gonzalez"),
    "instances.generate_instance.self_s": _self_per_call("instances.generate_instance"),
    "instances.parse_instance.self_s": _self_per_call("instances.parse_instance"),
    "instances.dumps_instance.self_s": _self_per_call("instances.dumps_instance"),
    "render.render_svg.calls": _calls_per_op("render.render_svg"),
    "render.render_svg.self_s": _self_per_call("render.render_svg"),
}


def layer_metrics(stats: dict, ops: int) -> tuple[dict, list[str]]:
    """({name: (value, unit)}, names that are missing) from merged stats."""
    absent = set(stats["missing"]) | {"hook:" + k for k in stats["broken"]}
    absent |= {"hook:" + k for k in stats["missing"]}
    metrics, missing = {}, []
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if absent.intersection(needs):
            missing.append(name)
        else:
            metrics[name] = (value(stats, max(ops, 1)), unit)
    return metrics, missing
