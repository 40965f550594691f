"""Referee check of the benchmark itself, against kinclust's brute-force oracle.

    python3 perfbench/referee.py

Runs each workload's op, and the benchmark's own checks of it, on small
instances (n <= 8) where the oracle's exhaustive optima are cheap, and
compares the results with the oracle.  It also checks that a seed always
gives the same instances and that the instances of a workload are
distinct, that the output checks reject corrupted outputs, and that the
tracer changes no result, restores every name it wrapped and reports a
removed function as missing.  Exits 0 when everything holds.  The oracle
is used only here and is never timed.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import time
from fractions import Fraction

from common import WORK
from tracer import Tracer, layer_metrics
from worker import import_kinclust
from workloads import CLI_COMMANDS, WORKLOADS, parse_holes, parse_solution

K = import_kinclust()
from kinclust.oracle import brute_opt_md, brute_opt_sd, brute_opt_wellsep  # noqa: E402

EPS = Fraction(1, 20)  # bsearch's default precision
KCENTER_BOUND = Fraction("6.8285")  # >= 2 * (2 + sqrt(2))
SMALL_N = (6, 7, 8)
SEEDS = (1, 2, 3)

failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    if not cond:
        failures.append(message)


def workload(name: str, seed: int = 1):
    return WORKLOADS[name](K, seed, WORK / f"referee-{name}-{time.time_ns()}")


def small_instances(name: str):
    return [
        K.generate_instance(K.GeneratorConfig(seed=1000 * j + len(name), n=n))
        for j, n in enumerate(SMALL_N)
    ]


def run_checked(wl, S, where: str):
    out = wl.run(0, S)
    errs = wl.check(0, S, out)
    expect(not errs, f"{where}: benchmark checks failed: {errs}")
    return out


def md_bounds(S, k: int, bsearch_value, kcenter_value, where: str) -> None:
    opt = brute_opt_md(S, k).value
    expect(bsearch_value <= (K.GP_FACTOR + EPS) * opt, f"{where}: bsearch above its ratio bound")
    expect(kcenter_value <= KCENTER_BOUND * opt, f"{where}: kcenter above its ratio bound")


def referee_sumdiam() -> None:
    wl = workload("sumdiam")
    for S in small_instances("sumdiam"):
        where = f"sumdiam n={len(S)}"
        wellsep, exact = run_checked(wl, S, where)
        expect(exact.value == brute_opt_sd(S, 3).value, f"{where}: exact != brute force")
        expect(wellsep.value == brute_opt_wellsep(S, 3, "sd").value, f"{where}: wellsep != filtered brute force")
        bad = (dataclasses.replace(wellsep, clustering=(S.all_indices(),)), exact)
        expect(wl.check(0, S, bad), f"{where}: a wrong value went unnoticed")
        bad = (wellsep, dataclasses.replace(exact, value=exact.value + 1))
        expect(wl.check(0, S, bad), f"{where}: a wrong exact value went unnoticed")


def referee_large() -> None:
    wl = workload("large")
    for S in small_instances("large"):
        where = f"large n={len(S)}"
        holes, poset, bs, kc, kc_value = run_checked(wl, S, where)
        md_bounds(S, 4, bs.value, kc_value, where)
        bad = (holes, poset, dataclasses.replace(bs, clustering=bs.clustering[1:]), kc, kc_value)
        expect(wl.check(0, S, bad), f"{where}: a clustering that misses points went unnoticed")
        bad = (holes[1:], poset, bs, kc, kc_value)
        expect(wl.check(0, S, bad), f"{where}: a hole table without its first face went unnoticed")


def referee_ksweep() -> None:
    wl = workload("ksweep")
    for S in small_instances("ksweep"):
        where = f"ksweep n={len(S)}"
        out = run_checked(wl, S, where)
        for k in wl.ks:
            expect(out["sd_wellsep", k].value == brute_opt_wellsep(S, k, "sd").value, f"{where} k={k}: sd wellsep")
            expect(out["md_wellsep", k].value == brute_opt_wellsep(S, k, "md").value, f"{where} k={k}: md wellsep")
            kc_value = K.md_value(S, out["kcenter", k][1])
            md_bounds(S, k, out["bsearch", k].value, kc_value, f"{where} k={k}")
        for k in wl.exact_ks:
            expect(out["sd_exact", k].value == brute_opt_sd(S, k).value, f"{where} k={k}: sd exact")
        other = K.generate_instance(K.GeneratorConfig(seed=5, n=len(S)))
        expect(wl.check(0, S, dict(out, instance=other)), f"{where}: a changed round trip went unnoticed")


def referee_cli() -> None:
    wl = workload("cli")
    wl.sizes, wl.pool = (7,), 2  # small files, so the oracle can referee every command
    wl.setup()
    try:
        for i in range(len(CLI_COMMANDS) * wl.pool):
            j = wl.subject(i)
            S = wl.instances[j]
            out = wl.run(i, j)
            label, code, stdout, stderr = out
            where = f"cli {label} n={len(S)}"
            errs = wl.check(i, j, out)
            expect(not errs, f"{where}: benchmark checks failed: {errs}")
            if errs:
                continue
            if label == "holes":
                expected = {(h.left_set, h.t_lo, h.t_hi, h.kind) for h in K.compute_holes(S)}
                expect(set(parse_holes(stdout)) == expected, f"{where}: printed table != compute_holes")
            elif label != "render_holes":
                value = parse_solution(stdout)[3]
                if label == "sd_exact":
                    expect(value == brute_opt_sd(S, 3).value, f"{where}: != brute force")
                elif label == "sd_wellsep":
                    expect(value == brute_opt_wellsep(S, 3, "sd").value, f"{where}: != filtered brute force")
                else:
                    opt = brute_opt_md(S, 3).value
                    bound = K.GP_FACTOR + EPS if label == "md_bsearch" else KCENTER_BOUND
                    expect(value <= bound * opt, f"{where}: above its ratio bound")
                lines = stdout.splitlines()
                corrupted = "\n".join(lines[:-1] + [lines[-1].replace("= ", "= 1", 1)])
                expect(wl.check(i, j, (label, 0, corrupted, "")), f"{where}: a wrong total went unnoticed")
            expect(wl.check(i, j, (label, 1, stdout, "")), f"{where}: a failed exit code went unnoticed")
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


def referee_instances() -> None:
    for name, cls in WORKLOADS.items():
        pools = []
        for seed in SEEDS:
            first = [cls(K, seed, WORK).make(i) for i in range(cls.pool)]
            again = [cls(K, seed, WORK).make(i) for i in range(cls.pool)]
            expect(first == again, f"{name} seed {seed}: the same seed gave other instances")
            expect(len(set(first)) == len(first), f"{name} seed {seed}: instances repeat")
            expect([len(S) for S in first] == [cls.sizes[i % len(cls.sizes)] for i in range(cls.pool)],
                   f"{name} seed {seed}: sizes do not cycle through {cls.sizes}")
            pools.append(set(first))
        expect(not pools[0] & pools[1], f"{name}: seeds {SEEDS[0]} and {SEEDS[1]} share instances")


def snapshot() -> dict:
    return {
        (mod_name, attr): value
        for mod_name, module in list(sys.modules.items())
        if mod_name == "kinclust" or mod_name.startswith("kinclust.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def referee_tracer() -> None:
    before = snapshot()
    for name in ("sumdiam", "ksweep", "large"):
        wl = workload(name)
        S = K.generate_instance(K.GeneratorConfig(seed=77, n=8))
        plain = wl.record(0, S, wl.run(0, S))
        tracer = Tracer()
        tracer.install(K)
        tracer.enabled = True
        try:
            traced = wl.record(0, S, wl.run(0, S))
        finally:
            tracer.remove()
        expect(traced == plain, f"tracer changed the results of {name}")
        expect(tracer.calls["geometry.diameter"] > 0, f"tracer saw no diameter call in {name}")
        expect(not tracer.broken and not tracer.missing, f"tracer: broken {tracer.broken}, missing {tracer.missing}")
    expect(snapshot() == before, "tracer did not restore every wrapped name")

    gp = K.max_diameter.gp
    del K.max_diameter.gp  # as if a refactor had removed it
    try:
        tracer = Tracer()
        tracer.install(K)
        tracer.remove()
        _, missing = layer_metrics(tracer.stats(), 1)
    finally:
        K.max_diameter.gp = gp
    expect({"max_diameter.gp.calls", "max_diameter.gp.self_s"} <= set(missing),
           f"a removed gp was not reported missing: {missing}")
    expect(snapshot() == before, "tracer did not restore every wrapped name after a missing one")


def main() -> int:
    for check in (referee_instances, referee_tracer, referee_sumdiam, referee_large, referee_ksweep, referee_cli):
        t0 = time.perf_counter()
        before = len(failures)
        check()
        status = "ok" if len(failures) == before else "FAILED"
        print(f"{check.__name__:20} {status} ({time.perf_counter() - t0:.1f} s)")
    for message in failures:
        print(f"  {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
