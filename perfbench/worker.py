"""One workload in one fresh process: set up, run the closed loop, check every output.

    python3 perfbench/worker.py --workload sumdiam --seed 1 --seconds 28 [--trace] [--setup-only]

Started by run.py, so that no workload's caches warm another's.  Prints one
JSON object on its last stdout line.  Op i always runs on the same input
for a given seed, and the loop keeps going past the time limit (untimed)
until the ops the digest covers are done.  A host-speed probe (calib.py)
runs at the end of set-up and after every timed op.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from calib import one_pass, probe
from common import SRC, WORK
from workloads import WORKLOADS


def import_kinclust():
    """Import kinclust from this checkout's src/, and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    import kinclust

    where = Path(kinclust.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit(f"kinclust was imported from {where}, not from {SRC}")
    return kinclust


def run_loop(wl, seconds: float, tracer, first_probe: float) -> dict:
    """Ops until `seconds` of wall time have passed; op i is timed between
    probes[i] and probes[i + 1]."""
    digest = hashlib.sha256()
    times: list[float] = []
    probes = [first_probe]
    attempted = failed = 0
    rss_kb = None
    i = 0
    timed = True
    start = perf_counter()
    while True:
        # Timing stops at the first whole turn of the rotation after `seconds`.
        timed = timed and (perf_counter() - start < seconds or i % wl.cycle != 0)
        if not timed and i >= wl.digest_ops:
            break
        subject = wl.subject(i)
        if tracer is not None:
            tracer.enabled = timed
        t0 = perf_counter()
        try:
            out = wl.run(i, subject)
            error = None
        except Exception:
            out, error = None, traceback.format_exc()
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if timed:
            times.append(dt)
            probes.append(probe())
        attempted += 1
        records: list[str] = []
        if error is None:
            try:
                errors = wl.check(i, subject, out)
                records = wl.record(i, subject, out) if i < wl.digest_ops else []
            except Exception:
                errors = [f"check failed:\n{traceback.format_exc()}"]
        else:
            errors = [error]
        if errors:
            failed += 1
            for e in errors:
                print(f"{wl.name} op {i}: {e}", file=sys.stderr)
        if i < wl.digest_ops:
            for line in records or [f"op {i} failed"]:
                digest.update(line.encode() + b"\n")
        i += 1
        if i == wl.rss_ops:
            rss_kb = wl.peak_rss_kb()
    return {
        "op_times": times,
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "peak_rss_kb": rss_kb if rss_kb is not None else wl.peak_rss_kb(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true", help="install the per-layer tracer")
    p.add_argument("--setup-only", action="store_true", help="stop before the first op")
    args = p.parse_args(argv)

    kinclust = import_kinclust()
    tracer = None
    if args.trace:
        from tracer import Tracer, merge_stats

        tracer = Tracer()
        tracer.install(kinclust)
        tracer.enabled = True  # set-up calls (instance generation, files) are traced too
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    wl = WORKLOADS[args.workload](kinclust, args.seed, workdir, tracer)
    try:
        wl.setup()
        if tracer is not None:
            tracer.enabled = False
        ready = time.time()
        one_pass()  # the probe's first pass runs unspecialised bytecode; keep it out of the probe
        result = {"workload": args.workload, "ready_wall": ready, "ready_probe": probe()}
        if not args.setup_only:
            result.update(run_loop(wl, args.seconds, tracer, result["ready_probe"]))
            result["digest_ops"] = wl.digest_ops
            result["kinclust_file"] = kinclust.__file__
            if tracer is not None:
                result["trace"] = merge_stats([tracer.stats(), *getattr(wl, "child_stats", [])])
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
