"""Benchmark of the kinclust library and CLI in the checkout that holds this file.

    python3 perfbench/run.py --workload sumdiam --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1      # every workload in turn

Each workload runs in a fresh worker process (worker.py) against src/kinclust.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
workload untraced and then traced, each for half the time, and prints the
per-layer metrics with the tracing overhead.  End-to-end times are in
calibrated seconds: wall seconds scaled by the host-speed probe of
calib.py.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every output
check passed and the digest agreed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import REF_S, calibrated, one_pass, probe
from common import ROOT, SRC, WORK, run_child
from tracer import layer_metrics
from workloads import CLI_COMMANDS, WORKLOADS, instance_seed

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
WORKER_SLACK_S = 120  # a worker may run this much longer than its measured time
CLI_STARTUP_SAMPLES = 5
CLI_PROBE_ROUNDS = 3
CLI_PROBE_N = 14
NPROC = len(os.sched_getaffinity(0))  # read before the benchmark pins itself to one CPU
PINNED_CPU = max(os.sched_getaffinity(0))


class BenchError(Exception):
    pass


def spawn_worker(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), *flags,
    ]
    before = probe()
    started = time.time()
    code, out, _ = run_child(argv, seconds + WORKER_SLACK_S, capture_stderr=False, own_group=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"worker for {workload} exited with code {code}")
    result = json.loads(lines[-1])
    result["setup_s"] = calibrated(result["ready_wall"] - started, before, result["ready_probe"])
    return result


def op_seconds(result: dict) -> list[float]:
    """Calibrated seconds of each timed op, scaled by the probes on either side."""
    p = result["probes"]
    return [calibrated(t, p[i], p[i + 1]) for i, t in enumerate(result["op_times"])]


def ops_per_s(result: dict) -> float:
    return len(result["op_times"]) / sum(op_seconds(result))


def stored_digest(workload: str, seed: int) -> str | None:
    stored = json.loads(DIGESTS.read_text())
    return stored["digests"].get(workload) if seed == stored["seed"] else None


def digest_status(workload: str, seed: int, digests: list[str]) -> tuple[bool, str]:
    if len(set(digests)) != 1:
        return False, "traced and untraced digests differ"
    expected = stored_digest(workload, seed)
    if expected is None:
        return True, "no stored digest for this seed"
    return (expected == digests[0]), ("matches" if expected == digests[0] else "differs from") + " the stored digest"


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn_worker(workload, seed, seconds, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = spawn_worker(workload, seed, seconds)
    setups.append(res["setup_s"])
    times = op_seconds(res)
    p80 = statistics.quantiles(times, n=5, method="inclusive")[3] if len(times) > 1 else times[0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(res), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p80": (p80, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "ok_ratio": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
    }
    ok, status = digest_status(workload, seed, [res["digest"]])
    return {
        "correct": ok and res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics, "digest": res["digest"], "digest_status": status, "ops": len(times),
        "kinclust_file": res["kinclust_file"], "missing": [],
        "probe_s": statistics.median(res["probes"]),
    }


def cli_probe(seed: int) -> tuple[dict, int, int]:
    """cli.startup_s and the p50 wall time of each rotated CLI command.

    One n=14 instance (the cli workload's first) is written with
    ``kinclust gen``; every command runs CLI_PROBE_ROUNDS times on it.
    """
    workdir = WORK / f"probe-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    py = sys.executable
    attempted = failed = 0

    def timed(argv: list[str]) -> float:
        nonlocal attempted, failed
        t0 = time.perf_counter()
        code, _, err = run_child(argv, 120, cwd=workdir)
        dt = time.perf_counter() - t0
        attempted += 1
        if code != 0:
            failed += 1
            print(f"cli probe {argv[1:]}: exit code {code}: {err.strip()[-500:]}", file=sys.stderr)
        return dt

    try:
        gen = [py, "-m", "kinclust.cli", "gen", "-n", str(CLI_PROBE_N),
               "--seed", str(instance_seed(seed, "cli", 0)), "-o", "inst0.json"]
        timed(gen)
        metrics = {"cli.startup_s": (
            statistics.median(timed([py, "-c", "import kinclust.cli"]) for _ in range(CLI_STARTUP_SAMPLES)), "s")}
        samples: dict[str, list[float]] = {label: [] for label, _ in CLI_COMMANDS}
        for _ in range(CLI_PROBE_ROUNDS):
            for label, args in CLI_COMMANDS:
                argv = [py, "-m", "kinclust.cli", *(a.format(file="inst0.json") for a in args)]
                samples[label].append(timed(argv))
        for label, values in samples.items():
            metrics[f"cli.{label}.s"] = (statistics.median(values), "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, attempted, failed


def traced(workload: str, seed: int, seconds: float) -> dict:
    plain = spawn_worker(workload, seed, seconds / 2)
    trace = spawn_worker(workload, seed, seconds / 2, "--trace")
    metrics, missing = layer_metrics(trace["trace"], len(trace["op_times"]))
    cli, probe_attempted, probe_failed = cli_probe(seed)
    metrics.update(cli)
    metrics["trace.overhead_ratio"] = (ops_per_s(plain) / ops_per_s(trace), "ratio")
    metrics["wall.ops_per_s"] = (len(plain["op_times"]) / sum(plain["op_times"]), "1/s")
    metrics["wall.op_s.p50"] = (statistics.median(plain["op_times"]), "s")
    metrics["host.probe_s"] = (statistics.median(plain["probes"]), "s")
    ok, status = digest_status(workload, seed, [plain["digest"], trace["digest"]])
    failed = plain["failed"] + trace["failed"] + probe_failed
    return {
        "correct": ok and failed == 0,
        "attempted": plain["attempted"] + trace["attempted"] + probe_attempted, "failed": failed,
        "metrics": metrics, "digest": trace["digest"], "digest_status": status, "ops": len(trace["op_times"]),
        "kinclust_file": trace["kinclust_file"], "missing": missing,
        "probe_s": statistics.median(plain["probes"]),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def report(workload: str, seed: int, trace: bool, res: dict) -> None:
    info = {
        "workload": workload, "trace": trace, "seed": seed, "ops_timed": res["ops"],
        "digest": res["digest"], "digest_ops": WORKLOADS[workload].digest_ops,
        "digest_status": res["digest_status"], "missing_metrics": res["missing"],
        "python": platform.python_version(), "nproc": NPROC, "pinned_cpu": PINNED_CPU,
        "cpu_model": cpu_model(), "commit": git_commit(), "kinclust_file": res["kinclust_file"],
        "probe_median_s": res["probe_s"], "probe_ref_s": REF_S,
    }
    print(json.dumps(info))
    for name, (value, unit) in res["metrics"].items():
        print(f"{workload:8} {name:40} {value:.6g} {unit}")
    for name in res["missing"]:
        print(f"{workload:8} {name:40} missing")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(WORKLOADS), help="default: every workload in turn")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="measured time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "kinclust" / "__init__.py").is_file():
        print(f"error: no kinclust package under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    # One CPU for this process, the workers and the CLI children they start,
    # so that the host-speed probe measures the CPU the timed work ran on.
    os.sched_setaffinity(0, {PINNED_CPU})
    one_pass()  # warm the probe that set-up times are calibrated by
    results = {}
    try:
        for name in names:
            run = traced if args.trace else end_to_end
            results[name] = run(name, args.seed, args.seconds)
            report(name, args.seed, bool(args.trace), results[name])
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    def metric_name(workload: str, name: str) -> str:
        return name if len(names) == 1 else f"{workload}.{name}"

    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            metric_name(w, name): {"value": value, "unit": unit}
            for w, r in results.items()
            for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
