"""Benchmark of csdk's `csd`, end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload fullrank-iterative --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a worker process of its own with BLAS pinned to one
thread.  Set-up time is measured from the start of a worker to its first
timed call, on SETUP_RUNS workers started one after another (the middle
one runs the workload), and the median is reported.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the exit code is 0 only if every check passed.  This file uses
the standard library only, so nothing numeric is loaded before the thread
settings are in place.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("fullrank-iterative", "rank-deficient", "direct-route")
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run ends within 180 s

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _worker(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run one worker; return its JSON line and its monotonic start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED}
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def _setup_probes(args, deadline: float, count: int) -> list[float]:
    times = []
    for _ in range(count):
        probe, started = _worker(args, deadline, setup_only=True)
        times.append(probe["setup_end"] - started)
    return times


def run_workload(args, deadline: float) -> dict:
    # Probes before and after the workload, so that set-up is sampled
    # across the run rather than at one moment of the machine's load.
    probes = 0 if args.trace else SETUP_RUNS // 2
    setups = _setup_probes(args, deadline, probes)
    result, started = _worker(args, deadline, setup_only=False)
    setups.append(result["setup_end"] - started)
    setups += _setup_probes(args, deadline, probes)
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            raise BenchError(f"metric {name} is not finite")
    sys.stderr.write(
        f"{args.workload}: attempted {result['attempted']}, completed "
        f"{result['completed']}, failed {result['failed']} "
        f"{json.dumps(result['failed_by_type'])}, {result['beyond_p90']} calls beyond "
        f"p90, timed {result['timed_s']:.2f} s, setups {[round(s, 3) for s in setups]}\n"
    )
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail = {**result, "metrics": metrics, "setup_s": setups, "seconds": args.seconds}
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "csdk").is_dir():
        print(f"no csdk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    ok = True
    for name in names:
        args.workload = name
        try:
            summary = run_workload(args, deadline)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            summary = {"workload": name, **summary}
        print(json.dumps(summary), flush=True)
        ok = ok and summary["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
