"""One workload of the csd benchmark, in one process.

Started by run.py with BLAS pinned to one thread.  Builds the inputs from
the seed, warms up, then calls csd in a closed loop (one call at a time,
whole rounds over the fixed list of inputs) until --seconds have passed
and MIN_COMPLETED calls have completed.  After the loop it checks the first
result of every (input, route) against numpy and scipy, and every later
result against that checked one.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A run goes on past --seconds (up to twice that) until this many calls have
# completed, so that at least ten of them lie beyond latency_p90_s.
MIN_COMPLETED = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first timed call and report its time")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import csdk.csd  # noqa: F401  (binds the function; use sys.modules)
    from checks import check, make_oracle
    from inputs import WORKLOADS, build_cases
    from layers import Tracer, install

    csd_mod = sys.modules["csdk.csd"]
    workload = WORKLOADS[args.workload]
    cases = build_cases(workload, args.seed)
    options = [
        csd_mod.CsdOptions() if m is None else csd_mod.CsdOptions(polar_method=m)
        for m in workload.methods
    ]
    ops = [(i, j) for i in range(len(cases)) for j in range(len(options))]

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    for opts in options:
        csd_mod.csd(cases[0].a, cases[0].m1, opts)
    if tracer is not None:
        tracer.reset()
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    def call(case, opts):
        if tracer is None:
            return csd_mod.csd(case.a, case.m1, opts)
        with tracer.span("csd"):
            return csd_mod.csd(case.a, case.m1, opts)

    first = {}  # (input, route) -> its first result, checked below
    repeats = []  # (op, k, theta) of every later result
    calls = []  # (start offset, seconds, op index, completed) of every call
    failed: Counter[str] = Counter()
    violations: list[str] = []
    start = time.perf_counter()
    completed = 0

    def more_rounds() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed < args.seconds or (
            completed < MIN_COMPLETED and elapsed < 2 * args.seconds)

    while more_rounds():
        for n_op, op in enumerate(ops):
            case, opts = cases[op[0]], options[op[1]]
            t0 = time.perf_counter()
            try:
                res = call(case, opts)
            except Exception as exc:
                res = exc
            dt = time.perf_counter() - t0
            ok = not isinstance(res, Exception)
            calls.append((t0 - start, dt, n_op, ok))
            if not ok:
                failed[type(res).__name__] += 1
                if not case.known_fault:
                    violations.append(f"{case.label} {workload.methods[op[1]]}: "
                                      + "".join(traceback.format_exception_only(res)))
                continue
            completed += 1
            if op in first:
                repeats.append((op, res.k, res.theta))
            else:
                first[op] = res
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tolerance = {}
    for op, res in first.items():
        case = cases[op[0]]
        found, tolerance[op] = check(case, make_oracle(case.a, case.m1, case.full_rank), res)
        violations += [f"{case.label} {workload.methods[op[1]]}: {v.check}: {v.detail}"
                       for v in found]
    for op, k, theta in repeats:
        ref = first[op]
        if k != ref.k or np.max(np.abs(theta - ref.theta), initial=0.0) > tolerance[op]:
            violations.append(f"{cases[op[0]].label}: repeated call disagrees with the checked one")
    for line in violations:
        print("CHECK FAILED:", line.strip(), file=sys.stderr)

    lat = np.array([dt for _, dt, _, ok in calls if ok])
    busy = sum(dt for _, dt, _, _ in calls)
    p90 = float(np.percentile(lat, 90)) if lat.size else float("nan")
    if tracer is not None:
        metrics = tracer.metrics(lat.size)
    else:
        metrics = {
            "latency_p50_s": {"value": float(np.median(lat)), "unit": "s"},
            "latency_p90_s": {"value": p90, "unit": "s"},
            "decomp_per_s": {"value": lat.size / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not violations,
        "attempted": len(calls),
        "failed": sum(failed.values()),
        "failed_by_type": dict(failed),
        "completed": int(lat.size),
        "beyond_p90": int(np.count_nonzero(lat > p90)),
        "timed_s": busy,
        "setup_end": setup_end,
        "calls": calls,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
