"""Compare csd's results between this tree and another tree's csdk.

Runs every input of perfbench/inputs.py, for each seed, on every polar
route, once with this repository's src/csdk and once with PARENT_SRC/csdk,
and prints per route how many results are bitwise equal in all of u1, u2,
c, s, v1, theta, rank, branch and the type of any error raised, and the
largest |delta theta| between the two.

PARENT_SRC is a directory holding a csdk package, such as the src/ of a
local commit unpacked with `git archive` or checked out with
`git worktree add`.  Its csdk is copied to a temporary directory as
csdk_parent; every import inside the package is relative, so both trees
load in one process.  Only perfbench/inputs.py is read from perfbench/.

Usage, from the repository root:

    python tools/same_bits.py PARENT_SRC [--seeds 41,7] [--theta-tol TOL]

BLAS is pinned to one thread, as perfbench pins its workers, unless
OPENBLAS_NUM_THREADS is set.  The exit status is 0 when every result is
bitwise equal, or, with --theta-tol, when every pair agrees in rank,
branch and error type and its theta differs by at most TOL; 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after BLAS is pinned)

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("u1", "u2", "c", "s", "v1", "theta", "rank", "branch")


def _outcome(package, case, route):
    """The result of csd on one input and route, or the package's typed
    error it raised; any other exception ends the comparison."""
    try:
        return package.csd(case.a, case.m1, package.CsdOptions(polar_method=route))
    except package.CsdkError as exc:
        return exc


def _same(old, new) -> bool:
    if isinstance(old, Exception) or isinstance(new, Exception):
        return type(old).__name__ == type(new).__name__
    return all(np.array_equal(getattr(old, f), getattr(new, f)) for f in FIELDS)


def _theta_gap(old, new) -> float:
    """max |delta theta| of two results of equal rank, else inf; 0 for two
    errors of one type."""
    if isinstance(old, Exception) or isinstance(new, Exception):
        return 0.0 if _same(old, new) else np.inf
    if old.rank != new.rank or old.branch != new.branch:
        return np.inf
    return float(np.max(np.abs(old.theta - new.theta), initial=0.0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("--seeds", default="41,7")
    parser.add_argument("--theta-tol", type=float, default=None)
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]

    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    from inputs import WORKLOADS, build_cases

    current = importlib.import_module("csdk")
    routes = importlib.import_module("csdk.csd").POLAR_METHODS
    with tempfile.TemporaryDirectory(prefix="csdk-same-bits-") as tmp:
        shutil.copytree(
            args.parent_src / "csdk",
            Path(tmp) / "csdk_parent",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        sys.path.insert(0, tmp)
        parent = importlib.import_module("csdk_parent")
        tally = {route: [0, 0, 0.0] for route in routes}  # equal, total, gap
        passed = True
        for seed in seeds:
            for workload in WORKLOADS.values():
                for case in build_cases(workload, seed):
                    for route in routes:
                        old = _outcome(parent, case, route)
                        new = _outcome(current, case, route)
                        same, gap = _same(old, new), _theta_gap(old, new)
                        row = tally[route]
                        row[0] += same
                        row[1] += 1
                        row[2] = max(row[2], gap)
                        if args.theta_tol is None:
                            passed &= same
                        else:
                            passed &= gap <= args.theta_tol
    for route, (equal, total, gap) in tally.items():
        print(f"{route:<5} {equal:>4} of {total:<4} bitwise equal, max |dtheta| {gap:.3g}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
