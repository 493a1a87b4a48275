"""Run csdk's mutant list: each mutant must fail the test named for it.

A mutant replaces one exact text in one file under src/ with another.
For each, this script copies src/ to a temporary directory, applies the
mutant there, and runs pytest -x on the mutant's killing test with that
copy first on PYTHONPATH.  The mutant is killed when the test fails.
The killing tests are first run once on the unmutated source, where they
must pass.  Nothing in the repository is modified.

Usage, from the repository root:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

The exit status is 0 when every mutant run was killed, and 1 when one
survived, when its text is not found exactly once, or when a killing test
fails on the unmutated source.  Uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    test: str  # pytest node id that must fail on the mutant


MUTANTS = (
    Mutant(
        "distance-gate-0.12",
        "src/csdk/csd.py",
        "_DISTANCE_GATE = 0.1\n",
        "_DISTANCE_GATE = 0.12\n",
        "tests/test_csd.py::TestNoiseScaleSweep::test_inside_the_gate_meets_the_bounds",
    ),
    Mutant(
        "projected-diagonal-unclipped",
        "src/csdk/csd.py",
        "return np.clip(np.real(np.sum(np.conj(v1) * (h @ v1), axis=0)), 0.0, 1.0)",
        "return np.real(np.sum(np.conj(v1) * (h @ v1), axis=0))",
        "tests/test_csd.py::TestProjectedDiagonal::test_clamped_into_unit_interval",
    ),
    Mutant(
        "finish-unsorted",
        "src/csdk/csd.py",
        'order = np.argsort(theta, kind="stable")',
        "order = np.arange(theta.size)",
        "tests/test_csd.py::TestInvariants::test_angles_ascending",
    ),
    Mutant(
        "flat-tol-x100",
        "src/csdk/polar.py",
        "_FLAT_TOL = 5.0 * U_ROUNDOFF",
        "_FLAT_TOL = 500.0 * U_ROUNDOFF",
        "tests/test_zolotarev.py::test_zolo_schedule_order_monotone_and_bounded",
    ),
    Mutant(
        "min-ell-1e-30",
        "src/csdk/polar.py",
        "_MIN_ELL = 1e-45",
        "_MIN_ELL = 1e-30",
        "tests/test_polar.py::TestPolarIterative::"
        "test_unflattened_schedule_signals_before_any_round",
    ),
    Mutant(
        "phase-normalize-dropped",
        "src/csdk/symeig.py",
        "return v * np.conj(phases)[np.newaxis, :]",
        "return v",
        "tests/test_symeig.py::TestSymeigSdc::"
        "test_eigenvalues_ascending_and_phases_normalized",
    ),
    Mutant(
        "unitarity-gate-1e-3",
        "src/csdk/csd.py",
        "    if gate > 1e-6:",
        "    if gate > 1e-3:",
        "tests/test_csd.py::TestCsd2x2::test_defect_near_1e_5_rejected",
    ),
    Mutant(
        "qr-switch-ell-0.01",
        "src/csdk/polar.py",
        "_QR_SWITCH_ELL = 0.1\n",
        "_QR_SWITCH_ELL = 0.01\n",
        "tests/test_polar.py::TestPolarIterative::"
        "test_round_below_the_switch_runs_stacked_qr",
    ),
    Mutant(
        "ill-conditioned-below-1e-13",
        "src/csdk/csd.py",
        "ill = smin / smax < EPSILON",
        "ill = smin / smax < 1e-13",
        "tests/test_csd.py::TestQrFixChosenByCaller::"
        "test_full_rank_ratio_just_above_epsilon_takes_the_plain_polar",
    ),
    Mutant(
        "drop-budget-10-n-u",
        "src/csdk/symeig.py",
        "drop = math.sqrt(coupling) <= budget",
        "drop = math.sqrt(coupling) <= 10.0 * budget",
        "tests/test_csd.py::TestSvdRoute::test_dropped_mass_above_n_u_keeps_one_block",
    ),
    Mutant(
        "gap-tol-1e-3",
        "src/csdk/symeig.py",
        "_GAP_TOL = 1e-6\n",
        "_GAP_TOL = 1e-3\n",
        "tests/test_symeig.py::TestSymeigRotated::"
        "test_coupling_above_gap_tol_joins_its_cluster",
    ),
    Mutant(
        "rotation-max-1e-2",
        "src/csdk/symeig.py",
        "_ROTATION_MAX = 1e-4\n",
        "_ROTATION_MAX = 1e-2\n",
        "tests/test_symeig.py::TestSymeigRotated::"
        "test_rotation_above_rotation_max_is_refused",
    ),
    Mutant(
        "gram-lower-1",
        "src/csdk/csd.py",
        "_GRAM_LOWER = _DISTANCE_GATE**2\n",
        "_GRAM_LOWER = _DISTANCE_GATE**0\n",
        "tests/test_csd.py::TestSvdRoute::"
        "test_gate_refuses_tight_discs_outside_the_intervals",
    ),
    Mutant(
        "gram-upper-wide",
        "src/csdk/csd.py",
        "_GRAM_UPPER = ((1.0 - _DISTANCE_GATE) ** 2, (1.0 + _DISTANCE_GATE) ** 2)\n",
        "_GRAM_UPPER = ((1.0 - _DISTANCE_GATE) ** 2 / 100, "
        "(1.0 + _DISTANCE_GATE) ** 2 * 100)\n",
        "tests/test_csd.py::TestSvdRoute::"
        "test_gate_refuses_tight_discs_outside_the_intervals",
    ),
    Mutant(
        "svd-worker-from-140",
        "src/csdk/csd.py",
        '_CONCURRENT_MIN_N = {"svd": 120,',
        '_CONCURRENT_MIN_N = {"svd": 140,',
        "tests/test_csd.py::TestConcurrentBlockPolars::"
        "test_routes_with_long_blocks_overlap_at_n_120",
    ),
    Mutant(
        "any-blas-thread-count-overlaps",
        "src/csdk/csd.py",
        "get_threads() == 1",
        "get_threads() >= 1",
        "tests/test_csd.py::TestConcurrentBlockPolars::"
        "test_overlap_pays_with_one_blas_thread_and_two_cores",
    ),
    Mutant(
        "r-agreement-factor-1e6",
        "src/csdk/polar.py",
        "_R_AGREEMENT_FACTOR = 1e3\n",
        "_R_AGREEMENT_FACTOR = 1e6\n",
        "tests/test_csd.py::TestPolarViaQrFix::"
        "test_rejected_agreement_falls_back_loudly",
    ),
    Mutant(
        "fix-threshold-1e-9",
        "src/csdk/csd.py",
        "_RANK_DEFICIENT_FIX_THRESHOLD = 1e-7\n",
        "_RANK_DEFICIENT_FIX_THRESHOLD = 1e-9\n",
        "tests/test_csd.py::TestQrFixChosenByCaller::"
        "test_rank_deficient_active_sigma_1e_8_takes_the_qr_fix",
    ),
    Mutant(
        "qr-diagonal-not-stored",
        "src/csdk/kernel.py",
        "    r[idx, idx] = mag\n",
        "",
        "tests/test_kernel.py::TestQr::test_diag_stored_as_exact_moduli",
    ),
)


def _pytest(src: Path, tests: list[str]) -> bool:
    """Whether the tests pass with `src` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def _run(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="csdk-mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "text not found once"
        target.write_text(text.replace(mutant.old, mutant.new))
        return "survived" if _pytest(copy, [mutant.test]) else "killed"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[name] for name in names] if names else list(MUTANTS)
    if not _pytest(ROOT / "src", sorted({m.test for m in chosen})):
        print("a killing test fails on the unmutated source", file=sys.stderr)
        return 1
    outcomes = []
    for mutant in chosen:
        outcome = _run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:<20} {mutant.name:<30} {mutant.test}", flush=True)
    return 0 if all(outcome == "killed" for outcome in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
