"""The package's acceptance checks, runnable via `csdk selftest` or pytest.

Each criterion is a function returning a CriterionResult; run_all executes
them in order and prints one pass/fail line per criterion.  Desk scale:
sizes nint(30 * 2**(j/2)) for j = 0..4, three seeds each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .csd import POLAR_METHODS, CsdOptions, csd, csd_2x2
from .isometry import assemble_2x2, lemma22_check, lemma23_bound, stability_report
from .kernel import U_ROUNDOFF, hermitian_part, norm_2, norm_fro, singular_values
from .polar import canonical_polar, polar_iterative, polar_modified, polar_svd
from .symeig import symeig_direct, symeig_sdc
from .testgen import (
    TestCase,
    bench_sizes,
    gen_clustered,
    gen_haar_stiefel,
    gen_with_singular_values,
    generate,
    nint,
)

SIZES = bench_sizes()
SEEDS = (1, 2, 3)
# The default route and the paper's main iterative route.
_STABILITY_METHODS = ("svd", "qdwh")


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    passed: bool
    details: str


def _report_lines(rows: list[str]) -> str:
    if len(rows) <= 6:
        return "; ".join(rows)
    return "; ".join(rows[:6]) + f"; ... ({len(rows)} checks)"


def _strip_diag(m: np.ndarray) -> np.ndarray:
    return m - np.diag(np.diagonal(m))


def _three_angle_setup():
    theta = np.array([1e-8, 2e-8, 3e-8])
    v1 = np.array([[2.0, -1.0, 2.0], [2.0, 2.0, -1.0], [1.0, -2.0, -2.0]]) / 3.0
    h1 = (v1 * np.cos(theta)) @ v1.T
    h2 = (v1 * np.sin(theta)) @ v1.T
    return h1.astype(complex), h2.astype(complex)


def criterion_1() -> CriterionResult:
    """Three clustered angles: the difference basis nearly diagonalizes H2,
    the H1 basis does not."""
    h1, h2 = _three_angle_setup()
    good = symeig_direct(h2 - h1).v
    bad = symeig_direct(h1).v
    off_good = float(np.max(np.abs(_strip_diag(good.conj().T @ h2 @ good))))
    off_bad = float(np.max(np.abs(_strip_diag(bad.conj().T @ h2 @ bad))))
    passed = off_good <= 1e-15 and off_bad >= 1e-10
    details = f"difference basis offdiag {off_good:.2e} (<=1e-15), H1 basis {off_bad:.2e} (>=1e-10)"
    return CriterionResult("1", "clustered-angle basis experiment", passed, details)


def _class_rows(classes, noisy_flags, methods):
    for cid in classes:
        for noisy in noisy_flags:
            for method in methods:
                for n in SIZES:
                    for seed in SEEDS:
                        yield cid, noisy, method, n, seed


def _check_stability(classes, ident, title) -> CriterionResult:
    rows = []
    for cid, noisy, method, n, seed in _class_rows(
        classes, (False, True), _STABILITY_METHODS
    ):
        case = TestCase(cid, noisy, n, seed)
        a = generate(case)
        res = csd(a, n, CsdOptions(polar_method=method))
        rep = stability_report(a, res)
        bound_orth = 50.0 * n
        checks = []
        if noisy:
            checks.append(("resid/d", rep.scaled_residual, 10.0))
        else:
            checks.append(("resid", rep.residual_2norm, 50.0 * n * U_ROUNDOFF))
            checks.append(("orthU1", rep.orth_u1, bound_orth))
            checks.append(("orthU2", rep.orth_u2, bound_orth))
            checks.append(("orthV1", rep.orth_v1, bound_orth))
        if cid in (3, 4):
            checks.append(("cs_ident", rep.cs_identity_err, 100.0 * U_ROUNDOFF))
            if res.k != nint(3 * n / 4):
                rows.append(f"class {case.label} n={n} s={seed} {method}: k={res.k}")
                continue
        bad = [f"{nm}={val:.3g}>{bnd:.3g}" for nm, val, bnd in checks if val > bnd]
        if bad:
            rows.append(f"class {case.label} n={n} s={seed} {method}: " + ",".join(bad))
    detail = "all thresholds met" if not rows else _report_lines(rows)
    count = len(list(_class_rows(classes, (False, True), _STABILITY_METHODS)))
    return CriterionResult(ident, title, not rows, f"{detail} ({count} runs)")


def criterion_2() -> CriterionResult:
    """Full-rank classes: orthogonality within 50n ulp, residual within
    50nu; noisy variants within 10x their isometry distance."""
    return _check_stability((1, 2), "2", "full-rank backward stability")


def criterion_3() -> CriterionResult:
    """Rank-deficient classes at k = nint(3n/4), same thresholds, plus the
    postprocessed c^2+s^2 identity within 100u."""
    return _check_stability((3, 4), "3", "rank-deficient backward stability")


def criterion_4() -> CriterionResult:
    """Instability witness: eigendecomposing H1 instead of H2 - H1 must
    visibly break the projected diagonalization on clustered angles.  The
    H1 basis comes from the solvers `csd` runs on its qdwh route: the
    iterative qdwh polar, told the block's singular values, and LAPACK's
    Hermitian eigensolver."""
    n = 30
    witnessed = []
    for seed in range(1, 7):
        a = gen_clustered(n, seed)
        sig = singular_values(a[:n])
        h1 = polar_iterative(a[:n], sig[0], sig[-1], method="qdwh").h
        v1 = symeig_direct(hermitian_part(h1)).v
        h2 = polar_svd(a[n:]).h
        off = norm_2(_strip_diag(v1.conj().T @ h2 @ v1))
        witnessed.append(off / (U_ROUNDOFF * norm_2(h2)))
    worst = max(witnessed)
    passed = worst >= 1e3
    details = f"max offdiag/(u*|H2|) over 6 seeds = {worst:.3g} (>= 1e3 required)"
    return CriterionResult("4", "H1-basis instability witness", passed, details)


def _conditioned_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 36))
    m = n + int(rng.integers(0, 3)) * 7
    kappa = 10.0 ** (seed % 9)
    sigma = np.geomspace(1.0, 1.0 / kappa, n)
    return gen_with_singular_values(m, n, sigma, seed * 7919 + 1), kappa, m, n


def criterion_5() -> CriterionResult:
    """Polar contracts over condition numbers 1..1e8 for all methods, the
    six-round cap for the Halley family, and the fixed-interval identities
    for both sign iterations.
    The iterative and fixed-interval routines are told the input's singular
    values, as `csd` tells them a block's."""
    rows = []
    for seed in range(50):
        a, kappa, m, n = _conditioned_instance(seed)
        bound = 50.0 * n * U_ROUNDOFF * norm_fro(a)
        sig = singular_values(a)
        for method in POLAR_METHODS:
            if method == "svd":
                pf = polar_svd(a)
            else:
                pf = polar_iterative(a, sig[0], sig[-1], method=method)
            resid = norm_fro(pf.w @ pf.h - a)
            if resid > bound:
                rows.append(f"seed {seed} {method}: resid {resid:.2e} > {bound:.2e}")
            if method == "qdwh" and pf.iterations > 6:
                rows.append(f"seed {seed}: {pf.iterations} rounds")
        href = polar_svd(a).h
        for method in ("qdwh", "zolo"):
            pf = polar_modified(a, smax=sig[0], method=method)
            dh = norm_fro(pf.h - href)
            dwh = norm_fro(pf.w @ pf.h - a)
            if dh > 1e3 * U_ROUNDOFF or dwh > 1e3 * U_ROUNDOFF:
                rows.append(f"seed {seed} modified {method}: dH {dh:.2e}, resid {dwh:.2e}")
    details = "all 50 instances in contract" if not rows else _report_lines(rows)
    return CriterionResult("5", "polar decomposition contracts", not rows, details)


def criterion_6() -> CriterionResult:
    """Divide-and-conquer eigenvalues against the direct solver, with the
    projector and decoupling invariants at every split."""
    rows = []
    rng_sizes = [5, 10, 20, 35, 50, 64, 80, 100]
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = rng_sizes[seed % len(rng_sizes)]
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = hermitian_part(g)
        log: list[dict] = []
        sdc = symeig_sdc(b, split_log=log)
        direct = symeig_direct(b)
        gap = float(np.max(np.abs(sdc.lam - direct.lam)))
        bound = 1e3 * n * U_ROUNDOFF * norm_2(b)
        if gap > bound:
            rows.append(f"seed {seed} n={n}: dlam {gap:.2e} > {bound:.2e}")
        for entry in log:
            blk = entry["size"]
            if entry["projector_defect"] > 50.0 * blk * U_ROUNDOFF:
                rows.append(f"seed {seed}: projector defect {entry['projector_defect']:.2e}")
            if entry["decoupling"] > 50.0 * blk * U_ROUNDOFF:
                rows.append(f"seed {seed}: decoupling {entry['decoupling']:.2e}")
    details = "50 instances agree; invariants hold" if not rows else _report_lines(rows)
    return CriterionResult("6", "eigensolver oracle equivalence", not rows, details)


def _lemma_instance(seed: int):
    rng = np.random.default_rng(2000 + seed)
    m = int(rng.integers(4, 12))
    n = int(rng.integers(3, m + 1))
    r = int(rng.integers(1, n + 1))
    sigma = np.zeros(n)
    sigma[:r] = rng.uniform(0.5, 1.5, size=r)
    sigma[: r] = np.sort(sigma[:r])[::-1]
    return gen_with_singular_values(m, n, sigma, seed * 104729 + 1), r


def criterion_7() -> CriterionResult:
    """Lemma suite: the exact-rank sandwich in both norms and the eps-rank
    tail bound, 100 seeded instances each."""
    rows = []
    slack = 1e-13
    for seed in range(100):
        a, _ = _lemma_instance(seed)
        for norm in ("spectral", "frobenius"):
            lo, mid, hi = lemma22_check(a, norm=norm)
            if not (lo <= mid + slack and mid <= hi + slack):
                rows.append(f"sandwich seed {seed} {norm}: {lo:.3e},{mid:.3e},{hi:.3e}")
    for seed in range(100):
        base, r = _lemma_instance(seed)
        iso, _ = canonical_polar(base, 0.25)
        rng = np.random.default_rng(3000 + seed)
        level = 0.0 if seed % 3 == 0 else 1e-8
        noise = rng.standard_normal(iso.shape) + 1j * rng.standard_normal(iso.shape)
        a = iso + level * noise
        eps = max(level * 10.0 * math.sqrt(a.size), 1e-13)
        bound = lemma23_bound(a, eps)
        u, _ = canonical_polar(a, eps)
        actual = norm_2(a - u)
        if actual > bound + slack:
            rows.append(f"tail seed {seed}: |A-U| {actual:.3e} > bound {bound:.3e}")
    details = "sandwich and tail bounds hold on all instances" if not rows else _report_lines(rows)
    return CriterionResult("7", "partial-isometry lemma suite", not rows, details)


def criterion_8() -> CriterionResult:
    """Complete 2x2 decomposition of Haar unitaries reconstructs all four
    blocks and yields an orthonormal V2, on the svd and qdwh routes."""
    rows = []
    for method in _STABILITY_METHODS:
        for n in (10, 30):
            for seed in SEEDS:
                a = gen_haar_stiefel(2 * n, 2 * n, seed=seed)
                res, v2 = csd_2x2(a, CsdOptions(polar_method=method))
                resid = norm_2(assemble_2x2(res, v2) - a)
                orth = norm_2(v2.conj().T @ v2 - np.eye(n))
                bound = 50.0 * n * U_ROUNDOFF
                if resid > bound or orth > bound:
                    rows.append(
                        f"{method} n={n} seed {seed}: resid {resid:.2e}, V2 orth {orth:.2e}"
                    )
    details = "reconstruction and V2 orthogonality within 50nu" if not rows else _report_lines(rows)
    return CriterionResult("8", "complete 2x2 decomposition", not rows, details)


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
)


def run_all() -> list[CriterionResult]:
    """Run every criterion, emitting one pass/fail line each."""
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.ident}: {res.title} -- {res.details}")
    return results
