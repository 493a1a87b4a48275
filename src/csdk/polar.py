"""Polar decomposition A = W H by three interchangeable routes.

`polar_svd` is the unconditionally stable oracle.  `polar_iterative` runs
the rational sign-function iteration: the p = 1 family (QR/Cholesky Halley
steps, up to six rounds) or the high-order family (two rounds, order picked
from a condition estimate).  `polar_modified` runs the same machinery on
the fixed interval [epsilon, 1] instead of [sigma_min, 1]; its W factor is
deliberately not orthonormal when A has singular values below epsilon (they
are mapped into [0, 1] rather than to 1), which is exactly what the
rank-deficient decomposition downstream needs.  `canonical_polar` is the
truncated-SVD construction whose W factor is a partial isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError
from .kernel import (
    DEFAULT_TOL_FACTOR,
    U_ROUNDOFF,
    cholesky_factor,
    hermitian_part,
    norm_fro,
    qr_factor,
    solve_triangular,
    svd_factor,
)
from .zolotarev import (
    SignIterationFactors,
    choose_order,
    sign_iteration_factors,
)

# Below this interval edge the Gram matrix X*X + pole*I is too ill
# conditioned for Cholesky; use the stacked-QR form of the update.
_QR_SWITCH_ELL = 0.1

_QDWH_MAX_ITERATIONS = 6
_DELTA_TOL = (5.0 * U_ROUNDOFF) ** (1.0 / 3.0)

# Order used by the fixed-interval variant; two rounds of this flatten
# [1e-15, 1] to within roundoff of 1.
MODIFIED_DEFAULT_ORDER = 8


@dataclass(frozen=True)
class PolarFactors:
    """Factors A ~= W H with H Hermitian positive semidefinite.

    mode is "exact" when W has orthonormal columns to working precision and
    "interval_modified" when W only has singular values in [0, 1 + O(u)].
    sigma_min_estimate is the smallest-singular-value estimate used for the
    iteration setup (unscaled), iterations the number of rounds performed.
    """

    w: np.ndarray
    h: np.ndarray
    mode: str
    method: str
    sigma_min_estimate: float
    iterations: int = 0


def _require_tall(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionError(f"polar decomposition needs rows >= cols, got {a.shape}")
    return a


def polar_svd(a: np.ndarray) -> PolarFactors:
    """Polar decomposition through the SVD: W = P Q*, H = Q Sigma Q*."""
    a = _require_tall(a)
    f = svd_factor(a)
    w = f.p @ f.q.conj().T
    h = hermitian_part((f.q * f.sigma) @ f.q.conj().T)
    smin = float(f.sigma[-1]) if f.sigma.size else 0.0
    return PolarFactors(w, h, "exact", "svd", smin)


def sigma_min_estimate(r: np.ndarray, steps: int = 3) -> float:
    """Estimate sigma_min of a triangular factor R.

    Starts from the smallest diagonal magnitude (always an overestimate)
    and refines with a few inverse-iteration steps on R* R.  Returns 0.0
    when R is singular to working precision.
    """
    n = r.shape[0]
    if n == 0:
        return 0.0
    diag_min = float(np.min(np.abs(np.diagonal(r))))
    if diag_min == 0.0:
        return 0.0
    v = (1.0 + 0.01 * np.arange(n) / max(n - 1, 1)).astype(np.complex128)
    v /= np.linalg.norm(v)
    est = diag_min
    for _ in range(steps):
        t = solve_triangular(r, v, conj_transpose=True)
        z = solve_triangular(r, t)
        nz = float(np.linalg.norm(z))
        if not math.isfinite(nz):
            return 0.0
        if nz == 0.0:
            return diag_min
        est = 1.0 / math.sqrt(nz)
        v = z / nz
    return min(est, diag_min)


def _apply_sign_iteration(
    x: np.ndarray, fac: SignIterationFactors, *, use_qr: bool, hermitian: bool
) -> np.ndarray:
    """One matrix round x -> (x + sum_j a_j x (x*x + q_j I)^-1) / normalizer."""
    m, n = x.shape
    eye = np.eye(n, dtype=np.complex128)
    acc = x.copy()
    for a_j, pole in zip(fac.residues, fac.poles):
        if use_qr:
            root = math.sqrt(pole)
            stacked = np.vstack([x, root * eye])
            q, _ = np.linalg.qr(stacked)
            term = (q[:m] @ q[m:].conj().T) / root
        else:
            gram = x.conj().T @ x
            gram[np.arange(n), np.arange(n)] += pole
            r = cholesky_factor(hermitian_part(gram))
            t = solve_triangular(r, x.conj().T, conj_transpose=True)
            term = solve_triangular(r, t).conj().T
        acc += a_j * term
    out = acc / fac.normalizer
    if hermitian:
        out = hermitian_part(out)
    return out


def _two_rounds(x: np.ndarray, ell: float, p: int, *, hermitian: bool) -> np.ndarray:
    """Two rounds of the order-p map, the first tuned to the interval [ell, 1]."""
    for _ in range(2):
        fac = sign_iteration_factors(ell, p)
        x = _apply_sign_iteration(
            x, fac, use_qr=ell < _QR_SWITCH_ELL, hermitian=hermitian
        )
        ell = min(fac.ell_next, 1.0)
    return x


def _orthonormality_defect(w: np.ndarray) -> float:
    n = w.shape[1]
    return norm_fro(w.conj().T @ w - np.eye(n))


def polar_iterative(
    a: np.ndarray,
    *,
    method: str = "qdwh",
    hermitian: bool = False,
) -> PolarFactors:
    """Polar decomposition by the rational sign iteration.

    method "qdwh" runs the p = 1 map adaptively (at most six rounds, error
    if unconverged); method "zolo" runs exactly two rounds with p chosen
    from the condition estimate.  The input is scaled by its Frobenius
    norm, a safe upper bound on the largest singular value; the smallest
    one is estimated from the triangular factor of a QR factorization, and
    both routes start from that estimate.  Raises ConvergenceError when the
    iteration cannot reach an orthonormal factor, which callers treat as
    an ill-conditioning signal.
    """
    if method not in ("qdwh", "zolo"):
        raise ValueError(f"unknown iterative polar method {method!r}")
    a = _require_tall(a)
    m, n = a.shape
    # Either norm bound is a rigorous sigma_max upper estimate; their min is
    # tight at an isometry, which then starts at the map's fixed point.
    alpha = norm_fro(a)
    if alpha > 0.0:
        alpha = min(
            alpha,
            math.sqrt(
                np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf)
            ),
        )
    if alpha == 0.0:
        raise ConvergenceError("zero matrix has no unitary polar factor")
    x = a / alpha
    smin_scaled = sigma_min_estimate(qr_factor(x).r)
    ell = min(0.9 * smin_scaled, 1.0)
    if ell <= 0.0:
        raise ConvergenceError("matrix is singular to working precision")

    orth_tol = 10.0 * DEFAULT_TOL_FACTOR * n * U_ROUNDOFF
    if method == "qdwh":
        iterations = 0
        converged = False
        for _ in range(_QDWH_MAX_ITERATIONS):
            fac = sign_iteration_factors(ell, 1)
            x_new = _apply_sign_iteration(
                x, fac, use_qr=ell < _QR_SWITCH_ELL, hermitian=hermitian
            )
            delta = norm_fro(x_new - x)
            scale = norm_fro(x_new)
            x = x_new
            ell = fac.ell_next
            iterations += 1
            # The cube-root test on the step size certifies the next lag only
            # once the weights are asymptotic (ell ~ 1); before that, accept
            # only a step at roundoff level (an exact fixed point).
            asymptotic = 1.0 - ell <= 10.0 * U_ROUNDOFF
            at_roundoff = delta <= 10.0 * U_ROUNDOFF * scale
            if delta <= _DELTA_TOL * scale and (asymptotic or at_roundoff):
                converged = True
                break
            ell = min(ell, 1.0)
        if not converged:
            raise ConvergenceError(
                f"Halley iteration did not converge in {_QDWH_MAX_ITERATIONS} "
                f"rounds (sigma_min estimate {smin_scaled:.3e})"
            )
    else:
        x = _two_rounds(x, ell, choose_order(ell), hermitian=hermitian)
        iterations = 2

    if _orthonormality_defect(x) > orth_tol:
        raise ConvergenceError(
            "iterated factor is not orthonormal to working precision; "
            "input is likely ill conditioned beyond the interval estimate"
        )
    w = x
    h = hermitian_part(w.conj().T @ a)
    return PolarFactors(w, h, "exact", method, smin_scaled * alpha, iterations)


def polar_modified(a: np.ndarray, epsilon: float = 1e-15) -> PolarFactors:
    """Sign iteration on the fixed interval [epsilon, 1]: two rounds of the
    order-MODIFIED_DEFAULT_ORDER Zolotarev map.

    Expects A scaled so its largest singular value is close to 1 (submatrices
    of a near partial isometry satisfy this as-is).  Singular values of A at
    or above epsilon are mapped to 1 - O(u); smaller ones stay in [0, 1], so
    W is not orthonormal when A is nearly rank deficient, while the
    symmetrized W*A still matches the true Hermitian factor to O(u).
    """
    a = _require_tall(a)
    w = _two_rounds(a, epsilon, MODIFIED_DEFAULT_ORDER, hermitian=False)
    h = hermitian_part(w.conj().T @ a)
    return PolarFactors(w, h, "interval_modified", "zolo", epsilon, 2)


def canonical_polar(a: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical polar decomposition through the truncated SVD.

    Truncates at the numerical rank r = #{sigma_i > rank_tol} and returns
    (U, H) with U = P_r Q_r* a rank-r partial isometry and H = Q_r S_r Q_r*
    Hermitian positive semidefinite sharing its row space.
    """
    a = np.asarray(a, dtype=np.complex128)
    f = svd_factor(a)
    r = int(np.count_nonzero(f.sigma > rank_tol))
    pr = f.p[:, :r]
    qr_ = f.q[:, :r]
    u = pr @ qr_.conj().T
    h = hermitian_part((qr_ * f.sigma[:r]) @ qr_.conj().T)
    return u, h
