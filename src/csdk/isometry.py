"""Partial-isometry diagnostics and the stability metrics of the test suite.

A partial isometry U satisfies U U* U = U (all singular values 0 or 1).
`dist_to_partial_isometry` evaluates the spectral-norm distance of an
arbitrary matrix to that set, max_i min(sigma_i, |1 - sigma_i|), which the
scaled residual of a computed decomposition is measured against.  The two
`lemma*` helpers expose the sandwich and tail bounds relating that distance
to the observable defect ||A A* A - A||; tests assert the inequalities on
constructed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .kernel import U_ROUNDOFF, norm_2, norm_fro, singular_values, svd_factor


@dataclass(frozen=True)
class StabilityReport:
    """Residual and orthogonality measures for one computed decomposition.

    residual_2norm is ||Ahat - A||_2 for the reconstruction Ahat; the
    scaled residual divides by max(d(A), u) so exact test matrices do not
    divide by zero.  The orth_* fields are ||X*X - I||_2 / u.
    """

    residual_2norm: float
    d_of_a: float
    scaled_residual: float
    orth_u1: float
    orth_u2: float
    orth_v1: float
    cs_identity_err: float


def _norm(a: np.ndarray, kind: str) -> float:
    if kind == "spectral":
        return norm_2(a)
    if kind == "frobenius":
        return norm_fro(a)
    raise ValueError(f"unknown norm {kind!r}")


def dist_from_singular_values(sigma: np.ndarray) -> float:
    """max_i min(sigma_i, |1 - sigma_i|), the distance of a matrix with
    singular values sigma to the set of partial isometries."""
    return float(np.max(np.minimum(sigma, np.abs(1.0 - sigma)), initial=0.0))


def dist_to_partial_isometry(a: np.ndarray) -> float:
    """Spectral-norm distance from A to the set of partial isometries."""
    return dist_from_singular_values(singular_values(a))


def eps_rank(a: np.ndarray, eps: float, norm: str = "spectral") -> int:
    """Smallest rank attainable within eps of A in the given norm.

    Realized by SVD truncation: in the spectral norm this counts singular
    values above eps; in the Frobenius norm it is the shortest head whose
    discarded tail has root-sum-square at most eps.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    sigma = svd_factor(a).sigma
    if norm == "spectral":
        return int(np.count_nonzero(sigma > eps))
    if norm == "frobenius":
        tails = np.sqrt(np.cumsum(sigma[::-1] ** 2))[::-1]
        keep = tails > eps
        return int(np.count_nonzero(keep))
    raise ValueError(f"unknown norm {norm!r}")


def lemma22_check(
    a: np.ndarray, *, norm: str = "spectral", rank_tol: float | None = None
) -> tuple[float, float, float]:
    """The sandwich bounding ||A - U|| by ||AA*A - A|| for exact-rank A.

    Returns (lower, middle, upper) where middle = ||A - U|| with U the
    partial-isometry factor of the canonical polar decomposition of A, and
    the outer terms are ||AA*A - A|| divided by sigma_1(1 + sigma_1) and by
    sigma_r(1 + sigma_r).  Intended for inputs whose rank r is exact
    (clean constructions); rank_tol separates the zero tail.
    """
    a = np.asarray(a, dtype=np.complex128)
    f = svd_factor(a)
    sigma = f.sigma
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0.0, 0.0, 0.0
    if rank_tol is None:
        rank_tol = 1e-8 * sigma[0]
    r = int(np.count_nonzero(sigma > rank_tol))
    defect = _norm(a @ a.conj().T @ a - a, norm)
    u = f.p[:, :r] @ f.q[:, :r].conj().T
    middle = _norm(a - u, norm)
    s1, sr = float(sigma[0]), float(sigma[r - 1])
    return defect / (s1 * (1.0 + s1)), middle, defect / (sr * (1.0 + sr))


def lemma23_bound(a: np.ndarray, eps: float, *, norm: str = "spectral") -> float:
    """Upper bound on the distance to a rank-r partial isometry, r = eps-rank.

    eps + (||AA*A - A|| + eps(1 + 3 sigma_1^2)) / (sigma_r (1 + sigma_r)).
    Raises when the eps-rank is zero or sigma_r vanishes.
    """
    a = np.asarray(a, dtype=np.complex128)
    sigma = svd_factor(a).sigma
    r = eps_rank(a, eps, norm)
    if r == 0 or sigma[r - 1] == 0.0:
        raise PreconditionError("eps-rank is zero or sigma_r vanishes")
    s1, sr = float(sigma[0]), float(sigma[r - 1])
    defect = _norm(a @ a.conj().T @ a - a, norm)
    return eps + (defect + eps * (1.0 + 3.0 * s1 * s1)) / (sr * (1.0 + sr))


def assemble_blocks(result) -> np.ndarray:
    """Stack [U1 diag(c) V1*; U2 diag(s) V1*] from a decomposition result."""
    v1h = result.v1.conj().T
    top = (result.u1 * result.c) @ v1h
    bottom = (result.u2 * result.s) @ v1h
    return np.vstack([top, bottom])


def stability_report(a: np.ndarray, result) -> StabilityReport:
    """Residual, distance, and orthogonality metrics for a decomposition of A."""
    a = np.asarray(a, dtype=np.complex128)
    ahat = assemble_blocks(result)
    if ahat.shape != a.shape:
        raise PreconditionError(
            f"reconstruction shape {ahat.shape} does not match input {a.shape}"
        )
    residual = norm_2(ahat - a)
    d = dist_to_partial_isometry(a)
    k1 = result.u1.shape[1]
    k2 = result.u2.shape[1]
    kv = result.v1.shape[1]
    orth_u1 = norm_2(result.u1.conj().T @ result.u1 - np.eye(k1)) / U_ROUNDOFF
    orth_u2 = norm_2(result.u2.conj().T @ result.u2 - np.eye(k2)) / U_ROUNDOFF
    orth_v1 = norm_2(result.v1.conj().T @ result.v1 - np.eye(kv)) / U_ROUNDOFF
    cs_err = float(np.max(np.abs(result.c**2 + result.s**2 - 1.0))) if k1 else 0.0
    return StabilityReport(
        residual_2norm=residual,
        d_of_a=d,
        scaled_residual=residual / max(d, U_ROUNDOFF),
        orth_u1=orth_u1,
        orth_u2=orth_u2,
        orth_v1=orth_v1,
        cs_identity_err=cs_err,
    )
