"""Correctness checks for one csd result, computed apart from csdk.

Everything here uses numpy and scipy directly: the distance d(A) from
numpy's singular values, the block singular values, and LAPACK's own CS
decomposition (`scipy.linalg.cossin`) of a unitary completion of A.  The
bounds on residual, orthogonality and c^2 + s^2 are those of the package's
acceptance criteria; the other tolerances are derived in the docstrings
from quantities measured here, plus a rounding allowance of 50 n u for
the oracle's own LAPACK computations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

U = 2.0**-53  # unit roundoff of IEEE double
# Rounding allowance, in units of n u, for numpy/scipy reference values.
ORACLE_SLACK = 50.0


@dataclass(frozen=True)
class Oracle:
    """Facts about one input, computed once, outside any timed region."""

    d: float  # spectral distance to the nearest partial isometry
    sig1: np.ndarray  # singular values of A1, descending
    sig2: np.ndarray  # singular values of A2, descending
    cossin_theta: np.ndarray | None  # ascending; full-rank inputs only
    completion_gap: float  # ||Q1 - A||_2 for the completion's first n columns


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str


def _norm2(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, 2)) if x.size else 0.0


def _orth_defect(x: np.ndarray) -> float:
    """||X*X - I||_2, absolute."""
    return _norm2(x.conj().T @ x - np.eye(x.shape[1]))


def unitary_completion(a: np.ndarray) -> np.ndarray:
    """A unitary m x m matrix whose first n columns are A orthonormalized.

    Q-factor of [A, G] with G a fixed Gaussian block and the R diagonal
    made nonnegative, so that Q1 = A R11^-1 with R11 ~ I.
    """
    m, n = a.shape
    rng = np.random.default_rng(0)
    g = rng.standard_normal((m, m - n)) + 1j * rng.standard_normal((m, m - n))
    q, r = np.linalg.qr(np.hstack([a, g]))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def make_oracle(a: np.ndarray, m1: int, full_rank: bool) -> Oracle:
    sigma = np.linalg.svd(a, compute_uv=False)
    d = float(np.max(np.minimum(sigma, np.abs(1.0 - sigma))))
    sig1 = np.linalg.svd(a[:m1], compute_uv=False)
    sig2 = np.linalg.svd(a[m1:], compute_uv=False)
    theta, gap = None, 0.0
    if full_rank:
        n = a.shape[1]
        q = unitary_completion(a)
        _, theta, _ = scipy.linalg.cossin(q, p=m1, q=n, separate=True)
        theta = np.sort(theta)
        gap = _norm2(q[:, :n] - a)
    return Oracle(d, sig1, sig2, theta, gap)


def check(case, oracle: Oracle, res) -> tuple[list[Violation], float]:
    """Violations found in result `res` for input `case`, and the angle
    tolerance that later results for the same input are held to.

    res needs u1, u2, c, s, v1 and theta.  The checks:

    rank         k = len(theta) equals the rank the input was built with.
    residual     ||Ahat - A||_2 <= 50 n u (clean) or 10 d(A) (noisy).
    orthonormal  ||X*X - I||_2 <= 50 n u for X = U1, U2, V1 (clean only).
    theta_order  theta lies in [0, pi/2] and ascends up to the angle
                 tolerance below: neighbours closer than the error bound
                 of the result cannot be ordered more finely than it.
    cs_identity  |c^2 + s^2 - 1| <= 100 u.
    weyl         c and s, each sorted down, match the top-k singular
                 values of A1 and A2 within  w = res + eU + eV + eU eV +
                 50 n u  (Weyl's theorem: U1 C V1* is within res of A1 and
                 its singular values within eU + eV + eU eV of c, where
                 eX = ||X*X - I||_2 and eU is the larger of U1's and U2's).
    angles       clean classes 2 and 4: theta matches the constructed
                 angles within  pi (w + 50 n u), since |dtheta| <=
                 (pi/2)(|dc| + |ds|) and the built A is within O(n u)
                 of the exact product.
    cossin       full rank: theta matches LAPACK's CSD of the unitary
                 completion Q within  pi (w + ||Q1 - A||_2 + 50 n u).
    """
    a = case.a
    n = a.shape[1]
    m1 = case.m1
    u1, u2, v1 = (np.asarray(x) for x in (res.u1, res.u2, res.v1))
    c, s, theta = (np.asarray(x, dtype=float) for x in (res.c, res.s, res.theta))
    k = theta.shape[0]
    shapes_ok = (
        u1.shape == (m1, k)
        and u2.shape == (a.shape[0] - m1, k)
        and v1.shape == (n, k)
        and c.shape == s.shape == (k,)
    )
    if not shapes_ok:
        shapes = [x.shape for x in (u1, u2, v1, c, s, theta)]
        return [Violation("shape", f"inconsistent factor shapes {shapes}")], 0.0

    out: list[Violation] = []

    def need(name: str, ok: bool, detail: str) -> None:
        if not ok:
            out.append(Violation(name, detail))

    clean = case.noise == 0.0
    slack = ORACLE_SLACK * n * U

    need("rank", k == case.rank, f"k={k}, built with rank {case.rank}")

    v1h = v1.conj().T
    ahat = np.vstack([(u1 * c) @ v1h, (u2 * s) @ v1h])
    resid = _norm2(ahat - a)
    bound = 50.0 * n * U if clean else 10.0 * oracle.d
    need("residual", resid <= bound, f"||Ahat - A||_2 = {resid:.3g} > {bound:.3g}")

    e_u1, e_u2, e_v = _orth_defect(u1), _orth_defect(u2), _orth_defect(v1)
    if clean:
        worst = max(e_u1, e_u2, e_v) / U
        need("orthonormal", worst <= 50.0 * n, f"{worst:.3g} ulp > {50 * n} ulp")

    cs_err = float(np.max(np.abs(c * c + s * s - 1.0))) if k else 0.0
    need("cs_identity", cs_err <= 100.0 * U, f"|c^2+s^2-1| = {cs_err:.3g} > 100u")

    weyl = resid + max(e_u1, e_u2) + e_v + max(e_u1, e_u2) * e_v + slack
    if k != case.rank:
        need("weyl", False, f"{k} values against {case.rank} singular values")
    else:
        dc = float(np.max(np.abs(np.sort(c)[::-1] - oracle.sig1[:k]), initial=0.0))
        ds = float(np.max(np.abs(np.sort(s)[::-1] - oracle.sig2[:k]), initial=0.0))
        worst = max(dc, ds)
        need("weyl", worst <= weyl, f"sorted c/s off by {worst:.3g} > {weyl:.3g}")

    theta_tol = np.pi * (weyl + slack)
    descent = float(-np.min(np.diff(theta), initial=0.0))
    in_range = k == 0 or (theta.min() >= 0.0 and theta.max() <= np.pi / 2)
    need("theta_order", in_range and descent <= theta_tol,
         f"theta leaves [0, pi/2] or descends by {descent:.3g} > {theta_tol:.3g}")
    if clean and case.angles is not None:
        need("angles", _angles_match(theta, case.angles, theta_tol),
             f"theta differs from the constructed angles by more than {theta_tol:.3g}")
    if oracle.cossin_theta is not None:
        tol = np.pi * (weyl + oracle.completion_gap + slack)
        need("cossin", _angles_match(theta, oracle.cossin_theta, tol),
             f"theta differs from scipy.linalg.cossin by more than {tol:.3g}")
        theta_tol = max(theta_tol, tol)
    return out, theta_tol


def _angles_match(theta: np.ndarray, ref: np.ndarray, tol: float) -> bool:
    return theta.shape == ref.shape and bool(np.all(np.abs(theta - ref) <= tol))
