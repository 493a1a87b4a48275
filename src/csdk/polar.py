"""Polar decomposition A = W H by three interchangeable routes.

`polar_svd` is the unconditionally stable oracle.  `polar_iterative` runs
the rational sign-function iteration: the p = 1 family (`qdwh`, Halley
steps by stacked QR or by shifted Gram solves, up to six rounds) or the
high-order family (`zolo`, two rounds, order picked from the interval
edge).  The iterative routines compute no spectral facts themselves: the
caller supplies the largest singular value, which scales the input, and
`polar_iterative` also takes the smallest one (or a lower bound on it),
which sets the interval edge.  From that edge the whole run is fixed
before the first matrix round: a schedule, the tuple of per-round factors
that both the matrix iteration and its scalar shadow `eval_sign_approx`
apply.  `polar_modified` runs the same method's schedule on the fixed
interval [EPSILON, 1] instead of [sigma_min, 1]; its W factor is
deliberately not orthonormal when A has singular values below EPSILON
(they are mapped into [0, 1] rather than to 1), which is exactly what the
rank-deficient decomposition downstream needs; `polar_via_qr_fix`
restores it from the QR factors of A and H.  Both iterative routines run
one body, `_sign_polar`, and differ only in the interval edge and in
`polar_iterative`'s final orthonormality check.  `canonical_polar` is the
truncated-SVD construction whose W factor is a partial isometry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DimensionError
from .kernel import (
    DEFAULT_TOL_FACTOR,
    U_ROUNDOFF,
    SvdFactors,
    hermitian_part,
    norm_fro,
    qr_factor,
    svd_factor,
)
from .zolotarev import MAX_ORDER, SignIterationFactors, sign_iteration_factors

# perfbench/layers.py wraps this name in this module, but the polar
# routines do not call it; it goes with ROADMAP item 1.
cholesky_factor = None

# Below this interval edge the Gram matrix X*X + pole*I is too ill
# conditioned to solve with directly; use the stacked-QR form of the update.
_QR_SWITCH_ELL = 0.1

# Cap on the Halley rounds of one qdwh schedule.
_QDWH_MAX_ROUNDS = 6

# A schedule is long enough once the scalar image of its interval edge
# lies this close to 1.
_FLAT_TOL = 5.0 * U_ROUNDOFF

# Lower edge of the fixed interval [EPSILON, 1] of `polar_modified`; `csd`
# also reads a full-rank block as ill conditioned below sigma_min/sigma_max
# = EPSILON.
EPSILON = 1e-15

# No schedule is built from a lower interval edge: six Halley rounds fall
# short below about 3e-42, and the order-8 coefficients lose their
# distinct poles below about 7e-50.
_MIN_ELL = 1e-45

_R_AGREEMENT_FACTOR = 1e3

Schedule = tuple[SignIterationFactors, ...]


@dataclass(frozen=True)
class PolarFactors:
    """Factors A ~= W H with H Hermitian positive semidefinite.

    method is the route taken and iterations the number of matrix rounds
    (0 on the SVD route).
    """

    w: np.ndarray
    h: np.ndarray
    method: str
    iterations: int = 0


def _require_tall(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise DimensionError(f"polar decomposition needs rows >= cols, got {a.shape}")
    return a


def _svd_polar(f: SvdFactors, r: int) -> tuple[np.ndarray, np.ndarray]:
    """W = P_r Q_r* and H = Q_r Sigma_r Q_r* from the leading r singular
    triplets of an SVD."""
    p, q = f.p[:, :r], f.q[:, :r]
    w = p @ q.conj().T
    h = hermitian_part((q * f.sigma[:r]) @ q.conj().T)
    return w, h


def polar_svd(a: np.ndarray) -> PolarFactors:
    """Polar decomposition through the SVD: W = P Q*, H = Q Sigma Q*."""
    a = _require_tall(a)
    w, h = _svd_polar(svd_factor(a), a.shape[1])
    return PolarFactors(w, h, "svd")


def _rounds(ell: float, p: int):
    """Endless rounds of the order-p map from interval edge ell, each
    factor built once, with ell advanced through its images."""
    while True:
        fac = sign_iteration_factors(ell, p)
        yield fac
        ell = min(fac.ell_next, 1.0)


def _flat(fac: SignIterationFactors) -> bool:
    return abs(1.0 - fac.ell_next) <= _FLAT_TOL


def sign_schedule(ell: float, p: int, rounds: int) -> Schedule:
    """The first `rounds` rounds of the order-p map for interval edge ell."""
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"order p must lie in [1, {MAX_ORDER}], got {p}")
    if not 0.0 < ell <= 1.0:
        raise ValueError(f"ell must lie in (0, 1], got {ell}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    return tuple(itertools.islice(_rounds(ell, p), rounds))


def qdwh_schedule(ell: float) -> Schedule:
    """The fewest Halley (p = 1) rounds that flatten [ell, 1]; raises
    ConvergenceError, before any matrix work, if that takes more than six."""
    schedule = []
    for fac in _rounds(ell, 1):
        schedule.append(fac)
        if _flat(fac):
            return tuple(schedule)
        if len(schedule) == _QDWH_MAX_ROUNDS:
            raise ConvergenceError(
                f"Halley iteration needs more than {_QDWH_MAX_ROUNDS} "
                f"rounds from interval edge {ell:.3e}"
            )


def zolo_schedule(ell: float) -> Schedule:
    """Two rounds of the smallest order p that flattens [ell, 1] (at most
    MAX_ORDER), as built while searching for p."""
    for p in range(1, MAX_ORDER + 1):
        schedule = sign_schedule(ell, p, 2)
        if _flat(schedule[-1]):
            break
    return schedule


def _schedule(ell: float, method: str) -> Schedule:
    """The schedule that `method` runs from interval edge ell; raises
    ConvergenceError, before any matrix work, when ell is below _MIN_ELL."""
    if method not in ("qdwh", "zolo"):
        raise ValueError(f"unknown iterative polar method {method!r}")
    if ell < _MIN_ELL:
        raise ConvergenceError(
            f"interval edge {ell:.3e} is below {_MIN_ELL:.0e}; no schedule "
            "flattens it"
        )
    return qdwh_schedule(ell) if method == "qdwh" else zolo_schedule(ell)


def _apply_schedule(x: np.ndarray, schedule: Schedule) -> np.ndarray:
    """Matrix rounds x -> (x + sum_j a_j x (x*x + q_j I)^-1) / normalizer,
    one per factor of the schedule."""
    m, n = x.shape
    eye = np.eye(n, dtype=np.complex128)
    for fac in schedule:
        use_qr = fac.ell < _QR_SWITCH_ELL
        # Above the switch every shifted Gram matrix has condition number at
        # most 1 + 1/pole, so a plain LU solve is stable; X*X is shared.
        gram = None if use_qr else hermitian_part(x.conj().T @ x)
        acc = x.copy()
        for a_j, pole in zip(fac.residues, fac.poles):
            try:
                if use_qr:
                    root = math.sqrt(pole)
                    stacked = np.vstack([x, root * eye])
                    q, _ = np.linalg.qr(stacked)
                    term = (q[:m] @ q[m:].conj().T) / root
                else:
                    term = np.linalg.solve(gram + pole * eye, x.conj().T).conj().T
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"sign iteration round failed: {exc}") from exc
            acc += a_j * term
        x = acc / fac.normalizer
    return x


def _sign_polar(a: np.ndarray, smax: float, ell: float, method: str) -> PolarFactors:
    """W from the method's schedule for interval edge ell, applied to
    A / smax, and H = W*A made Hermitian: the body of both iterative
    routes."""
    schedule = _schedule(ell, method)
    w = _apply_schedule(a / smax, schedule)
    h = hermitian_part(w.conj().T @ a)
    return PolarFactors(w, h, method, len(schedule))


def polar_iterative(
    a: np.ndarray, smax: float, smin: float, *, method: str = "qdwh"
) -> PolarFactors:
    """Polar decomposition by the rational sign iteration.

    method "qdwh" runs the fewest p = 1 rounds that flatten the interval
    (at most six, error otherwise); method "zolo" runs two rounds of the
    smallest order p that does.  smax is A's largest singular value or an
    upper bound on it, and scales the input; smin is A's smallest singular
    value or a lower bound on it.  The interval edge is 0.9 * smin / smax:
    an underestimate only costs rounds, an overestimate can cost accuracy,
    which the final orthonormality check catches.  Raises ConvergenceError
    when the iteration cannot reach an orthonormal factor, or when the edge
    is too small to build a schedule from, which callers treat as an
    ill-conditioning signal.
    """
    a = _require_tall(a)
    n = a.shape[1]
    if smax == 0.0:
        raise ConvergenceError("zero matrix has no unitary polar factor")
    pf = _sign_polar(a, smax, min(0.9 * (smin / smax), 1.0), method)
    defect = norm_fro(pf.w.conj().T @ pf.w - np.eye(n))
    if defect > 10.0 * DEFAULT_TOL_FACTOR * n * U_ROUNDOFF:
        raise ConvergenceError(
            "iterated factor is not orthonormal to working precision; "
            "input is likely ill conditioned beyond the interval estimate"
        )
    return pf


def polar_modified(a: np.ndarray, *, smax: float, method: str = "qdwh") -> PolarFactors:
    """Sign iteration on the fixed interval [EPSILON, 1]: the method's
    schedule for interval edge EPSILON, applied to A / smax.

    smax is A's largest singular value: the map sends values above 1 away
    from 1, so W loses orthonormality on an unscaled A with singular values
    above 1 (a block of an input up to 0.1 from a partial isometry can have
    them up to 1.1).  Singular values of A / smax at or above EPSILON are
    mapped to 1 - O(u); smaller ones stay in [0, 1], so W is not
    orthonormal when A is nearly rank deficient, while the symmetrized W*A
    still matches the true Hermitian factor to O(u).
    """
    return _sign_polar(_require_tall(a), smax, EPSILON, method)


def polar_via_qr_fix(
    ai: np.ndarray, *, smax: float, method: str = "qdwh"
) -> tuple[PolarFactors, float]:
    """Orthonormal polar factor for an ill-conditioned block.

    Runs the fixed-interval variant (whose W is not orthonormal), then
    replaces W by Q Q_H* from the QR factorizations A_i = Q R and
    H = Q_H R_H.  Under the nonnegative-diagonal convention those two
    R-factors agree up to O(u) exactly when the swap is legitimate; their
    relative difference is returned as r_agreement, and if it exceeds
    1e3*n*u ConvergenceError is raised with it.  Which blocks come here,
    and where a failed one goes, is decided by the caller alone
    (`csdk.csd._polar_for_block`).  smax is A_i's largest singular value,
    which must be positive, and method the sign iteration of the
    fixed-interval variant.
    """
    ai = np.asarray(ai, dtype=np.complex128)
    modified = polar_modified(ai, smax=smax, method=method)
    qa = qr_factor(ai)
    qh = qr_factor(modified.h)
    denom = max(norm_fro(qa.r), np.finfo(float).tiny)
    r_agreement = norm_fro(qh.r - qa.r) / denom
    n = ai.shape[1]
    if r_agreement > _R_AGREEMENT_FACTOR * n * U_ROUNDOFF:
        raise ConvergenceError(
            f"QR fix R-factor agreement {r_agreement:.3e} exceeds "
            f"{_R_AGREEMENT_FACTOR:.0e}*n*u"
        )
    w = qa.q @ qh.q.conj().T
    return replace(modified, w=w), r_agreement


def canonical_polar(a: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical polar decomposition through the truncated SVD.

    Truncates at the numerical rank r = #{sigma_i > rank_tol} and returns
    (U, H) with U = P_r Q_r* a rank-r partial isometry and H = Q_r S_r Q_r*
    Hermitian positive semidefinite sharing its row space.
    """
    f = svd_factor(a)
    return _svd_polar(f, int(np.count_nonzero(f.sigma > rank_tol)))
