"""CS decomposition of a stacked matrix with orthonormal columns, or of a
rank-deficient partial isometry, along one path for both.

Given A = [A1; A2] with m1, m2 >= n and rank r, the factorization
A1 = U1 C V1*, A2 = U2 S V1* with shared V1 and diagonal C, S is computed
from the polar decompositions A_i = W_i H_i followed by one Hermitian
eigendecomposition of B = H2 - H1 + mu (I - A*A), of which the r smallest
eigenpairs are kept.  The eigenvector basis must come from H2 - H1: the
eigenvalues sin(theta) - cos(theta) of that difference are spaced at least
as far apart as those of either H alone, so its computed eigenvectors
nearly diagonalize both H1 and H2 even when the principal angles cluster
near 0 or pi/2, where diagonalizing H1 or H2 directly is hopeless.  mu = 0
at full rank; below it mu = 2 moves the null space's eigenvalue to 2,
cleanly separated from the [-1, 1] band of the active angles.

The decomposition is backward stable whenever the two polar
decompositions and the eigendecomposition are, so any backward-stable
Hermitian eigensolver serves, and the polar route can be picked on speed
alone: the routes differ only in how each block is factored.  Each forms
G = A*A once, in its own basis; the distance gate and the rank are read
off G's Gershgorin discs, or off `eigvalsh(G)` where they do not settle
it, G gives B its mu shift (`build_B`), and `symeig_deflating` solves B
by clusters where it is nearly diagonal and whole where it is not.

The default, "svd", takes one full SVD per block, A_i = P_i Sigma_i Q_i*,
and never forms W_i = P_i Q_i*, H_i = Q_i Sigma_i Q_i* or B: it works in
Q1's basis, where H1 is diagonal.  With M = Q1* Q2, G = M Sigma2^2 M* +
Sigma1^2 and B' = Q1* B Q1 = M Sigma2 M* - Sigma1 + mu (I - G).  Q1 nearly
diagonalizes B, and the couplings of B', clean or noisy, are tiny against
the gaps of its diagonal: they are dropped where they weigh no more than
roundoff, as on most clean input, and rotated away to first order
otherwise.  The finish reads U_i = P_i Z_i and the diagonals
colsum(sigma_i |Z_i|^2) from the eigenvectors Y of B', with Z1 = Y and
Z2 = M* Y, gathering columns where Y is a permutation.  The route is
unconditionally stable, so it needs no thresholds, no fixed-interval
variant and no QR fix, and on a few cores it is faster than either sign
iteration.  The whole path runs on numpy's LAPACK.

The blocks' factorizations are independent, and `csd` has one schedule
for every call: it hands off the top block's SVD or polar, then (on svd)
the gate, then the top half of the finish, and runs the bottom block's
factorization, the eigensolve and the bottom half itself.  Where OpenBLAS
runs one thread, as read from OpenBLAS itself at each call, and a second
core is free, a worker thread started for the call takes the handed-off
jobs; elsewhere each runs on the calling thread as it is handed off.  The
worker pays once its share outlasts its fixed cost per call, so the size
from which it is started depends on the route's work per block: n = 90
on zolo, 100 on qdwh and 120 on svd.  Either way the result is bitwise
the same.

The paper's opt-in routes, "qdwh" and "zolo", run a sign iteration
instead, in A's own basis, where B = H2 - H1 + mu (I - A*A) is dense and
goes to LAPACK whole.  Each block's singular values, from one values-only
SVD of the block, pick its polar route and drive the iteration: the
largest scales the block, and at full rank the smallest sets the
iteration's interval edge.  The polar routines take these values from the
caller and compute none of their own.  Ill-conditioned and rank-deficient
blocks go through the fixed-interval polar variant, the same sign
iteration run on [EPSILON, 1].  For ill-conditioned blocks orthonormality
of the resulting W is then restored from the identity W = Q Q_H*, where Q
and Q_H are the Q-factors of A_i and of its Hermitian polar factor, which
share one R-factor under the nonnegative-diagonal QR convention.  The
spectral divide-and-conquer solver stays standalone in `csdk.symeig`.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import logging
import operator
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    NotNearIsometryError,
    PreconditionError,
)
from .kernel import (
    U_ROUNDOFF,
    SvdFactors,
    hermitian_part,
    norm_fro,
    qr_factor,
    singular_values,
    svd_factor,
)
from .isometry import dist_from_singular_values
from .polar import EPSILON, PolarFactors, polar_iterative, polar_modified, polar_svd
from .symeig import symeig_deflating

# perfbench/layers.py wraps these names in this module, but csd calls none
# of them; they go with ROADMAP item 1.
dist_to_partial_isometry = symeig_interval = symeig_sdc = symeig_direct = None
extract_cs = cs_from_lambda = None

_log = logging.getLogger("csdk")

# Inputs farther than this from any partial isometry are refused: the
# backward-error guarantees are asymptotic in that distance.
_DISTANCE_GATE = 0.1

# The gate reads the Gershgorin discs of G, A*A in the route's basis,
# whose eigenvalues are A's squared singular values.  When every disc ends
# below 0.01 = 0.1^2 or lies in [0.81, 1.21], the squares of [0.9, 1.1], A
# is inside the gate and its rank is the number of discs in that interval.
_GRAM_LOWER = 0.01
_GRAM_UPPER = (0.81, 1.21)

_R_AGREEMENT_FACTOR = 1e3

# In the rank-deficient branch, a block whose smallest *active* singular
# value sits below this gets the QR fix: without it, backward errors rotate
# that singular direction into the null space by ~u/sigma, costing
# (u/sigma)**2 of U_i orthonormality, which crosses roundoff level near 1e-7.
_RANK_DEFICIENT_FIX_THRESHOLD = 1e-7

# The routes for the two block polar decompositions, the default first.
POLAR_METHODS = ("svd", "qdwh", "zolo")

# From this many columns up, per polar route, a call may start a worker
# thread for the jobs its schedule hands off; below it those jobs run on
# the calling thread, the top block's polar included.  Overlap pays once
# each block's polar runs long enough to outweigh the fixed cost of a
# worker started per call, so the route's work per block sets the size,
# not n alone: at n = 120 a block takes about 4 ms on svd, 9-11 ms on
# qdwh and 12-21 ms on zolo.
# Each entry is the smallest n measured at which at least four in five
# separate processes, at one BLAS thread on two cores, ran faster at both
# p50 and p90 with the blocks at once (README).
_CONCURRENT_MIN_N = {"svd": 120, "qdwh": 100, "zolo": 90}


@functools.cache
def _blas_threads():
    """OpenBLAS's own thread-count getter, as numpy's LAPACK calls link
    it, or None for any other BLAS or where it cannot be looked up."""
    try:
        from numpy.linalg import _umath_linalg

        # A handle to the module also finds the symbols of its libraries.
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    # The name numpy's wheels export, then a plain OpenBLAS build's.
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.restype, getter.argtypes = ctypes.c_int, ()
            return getter
    return None


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _overlap_pays() -> bool:
    """Whether two blocks' polars running at once beat them in turn, read
    at each call: only where OpenBLAS runs one thread and the process may
    use two cores or more.  With OpenBLAS's default of one thread per core
    the two threads' BLAS calls share the cores, and running the blocks at
    once was slower (README).  Any other BLAS keeps the blocks in turn."""
    get_threads = _blas_threads()
    return get_threads is not None and get_threads() == 1 and _usable_cores() >= 2


@dataclass(frozen=True)
class CsdOptions:
    """Knobs for the decomposition.

    polar_method picks how the two blocks are factored.  The default
    "svd" works from each block's SVD, the fastest route on a few cores,
    and so in the top block's singular basis, where B is nearly diagonal
    and its eigensolve deflates.  The paper's routes "qdwh" and "zolo"
    run that sign iteration on every block, the fixed-interval variant
    included, and so work in A's own basis, where B is dense and solved
    whole.  Every route gates, shifts and eigendecomposes alike; the
    route also sets the smallest n from which a worker thread may take
    half of the work, and where the distance gate runs (see `csd`).  The
    rank, and with it the branch, is read off A itself.
    """

    polar_method: str = POLAR_METHODS[0]

    def __post_init__(self):
        if self.polar_method not in POLAR_METHODS:
            raise ValueError(f"unknown polar method {self.polar_method!r}")


@dataclass(frozen=True)
class CsdResult:
    """Factors A1 ~= U1 diag(c) V1*, A2 ~= U2 diag(s) V1*.

    c and s hold the diagonals (cosines and sines of theta after
    post-processing); theta is ascending, and the columns of u1, u2 and v1
    follow its order.  k = len(theta) equals n for the full-rank branches
    and the rank r for the economical rank-deficient output.  branch
    records the dispatch actually taken.
    """

    u1: np.ndarray
    u2: np.ndarray
    c: np.ndarray
    s: np.ndarray
    v1: np.ndarray
    theta: np.ndarray
    rank: int
    mu: float
    branch: str

    @property
    def k(self) -> int:
        return self.theta.shape[0]


def build_B(b0: np.ndarray, g: np.ndarray, mu: float) -> np.ndarray:
    """B = B0 + mu (I - G), whose eigenvectors give V1, from B0 = H2 - H1
    and G = A*A in one basis, both exactly Hermitian; so is B, since each
    entry is formed as its mirror is.  At mu = 0 B is B0 itself."""
    if mu not in (0.0, 2.0):
        raise ValueError(f"mu must be 0 or 2, got {mu}")
    if mu == 0.0:
        return b0
    b = b0 - mu * g
    b[np.diag_indices_from(b)] += mu
    return b


def _projected_diagonal(v1: np.ndarray, h: np.ndarray) -> np.ndarray:
    """diag(V1* H V1), clamped into [0, 1]: true entries are cosines or
    sines, so the clamp only moves values by O(u)."""
    return np.clip(np.real(np.sum(np.conj(v1) * (h @ v1), axis=0)), 0.0, 1.0)


def postprocess_trig(
    c: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Snap diagonal pairs onto the unit circle through their angle.

    theta_i = atan2(s_i, c_i), and the pair is replaced by cos(theta),
    sin(theta), shrinking c^2 + s^2 - 1 to a couple of ulp.
    """
    theta = np.arctan2(np.asarray(s, dtype=float), np.asarray(c, dtype=float))
    return np.cos(theta), np.sin(theta), theta


def polar_via_qr_fix(
    ai: np.ndarray, *, smax: float, method: str = "qdwh"
) -> tuple[PolarFactors, float]:
    """Orthonormal polar factor for an ill-conditioned block.

    Runs the fixed-interval variant (whose W is not orthonormal), then
    replaces W by Q Q_H* from the QR factorizations A_i = Q R and
    H = Q_H R_H.  Under the nonnegative-diagonal convention those two
    R-factors agree up to O(u) exactly when the swap is legitimate; their
    relative difference is returned as r_agreement, and if it exceeds
    1e3*n*u the routine falls back to the SVD route.  Which blocks come
    here is decided by the caller alone (`_polar_for_block`).  smax is
    A_i's largest singular value, which must be positive, and method the
    sign iteration of the fixed-interval variant.
    """
    ai = np.asarray(ai, dtype=np.complex128)
    modified = polar_modified(ai, smax=smax, method=method)
    qa = qr_factor(ai)
    qh = qr_factor(modified.h)
    denom = max(norm_fro(qa.r), np.finfo(float).tiny)
    r_agreement = norm_fro(qh.r - qa.r) / denom
    n = ai.shape[1]
    if r_agreement > _R_AGREEMENT_FACTOR * n * U_ROUNDOFF:
        _log.warning(
            "QR fix falls back to the SVD polar: R-factor agreement %.3e "
            "exceeds %.0e*n*u", r_agreement, _R_AGREEMENT_FACTOR,
        )
        return polar_svd(ai), r_agreement
    w = qa.q @ qh.q.conj().T
    return replace(modified, w=w), r_agreement


# The routines the blocks call, the svd route's block SVD among them, as
# this module defines or imports them (see _own_polars).
_OWN_POLARS = {
    fn.__name__: fn
    for fn in (
        svd_factor, polar_svd, polar_iterative, polar_modified, polar_via_qr_fix
    )
}


def _polar_for_block(
    block: np.ndarray, opts: CsdOptions, rank: int
) -> tuple[PolarFactors, bool]:
    """Polar factors of one block of A on the qdwh or zolo route, plus
    whether the QR-fix route was taken.  The block's singular values, from
    one values-only SVD, are read against the thresholds `csd` documents,
    and the largest (and, at full rank, the smallest) go to the polar
    routine.  This is the only place that decides which blocks take the QR
    fix.
    """
    sigmas = singular_values(block)
    smax, smin = float(sigmas[0]), float(sigmas[-1])
    if smax == 0.0:
        # A zero block: any orthonormal W with H = 0 is fine.
        return polar_svd(block), False
    method = opts.polar_method
    full_rank = rank == block.shape[1]
    if full_rank:
        ill = smin / smax < EPSILON
    else:
        active_min = float(sigmas[rank - 1]) if rank >= 1 else 0.0
        ill = active_min < _RANK_DEFICIENT_FIX_THRESHOLD
    if ill:
        fixed, _ = polar_via_qr_fix(block, smax=smax, method=method)
        return fixed, True
    if not full_rank:
        return polar_modified(block, smax=smax, method=method), False
    try:
        return polar_iterative(block, smax, smin, method=method), False
    except ConvergenceError as exc:
        # The iteration did not reach an orthonormal factor; the SVD route
        # is unconditionally stable.
        _log.warning("%s polar falls back to the SVD polar: %s", method, exc)
        return polar_svd(block), False


def _own_polars() -> bool:
    """Whether this module still calls the polar routines it imported.

    A replacement, such as a profiler's wrapper, need not be safe to run
    on two threads at once, so the call then runs on one.
    """
    names = globals()
    return all(names[name] is fn for name, fn in _OWN_POLARS.items())


def _check_options(opts) -> None:
    if not isinstance(opts, CsdOptions):
        raise TypeError(f"opts must be a CsdOptions, got {type(opts).__name__}")


def _validated(a: np.ndarray, m1: int) -> np.ndarray:
    """A as complex128, once its shape, its split at row m1 and its
    entries are checked."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError("input must be a matrix")
    try:
        m1 = operator.index(m1)
    except TypeError:
        raise DimensionError(f"the split m1 must be an integer, got {m1!r}") from None
    m, n = a.shape
    if n == 0:
        raise DimensionError("input must have at least one column")
    m2 = m - m1
    if m1 < n or m2 < n:
        raise DimensionError(
            f"both blocks must have at least n={n} rows, got m1={m1}, m2={m2}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def _gram_gate(g: np.ndarray) -> int:
    """The distance gate and A's rank, from G, A*A in some basis.

    When all of G's Gershgorin discs end below _GRAM_LOWER or lie in
    _GRAM_UPPER, which are disjoint, each of the two holds as many of G's
    eigenvalues, A's squared singular values, as discs, and the gate
    passes with no eigensolve.  Otherwise sigma comes from `eigvalsh(G)`,
    and d(A) = max_i min(sigma_i, |1 - sigma_i|) is read against the
    gate, inside which r = #{sigma_i > 1/2} is unambiguous.
    """
    center = g.diagonal().real
    radius = np.sum(np.abs(g), axis=1) - np.abs(center)
    upper = (center - radius >= _GRAM_UPPER[0]) & (center + radius <= _GRAM_UPPER[1])
    if np.all(upper | (center + radius <= _GRAM_LOWER)):
        return int(np.count_nonzero(upper))
    try:
        squares = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvalsh did not converge: {exc}") from exc
    sigma = np.sqrt(np.clip(squares, 0.0, None))
    d = dist_from_singular_values(sigma)
    if d > _DISTANCE_GATE:
        raise NotNearIsometryError(
            f"distance to the nearest partial isometry is {d:.3g} > {_DISTANCE_GATE}; "
            "the factorization contract does not cover such inputs"
        )
    return int(np.count_nonzero(sigma > 0.5))


def _svd_gram(x: np.ndarray, sigma1: np.ndarray) -> tuple[int, np.ndarray]:
    """The svd route's rank and G = X X* + diag(sigma1^2), exactly
    Hermitian: with X = M diag(sigma2), G is Q1* A*A Q1 up to O(u)."""
    g = hermitian_part(x @ x.conj().T)
    g[np.diag_indices_from(g)] += sigma1 * sigma1
    return _gram_gate(g), g


def _branch(mu: float, fixed: bool) -> str:
    if mu == 0.0:
        return "ill_conditioned" if fixed else "full_rank"
    return "rank_deficient_ill_conditioned" if fixed else "rank_deficient"


def _finish_half(pf: PolarFactors, v1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block's half of the finish: U_i = W_i V1 and diag(V1* H_i V1)."""
    return pf.w @ v1, _projected_diagonal(v1, pf.h)


def _identity_rows(y: np.ndarray) -> np.ndarray | None:
    """Where Y's columns are columns of the identity, as where every
    cluster of B' is 1x1, the row of each column's 1; else None."""
    if np.count_nonzero(y) == y.shape[1]:
        rows = np.argmax(y != 0, axis=0)
        if np.all(y[rows, np.arange(y.shape[1])] == 1.0):
            return rows
    return None


def _times(x: np.ndarray, y: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """X Y; with Y's `_identity_rows`, a column gather of X with the same
    entries."""
    if rows is None:
        return x @ y
    return np.ascontiguousarray(x[:, rows])


def _svd_weights(f: SvdFactors, z: np.ndarray) -> np.ndarray:
    """diag(V1* H_i V1) = colsum(sigma_i |Z_i|^2) on the svd route, from
    A_i = P_i Sigma_i Q_i* and Z_i = Q_i* V1, clamped into [0, 1] as in
    `_projected_diagonal`."""
    weights = np.sum(f.sigma[:, np.newaxis] * (z.real**2 + z.imag**2), axis=0)
    return np.clip(weights, 0.0, 1.0)


def _top_svd_half(
    f1: SvdFactors, y: np.ndarray, rows: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The top block's half of the svd route's finish, where Z1 = Y:
    V1 = Q1 Y, U1 = P1 Y and c."""
    return _times(f1.q, y, rows), _times(f1.p, y, rows), _svd_weights(f1, y)


def _finish(u1, u2, v1, c, s, rank: int, mu: float, branch: str) -> CsdResult:
    c, s, theta = postprocess_trig(c, s)
    # The eigenvalues of B ascend, but theta read off the projected
    # diagonals can swap neighbours at rounding level when angles cluster.
    order = np.argsort(theta, kind="stable")
    return CsdResult(
        u1[:, order], u2[:, order], c[order], s[order], v1[:, order],
        theta[order], rank, mu, branch,
    )


def _handoff(
    worker: ThreadPoolExecutor | None, context: contextvars.Context, fn, *args
) -> Future:
    """fn(*args) on the worker, in the caller's context so that np.errstate
    holds there too.  The worker runs one job at a time, so every job can
    enter the same copy of that context.  With no worker, or once
    interpreter shutdown has begun and the worker takes no new work, fn
    runs on this thread now, into a completed Future.
    """
    if worker is not None:
        try:
            return worker.submit(context.run, fn, *args)
        except RuntimeError:  # after interpreter shutdown has begun
            pass
    done = Future()
    try:
        done.set_result(fn(*args))
    except Exception as exc:
        done.set_exception(exc)
    return done


def _csd_polar(a: np.ndarray, m1: int, opts: CsdOptions, handoff) -> CsdResult:
    """The qdwh and zolo routes: the gate on G = A*A, the two block
    polars, B's eigendecomposition and the finish from W_i and H_i."""
    g = hermitian_part(a.conj().T @ a)
    rank = _gram_gate(g)
    pending = handoff(_polar_for_block, a[:m1], opts, rank)
    try:
        pf2, fix2 = _polar_for_block(a[m1:], opts, rank)
    finally:
        pf1, fix1 = pending.result()
    mu = 0.0 if rank == a.shape[1] else 2.0
    v1 = symeig_deflating(build_B(hermitian_part(pf2.h - pf1.h), g, mu)).v[:, :rank]
    top_half = handoff(_finish_half, pf1, v1)
    try:
        u2, s = _finish_half(pf2, v1)
    finally:
        u1, c = top_half.result()
    return _finish(u1, u2, v1, c, s, rank, mu, _branch(mu, fix1 or fix2))


def _csd_svd(a: np.ndarray, m1: int, handoff) -> CsdResult:
    """The svd route, in the top block's right singular basis Q1: the gate,
    the rank and B' = Q1* B Q1 come from the blocks' SVD factors, and no
    W_i, H_i or B is formed."""
    n = a.shape[1]
    pending = handoff(svd_factor, a[:m1])
    try:
        try:
            f2 = svd_factor(a[m1:])
        finally:
            f1 = pending.result()
    except Exception:
        _gram_gate(hermitian_part(a.conj().T @ a))  # its error wins over a block's
        raise
    # Q1* H1 Q1 = diag(sigma1) and, with M = Q1* Q2 and X = M diag(sigma2),
    # Q1* H2 Q1 = X M* and Q1* A*A Q1 = X X* + diag(sigma1^2) = G.
    m = f1.q.conj().T @ f2.q
    x = m * f2.sigma
    gate = handoff(_svd_gram, x, f1.sigma)
    b = hermitian_part(x @ m.conj().T)
    del x
    b[np.diag_indices(n)] -= f1.sigma
    rank, g = gate.result()
    mu = 0.0 if rank == n else 2.0
    b = build_B(b, g, mu)
    del g
    y = symeig_deflating(b).v[:, :rank]
    del b
    rows = _identity_rows(y)
    top_half = handoff(_top_svd_half, f1, y, rows)
    try:
        z2 = _times(m.conj().T, y, rows)
        del m
        u2, s = f2.p @ z2, _svd_weights(f2, z2)
    finally:
        v1, u1, c = top_half.result()
    return _finish(u1, u2, v1, c, s, rank, mu, _branch(mu, False))


def csd(a: np.ndarray, m1: int, opts: CsdOptions = CsdOptions()) -> CsdResult:
    """CS decomposition of A = [A1; A2], A1 of m1 rows, both blocks taller
    than square.

    Inputs farther than 0.1 from every partial isometry are refused; the
    same squared singular values of A, the eigenvalues of G = A*A, give
    its rank r = #{sigma_i > 1/2}.  Every route reads both off G and
    eigendecomposes B = H2 - H1 + mu (I - G) with `symeig_deflating`.

    Full rank (r = n, mu = 0): B's n eigenpairs give V1.  Rank deficient
    (r < n, mu = 2): the null space is pushed to eigenvalue mu = 2 of B,
    above the eigenvalues of the r active angles, so the r smallest
    eigenpairs of B give V1, and the output is economical, k = r columns.

    The default svd route works from each block's SVD A_i = P_i Sigma_i
    Q_i*, on both branches, in Q1's basis: with M = Q1* Q2, it forms G
    and B in that basis, as Q1* A*A Q1 and B' = Q1* B Q1 = M Sigma2 M* -
    Sigma1 + mu (I - G), and eigendecomposes B' cluster by cluster where
    its couplings are small against its diagonal gaps, dropping the
    couplings between clusters where they weigh no more than roundoff and
    rotating them away to first order otherwise.  From the eigenvectors Y
    of B', V1 = Q1 Y and U_i = P_i Z_i with Z1 = Y and Z2 = M* Y, so U_i
    has orthonormal columns.

    The qdwh and zolo routes work in A's own basis, where B is dense and
    goes to LAPACK whole.  Each block's polar route is chosen on its own.
    At full rank, a block whose sigma_n / sigma_1 is at least
    EPSILON = 1e-15 runs the plain iterative polar; one below it is
    rerouted through the fixed-interval polar plus QR fix.  Below full
    rank both blocks go through the fixed-interval polar variant, and U_i
    comes out orthonormal because its map sends every active singular
    value to 1 - O(u).  A block whose r-th singular value is below 1e-7
    additionally gets the QR fix.

    Every call runs one schedule.  On svd: the top block's SVD is handed
    off and the bottom block's runs, then the gate on G is handed off while
    B' is formed, B' is eigendecomposed once, at its final mu, and the top
    half of the finish (V1, U1 and c) is handed off while the bottom half
    is formed.  On qdwh and zolo the gate on G runs first; then the top
    block's polar is handed off and the bottom block's runs, B is
    eigendecomposed, and the top half of the finish (U1 and
    diag(V1* H1 V1)) is handed off while the bottom half is formed.  From
    n = 90 columns up on zolo, 100 on qdwh and 120 on svd, where the work
    a second thread takes over outlasts the cost of a worker started for
    the call, a worker thread takes the handed-off jobs when OpenBLAS runs
    one thread and the process may use two cores or more, both read at
    each call; with more BLAS threads the two would compete for the cores
    and run slower.  OpenBLAS's count is asked of OpenBLAS itself, so
    OPENBLAS_NUM_THREADS=1 and a runtime openblas_set_num_threads(1) both
    count; its default, one thread per core, keeps the blocks in turn, as
    does any other BLAS.  Otherwise, and during interpreter shutdown,
    each handed-off job runs on the calling thread when it is handed off.  The result is bitwise the same either way,
    and so is the error raised: the gate's before any block's (on svd, a
    failed block SVD runs the gate on A*A before its error is raised),
    and the top block's before the bottom's.  The worker has exited
    before this returns.
    """
    _check_options(opts)
    a = _validated(a, m1)
    n = a.shape[1]
    if n >= _CONCURRENT_MIN_N[opts.polar_method] and _overlap_pays() and _own_polars():
        pool = ThreadPoolExecutor(1, thread_name_prefix="csdk-polar")
    else:
        pool = contextlib.nullcontext()
    with pool as worker:
        handoff = functools.partial(_handoff, worker, contextvars.copy_context())
        if opts.polar_method == "svd":
            return _csd_svd(a, m1, handoff)
        return _csd_polar(a, m1, opts, handoff)


def csd_2x2(
    a: np.ndarray, opts: CsdOptions = CsdOptions()
) -> tuple[CsdResult, np.ndarray]:
    """Complete 2x2 CS decomposition of a unitary 2n x 2n matrix.

    Runs the one-sided decomposition on the left block column, then
    recovers the remaining right factor from X = -A3* U1 S + A4* U2 C,
    which equals V2 (C^2 + S^2) for exactly unitary input; the Q-factor of
    X is returned as V2.  Reconstruction of all four blocks is
    [[U1 C V1*, -U1 S V2*], [U2 S V1*, U2 C V2*]].
    """
    _check_options(opts)
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0:
        raise DimensionError(f"expected a square even-sized matrix, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    n = a.shape[0] // 2
    gate = norm_fro(a.conj().T @ a - np.eye(2 * n))
    if gate > 1e-6:
        raise PreconditionError(
            f"input is not numerically unitary (defect {gate:.3g} > 1e-6)"
        )
    result = csd(a[:, :n], n, opts)
    a3 = a[:n, n:]
    a4 = a[n:, n:]
    x = -a3.conj().T @ (result.u1 * result.s) + a4.conj().T @ (result.u2 * result.c)
    v2 = qr_factor(x).q
    return result, v2
