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

The two polar decompositions are independent of each other, so on large
inputs, where BLAS runs one thread and a second core is free, they run
concurrently, with the same results bit for bit (`_block_polars`).

The decomposition is backward stable whenever the two polar
decompositions and the eigendecomposition are, so any backward-stable
Hermitian eigensolver serves.  Every polar route uses LAPACK's
(`symeig_direct`); the spectral divide-and-conquer solver stays
standalone in `csdk.symeig`.  The whole path runs on numpy's LAPACK.

The same theorem lets the polar route be picked on speed alone.  The
default, "svd", takes each block's polar factors from one full SVD of the
block (`polar_svd`).  It is unconditionally stable, so it needs no
thresholds, no fixed-interval variant and no QR fix, and on a few cores
it is faster than either sign iteration.

The paper's opt-in routes, "qdwh" and "zolo", run a sign iteration
instead.  There each block's singular values, from one values-only SVD,
pick its polar route and drive the iteration: the largest scales the
block, and at full rank the smallest sets the iteration's interval edge.
The polar routines take these values from the caller and compute none of
their own.  Ill-conditioned and rank-deficient blocks go through the
fixed-interval polar variant, the same sign iteration run on [EPSILON,
1].  For ill-conditioned blocks orthonormality of the resulting W is then
restored from the identity W = Q Q_H*, where Q and Q_H are the Q-factors
of A_i and of its Hermitian polar factor, which share one R-factor under
the nonnegative-diagonal QR convention.
"""

from __future__ import annotations

import contextvars
import logging
import os
import threading
from collections.abc import Mapping
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
    hermitian_part,
    norm_fro,
    qr_factor,
    singular_values,
)
from .isometry import dist_from_singular_values
from .polar import EPSILON, PolarFactors, polar_iterative, polar_modified, polar_svd
from .symeig import symeig_direct

# Not called here, but perfbench/layers.py looks these names up in this
# module; it also wraps cs_from_lambda, defined below.
from .isometry import dist_to_partial_isometry  # noqa: F401
from .kernel import svd_factor  # noqa: F401
from .symeig import symeig_interval, symeig_sdc  # noqa: F401

_log = logging.getLogger("csdk")

# Inputs farther than this from any partial isometry are refused: the
# backward-error guarantees are asymptotic in that distance.
_DISTANCE_GATE = 0.1

_R_AGREEMENT_FACTOR = 1e3

# In the rank-deficient branch, a block whose smallest *active* singular
# value sits below this gets the QR fix: without it, backward errors rotate
# that singular direction into the null space by ~u/sigma, costing
# (u/sigma)**2 of U_i orthonormality, which crosses roundoff level near 1e-7.
_RANK_DEFICIENT_FIX_THRESHOLD = 1e-7

# From this many columns up, the top block's polar may run on a worker
# thread while the calling thread runs the bottom block's; below it they
# run in turn.  In separate processes at one BLAS thread on two cores,
# running them at once cut the median time per call by 15-26% at every
# size measured, n = 120 to 240 (README).  Inputs of 120 columns, where
# perfbench's fullrank-iterative and rank-deficient workloads sit, stay in
# turn until ten pairs on those workloads decide it (ROADMAP item 2); 140
# is the smallest size measured above them.
_CONCURRENT_MIN_N = 140

# The id of the process that started the worker, the worker's one-thread
# pool, and a lock held while one call uses it.  A forked child inherits
# the pool but not its thread, and may inherit the lock held, so it starts
# its own of both.
_pool: tuple[int, ThreadPoolExecutor, threading.Lock] | None = None


def _overlap_pays(environ: Mapping[str, str], cores: int) -> bool:
    """Whether two blocks' polars running at once beat them in turn.

    Only with one BLAS thread per block and a core for each: with
    OpenBLAS's default of one thread per core the two threads' BLAS calls
    share the cores, and running the blocks at once was slower (README).
    OpenBLAS takes its thread count, once when it loads, from the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS set to a
    positive number; numpy does not report it, so the same rule is read
    here.  Any other BLAS, or an unset count, keeps the blocks in turn.
    """
    if cores < 2:
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 reports no dict
        return False
    if "openblas" not in str(blas.get("name", "")).lower():
        return False
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


_OVERLAP_PAYS = _overlap_pays(os.environ, _usable_cores())


@dataclass(frozen=True)
class CsdOptions:
    """Knobs for the decomposition.

    polar_method picks the route for the two polar decompositions and
    nothing else.  The default "svd" takes each block's polar factors
    from its SVD, the fastest route on a few cores.  The paper's routes
    "qdwh" and "zolo" run that sign iteration on every block, the
    fixed-interval variant included.  Every route eigendecomposes B with
    LAPACK's Hermitian solver.  The rank, and with it the branch, is read
    off A itself; see `csd`.
    """

    polar_method: str = "svd"

    def __post_init__(self):
        if self.polar_method not in ("svd", "qdwh", "zolo"):
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


def build_B(h1: np.ndarray, h2: np.ndarray, a: np.ndarray, mu: float) -> np.ndarray:
    """The Hermitian matrix H2 - H1 + mu (I - A*A) whose eigenvectors give V1."""
    if mu not in (0.0, 2.0):
        raise ValueError(f"mu must be 0 or 2, got {mu}")
    b = h2 - h1
    if mu != 0.0:
        n = a.shape[1]
        b = b + mu * (np.eye(n) - a.conj().T @ a)
    return hermitian_part(b)


def extract_cs(
    v1: np.ndarray, h1: np.ndarray, h2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of V1* H1 V1 and V1* H2 V1, clamped into [0, 1].

    The off-diagonal parts and the imaginary/negative round-off are
    discarded; true entries are cosines and sines, so the clamp only moves
    values by O(u).
    """
    c = np.real(np.sum(np.conj(v1) * (h1 @ v1), axis=0))
    s = np.real(np.sum(np.conj(v1) * (h2 @ v1), axis=0))
    return np.clip(c, 0.0, 1.0), np.clip(s, 0.0, 1.0)


def postprocess_trig(
    c: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Snap diagonal pairs onto the unit circle through their angle.

    theta_i = atan2(s_i, c_i); active entries are replaced by cos(theta),
    sin(theta), shrinking c^2 + s^2 - 1 to a couple of ulp.  Pairs that are
    numerically (0, 0) are rank-deficiency padding and stay zero.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(s, dtype=float)
    active = c * c + s * s >= 0.25
    theta = np.where(active, np.arctan2(s, c), 0.0)
    c_out = np.where(active, np.cos(theta), 0.0)
    s_out = np.where(active, np.sin(theta), 0.0)
    return c_out, s_out, theta


def cs_from_lambda(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover (c, s, theta) from eigenvalues lambda = sin(theta) - cos(theta)."""
    lam = np.clip(np.asarray(lam, dtype=float), -1.0, 1.0)
    theta = np.arcsin(lam / np.sqrt(2.0)) + np.pi / 4.0
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


# The polar routines the blocks call, as this module defines or imports
# them (see _own_polars).
_OWN_POLARS = {
    fn.__name__: fn
    for fn in (polar_svd, polar_iterative, polar_modified, polar_via_qr_fix)
}


def _polar_for_block(
    block: np.ndarray, opts: CsdOptions, rank: int
) -> tuple[PolarFactors, bool]:
    """Polar factors of one block of A, plus whether the QR-fix route was
    taken.  The svd route reads no singular values; the others read the
    block's, one values-only SVD, against the thresholds `csd` documents,
    and hand the largest (and, at full rank, the smallest) to the polar
    routine.  This is the only place that decides which blocks take the QR
    fix.
    """
    if opts.polar_method == "svd":
        return polar_svd(block), False
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


def _on_worker(fn, *args) -> Future | None:
    """Start fn(*args) on this process's worker thread, in a copy of the
    caller's context so that numpy's error state (np.errstate) holds there
    too.  None if another call is using the worker, so that callers on
    several threads do not queue behind one worker, or if the interpreter
    is shutting down and no pool takes work.

    Two threads that find no pool at once each start one, and the later is
    kept; the other serves its one call and its thread exits once the pool
    is collected.  The pool itself is taken without a lock, because one
    held by another thread when the process forks would hang the child.
    """
    global _pool
    pool = _pool
    if pool is None or pool[0] != os.getpid():
        worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="csdk-polar")
        pool = _pool = (os.getpid(), worker, threading.Lock())
    _, worker, busy = pool
    if not busy.acquire(blocking=False):
        return None

    def task():
        try:
            return fn(*args)
        finally:
            busy.release()

    try:
        return worker.submit(contextvars.copy_context().run, task)
    except RuntimeError:  # after interpreter shutdown has begun
        busy.release()
        return None


def _own_polars() -> bool:
    """Whether this module still calls the polar routines it imported.

    A replacement, such as a profiler's wrapper, need not be safe to run
    on two threads at once, so the blocks then run in turn.
    """
    names = globals()
    return all(names[name] is fn for name, fn in _OWN_POLARS.items())


def _block_polars(
    a: np.ndarray, m1: int, opts: CsdOptions, rank: int
) -> tuple[tuple[PolarFactors, bool], tuple[PolarFactors, bool]]:
    """`_polar_for_block` of the top and of the bottom block of A.

    The two are independent, so from _CONCURRENT_MIN_N columns up, where
    that pays (_OVERLAP_PAYS), they run at once, the top block on the
    worker thread; the results are the same bits either way.  The worker
    is always waited for, so no call's work outlives it, and if both
    blocks raise, the top block's error wins, as it does in turn.
    """
    top, bottom = a[:m1], a[m1:]
    pending = None
    if a.shape[1] >= _CONCURRENT_MIN_N and _OVERLAP_PAYS and _own_polars():
        pending = _on_worker(_polar_for_block, top, opts, rank)
    if pending is None:
        return _polar_for_block(top, opts, rank), _polar_for_block(bottom, opts, rank)
    try:
        bottom_result = _polar_for_block(bottom, opts, rank)
    finally:
        top_result = pending.result()
    return top_result, bottom_result


def _gated(a: np.ndarray, m1: int) -> tuple[np.ndarray, int]:
    """Validate A and its split at row m1; return A as complex128 and its rank.

    One values-only SVD decides both the distance gate and the rank: d(A) =
    max_i min(sigma_i, |1 - sigma_i|), and inside the gate every sigma_i lies
    within 0.1 of 0 or of 1, so r = #{sigma_i > 1/2} is unambiguous.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError("input must be a matrix")
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
    sigma = singular_values(a)
    d = dist_from_singular_values(sigma)
    if d > _DISTANCE_GATE:
        raise NotNearIsometryError(
            f"distance to the nearest partial isometry is {d:.3g} > {_DISTANCE_GATE}; "
            "the factorization contract does not cover such inputs"
        )
    return a, int(np.count_nonzero(sigma > 0.5))


def _finish(u1, u2, v1, h1, h2, rank: int, mu: float, branch: str) -> CsdResult:
    c, s, theta = postprocess_trig(*extract_cs(v1, h1, h2))
    # The eigenvalues of B ascend, but theta read off the projected
    # diagonals can swap neighbours at rounding level when angles cluster.
    order = np.argsort(theta, kind="stable")
    return CsdResult(
        u1[:, order], u2[:, order], c[order], s[order], v1[:, order],
        theta[order], rank, mu, branch,
    )


def csd(a: np.ndarray, m1: int, opts: CsdOptions = CsdOptions()) -> CsdResult:
    """CS decomposition of A = [A1; A2], A1 of m1 rows, both blocks taller
    than square.

    Inputs farther than 0.1 from every partial isometry are refused; the
    same singular values of A give its rank r = #{sigma_i > 1/2}.

    Full rank (r = n, mu = 0): B's n eigenpairs give V1.  Rank deficient
    (r < n, mu = 2): the null space is pushed to eigenvalue mu = 2 of B,
    above the eigenvalues of the r active angles, so the r smallest
    eigenpairs of B give V1, and the output is economical, k = r columns.

    On the default svd route each block's W_i and H_i come from its SVD
    on both branches; W_i has orthonormal columns, so U_i = W_i V1 does
    too.  On the qdwh and zolo routes each block's polar route is chosen
    on its own.  At full rank, a block whose sigma_n / sigma_1 is at least
    EPSILON = 1e-15 runs the plain iterative polar; one below it is
    rerouted through the fixed-interval polar plus QR fix.  Below full
    rank both blocks go through the fixed-interval polar variant, and U_i
    comes out orthonormal because its map sends every active singular
    value to 1 - O(u).  A block whose r-th singular value is below 1e-7
    additionally gets the QR fix.

    From n = 140 columns up the two blocks' polar decompositions run
    concurrently, the top block's on a worker thread, when OpenBLAS runs
    one thread (the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS that is set reads 1 when this module is imported) and
    the process may use two cores or more; with more BLAS threads the two
    would compete for the cores and run slower.  The
    result is bitwise the same, and if both blocks fail the top block's
    error is raised.  The process has one worker: a call that finds it
    busy with another call's block, or that comes during interpreter
    shutdown, runs its blocks in turn.
    """
    a, rank = _gated(a, m1)
    n = a.shape[1]
    mu = 0.0 if rank == n else 2.0
    (pf1, fix1), (pf2, fix2) = _block_polars(a, m1, opts, rank)
    v1 = symeig_direct(build_B(pf1.h, pf2.h, a, mu)).v[:, :rank]
    fixed = fix1 or fix2
    if mu == 0.0:
        branch = "ill_conditioned" if fixed else "full_rank"
    else:
        branch = "rank_deficient_ill_conditioned" if fixed else "rank_deficient"
    u1, u2 = pf1.w @ v1, pf2.w @ v1
    return _finish(u1, u2, v1, pf1.h, pf2.h, rank, mu, branch)


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
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2 != 0:
        raise DimensionError(f"expected a square even-sized matrix, got {a.shape}")
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
