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

The two polar decompositions are independent, and on the default svd
route, whose blocks read no rank, so are the distance gate and the
eigensolve at mu = 0.  `csd` has one schedule for every call: it hands
off the top block's polar, then (with a worker, on svd) the gate, then
the top half of the finish, and runs the bottom block's polar, the
eigensolve and the bottom half itself.  Where BLAS runs one thread and a
second core is free, a worker thread started for the call takes the
handed-off jobs; elsewhere each runs on the calling thread as it is
handed off, and the gate runs first.  The worker pays once its share
outlasts its fixed cost per call, so the size from which it is started
depends on the polar route's work per block: n = 90 on zolo, 100 on qdwh
and 140 on svd.
Either way the result is bitwise the same.

The decomposition is backward stable whenever the two polar
decompositions and the eigendecomposition are, so any backward-stable
Hermitian eigensolver serves.  Every polar route uses LAPACK's
(`symeig_direct`, or `symeig_hermitian` on B built exactly Hermitian);
the spectral divide-and-conquer solver stays standalone in
`csdk.symeig`.  The whole path runs on numpy's LAPACK.

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

import contextlib
import contextvars
import functools
import logging
import operator
import os
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
from .symeig import symeig_direct, symeig_hermitian

# perfbench/layers.py wraps these names in this module, but csd calls none
# of them; they go with ROADMAP item 1.
dist_to_partial_isometry = svd_factor = symeig_interval = symeig_sdc = None
extract_cs = cs_from_lambda = None

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
# p50 and p90 with the blocks at once (README).  svd met that at n = 120
# too, but in perfbench pairs on rank-deficient its latency_p50_s gained
# in fewer than nine pairs in ten, so svd keeps 140.
_CONCURRENT_MIN_N = {"svd": 140, "qdwh": 100, "zolo": 90}


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

    polar_method picks the route for the two polar decompositions.  The
    default "svd" takes each block's polar factors from its SVD, the
    fastest route on a few cores.  The paper's routes "qdwh" and "zolo"
    run that sign iteration on every block, the fixed-interval variant
    included.  The route also sets the schedule's two other choices: the
    smallest n from which a worker thread may take half of the work, and
    whether the distance gate is put off to that worker, beside the
    eigensolve, as on "svd" only (see `csd`).  Every route
    eigendecomposes B with LAPACK's Hermitian solver.  The rank, and with
    it the branch, is read off A itself.
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


def build_B(h1: np.ndarray, h2: np.ndarray, a: np.ndarray, mu: float) -> np.ndarray:
    """The Hermitian matrix H2 - H1 + mu (I - A*A) whose eigenvectors give V1."""
    if mu not in (0.0, 2.0):
        raise ValueError(f"mu must be 0 or 2, got {mu}")
    b = h2 - h1
    if mu != 0.0:
        n = a.shape[1]
        b = b + mu * (np.eye(n) - a.conj().T @ a)
    return hermitian_part(b)


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


# The polar routines the blocks call, as this module defines or imports
# them (see _own_polars).
_OWN_POLARS = {
    fn.__name__: fn
    for fn in (polar_svd, polar_iterative, polar_modified, polar_via_qr_fix)
}


def _polar_for_block(
    block: np.ndarray, opts: CsdOptions, rank: int | None
) -> tuple[PolarFactors, bool]:
    """Polar factors of one block of A, plus whether the QR-fix route was
    taken.  The svd route reads neither singular values nor the rank,
    which `csd` may not know yet there (None); the others read the
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


def _gated_rank(a: np.ndarray) -> int:
    """The distance gate and the rank of A, from one values-only SVD.

    d(A) = max_i min(sigma_i, |1 - sigma_i|), and inside the gate every
    sigma_i lies within 0.1 of 0 or of 1, so r = #{sigma_i > 1/2} is
    unambiguous.
    """
    sigma = singular_values(a)
    d = dist_from_singular_values(sigma)
    if d > _DISTANCE_GATE:
        raise NotNearIsometryError(
            f"distance to the nearest partial isometry is {d:.3g} > {_DISTANCE_GATE}; "
            "the factorization contract does not cover such inputs"
        )
    return int(np.count_nonzero(sigma > 0.5))


def _branch(mu: float, fixed: bool) -> str:
    if mu == 0.0:
        return "ill_conditioned" if fixed else "full_rank"
    return "rank_deficient_ill_conditioned" if fixed else "rank_deficient"


def _finish_half(pf: PolarFactors, v1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block's half of the finish: U_i = W_i V1 and diag(V1* H_i V1)."""
    return pf.w @ v1, _projected_diagonal(v1, pf.h)


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

    Every call runs one schedule: the top block's polar is handed off,
    then the bottom block's runs, then B is eigendecomposed, then the top
    half of the finish (U1 and diag(V1* H1 V1)) is handed off and the
    bottom half formed.  From n = 90 columns up on zolo, 100 on qdwh and
    140 on svd, where the work a second thread takes over outlasts the
    cost of a worker started for the call, a worker thread takes the
    handed-off jobs when OpenBLAS runs one thread (the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that is set
    reads 1 when this module is imported) and the process may use two
    cores or more; with more BLAS threads the two would compete for the
    cores and run slower.  Otherwise, and during interpreter shutdown,
    each handed-off job runs on the calling thread when it is handed off.
    With a worker on svd, whose blocks read no rank, the distance gate
    is handed off too, beside an eigendecomposition of B at mu = 0, which
    is redone at mu = 2 only if the rank comes back below n; everywhere
    else the gate runs first and B is eigendecomposed once, at its mu.
    The result is bitwise the same either way, and so is the error
    raised: the gate's before any block's, the top block's before the
    bottom's, and that of the mu = 0 eigensolve only at full rank.  The
    worker has exited before this returns.
    """
    _check_options(opts)
    a = _validated(a, m1)
    n = a.shape[1]
    if n >= _CONCURRENT_MIN_N[opts.polar_method] and _OVERLAP_PAYS and _own_polars():
        pool = ThreadPoolExecutor(1, thread_name_prefix="csdk-polar")
    else:
        pool = contextlib.nullcontext()
    with pool as worker:
        handoff = functools.partial(_handoff, worker, contextvars.copy_context())
        # The svd route's block polars read no rank, so there a worker can
        # take the gate later, beside the eigensolve.  Without one the gate
        # runs first, so that B is eigendecomposed once, at its mu.
        deferred = worker is not None and opts.polar_method == "svd"
        rank = None if deferred else _gated_rank(a)
        pending = handoff(_polar_for_block, a[:m1], opts, rank)
        try:
            try:
                pf2, fix2 = _polar_for_block(a[m1:], opts, rank)
            finally:
                pf1, fix1 = pending.result()
        except Exception:
            if rank is None:
                _gated_rank(a)  # its error wins over a block's
            raise
        eig = None
        if rank is None:
            # The gate's values-only SVD keeps the GIL throughout, while eigh
            # releases it, so the gate runs on the worker beside the
            # eigensolve at mu = 0, which is right at full rank.  B is built
            # exactly Hermitian first and goes straight to eigh: a numpy call
            # that waits for the GIL after the handoff waits out the whole
            # gate.
            b = build_B(pf1.h, pf2.h, a, 0.0)
            gate = handoff(_gated_rank, a)
            try:
                eig = symeig_hermitian(b)
            except Exception:
                if gate.result() == n:
                    raise
            rank = gate.result()
        mu = 0.0 if rank == n else 2.0
        if eig is None or mu != 0.0:
            eig = symeig_direct(build_B(pf1.h, pf2.h, a, mu))
        v1 = eig.v[:, :rank]
        top_half = handoff(_finish_half, pf1, v1)
        try:
            u2, s = _finish_half(pf2, v1)
        finally:
            u1, c = top_half.result()
    return _finish(u1, u2, v1, c, s, rank, mu, _branch(mu, fix1 or fix2))


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
