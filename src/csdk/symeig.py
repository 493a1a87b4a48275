"""Hermitian eigendecomposition by spectral divide and conquer.

The splitting step computes the unitary polar factor W of B - s*I, which
for Hermitian input is the matrix sign: (W + I)/2 is then an orthogonal
projector onto the invariant subspace of eigenvalues above s.  A pivoted
QR factorization of that projector yields orthonormal bases of the
subspace and its complement, the two compressed blocks decouple to
working precision, and recursion finishes the job.  `symeig_direct`
(LAPACK tridiagonal reduction) is both the small-block base case and the
independent oracle.  `symeig_deflating` runs it only on the diagonal
blocks that a nearly diagonal matrix splits into, and where such a matrix
does not split, because its off-diagonal mass is above roundoff, on each
cluster of close diagonal entries: the couplings between clusters, small
against their gaps, are rotated away to first order.  Only a matrix that
neither splits nor is that close to diagonal is solved whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .kernel import U_ROUNDOFF, hermitian_part, norm_fro
from .polar import polar_iterative

_DIRECT_BLOCK = 4

# Lower bound on sigma_min / sigma_max handed to the polar iteration of a
# split, which knows no singular values of B - s*I.  The qdwh schedule
# built from it, fixed before any matrix round, takes ell from 0.9e-15
# (and from as low as 1e-17) to 1 in 6 Halley rounds, the iteration's cap,
# so no estimate is needed.  A shift closer than this to an eigenvalue
# leaves that singular value short of 1 after the schedule, and surfaces
# as ConvergenceError from the final orthonormality check.
_ELL_FLOOR = 1e-15

# An off-diagonal entry of B above this times ||B||_F keeps its row and
# column in one diagonal block of `symeig_deflating`.
_COUPLING_TOL = 10.0 * U_ROUNDOFF

# Where B does not split, indices i < j of B sorted by its diagonal d share
# one cluster of `_rotated_clusters` when |b_ij| >= this times |d_i - d_j|;
# a smaller coupling is rotated away to first order.
_GAP_TOL = 1e-6

# The largest ||E||_F of the first-order rotation that `_rotated_clusters`
# accepts.
_ROTATION_MAX = 1e-4


@dataclass(frozen=True)
class SymEigResult:
    """Eigendecomposition B = V diag(lam) V* with lam ascending."""

    v: np.ndarray
    lam: np.ndarray
    method: str


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    if v.size == 0:
        return v
    idx = np.argmax(np.abs(v), axis=0)
    pivots = v[idx, np.arange(v.shape[1])]
    # Each column is a unit vector, so its largest entry is at least 1/sqrt(n).
    phases = pivots / np.abs(pivots)
    return v * np.conj(phases)[np.newaxis, :]


def symeig_direct(b: np.ndarray) -> SymEigResult:
    """Eigendecomposition via LAPACK's tridiagonal-reduction solver."""
    return symeig_hermitian(hermitian_part(np.asarray(b, dtype=np.complex128)))


def symeig_hermitian(bh: np.ndarray) -> SymEigResult:
    """`symeig_direct` of a complex B that is already exactly Hermitian,
    such as `hermitian_part` returns; the same bits, with no numpy call
    before LAPACK's."""
    try:
        lam, v = np.linalg.eigh(bh)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    return SymEigResult(_phase_normalize(v), lam, "direct")


def _joined_stops(coupled: np.ndarray) -> np.ndarray:
    """Ends of the contiguous blocks in which the strictly upper triangular
    pattern `coupled` keeps each coupled pair i < j, with every index
    between them."""
    n = coupled.shape[0]
    # The last index each row is coupled to, itself if none.
    last = np.where(
        coupled.any(axis=1), n - 1 - np.argmax(coupled[:, ::-1], axis=1), np.arange(n)
    )
    return np.flatnonzero(np.maximum.accumulate(last) == np.arange(n)) + 1


def _outside_blocks(stops: np.ndarray) -> np.ndarray:
    """The entries of an n x n matrix outside its diagonal blocks that end
    at `stops`."""
    block = np.repeat(np.arange(stops.size), np.diff(stops, prepend=0))
    return block[:, np.newaxis] != block[np.newaxis, :]


def _deflation_stops(b: np.ndarray) -> np.ndarray:
    """Ends of the contiguous diagonal blocks that Hermitian B splits into.

    Indices i < j stay in one block, with every index between them, when
    |b_ij| > 10 u ||B||_F.  The split is kept only if the entries it drops
    have a Frobenius norm of at most n u ||B||_F, a backward error of
    roundoff size; otherwise B is one block.  A B whose diagonal ascends
    keeps its blocks small, since entries that couple far-apart indices are
    then rare.
    """
    n = b.shape[0]
    mag = np.abs(b)
    norm = float(np.sqrt(np.sum(mag * mag)))
    stops = _joined_stops(np.triu(mag > _COUPLING_TOL * norm, 1))
    dropped = mag[_outside_blocks(stops)]
    if np.sqrt(np.sum(dropped * dropped)) > n * U_ROUNDOFF * norm:
        return np.array([n])
    return stops


def _rotated_clusters(b: np.ndarray) -> SymEigResult | None:
    """Eigendecomposition of an exactly Hermitian B whose couplings are
    small against the gaps of its diagonal, or None where it does not hold.

    With B sorted by its diagonal d, indices i < j share one contiguous
    cluster when |b_ij| >= _GAP_TOL |d_i - d_j|, so equal diagonals join.
    Each cluster larger than 1x1 goes to `symeig_direct`, and its rows and
    columns of B are rotated by its eigenvectors V_k.  What couples the
    clusters then, F, is rotated away to first order: E_ij = F_ij /
    (lam_j - lam_i) is skew-Hermitian, and the eigenvectors are
    blockdiag(V_k) (I + E + E^2/2), orthonormal up to ||E||^4, with a
    residual of (FE - EF)/2 + O(||F|| ||E||^2).  That is accepted only if
    ||F||_F ||E||_F <= n u ||B||_F, the exact split's budget, and ||E||_F
    <= _ROTATION_MAX.  Refused early, with no solve or product, are a
    cluster larger than n/2 and an F with ||F||_F^2 > 2 n u ||B||_F^2,
    which cannot meet the budget: the rotations keep ||F||_F, and no gap
    exceeds 2 ||B||_F, so ||E||_F >= ||F||_F / (2 ||B||_F).
    """
    n = b.shape[0]
    order = np.argsort(b.diagonal().real, kind="stable")
    b = b[np.ix_(order, order)]
    d = b.diagonal().real
    mag = np.abs(b)
    stops = _joined_stops(
        np.triu(mag >= _GAP_TOL * np.abs(d[:, np.newaxis] - d[np.newaxis, :]), 1)
    )
    sizes = np.diff(stops, prepend=0)
    if 2 * sizes.max() > n:
        return None
    outside = _outside_blocks(stops)
    square = mag * mag
    del mag
    total = float(np.sum(square))
    if np.sum(square[outside]) > 2.0 * n * U_ROUNDOFF * total:
        return None
    del square
    lam = d.copy()
    clusters = []
    for stop, size in zip(stops, sizes):
        if size > 1:
            rows = slice(stop - size, stop)
            res = symeig_direct(b[rows, rows])
            lam[rows] = res.lam
            b[rows] = res.v.conj().T @ b[rows]
            clusters.append((rows, res.v))
    for rows, v in clusters:
        b[:, rows] = b[:, rows] @ v
    # Within a cluster only the solve's roundoff is left.
    b[~outside] = 0.0
    gap = lam[np.newaxis, :] - lam[:, np.newaxis]
    gap[~outside] = 1.0
    if not np.all(np.isfinite(gap)) or np.any(gap == 0.0):
        return None
    e = b / gap
    del gap
    norm_e = norm_fro(e)
    if (
        norm_e > _ROTATION_MAX
        or norm_fro(b) * norm_e > n * U_ROUNDOFF * math.sqrt(total)
    ):
        return None
    del b
    y = e @ e
    y *= 0.5
    y += e
    del e
    y[np.diag_indices(n)] += 1.0
    for rows, v in clusters:
        y[rows] = v @ y[rows]
    vectors = np.empty_like(y)
    vectors[order] = y
    del y
    ascending = np.argsort(lam, kind="stable")
    return SymEigResult(vectors[:, ascending], lam[ascending], "rotated")


def symeig_deflating(b: np.ndarray) -> SymEigResult:
    """Eigendecomposition of an exactly Hermitian B, block by block.

    B is split where `_deflation_stops` finds it decoupled; each block
    larger than 1x1 goes to `symeig_direct`, and a 1x1 block is its own
    eigenpair.  The eigenpairs are then sorted by ascending eigenvalue.
    Where B does not split, its couplings may still be small against the
    gaps of its diagonal: `_rotated_clusters` then solves its clusters and
    rotates what couples them away to first order.  Only where that fails
    too is B eigendecomposed whole by `symeig_direct`.
    """
    stops = _deflation_stops(b)
    if stops.size == 1:
        res = _rotated_clusters(b)
        return symeig_direct(b) if res is None else res
    n = b.shape[0]
    v = np.zeros((n, n), dtype=np.complex128)
    lam = np.empty(n)
    start = 0
    for stop in stops:
        if stop - start == 1:
            v[start, start] = 1.0
            lam[start] = b[start, start].real
        else:
            res = symeig_direct(b[start:stop, start:stop])
            v[start:stop, start:stop] = res.v
            lam[start:stop] = res.lam
        start = stop
    order = np.argsort(lam, kind="stable")
    return SymEigResult(v[:, order], lam[order], "deflating")


def spectral_split(
    b: np.ndarray, s: float, diagnostics: dict | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Split the spectrum of Hermitian B at the point s.

    Returns (vplus, vminus, nplus): orthonormal bases of the invariant
    subspaces for eigenvalues above and below s.  Raises ConvergenceError
    when s is too close to an eigenvalue for the polar iteration of
    B - s*I to converge.  When a dict is passed as diagnostics it receives
    the projector and decoupling defects of this split.
    """
    # Imported here, its only use, so that importing csdk loads no scipy.
    import scipy.linalg

    bh = np.asarray(b, dtype=np.complex128)
    n = bh.shape[0]
    shifted = bh - s * np.eye(n)
    # B - s*I is Hermitian, so its 1-norm equals its infinity-norm and
    # either bound caps its largest singular value.
    smax = min(norm_fro(shifted), float(np.linalg.norm(shifted, 1)))
    pf = polar_iterative(
        shifted, smax, _ELL_FLOOR * smax, method="qdwh", hermitian=True
    )
    proj = hermitian_part(0.5 * (pf.w + np.eye(n)))
    tr = float(np.trace(proj).real)
    nplus = int(round(tr))
    if abs(tr - nplus) > 0.1:
        raise ConvergenceError(
            f"projector trace {tr:.3f} is far from an integer; split at {s} unreliable"
        )
    q, _, _ = scipy.linalg.qr(proj, pivoting=True)
    vplus = q[:, :nplus]
    vminus = q[:, nplus:]
    if diagnostics is not None:
        nb = norm_fro(bh)
        diagnostics["projector_defect"] = norm_fro(proj @ proj - proj)
        diagnostics["decoupling"] = (
            norm_fro(vminus.conj().T @ bh @ vplus) / nb if nb > 0 else 0.0
        )
        diagnostics["size"] = n
    return vplus, vminus, nplus


def _shift_candidates(b: np.ndarray) -> list[float]:
    d = np.real(np.diagonal(b))
    med = float(np.median(d))
    mean = float(np.mean(d))
    cands = [med]
    if abs(mean - med) > 1e-12 * max(1.0, abs(med)):
        cands.append(mean)
    return cands


def _sdc_recurse(b, depth, depth_cap, split_log):
    n = b.shape[0]
    if n <= _DIRECT_BLOCK or depth >= depth_cap:
        res = symeig_direct(b)
        return res.v, res.lam
    for s in _shift_candidates(b):
        diag = None if split_log is None else {}
        try:
            vplus, vminus, nplus = spectral_split(b, s, diag)
        except ConvergenceError:
            continue
        if nplus == 0 or nplus == n:
            continue
        if split_log is not None:
            split_log.append(diag)
        bplus = hermitian_part(vplus.conj().T @ b @ vplus)
        bminus = hermitian_part(vminus.conj().T @ b @ vminus)
        v1, l1 = _sdc_recurse(bminus, depth + 1, depth_cap, split_log)
        v2, l2 = _sdc_recurse(bplus, depth + 1, depth_cap, split_log)
        v = np.hstack([vminus @ v1, vplus @ v2])
        lam = np.concatenate([l1, l2])
        return v, lam
    res = symeig_direct(b)
    return res.v, res.lam


def symeig_sdc(b: np.ndarray, *, split_log: list | None = None) -> SymEigResult:
    """Full eigendecomposition by recursive spectral splitting.

    Shifts are the median of the diagonal, retried once with the mean; a
    block whose splits keep failing (clustered or degenerate spectrum)
    falls back to the direct solver, as do blocks of size <= 4.  Pass a
    list as split_log to collect per-split projector/decoupling defects.
    """
    bh = hermitian_part(np.asarray(b, dtype=np.complex128))
    n = bh.shape[0]
    depth_cap = 2 * max(1, math.ceil(math.log2(max(n, 2)))) + 8
    v, lam = _sdc_recurse(bh, 0, depth_cap, split_log)
    order = np.argsort(lam, kind="stable")
    return SymEigResult(_phase_normalize(v[:, order]), lam[order], "sdc")
