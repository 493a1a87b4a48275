"""Hermitian eigendecomposition by spectral divide and conquer.

The splitting step computes the unitary polar factor W of B - s*I, which
for Hermitian input is the matrix sign: (W + I)/2 is then an orthogonal
projector onto the invariant subspace of eigenvalues above s.  A pivoted
QR factorization of that projector yields orthonormal bases of the
subspace and its complement, the two compressed blocks decouple to
working precision, and recursion finishes the job.  `symeig_direct`
(LAPACK tridiagonal reduction) is both the small-block base case and the
independent oracle.  `symeig_deflating` runs it only on each cluster of
close diagonal entries of a nearly diagonal matrix: the couplings between
clusters, small against their gaps, are dropped where they weigh no more
than roundoff and rotated away to first order otherwise.  Only a matrix
that is not that close to diagonal is solved whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .kernel import U_ROUNDOFF, hermitian_part, norm_fro
from .polar import EPSILON, polar_iterative

_DIRECT_BLOCK = 4

# Indices i < j of B sorted by its diagonal d share one cluster of
# `symeig_deflating` when |b_ij| >= this times |d_i - d_j|; a smaller
# coupling is dropped or rotated away to first order.
_GAP_TOL = 1e-6

# The largest ||E||_F of the first-order rotation that `symeig_deflating`
# accepts.
_ROTATION_MAX = 1e-4


@dataclass(frozen=True)
class SymEigResult:
    """Eigendecomposition B = V diag(lam) V* with lam ascending; where
    `symeig_deflating` finds V a permutation, column j of V is column
    rows[j] of I, and rows is None otherwise."""

    v: np.ndarray
    lam: np.ndarray
    method: str
    rows: np.ndarray | None


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
    bh = hermitian_part(np.asarray(b, dtype=np.complex128))
    try:
        lam, v = np.linalg.eigh(bh)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    return SymEigResult(_phase_normalize(v), lam, "direct", None)


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


def symeig_deflating(b: np.ndarray) -> SymEigResult:
    """Eigendecomposition of an exactly Hermitian B, cluster by cluster
    where its couplings are small against the gaps of its diagonal.

    With B sorted by its diagonal d, indices i < j share one contiguous
    cluster when |b_ij| >= _GAP_TOL |d_i - d_j|, so equal diagonals join.
    Each cluster larger than 1x1 goes to `symeig_direct`, and its
    eigenvectors V_k rotate its rows and columns of B; F is what then
    couples the clusters.  When ||F||_F <= n u ||B||_F, F is dropped, a
    backward error of roundoff size, and the eigenvectors are P
    blockdiag(V_k), P undoing the sort: a permutation, returned as `rows`
    too, where every cluster is 1x1.  A heavier F is rotated away to first
    order: E_ij = F_ij / (lam_j - lam_i) is skew-Hermitian, and the
    eigenvectors are P blockdiag(V_k) (I + E + E^2/2), orthonormal up to
    ||E||^4, with a residual of (FE - EF)/2 + O(||F|| ||E||^2).  That is
    accepted only if ||F||_F ||E||_F <= n u ||B||_F, the drop's budget,
    and ||E||_F <= _ROTATION_MAX.  Refused before any solve are a cluster
    larger than n/2 and an F with ||F||_F^2 > 2 n u ||B||_F^2, which
    cannot meet the budget: the rotations keep ||F||_F, and no gap exceeds
    2 ||B||_F, so ||E||_F >= ||F||_F / (2 ||B||_F).  A B that is one
    cluster, and every refused B, goes unsorted to one `symeig_direct`.
    """
    n = b.shape[0]
    order = np.argsort(b.diagonal().real, kind="stable")
    sorted_b = b[np.ix_(order, order)]
    d = sorted_b.diagonal().real
    mag = np.abs(sorted_b)
    stops = _joined_stops(
        np.triu(mag >= _GAP_TOL * np.abs(d[:, np.newaxis] - d[np.newaxis, :]), 1)
    )
    if stops.size == 1:
        return symeig_direct(b)
    sizes = np.diff(stops, prepend=0)
    cluster = np.repeat(np.arange(stops.size), sizes)
    inside = cluster[:, np.newaxis] == cluster[np.newaxis, :]
    square = mag * mag
    del mag
    total = float(np.sum(square))
    coupling = float(np.sum(square[~inside]))
    del square
    budget = n * U_ROUNDOFF * math.sqrt(total)
    drop = math.sqrt(coupling) <= budget
    if not drop and (
        2 * sizes.max() > n or coupling > 2.0 * n * U_ROUNDOFF * total
    ):
        return symeig_direct(b)
    lam = d.copy()
    clusters = []
    for stop, size in zip(stops, sizes):
        if size > 1:
            rows = slice(stop - size, stop)
            res = symeig_direct(sorted_b[rows, rows])
            lam[rows] = res.lam
            clusters.append((rows, res.v))
    if drop:
        y = np.eye(n, dtype=np.complex128)
        method = "deflating"
    else:
        for rows, v in clusters:
            sorted_b[rows] = v.conj().T @ sorted_b[rows]
        for rows, v in clusters:
            sorted_b[:, rows] = sorted_b[:, rows] @ v
        # Within a cluster only the solve's roundoff is left.
        sorted_b[inside] = 0.0
        gap = lam[np.newaxis, :] - lam[:, np.newaxis]
        gap[inside] = 1.0
        if not np.all(np.isfinite(gap)) or np.any(gap == 0.0):
            return symeig_direct(b)
        e = sorted_b / gap
        del gap
        norm_e = norm_fro(e)
        if norm_e > _ROTATION_MAX or norm_fro(sorted_b) * norm_e > budget:
            return symeig_direct(b)
        del sorted_b
        y = e @ e
        y *= 0.5
        y += e
        del e
        y[np.diag_indices(n)] += 1.0
        method = "rotated"
    for rows, v in clusters:
        y[rows] = v @ y[rows]
    ascending = np.argsort(lam, kind="stable")
    # With no cluster rotated and F dropped, Y is I: V is a permutation.
    perm = order[ascending] if drop and not clusters else None
    return SymEigResult(
        y[np.ix_(np.argsort(order), ascending)], lam[ascending], method, perm
    )


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
    # The iteration knows no singular values of B - s*I, so it starts from
    # the lower bound EPSILON on sigma_min / sigma_max, the edge of the
    # fixed interval: its qdwh schedule, fixed before any matrix round,
    # takes ell from 0.9e-15 to 1 in 6 Halley rounds, the iteration's cap,
    # so no estimate is needed.  A shift closer than this to an eigenvalue
    # leaves that singular value short of 1 after the schedule, and
    # surfaces as ConvergenceError from the final orthonormality check.
    pf = polar_iterative(shifted, smax, EPSILON * smax, method="qdwh")
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
    return SymEigResult(_phase_normalize(v[:, order]), lam[order], "sdc", None)
