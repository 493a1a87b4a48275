"""Hermitian eigendecomposition by spectral divide and conquer.

The splitting step computes the unitary polar factor W of B - s*I, which
for Hermitian input is the matrix sign: (W + I)/2 is then an orthogonal
projector onto the invariant subspace of eigenvalues above s.  A pivoted
QR factorization of that projector yields orthonormal bases of the
subspace and its complement, the two compressed blocks decouple to
working precision, and recursion finishes the job.  `symeig_direct`
(LAPACK tridiagonal reduction) is both the small-block base case and the
independent oracle; `symeig_interval` restricts the computation to the
eigenpairs inside a prescribed window by splitting just outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError
from .kernel import (
    DEFAULT_TOL_FACTOR,
    U_ROUNDOFF,
    hermitian_part,
    norm_2,
    norm_fro,
)
from .polar import polar_iterative

_DIRECT_BLOCK = 4

# Lower bound on sigma_min / sigma_max handed to the polar iteration of a
# split, which knows no singular values of B - s*I.  Its scalar shadow,
# sign_iteration_factors(ell, 1), takes ell from 0.9e-15 (and from as low
# as 1e-17) to 1 in 6 Halley rounds, the iteration's cap, so no estimate
# is needed; a shift closer than this to an eigenvalue surfaces as
# ConvergenceError.
_ELL_FLOOR = 1e-15


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
    mags = np.abs(pivots)
    phases = np.where(mags > 0, pivots / np.where(mags > 0, mags, 1.0), 1.0)
    return v * np.conj(phases)[np.newaxis, :]


def symeig_direct(b: np.ndarray) -> SymEigResult:
    """Eigendecomposition via LAPACK's tridiagonal-reduction solver."""
    bh = hermitian_part(np.asarray(b, dtype=np.complex128))
    lam, v = np.linalg.eigh(bh)
    return SymEigResult(_phase_normalize(v), lam, "direct")


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


def symeig_interval(
    b: np.ndarray,
    lo: float,
    hi: float,
    *,
    margin: float = 0.1,
    tol: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of Hermitian B with eigenvalues inside [lo, hi].

    Splits the spectrum at hi + margin and lo - margin (the caller is
    responsible for placing the window so these points fall in gaps), runs
    the divide-and-conquer solver on the compressed middle block, and
    returns (vectors, values) for eigenvalues within tol of the window;
    tol defaults to 50*n*u*||B||_2.  A split point landing on an
    eigenvalue surfaces as ConvergenceError.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    bh = hermitian_part(np.asarray(b, dtype=np.complex128))
    n = bh.shape[0]
    if tol is None:
        tol = DEFAULT_TOL_FACTOR * n * U_ROUNDOFF * norm_2(bh)

    basis = np.eye(n, dtype=np.complex128)
    core = bh
    # Discard the invariant subspace above the window, then below it.
    _, vminus, nplus = spectral_split(core, hi + margin)
    if nplus > 0:
        basis = basis @ vminus
        core = hermitian_part(vminus.conj().T @ core @ vminus)
    if core.shape[0] > 0:
        vplus, _, nplus = spectral_split(core, lo - margin)
        if nplus < core.shape[0]:
            basis = basis @ vplus
            core = hermitian_part(vplus.conj().T @ core @ vplus)
    if core.shape[0] == 0:
        return np.empty((n, 0), dtype=np.complex128), np.empty(0)
    res = symeig_sdc(core)
    keep = (res.lam >= lo - tol) & (res.lam <= hi + tol)
    return _phase_normalize(basis @ res.v[:, keep]), res.lam[keep]
