"""Dense complex matrix primitives.

Everything downstream works on plain ``numpy.ndarray`` matrices of
``complex128`` in row-major (C) order; that convention is fixed package-wide.
This module wraps numpy's LAPACK-backed factorizations with the conventions
the rest of the package relies on, most importantly a QR factorization whose
R-factor has an exactly real, nonnegative diagonal (which makes the
factorization unique and the Q-factor of a Gaussian matrix Haar distributed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError

# Unit roundoff of IEEE double precision.
U_ROUNDOFF = 2.0**-53

# Default c in the c*n*u tolerance family used throughout.
DEFAULT_TOL_FACTOR = 50.0


def as_matrix(data) -> np.ndarray:
    """Validate external data as a finite 2-d complex128 matrix.

    Used at I/O boundaries; raises ``ValueError`` on non-2d input or
    non-finite entries.
    """
    a = np.asarray(data, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A*)/2."""
    return 0.5 * (a + a.conj().T)


def norm_fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def norm_2(a: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class QrFactors:
    """Thin QR factorization A = Q R with diag(R) real and nonnegative."""

    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD A = P diag(sigma) Q* with sigma nonincreasing."""

    p: np.ndarray
    sigma: np.ndarray
    q: np.ndarray


def qr_factor(a: np.ndarray) -> QrFactors:
    """Thin QR factorization with the sign convention diag(R) >= 0.

    Householder QR leaves the phases of the R diagonal arbitrary; here the
    columns of Q and rows of R are rotated by unit-modulus factors so that
    the diagonal of R is exactly real and nonnegative.  Requires m >= n.
    """
    a = np.asarray(a, dtype=np.complex128)
    m, n = a.shape
    if m < n:
        raise DimensionError(f"qr_factor needs rows >= cols, got {m}x{n}")
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    mag = np.abs(d)
    phase = np.ones(n, dtype=np.complex128)
    nz = mag > 0
    phase[nz] = d[nz] / mag[nz]
    q = q * phase[np.newaxis, :]
    r = r * np.conj(phase)[:, np.newaxis]
    # Store the diagonal exactly real (the scaled value only rounds to it).
    idx = np.arange(n)
    r[idx, idx] = mag
    return QrFactors(q, r)


def svd_factor(a: np.ndarray) -> SvdFactors:
    """Thin SVD of any-shape A; singular values sorted nonincreasing."""
    a = np.asarray(a, dtype=np.complex128)
    try:
        p, sigma, qh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdFactors(p, sigma, qh.conj().T)


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of any-shape A, nonincreasing, without the vectors."""
    a = np.asarray(a, dtype=np.complex128)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc

