"""Kernel factorization contracts: QR phase convention, SVD, determinism."""

import numpy as np
import pytest

from csdk.errors import DimensionError
from csdk.kernel import (
    U_ROUNDOFF,
    as_matrix,
    norm_fro,
    qr_factor,
    svd_factor,
)

RNG = np.random.default_rng(1234)


def crandn(m, n, rng=RNG):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def mgs_qr(a):
    """Modified Gram-Schmidt oracle; R diagonal positive by construction."""
    a = a.astype(complex).copy()
    m, n = a.shape
    q = np.zeros((m, n), dtype=complex)
    r = np.zeros((n, n), dtype=complex)
    for j in range(n):
        v = a[:, j].copy()
        for i in range(j):
            r[i, j] = q[:, i].conj() @ v
            v -= r[i, j] * q[:, i]
        r[j, j] = np.linalg.norm(v)
        q[:, j] = v / r[j, j]
    return q, r


class TestQr:
    def test_identity(self):
        f = qr_factor(np.eye(3, dtype=complex))
        np.testing.assert_array_equal(f.q, np.eye(3))
        np.testing.assert_array_equal(f.r, np.eye(3))

    def test_phase_convention_forced(self):
        f = qr_factor(np.array([[-2.0]], dtype=complex))
        assert f.q[0, 0] == -1.0
        assert f.r[0, 0] == 2.0

    def test_against_gram_schmidt_oracle(self):
        a = crandn(5, 3)
        f = qr_factor(a)
        q_ref, r_ref = mgs_qr(a)
        # Nonnegative-diagonal thin QR is unique, so both routes must agree.
        np.testing.assert_allclose(f.q, q_ref, atol=1e-12)
        np.testing.assert_allclose(f.r, r_ref, atol=1e-12)

    def test_diag_exactly_real_nonnegative(self):
        for seed in range(5):
            a = crandn(6, 4, np.random.default_rng(seed))
            d = np.diagonal(qr_factor(a).r)
            assert np.all(d.imag == 0.0)
            assert np.all(d.real >= 0.0)

    def test_diag_stored_as_exact_moduli(self):
        # Rotating the phases of R's rows leaves its diagonal within
        # rounding of the moduli of LAPACK's; it is stored as exactly
        # those moduli, real and unrounded.
        for seed in range(5):
            a = crandn(6, 4, np.random.default_rng(seed))
            d = np.diagonal(qr_factor(a).r)
            np.testing.assert_array_equal(d, np.abs(np.diagonal(np.linalg.qr(a)[1])))

    def test_roundtrip_and_orthogonality(self):
        a = crandn(8, 5)
        f = qr_factor(a)
        assert norm_fro(a - f.q @ f.r) / norm_fro(a) <= 1e3 * U_ROUNDOFF
        assert norm_fro(f.q.conj().T @ f.q - np.eye(5)) <= 50 * 5 * U_ROUNDOFF
        assert np.all(np.triu(f.r) == f.r)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            qr_factor(crandn(2, 4))

    def test_deterministic(self):
        a = crandn(6, 3)
        f1, f2 = qr_factor(a), qr_factor(a)
        np.testing.assert_array_equal(f1.q, f2.q)
        np.testing.assert_array_equal(f1.r, f2.r)


class TestSvd:
    def test_diagonal(self):
        f = svd_factor(np.diag([3.0, 2.0, 1.0]).astype(complex))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0])

    def test_zero(self):
        f = svd_factor(np.zeros((4, 2), dtype=complex))
        np.testing.assert_array_equal(f.sigma, [0.0, 0.0])

    def test_against_gram_eigenvalue_oracle(self):
        a = crandn(6, 4)
        f = svd_factor(a)
        recon = (f.p * f.sigma) @ f.q.conj().T
        assert norm_fro(recon - a) <= 1e3 * U_ROUNDOFF * norm_fro(a)
        gram_eigs = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
        np.testing.assert_allclose(
            f.sigma, np.sqrt(np.maximum(gram_eigs, 0.0)), rtol=1e-7
        )

    def test_nonincreasing(self):
        f = svd_factor(crandn(7, 7))
        assert np.all(np.diff(f.sigma) <= 0)

    def test_deterministic(self):
        a = crandn(5, 4)
        f1, f2 = svd_factor(a), svd_factor(a)
        np.testing.assert_array_equal(f1.p, f2.p)
        np.testing.assert_array_equal(f1.sigma, f2.sigma)


class TestAsMatrix:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 1.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])
