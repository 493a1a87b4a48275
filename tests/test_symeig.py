"""Eigensolver contracts: splitting, recursion, direct oracle."""

import numpy as np
import pytest

from csdk.errors import ConvergenceError
from csdk.kernel import U_ROUNDOFF, hermitian_part, norm_2, norm_fro
import csdk.symeig as symeig_module
from csdk.symeig import spectral_split, symeig_direct, symeig_sdc


def rand_herm(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


class TestSpectralSplit:
    def test_two_point_spectrum(self):
        vplus, vminus, nplus = spectral_split(np.diag([-1.0, 1.0]).astype(complex), 0.0)
        assert nplus == 1
        np.testing.assert_allclose(np.abs(vplus.ravel()), [0.0, 1.0], atol=1e-14)

    def test_all_positive(self):
        vplus, vminus, nplus = spectral_split(np.eye(2, dtype=complex), 0.0)
        assert nplus == 2
        assert vminus.shape == (2, 0)

    def test_count_matches_direct_oracle(self):
        b = rand_herm(8, seed=3)
        s = float(np.median(np.real(np.diagonal(b))))
        _, _, nplus = spectral_split(b, s)
        assert nplus == int(np.sum(np.linalg.eigvalsh(b) > s))

    def test_invariants(self):
        b = rand_herm(12, seed=4)
        diag = {}
        vplus, vminus, nplus = spectral_split(b, 0.0, diag)
        n = 12
        assert diag["projector_defect"] <= 50 * n * U_ROUNDOFF
        assert diag["decoupling"] <= 50 * n * U_ROUNDOFF
        full = np.hstack([vplus, vminus])
        assert norm_fro(full.conj().T @ full - np.eye(n)) <= 50 * n * U_ROUNDOFF

    def test_split_at_eigenvalue_signals(self):
        b = np.diag([1.0, 1.0, 2.0]).astype(complex)
        with pytest.raises(ConvergenceError):
            spectral_split(b, 1.0)


class TestSymeigSdc:
    def test_diagonal_permutation(self):
        res = symeig_sdc(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(res.lam, [1.0, 2.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_identity(self):
        res = symeig_sdc(np.eye(3, dtype=complex))
        np.testing.assert_allclose(res.lam, np.ones(3))
        assert norm_fro(res.v.conj().T @ res.v - np.eye(3)) <= 50 * 3 * U_ROUNDOFF

    @pytest.mark.parametrize("n", [10, 50])
    def test_against_direct_oracle(self, n):
        b = rand_herm(n, seed=n)
        sdc = symeig_sdc(b)
        direct = symeig_direct(b)
        bound = 1e2 * n * U_ROUNDOFF * norm_2(b)
        assert np.max(np.abs(sdc.lam - direct.lam)) <= bound
        assert norm_fro(sdc.v.conj().T @ sdc.v - np.eye(n)) <= 50 * n * U_ROUNDOFF
        recon = (sdc.v * sdc.lam) @ sdc.v.conj().T
        assert norm_fro(recon - b) <= 50 * n * U_ROUNDOFF * norm_fro(b)

    def test_split_log_invariants(self):
        b = rand_herm(40, seed=17)
        log = []
        symeig_sdc(b, split_log=log)
        assert log, "expected at least one split for n=40"
        for entry in log:
            blk = entry["size"]
            assert entry["projector_defect"] <= 50 * blk * U_ROUNDOFF
            assert entry["decoupling"] <= 50 * blk * U_ROUNDOFF

    def test_eigenvalues_ascending_and_phases_normalized(self):
        res = symeig_sdc(rand_herm(20, seed=8))
        assert np.all(np.diff(res.lam) >= 0)
        idx = np.argmax(np.abs(res.v), axis=0)
        pivots = res.v[idx, np.arange(20)]
        assert np.all(np.abs(pivots.imag) <= 1e-12)
        assert np.all(pivots.real > 0)

    def test_no_split_fails_on_criterion_6_inputs(self, monkeypatch):
        # Every split's polar iteration starts from the 1e-15 floor on
        # sigma_min / sigma_max; on criterion 6's random Hermitian matrices
        # it must still converge within its six rounds at every shift.
        failures = []

        def recorded(b, s, diagnostics=None):
            try:
                return split(b, s, diagnostics)
            except ConvergenceError as exc:
                failures.append((b.shape[0], s, str(exc)))
                raise

        split = symeig_module.spectral_split
        monkeypatch.setattr(symeig_module, "spectral_split", recorded)
        sizes = [5, 10, 20, 35, 50, 64, 80, 100]
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = sizes[seed % len(sizes)]
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            symeig_sdc(hermitian_part(g))
        assert failures == []


class TestSymeigDirect:
    def test_scalar(self):
        res = symeig_direct(np.array([[5.0 + 0j]]))
        np.testing.assert_allclose(res.lam, [5.0])

    def test_exchange_matrix(self):
        res = symeig_direct(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(res.lam, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(res.v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-14)

    def test_trace_identity(self):
        b = rand_herm(15, seed=23)
        res = symeig_direct(b)
        assert abs(np.trace(b).real - np.sum(res.lam)) <= 1e2 * 15 * U_ROUNDOFF * norm_fro(b)
