"""Distance, eps-rank, lemma bounds, and the stability report."""

import numpy as np
import pytest

from csdk.csd import CsdOptions, csd
from csdk.isometry import (
    dist_to_partial_isometry,
    eps_rank,
    lemma22_check,
    lemma23_bound,
    stability_report,
)
from csdk.kernel import U_ROUNDOFF, norm_2, svd_factor
from csdk.polar import canonical_polar
from csdk.testgen import add_noise, gen_haar_stiefel, gen_with_singular_values

U = U_ROUNDOFF
ROUTES = ("svd", "qdwh", "zolo")


class TestDistance:
    def test_exact_isometry(self):
        a = gen_with_singular_values(6, 3, [1.0, 1.0, 1.0], seed=1)
        assert dist_to_partial_isometry(a) <= 1e2 * 3 * U

    def test_every_exact_generator_class(self):
        from csdk.testgen import TestCase, generate

        n = 12
        for cid in (1, 2, 3, 4):
            a = generate(TestCase(cid, False, n, seed=5))
            assert dist_to_partial_isometry(a) <= 1e2 * n * U

    def test_formula_on_known_sigmas(self):
        a = gen_with_singular_values(6, 3, [1.0, 0.5, 0.3], seed=2)
        assert dist_to_partial_isometry(a) == pytest.approx(0.5, abs=1e-12)

    def test_matches_truncation_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        a = 0.7 * (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))) / 2
        f = svd_factor(a)
        best = np.inf
        for k in range(len(f.sigma) + 1):
            u_k = f.p[:, :k] @ f.q[:, :k].conj().T
            best = min(best, norm_2(a - u_k))
        assert dist_to_partial_isometry(a) == pytest.approx(best, abs=1e2 * U)


class TestEpsRank:
    def test_spectral_count(self):
        a = gen_with_singular_values(5, 3, [1.0, 1.0, 0.0], seed=4)
        assert eps_rank(a, 0.5, "spectral") == 2

    def test_large_eps_gives_zero(self):
        a = gen_with_singular_values(5, 3, [1.0, 0.5, 0.1], seed=5)
        assert eps_rank(a, 1.5, "spectral") == 0

    def test_matches_truncation_bruteforce(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        f = svd_factor(a)
        for eps in (0.1, 0.5, 1.0, 3.0):
            for norm, mat_norm in (("spectral", 2), ("frobenius", "fro")):
                ranks = []
                for k in range(len(f.sigma) + 1):
                    trunc = (f.p[:, :k] * f.sigma[:k]) @ f.q[:, :k].conj().T
                    if np.linalg.norm(a - trunc, mat_norm) <= eps * (1 + 1e-12):
                        ranks.append(k)
                assert eps_rank(a, eps, norm) == min(ranks)


class TestLemma22:
    def test_exact_partial_isometry(self):
        a = gen_haar_stiefel(6, 4, seed=7)
        lo, mid, hi = lemma22_check(a)
        assert max(lo, mid, hi) <= 1e2 * U * 4

    def test_diagonal_example(self):
        a = np.diag([1.1, 0.9]).astype(complex)
        lo, mid, hi = lemma22_check(a)
        assert mid == pytest.approx(0.1, abs=1e-12)
        assert lo <= mid + 1e-13 and mid <= hi + 1e-13

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    def test_sandwich_random(self, norm):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            sigma = rng.uniform(0.8, 1.2, size=4)
            a = gen_with_singular_values(7, 4, np.sort(sigma)[::-1], seed=200 + seed)
            lo, mid, hi = lemma22_check(a, norm=norm)
            assert lo <= mid + 1e-13
            assert mid <= hi + 1e-13


class TestLemma23:
    def test_exact_isometry_bound_achieved(self):
        a = gen_haar_stiefel(6, 3, seed=8)
        bound = lemma23_bound(a, 0.0)
        assert bound <= 1e2 * U
        u, _ = canonical_polar(a, 0.0)
        assert norm_2(a - u) <= bound + 1e2 * U

    def test_tiny_tail(self):
        a = np.diag([1.0, 1e-12]).astype(complex)
        bound = lemma23_bound(a, 1e-10)
        assert bound >= 1e-12

    def test_zero_rank_signals(self):
        from csdk.errors import PreconditionError

        a = np.zeros((3, 2), dtype=complex)
        with pytest.raises(PreconditionError):
            lemma23_bound(a, 1e-3)

    def test_perturbed_isometry(self):
        for seed in range(10):
            base = gen_haar_stiefel(8, 5, seed=300 + seed)
            a = add_noise(base, 1e-8, seed=400 + seed)
            eps = 1e-8 * 10 * np.sqrt(a.size)
            bound = lemma23_bound(a, eps)
            r = eps_rank(a, eps)
            u, _ = canonical_polar(a, eps)
            assert np.linalg.matrix_rank(u, 0.5) == r
            assert norm_2(a - u) <= bound + 1e-13


class TestStabilityReport:
    def test_exact_decomposition_scores_cleanly(self):
        n = 8
        a = gen_haar_stiefel(2 * n, n, seed=9)
        for method in ROUTES:
            rep = stability_report(a, csd(a, n, CsdOptions(polar_method=method)))
            assert rep.residual_2norm <= 10 * n * U
            assert max(rep.orth_u1, rep.orth_u2, rep.orth_v1) <= 10 * n

    def test_clean_pipeline_thresholds(self):
        n = 30
        a = gen_haar_stiefel(2 * n, n, seed=10)
        for method in ROUTES:
            rep = stability_report(a, csd(a, n, CsdOptions(polar_method=method)))
            assert max(rep.orth_u1, rep.orth_u2, rep.orth_v1) <= 50 * n

    def test_noisy_scaled_residual(self):
        n = 30
        a = add_noise(gen_haar_stiefel(2 * n, n, seed=11), 1e-10, seed=12)
        for method in ROUTES:
            rep = stability_report(a, csd(a, n, CsdOptions(polar_method=method)))
            assert rep.d_of_a > 1e-12
            assert rep.scaled_residual <= 10.0

    def test_all_fields_finite(self):
        n = 6
        a = gen_haar_stiefel(2 * n, n, seed=13)
        for method in ROUTES:
            rep = stability_report(a, csd(a, n, CsdOptions(polar_method=method)))
            for value in vars(rep).values():
                assert np.isfinite(value) and value >= 0.0
