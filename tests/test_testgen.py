"""Generator contracts: defining identities, determinism, distributions."""

import numpy as np
import pytest

from csdk.isometry import dist_to_partial_isometry, eps_rank
from csdk.kernel import U_ROUNDOFF, norm_fro
from csdk.testgen import (
    NOISE_LEVEL,
    TestCase,
    add_noise,
    bench_sizes,
    gen_clustered,
    gen_haar_stiefel,
    gen_rank_deficient_clustered,
    gen_rank_deficient_haar,
    generate,
    nint,
)

U = U_ROUNDOFF


def test_nint_matches_half_away_from_zero():
    assert nint(22.5) == 23
    assert nint(22.4) == 22
    assert nint(42.426) == 42
    assert nint(84.85) == 85


def test_bench_sizes():
    assert bench_sizes() == [30, 42, 60, 85, 120]


class TestHaar:
    def test_orthonormal(self):
        a = gen_haar_stiefel(20, 8, seed=1)
        assert norm_fro(a.conj().T @ a - np.eye(8)) <= 50 * 8 * U

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_haar_stiefel(10, 4, seed=7), gen_haar_stiefel(10, 4, seed=7)
        )
        assert not np.array_equal(
            gen_haar_stiefel(10, 4, seed=7), gen_haar_stiefel(10, 4, seed=8)
        )

    def test_entry_magnitude_sanity(self):
        # Columns of a Haar matrix are uniform on the sphere: mean |entry|^2
        # is 1/n up to Monte-Carlo noise.
        n = 50
        a = gen_haar_stiefel(n, n, seed=2)
        col_mean = np.mean(np.abs(a) ** 2, axis=0)
        assert np.all(np.abs(col_mean - 1.0 / n) <= 5.0 / n)


class TestClustered:
    def test_orthonormal(self):
        a = gen_clustered(16, seed=3)
        assert norm_fro(a.conj().T @ a - np.eye(16)) <= 50 * 16 * U

    def test_angles_increasing_below_right_angle(self):
        # Reconstruct the angles from the construction's own randomness by
        # regenerating; spot-check the defining properties instead on the
        # singular values of the two blocks.
        n = 12
        a = gen_clustered(n, seed=4)
        c = np.linalg.svd(a[:n], compute_uv=False)
        s = np.linalg.svd(a[n:], compute_uv=False)
        theta_from_c = np.arccos(np.clip(np.sort(c), -1, 1))
        assert np.all(theta_from_c >= -1e-12)
        assert np.max(s) < 1.0

    def test_recovered_angles_are_ordered_match(self):
        from csdk.csd import CsdOptions, csd

        n = 10
        a = gen_clustered(n, seed=5)
        c_ref = np.sort(np.linalg.svd(a[:n], compute_uv=False))
        for method in ("svd", "qdwh", "zolo"):
            res = csd(a, n, CsdOptions(polar_method=method))
            np.testing.assert_allclose(np.sort(np.cos(res.theta)), c_ref, atol=1e-7)

    def test_deterministic(self):
        np.testing.assert_array_equal(gen_clustered(8, 9), gen_clustered(8, 9))


class TestRankDeficient:
    @pytest.mark.parametrize("gen", [gen_rank_deficient_haar, gen_rank_deficient_clustered])
    def test_partial_isometry_identity(self, gen):
        n = 12
        a = gen(n, seed=6)
        assert norm_fro(a @ a.conj().T @ a - a) <= 50 * n * U

    @pytest.mark.parametrize("gen", [gen_rank_deficient_haar, gen_rank_deficient_clustered])
    def test_frobenius_counts_rank(self, gen):
        n = 12
        r = nint(3 * n / 4)
        a = gen(n, seed=7)
        assert abs(norm_fro(a) ** 2 - r) <= 10 * n * U

    def test_eps_rank(self):
        n = 16
        a = gen_rank_deficient_haar(n, seed=8)
        assert eps_rank(a, 1e-8, "spectral") == nint(3 * n / 4)


class TestNoise:
    def test_zero_level_is_identity(self):
        a = gen_haar_stiefel(8, 4, seed=9)
        np.testing.assert_array_equal(add_noise(a, 0.0, seed=1), a)

    def test_noise_magnitude(self):
        n = 20
        a = gen_haar_stiefel(2 * n, n, seed=10)
        noisy = add_noise(a, NOISE_LEVEL, seed=11)
        delta = norm_fro(noisy - a)
        expected = NOISE_LEVEL * np.sqrt(2 * 2 * n * n)
        assert expected / 2 <= delta <= expected * 2

    def test_distance_reflects_noise(self):
        n = 20
        a = gen_haar_stiefel(2 * n, n, seed=12)
        d = dist_to_partial_isometry(add_noise(a, NOISE_LEVEL, seed=13))
        assert NOISE_LEVEL / 10 <= d <= NOISE_LEVEL * 10 * np.sqrt(n)


class TestCase_:
    def test_validation(self):
        with pytest.raises(ValueError):
            TestCase(5, False, 10, 1)
        with pytest.raises(ValueError):
            TestCase(1, False, 1, 1)
        with pytest.raises(ValueError):
            gen_haar_stiefel(3, 5, seed=1)
        with pytest.raises(ValueError):
            gen_clustered(1, seed=1)

    def test_labels_and_rank(self):
        assert TestCase(2, True, 8, 1).label == "2'"
        assert TestCase(3, False, 8, 1).rank == 6
        assert TestCase(1, False, 8, 1).rank == 8

    def test_generate_dispatch(self):
        for cid in (1, 2, 3, 4):
            a = generate(TestCase(cid, False, 8, seed=3))
            assert a.shape == (16, 8)
        noisy = generate(TestCase(1, True, 8, seed=3))
        clean = generate(TestCase(1, False, 8, seed=3))
        assert 0 < norm_fro(noisy - clean) < 1e-8
