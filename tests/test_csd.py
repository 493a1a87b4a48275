"""End-to-end decomposition contracts: dispatch, the three branches,
post-processing, the structural invariants, and the factorizations each
route runs."""

import importlib
import logging
import operator
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdk.polar
from csdk.csd import (
    POLAR_METHODS,
    CsdOptions,
    _projected_diagonal,
    build_B,
    csd,
    csd_2x2,
    polar_via_qr_fix,
    postprocess_trig,
)
from csdk.errors import (
    ConvergenceError,
    DimensionError,
    NotNearIsometryError,
    PreconditionError,
)
from csdk.isometry import (
    assemble_2x2,
    assemble_blocks,
    dist_to_partial_isometry,
    stability_report,
    stack_cs,
)
from csdk.kernel import U_ROUNDOFF, norm_2, norm_fro, singular_values
from csdk.polar import polar_modified, polar_svd
from csdk.symeig import _deflation_stops, symeig_deflating, symeig_direct
from csdk.testgen import (
    TestCase,
    add_noise,
    gen_clustered,
    gen_haar_stiefel,
    gen_rank_deficient_clustered,
    gen_rank_deficient_haar,
    gen_with_singular_values,
    generate,
    nint,
)

U = U_ROUNDOFF
# The package attribute csdk.csd is the function; this is the module.
csdk_csd = importlib.import_module("csdk.csd")
# Tests that would otherwise run only the default route loop over all of
# them, so the opt-in iterative routes keep their coverage.
ROUTES = ("svd", "qdwh", "zolo")


def clustered_three_angle_stack():
    """6x3 stack of the two Hermitian factors built from three clustered
    angles and a fixed rational orthogonal basis."""
    theta = np.array([1e-8, 2e-8, 3e-8])
    v1 = np.array([[2.0, -1.0, 2.0], [2.0, 2.0, -1.0], [1.0, -2.0, -2.0]]) / 3.0
    h1 = (v1 * np.cos(theta)) @ v1.T
    h2 = (v1 * np.sin(theta)) @ v1.T
    return np.vstack([h1, h2]).astype(complex), theta, v1


class TestCsdDispatch:
    def test_identity_over_zero(self):
        n = 4
        a = np.vstack([np.eye(n), np.zeros((n, n))]).astype(complex)
        for method in ROUTES:
            res = csd(a, n, CsdOptions(polar_method=method))
            np.testing.assert_allclose(res.c, np.ones(n))
            np.testing.assert_allclose(res.s, np.zeros(n))
            np.testing.assert_allclose(res.theta, np.zeros(n))
            assert res.branch == "full_rank"
            assert res.mu == 0.0

    def test_balanced_stack(self):
        n = 3
        a = np.vstack([np.eye(n), np.eye(n)]).astype(complex) / np.sqrt(2)
        for method in ROUTES:
            res = csd(a, n, CsdOptions(polar_method=method))
            np.testing.assert_allclose(res.theta, np.full(n, np.pi / 4), atol=1e-14)
            np.testing.assert_allclose(res.c, np.full(n, 1 / np.sqrt(2)), atol=1e-14)
            rep = stability_report(a, res)
            assert rep.residual_2norm <= 50 * n * U

    def test_three_clustered_angles_recovered(self):
        a, theta, _ = clustered_three_angle_stack()
        for method in ROUTES:
            res = csd(a, 3, CsdOptions(polar_method=method))
            np.testing.assert_allclose(res.theta, theta, atol=1e-15)
            assert norm_2(assemble_blocks(res) - a) <= 1e-14

    def test_rank_deficient_dispatch(self):
        n = 16
        a = gen_rank_deficient_haar(n, seed=2)
        for method in ROUTES:
            res = csd(a, n, CsdOptions(polar_method=method))
            assert res.branch in ("rank_deficient", "rank_deficient_ill_conditioned")
            assert res.k == nint(3 * n / 4) == res.rank
            assert res.mu == 2.0
            assert np.max(np.abs(res.c**2 + res.s**2 - 1.0)) <= 1e-14
            if method == "svd":
                # The svd route never takes the QR fix.
                assert res.branch == "rank_deficient"

    def test_shape_validation(self):
        a = gen_haar_stiefel(8, 3, seed=1)
        with pytest.raises(DimensionError):
            csd(a, 2)  # top block shorter than n
        with pytest.raises(DimensionError):
            csd(a, 6)  # bottom block shorter than n

    def test_split_must_be_an_integer(self):
        a = gen_haar_stiefel(8, 3, seed=1)
        for m1 in (4.0, "4", None):
            with pytest.raises(DimensionError, match="integer"):
                csd(a, m1)
        for method in ROUTES:
            opts = CsdOptions(polar_method=method)
            plain, numpy_int = csd(a, 4, opts), csd(a, np.int64(4), opts)
            for field in ("u1", "u2", "v1", "c", "s", "theta"):
                np.testing.assert_array_equal(
                    getattr(numpy_int, field), getattr(plain, field), err_msg=field
                )

    def test_distance_gate(self):
        rng = np.random.default_rng(0)
        far = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
        # Rank 3 with active singular values 1.5: distance 0.5.
        far_deficient = 1.5 * gen_rank_deficient_haar(4, seed=1)
        for a in (far, far_deficient):
            with pytest.raises(NotNearIsometryError):
                csd(a, 4)

    def test_nonfinite_rejected(self):
        a = np.vstack([np.eye(2), np.eye(2)]).astype(complex) / np.sqrt(2)
        a[0, 0] = np.nan
        deficient = gen_rank_deficient_haar(4, seed=1)
        deficient[0, 0] = np.inf
        for bad, m1 in ((a, 2), (deficient, 4)):
            with pytest.raises(ValueError):
                csd(bad, m1)

    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    def test_unequal_partitions(self, method):
        m1, m2, n = 20, 9, 8
        a = gen_haar_stiefel(m1 + m2, n, seed=5)
        res = csd(a, m1, CsdOptions(polar_method=method))
        assert res.u1.shape == (m1, n) and res.u2.shape == (m2, n)
        rep = stability_report(a, res)
        assert rep.residual_2norm <= 50 * n * U
        assert max(rep.orth_u1, rep.orth_u2, rep.orth_v1) <= 50 * n

    def test_unequal_partition_rank_deficient(self):
        m1, m2, n, r = 11, 7, 6, 4
        x = gen_haar_stiefel(m1 + m2, r, seed=9)
        y = gen_haar_stiefel(n, r, seed=10)
        a = x @ y.conj().T
        for method in ROUTES:
            res = csd(a, m1, CsdOptions(polar_method=method))
            assert res.k == r
            rep = stability_report(a, res)
            assert rep.residual_2norm <= 50 * n * U

    def test_convergence_failure_falls_back_loudly(self, monkeypatch, caplog):
        # A block whose iteration fails, or whose round LAPACK refuses, goes
        # to the SVD polar, and the switch is logged with its reason.  B's
        # eigensolve has no fallback: its LAPACK failure is raised typed.
        n = 6
        a = gen_haar_stiefel(2 * n, n, seed=3)
        opts = CsdOptions(polar_method="qdwh")
        for target, name, raised in (
            (csdk_csd, "polar_iterative", ConvergenceError),
            (np.linalg, "solve", np.linalg.LinAlgError),
            (np.linalg, "eigh", np.linalg.LinAlgError),
        ):

            def fail(*args, raised=raised, **kwargs):
                raise raised("forced")

            caplog.clear()
            with monkeypatch.context() as patch, caplog.at_level(
                logging.WARNING, logger="csdk"
            ):
                patch.setattr(target, name, fail)
                if name == "eigh":
                    with pytest.raises(ConvergenceError, match="forced"):
                        csd(a, n, opts)
                    continue
                res = csd(a, n, opts)
            assert stability_report(a, res).residual_2norm <= 50 * n * U, name
            fallbacks = caplog.text.count("falls back to the SVD polar: ")
            assert fallbacks == caplog.text.count("forced") == 2, name

    def test_options_validation(self):
        with pytest.raises(ValueError):
            CsdOptions(polar_method="cayley")
        # An opts that is not a CsdOptions is refused before any work, so
        # ahead of the shape check and of csd_2x2's unitarity gate.
        with pytest.raises(TypeError, match="CsdOptions"):
            csd(np.zeros((1, 1)), 2, "qdwh")
        with pytest.raises(TypeError, match="CsdOptions"):
            csd_2x2(np.ones((2, 2)), "qdwh")

    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    def test_fixed_interval_runs_the_routes_iteration(self, monkeypatch, method):
        # polar_method picks the sign iteration of the fixed-interval
        # variant too: on qdwh every factor built is a p = 1 Halley factor,
        # and each block reports the route that actually ran.
        n = 12
        a = gen_rank_deficient_haar(n, seed=2)
        orders, routes = [], []
        build, modified = csdk.polar.sign_iteration_factors, csdk_csd.polar_modified

        def built(ell, p):
            orders.append(p)
            return build(ell, p)

        def ran(*args, **kwargs):
            pf = modified(*args, **kwargs)
            routes.append(pf.method)
            return pf

        monkeypatch.setattr(csdk.polar, "sign_iteration_factors", built)
        monkeypatch.setattr(csdk_csd, "polar_modified", ran)
        csd(a, n, CsdOptions(polar_method=method))
        assert routes == [method, method]
        if method == "qdwh":
            assert orders and set(orders) == {1}
        else:
            assert max(orders) == 8


class TestNoiseScaleSweep:
    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @pytest.mark.parametrize("class_id", [1, 2, 3, 4])
    def test_inside_the_gate_meets_the_bounds(self, class_id, method):
        # Spectral-norm noise and uniform scaling move each testgen class
        # off the partial isometries; every input inside the gate must meet
        # the residual and orthogonality bounds, and every other is refused.
        n = 16
        clean = generate(TestCase(class_id, False, n, 1))
        rng = np.random.default_rng(class_id)
        failures, inside = [], 0
        for noise in (0.0, 1e-8, 1e-6, 1e-4, 1e-2, 5e-2):
            g = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
            for scale in (0.95, 1.0, 1.05, 1.09):
                a = scale * clean + noise * g / norm_2(g)
                if dist_to_partial_isometry(a) > 0.1:
                    with pytest.raises(NotNearIsometryError):
                        csd(a, n, CsdOptions(polar_method=method))
                    continue
                inside += 1
                rep = stability_report(a, csd(a, n, CsdOptions(polar_method=method)))
                orth = max(rep.orth_u1, rep.orth_u2, rep.orth_v1)
                if rep.residual_2norm > max(50 * n * U, 10 * rep.d_of_a) or orth > 50 * n:
                    failures.append((noise, scale, rep.scaled_residual, orth))
        assert inside == 23  # scale 1.09 with noise 5e-2 lies outside
        assert not failures


class TestBuildB:
    def test_mu_zero_is_plain_difference(self):
        rng = np.random.default_rng(5)
        h1 = rng.standard_normal((3, 3))
        h1 = (h1 + h1.T) / 2
        h2 = rng.standard_normal((3, 3))
        h2 = (h2 + h2.T) / 2
        a = np.zeros((6, 3))
        np.testing.assert_array_equal(build_B(h1, h2, a, 0.0), h2 - h1)

    def test_equal_factors_give_zero(self):
        h = np.eye(3)
        a = np.vstack([np.eye(3), np.zeros((3, 3))])
        np.testing.assert_array_equal(build_B(h, h, a, 0.0), np.zeros((3, 3)))

    def test_mu_two_shifts_null_space(self):
        n, seed = 10, 7
        a = gen_rank_deficient_haar(n, seed)
        r = nint(3 * n / 4)
        h1 = polar_svd(a[:n]).h
        h2 = polar_svd(a[n:]).h
        b = build_B(h1, h2, a, 2.0)
        lam = np.sort(symeig_direct(b).lam)
        assert np.all(np.abs(lam[:r]) <= 1.0 + 1e2 * U)
        np.testing.assert_allclose(lam[r:], np.full(n - r, 2.0), atol=1e2 * U)

    def test_rank_deficient_shifted_difference(self):
        # The shifted difference of the two Hermitian polar factors of a
        # rank-deficient isometry, from the fixed-interval polar, has
        # exactly r eigenvalues in [-1, 1] and the rest at 2.
        n = 20
        r = nint(3 * n / 4)
        a = gen_rank_deficient_haar(n, seed=6)
        h1 = polar_modified(a[:n], smax=singular_values(a[:n])[0]).h
        h2 = polar_modified(a[n:], smax=singular_values(a[n:])[0]).h
        lam = symeig_direct(build_B(h1, h2, a, 2.0)).lam
        assert np.count_nonzero(np.abs(lam) <= 1.0 + 1e-10) == r
        np.testing.assert_allclose(lam[r:], np.full(n - r, 2.0), atol=1e2 * U)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            build_B(np.eye(2), np.eye(2), np.eye(2), 1.0)


class TestExtractCs:
    # csd reads C and S as the diagonals of V1* H1 V1 and V1* H2 V1.
    def test_identity_basis_reads_diagonal(self):
        h1 = np.diag([0.6, 0.8]).astype(complex)
        h2 = np.diag([0.8, 0.6]).astype(complex)
        v1 = np.eye(2, dtype=complex)
        c, s = _projected_diagonal(v1, h1), _projected_diagonal(v1, h2)
        np.testing.assert_allclose(c, [0.6, 0.8])
        np.testing.assert_allclose(s, [0.8, 0.6])

    def test_difference_basis_diagonalizes_h2_and_h1_basis_does_not(self):
        a, _, _ = clustered_three_angle_stack()
        h1 = np.asarray(a[:3])
        h2 = np.asarray(a[3:])
        vgood = symeig_direct(h2 - h1).v
        vbad = symeig_direct(h1).v
        off_good = vgood.conj().T @ h2 @ vgood
        off_bad = vbad.conj().T @ h2 @ vbad
        off_good -= np.diag(np.diagonal(off_good))
        off_bad -= np.diag(np.diagonal(off_bad))
        assert np.max(np.abs(off_good)) <= 1e-15
        assert np.max(np.abs(off_bad)) >= 1e-10

    def test_constructed_factors_recovered(self):
        n = 6
        rng = np.random.default_rng(11)
        theta = np.sort(rng.uniform(0.1, 1.4, n))
        v1 = gen_haar_stiefel(n, n, seed=12)
        h1 = (v1 * np.cos(theta)) @ v1.conj().T
        h2 = (v1 * np.sin(theta)) @ v1.conj().T
        c, s = _projected_diagonal(v1, h1), _projected_diagonal(v1, h2)
        np.testing.assert_allclose(c, np.cos(theta), atol=1e2 * U)
        np.testing.assert_allclose(s, np.sin(theta), atol=1e2 * U)

    def test_clamped_into_unit_interval(self):
        h1 = np.diag([1.0 + 5e-16, -1e-17]).astype(complex)
        c = _projected_diagonal(np.eye(2, dtype=complex), h1)
        assert np.all(c >= 0.0) and np.all(c <= 1.0)


class TestPostprocessTrig:
    def test_balanced_pair_unchanged(self):
        c, s, theta = postprocess_trig(
            np.array([1 / np.sqrt(2)]), np.array([1 / np.sqrt(2)])
        )
        assert theta[0] == pytest.approx(np.pi / 4, abs=1e-16)
        assert c[0] == pytest.approx(1 / np.sqrt(2), abs=2 * U)

    def test_right_angle(self):
        c, s, theta = postprocess_trig(np.array([0.0]), np.array([1.0]))
        assert theta[0] == pytest.approx(np.pi / 2)
        assert c[0] == pytest.approx(0.0, abs=1e-16)

    def test_reduces_circle_defect(self):
        c_in = np.array([0.6 + 1e-9])
        s_in = np.array([0.8 - 1e-9])
        c, s, theta = postprocess_trig(c_in, s_in)
        assert abs(c[0] ** 2 + s[0] ** 2 - 1.0) <= 2 * U
        assert abs(theta[0] - np.arctan(0.8 / 0.6)) <= 1e-8


class TestPolarViaQrFix:
    def test_tiny_singular_value(self):
        a = np.diag([1.0, 1e-16]).astype(complex)
        pf, r_agree = polar_via_qr_fix(a, smax=1.0)
        np.testing.assert_allclose(np.abs(np.diagonal(pf.w)), [1.0, 1.0], atol=1e2 * U)
        assert norm_fro(pf.w - np.eye(2)) <= 1e2 * U
        assert r_agree <= 1e2 * U

    def test_clustered_block_residual(self):
        # Seed 7 yields sigma_min/sigma_max ~ 2e-16 in the bottom block.
        n = 30
        a = gen_clustered(n, seed=7)
        a2 = a[n:]
        sig = np.linalg.svd(a2, compute_uv=False)
        assert sig[-1] / sig[0] < 1e-7
        pf, _ = polar_via_qr_fix(a2, smax=sig[0])
        assert norm_fro(pf.w @ pf.h - a2) <= 50 * n * U
        assert norm_fro(pf.w.conj().T @ pf.w - np.eye(n)) <= 50 * n * U

    def test_rejected_agreement_falls_back_loudly(self, monkeypatch, caplog):
        # An R-factor agreement above the bound switches to the SVD polar,
        # and the switch is logged with its reason.
        monkeypatch.setattr(csdk_csd, "_R_AGREEMENT_FACTOR", -1.0)
        a = np.diag([1.0, 1e-16]).astype(complex)
        with caplog.at_level(logging.WARNING, logger="csdk"):
            pf, _ = polar_via_qr_fix(a, smax=1.0)
        assert pf.method == "svd"
        assert "R-factor agreement" in caplog.text


def _qr_fix_repros():
    """Inputs inside the gate whose blocks take the QR fix although their
    sigma_min / sigma_max is far above 1e-7."""
    rng = np.random.default_rng(13)
    g = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    cases = [pytest.param(0.05 * g / norm_2(g), id="rank0")]
    n, r = 8, 6
    theta = np.pi / 2 - np.geomspace(1e-9, 1e-8, r)
    c = np.concatenate([np.cos(theta), np.zeros(n - r)])
    s = np.concatenate([np.sin(theta), np.zeros(n - r)])
    base = stack_cs(*(gen_haar_stiefel(n, n, seed=k) for k in (51, 52, 53)), c, s)
    for noise in (1e-12, 1e-10):
        g = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
        cases.append(pytest.param(base + noise * g / norm_2(g), id=f"rank6+{noise:.0e}"))
    return cases


class TestQrFixChosenByCaller:
    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    @pytest.mark.parametrize("a", _qr_fix_repros())
    def test_small_active_sigma_decomposes(self, a, method):
        # The rank-deficient branch sends a block to the QR fix on its
        # absolute r-th singular value; the QR fix must not refuse it on
        # its ratio sigma_min / sigma_max.
        n = a.shape[1]
        res = csd(a, n, CsdOptions(polar_method=method))
        rep = stability_report(a, res)
        assert rep.residual_2norm <= max(50 * n * U, 10 * rep.d_of_a)
        assert max(rep.orth_u1, rep.orth_u2, rep.orth_v1) <= 50 * n


class TestRankDeficient:
    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @pytest.mark.parametrize(
        "gen,noise,scale",
        [
            (gen, noise, 1.0)
            for gen in (gen_rank_deficient_haar, gen_rank_deficient_clustered)
            for noise in (1e-8, 1e-6, 1e-4)
        ]
        + [(gen_rank_deficient_clustered, 0.0, scale) for scale in (1.03, 1.05)],
        ids=lambda x: getattr(x, "__name__", None),
    )
    def test_rank_inside_the_gate(self, method, gen, noise, scale):
        # Spectral-norm noise up to 1e-4 and uniform scales up to 1.05 stay
        # well inside the distance gate, so the rank must be r = nint(3n/4).
        n = 16
        rng = np.random.default_rng(8)
        g = rng.standard_normal((2 * n, n)) + 1j * rng.standard_normal((2 * n, n))
        a = scale * gen(n, seed=3) + noise * g / norm_2(g)
        res = csd(a, n, CsdOptions(polar_method=method))
        assert res.k == res.rank == nint(3 * n / 4)
        rep = stability_report(a, res)
        assert rep.residual_2norm <= max(50 * n * U, 10 * rep.d_of_a)

    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [30, 40, 60])
    @pytest.mark.parametrize("class_id", [3, 4])
    def test_scaled_above_one_stays_orthonormal(self, class_id, n, seed, method):
        # Scaled by 1.09 the input is still inside the gate (d = 0.09), but
        # its blocks have singular values above 1, which the fixed-interval
        # map on [epsilon, 1] only sends to 1 after scaling by sigma_max.
        a = 1.09 * generate(TestCase(class_id, False, n, seed))
        res = csd(a, n, CsdOptions(polar_method=method))
        rep = stability_report(a, res)
        assert rep.orth_u1 <= 50 * n
        assert rep.orth_u2 <= 50 * n
        assert rep.orth_v1 <= 50 * n

    def test_tiny_example(self):
        a = np.zeros((4, 2), dtype=complex)
        a[0, 0] = 1.0
        for method in ROUTES:
            res = csd(a, 2, CsdOptions(polar_method=method))
            assert res.k == 1
            np.testing.assert_allclose(res.c, [1.0])
            np.testing.assert_allclose(res.s, [0.0])

    def test_metrics_thresholds(self):
        n = 20
        a = gen_rank_deficient_haar(n, seed=5)
        for method in ROUTES:
            res = csd(a, n, CsdOptions(polar_method=method))
            rep = stability_report(a, res)
            assert rep.residual_2norm <= 50 * n * U
            assert rep.orth_u1 <= 50 * n
            assert rep.orth_u2 <= 50 * n
            assert rep.orth_v1 <= 50 * n

    def test_angles_near_quarter_pi(self):
        # Null space (mu group) must separate from active angles even when
        # sin(theta) - cos(theta) clusters at zero.
        n, r = 20, 15
        rng = np.random.default_rng(44)
        theta = np.pi / 4 + 1e-8 * np.sort(rng.standard_normal(n))
        c, s = np.cos(theta), np.sin(theta)
        drop = rng.choice(n, size=n - r, replace=False)
        c[drop] = 0.0
        s[drop] = 0.0
        u1 = gen_haar_stiefel(n, n, seed=45)
        u2 = gen_haar_stiefel(n, n, seed=46)
        v1 = gen_haar_stiefel(n, n, seed=47)
        a = stack_cs(u1, u2, v1, c, s)
        for method in ROUTES:
            res = csd(a, n, CsdOptions(polar_method=method))
            assert res.k == r
            rep = stability_report(a, res)
            assert rep.residual_2norm <= 50 * n * U
            assert rep.orth_u1 <= 50 * n and rep.orth_u2 <= 50 * n
        # Verify the claimed spectral gap between the active band and mu.
        h1 = polar_svd(a[:n]).h
        h2 = polar_svd(a[n:]).h
        lam = symeig_direct(build_B(h1, h2, a, 2.0)).lam
        active, shifted = lam[:r], lam[r:]
        assert np.min(shifted) - np.max(np.abs(active)) >= 0.9


class TestCsd2x2:
    def test_identity(self):
        n = 3
        for method in ROUTES:
            res, v2 = csd_2x2(np.eye(2 * n, dtype=complex), CsdOptions(polar_method=method))
            np.testing.assert_allclose(res.c, np.ones(n))
            np.testing.assert_allclose(res.s, np.zeros(n), atol=1e-15)
            assert norm_fro(v2.conj().T @ v2 - np.eye(n)) <= 50 * n * U

    def test_known_rotation_angles(self):
        theta = np.array([0.3, 0.7])
        c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
        a = np.block([[c, -s], [s, c]]).astype(complex)
        for method in ROUTES:
            res, v2 = csd_2x2(a, CsdOptions(polar_method=method))
            np.testing.assert_allclose(res.theta, theta, atol=1e-14)
            assert norm_2(assemble_2x2(res, v2) - a) <= 50 * 2 * U

    def test_haar_unitary(self):
        n = 20
        a = gen_haar_stiefel(2 * n, 2 * n, seed=14)
        for method in ROUTES:
            res, v2 = csd_2x2(a, CsdOptions(polar_method=method))
            assert norm_2(assemble_2x2(res, v2) - a) <= 50 * n * U
            assert norm_2(v2.conj().T @ v2 - np.eye(n)) <= 50 * n * U

    def test_non_unitary_rejected(self):
        with pytest.raises(PreconditionError):
            csd_2x2(np.ones((4, 4), dtype=complex))

    def test_defect_near_1e_5_rejected(self):
        # A unitary scaled so that ||A*A - I||_F reads 1e-5, above the
        # 1e-6 gate.
        n = 8
        q = gen_haar_stiefel(2 * n, 2 * n, seed=15)
        a = np.sqrt(1.0 + 1e-5 / np.sqrt(2 * n)) * q
        assert abs(norm_fro(a.conj().T @ a - np.eye(2 * n)) - 1e-5) <= 1e-9
        with pytest.raises(PreconditionError, match="not numerically unitary"):
            csd_2x2(a)

    def test_odd_size_rejected(self):
        with pytest.raises(DimensionError):
            csd_2x2(np.eye(5, dtype=complex))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("row, col", [(0, 1), (6, 2), (0, 5), (6, 7)])
    def test_non_finite_rejected_in_every_quadrant(self, value, row, col):
        a = gen_haar_stiefel(8, 8, seed=3)
        a[row, col] = value
        with pytest.raises(ValueError, match="non-finite"):
            csd_2x2(a)


class TestInvariants:
    @pytest.mark.parametrize(
        "method,scale",
        [
            pytest.param(m, scale, id=m if scale == 1.0 else f"{m}-x{scale}")
            for scale in (1.0, 0.97, 1.01, 1.05)
            for m in ("svd", "qdwh", "zolo")
        ],
    )
    def test_reconstruction_and_orthogonality(self, method, scale):
        # Scaled inputs are full rank at distance |1 - scale| from the
        # Stiefel manifold, inside the gate.  At n = 30, ||A||_F^2 misses n
        # by more than 1/2 for every scale, so a Frobenius rank count fails.
        n = 12 if scale == 1.0 else 30
        a = scale * gen_haar_stiefel(2 * n, n, seed=71)
        res = csd(a, n, CsdOptions(polar_method=method))
        assert res.branch == "full_rank" and res.k == n
        rep = stability_report(a, res)
        assert rep.residual_2norm <= max(50 * n * U, 10 * rep.d_of_a)
        assert rep.orth_u1 <= 50 * n
        assert rep.orth_u2 <= 50 * n
        assert rep.orth_v1 <= 50 * n

    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("class_id", [2, 4])
    def test_angles_ascending(self, class_id, seed, noisy, method):
        # Clustered angles: theta read off the projected diagonals must
        # still come out sorted, with no rounding-level descents.
        n = 30
        a = generate(TestCase(class_id, noisy, n, seed))
        res = csd(a, n, CsdOptions(polar_method=method))
        assert np.all(np.diff(res.theta) >= 0)

    def test_swap_symmetry(self):
        n = 10
        a = gen_haar_stiefel(2 * n, n, seed=77)
        swapped = np.vstack([a[n:], a[:n]])
        for method in ROUTES:
            opts = CsdOptions(polar_method=method)
            res = csd(a, n, opts)
            res_swap = csd(swapped, n, opts)
            expected = np.pi / 2 - res.theta[::-1]
            np.testing.assert_allclose(res_swap.theta, expected, atol=10 * n * U)

    def test_gap_domination(self):
        a = gen_clustered(12, seed=3)
        for method in ROUTES:
            th = csd(a, 12, CsdOptions(polar_method=method)).theta
            g = np.sin(th) - np.cos(th)
            dc = np.abs(np.subtract.outer(np.cos(th), np.cos(th)))
            ds = np.abs(np.subtract.outer(np.sin(th), np.sin(th)))
            dg = np.abs(np.subtract.outer(g, g))
            assert np.all(dc <= dg + 1e-14)
            assert np.all(ds <= dg + 1e-14)


def _unitary_completion(a: np.ndarray) -> np.ndarray:
    """[A, A_perp] for A with orthonormal columns."""
    q, _ = np.linalg.qr(a, mode="complete")
    return np.hstack([a, q[:, a.shape[1] :]])


# Angles that put a block's singular values at the extremes the polar
# routes tell apart: exactly 0 (a zero row of C or S), near the 1e-15
# ill-conditioning threshold and near the 1e-7 QR-fix threshold.
_EDGE_ANGLES = (0.0, 5e-16, 1e-15, 2e-15, 5e-8, 1e-7, 2e-7, np.pi / 4, np.pi / 2)


@st.composite
def _stack_specs(draw, deficient):
    """(m1, m2, theta, dropped, seed) for `_built_stack`: tall blocks of
    unequal heights, angles drawn mostly from _EDGE_ANGLES, so they repeat,
    and with deficient, 1..n-1 dropped columns."""
    n = draw(st.integers(2 if deficient else 1, 8))
    m1, m2 = (n + draw(st.integers(0, 6)) for _ in range(2))
    angle = st.one_of(
        st.sampled_from(_EDGE_ANGLES),
        st.sampled_from(_EDGE_ANGLES).map(lambda t: np.pi / 2 - t),
        st.floats(0.0, np.pi / 2),
    )
    theta = draw(st.lists(angle, min_size=n, max_size=n))
    if draw(st.booleans()):
        # A zero top or bottom block.
        theta = [draw(st.sampled_from((0.0, np.pi / 2)))] * n
    dropped = ()
    if deficient:
        dropped = tuple(
            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
        )
    return m1, m2, tuple(theta), dropped, draw(st.integers(0, 2**16))


def _built_stack(m1, m2, theta, dropped, seed):
    """[U1 C V1*; U2 S V1*] with Haar factors, C = cos(theta) exactly 0 at
    pi/2, and both diagonals zeroed at the dropped indices."""
    n = len(theta)
    theta = np.asarray(theta)
    c = np.where(theta == np.pi / 2, 0.0, np.cos(theta))
    s = np.sin(theta)
    c[list(dropped)] = 0.0
    s[list(dropped)] = 0.0
    u1 = gen_haar_stiefel(m1, n, seed)
    u2 = gen_haar_stiefel(m2, n, seed + 1)
    v1 = gen_haar_stiefel(n, n, seed + 2)
    return stack_cs(u1, u2, v1, c, s)


class TestAgainstLapackCsd:
    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @pytest.mark.parametrize(
        "m1,m2,n,kind,seed",
        [
            # Unequal splits both ways, n = 1 and square blocks, real and
            # complex input, and one clustered-angle input.
            (1, 1, 1, "complex", 1),
            (1, 4, 1, "real", 2),
            (3, 2, 1, "complex", 3),
            (9, 6, 5, "complex", 4),
            (6, 11, 4, "real", 5),
            (20, 9, 8, "complex", 6),
            (13, 24, 12, "real", 7),
            (24, 24, 24, "complex", 8),
            (30, 24, 24, "real", 9),
            (16, 16, 16, "clustered", 5),
        ],
    )
    def test_theta_matches_cossin(self, m1, m2, n, kind, seed, method):
        # LAPACK's CS decomposition ({z,d}orcsd via scipy's cossin) of a
        # unitary completion is an independent oracle for the angles.
        if kind == "clustered":
            a = gen_clustered(n, seed)
        elif kind == "real":
            rng = np.random.default_rng(seed)
            a, _ = np.linalg.qr(rng.standard_normal((m1 + m2, n)))
        else:
            a = gen_haar_stiefel(m1 + m2, n, seed)
        _, theta, _ = scipy.linalg.cossin(
            _unitary_completion(a), p=m1, q=n, separate=True
        )
        res = csd(a, m1, CsdOptions(polar_method=method))
        assert res.k == n
        assert np.max(np.abs(res.theta - np.sort(theta))) <= 50 * n * U

    # 45 drawn specs plus the pinned examples: at most 50 per route.
    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @settings(max_examples=45, derandomize=True, deadline=None, database=None)
    @given(spec=_stack_specs(deficient=False))
    @example(spec=(5, 3, (np.pi / 2,) * 3, (), 1))  # zero top block
    @example(spec=(4, 7, (0.0, 1e-15, 0.3, 1.2), (), 2))  # sigma_min near 1e-15
    @example(spec=(6, 6, (1e-7, 1e-7, 0.5, 0.5, 0.5), (), 3))  # near 1e-7, repeats
    def test_built_stacks_match_cossin(self, method, spec):
        # Unequal tall splits, zero blocks, repeated angles and block
        # sigma_min near the 1e-15 and 1e-7 thresholds.
        m1, _, theta, _, _ = spec
        a = _built_stack(*spec)
        n = a.shape[1]
        _, ref, _ = scipy.linalg.cossin(
            _unitary_completion(a), p=m1, q=n, separate=True
        )
        res = csd(a, m1, CsdOptions(polar_method=method))
        assert res.k == n
        assert np.max(np.abs(res.theta - np.sort(ref))) <= 50 * n * U
        assert np.max(np.abs(res.theta - np.sort(theta))) <= 50 * n * U

    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @settings(max_examples=45, derandomize=True, deadline=None, database=None)
    @given(spec=_stack_specs(deficient=True))
    @example(spec=(4, 4, (np.pi / 2,) * 4, (0,), 1))  # zero top block
    @example(spec=(7, 5, (1e-7, 1e-7, 0.4, 0.0, 1e-15), (3,), 2))
    def test_rank_deficient_matches_built_angles(self, method, spec):
        # The rank-deficient branch has no LAPACK oracle; its active angles
        # are checked against those the input was built from.
        m1, _, theta, dropped, _ = spec
        a = _built_stack(*spec)
        n = a.shape[1]
        active = np.delete(np.asarray(theta), dropped)
        res = csd(a, m1, CsdOptions(polar_method=method))
        assert res.k == res.rank == len(active)
        assert np.max(np.abs(res.theta - np.sort(active))) <= 50 * n * U


def _count_calls(monkeypatch, modules, attrs) -> dict:
    """Count the calls to each of attrs made from code in the modules."""
    counts = dict.fromkeys(attrs, 0)

    def counted(fn, attr):
        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    # The package attribute csdk.csd is the function; import the module.
    for name in modules:
        module = importlib.import_module(name)
        for attr in counts:
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counted(getattr(module, attr), attr))
    return counts


def _eigh_sizes(monkeypatch) -> list[int]:
    """The order of each matrix that numpy's eigh is called on."""
    sizes = []
    eigh = np.linalg.eigh

    def recording(b):
        sizes.append(b.shape[0])
        return eigh(b)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def _count_factorizations(monkeypatch) -> dict:
    """Count the SVDs and QRs run from csdk.csd and csdk.polar."""
    return _count_calls(
        monkeypatch,
        ("csdk.csd", "csdk.polar"),
        ("singular_values", "svd_factor", "qr_factor"),
    )


class TestFactorizations:
    @pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
    def test_svd_route_runs_gate_and_block_svds_only(self, monkeypatch, deficient):
        # One SVD per block; the gate reads the blocks' factors, so no
        # values-only SVD of A runs, and no QR.
        n = 12
        if deficient:
            a = gen_rank_deficient_haar(n, seed=2)
        else:
            a = gen_haar_stiefel(2 * n, n, seed=2)
        counts = _count_factorizations(monkeypatch)
        csd(a, n, CsdOptions(polar_method="svd"))
        assert counts == {"singular_values": 0, "svd_factor": 2, "qr_factor": 0}

    @pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
    def test_default_route_runs_no_sign_iteration(self, monkeypatch, deficient):
        # Default options take the svd route: neither iterative polar runs
        # and no sign-iteration factor is built, on either branch.
        assert CsdOptions().polar_method == "svd"
        n = 12
        if deficient:
            a = gen_rank_deficient_haar(n, seed=2)
        else:
            a = gen_haar_stiefel(2 * n, n, seed=2)
        polars = _count_calls(
            monkeypatch, ("csdk.csd",), ("polar_iterative", "polar_modified")
        )
        factors = _count_calls(monkeypatch, ("csdk.polar",), ("sign_iteration_factors",))
        res = csd(a, n)
        assert polars == {"polar_iterative": 0, "polar_modified": 0}
        assert factors == {"sign_iteration_factors": 0}
        assert res.branch == ("rank_deficient" if deficient else "full_rank")

    def test_qdwh_route_takes_values_only_block_svds(self, monkeypatch):
        n = 12
        a = generate(TestCase(1, False, n, 1))
        counts = _count_factorizations(monkeypatch)
        csd(a, n, CsdOptions(polar_method="qdwh"))
        assert counts["singular_values"] == 3
        assert counts["svd_factor"] == 0

    @pytest.mark.parametrize(
        "method,deficient",
        [("qdwh", False), ("zolo", False), ("qdwh", True)],
        ids=["qdwh", "zolo", "deficient"],
    )
    def test_block_polars_run_no_qr_estimate_or_triangular_solve(
        self, monkeypatch, method, deficient
    ):
        # The block's singular values give the sign iteration its scale and
        # interval, so no QR sigma_min estimate runs, and each Gram-form
        # round solves its shifted Gram matrices with numpy's LU.  These
        # inputs take no QR fix, so csd's QR routine never runs, nor does a
        # Cholesky factorization anywhere.
        n = 12
        if deficient:
            a = gen_rank_deficient_haar(n, seed=2)
        else:
            a = generate(TestCase(1, False, n, 1))
        counts = _count_calls(
            monkeypatch, ("csdk.csd", "numpy.linalg"), ("qr_factor", "cholesky")
        )
        res = csd(a, n, CsdOptions(polar_method=method))
        assert res.branch in ("full_rank", "rank_deficient")
        assert counts == {"qr_factor": 0, "cholesky": 0}

    @pytest.mark.parametrize("method", ["svd", "qdwh", "zolo"])
    @pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
    def test_one_direct_eigensolve_on_every_route(self, monkeypatch, method, deficient):
        # B is eigendecomposed once, at its final mu, by LAPACK's
        # eigensolver, and no spectral split runs.  On qdwh and zolo that is
        # one symeig_direct of B; on svd, one symeig_deflating of B', which
        # runs symeig_direct on each of its blocks larger than 1x1.
        n = 12
        if deficient:
            a = gen_rank_deficient_haar(n, seed=2)
        else:
            a = gen_haar_stiefel(2 * n, n, seed=2)
        counts = _count_calls(
            monkeypatch, ("csdk.csd",), ("symeig_direct", "symeig_deflating")
        )
        splits = _count_calls(monkeypatch, ("csdk.symeig",), ("spectral_split",))
        csd(a, n, CsdOptions(polar_method=method))
        if method == "svd":
            assert counts == {"symeig_direct": 0, "symeig_deflating": 1}
        else:
            assert counts == {"symeig_direct": 1, "symeig_deflating": 0}
        assert splits == {"spectral_split": 0}

    def test_perfbench_tracer_installs(self):
        # `perfbench/run.py --trace 1` wraps names in csdk.csd, csdk.polar,
        # csdk.symeig and csdk.isometry; it cannot install if one is gone.
        root = Path(__file__).resolve().parents[1]
        script = textwrap.dedent(
            """
            import csdk.csd
            import layers
            from csdk.csd import CsdOptions, csd
            from csdk.testgen import gen_haar_stiefel, gen_rank_deficient_haar

            tracer = layers.Tracer()
            layers.install(tracer)
            n = 8
            full = gen_haar_stiefel(2 * n, n, seed=1)
            deficient = gen_rank_deficient_haar(n, seed=1)
            for a in (full, deficient):
                for method in ("svd", "qdwh", "zolo"):
                    before = tracer.counts["zolotarev.factor_calls"]
                    csd(a, n, CsdOptions(polar_method=method))
                    # Every sign-iteration factor is built through the name
                    # the tracer wraps, so no iterative call reads zero.
                    if method != "svd":
                        built = tracer.counts["zolotarev.factor_calls"] - before
                        assert built > 0, (method, dict(tracer.counts))
            # Two block polars per qdwh and zolo call; the svd route runs
            # no polar, but each call's two block SVDs are counted.
            assert tracer.counts["polar.block_calls"] == 8, dict(tracer.counts)
            assert tracer.counts["kernel.svd_calls"] == 4, dict(tracer.counts)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root / "perfbench",
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


def _eigensolved_b(monkeypatch, a: np.ndarray, m1: int):
    """B' as the svd route hands it to its eigensolver, and the result."""
    seen = []
    solver = csdk_csd.symeig_deflating

    def recording(b):
        seen.append(b.copy())
        return solver(b)

    monkeypatch.setattr(csdk_csd, "symeig_deflating", recording)
    res = csd(a, m1)
    (b,) = seen
    return b, res


def _ascending_with_couplings(n: int, couplings) -> np.ndarray:
    """diag(linspace(-1, 1, n)) with |b_ij| = |b_ji| = level u ||B||_F for
    each (i, j, level), where ||B||_F is that of the diagonal."""
    b = np.diag(np.linspace(-1.0, 1.0, n)).astype(complex)
    norm = norm_fro(b)
    for i, j, level in couplings:
        b[i, j] = level * U * norm * 1j
        b[j, i] = np.conj(b[i, j])
    return b


def _with_small_columns(n: int, k: int, scale: float) -> np.ndarray:
    """[U1 C V1*; U2 S V1*] with distinct angles, whose last k (c, s) pairs
    are scaled down to singular values of A equal to scale."""
    theta = np.linspace(0.1, 1.4, n)
    weight = np.where(np.arange(n) < n - k, 1.0, scale)
    factors = (gen_haar_stiefel(n, n, seed=s) for s in (21, 22, 23))
    return stack_cs(*factors, weight * np.cos(theta), weight * np.sin(theta))


class TestSvdRoute:
    """The svd route works in the top block's right singular basis Q1: B'
    = Q1* B Q1 is eigendecomposed in the diagonal blocks it splits into,
    and the gate and rank come from G = Q1* A*A Q1."""

    def test_clean_haar_deflates_fully_with_no_eigh(self, monkeypatch):
        # Q1 diagonalizes B to roundoff, so every block of B' is 1x1.  The
        # outcome is read at rounding level: on this input the largest
        # off-diagonal entry and the dropped mass both sit near 0.6 of
        # their bounds.
        n = 60
        a = generate(TestCase(1, False, n, 5))
        eighs = _count_calls(monkeypatch, ("numpy.linalg",), ("eigh",))
        b, res = _eigensolved_b(monkeypatch, a, n)
        np.testing.assert_array_equal(_deflation_stops(b), np.arange(1, n + 1))
        assert eighs == {"eigh": 0}
        assert stability_report(a, res).residual_2norm <= 50 * n * U

    def test_clean_clustered_deflates_into_smaller_blocks(self, monkeypatch):
        # Clustered angles leave B' coupled within each cluster only.
        n = 120
        b, res = _eigensolved_b(monkeypatch, generate(TestCase(4, False, n, 1)), n)
        sizes = np.diff(_deflation_stops(b), prepend=0)
        assert sizes.size > 2 and 1 < sizes.max() < n
        assert res.rank == nint(3 * n / 4)

    @pytest.mark.parametrize("class_id", [1, 2, 3, 4])
    def test_noisy_input_is_one_block(self, monkeypatch, class_id):
        n = 40
        b, _ = _eigensolved_b(monkeypatch, generate(TestCase(class_id, True, n, 1)), n)
        assert _deflation_stops(b).tolist() == [n]

    def test_zero_b_needs_no_division(self, monkeypatch):
        # The balanced stack's two blocks are equal, so B' is exactly 0.
        n = 6
        a = np.vstack([np.eye(n), np.eye(n)]).astype(complex) / np.sqrt(2)
        with np.errstate(divide="raise", invalid="raise"):
            b, res = _eigensolved_b(monkeypatch, a, n)
            stops = _deflation_stops(b)
        assert not np.any(b)
        np.testing.assert_array_equal(stops, np.arange(1, n + 1))
        np.testing.assert_allclose(res.theta, np.full(n, np.pi / 4), atol=1e-14)

    def test_entries_above_ten_u_join_their_block(self):
        # 20 u ||B||_F couples indices 3 and 5, and with them 4; 5 u ||B||_F
        # between 10 and 11 is dropped.
        n = 50
        b = _ascending_with_couplings(n, ((3, 5, 20.0), (10, 11, 5.0)))
        expected = [1, 2, 3, *range(6, n + 1)]
        assert _deflation_stops(b).tolist() == expected
        res = symeig_deflating(b)
        np.testing.assert_allclose(res.lam, np.linalg.eigvalsh(b), atol=n * U)
        assert norm_2(res.v.conj().T @ res.v - np.eye(n)) <= 10 * U
        assert norm_2(b @ res.v - res.v * res.lam) <= n * U

    @pytest.mark.parametrize("level, split", [(5.0, False), (0.5, True)])
    def test_dropped_mass_above_n_u_keeps_one_block(self, monkeypatch, level, split):
        # Every off-diagonal entry is below 10 u ||B||_F, but together they
        # drop about level * n u ||B||_F: above n u ||B||_F, B does not
        # split.  Each coupling is tiny against its gap, though, so the
        # rotation tier takes B instead of one eigh.
        n = 50
        b = _ascending_with_couplings(
            n, ((i, j, level) for i in range(n) for j in range(i + 1, n))
        )
        stops = _deflation_stops(b).tolist()
        assert stops == (list(range(1, n + 1)) if split else [n])
        eighs = _count_calls(monkeypatch, ("numpy.linalg",), ("eigh",))
        res = symeig_deflating(b)
        assert eighs == {"eigh": 0}
        np.testing.assert_allclose(res.lam, np.linalg.eigvalsh(b), atol=n * U)
        if not split:
            assert res.method == "rotated"
            assert norm_2(b @ res.v - res.v * res.lam) <= n * U * norm_fro(b)
            assert norm_2(res.v.conj().T @ res.v - np.eye(n)) <= n * U

    @pytest.mark.parametrize("class_id", [1, 2, 3, 4])
    def test_noisy_input_takes_no_full_size_eigh(self, monkeypatch, class_id):
        # Noise leaves B' one block, but its couplings are small against
        # the gaps of its diagonal: only clusters of close diagonal entries
        # go to eigh, and the result meets the bounds that a full eigh does.
        n = 40
        a = generate(TestCase(class_id, True, n, 1))
        methods, sizes = [], _eigh_sizes(monkeypatch)
        solver = csdk_csd.symeig_deflating

        def recording(b):
            res = solver(b)
            methods.append(res.method)
            return res

        monkeypatch.setattr(csdk_csd, "symeig_deflating", recording)
        res = csd(a, n)
        assert methods == ["rotated"]
        assert n not in sizes
        rep = stability_report(a, res)
        assert rep.residual_2norm <= max(50 * n * U, 10 * rep.d_of_a)
        assert max(rep.orth_u1, rep.orth_u2, rep.orth_v1) <= 50 * n

    @pytest.mark.parametrize("n", [16, 40])
    def test_clean_haar_below_n_60_takes_no_eigh(self, monkeypatch, n):
        # On this input B' keeps one block at n = 16 and 40, since the mass
        # that a split drops reads just above n u ||B'||_F; the rotation
        # tier then diagonalizes it with no eigh.
        a = generate(TestCase(1, False, n, 1))
        eighs = _count_calls(monkeypatch, ("numpy.linalg",), ("eigh",))
        b, res = _eigensolved_b(monkeypatch, a, n)
        assert _deflation_stops(b).tolist() == [n]
        assert eighs == {"eigh": 0}
        assert stability_report(a, res).residual_2norm <= 50 * n * U

    def test_rank_deficient_rotation_raises_no_floating_point_error(self, monkeypatch):
        # mu = 2 puts the null space's eigenvalues of B' in one cluster
        # near 2, which the rotation tier solves as one block.
        n = 40
        a = generate(TestCase(3, True, n, 1))
        sizes = _eigh_sizes(monkeypatch)
        with np.errstate(all="raise"):
            res = csd(a, n)
        assert res.mu == 2.0 and res.rank == nint(3 * n / 4)
        assert n not in sizes
        rep = stability_report(a, res)
        assert rep.residual_2norm <= max(50 * n * U, 10 * rep.d_of_a)

    @pytest.mark.parametrize("n, seed", [(60, 5), (240, 6)])
    def test_permutation_finish_equals_the_products(self, monkeypatch, n, seed):
        # Where B' splits into 1x1 blocks, Y is a permutation, and the
        # finish gathers columns of Q1, P1 and M* instead of multiplying
        # by Y; a product with an exact 0/1 matrix gives the same entries.
        a = generate(TestCase(1, False, n, seed))
        b, gathered = _eigensolved_b(monkeypatch, a, n)
        np.testing.assert_array_equal(_deflation_stops(b), np.arange(1, n + 1))
        monkeypatch.setattr(csdk_csd, "_times", operator.matmul)
        multiplied = csd(a, n)
        for field in ("u1", "u2", "c", "s", "v1", "theta"):
            np.testing.assert_array_equal(
                getattr(gathered, field), getattr(multiplied, field)
            )

    @pytest.mark.parametrize(
        "a",
        [
            pytest.param(0.91 * gen_haar_stiefel(80, 40, seed=3), id="scaled-0.91"),
            pytest.param(1.09 * gen_haar_stiefel(80, 40, seed=3), id="scaled-1.09"),
            pytest.param(gen_rank_deficient_haar(40, seed=3), id="rank-deficient"),
            pytest.param(_with_small_columns(40, 10, 0.05), id="sigma-0.05"),
        ],
    )
    def test_gate_passes_on_gershgorin_discs(self, monkeypatch, a):
        eigvalshs = _count_calls(monkeypatch, ("numpy.linalg",), ("eigvalsh",))
        res = csd(a, 40)
        assert eigvalshs == {"eigvalsh": 0}
        assert res.rank == np.count_nonzero(singular_values(a) > 0.5)

    @pytest.mark.parametrize("scale", [0.89, 1.11])
    def test_gate_refuses_tight_discs_outside_the_intervals(self, monkeypatch, scale):
        # G = scale^2 I up to roundoff: its discs are tight, but at 0.7921
        # or 1.2321 they lie in neither interval, so eigvalsh decides.
        a = scale * gen_haar_stiefel(32, 16, seed=3)
        eigvalshs = _count_calls(monkeypatch, ("numpy.linalg",), ("eigvalsh",))
        with pytest.raises(NotNearIsometryError):
            csd(a, 16)
        assert eigvalshs == {"eigvalsh": 1}

    @pytest.mark.parametrize("d", [0.09, 0.11])
    @pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
    def test_gate_falls_back_to_eigvalsh(self, monkeypatch, d, deficient):
        # Singular values spread over [1 - d, 1 + d], and below full rank
        # over [0, d] too, widen G's discs past the intervals; sigma^2 then
        # comes from eigvalsh(G), and csd refuses exactly the inputs that
        # dist_to_partial_isometry puts beyond 0.1.
        n = 16
        sigma = np.linspace(1.0 - d, 1.0 + d, n)
        if deficient:
            sigma[-4:] = np.linspace(0.0, d, 4)
        a = gen_with_singular_values(2 * n, n, sigma, seed=4)
        assert abs(dist_to_partial_isometry(a) - d) <= 1e-12
        eigvalshs = _count_calls(monkeypatch, ("numpy.linalg",), ("eigvalsh",))
        if d > 0.1:
            with pytest.raises(NotNearIsometryError, match=f"{d:.3g}"):
                csd(a, n)
        else:
            res = csd(a, n)
            assert res.rank == np.count_nonzero(sigma > 0.5)
            rep = stability_report(a, res)
            assert rep.residual_2norm <= 10 * rep.d_of_a
        assert eigvalshs == {"eigvalsh": 1}

    @pytest.mark.parametrize("noise", [0.0, 1e-10, 1e-6])
    @pytest.mark.parametrize("class_id", [1, 2, 3, 4])
    def test_rank_from_gram_matches_svd_rank(self, class_id, noise):
        n = 40
        a = add_noise(generate(TestCase(class_id, False, n, 2)), noise, seed=3)
        res = csd(a, n)
        assert res.rank == np.count_nonzero(singular_values(a) > 0.5)
        assert res.rank == TestCase(class_id, False, n, 2).rank


def _full_rank_ill_conditioned(n: int = 8) -> np.ndarray:
    """Angles from 0 to pi/2: each block has a singular value at or below
    cos(pi/2) ~ 6e-17, so on the iterative routes both take the QR fix."""
    theta = np.linspace(0.0, np.pi / 2, n)
    factors = (gen_haar_stiefel(n, n, seed=k) for k in (61, 62, 63))
    return stack_cs(*factors, np.cos(theta), np.sin(theta))


def _concurrency_inputs():
    n = 8
    qr_fix = _qr_fix_repros()[1].values[0]  # rank 6 of 8, 1e-12 noise
    return [
        pytest.param(gen_haar_stiefel(2 * n, n, seed=4), None, id="full-rank"),
        pytest.param(gen_clustered(n, seed=4), None, id="clustered"),
        pytest.param(gen_rank_deficient_haar(n, seed=4), None, id="rank-deficient"),
        pytest.param(_full_rank_ill_conditioned(n), "ill_conditioned", id="qr-fix"),
        pytest.param(qr_fix, "rank_deficient_ill_conditioned", id="rank-deficient-qr-fix"),
    ]


def _concurrent_from(monkeypatch, n: int) -> None:
    """Let the block polars overlap from n columns up on every route."""
    for method in csdk_csd._CONCURRENT_MIN_N:
        monkeypatch.setitem(csdk_csd._CONCURRENT_MIN_N, method, n)


@pytest.fixture
def overlapping(monkeypatch):
    """The block polars run at once on every input, whatever the host."""
    _concurrent_from(monkeypatch, 1)
    monkeypatch.setattr(csdk_csd, "_OVERLAP_PAYS", True)


def _patch_block_jobs(monkeypatch, job) -> None:
    """Run each block's job as job(block, run), where run(block) is the job
    as shipped: svd_factor on the svd route, _polar_for_block on the
    others.  The patched svd_factor counts as csd's own, since these
    patches are safe on two threads, so the worker still runs."""
    svd_factor, polar_for_block = csdk_csd.svd_factor, csdk_csd._polar_for_block

    def svd_job(block):
        return job(block, svd_factor)

    def polar_job(block, opts, rank):
        return job(block, lambda b: polar_for_block(b, opts, rank))

    monkeypatch.setattr(csdk_csd, "svd_factor", svd_job)
    monkeypatch.setitem(csdk_csd._OWN_POLARS, "svd_factor", svd_job)
    monkeypatch.setattr(csdk_csd, "_polar_for_block", polar_job)


def _recording_block_threads(monkeypatch, m1: int) -> dict[str, list[str]]:
    """Record which thread ran the top and the bottom block of a call
    split at row m1."""
    threads: dict[str, list[str]] = {"top": [], "bottom": []}

    def recording(block, run):
        side = "top" if block.shape[0] == m1 else "bottom"
        threads[side].append(threading.current_thread().name)
        return run(block)

    _patch_block_jobs(monkeypatch, recording)
    return threads


def _full_or_deficient(n: int, deficient: bool) -> np.ndarray:
    if deficient:
        return gen_rank_deficient_haar(n, seed=3)
    return gen_haar_stiefel(2 * n, n, seed=3)


def _assert_no_worker_alive() -> None:
    alive = [t.name for t in threading.enumerate()]
    assert not [name for name in alive if name.startswith("csdk-polar")], alive


def _run_script(script: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_importing_csdk_loads_no_scipy():
    # csd calls no scipy code; only SDC's spectral_split imports it.
    proc = _run_script(
        """
        import sys
        import csdk
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


class TestConcurrentBlockPolars:
    """From csdk.csd._CONCURRENT_MIN_N columns up, a minimum per polar
    route, on hosts where it pays, the top block's polar runs on a worker
    thread while the calling thread runs the bottom's."""

    def test_every_polar_route_has_a_minimum_n(self):
        assert set(csdk_csd._CONCURRENT_MIN_N) == set(POLAR_METHODS)

    @pytest.mark.parametrize("method", ROUTES)
    @pytest.mark.parametrize("a, iterative_branch", _concurrency_inputs())
    def test_bitwise_equal_to_sequential(self, monkeypatch, method, a, iterative_branch):
        monkeypatch.setattr(csdk_csd, "_OVERLAP_PAYS", True)
        results = []
        for threshold in (1, 10**9):
            _concurrent_from(monkeypatch, threshold)
            results.append(csd(a, a.shape[1], CsdOptions(polar_method=method)))
        concurrent, sequential = results
        for field in ("u1", "u2", "v1", "c", "s", "theta"):
            np.testing.assert_array_equal(
                getattr(concurrent, field), getattr(sequential, field), err_msg=field
            )
        assert concurrent.rank == sequential.rank
        assert concurrent.branch == sequential.branch
        if iterative_branch is not None and method != "svd":
            assert concurrent.branch == iterative_branch

    @pytest.mark.parametrize("threshold, uses_worker", [(16, True), (17, False)])
    def test_worker_only_from_the_threshold_up(self, monkeypatch, threshold, uses_worker):
        monkeypatch.setattr(csdk_csd, "_OVERLAP_PAYS", True)
        _concurrent_from(monkeypatch, threshold)
        threads = _recording_block_threads(monkeypatch, 16)
        csd(gen_haar_stiefel(35, 16, seed=5), 16)
        assert threads["bottom"] == [threading.current_thread().name]
        (top,) = threads["top"]
        assert top.startswith("csdk-polar") == uses_worker

    @pytest.mark.parametrize(
        "method, uses_worker", [("qdwh", True), ("zolo", True), ("svd", False)]
    )
    def test_routes_with_long_blocks_overlap_at_n_120(
        self, monkeypatch, method, uses_worker
    ):
        # The thresholds as shipped: at n = 120 a sign-iteration block runs
        # long enough to pay for a worker, an SVD block does not.
        monkeypatch.setattr(csdk_csd, "_OVERLAP_PAYS", True)
        threads = _recording_block_threads(monkeypatch, 120)
        csd(gen_haar_stiefel(241, 120, seed=5), 120, CsdOptions(polar_method=method))
        assert threads["bottom"] == [threading.current_thread().name]
        (top,) = threads["top"]
        assert top.startswith("csdk-polar") == uses_worker

    @pytest.mark.parametrize("pays", [True, False])
    def test_worker_only_where_overlap_pays(self, monkeypatch, pays):
        _concurrent_from(monkeypatch, 1)
        monkeypatch.setattr(csdk_csd, "_OVERLAP_PAYS", pays)
        threads = _recording_block_threads(monkeypatch, 8)
        csd(gen_haar_stiefel(19, 8, seed=5), 8)
        (top,) = threads["top"]
        assert top.startswith("csdk-polar") == pays

    @pytest.mark.parametrize(
        "environ, cores, pays",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
            ({"OMP_NUM_THREADS": "1"}, 4, True),
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
            ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, True),
            ({"OPENBLAS_NUM_THREADS": "x"}, 2, False),
            ({}, 2, False),
        ],
        ids=[
            "openblas-1", "omp-1", "goto-before-omp", "one-core", "openblas-2",
            "openblas-before-omp", "zero-is-unset", "not-a-number", "unset",
        ],
    )
    def test_overlap_pays_with_one_blas_thread_and_two_cores(self, environ, cores, pays):
        # numpy's wheels ship OpenBLAS; with another BLAS nothing overlaps.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        expected = pays and "openblas" in blas.lower()
        assert csdk_csd._overlap_pays(environ, cores) is expected

    @pytest.mark.parametrize("blas_threads", ["1", "2"])
    def test_overlap_follows_the_process_environment(self, blas_threads):
        proc = _run_script(
            """
            import importlib, os
            for name in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
                os.environ.pop(name, None)
            os.environ["OPENBLAS_NUM_THREADS"] = "%s"
            csd_mod = importlib.import_module("csdk.csd")
            print(csd_mod._OVERLAP_PAYS, csd_mod._usable_cores())
            """ % blas_threads
        )
        assert proc.returncode == 0, proc.stderr
        pays, cores = proc.stdout.split()
        assert pays == str(blas_threads == "1" and int(cores) >= 2)

    def test_replaced_polar_routine_runs_in_turn(self, overlapping, monkeypatch):
        # A replacement, say a profiler's wrapper, need not be thread-safe.
        threads = []
        svd_factor = csdk_csd.svd_factor

        def recording_svd_factor(block):
            threads.append(threading.current_thread().name)
            return svd_factor(block)

        monkeypatch.setattr(csdk_csd, "svd_factor", recording_svd_factor)
        csd(gen_haar_stiefel(16, 8, seed=5), 8)
        assert threads == [threading.current_thread().name] * 2

    def test_callers_do_not_queue_behind_each_other(self, overlapping, monkeypatch):
        # While one call's top block holds its worker, another caller's call
        # completes, its top block on a worker thread of its own.  Blocks
        # are told apart by their row counts: 5 and 7 in the first call, 6
        # and 8 in the second.
        held, release = threading.Event(), threading.Event()
        threads = {}

        def holding(block, run):
            threads[block.shape[0]] = threading.current_thread()
            if block.shape[0] == 5:
                held.set()
                assert release.wait(30)
            return run(block)

        _patch_block_jobs(monkeypatch, holding)
        first = threading.Thread(target=csd, args=(gen_haar_stiefel(12, 4, seed=9), 5))
        first.start()
        try:
            assert held.wait(30)
            csd(gen_haar_stiefel(14, 4, seed=10), 6)
            assert threads[8] is threading.current_thread()
            assert threads[6].name.startswith("csdk-polar")
            assert threads[6] is not threads[5]
        finally:
            release.set()
            first.join(30)
        assert threads[5].name.startswith("csdk-polar")
        assert not first.is_alive()

    def test_no_worker_outlives_the_call(self, overlapping, monkeypatch):
        threads = _recording_block_threads(monkeypatch, 8)
        csd(gen_haar_stiefel(19, 8, seed=5), 8)
        (top,) = threads["top"]
        assert top.startswith("csdk-polar")
        _assert_no_worker_alive()

    @pytest.mark.parametrize(
        "failing, raised",
        [
            ({"top", "bottom"}, "top"),
            ({"top"}, "top"),
            ({"bottom"}, "bottom"),
        ],
        ids=["both-fail", "top-fails", "bottom-fails"],
    )
    def test_errors_are_deterministic(self, overlapping, monkeypatch, failing, raised):
        # The top block's error wins, as when the blocks run in turn, and
        # the worker has finished before csd returns, so none of its work
        # spills into the next call.
        n, m1 = 4, 5
        top_done = threading.Event()

        def blocks(block, run):
            side = "top" if block.shape[0] == m1 else "bottom"
            if side == "top":
                # The top block finishes well after the bottom one fails.
                time.sleep(0.2)
                top_done.set()
            if side in failing:
                raise RuntimeError(side)
            return run(block)

        _patch_block_jobs(monkeypatch, blocks)
        a = gen_haar_stiefel(m1 + 7, n, seed=6)
        with pytest.raises(RuntimeError, match=f"^{raised}$"):
            csd(a, m1)
        assert top_done.is_set()

    @pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
    def test_svd_gate_follows_both_block_svds_and_one_eigensolve_runs(
        self, overlapping, monkeypatch, deficient
    ):
        # The svd route's gate reads both blocks' factors, so it runs, on
        # the worker, once both block SVDs are done; B' is then
        # eigendecomposed once, at its final mu: at mu = 2 below full rank,
        # where the null space's n - r eigenvalues of B' sit at 2.
        n = 8
        a = _full_or_deficient(n, deficient)
        events, eigensolves = [], []
        gram_gate, symeig_deflating = csdk_csd._gram_gate, csdk_csd.symeig_deflating

        def block(b, run):
            f = run(b)
            events.append("block")
            return f

        def gate(x, sigma1):
            events.append(("gate", threading.current_thread().name))
            return gram_gate(x, sigma1)

        def eigensolve(b):
            events.append("eigensolve")
            eigensolves.append(np.linalg.eigvalsh(b))
            return symeig_deflating(b)

        _patch_block_jobs(monkeypatch, block)
        monkeypatch.setattr(csdk_csd, "_gram_gate", gate)
        monkeypatch.setattr(csdk_csd, "symeig_deflating", eigensolve)
        res = csd(a, n)
        assert events[:2] == ["block", "block"]
        (gate_event,) = [e for e in events if e[0] == "gate"]
        assert gate_event[1].startswith("csdk-polar")
        assert events[3:] == ["eigensolve"]
        assert res.rank == (6 if deficient else n)
        assert res.mu == (2.0 if deficient else 0.0)
        (lam,) = eigensolves
        assert np.count_nonzero(lam > 1.5) == n - res.rank

    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    def test_routes_that_read_the_rank_gate_first(self, overlapping, monkeypatch, method):
        n = 8
        a = gen_rank_deficient_haar(n, seed=3)
        calls = []
        singular_values = csdk_csd.singular_values

        def recording(x):
            calls.append((x.shape, threading.current_thread().name))
            return singular_values(x)

        monkeypatch.setattr(csdk_csd, "singular_values", recording)
        csd(a, n, CsdOptions(polar_method=method))
        # The gate's SVD of A, on the caller, before either block's.
        assert calls[0] == (a.shape, threading.current_thread().name)
        assert [shape for shape, _ in calls[1:]] == [(n, n)] * 2

    @pytest.mark.parametrize("method", ROUTES)
    @pytest.mark.parametrize(
        "failing", [set(), {"top"}, {"bottom"}, {"top", "bottom"}],
        ids=["no-block-fails", "top-fails", "bottom-fails", "both-fail"],
    )
    def test_gate_error_wins_over_block_errors(
        self, overlapping, monkeypatch, method, failing
    ):
        # The singular values of 0.7 A are 0.7: d(A) = 0.3 is refused.
        n, m1 = 4, 5

        def blocks(block, run):
            if ("top" if block.shape[0] == m1 else "bottom") in failing:
                raise RuntimeError("block")
            return run(block)

        _patch_block_jobs(monkeypatch, blocks)
        a = 0.7 * gen_haar_stiefel(m1 + 7, n, seed=6)
        with pytest.raises(NotNearIsometryError):
            csd(a, m1, CsdOptions(polar_method=method))
        _assert_no_worker_alive()

    @pytest.mark.parametrize("method", ROUTES)
    def test_worker_finish_half_error_propagates(self, overlapping, monkeypatch, method):
        # The svd route finishes each half from the block's SVD factors.
        name = "_svd_half" if method == "svd" else "_finish_half"
        finish_half = getattr(csdk_csd, name)

        def failing_on_worker(factors, v1):
            if threading.current_thread().name.startswith("csdk-polar"):
                raise RuntimeError("finish")
            return finish_half(factors, v1)

        monkeypatch.setattr(csdk_csd, name, failing_on_worker)
        with pytest.raises(RuntimeError, match="^finish$"):
            csd(gen_haar_stiefel(16, 8, seed=5), 8, CsdOptions(polar_method=method))
        _assert_no_worker_alive()

    def test_worker_sees_the_callers_numpy_error_state(self, overlapping, monkeypatch):
        # Only the top block, on the worker, divides by zero.
        n, m1 = 4, 5

        def dividing(block, run):
            if block.shape[0] == m1:
                np.divide(1.0, np.zeros(1))
            return run(block)

        _patch_block_jobs(monkeypatch, dividing)
        a = gen_haar_stiefel(m1 + 7, n, seed=8)
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            csd(a, m1)

    def test_forked_child_runs_the_concurrent_path(self):
        # A forked child inherits the parent's pool but not its thread; a
        # pool kept across the fork would hang the child's first call.
        proc = _run_script(
            """
            import importlib, os, signal
            import numpy as np
            from csdk.testgen import gen_haar_stiefel

            csd_mod = importlib.import_module("csdk.csd")
            csd_mod._CONCURRENT_MIN_N = dict.fromkeys(csd_mod._CONCURRENT_MIN_N, 1)
            csd_mod._OVERLAP_PAYS = True
            a = gen_haar_stiefel(16, 8, seed=7)
            before = csd_mod.csd(a, 8)
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)  # a hung child dies instead of lingering
                after = csd_mod.csd(a, 8)
                os._exit(0 if np.array_equal(after.u1, before.u1) else 1)
            _, status = os.waitpid(pid, 0)
            raise SystemExit(os.waitstatus_to_exitcode(status))
            """
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)

    @pytest.mark.parametrize("caller", ["thread", "atexit"])
    def test_calls_during_interpreter_shutdown_run_in_turn(self, caller):
        # Once the main thread has finished, thread pools take no new work;
        # a csd call from a thread still running, or from an atexit handler,
        # runs its blocks in turn instead of failing.
        proc = _run_script(
            """
            import atexit, importlib, threading
            import numpy as np
            from csdk.testgen import gen_haar_stiefel

            csd_mod = importlib.import_module("csdk.csd")
            csd_mod._CONCURRENT_MIN_N = dict.fromkeys(csd_mod._CONCURRENT_MIN_N, 1)
            csd_mod._OVERLAP_PAYS = True
            a = gen_haar_stiefel(16, 8, seed=7)
            before = csd_mod.csd(a, 8)  # starts the worker

            def late_call():
                after = csd_mod.csd(a, 8)
                assert np.array_equal(after.u1, before.u1)
                print("done")

            def after_main():
                main = threading.main_thread()
                while main.is_alive():
                    main.join(0.01)
                late_call()

            if "%s" == "thread":
                threading.Thread(target=after_main).start()
            else:
                atexit.register(late_call)
            """ % caller
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["done"], proc.stderr
