"""Polar decomposition contracts for the SVD, iterative, fixed-interval,
and canonical routes."""

import numpy as np
import pytest

import csdk.polar
from csdk.errors import ConvergenceError, DimensionError
from csdk.kernel import U_ROUNDOFF, norm_fro, singular_values
from csdk.polar import (
    EPSILON,
    canonical_polar,
    polar_iterative,
    polar_modified,
    polar_svd,
    qdwh_schedule,
    zolo_schedule,
)
from csdk.testgen import gen_haar_stiefel, gen_with_singular_values
from csdk.zolotarev import eval_sign_approx


def conditioned(m, n, kappa, seed):
    return gen_with_singular_values(m, n, np.geomspace(1.0, 1.0 / kappa, n), seed)


def extremes(a):
    """(sigma_max, sigma_min) of A, as a polar routine's caller supplies them."""
    sigmas = singular_values(a)
    return sigmas[0], sigmas[-1]


# The conditioned inputs of the residual contract and iteration cap tests.
CONDITIONED_CASES = [
    (1e4, (40, 30), 11),
    (1e4, (25, 20), 3),
    (1e8, (25, 20), 3),
    (1e8, (25, 20), 4),
]


def assert_residual_contract(a, pf):
    n = a.shape[1]
    bound = 50 * n * U_ROUNDOFF
    assert norm_fro(pf.w @ pf.h - a) / norm_fro(a) <= bound
    assert norm_fro(pf.w.conj().T @ pf.w - np.eye(n)) <= bound
    assert norm_fro(pf.h - pf.h.conj().T) == 0.0
    assert np.min(np.linalg.eigvalsh(pf.h)) >= -50 * n * U_ROUNDOFF


class TestPolarSvd:
    def test_identity(self):
        pf = polar_svd(np.eye(3, dtype=complex))
        np.testing.assert_allclose(pf.w, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(pf.h, np.eye(3), atol=1e-15)

    def test_scaled_identity(self):
        pf = polar_svd(2 * np.eye(3, dtype=complex))
        np.testing.assert_allclose(pf.w, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(pf.h, 2 * np.eye(3), atol=1e-14)

    def test_haar_input_recovered(self):
        u = gen_haar_stiefel(6, 6, seed=5)
        pf = polar_svd(u)
        assert norm_fro(pf.w - u) <= 1e2 * U_ROUNDOFF * 10
        assert norm_fro(pf.h - np.eye(6)) <= 1e2 * U_ROUNDOFF

    def test_h_hermitian_psd(self):
        a = conditioned(8, 5, 1e3, seed=2)
        pf = polar_svd(a)
        assert norm_fro(pf.h - pf.h.conj().T) == 0.0
        assert np.min(np.linalg.eigvalsh(pf.h)) >= -50 * 5 * U_ROUNDOFF


class TestPolarIterative:
    def test_identity_is_fixed_point(self):
        # The schedule is fixed from ell = 0.9 before any matrix round, so
        # even an exact fixed point runs the two rounds that flatten it.
        pf = polar_iterative(np.eye(4, dtype=complex), 1.0, 1.0)
        assert pf.iterations == 2
        assert norm_fro(pf.w - np.eye(4)) <= 10 * U_ROUNDOFF

    def test_diagonal_against_svd_oracle(self):
        a = np.diag([1.0, 0.5]).astype(complex)
        ref = polar_svd(a)
        for method in ("qdwh", "zolo"):
            pf = polar_iterative(a, 1.0, 0.5, method=method)
            assert norm_fro(pf.w - ref.w) <= 1e2 * U_ROUNDOFF
            assert norm_fro(pf.h - a) <= 1e2 * U_ROUNDOFF

    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    def test_conditioned_residual_contract(self, method):
        m, n = 40, 30
        a = conditioned(m, n, 1e4, seed=11)
        pf = polar_iterative(a, *extremes(a), method=method)
        bound = 50 * n * U_ROUNDOFF
        assert norm_fro(pf.w @ pf.h - a) / norm_fro(a) <= bound
        assert norm_fro(pf.w.conj().T @ pf.w - np.eye(n)) <= bound
        assert norm_fro(pf.h - pf.h.conj().T) == 0.0
        assert np.min(np.linalg.eigvalsh(pf.h)) >= -50 * n * U_ROUNDOFF
        ref = polar_svd(a)
        # Well inside the spectrum gap, the unitary factors agree closely.
        assert norm_fro(pf.w - ref.w) <= 1e-10

    def test_qdwh_iteration_cap(self):
        for kappa in (1e0, 1e4, 1e8):
            a = conditioned(25, 20, kappa, seed=3)
            pf = polar_iterative(a, *extremes(a), method="qdwh")
            assert pf.iterations <= 6

    def test_zolo_two_rounds(self):
        a = conditioned(25, 20, 1e8, seed=4)
        pf = polar_iterative(a, *extremes(a), method="zolo")
        assert pf.iterations == 2

    def test_family_members_agree_when_well_conditioned(self):
        a = conditioned(20, 15, 10.0, seed=9)
        w1 = polar_iterative(a, *extremes(a), method="qdwh").w
        w8 = polar_iterative(a, *extremes(a), method="zolo").w
        assert norm_fro(w1 - w8) <= 1e3 * U_ROUNDOFF

    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    @pytest.mark.parametrize("kappa,shape,seed", CONDITIONED_CASES)
    def test_given_sigmas_residual_contract(self, method, kappa, shape, seed):
        # The conditioned inputs above, started from the exact sigma_min:
        # the same residual and orthogonality bounds, in no more rounds than
        # from the floor bound below.
        a = conditioned(*shape, kappa, seed)
        smax, smin = extremes(a)
        pf = polar_iterative(a, smax, smin, method=method)
        assert_residual_contract(a, pf)
        floor = polar_iterative(a, smax, 1e-15 * smax, method=method)
        assert pf.iterations <= floor.iterations

    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    @pytest.mark.parametrize("kappa,shape,seed", CONDITIONED_CASES)
    def test_floor_bound_residual_contract(self, method, kappa, shape, seed):
        # A spectral split knows no sigma_min and passes 1e-15 * smax, far
        # below the true one: the same bounds, within the six-round cap.
        a = conditioned(*shape, kappa, seed)
        smax, _ = extremes(a)
        pf = polar_iterative(a, smax, 1e-15 * smax, method=method)
        assert_residual_contract(a, pf)
        assert pf.iterations <= 6

    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    @pytest.mark.parametrize("kappa", [1e0, 1e4, 1e8])
    def test_each_factor_built_once(self, monkeypatch, method, kappa):
        # The schedule is fixed before the first matrix round: qdwh builds
        # one p = 1 factor per round, and zolo builds two per order tried,
        # 1..p, running the last two with no rebuild.
        orders = []
        build = csdk.polar.sign_iteration_factors

        def counted(ell, p):
            orders.append(p)
            return build(ell, p)

        monkeypatch.setattr(csdk.polar, "sign_iteration_factors", counted)
        a = conditioned(25, 20, kappa, seed=3)
        pf = polar_iterative(a, *extremes(a), method=method)
        if method == "qdwh":
            assert orders == [1] * pf.iterations
        else:
            p = max(orders)
            assert orders == [q for q in range(1, p + 1) for _ in range(2)]

    def test_round_below_the_switch_runs_stacked_qr(self, monkeypatch):
        # The first round from interval edge 0.05 lies below the 0.1
        # switch, so it takes the stacked-QR form; the later rounds, from
        # edges above it, solve their shifted Gram matrices.
        schedule = qdwh_schedule(0.05)
        assert schedule[0].ell == 0.05
        assert all(fac.ell > 0.1 for fac in schedule[1:])
        a = conditioned(25, 20, 20.0, seed=3)  # singular values in [0.05, 1]
        counts = {"qr": 0, "solve": 0}
        for name in counts:
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        pf = polar_iterative(a, 1.0, 0.05 / 0.9)
        assert pf.iterations == len(schedule)
        assert counts == {"qr": 1, "solve": len(schedule) - 1}

    def test_unflattened_schedule_signals_before_any_round(self, monkeypatch):
        # An interval edge that six Halley rounds cannot flatten is refused
        # while the schedule is built, before any matrix work.
        monkeypatch.setattr(csdk.polar, "_apply_schedule", None)
        with pytest.raises(ConvergenceError, match="more than 6 rounds"):
            polar_iterative(np.eye(3, dtype=complex), 1.0, 1e-44)

    @pytest.mark.parametrize("method", ["qdwh", "zolo"])
    @pytest.mark.parametrize("smin", [1e-60, 1e-80, 1e-300])
    def test_tiny_interval_edge_signals_before_any_round(self, monkeypatch, method, smin):
        # No schedule is built from an edge this small: the Halley weights
        # overflow below about 1.2e-77 and the order-8 residues turn NaN
        # below about 7e-50.  Both routes refuse it with the typed error,
        # before any matrix work.
        monkeypatch.setattr(csdk.polar, "_apply_schedule", None)
        with pytest.raises(ConvergenceError):
            polar_iterative(np.eye(3, dtype=complex), 1.0, smin, method=method)

    def test_singular_input_signals(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ConvergenceError):
            polar_iterative(a, 1.0, 0.0)

    def test_zero_input_signals(self):
        with pytest.raises(ConvergenceError):
            polar_iterative(np.zeros((3, 2), dtype=complex), 0.0, 0.0)

    def test_wide_rejected(self):
        with pytest.raises(DimensionError):
            polar_iterative(np.ones((2, 3), dtype=complex), 1.0, 1.0)


class TestPolarModified:
    def test_well_conditioned_matches_iterative(self):
        a = gen_with_singular_values(8, 2, [1.0, 0.9], seed=21)
        smax, smin = extremes(a)
        ref = polar_iterative(a, smax, smin, method="zolo")
        pf = polar_modified(a, smax=smax)
        assert norm_fro(pf.h - ref.h) <= 1e2 * U_ROUNDOFF

    def test_exact_zero_singular_value(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        pf = polar_modified(a, smax=1.0)
        ev = np.sort(np.linalg.eigvalsh(pf.h))
        assert abs(ev[0]) <= 1e2 * U_ROUNDOFF
        assert abs(ev[1] - 1.0) <= 1e2 * U_ROUNDOFF

    def test_tiny_singular_value_stays_below(self):
        a = np.diag([1.0, 1e-18]).astype(complex)
        pf = polar_modified(a, smax=1.0)
        ev = np.sort(np.linalg.eigvalsh(pf.h))[::-1]
        assert abs(ev[0] - 1.0) <= 1e2 * U_ROUNDOFF
        assert -1e2 * U_ROUNDOFF <= ev[1] <= 1e-18 + 1e2 * U_ROUNDOFF
        sv = np.linalg.svd(pf.w, compute_uv=False)
        assert sv[0] <= 1.0 + 1e2 * U_ROUNDOFF

    def test_near_isometry_identities(self):
        # Singular values straddling the interval edge: accurate H, small
        # residual, and W singular values inside [0, 1 + O(u)].
        n = 12
        sigma = np.ones(n)
        sigma[-3:] = [1e-8, 1e-16, 0.0]
        a = gen_with_singular_values(2 * n, n, sigma, seed=31)
        pf = polar_modified(a, smax=extremes(a)[0])
        href = polar_svd(a).h
        assert norm_fro(pf.h - href) <= 1e3 * U_ROUNDOFF
        assert norm_fro(pf.w @ pf.h - a) <= 1e3 * U_ROUNDOFF
        sv = np.linalg.svd(pf.w, compute_uv=False)
        assert sv[0] <= 1.0 + 50 * n * U_ROUNDOFF
        assert sv[-1] >= -50 * n * U_ROUNDOFF

    def test_scalar_shadow_consistency(self):
        # For diagonal input the matrix map acts entrywise, so the computed
        # Hermitian factor must match d * r(d) from the scalar shadow of the
        # method's own schedule on [EPSILON, 1], for both methods.
        d = np.array([1.0, 0.3, 1e-3, 1e-12, 1e-16])
        a = np.diag(d).astype(complex)
        for method, schedule in (
            ("qdwh", qdwh_schedule(EPSILON)),
            ("zolo", zolo_schedule(EPSILON)),
        ):
            pf = polar_modified(a, smax=1.0, method=method)
            assert pf.method == method
            assert pf.iterations == len(schedule)
            predicted = d * eval_sign_approx(d, schedule)
            np.testing.assert_allclose(
                np.real(np.diagonal(pf.h)), predicted, atol=1e2 * U_ROUNDOFF
            )


class TestCanonicalPolar:
    def test_identity(self):
        u, h = canonical_polar(np.eye(3, dtype=complex), 1e-10)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(h, np.eye(3), atol=1e-15)

    def test_rank_deficient_diagonal(self):
        u, h = canonical_polar(np.diag([2.0, 0.0]).astype(complex), 1e-10)
        np.testing.assert_allclose(u, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(h, np.diag([2.0, 0.0]), atol=1e-15)

    def test_partial_isometry_property(self):
        x = gen_haar_stiefel(4, 2, seed=41)
        y = gen_haar_stiefel(3, 2, seed=42)
        a = x @ y.conj().T
        u, h = canonical_polar(a, 1e-8)
        assert norm_fro(u @ u.conj().T @ u - u) <= 1e2 * U_ROUNDOFF
        assert np.linalg.matrix_rank(u, 1e-8) == 2
        # Row space of U equals the range of H.
        assert norm_fro(u @ h - a) <= 1e2 * U_ROUNDOFF
