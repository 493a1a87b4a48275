"""Scalar sign-map contracts: the dense-grid bound, symmetry, image range,
and the schedules the polar iteration runs."""

import numpy as np
import pytest

from csdk.kernel import U_ROUNDOFF
from csdk.polar import sign_schedule, zolo_schedule
from csdk.zolotarev import (
    eval_sign_approx,
    halley_weights,
    sign_iteration_factors,
    zolotarev_coefficients,
)


def test_endpoint_maps_to_one():
    schedule = sign_schedule(1e-3, 8, 2)
    assert abs(eval_sign_approx(1.0, schedule) - 1.0) <= 10 * U_ROUNDOFF


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0])
def test_odd_symmetry_exact(x):
    schedule = sign_schedule(1e-4, 4, 2)
    assert eval_sign_approx(-x, schedule) == -eval_sign_approx(x, schedule)


def test_dense_grid_bound():
    # The pinned contract: ell = 1e-3, p = 8, two rounds.
    schedule = sign_schedule(1e-3, 8, 2)
    xs = np.linspace(1e-3, 1.0, 10_000)
    dev = np.max(np.abs(1.0 - eval_sign_approx(xs, schedule)))
    assert dev <= 1e-15


def test_dense_grid_bound_tiny_interval():
    schedule = sign_schedule(1e-15, 8, 2)
    xs = np.geomspace(1e-15, 1.0, 10_000)
    dev = np.max(np.abs(1.0 - eval_sign_approx(xs, schedule)))
    assert dev <= 2e-15


def test_monotone_image_of_unit_interval():
    schedule = sign_schedule(1e-15, 8, 2)
    xs = np.linspace(0.0, 1.0, 20_001)
    r = eval_sign_approx(xs, schedule)
    assert np.all(r >= 0.0)
    assert np.all(r <= 1.0 + 10 * U_ROUNDOFF)


def test_coefficients_interlace_and_are_positive():
    for ell in (1e-12, 1e-6, 0.2):
        for p in (2, 5, 8):
            c = zolotarev_coefficients(ell, p)
            assert np.all(c > 0)
            assert np.all(np.diff(c) > 0)


def test_coefficients_vs_mpmath_oracle():
    # Full-pipeline cross-check (quarter period, fold, Landen recursion)
    # against an independent arbitrary-precision evaluation.
    import mpmath as mp

    mp.mp.dps = 40
    for ell, p, tol in ((1e-15, 8, 1e-11), (1e-8, 5, 1e-13), (1e-3, 8, 1e-13), (0.3, 2, 1e-13)):
        ellm = mp.mpf(ell)
        kp = mp.ellipk(1 - ellm**2)
        ref = []
        for i in range(1, 2 * p + 1):
            u = mp.mpf(i) * kp / (2 * p + 1)
            sn = mp.ellipfun("sn", u, 1 - ellm**2)
            cn = mp.ellipfun("cn", u, 1 - ellm**2)
            ref.append(float(ellm**2 * sn**2 / cn**2))
        mine = zolotarev_coefficients(ell, p)
        assert np.max(np.abs(mine - np.array(ref)) / np.array(ref)) <= tol


def test_equioscillation_structure():
    # One round at parameters where the deviation is well resolved in
    # doubles: 1 - r must oscillate between 0 and its max, crossing the
    # midline exactly 2p+1 times, with the endpoint values max (at ell)
    # and 0 (at 1).  This pins the map as the best approximant, not just
    # a flat one.
    ell, p = 0.2, 3
    schedule = sign_schedule(ell, p, 1)
    xs = np.linspace(ell, 1.0, 400_001)
    e = 1.0 - eval_sign_approx(xs, schedule)
    top = e.max()
    assert 1e-6 <= top <= 1e-3
    assert e.min() >= -5 * U_ROUNDOFF
    crossings = int(np.count_nonzero(np.diff(np.sign(e - top / 2.0))))
    assert crossings == 2 * p + 1
    assert e[0] >= 0.99 * top
    assert e[-1] <= 5 * U_ROUNDOFF


def test_halley_weights_match_elliptic_p1():
    # The closed-form Halley weights are the p = 1 member of the family.
    for ell in (0.2, 0.5, 0.9):
        a, b, c = halley_weights(ell)
        coeff = zolotarev_coefficients(ell, 1)
        assert coeff[0] == pytest.approx(1.0 / c, rel=1e-8)
        assert coeff[1] == pytest.approx(a / b, rel=1e-8)


def test_iteration_factors_track_interval():
    fac = sign_iteration_factors(0.01, 3)
    assert fac.ell == 0.01
    assert 0.01 < fac.ell_next <= 1.0
    val = eval_sign_approx(0.01, sign_schedule(0.01, 3, 1))
    assert fac.ell_next == pytest.approx(val, abs=1e-15)


def test_zolo_schedule_order_monotone_and_bounded():
    schedules = [zolo_schedule(ell) for ell in (0.9, 0.1, 1e-4, 1e-8, 1e-12, 1e-15)]
    orders = [len(s[0].poles) for s in schedules]
    assert orders == sorted(orders)
    assert orders[0] >= 1 and orders[-1] <= 8
    # The chosen order really does flatten the interval in two rounds.
    for ell in (1e-4, 1e-8, 1e-15):
        schedule = zolo_schedule(ell)
        assert len(schedule) == 2
        err = abs(1.0 - eval_sign_approx(ell, schedule))
        assert err <= 10 * U_ROUNDOFF


def test_schedule_validation():
    with pytest.raises(ValueError):
        sign_schedule(0.5, 0, 2)
    with pytest.raises(ValueError):
        sign_schedule(0.5, 9, 2)
    with pytest.raises(ValueError):
        sign_schedule(0.0, 2, 2)
    with pytest.raises(ValueError):
        sign_schedule(0.5, 2, 0)
