"""Elliptic-function building blocks against scipy and mpmath oracles."""

import math

import mpmath as mp
import pytest
from scipy import special

from csdk.elliptic import (
    agm,
    complete_k_from_complement,
    jacobi_sn_cn_dn,
    jacobi_sn_imag,
)

mp.mp.dps = 40


def test_agm_known_value():
    # Gauss's constant: agm(1, sqrt(2)) = 1.19814...
    assert abs(agm(1.0, math.sqrt(2.0)) - 1.1981402347355923) < 1e-15


@pytest.mark.parametrize("kc", [1e-15, 1e-10, 1e-5, 1e-3, 0.5, 1.0])
def test_complete_k_complement_vs_scipy(kc):
    # ellipkm1 keeps full accuracy near the singular modulus, as must we.
    ref = float(special.ellipkm1(kc * kc))
    assert complete_k_from_complement(kc) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("m", [1e-18, 1e-9, 1e-4, 0.3, 0.9])
@pytest.mark.parametrize("u", [0.05, 0.3, 1.0, 1.5])
def test_jacobi_real_axis_vs_scipy(m, u):
    sn, cn, dn = jacobi_sn_cn_dn(complex(u), m)
    rsn, rcn, rdn, _ = special.ellipj(u, m)
    assert abs(sn.real - rsn) < 5e-15
    assert abs(cn.real - rcn) < 5e-15
    assert abs(dn.real - rdn) < 5e-15
    assert abs(sn.imag) < 1e-15


@pytest.mark.parametrize("ell", [1e-15, 1e-8, 1e-3, 0.3])
@pytest.mark.parametrize("frac", [0.05, 0.3, 0.49, 0.51, 0.8, 0.95])
def test_imaginary_axis_vs_mpmath(ell, frac):
    kp = complete_k_from_complement(ell)
    y = frac * kp
    t = jacobi_sn_imag(y, ell, kp)
    ref = mp.ellipfun("sn", mp.mpc(0, y), ell * ell)
    assert abs(mp.re(ref)) < 1e-25
    assert t == pytest.approx(float(mp.im(ref)), rel=5e-14)


def test_fold_is_continuous():
    ell = 1e-6
    kp = complete_k_from_complement(ell)
    below = jacobi_sn_imag(0.5 * kp * (1 - 1e-9), ell, kp)
    above = jacobi_sn_imag(0.5 * kp * (1 + 1e-9), ell, kp)
    assert above == pytest.approx(below, rel=1e-6)


def test_domain_errors():
    with pytest.raises(ValueError):
        complete_k_from_complement(0.0)
    with pytest.raises(ValueError):
        jacobi_sn_cn_dn(0.1 + 0j, 1.0)
    kp = complete_k_from_complement(0.5)
    with pytest.raises(ValueError):
        jacobi_sn_imag(kp * 1.01, 0.5, kp)
