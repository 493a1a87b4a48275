"""Complete elliptic integrals and Jacobi elliptic functions.

The rational sign-approximation coefficients need sn and cn at a modulus
extremely close to 1 (complementary modulus down to 1e-15), where naive
formulas lose all accuracy because 1 - k**2 underflows to zero in double
precision.  Everything here is therefore parameterized by the small
quantity: complete integrals come from the AGM of (1, kc) directly, and
Jacobi functions are evaluated at small parameter m with a descending
Landen recursion on function values.  Points whose imaginary part exceeds
half the imaginary quarter period are folded back with the identity
sn(i*kp - w) = -1 / (k * sn(w)), which keeps the recursion in its accurate
range and avoids catastrophic loss in cn near the quarter period.
"""

from __future__ import annotations

import cmath
import math

_EPS = 2.0**-52

# Catalan-number series for (1 - sqrt(1-m)) / (1 + sqrt(1-m)) in powers of
# m/4, used below 1e-3 where the direct formula starts to cancel.
_LANDEN_SERIES = (1.0, 2.0, 5.0, 14.0, 42.0, 132.0)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of two positive numbers."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("agm requires positive arguments")
    for _ in range(80):
        if abs(a - b) <= _EPS * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def complete_k_from_complement(kc: float) -> float:
    """K(k) for modulus k = sqrt(1 - kc**2), given the complement kc.

    Accurate for arbitrarily small kc, where forming k itself would round
    to 1; K grows only like log(4/kc).
    """
    if not 0.0 < kc <= 1.0:
        raise ValueError(f"complementary modulus must lie in (0, 1], got {kc}")
    return math.pi / (2.0 * agm(1.0, kc))


def jacobi_sn_cn_dn(u: complex, m: float) -> tuple[complex, complex, complex]:
    """Jacobi sn, cn, dn at complex argument u for parameter m in [0, 1).

    Descending Landen recursion on function values; each step maps the
    parameter m -> ((1 - sqrt(1-m)) / (1 + sqrt(1-m)))**2, roughly m**2/16,
    so a handful of steps reach the trig regime.  Intended for |Im u| up to
    about half the imaginary quarter period; beyond that callers should
    fold the argument first (see jacobi_sn_imag).
    """
    if not 0.0 <= m < 1.0:
        raise ValueError(f"parameter m must lie in [0, 1), got {m}")
    if m < 4.0 * _EPS:
        sinu = cmath.sin(u)
        cosu = cmath.cos(u)
        corr = 0.25 * m * (sinu * cosu - u)
        sn = sinu + corr * cosu
        cn = cosu - corr * sinu
        dn = 1.0 + 0.25 * m * (cosu * cosu - sinu * sinu - 1.0)
        return sn, cn, dn
    if m > 1e-3:
        sq = math.sqrt(1.0 - m)
        kappa = (1.0 - sq) / (1.0 + sq)
    else:
        x = 0.25 * m
        kappa = 0.0
        for coeff in reversed(_LANDEN_SERIES):
            kappa = x * (coeff + kappa)
    sn1, cn1, dn1 = jacobi_sn_cn_dn(u / (1.0 + kappa), kappa * kappa)
    denom = 1.0 + kappa * sn1 * sn1
    sn = (1.0 + kappa) * sn1 / denom
    cn = cn1 * dn1 / denom
    dn = (1.0 - kappa * sn1 * sn1) / denom
    return sn, cn, dn


def jacobi_sn_imag(y: float, kc: float, kp: float) -> float:
    """Return t >= 0 such that sn(i*y | m = kc**2) = i*t, for 0 <= y < K'.

    kp is K', the imaginary quarter period of the parameter m = kc**2,
    i.e. complete_k_from_complement(kc), which the caller has in hand.
    Arguments past K'/2 are folded with sn(u + i*K') = 1/(k*sn(u)), which
    preserves relative accuracy all the way to the pole at K'.
    """
    if not 0.0 <= y < kp:
        raise ValueError(f"argument must lie in [0, K'), got {y} with K'={kp}")
    m = kc * kc
    fold = y > 0.5 * kp
    yy = kp - y if fold else y
    sn, _, _ = jacobi_sn_cn_dn(1j * yy, m)
    t = sn.imag
    if fold:
        t = 1.0 / (kc * t)
    return t
