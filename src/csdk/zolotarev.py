"""Best rational approximations of the sign function on [-1,-l] u [l,1].

One member of the family has the odd form

    f(x) = x * prod_j (x**2 + z_j) / (x**2 + q_j),        j = 1..p,

with interlacing positive constants q_1 < z_1 < q_2 < ... < z_p obtained
from Jacobi elliptic functions of modulus sqrt(1 - l**2).  Normalized so
f(1) = 1, it maps [l, 1] onto [l', 1] with 1 - l' tiny, and [0, l] into
[0, l'] monotonically.  Composing a second member built for [l', 1] squares
the effective degree; two rounds with p = 8 flatten intervals as wide as
[1e-15, 1] to within roundoff of 1.  The p = 1 member is the dynamically
weighted Halley map, for which closed-form weights are used instead of
elliptic coefficients.

Matrix iterations apply f through its partial-fraction form (one QR or
linear solve per term); `eval_sign_approx` is the exact scalar shadow of a
schedule of such rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_k_from_complement, jacobi_sn_imag

MAX_ORDER = 8


@dataclass(frozen=True)
class SignIterationFactors:
    """One round of the rational map, ready for matrix or scalar use.

    The map is x -> (x + sum_j residues_j * x / (x**2 + poles_j)) / normalizer,
    equal to x * prod_j (x**2 + zeros_j) / (x**2 + poles_j) / normalizer.
    ell_next is the image of ell, the lower edge of the next interval.
    """

    poles: np.ndarray
    zeros: np.ndarray
    residues: np.ndarray
    normalizer: float
    ell: float
    ell_next: float


def halley_weights(ell: float) -> tuple[float, float, float]:
    """Dynamically weighted Halley coefficients (a, b, c) for x(a+bx^2)/(1+cx^2)."""
    l2 = ell * ell
    d = (4.0 * (1.0 - l2) / (l2 * l2)) ** (1.0 / 3.0)
    sq = math.sqrt(1.0 + d)
    a = sq + 0.5 * math.sqrt(8.0 - 4.0 * d + 8.0 * (2.0 - l2) / (l2 * sq))
    b = (a - 1.0) ** 2 / 4.0
    c = a + b - 1.0
    return a, b, c


def zolotarev_coefficients(ell: float, p: int) -> np.ndarray:
    """The 2p interlacing constants c_1 < c_2 < ... < c_2p for interval edge ell.

    c_i = ell**2 * sn**2 / cn**2 at argument i*K'/(2p+1) and modulus
    sqrt(1 - ell**2); evaluated through the imaginary axis of the
    complementary parameter so that tiny ell stays fully accurate.
    """
    kp = complete_k_from_complement(ell)
    c = np.empty(2 * p)
    for i in range(1, 2 * p + 1):
        t = jacobi_sn_imag(i * kp / (2 * p + 1), ell, kp)
        c[i - 1] = (ell * t) ** 2
    return c


def _residues(poles: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    p = len(poles)
    res = np.empty(p)
    for j in range(p):
        num = np.prod(zeros - poles[j])
        den = 1.0
        for k in range(p):
            if k != j:
                den *= poles[k] - poles[j]
        res[j] = num / den
    return res


def _product_map(x, poles: np.ndarray, zeros: np.ndarray, normalizer: float):
    # Evaluated in extended precision: the composed map must stay within a
    # few ulp of 1 across the whole interval, and ~50 double roundings of
    # the plain product would already cost more than that.  (Where
    # longdouble is an alias of double this degrades gracefully.)
    xs = np.asarray(x, dtype=np.longdouble)
    x2 = xs * xs
    out = xs / np.longdouble(normalizer)
    for q, z in zip(poles, zeros):
        out = out * ((x2 + np.longdouble(z)) / (x2 + np.longdouble(q)))
    return np.asarray(out, dtype=float)


def sign_iteration_factors(ell: float, p: int) -> SignIterationFactors:
    """Build one round of the order-p map for current interval edge ell."""
    if p == 1:
        a, b, c = halley_weights(ell)
        poles = np.array([1.0 / c])
        zeros = np.array([a / b])
    else:
        coeff = zolotarev_coefficients(ell, p)
        poles = coeff[0::2].copy()
        zeros = coeff[1::2].copy()
    normalizer = float(np.prod((1.0 + zeros) / (1.0 + poles)))
    residues = _residues(poles, zeros)
    ell_next = float(_product_map(ell, poles, zeros, normalizer))
    return SignIterationFactors(poles, zeros, residues, normalizer, ell, ell_next)


def eval_sign_approx(x, schedule):
    """Scalar shadow of the matrix rounds of a schedule (a sequence of
    SignIterationFactors); accepts scalars or arrays."""
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    out = xs.reshape(-1).copy()
    for fac in schedule:
        out = _product_map(out, fac.poles, fac.zeros, fac.normalizer)
    if scalar:
        return float(out[0])
    return out.reshape(xs.shape)
