"""Seeded generators for the benchmark matrix classes.

Class 1 is Haar on the complex Stiefel manifold; class 2 stacks Haar
factors around heavily clustered principal angles; classes 3 and 4 are
their rank-deficient counterparts with rank r = nint(3n/4).  Primed
variants add complex Gaussian noise at 1e-10.  `gen_with_singular_values`
puts given singular values between two Haar factors.  Everything is a
pure function of (dims, seed): draws come from a Philox counter-based
stream with Box-Muller normals, so outputs are bit-reproducible across
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .isometry import stack_cs
from .kernel import qr_factor

NOISE_LEVEL = 1e-10

# Offset deriving the noise stream of a primed test from the base seed.
_NOISE_SEED_OFFSET = 0x9E3779B9


def nint(x: float) -> int:
    """Nearest integer, halves away from zero."""
    return int(np.floor(x + 0.5)) if x >= 0 else -int(np.floor(-x + 0.5))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Entries with independent standard-normal real and imaginary parts."""
    u1 = 1.0 - rng.random(shape)
    u2 = rng.random(shape)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle) + 1j * radius * np.sin(angle)


def _haar(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    # The nonnegative-diagonal QR convention makes Q exactly Haar, not
    # merely orthonormal.
    return qr_factor(_complex_gaussian(rng, (m, n))).q


def gen_haar_stiefel(m: int, n: int, seed: int) -> np.ndarray:
    """Haar-distributed m x n matrix with orthonormal columns."""
    if m < n:
        raise ValueError(f"need m >= n, got {m} x {n}")
    return _haar(_rng(seed), m, n)


def gen_with_singular_values(m: int, n: int, sigma, seed: int) -> np.ndarray:
    """m x n matrix P diag(sigma) Q* with Haar factors, P drawn from seed
    and Q from seed + 1."""
    p = gen_haar_stiefel(m, n, seed)
    q = gen_haar_stiefel(n, n, seed + 1)
    return (p * np.asarray(sigma)) @ q.conj().T


def _clustered_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    delta = 10.0 ** (-18.0 * rng.random(n + 1))
    return (np.pi / 2.0) * np.cumsum(delta[:n]) / np.sum(delta)


def _clustered_factors(n: int, seed: int):
    """(rng, U1, U2, V1, theta): Haar factors and clustered angles, drawn
    in that order from the stream of seed."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = _rng(seed)
    u1, u2, v1 = (_haar(rng, n, n) for _ in range(3))
    return rng, u1, u2, v1, _clustered_angles(rng, n)


def gen_clustered(n: int, seed: int) -> np.ndarray:
    """2n x n matrix with orthonormal columns and clustered principal angles.

    Angle increments are log-uniform over 18 decades, so runs of nearly
    equal angles (near 0 and elsewhere) appear with high probability; these
    are the inputs on which one-sided eigenvector strategies break down.
    """
    _, u1, u2, v1, theta = _clustered_factors(n, seed)
    return stack_cs(u1, u2, v1, np.cos(theta), np.sin(theta))


def gen_rank_deficient_haar(n: int, seed: int) -> np.ndarray:
    """Exact partial isometry X Y* of rank nint(3n/4) with Haar factors."""
    if n < 2:
        raise ValueError("n must be at least 2")
    r = nint(3 * n / 4)
    rng = _rng(seed)
    x = _haar(rng, 2 * n, r)
    y = _haar(rng, n, r)
    return x @ y.conj().T


def gen_rank_deficient_clustered(n: int, seed: int) -> np.ndarray:
    """Clustered-angle matrix with both diagonals zeroed at n - r indices."""
    rng, u1, u2, v1, theta = _clustered_factors(n, seed)
    r = nint(3 * n / 4)
    c, s = np.cos(theta), np.sin(theta)
    dropped = rng.choice(n, size=n - r, replace=False)
    c[dropped] = 0.0
    s[dropped] = 0.0
    return stack_cs(u1, u2, v1, c, s)


def add_noise(a: np.ndarray, level: float, seed: int) -> np.ndarray:
    """A + level * (G_re + i G_im) with independent standard-normal parts."""
    if level == 0.0:
        return np.asarray(a, dtype=np.complex128)
    rng = _rng(seed)
    return np.asarray(a, dtype=np.complex128) + level * _complex_gaussian(rng, a.shape)


@dataclass(frozen=True)
class TestCase:
    """Descriptor of one benchmark instance: class 1-4, noise flag, size, seed."""

    # Not a pytest class, despite the name.
    __test__ = False

    class_id: int
    noisy: bool
    n: int
    seed: int

    def __post_init__(self):
        if self.class_id not in (1, 2, 3, 4):
            raise ValueError(f"class_id must be 1..4, got {self.class_id}")
        if self.n < 2:
            raise ValueError("n must be at least 2")

    @property
    def label(self) -> str:
        return f"{self.class_id}'" if self.noisy else f"{self.class_id}"

    @property
    def rank(self) -> int:
        return nint(3 * self.n / 4) if self.class_id in (3, 4) else self.n


def generate(case: TestCase) -> np.ndarray:
    """Materialize a test matrix from its descriptor."""
    makers = {
        1: lambda: gen_haar_stiefel(2 * case.n, case.n, case.seed),
        2: lambda: gen_clustered(case.n, case.seed),
        3: lambda: gen_rank_deficient_haar(case.n, case.seed),
        4: lambda: gen_rank_deficient_clustered(case.n, case.seed),
    }
    a = makers[case.class_id]()
    if case.noisy:
        a = add_noise(a, NOISE_LEVEL, case.seed ^ _NOISE_SEED_OFFSET)
    return a


def bench_sizes() -> list[int]:
    """The default benchmark sizes nint(30 * 2**(j/2)), j = 0..4."""
    return [nint(30.0 * 2.0 ** (j / 2.0)) for j in range(5)]
