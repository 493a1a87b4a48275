"""Seeded inputs for the csd benchmark, built without csdk.

The four classes follow the paper's experiments:

1. Haar-distributed 2n x n with orthonormal columns (Q of a complex
   Gaussian QR, R diagonal made nonnegative);
2. [U1 C V1*; U2 S V1*] with Haar factors and clustered principal angles,
   whose increments are log-uniform over 18 decades;
3. X Y*, a partial isometry of rank round(3n/4) with Haar X and Y;
4. class 2 with n - round(3n/4) (cos, sin) pairs zeroed.

Each input keeps the rank it was built with and, for classes 2 and 4,
the angles it was built from, so the checks need nothing from the program.
Noise is a complex Gaussian matrix scaled to the stated spectral norm.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Inputs that fail today for a reason named in the benchmark's README.
# They are built from this fixed seed, not the run's, so that every run
# fails on exactly the same operations.
FAULT_SEED = 20180424


@dataclass(frozen=True)
class Case:
    """One benchmark input and what is known about it by construction."""

    label: str
    a: np.ndarray
    m1: int
    rank: int
    angles: np.ndarray | None  # ascending, for classes 2 and 4
    noise: float
    known_fault: bool = False

    @property
    def full_rank(self) -> bool:
        return self.rank == self.a.shape[1]


@dataclass(frozen=True)
class Workload:
    """An input mix, the csd routes run on every input, and why."""

    name: str
    n: int
    cases: tuple[tuple[int, float], ...]  # (class, spectral-norm noise)
    copies: int  # independent inputs per (class, noise) pair
    methods: tuple[str | None, ...]  # polar_method; None means the default
    faults: tuple[tuple[int, float], ...] = ()


CLEAN_AND_NOISY = (0.0, 1e-10)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fullrank-iterative",
            n=120,
            cases=tuple((c, e) for c in (1, 2) for e in CLEAN_AND_NOISY),
            copies=2,
            methods=("qdwh", "zolo"),
        ),
        Workload(
            "rank-deficient",
            n=120,
            cases=tuple((c, e) for c in (3, 4) for e in CLEAN_AND_NOISY),
            copies=2,
            methods=(None,),
            faults=((3, 1e-6), (4, 1e-6)),
        ),
        Workload(
            "direct-route",
            n=240,
            cases=tuple((c, e) for c in (1, 2) for e in CLEAN_AND_NOISY),
            copies=1,
            methods=("svd",),
        ),
    )
}


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m x n with orthonormal columns, Haar distributed."""
    q, r = np.linalg.qr(_gaussian(rng, (m, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def clustered_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    delta = 10.0 ** (-18.0 * rng.random(n + 1))
    return (np.pi / 2.0) * np.cumsum(delta[:n]) / np.sum(delta)


def make_case(rng: np.random.Generator, cls: int, n: int, noise: float) -> Case:
    r = round(3 * n / 4) if cls in (3, 4) else n
    angles = None
    if cls == 1:
        a = haar(rng, 2 * n, n)
    elif cls == 3:
        a = haar(rng, 2 * n, r) @ haar(rng, n, r).conj().T
    elif cls in (2, 4):
        u1, u2, v1 = haar(rng, n, n), haar(rng, n, n), haar(rng, n, n)
        theta = clustered_angles(rng, n)
        c, s = np.cos(theta), np.sin(theta)
        if cls == 4:
            dropped = rng.choice(n, size=n - r, replace=False)
            c[dropped] = 0.0
            s[dropped] = 0.0
            theta = np.delete(theta, dropped)
        v1h = v1.conj().T
        a = np.vstack([(u1 * c) @ v1h, (u2 * s) @ v1h])
        angles = theta
    else:
        raise ValueError(f"unknown class {cls}")
    if noise > 0.0:
        g = _gaussian(rng, a.shape)
        a = a + (noise / np.linalg.norm(g, 2)) * g
    label = f"class{cls}" + (f"+{noise:.0e}" if noise else "")
    return Case(label, a, n, r, angles, noise)


def build_cases(workload: Workload, seed: int) -> list[Case]:
    """The distinct inputs of one workload: a pure function of the seed."""
    rng = np.random.default_rng(seed)
    cases = [
        make_case(rng, cls, workload.n, noise)
        for _ in range(workload.copies)
        for cls, noise in workload.cases
    ]
    fault_rng = np.random.default_rng(FAULT_SEED)
    cases += [
        replace(make_case(fault_rng, cls, workload.n, noise), known_fault=True)
        for cls, noise in workload.faults
    ]
    return cases
