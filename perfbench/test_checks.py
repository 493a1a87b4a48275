"""Self-test of the benchmark's correctness checks and metric names.

    python3 -m pytest perfbench/test_checks.py -q

A factorization assembled from numpy's SVD passes every check; each
corruption of it is rejected, and every check rejects at least one.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from checks import check, make_oracle
from inputs import Case, haar, make_case
from layers import Tracer

N = 12


@dataclass(frozen=True)
class Factors:
    u1: np.ndarray
    u2: np.ndarray
    c: np.ndarray
    s: np.ndarray
    v1: np.ndarray
    theta: np.ndarray


def known_case(rank: int) -> Case:
    """[U1 C V1*; U2 S V1*] with well separated angles, rank pairs kept."""
    rng = np.random.default_rng(7)
    u1, u2, v1 = haar(rng, N, rank), haar(rng, N, rank), haar(rng, N, rank)
    theta = np.linspace(0.1, 1.4, rank)
    v1h = v1.conj().T
    a = np.vstack([(u1 * np.cos(theta)) @ v1h, (u2 * np.sin(theta)) @ v1h])
    return Case(f"rank{rank}", a, N, rank, theta, 0.0)


def svd_factors(case: Case) -> Factors:
    """The CS decomposition assembled from numpy's SVD of A1."""
    k = case.rank
    p, _, qh = np.linalg.svd(case.a[: case.m1], full_matrices=False)
    u1, v1 = p[:, :k], qh[:k].conj().T
    a2v = case.a[case.m1 :] @ v1
    s = np.linalg.norm(a2v, axis=0)
    c = np.real(np.diagonal(u1.conj().T @ case.a[: case.m1] @ v1))
    theta = np.arctan2(s, c)
    return Factors(u1, a2v / s, np.cos(theta), np.sin(theta), v1, theta)


def perturb_u1(f: Factors) -> Factors:
    g = np.random.default_rng(3).standard_normal(f.u1.shape)
    return replace(f, u1=f.u1 + 1e-8 * g / np.linalg.norm(g, 2))


def swap_angles(f: Factors) -> Factors:
    theta = f.theta.copy()
    theta[[0, -1]] = theta[[-1, 0]]
    return replace(f, theta=theta)


def drop_column(f: Factors) -> Factors:
    return Factors(f.u1[:, :-1], f.u2[:, :-1], f.c[:-1], f.s[:-1], f.v1[:, :-1],
                   f.theta[:-1])


def scale_c(f: Factors) -> Factors:
    return replace(f, c=f.c * (1.0 + 1e-8))


CORRUPTIONS = {
    perturb_u1: {"residual", "orthonormal"},
    swap_angles: {"theta_order", "angles"},
    drop_column: {"rank", "residual", "weyl"},
    scale_c: {"cs_identity"},
}

CHECKS = {"rank", "residual", "orthonormal", "theta_order", "cs_identity", "weyl",
          "angles", "cossin"}


def violations(case: Case, f: Factors) -> set[str]:
    found, _ = check(case, make_oracle(case.a, case.m1, case.full_rank), f)
    return {v.check for v in found}


@pytest.mark.parametrize("rank", [N, 9])
def test_svd_factorization_passes(rank):
    case = known_case(rank)
    assert violations(case, svd_factors(case)) == set()


@pytest.mark.parametrize("rank", [N, 9])
def test_each_corruption_is_rejected(rank):
    case = known_case(rank)
    ref = svd_factors(case)
    caught = set()
    for corrupt, expected in CORRUPTIONS.items():
        found = violations(case, corrupt(ref))
        assert expected <= found, (corrupt.__name__, found)
        caught |= found
    full_rank_only = {"cossin"}
    assert caught == (CHECKS if case.full_rank else CHECKS - full_rank_only)


def test_noisy_bound_is_ten_distances():
    rng = np.random.default_rng(5)
    case = make_case(rng, 2, N, 1e-10)
    f = svd_factors(case)
    assert "residual" not in violations(case, f)
    assert "residual" in violations(case, replace(f, u1=f.u1 * (1.0 + 1e-8)))


def test_csd_output_passes():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from csdk.csd import csd

    rng = np.random.default_rng(11)
    for cls in (1, 2, 3, 4):
        case = make_case(rng, cls, N, 0.0)
        assert violations(case, csd(case.a, case.m1)) == set(), case.label


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    reported = {(name, m["unit"]) for name, m in Tracer().metrics(1).items()}
    assert declared == reported
