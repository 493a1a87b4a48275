"""Eigensolver contracts: splitting, recursion, direct oracle."""

import numpy as np
import pytest

from csdk.errors import ConvergenceError
from csdk.kernel import U_ROUNDOFF, hermitian_part, norm_2, norm_fro
import csdk.symeig as symeig_module
from csdk.symeig import spectral_split, symeig_deflating, symeig_direct, symeig_sdc


def rand_herm(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


class TestSpectralSplit:
    def test_two_point_spectrum(self):
        vplus, vminus, nplus = spectral_split(np.diag([-1.0, 1.0]).astype(complex), 0.0)
        assert nplus == 1
        np.testing.assert_allclose(np.abs(vplus.ravel()), [0.0, 1.0], atol=1e-14)

    def test_all_positive(self):
        vplus, vminus, nplus = spectral_split(np.eye(2, dtype=complex), 0.0)
        assert nplus == 2
        assert vminus.shape == (2, 0)

    def test_count_matches_direct_oracle(self):
        b = rand_herm(8, seed=3)
        s = float(np.median(np.real(np.diagonal(b))))
        _, _, nplus = spectral_split(b, s)
        assert nplus == int(np.sum(np.linalg.eigvalsh(b) > s))

    def test_invariants(self):
        b = rand_herm(12, seed=4)
        diag = {}
        vplus, vminus, nplus = spectral_split(b, 0.0, diag)
        n = 12
        assert diag["projector_defect"] <= 50 * n * U_ROUNDOFF
        assert diag["decoupling"] <= 50 * n * U_ROUNDOFF
        full = np.hstack([vplus, vminus])
        assert norm_fro(full.conj().T @ full - np.eye(n)) <= 50 * n * U_ROUNDOFF

    def test_split_at_eigenvalue_signals(self):
        b = np.diag([1.0, 1.0, 2.0]).astype(complex)
        with pytest.raises(ConvergenceError):
            spectral_split(b, 1.0)


class TestSymeigSdc:
    def test_diagonal_permutation(self):
        res = symeig_sdc(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(res.lam, [1.0, 2.0, 3.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_identity(self):
        res = symeig_sdc(np.eye(3, dtype=complex))
        np.testing.assert_allclose(res.lam, np.ones(3))
        assert norm_fro(res.v.conj().T @ res.v - np.eye(3)) <= 50 * 3 * U_ROUNDOFF

    @pytest.mark.parametrize("n", [10, 50])
    def test_against_direct_oracle(self, n):
        b = rand_herm(n, seed=n)
        sdc = symeig_sdc(b)
        direct = symeig_direct(b)
        bound = 1e2 * n * U_ROUNDOFF * norm_2(b)
        assert np.max(np.abs(sdc.lam - direct.lam)) <= bound
        assert norm_fro(sdc.v.conj().T @ sdc.v - np.eye(n)) <= 50 * n * U_ROUNDOFF
        recon = (sdc.v * sdc.lam) @ sdc.v.conj().T
        assert norm_fro(recon - b) <= 50 * n * U_ROUNDOFF * norm_fro(b)

    def test_split_log_invariants(self):
        b = rand_herm(40, seed=17)
        log = []
        symeig_sdc(b, split_log=log)
        assert log, "expected at least one split for n=40"
        for entry in log:
            blk = entry["size"]
            assert entry["projector_defect"] <= 50 * blk * U_ROUNDOFF
            assert entry["decoupling"] <= 50 * blk * U_ROUNDOFF

    def test_eigenvalues_ascending_and_phases_normalized(self):
        res = symeig_sdc(rand_herm(20, seed=8))
        assert np.all(np.diff(res.lam) >= 0)
        idx = np.argmax(np.abs(res.v), axis=0)
        pivots = res.v[idx, np.arange(20)]
        assert np.all(np.abs(pivots.imag) <= 1e-12)
        assert np.all(pivots.real > 0)

    def test_no_split_fails_on_criterion_6_inputs(self, monkeypatch):
        # Every split's polar iteration starts from the 1e-15 floor on
        # sigma_min / sigma_max; on criterion 6's random Hermitian matrices
        # it must still converge within its six rounds at every shift.
        failures = []

        def recorded(b, s, diagnostics=None):
            try:
                return split(b, s, diagnostics)
            except ConvergenceError as exc:
                failures.append((b.shape[0], s, str(exc)))
                raise

        split = symeig_module.spectral_split
        monkeypatch.setattr(symeig_module, "spectral_split", recorded)
        sizes = [5, 10, 20, 35, 50, 64, 80, 100]
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = sizes[seed % len(sizes)]
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            symeig_sdc(hermitian_part(g))
        assert failures == []


class TestSymeigDirect:
    def test_scalar(self):
        res = symeig_direct(np.array([[5.0 + 0j]]))
        np.testing.assert_allclose(res.lam, [5.0])

    def test_exchange_matrix(self):
        res = symeig_direct(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(res.lam, [-1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(np.abs(res.v), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-14)

    def test_trace_identity(self):
        b = rand_herm(15, seed=23)
        res = symeig_direct(b)
        assert abs(np.trace(b).real - np.sum(res.lam)) <= 1e2 * 15 * U_ROUNDOFF * norm_fro(b)


def ascending_with_noise(n, level, seed, equal=()):
    """diag(linspace(-1, 1, n)) plus Hermitian couplings of size `level`
    off the diagonal; each (i, j) in `equal` gives b_jj = b_ii, and no
    coupling, or else a coupling of 1e-3, between them."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = level * hermitian_part(g)
    np.fill_diagonal(b, np.linspace(-1.0, 1.0, n))
    for i, j, coupling in equal:
        b[j, j] = b[i, i]
        b[i, j] = b[j, i] = coupling
    return b


def eigh_sizes(monkeypatch):
    """The order of each matrix that numpy's eigh is called on."""
    sizes = []
    eigh = np.linalg.eigh

    def recording(b):
        sizes.append(b.shape[0])
        return eigh(b)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


class TestSymeigRotated:
    """symeig_deflating on B whose couplings are small against the gaps of
    its diagonal: clusters are solved, and the couplings between them
    dropped, or rotated away to first order, or else B is solved whole."""

    @pytest.mark.parametrize(
        "equal, solved",
        [
            ((), []),
            (((10, 11, 1e-3), (10, 12, 1e-3), (30, 31, 0.0)), [3, 2]),
        ],
        ids=["all-1x1", "clusters"],
    )
    def test_bounds(self, monkeypatch, equal, solved):
        n = 60
        b = ascending_with_noise(n, 1e-10, seed=1, equal=equal)
        sizes = eigh_sizes(monkeypatch)
        with np.errstate(all="raise"):
            res = symeig_deflating(b)
        assert res.method == "rotated"
        assert sizes == solved
        bound = n * U_ROUNDOFF
        assert norm_2(b @ res.v - res.v * res.lam) <= bound * norm_fro(b)
        assert norm_2(res.v.conj().T @ res.v - np.eye(n)) <= bound
        assert np.max(np.abs(res.lam - np.linalg.eigvalsh(b))) <= bound

    @pytest.mark.parametrize(
        "level, equal",
        [
            # Each coupling lies below 1e-6 of its gap, and the mass clears
            # the pre-check, but ||F|| ||E|| exceeds n u ||B||_F.
            (4e-9, ()),
            # Couplings above 1e-6 of their gaps join one cluster of all n.
            (1e-3, ()),
            # ||F||_F^2 exceeds 2 n u ||B||_F^2.
            (1.5e-8, ()),
            # 26 equal diagonal entries make a cluster larger than n/2.
            (1e-10, tuple((0, j, 0.0) for j in range(1, 26))),
        ],
        ids=["rotation-too-large", "one-cluster", "mass", "half"],
    )
    def test_refused_b_takes_one_eigh(self, monkeypatch, level, equal):
        # Whatever refuses B, before any cluster solve, it goes unsorted to
        # one symeig_direct, with the same bits.
        n = 50
        b = ascending_with_noise(n, level, seed=2, equal=equal)
        direct = symeig_direct(b)
        sizes = eigh_sizes(monkeypatch)
        res = symeig_deflating(b)
        assert res.method == "direct"
        assert sizes == [n]
        np.testing.assert_array_equal(res.v, direct.v)
        np.testing.assert_array_equal(res.lam, direct.lam)

    @pytest.mark.parametrize(
        "b",
        [rand_herm(40, seed=6), np.zeros((40, 40), dtype=complex)],
        ids=["dense", "equal-diagonal"],
    )
    def test_one_cluster_goes_to_one_eigh_unsorted(self, monkeypatch, b):
        # Every pair is coupled, or the diagonal is equal, so B is one
        # cluster: it goes unsorted to one symeig_direct, with its bits.
        direct = symeig_direct(b)
        sizes = eigh_sizes(monkeypatch)
        res = symeig_deflating(b)
        assert res.method == "direct" and sizes == [b.shape[0]]
        np.testing.assert_array_equal(res.v, direct.v)
        np.testing.assert_array_equal(res.lam, direct.lam)

    def test_clusters_joined_through_a_chain_are_one_cluster(self, monkeypatch):
        # Each neighbour couples above _GAP_TOL of its gap, but the two
        # ends do not: the chain still makes B one cluster, found by the
        # sort, and B goes unsorted to one symeig_direct.
        n = 20
        b = np.diag(np.linspace(-1.0, 1.0, n)).astype(complex)
        for i in range(n - 1):
            b[i, i + 1] = b[i + 1, i] = 1e-3
        direct = symeig_direct(b)
        stops = []
        joined_stops = symeig_module._joined_stops

        def recording(coupled):
            stops.append(joined_stops(coupled))
            return stops[-1]

        monkeypatch.setattr(symeig_module, "_joined_stops", recording)
        res = symeig_deflating(b)
        assert [s.tolist() for s in stops] == [[n]]
        assert res.method == "direct"
        np.testing.assert_array_equal(res.v, direct.v)

    def test_equal_diagonal_without_coupling_is_one_cluster(self, monkeypatch):
        # Equal diagonal entries join a cluster even with no coupling, so
        # no gap of zero is divided by.
        n = 40
        equal = [(i, i + 1, 0.0) for i in range(0, n, 2)]
        b = ascending_with_noise(n, 1e-12, seed=3, equal=equal)
        sizes = eigh_sizes(monkeypatch)
        with np.errstate(all="raise"):
            res = symeig_deflating(b)
        assert res.method == "rotated"
        assert sizes == [2] * (n // 2)
        assert norm_2(b @ res.v - res.v * res.lam) <= n * U_ROUNDOFF * norm_fro(b)
        assert norm_2(res.v.conj().T @ res.v - np.eye(n)) <= n * U_ROUNDOFF

    def test_couplings_within_the_budget_are_dropped(self, monkeypatch):
        # 1e-18 couplings weigh far below n u ||B||_F, so they are dropped
        # (E = 0): the eigenvectors are blockdiag(V_k) up to the sort, and
        # only the cluster of the two equal diagonal entries goes to eigh.
        n = 40
        b = ascending_with_noise(n, 1e-18, seed=4, equal=((10, 11, 1e-3),))
        sizes = eigh_sizes(monkeypatch)
        res = symeig_deflating(b)
        assert res.method == "deflating"
        assert sizes == [2]
        assert np.count_nonzero(res.v) == (n - 2) + 4
        bound = n * U_ROUNDOFF
        assert norm_2(b @ res.v - res.v * res.lam) <= bound * norm_fro(b)
        assert norm_2(res.v.conj().T @ res.v - np.eye(n)) <= bound

    @pytest.mark.parametrize(
        "level, equal, method",
        [
            (1e-18, (), "deflating"),
            (1e-18, ((10, 11, 1e-3),), "deflating"),
            (1e-10, (), "rotated"),
            (1e-3, (), "direct"),
        ],
        ids=["dropped-all-1x1", "dropped-2x2", "rotated", "one-cluster"],
    )
    def test_rows_reported_exactly_where_v_is_a_permutation(self, level, equal, method):
        # rows is set only where every cluster is 1x1 and the couplings
        # are dropped; column j of V is then column rows[j] of I, the
        # index of the j-th smallest diagonal entry of this shuffled B.
        n = 40
        shuffle = np.random.default_rng(6).permutation(n)
        b = ascending_with_noise(n, level, seed=6, equal=equal)
        b = b[np.ix_(shuffle, shuffle)]
        res = symeig_deflating(b)
        assert res.method == method
        if method == "deflating" and not equal:
            np.testing.assert_array_equal(res.rows, np.argsort(b.diagonal().real))
            np.testing.assert_array_equal(res.v, np.eye(n)[:, res.rows])
        else:
            assert res.rows is None
        assert symeig_direct(b).rows is None and symeig_sdc(b).rows is None

    def test_coupling_above_gap_tol_joins_its_cluster(self, monkeypatch):
        # A coupling of 1e-4 of its diagonal gap joins its two indices in
        # one cluster, which eigh solves; rotated away instead, it would
        # leave an E of 1e-4 and more.
        n = 60
        b = ascending_with_noise(n, 1e-12, seed=5)
        b[20, 21] = 1e-4 * (b[21, 21] - b[20, 20]).real
        b[21, 20] = b[20, 21]
        sizes = eigh_sizes(monkeypatch)
        res = symeig_deflating(b)
        assert res.method == "rotated"
        assert sizes == [2]
        bound = n * U_ROUNDOFF
        assert norm_2(b @ res.v - res.v * res.lam) <= bound * norm_fro(b)
        assert norm_2(res.v.conj().T @ res.v - np.eye(n)) <= bound

    def test_rotation_above_rotation_max_is_refused(self, monkeypatch):
        # Index 2 couples by 1e-12 to the cluster {0, 1}, whose eigenvalue
        # 0.01 lies 1e-9 below its diagonal entry: E reads about 1e-3,
        # within the budget ||F||_F ||E||_F <= n u ||B||_F, but the
        # rotation would leave ||E||^4 / 4 of nonorthonormality.
        n = 20
        b = np.diag(np.linspace(-1.0, 1.0, n)).astype(complex)
        b[0, 0] = b[1, 1] = 0.0
        b[0, 1] = b[1, 0] = 0.01
        b[2, 2] = 0.01 + 1e-9
        b[0, 2] = b[2, 0] = 1e-12
        sizes = eigh_sizes(monkeypatch)
        res = symeig_deflating(b)
        assert res.method == "direct"
        assert sizes == [2, n]
        assert norm_2(res.v.conj().T @ res.v - np.eye(n)) <= n * U_ROUNDOFF
