"""Matrix file format round-trips and header sniffing."""

import numpy as np
import pytest

from csdk.cmat import load_matrix, save_matrix
from csdk.errors import MatrixFormatError


def test_complex_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "a.cmat"
    save_matrix(path, a)
    b = load_matrix(path)
    np.testing.assert_array_equal(a, b)


def test_real_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    path = tmp_path / "a.cmat"
    save_matrix(path, a)
    b = load_matrix(path)
    assert np.all(b.imag == 0.0)
    np.testing.assert_array_equal(a, b.real)


def test_vector_saved_as_column(tmp_path):
    v = np.array([0.1, 0.2, 0.3])
    path = tmp_path / "v.cmat"
    save_matrix(path, v)
    b = load_matrix(path)
    assert b.shape == (3, 1)
    np.testing.assert_array_equal(v, b.real.ravel())


def test_extreme_values_roundtrip(tmp_path):
    a = np.array([[1e-308, 1.0 + 2**-52], [17.0, 1e307]])
    path = tmp_path / "x.cmat"
    save_matrix(path, a)
    np.testing.assert_array_equal(load_matrix(path).real, a)


def test_matrix_market_real_array(tmp_path):
    real = """%%MatrixMarket matrix array real general
% comment line
3 2
1.0
2.0
3.0
4.0
5.0
6.0
"""
    integer = "%%MatrixMarket matrix array integer general\n3 2\n1\n2\n3\n4\n5\n6\n"
    for text in (real, integer):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        a = load_matrix(path)
        # Array entries run down columns.
        np.testing.assert_array_equal(a.real, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])


def test_matrix_market_complex_array(tmp_path):
    text = """%%MatrixMarket matrix array complex general
2 1
1.0 -1.0
2.5 0.5
"""
    path = tmp_path / "m.mtx"
    path.write_text(text)
    a = load_matrix(path)
    np.testing.assert_array_equal(a, [[1.0 - 1.0j], [2.5 + 0.5j]])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "cmat 2 2\n1 2 3 4\n",
        "cmat 2 2 complex\n1 2 3 4\n",
        "cmat two 2 real\n1 2 3 4\n",
        "cmat 2 2 real\n1 2 3\n",
        "cmat 2 2 real\n1 2 3 nan\n",
        "cmat 2 2 real\n1 2 3 bad\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n",
        "%%MatrixMarket matrix array real general\nx 2\n1 2\n",
        "%%MatrixMarket matrix array real general\n-1 -1\n1\n",
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
        "%%MatrixMarket matrix array real general\n2 1\n1\nbad\n",
        "garbage header\n1 2\n",
    ],
)
def test_malformed_files_rejected(tmp_path, text):
    path = tmp_path / "bad.cmat"
    path.write_text(text)
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(MatrixFormatError):
        load_matrix(tmp_path / "nope.cmat")
