"""Plain-text matrix exchange formats.

Native format ("CMAT v1"): a header line `cmat <rows> <cols> <complex|real>`
followed by rows*cols whitespace-separated entries in row-major order,
complex entries as `<re> <im>` pairs.  Values are printed with 17
significant digits, which round-trips doubles exactly.  The reader also
accepts the MatrixMarket dense-array format (header-sniffed), whose
entries are column-major.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixFormatError
from .kernel import as_matrix


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_matrix(path, a) -> None:
    """Write a matrix in CMAT v1; real arrays get the `real` entry kind."""
    a = np.asarray(a)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise ValueError("only matrices and vectors can be saved")
    rows, cols = a.shape
    is_complex = np.iscomplexobj(a)
    kind = "complex" if is_complex else "real"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"cmat {rows} {cols} {kind}\n")
        for i in range(rows):
            if is_complex:
                parts = [f"{_fmt(v.real)} {_fmt(v.imag)}" for v in a[i]]
            else:
                parts = [_fmt(v) for v in a[i]]
            fh.write(" ".join(parts) + "\n")


def _entries(body: list[str], count: int, is_complex: bool, path) -> np.ndarray:
    """The count entries of a file body in file order, complex ones read
    from `<re> <im>` pairs."""
    expected = count * (2 if is_complex else 1)
    if len(body) != expected:
        raise MatrixFormatError(
            f"{path}: expected {expected} numbers, found {len(body)}"
        )
    try:
        values = np.array([float(tok) for tok in body])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-numeric entry") from exc
    if is_complex:
        values = values[0::2] + 1j * values[1::2]
    return values


def _parse_cmat(header: list[str], body: list[str], path) -> np.ndarray:
    if len(header) != 4:
        raise MatrixFormatError(f"{path}: malformed cmat header")
    try:
        rows, cols = int(header[1]), int(header[2])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad dimensions in header") from exc
    kind = header[3]
    if kind not in ("complex", "real") or rows < 0 or cols < 0:
        raise MatrixFormatError(f"{path}: bad cmat header fields")
    return _entries(body, rows * cols, kind == "complex", path).reshape(rows, cols)


def _parse_matrix_market(lines: list[str], path) -> np.ndarray:
    header = lines[0].split()
    if len(header) < 4 or header[1].lower() != "matrix":
        raise MatrixFormatError(f"{path}: unsupported MatrixMarket header")
    layout = header[2].lower()
    field = header[3].lower()
    if layout != "array":
        raise MatrixFormatError(f"{path}: only dense 'array' MatrixMarket supported")
    if field not in ("real", "complex", "integer"):
        raise MatrixFormatError(f"{path}: unsupported field {field!r}")
    if len(header) >= 5 and header[4].lower() != "general":
        raise MatrixFormatError(f"{path}: only 'general' symmetry supported")
    data = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not data:
        raise MatrixFormatError(f"{path}: missing size line")
    dims = data[0].split()
    try:
        rows, cols = (int(d) for d in dims)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad size line {data[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError(f"{path}: bad size line {data[0]!r}")
    body = " ".join(data[1:]).split()
    values = _entries(body, rows * cols, field == "complex", path)
    # MatrixMarket array data runs down columns.
    return values.reshape(cols, rows).T


def load_matrix(path) -> np.ndarray:
    """Read a CMAT v1 or MatrixMarket dense-array file as complex128."""
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    header = lines[0].split()
    if header[0].lower() == "%%matrixmarket":
        a = _parse_matrix_market(lines, path)
    elif header[0] == "cmat":
        body = " ".join(lines[1:]).split()
        a = _parse_cmat(header, body, path)
    else:
        raise MatrixFormatError(f"{path}: unrecognized header {lines[0]!r}")
    try:
        return as_matrix(a)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
