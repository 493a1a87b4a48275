"""CS decomposition of stacked orthonormal-column matrices and partial
isometries, computed from two polar decompositions and one Hermitian
eigendecomposition.

The top level holds the user API.  The supporting factorization stack
(rational sign-function polar iterations, spectral divide-and-conquer
eigensolver) and the seeded benchmark generators are imported from their
submodules: `csdk.polar`, `csdk.symeig`, `csdk.kernel`, `csdk.testgen`.
"""

from .csd import CsdOptions, CsdResult, csd, csd_2x2
from .errors import (
    ConvergenceError,
    CsdkError,
    DimensionError,
    IndefiniteMatrixError,
    MatrixFormatError,
    NotNearIsometryError,
    PreconditionError,
)
from .isometry import StabilityReport, dist_to_partial_isometry, stability_report

__version__ = "0.1.0"

__all__ = [
    "CsdOptions",
    "CsdResult",
    "ConvergenceError",
    "CsdkError",
    "DimensionError",
    "IndefiniteMatrixError",
    "MatrixFormatError",
    "NotNearIsometryError",
    "PreconditionError",
    "StabilityReport",
    "csd",
    "csd_2x2",
    "dist_to_partial_isometry",
    "stability_report",
]
