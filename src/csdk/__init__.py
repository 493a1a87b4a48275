"""CS decomposition of stacked orthonormal-column matrices and partial
isometries, computed from two polar decompositions and one Hermitian
eigendecomposition.

The top level holds the user API.  `csd` works from one SVD per block
by default; `CsdOptions(polar_method="qdwh")` or `"zolo"` selects the
paper's rational sign-function iterations for the polar factors instead.  The
supporting factorization stack (those polar iterations, the spectral
divide-and-conquer eigensolver) and the seeded benchmark generators are
imported from their submodules: `csdk.polar`, `csdk.symeig`,
`csdk.kernel`, `csdk.testgen`.  On the iterative routes, fallbacks to the
SVD polar are logged as warnings on the "csdk" logger, which stays quiet
until the application configures logging.
"""

import logging

from .csd import CsdOptions, CsdResult, csd, csd_2x2
from .errors import (
    ConvergenceError,
    CsdkError,
    DimensionError,
    MatrixFormatError,
    NotNearIsometryError,
    PreconditionError,
)
from .isometry import StabilityReport, dist_to_partial_isometry, stability_report

logging.getLogger("csdk").addHandler(logging.NullHandler())

__version__ = "0.1.0"

__all__ = [
    "CsdOptions",
    "CsdResult",
    "ConvergenceError",
    "CsdkError",
    "DimensionError",
    "MatrixFormatError",
    "NotNearIsometryError",
    "PreconditionError",
    "StabilityReport",
    "csd",
    "csd_2x2",
    "dist_to_partial_isometry",
    "stability_report",
]
