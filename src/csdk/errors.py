"""Exception types shared across the package."""


class CsdkError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CsdkError):
    """Input matrix shape violates a routine's requirements."""


class IndefiniteMatrixError(CsdkError):
    """Cholesky factorization hit a non-positive pivot."""


class SingularTriangularError(CsdkError):
    """Triangular solve encountered a zero diagonal entry."""


class ConvergenceError(CsdkError):
    """An iteration failed to converge within its cap."""


class PreconditionError(CsdkError):
    """A routine was called outside its stated precondition."""


class NotNearIsometryError(CsdkError):
    """Input is too far from any partial isometry to decompose meaningfully."""


class RankInconsistencyError(CsdkError):
    """The rank found does not match the rank asserted: rank_mode="full" on
    input of rank r < n, or an active-pair count in postprocess_trig that
    differs from its rank argument."""


class MatrixFormatError(CsdkError):
    """A matrix file could not be parsed."""
