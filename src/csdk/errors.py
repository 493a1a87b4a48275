"""Exception types shared across the package."""


class CsdkError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CsdkError):
    """Input matrix shape violates a routine's requirements."""


class ConvergenceError(CsdkError):
    """An iteration failed to converge within its cap."""


class PreconditionError(CsdkError):
    """A routine was called outside its stated precondition."""


class NotNearIsometryError(CsdkError):
    """Input is too far from any partial isometry to decompose meaningfully."""


class MatrixFormatError(CsdkError):
    """A matrix file could not be parsed."""
