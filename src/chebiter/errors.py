"""Exception and warning types shared across the package."""

__all__ = [
    "ChebiterError",
    "ConfigError",
    "DegenerateOperator",
    "DimensionError",
    "InvalidInput",
    "InvalidRange",
    "NonFiniteValue",
    "NotAFixedPoint",
    "NotConverged",
    "NotSymmetric",
    "SingularDiagonal",
    "SpectrumNotCertifiedReal",
]


class ChebiterError(Exception):
    """Base class for all package errors."""


class InvalidRange(ChebiterError, ValueError):
    """Eigenvalue range is malformed or outside the domain an operation needs."""


class DimensionError(ChebiterError, ValueError):
    """Vector or matrix dimensions do not match the declared map dimension."""


class NonFiniteValue(ChebiterError, ArithmeticError):
    """A computation produced NaN or infinity where finite values are required."""


class NotSymmetric(ChebiterError, ValueError):
    """Matrix fails the symmetry tolerance of a symmetric-only operation."""


class NotAFixedPoint(ChebiterError, ValueError):
    """Point offered as a fixed point does not satisfy f(x) = x within tolerance."""


class NotConverged(ChebiterError, ArithmeticError):
    """An iteration stopped short: an eigensolver at its step cap, or a needed run diverged."""


class InvalidInput(ChebiterError, ValueError):
    """Argument violates an operation precondition not covered by a finer type."""


class SingularDiagonal(ChebiterError, ValueError):
    """Matrix diagonal contains a zero entry where a splitting needs to divide by it."""


class DegenerateOperator(ChebiterError, ValueError):
    """Operator is identically zero or otherwise unusable for the requested build."""


class ConfigError(ChebiterError, ValueError):
    """Experiment configuration is incomplete or inconsistent."""


class SpectrumNotCertifiedReal(UserWarning):
    """Jacobian is not symmetric and carries no certificate that its spectrum is real.

    Emitted when an eigenvalue range is estimated from the symmetric part
    of the Jacobian as a fallback. That range encloses the real parts of
    all eigenvalues (Bendixson's theorem), so it is valid but loose, and a
    schedule built on it can grow the error far before contracting when
    the Jacobian is non-normal.
    """
