"""Exception types shared across the package."""


class EpiLabError(Exception):
    """Base class for all errors raised by epi_lab."""


class DomainError(EpiLabError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(EpiLabError):
    """Channel or semigroup parameters outside their valid range."""


class NegativeTimeError(EpiLabError):
    """Semigroup evolution requested for t < 0."""


class LabelError(EpiLabError):
    """Unknown subsystem label."""


class NonPositiveError(EpiLabError):
    """Matrix expected to be positive definite is not."""


class PhysicalityError(EpiLabError):
    """Covariance matrix violates the uncertainty bound."""


class GridTooSmallError(EpiLabError):
    """Phase-space grid cannot hold the density within its tail budget."""


class SpacingMismatchError(EpiLabError):
    """Densities convolved on grids of different spacings."""


class TailError(EpiLabError):
    """Fock truncation leaves too much population in the top level."""


class NegativeEigenvalueError(EpiLabError):
    """Eigenvalue below the negativity clamp threshold."""


class DimensionMismatchError(EpiLabError):
    """Operators defined on different spaces."""


class QuadratureError(EpiLabError):
    """Phase-space quadrature too coarse for the requested channel."""


class DriftError(EpiLabError):
    """Channel output trace drifted beyond the abort threshold."""


class ConvergenceError(EpiLabError):
    """Finite-difference estimate did not converge within its budget."""


class UnsupportedFamilyError(EpiLabError):
    """Input state is not in a family with certified conditional independence."""


class UsageError(EpiLabError):
    """Invalid command line or configuration input."""
