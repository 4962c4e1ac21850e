"""Exception types raised across the package."""


class EnslatError(Exception):
    """Base class for all package-specific errors."""


# --- measures ---

class UnsupportedFamily(EnslatError):
    """Operation not defined for this distribution family (or its cutoff state)."""


class InvalidOrder(EnslatError):
    """Requested recurrence/quadrature order is out of range."""


class UnboundedSupport(EnslatError):
    """Distribution support is unbounded; set an explicit cutoff first."""


class NumericalBreakdown(EnslatError):
    """A computation broke down numerically: a recurrence norm became
    non-positive (order too large for the grid), or an operator or a
    propagation held non-finite values."""


class EmptySupport(EnslatError, ValueError):
    """Requested cutoff window is empty on the support, or carries no probability mass
    (or, for a grid, mass past the reach where its density is a normal float)."""


# --- lattice ---

class TableTooShort(EnslatError):
    """Recurrence table order is insufficient for the requested construction."""


class DimensionMismatch(EnslatError):
    """Inconsistent number of disorder dimensions between inputs."""


# --- states ---

class NotNormalized(EnslatError):
    """Input amplitude vector is not normalized to unity."""


class NormDefectExceeded(EnslatError):
    """Truncated expansion lost more norm than the configured tolerance."""


# --- dynamics ---

class LeakageExceeded(EnslatError):
    """Boundary-shell population crossed the threshold: lattice depth too small
    for the requested horizon.  ``report`` holds the trajectory up to the
    offending output."""

    def __init__(self, message, time=None, leakage=None, report=None):
        super().__init__(message)
        self.time = time
        self.leakage = leakage
        self.report = report


# --- oracle ---

class SystemTooLarge(EnslatError):
    """System dimension too large for dense per-realization evolution."""


class NotHermitian(EnslatError):
    """Matrix expected to be Hermitian is not (within tolerance)."""


# --- cli ---

class ConfigError(EnslatError):
    """Invalid run configuration; message carries the offending field path."""
