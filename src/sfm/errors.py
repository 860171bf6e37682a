"""Exception types shared across the toolkit."""


class DataError(Exception):
    """Raised for malformed, inconsistent, or out-of-range input data."""


class DegenerateSeriesError(DataError):
    """Raised when a log series has zero variance and correlations are undefined."""


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class SingularSubsystemError(ValueError):
    """Raised when the 3x3 subsystem in (b, w, d) is singular at a grid point."""


class SolverError(RuntimeError):
    """Raised when the solver's residuals are non-finite at its initial point."""
