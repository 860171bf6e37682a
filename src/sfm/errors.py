"""Exception types shared across the toolkit, and the one input limit that
the CLI checks before it loads numpy."""

# Fewest draws the identity battery accepts (``mc.validate_identities``).
MIN_DRAWS = 10_000


class DataError(Exception):
    """Raised for malformed, inconsistent, or out-of-range input data."""


class DegenerateSeriesError(DataError):
    """Raised when a log series has zero variance and correlations are undefined."""


class DomainError(ValueError):
    """Raised when an argument leaves the mathematical domain of an operation."""


class SingularSubsystemError(ValueError):
    """Raised when the 3x3 subsystem in (b, w, d) is singular at a grid point."""


class SolverError(RuntimeError):
    """Raised when the solver's end point leaves the float range."""
