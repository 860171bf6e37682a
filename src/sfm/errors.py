"""Exception types and the record base shared across the toolkit, and the
draw limits that the CLI checks before it loads numpy."""

# Fewest draws the identity battery accepts (``mc.validate_identities``).
MIN_DRAWS = 10_000
# Most draws ``sfm validate`` accepts: a battery draw takes about 100 ns (2 cores),
# so 1e9 draws take under 2 minutes.
MAX_DRAWS = 1_000_000_000


class Record:
    """A frozen record: its ``__init__`` stores the fields in ``vars(self)``, in
    order, and they are read-only after it. The repr, == (within one class) and
    hash are those of a frozen dataclass with the same fields; a plain class
    generates no code when its module loads.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in vars(self).items()])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))


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
