"""Exception types shared across the package."""


class GLPeriodError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GLPeriodError):
    """Invalid run configuration (CLI exit code 2)."""


class SeamDecayViolation(GLPeriodError):
    """A spatial profile does not decay at the periodic seam x = -L/2."""


class OddnessViolation(GLPeriodError):
    """A field required to satisfy f(-x) = -f(x) fails the lattice check."""

    def __init__(self, what: str, tol: float):
        super().__init__(f"{what} is not odd on the lattice: its even part exceeds "
                         f"{tol:.0e} of its largest coefficient")


class NonFiniteField(GLPeriodError):
    """A field acquired non-finite values (iteration or time-stepping
    escaped its stability region)."""
