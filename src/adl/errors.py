"""Exception types shared across the package, and two argument checks."""
import numbers


class AdlError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(AdlError, ValueError):
    """Tensor shape or layer dimension mismatch."""


class DomainError(AdlError, ValueError):
    """Argument outside the mathematical domain of a function."""


class ConfigError(AdlError, ValueError):
    """Invalid or inconsistent run configuration."""


class ProtocolError(AdlError, RuntimeError):
    """Violation of the message/schedule protocol (missing or duplicate
    message, version-law breach, accumulator overflow, deadlock)."""


class ComparisonError(AdlError, ValueError):
    """Traces cannot be compared (e.g. different update ranges)."""


def check_finite_nonneg(name: str, value, error=DomainError):
    """value if it is a finite number >= 0, else raise error; NaN fails."""
    if not 0.0 <= value < float("inf"):
        raise error(f"{name} must be >= 0 and finite, got {value}")
    return value


def check_int(name: str, value, error=DomainError):
    """int(value) if it is a Python or numpy integer, not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)
