"""Exception types shared across the package, and three argument checks."""
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
    """Violation of the message/schedule protocol (duplicate message,
    version-law breach, accumulator overflow, or a missing message: an
    empty edge of run_clocked, or one of run_parallel past its timeout)."""


class ComparisonError(AdlError, ValueError):
    """Traces cannot be compared (e.g. different update ranges)."""


def check_finite_nonneg(name: str, value, error=DomainError):
    """value if it is a finite number >= 0, else raise error; NaN fails."""
    if not 0.0 <= value < float("inf"):
        raise error(f"{name} must be >= 0 and finite, got {value}")
    return value


def check_pos(name: str, value, error=DomainError):
    """float(value) if it is finite and > 0, else raise error; NaN fails."""
    value = float(value)
    if not 0.0 < value < float("inf"):
        raise error(f"{name} must be positive and finite, got {value}")
    return value


def check_int(name: str, value, error=DomainError):
    """int(value) if it is a Python or numpy integer, not a bool."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)
