"""Shared exception types, and the integer rule of configuration values."""

import numbers


class StochexpandError(Exception):
    pass


class SizeError(StochexpandError):
    """A resource guard (memory budget, jump budget, cost guard) was exceeded."""


class ConfigError(StochexpandError):
    """Invalid configuration document or argument combination."""


def check_integer(name: str, value, minimum: int) -> int:
    """value as an int; ConfigError unless it is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class QuadratureError(StochexpandError):
    """Quadrature failed to converge; carries the partial value."""

    def __init__(self, message, partial=None, error_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate
