"""Exception types shared across the library and the argument checks that raise them."""

import cmath
import numbers

import numpy as np


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at (or too close to) a pole."""


class RegimeError(DomainError):
    """Point lies outside the asymptotic regime an expansion is valid in."""

    def __init__(self, message, region=None):
        super().__init__(message)
        self.region = region


class BeltError(RegimeError):
    """Normal coordinate exceeds the boundary-belt width."""


class PrecisionError(RuntimeError):
    """A computation exceeded its precision budget or failed a cross-check."""


class ResolutionError(RuntimeError):
    """Quadrature resolution insufficient for the requested accuracy."""


class ToleranceError(RuntimeError):
    """Spectral coefficients fail to decay below the truncation tolerance."""


class ConfigError(ValueError):
    """Invalid command-line or config-file input."""


def check_n(n) -> None:
    """DomainError unless the particle count n is an integer >= 1."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"particle count n must be an integer >= 1, got {n!r}")


def check_finite(*values) -> None:
    """DomainError unless every value, or every entry of an array value, is finite."""
    for v in values:
        if not (np.all(np.isfinite(v)) if isinstance(v, np.ndarray) else cmath.isfinite(v)):
            raise DomainError(f"arguments must be finite, got {v!r}")
