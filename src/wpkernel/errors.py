"""Exception types shared across the library and the argument checks that raise them."""

import cmath
import math
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
    """A computation exceeded its precision budget."""


class ResolutionError(RuntimeError):
    """Quadrature resolution insufficient for the requested accuracy."""


class ToleranceError(RuntimeError):
    """Spectral coefficients fail to decay below the truncation tolerance."""


class ConfigError(ValueError):
    """Invalid command-line or config-file input."""


def check_index(value, name: str, lo: int, hi: int | None = None) -> None:
    """DomainError unless value is an integer with lo <= value, and value <= hi if hi is given.
    A plain int skips the abc check, which costs more than the comparisons."""
    if ((type(value) is not int and not isinstance(value, numbers.Integral))
            or value < lo or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")


def check_n(n) -> None:
    """DomainError unless the particle count n is an integer >= 1."""
    check_index(n, "particle count n", 1)


def check_positive(value, name: str) -> None:
    """DomainError unless 0 < value < inf (NaN fails)."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def check_finite(*values) -> None:
    """DomainError unless every value is finite."""
    for v in values:
        if not cmath.isfinite(v):
            raise DomainError(f"arguments must be finite, got {v!r}")


def extent(z) -> float:
    """|Re z| + |Im z| >= |z| of a number, max |Re| + max |Im| over an array, in Python
    floats (never raising or warning); nan or inf where a value is or the parts' sum overflows."""
    if isinstance(z, np.ndarray):
        return float(np.abs(z.real).max(initial=0.0)) + float(np.abs(z.imag).max(initial=0.0))
    return math.fabs(z.real) + math.fabs(z.imag)


def check_scale(scale) -> None:
    """DomainError unless scale, a bound from `extent` of the largest float64
    value the caller will form (|z|, n |zeta|, n |z|^2), is finite."""
    if not math.isfinite(scale):
        raise DomainError("points must be finite and below the float64 overflow scale")
