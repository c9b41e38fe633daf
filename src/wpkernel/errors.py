"""Exception types shared across the library."""


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
