"""Overflow-safe complex arithmetic, exact polynomial algebra, and quadrature.

The central type is ``LogComplex``, a complex number stored as
(log-magnitude, argument).  Kernel values of weighted polynomial spaces
carry factors like (z w~)^n e^{-n|z|^2/2} whose magnitudes reach e^{+-1e4};
the log-polar representation keeps every intermediate in native floats.

Exact rational polynomials (``PolynomialQ``) and rational functions with a
single pole at zeta = 1 (``RationalAtOne``) support the correction-term
algebra, where pole orders must be verified exactly rather than numerically.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, check_finite, check_index, check_scale, extent

_TWO_PI = 2.0 * math.pi
NEG_INF = float("-inf")


def _norm_arg(a: float) -> float:
    """Reduce an angle to the half-open interval (-pi, pi].

    Built from operations that are exactly antisymmetric in floating point,
    so conjugation symmetry of kernel values survives normalization bit for
    bit (up to the shared branch point at +pi).
    """
    if -math.pi < a <= math.pi:
        return a
    r = math.fmod(a, _TWO_PI)
    if r > math.pi:
        r -= _TWO_PI
    elif r <= -math.pi:
        r += _TWO_PI
    return r


# Conformal data accept a Python scalar or an array in each argument.  A
# scalar is evaluated in Python arithmetic (math/cmath), an array in numpy,
# whose vectorised kernels may differ from math/cmath in the last bit.


def _elementwise(x, scalar_fn, array_fn):
    """array_fn(x) for an array x, scalar_fn(x) for a scalar."""
    return array_fn(x) if isinstance(x, np.ndarray) else scalar_fn(x)


def _all(cond) -> bool:
    """cond itself, or whether every entry of an array cond holds."""
    return bool(cond.all()) if isinstance(cond, np.ndarray) else bool(cond)


def _where(cond, a, b):
    """np.where(cond, a, b) for an array cond, a plain choice for a scalar one."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _as_complex(z):
    """z as a Python complex, or as a complex array when it has a shape."""
    return np.asarray(z, dtype=complex) if isinstance(z, np.ndarray) else complex(z)


@dataclass(frozen=True)
class LogComplex:
    """Complex number as (natural log of modulus, argument in (-pi, pi]).

    The canonical zero has log_mag = -inf and arg = 0.
    """

    log_mag: float
    arg: float = 0.0

    def __post_init__(self):
        if self.log_mag == NEG_INF:
            object.__setattr__(self, "arg", 0.0)
        elif not -math.pi < self.arg <= math.pi:  # most args come reduced: nothing to set
            object.__setattr__(self, "arg", _norm_arg(self.arg))

    @property
    def is_zero(self) -> bool:
        return self.log_mag == NEG_INF

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        m = math.exp(self.log_mag)  # may overflow to inf for log_mag > ~709
        return complex(m * math.cos(self.arg), m * math.sin(self.arg))

    def conj(self) -> "LogComplex":
        return LogComplex(self.log_mag, -self.arg)


LC_ZERO = LogComplex(NEG_INF, 0.0)


def _log_hypot(x: float, y: float) -> float:
    """log sqrt(x^2 + y^2) of finite x and y, not both 0, without overflow or underflow."""
    big, small = max(abs(x), abs(y)), min(abs(x), abs(y))
    return math.log(big) + 0.5 * math.log1p((small / big) ** 2)


def lc_from_complex(re: float, im: float = 0.0) -> LogComplex:
    """Convert a complex number given as (re, im) to log-polar form; DomainError at nan or inf."""
    if re == 0.0 and im == 0.0:
        return LC_ZERO
    r2 = re * re + im * im
    if sys.float_info.min <= r2 < math.inf:
        return LogComplex(0.5 * math.log(r2), math.atan2(im, re))
    check_finite(re, im)  # past nan and inf, r2 is 0, subnormal or an overflow
    return LogComplex(_log_hypot(re, im), math.atan2(im, re))


def lc_mul(a: LogComplex, b: LogComplex) -> LogComplex:
    if a.is_zero or b.is_zero:
        return LC_ZERO
    return LogComplex(a.log_mag + b.log_mag, a.arg + b.arg)


def lc_sum(terms) -> LogComplex:
    """Sum of LogComplex terms, rescaled by the maximal log-magnitude.

    Accumulation uses Kahan-compensated summation of the rescaled real and
    imaginary parts; a singleton sequence is returned unchanged (exact).
    """
    terms = list(terms)
    if not terms:
        return LC_ZERO
    if len(terms) == 1:
        return terms[0]
    m = max(t.log_mag for t in terms)
    if m == NEG_INF:
        return LC_ZERO
    sr = si = 0.0
    cr = ci = 0.0  # Kahan compensations
    for t in terms:
        if t.is_zero:
            continue
        w = math.exp(t.log_mag - m)
        x = w * math.cos(t.arg)
        y = w * math.sin(t.arg)
        yr = x - cr
        tr = sr + yr
        cr = (tr - sr) - yr
        sr = tr
        yi = y - ci
        ti = si + yi
        ci = (ti - si) - yi
        si = ti
    mag = math.hypot(sr, si)
    if mag == 0.0:
        return LC_ZERO
    return LogComplex(m + math.log(mag), math.atan2(si, sr))


def lc_sum_scaled_parts(log_mags: np.ndarray, args: np.ndarray) -> LogComplex:
    """Vectorized lc_sum for arrays of (log_mag, arg) pairs.

    numpy's pairwise reduction supplies the compensated-summation role for
    large term counts.
    """
    if log_mags.size == 0:
        return LC_ZERO
    m = float(np.max(log_mags))
    if m == NEG_INF:
        return LC_ZERO
    w = np.exp(log_mags - m)
    sr = float(np.sum(w * np.cos(args)))
    si = float(np.sum(w * np.sin(args)))
    mag = math.hypot(sr, si)
    if mag == 0.0:
        return LC_ZERO
    return LogComplex(m + math.log(mag), math.atan2(si, sr))


# ---------------------------------------------------------------------------
# Exact rational-coefficient polynomials
# ---------------------------------------------------------------------------


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"PolynomialQ coefficients must be exact rationals, got {type(c)}")


@dataclass(frozen=True)
class PolynomialQ:
    """Polynomial with exact rational coefficients, ascending degree order."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(_coerce(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @functools.cached_property
    def float_coeffs(self) -> tuple:
        """The coefficients as floats, converted once, for float or complex arguments."""
        return tuple(float(c) for c in self.coeffs)

    @property
    def degree(self):
        """Polynomial degree; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __add__(self, other: "PolynomialQ") -> "PolynomialQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolynomialQ(tuple(out))

    def __mul__(self, other: "PolynomialQ") -> "PolynomialQ":
        if not self.coeffs or not other.coeffs:
            return PolynomialQ(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolynomialQ(tuple(out))

    def scale(self, c) -> "PolynomialQ":
        c = Fraction(c)
        return PolynomialQ(tuple(c * a for a in self.coeffs))


def poly_q(*coeffs) -> PolynomialQ:
    """Build a PolynomialQ from ints/Fractions in ascending degree order."""
    return PolynomialQ(tuple(Fraction(c) for c in coeffs))


def poly_derivative(p: PolynomialQ) -> PolynomialQ:
    return PolynomialQ(tuple(k * c for k, c in enumerate(p.coeffs) if k >= 1))


def poly_eval(p: PolynomialQ, zeta):
    """Horner evaluation; works for complex, float, or Fraction arguments.
    A float or complex argument takes the float coefficients, any other the
    exact ones, so that a Fraction argument gives an exact value."""
    coeffs = p.float_coeffs if isinstance(zeta, (complex, float)) else p.coeffs
    acc = 0 * zeta
    for c in reversed(coeffs):
        acc = acc * zeta + c
    return acc


def poly_divide_linear_at_one(p: PolynomialQ):
    """Divide p by (zeta - 1); returns (quotient, remainder as Fraction)."""
    out = []
    acc = Fraction(0)
    for c in reversed(p.coeffs):  # synthetic division at zeta = 1
        acc = acc + c
        out.append(acc)
    rem = out[-1]
    quot = tuple(reversed(out[:-1]))
    return PolynomialQ(quot), rem


@dataclass(frozen=True)
class RationalAtOne:
    """Rational function numerator(zeta) / (zeta - 1)^pole_order.

    The only admissible pole is at zeta = 1.  Construction reduces any
    common (zeta - 1) factor so that pole_order is exact.
    """

    numerator: PolynomialQ
    pole_order: int

    def __post_init__(self):
        num, m = self.numerator, self.pole_order
        if m < 0:
            raise DomainError("pole_order must be nonnegative")
        while m > 0 and num.coeffs and poly_eval(num, Fraction(1)) == 0:
            num, rem = poly_divide_linear_at_one(num)
            assert rem == 0
            m -= 1
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "pole_order", m)


def rational_eval(r: RationalAtOne, zeta):
    """Evaluate numerator(zeta)/(zeta-1)^m; zeta = 1 and non-finite zeta are domain errors.

    Where that overflows, the ratio is formed in u = 1/zeta as
    zeta^{d-m} sum_k c_k u^{d-k} / (1-u)^m, d the numerator's degree (rho_j,
    with d = m, tends to its leading coefficient); DomainError where the
    value itself is not finite.
    """
    check_scale(extent(zeta))
    m, coeffs = r.pole_order, r.numerator.coeffs
    if zeta == 1 and m > 0:
        raise DomainError("evaluation at the pole zeta = 1")
    try:
        value = poly_eval(r.numerator, zeta) / (zeta - 1) ** m
    except OverflowError:
        value = math.inf
    if not isinstance(value, (float, complex)) or cmath.isfinite(value):
        return value  # exact (a Fraction) or finite
    try:
        value = (poly_eval(PolynomialQ(coeffs[::-1]), 1 / zeta) / (1 - 1 / zeta) ** m
                 * zeta ** (len(coeffs) - 1 - m))
    except OverflowError:
        value = math.inf
    if not cmath.isfinite(value):
        raise DomainError(f"rational function overflows at zeta = {zeta}")
    return value


# ---------------------------------------------------------------------------
# Quadrature primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quadrature1D:
    nodes: np.ndarray
    weights: np.ndarray


def _legendre_value_deriv(m: int, x: np.ndarray):
    """(P_m(x), P_m'(x)) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    if m == 0:
        return p0, np.zeros_like(x)
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = m * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


@functools.lru_cache(maxsize=None)
def quad_gauss_legendre(m: int) -> Quadrature1D:
    """m-point Gauss-Legendre rule on [-1, 1].

    Nodes are the roots of the degree-m Legendre polynomial, located by
    Newton iteration from the Chebyshev-type initial guesses, to 1e-15.
    Each rule is built once and shared, so its arrays are read-only.
    """
    if m < 1:
        raise DomainError("need at least one quadrature node")
    if m == 1:
        return _read_only_rule(np.zeros(1), np.full(1, 2.0))
    i = np.arange(1, m + 1)
    x = np.cos(math.pi * (i - 0.25) / (m + 0.5))
    for _ in range(100):
        p, dp = _legendre_value_deriv(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_value_deriv(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # enforce exact symmetry of the rule
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    order = np.argsort(x)
    return _read_only_rule(x[order], w[order])


def _read_only_rule(nodes: np.ndarray, weights: np.ndarray) -> Quadrature1D:
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return Quadrature1D(nodes, weights)


def quad_trapezoid_periodic(m: int) -> Quadrature1D:
    """m uniform nodes on [0, 2pi); spectrally exact for periodic analytic f."""
    check_index(m, "node count", 1)
    nodes = _TWO_PI * np.arange(m) / m
    weights = np.full(m, _TWO_PI / m)
    return Quadrature1D(nodes, weights)


def gauss_on_interval(m: int, a, b) -> Quadrature1D:
    """m Gauss-Legendre nodes on [a, b]; for arrays a and b, on each panel
    [a_i, b_i] in turn, one panel's nodes contiguous."""
    base = quad_gauss_legendre(m)
    half = 0.5 * (np.asarray(b) - a)[..., None]
    mid = 0.5 * (np.asarray(b) + a)[..., None]
    return Quadrature1D((mid + half * base.nodes).ravel(), (half * base.weights).ravel())


def composite_gauss(m_per_panel: int, edges, skip=None) -> Quadrature1D:
    """m_per_panel Gauss nodes on each panel between consecutive edges.

    Panels narrower than 1e-14, and those [a, b] with skip(a, b) true, get
    no nodes.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    keep = b - a >= 1e-14
    if skip is not None:
        keep &= ~np.array([skip(lo, hi) for lo, hi in zip(a, b)], dtype=bool)
    return gauss_on_interval(m_per_panel, a[keep], b[keep])


def quad_radial(r_max: float, feature_scale: float) -> Quadrature1D:
    """Composite Gauss rule on [0, r_max] resolving features of a given width.

    Panel widths are ~4x the feature scale so that the 24-point Gauss rule
    on each panel integrates Gaussian-type bumps of that width to near
    machine precision.
    """
    if r_max <= 0:
        raise DomainError("r_max must be positive")
    panel = min(0.5, max(0.02, 4.0 * feature_scale))
    n_panels = max(2, int(math.ceil(r_max / panel)))
    edges = np.linspace(0.0, r_max, n_panels + 1)
    return composite_gauss(24, edges)
