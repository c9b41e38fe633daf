"""Asymptotic series for the Ginibre kernel.

Exterior regime (zeta = z w~ in the exterior domain E of the curve
|u| = 1 inside the unit disc):

    K_n(z,w) = sqrt(n/2pi) * (zeta^n e^n / (zeta - 1)) * e^{-n|z|^2/2 - n|w|^2/2}
               * (1 + rho_1(zeta)/n + ... + rho_k(zeta)/n^k + O(n^-k-1)).

The corrections rho_j are rational with a pole of order exactly 2j at
zeta = 1 and come from the Cauchy product of two exact series: the inverse
Stirling series for n^n e^{-n}/(n-1)! and the incomplete-gamma polynomial
series sum_j (-1)^j b_j(zeta) (zeta-1)^{-2j} n^{-j} with

    b_0 = 1,   b_j = zeta (1 - zeta) b_{j-1}' + (2j - 1) zeta b_{j-1}.

Bulk regime (zeta in the complement of E away from 1):

    K_n(z,w) = n e^{n zeta - n|z|^2/2 - n|w|^2/2} (1 + O(rho^n / sqrt(n))),
    rho = |u(zeta)| <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import RegimeError, check_index, check_n, check_positive, check_scale, extent
from .scaled_numerics import (
    LogComplex,
    PolynomialQ,
    RationalAtOne,
    _norm_arg,
    lc_from_complex,
    lc_mul,
    poly_derivative,
    poly_q,
    rational_eval,
)
from .szego_geometry import Region, classify, u_abs

# the exact series reach n^{-6}: correction terms rho_1 .. rho_6
_MAX_ORDER = 6
_ZETA_MINUS_ONE_SQ = poly_q(1, -2, 1)

# ---------------------------------------------------------------------------
# Exact series machinery (truncated power series in 1/n, Fraction coeffs)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    # B_0 = 1; sum_{j<=m} C(m+1, j) B_j = 0 for m >= 1
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * _bernoulli(j)
    return -acc / (m + 1)


def _series_mul(a, b, k):
    out = [Fraction(0)] * (k + 1)
    for i, ai in enumerate(a[: k + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: k + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_exp(u, k):
    # exp of a series with u[0] = 0
    assert u[0] == 0
    out = [Fraction(0)] * (k + 1)
    out[0] = Fraction(1)
    term = out[:]
    for m in range(1, k + 1):
        term = _series_mul(term, u, k)
        term = [c / m for c in term]
        out = [x + y for x, y in zip(out, term)]
    return out


def _series_inv(a, k):
    # reciprocal of a series with a[0] = 1
    assert a[0] == 1
    out = [Fraction(0)] * (k + 1)
    out[0] = Fraction(1)
    for m in range(1, k + 1):
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += a[i] * out[m - i]
        out[m] = -acc
    return out


@dataclass(frozen=True)
class StirlingSeries:
    """Coefficients of n^n e^{-n}/(n-1)! = sqrt(n/2pi) sum_k coeffs[k] n^{-k}."""

    coeffs: tuple

    def __post_init__(self):
        assert self.coeffs[0] == 1
        assert len(self.coeffs) == 1 or self.coeffs[1] == Fraction(-1, 12)


@lru_cache(maxsize=None)
def stirling_series(k_max: int) -> StirlingSeries:
    """Derive the inverse Stirling coefficients by exact series algebra.

    ln n! - ln(sqrt(2 pi n) (n/e)^n) = sum_m B_{2m} / (2m (2m-1)) n^{1-2m};
    exponentiating and inverting the resulting series in 1/n gives the
    coefficients of n^n e^{-n} / (n-1)! / sqrt(n / 2pi).
    """
    check_index(k_max, "order k_max", 0, _MAX_ORDER)
    k = k_max
    u = [Fraction(0)] * (k + 1)
    for m in range(1, k // 2 + 2):
        j = 2 * m - 1
        if j <= k:
            u[j] = _bernoulli(2 * m) / (2 * m * (2 * m - 1))
    factorial_series = _series_exp(u, k)
    inv = _series_inv(factorial_series, k)
    return StirlingSeries(tuple(inv))


# ---------------------------------------------------------------------------
# Tricomi polynomials and correction terms
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def tricomi_b(j: int) -> PolynomialQ:
    """b_j from b_0 = 1 and b_j = zeta(1-zeta) b_{j-1}' + (2j-1) zeta b_{j-1}."""
    check_index(j, "index j", 0)
    if j == 0:
        return poly_q(1)
    prev = tricomi_b(j - 1)
    zeta_one_minus = poly_q(0, 1, -1)
    return zeta_one_minus * poly_derivative(prev) + prev * poly_q(0, 2 * j - 1)


@lru_cache(maxsize=None)
def rho(j: int) -> RationalAtOne:
    """Correction term rho_j as an exact rational function.

    Cauchy product of the inverse Stirling series with the alternating
    Tricomi series (-1)^i b_i(zeta) / (zeta-1)^{2i}, collected at n^{-j}:
    the numerator sum_i (-1)^i st[j-i] b_i(zeta) (zeta-1)^{2(j-i)}, by
    Horner's rule in (zeta-1)^2, over (zeta-1)^{2j}.
    """
    check_index(j, "order j", 1, _MAX_ORDER)
    st = stirling_series(j).coeffs
    numerator = poly_q()
    for i in range(j + 1):
        numerator = numerator * _ZETA_MINUS_ONE_SQ + tricomi_b(i).scale((-1) ** i * st[j - i])
    out = RationalAtOne(numerator, 2 * j)
    assert out.pole_order == 2 * j, "pole order must be exactly 2j"
    return out


def rho_bracket(n: int, zeta: complex, k: int) -> complex:
    """1 + sum_{j<=k} rho_j(zeta) / n^j."""
    acc = 1.0 + 0j
    scale = 1.0
    for j in range(1, k + 1):
        scale /= n
        acc += rational_eval(rho(j), complex(zeta)) * scale
    return acc


# ---------------------------------------------------------------------------
# Kernel expansions
# ---------------------------------------------------------------------------


def exterior_kernel_expansion(n: int, z: complex, w: complex, k: int = 0,
                              eta: float = 0.05) -> LogComplex:
    """Exterior-regime kernel approximation with k correction terms.

    Requires zeta = z w~ in the exterior domain E (points on the curve K
    are admitted; the same expansion holds there) and |zeta - 1| >= eta.
    """
    z = complex(z)
    w = complex(w)
    check_n(n)
    check_index(k, "order k", 0, _MAX_ORDER)
    check_positive(eta, "saddle distance eta")
    ez, ew = extent(z), extent(w)
    check_scale(n * (ez * ez + ew * ew))
    zeta = z * w.conjugate()
    label = classify(zeta)
    if not label.in_E_sz:
        raise RegimeError(
            f"zeta = {zeta} is {label.label.value}; exterior expansion needs the exterior domain",
            region=label,
        )
    if abs(zeta - 1.0) < eta:
        raise RegimeError(
            f"zeta = {zeta} lies within eta = {eta} of the saddle at 1", region=label
        )
    log_mag = (
        0.5 * (math.log(n) - math.log(2.0 * math.pi))
        + n * math.log(abs(zeta))
        + n
        - 0.5 * n * (abs(z) ** 2 + abs(w) ** 2)
        - math.log(abs(zeta - 1.0))
    )
    arg = _norm_arg(n * math.atan2(zeta.imag, zeta.real)) - math.atan2(
        (zeta - 1.0).imag, (zeta - 1.0).real
    )
    prefactor = LogComplex(log_mag, arg)
    if k == 0:
        return prefactor
    bracket = rho_bracket(n, zeta, k)
    return lc_mul(prefactor, lc_from_complex(bracket.real, bracket.imag))


@dataclass(frozen=True)
class BulkKernel:
    value: LogComplex
    error_bound: float  # rho^n / (sqrt(n) |zeta - 1|), rho = |u(zeta)|
    rho: float


def bulk_kernel_expansion(n: int, z: complex, w: complex) -> BulkKernel:
    """Bulk-regime leading term with its certified relative error scale."""
    z = complex(z)
    w = complex(w)
    check_n(n)
    ez, ew = extent(z), extent(w)
    check_scale(n * (ez * ez + ew * ew))
    zeta = z * w.conjugate()
    label = classify(zeta)
    if label.label not in (Region.REGION_I, Region.ON_SZEGO_CURVE):
        raise RegimeError(
            f"zeta = {zeta} is {label.label.value}; bulk expansion needs the closed interior",
            region=label,
        )
    value = LogComplex(
        math.log(n) + n * zeta.real - 0.5 * n * (abs(z) ** 2 + abs(w) ** 2),
        _norm_arg(n * zeta.imag),
    )
    r = u_abs(zeta)
    log_bound = n * math.log(r) - 0.5 * math.log(n) - math.log(abs(zeta - 1.0)) if r > 0 else float("-inf")
    bound = math.exp(log_bound) if log_bound > -745.0 else 0.0
    return BulkKernel(value=value, error_bound=bound, rho=r)

