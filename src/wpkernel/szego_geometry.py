"""Geometry of the map u(zeta) = zeta e^{1-zeta}: curves and region labels.

The closed curve gamma = {|zeta| <= 1, |u(zeta)| = 1} bounds the only
bounded component (region I) of {|u| < 1}; region II is the unbounded
component of that set and region III is {|u| > 1}.  The level curve
Im u = 0 through the saddle zeta = 1, perpendicular to the real axis,
is called K here.  The exterior domain E is the complement of the closed
interior of gamma; kernel asymptotics switch regimes on these sets.

Both curves have closed forms.  With zeta = r e^{i theta},
log|u| = log r + 1 - r cos(theta), which on |zeta| = 1 is 1 - cos(theta) >= 0
and strictly increases in r on (0, 1).  So region I = {|zeta| < 1, |u| < 1}
is star-shaped and gamma is the polar graph r = r*(theta), the root of
log|u| = 0 in (0, 1].  On K, arg u = theta - Im zeta = 0, so K is the graph
zeta(y) = y cot(y) + i y.  Both curves are conjugation-symmetric.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite
from .scaled_numerics import _log_hypot

# K is sampled out to |zeta - 1| = _K_EXTENT; the OnCurveK label reaches two
# default steps (2e-3) further, so it also covers the last sample of a
# default trace, which lies up to 0.9 steps past _K_EXTENT
_K_EXTENT = 1.0
_K_REACH = _K_EXTENT + 2e-3


def u_map(zeta: complex) -> complex:
    """u(zeta) = zeta * e^(1 - zeta); DomainError where zeta or u is not finite."""
    zeta = complex(zeta)
    check_finite(zeta)
    try:
        u = zeta * cmath.exp(1.0 - zeta)
    except OverflowError as exc:
        raise DomainError(f"u(zeta) overflows float64 at zeta = {zeta}") from exc
    if not cmath.isfinite(u):
        raise DomainError(f"u(zeta) overflows float64 at zeta = {zeta}")
    return u


def u_abs(zeta: complex) -> float:
    zeta = complex(zeta)
    return abs(zeta) * math.exp(1.0 - zeta.real)


def negative_axis_crossing() -> float:
    """The t > 0 with t e^t = 1/e, by bisection to a bracket below 1e-14;
    the curve gamma crosses the axis at -t."""
    lo, hi = 0.1, 0.5
    f = lambda t: t * math.exp(t) - math.exp(-1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-14:
            break
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TracedCurve:
    points: np.ndarray  # complex samples, ordered along the curve
    closed: bool


class Region(enum.Enum):
    REGION_I = "RegionI"
    REGION_II = "RegionII"
    REGION_III = "RegionIII"
    ON_SZEGO_CURVE = "OnSzegoCurve"
    ON_CURVE_K = "OnCurveK"
    AT_ONE = "AtOne"


@dataclass(frozen=True)
class RegionLabel:
    label: Region
    in_E_sz: bool

    def __str__(self):
        return f"{self.label.value}(E={self.in_E_sz})"


# each region fixes its membership of E, so classify hands out these six values
_REGION_I = RegionLabel(Region.REGION_I, False)
_REGION_II = RegionLabel(Region.REGION_II, True)
_REGION_III = RegionLabel(Region.REGION_III, True)
_ON_SZEGO_CURVE = RegionLabel(Region.ON_SZEGO_CURVE, False)
_ON_CURVE_K = RegionLabel(Region.ON_CURVE_K, True)
_AT_ONE = RegionLabel(Region.AT_ONE, False)
# _classify_codes labels a point by its index in this table: the labels in the
# order classify tests for them, the last its default
_LABELS = (_AT_ONE, _ON_SZEGO_CURVE, _ON_CURVE_K, _REGION_III, _REGION_I, _REGION_II)

# numpy's hypot, log and exp, real and complex, may differ from math's and
# cmath's in the last ulp, so _classify_codes hands every point whose tested
# quantity lies within this relative margin of its edge to classify
_EDGE_MARGIN = 1e-12


def _check_tol(tol: float) -> None:
    """DomainError unless the classification tolerance is finite and non-negative."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and non-negative, got {tol!r}")


def classify(zeta: complex, tol: float = 1e-9) -> RegionLabel:
    """Classify zeta into regions I/II/III or onto the special curves."""
    zeta = complex(zeta)
    check_finite(zeta)
    _check_tol(tol)
    r = math.hypot(zeta.real, zeta.imag)
    to_one = math.hypot(zeta.real - 1.0, zeta.imag)
    if to_one <= tol:
        return _AT_ONE
    # log|u| = log r + 1 - Re zeta cannot overflow, nor log r where r does; every
    # test below reads the same for all |u| > e, so |u| is capped there
    log_r = _log_hypot(zeta.real, zeta.imag) if r == math.inf else math.log(r) if r else -math.inf
    au = math.exp(min(log_r + 1.0 - zeta.real, 1.0))
    if r <= 1.0 + tol and abs(au - 1.0) <= tol:
        return _ON_SZEGO_CURVE
    if to_one <= _K_REACH and au >= 1.0 - tol:
        u = u_map(zeta)
        if abs(u.imag) <= tol and u.real > 0.0:
            return _ON_CURVE_K
    if au > 1.0 + tol:
        return _REGION_III
    if r < 1.0 and au < 1.0:
        return _REGION_I
    return _REGION_II


def _classify_codes(zeta: np.ndarray, tol: float) -> np.ndarray:
    """Indices into _LABELS of classify(z, tol) at each z of a finite complex array.

    The tests of classify run once over the whole array.  A point whose |z|
    overflows, or whose to_one, r, au, |au - 1|, |Im u| or Re u lies within
    _EDGE_MARGIN (1 + |edge|) of an edge it is compared with, is labelled by
    classify itself, so every index names the label classify returns.  The
    caller checks tol and that every z is finite.
    """
    x, y = zeta.real, zeta.imag
    with np.errstate(over="ignore", divide="ignore"):
        r = np.hypot(x, y)
        to_one = np.hypot(x - 1.0, y)
        log_r = np.log(r)
    au = np.exp(np.minimum(log_r + 1.0 - x, 1.0))
    # u only where the OnCurveK test is reached, |zeta - 1| <= _K_REACH
    near_k = to_one <= _K_REACH
    u = zeta[near_k] * np.exp(1.0 - zeta[near_k])
    on_k = np.zeros_like(near_k)
    on_k[near_k] = (np.abs(u.imag) <= tol) & (u.real > 0.0)
    tests = [to_one <= tol, (r <= 1.0 + tol) & (np.abs(au - 1.0) <= tol),
             on_k & (au >= 1.0 - tol), au > 1.0 + tol, (r < 1.0) & (au < 1.0)]
    codes = np.select(tests, range(len(tests)), len(tests))

    def near(v, edge):
        return np.abs(v - edge) <= _EDGE_MARGIN * (1.0 + abs(edge))

    screen = (~np.isfinite(r) | near(to_one, tol) | near(to_one, _K_REACH) | near(r, 1.0 + tol)
              | near(r, 1.0) | near(np.abs(au - 1.0), tol) | near(au, 1.0 - tol)
              | near(au, 1.0 + tol) | near(au, 1.0))
    screen[near_k] |= near(np.abs(u.imag), tol) | near(u.real, 0.0)
    for i in np.flatnonzero(screen):
        codes[i] = _LABELS.index(classify(complex(zeta[i]), tol))
    return codes


def _check_step(step: float):
    if not (0.0 < step <= 0.05):
        raise DomainError("step must lie in (0, 0.05]")


def _equal_arc_parameters(curve, t_end: float, step: float) -> np.ndarray:
    """Parameters in (0, t_end] whose points curve(t), with curve(0) = 1,
    lie 0.9 step apart in arc length, measured on a grid 8 times finer; the
    factor 0.9 absorbs the error of interpolating t linearly in arc length."""
    t = np.linspace(0.0, t_end, int(8.0 * t_end / step) + 2)
    pts = np.concatenate([[1.0], curve(t[1:])])
    arc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(pts)))])
    count = math.ceil(arc[-1] / (0.9 * step))
    return np.interp(np.linspace(0.0, arc[-1], count + 1)[1:], arc, t)


def _gamma_radius(theta: np.ndarray) -> np.ndarray:
    """r*(theta) for theta in (0, pi]: the root in (0, 1] of
    f(r) = log r + 1 - r cos(theta).

    f increases on (0, 1], f(1/4) < 0 <= f(1), and the root is at least
    W(1/e) > 1/4; Newton steps that leave the bracket bisect instead.
    """
    c = np.cos(theta)
    lo, hi = np.full_like(c, 0.25), np.ones_like(c)
    r = np.maximum(1.0 - 0.5 * theta, 0.3)
    for _ in range(64):
        f = np.log(r) + 1.0 - r * c
        if np.all(np.abs(f) <= 4e-16):
            break
        lo = np.where(f < 0.0, r, lo)
        hi = np.where(f > 0.0, r, hi)
        newton = r - f / (1.0 / r - c)
        r = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
    return r


def _gamma_point(theta: np.ndarray) -> np.ndarray:
    return _gamma_radius(theta) * np.exp(1j * theta)


def _k_point(y: np.ndarray) -> np.ndarray:
    return y / np.tan(y) + 1j * y


def trace_szego_curve(step: float = 1e-3) -> TracedCurve:
    """Sample gamma as a closed curve from 1 through the upper half plane
    to the axis crossing -W(1/e) and back, with spacing at most step."""
    _check_step(step)
    theta = _equal_arc_parameters(_gamma_point, math.pi, step)
    upper = _gamma_point(theta[:-1])
    crossing = -float(_gamma_radius(np.array([math.pi]))[0])
    pts = np.concatenate([[1.0], upper, [crossing], np.conj(upper[::-1]), [1.0]])
    return TracedCurve(pts.astype(complex), closed=True)


def trace_curve_K(step: float = 1e-3) -> TracedCurve:
    """Sample K = {y cot(y) + i y} through its midpoint 1 out to
    |zeta - 1| >= 1 on both sides, with spacing at most step.

    Near the saddle u(1 + w) ~ 1 - w^2/2, so K leaves 1 vertically, into
    |u| > 1 on both sides.
    """
    _check_step(step)
    # |zeta(1.2) - 1| = 1.31, so y <= 1.2 reaches past _K_EXTENT
    upper = _k_point(_equal_arc_parameters(_k_point, 1.2, step))
    upper = upper[:int(np.argmax(np.abs(upper - 1.0) >= _K_EXTENT)) + 1]
    pts = np.concatenate([np.conj(upper[::-1]), [1.0], upper])
    return TracedCurve(pts.astype(complex), closed=False)
