"""Exact evaluation of the Ginibre kernel and its derived densities.

Everything here is non-asymptotic ground truth.  The kernel of the n-point
determinantal ensemble with weight e^{-n|z|^2} is

    K_n(z, w) = n * E_n(z w~) * e^{n z w~ - n|z|^2/2 - n|w|^2/2},

where E_n(zeta) = e^{-n zeta} * sum_{k<n} (n zeta)^k / k! is the partial
exponential sum.  All magnitudes are tracked in log-polar form.

The raw sum S = sum_{k<n} x^k / k!, x = n zeta, is evaluated from an endpoint
of the series, following Szego's split (1924):

- |zeta| >= 1: the terms grow up to k = n - 1, so S is summed downward from
  the endpoint term x^{n-1}/(n-1)!;
- |zeta| < 1: S = e^x - T, where the tail T = sum_{k>=n} x^k / k! decays from
  the endpoint term x^n/n! and is summed upward; the two parts are combined
  in log scale.

Only terms within e^{-40} of the endpoint term are summed.  The window length
is a closed-form bound on the number of steps the term magnitudes need to
fall by that much.  It depends only on |x|, so conjugate arguments share
their window; every later step (complex division and powers, a real matrix
product, atan2) maps conjugate inputs to conjugate outputs exactly, so the
kernel is Hermitian bit for bit.  The work is O(window) per point and the
memory O(points) for any n.

A continued-fraction evaluation of the upper incomplete gamma function
provides an independent route E_n(zeta) = Gamma(n, n zeta)/(n-1)!, used as
an automatic cross-check for Re(zeta) > 1 where the fraction is reliable.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .scaled_numerics import LogComplex, _norm_arg, lc_mul

# relative disagreement between summation and gamma routes that triggers
# a hard failure of the internal cross-check
_CROSSCHECK_TOL = 1e-8
# terms more than e^{-_WINDOW_DROP} below the endpoint term are not summed
_WINDOW_DROP = 40.0
# points x terms per block of the windowed sum; bounds the working memory
_BLOCK_ELEMENTS = 1 << 17
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GinibreKernelValue:
    n: int
    z: complex
    w: complex
    value: LogComplex


def _extent(values) -> float:
    """max |Re| + max |Im| over the values; nan or inf when any value is."""
    v = np.asarray(values, dtype=complex)
    return float(np.abs(v.real).max(initial=0.0)) + float(np.abs(v.imag).max(initial=0.0))


def _check_args(n, scale: float):
    """DomainError unless n is an integer >= 1 and scale is finite.

    `scale` is an upper bound, computed without overflow exceptions, of the
    largest float64 quantity the caller will form (n |zeta| or n |z|^2): a
    nan, inf or overflow-scale argument makes it non-finite.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise DomainError(f"particle count n must be an integer >= 1, got {n!r}")
    if not math.isfinite(scale):
        raise DomainError("arguments must be finite and below the float64 overflow scale")


def _norm_args(a: np.ndarray) -> np.ndarray:
    """Elementwise `_norm_arg`: the same operations, so the same bits."""
    r = np.fmod(a, _TWO_PI)
    return np.where(r > math.pi, r - _TWO_PI, np.where(r <= -math.pi, r + _TWO_PI, r))


def _log_diff(la, aa, lb, ab):
    """(log_mag, arg) of e^{la + i aa} - e^{lb + i ab}; la, lb not both -inf."""
    top = np.maximum(la, lb)
    ea = np.exp(la - top)
    eb = np.exp(lb - top)
    re = ea * np.cos(aa) - eb * np.cos(ab)
    im = ea * np.sin(aa) - eb * np.sin(ab)
    mag = np.hypot(re, im)
    nonzero = mag > 0.0
    log_mag = np.where(nonzero, top + np.log(np.where(nonzero, mag, 1.0)), -np.inf)
    return log_mag, np.where(nonzero, np.arctan2(im, re), 0.0)


def _window_sums(q: np.ndarray, lengths: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_{j<L} coeffs[j] q^j for each point (q, L).

    Baby steps q^b (b < B) and giant steps q^{aB} (a < A), B A >= L: the
    coefficient sums over b are one real matrix product and the sum over a
    is a Horner recurrence in q^B, so the per-point work besides the matrix
    product is O(sqrt(L)).  Points are sorted by window length and summed in
    blocks of at most _BLOCK_ELEMENTS terms; a block is as long as its
    longest window, and the extra terms of the shorter windows are genuine
    (smaller) terms of the same series.  A block of one point takes its
    powers q^j in one call instead.
    """
    order = np.argsort(lengths, kind="stable")
    sorted_len = lengths[order]
    out = np.empty(q.size, dtype=complex)
    lo = 0
    while lo < order.size:
        hi = min(order.size, lo + max(1, _BLOCK_ELEMENTS // sorted_len[lo]))
        while hi - lo > 1 and (hi - lo) * sorted_len[hi - 1] > _BLOCK_ELEMENTS:
            hi = lo + max(1, _BLOCK_ELEMENTS // sorted_len[hi - 1])
        idx = order[lo:hi]
        width = int(sorted_len[hi - 1])
        qb = q[idx]
        if idx.size == 1:
            out[idx] = coeffs[:width] @ (qb ** np.arange(width))
            lo = hi
            continue
        n_baby = math.isqrt(width - 1) + 1
        n_giant = -(-width // n_baby)
        baby = np.empty((n_baby, idx.size), dtype=complex)
        baby[0] = 1.0
        for b in range(1, n_baby):
            np.multiply(baby[b - 1], qb, out=baby[b])
        giant = baby[n_baby - 1] * qb
        block = np.zeros(n_giant * n_baby)
        block[:width] = coeffs[:width]
        # inner[a] = sum_b coeffs[a B + b] q^b, real and imaginary parts at once
        inner = (block.reshape(n_giant, n_baby) @ baby.view(float)).view(complex)
        acc = inner[n_giant - 1]
        for a in range(n_giant - 2, -1, -1):
            acc *= giant
            acc += inner[a]
        out[idx] = acc
        lo = hi
    return out


def _side_sums(n: int, x: np.ndarray, inner: bool):
    """(log_mag, arg) of the endpoint sum for points on one side of |x| = n.

    Outer (|x| >= n): S, summed downward from k = n-1, with term ratios
    (k/x).  Inner (|x| < n): the tail T, summed upward from k = n, with term
    ratios x/(k+1).  Relative to the endpoint term the j-th term is
    coeffs[j] q^j, and `rate` = -log|q| is the log-ratio of the first step;
    after j steps the terms have fallen by at least
      outer:  j rate + j(j-1)/(2(n-1)),  since -log(1-t) >= t;
      inner:  j rate + j^2 log 2/(2n) for j <= n, since log(1+t) >= t log 2
              on [0, 1], and by log 2 per step past j = n.
    Each window is the smallest j at which that bound reaches _WINDOW_DROP.
    """
    drop = _WINDOW_DROP
    r = np.abs(x)
    if inner:
        # below |x| = 1e-300 n the tail is under 1e-300 of e^x ~ 1: dropped
        live = r > 1e-300 * n
        r = np.where(live, r, n)
        rate = np.log(n / r)
        j_drop = 2.0 * drop / (rate + np.sqrt(rate * rate + 2.0 * drop * math.log(2.0) / n))
        lengths = np.where(j_drop <= n, np.ceil(j_drop), n + math.ceil(drop / math.log(2.0)))
        lengths = np.where(live, lengths, 1)
        lead = np.where(live, n * np.log(r) - math.lgamma(n + 1.0), -np.inf)
        k_end = n
        q = x / n
        # prod_{i=1}^{j} 1/(1 + i/n)
        coeffs = np.cumprod(1.0 / (1.0 + np.arange(int(lengths.max())) / n))
    else:
        m = max(n - 1, 1)
        rate = np.log(r / m)
        a = rate - 0.5 / m
        j_drop = 2.0 * drop / (a + np.sqrt(a * a + 2.0 * drop / m))
        lengths = np.minimum(np.ceil(j_drop), n)
        lead = (n - 1) * np.log(r) - math.lgamma(n)
        k_end = n - 1
        q = m / x
        # prod_{i<j} (1 - i/(n-1))
        coeffs = np.cumprod(np.concatenate(([1.0], 1.0 - np.arange(int(lengths.max()) - 1) / m)))
    s = _window_sums(q, lengths.astype(np.intp), coeffs)
    mag = np.abs(s)
    nonzero = mag > 0.0
    log_mag = np.where(nonzero, lead + np.log(np.where(nonzero, mag, 1.0)), -np.inf)
    return log_mag, k_end * np.angle(x) + np.angle(s)


def _endpoint_sums(n: int, zetas: np.ndarray):
    """Szego's split of sum_{k<n} x^k/k!, x = n zeta, summed from an endpoint.

    Returns (x, log_mag, arg, inner): for |x| >= n the partial sum S itself,
    for |x| < n (inner) the tail T = sum_{k>=n} x^k/k!.
    """
    _check_args(n, n * _extent(zetas))
    x = n * zetas
    inner = np.abs(x) < n
    log_mag = np.empty(x.size)
    arg = np.empty(x.size)
    for side, part in ((True, inner), (False, ~inner)):
        if part.any():
            log_mag[part], arg[part] = _side_sums(n, x[part], side)
    return x, log_mag, arg, inner


def raw_partial_sum_array(n: int, zetas: np.ndarray):
    """(log_mag, arg) of sum_{k<n} (n zeta)^k / k! for an array of zeta."""
    zetas = np.asarray(zetas, dtype=complex).ravel()
    x, log_mag, arg, inner = _endpoint_sums(n, zetas)
    if inner.any():
        # S = e^x - T
        x = x[inner]
        log_mag[inner], arg[inner] = _log_diff(x.real, x.imag, log_mag[inner], arg[inner])
    arg = _norm_args(arg)
    # a real x gives a real sum, whose computed arg is a rounded multiple of pi
    real_sign = np.where(np.abs(arg) > 0.5 * math.pi, math.pi, 0.0)
    return log_mag, np.where(zetas.imag == 0.0, real_sign, arg)


def _raw_partial_sum(n: int, zeta: complex) -> LogComplex:
    """sum_{k=0}^{n-1} (n zeta)^k / k! in log-polar form."""
    mag, arg = raw_partial_sum_array(n, np.array([zeta], dtype=complex))
    return LogComplex(float(mag[0]), float(arg[0]))


def _gamma_cf(a: float, x: complex, tol: float = 1e-15, max_iter: int = 100000) -> LogComplex:
    """Upper incomplete gamma Gamma(a, x) by the standard continued fraction.

    Modified Lentz evaluation of
        Gamma(a,x) = e^{-x} x^a / (x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(...)))
    Reliable for Re(x) comfortably larger than a; callers enforce that.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, max_iter):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if d == 0:
            d = tiny
        c = b + an / c
        if c == 0:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    else:
        raise PrecisionError("incomplete-gamma continued fraction did not converge")
    return LogComplex(
        -x.real + a * math.log(abs(x)) + math.log(abs(h)),
        _norm_arg(-x.imag + a * cmath.phase(x) + cmath.phase(h)),
    )


def partial_exp_sum_gamma_route(n: int, zeta: complex) -> LogComplex:
    """E_n(zeta) via the incomplete-gamma identity; requires Re(zeta) > 1."""
    zeta = complex(zeta)
    _check_args(n, n * _extent(zeta))
    if zeta.real <= 1.0:
        raise DomainError("gamma-function route is restricted to Re(zeta) > 1")
    g = _gamma_cf(float(n), n * zeta)
    return LogComplex(g.log_mag - math.lgamma(n), g.arg)


def partial_exp_sum(n: int, zeta: complex, crosscheck: bool | None = None) -> LogComplex:
    """E_n(zeta) = e^{-n zeta} sum_{k<n} (n zeta)^k / k!.

    When Re(zeta) > 1 (and crosscheck is not explicitly disabled) the value
    is verified against the continued-fraction gamma route; disagreement
    beyond 1e-8 relative raises PrecisionError.
    """
    zeta = complex(zeta)
    raw = _raw_partial_sum(n, zeta)
    value = LogComplex(raw.log_mag - n * zeta.real, _norm_arg(raw.arg - n * zeta.imag))
    do_check = crosscheck if crosscheck is not None else (zeta.real > 1.0)
    if do_check and zeta.real > 1.0:
        alt = partial_exp_sum_gamma_route(n, zeta)
        rel = abs(value.log_mag - alt.log_mag) + abs(_norm_arg(value.arg - alt.arg))
        if rel > _CROSSCHECK_TOL:
            raise PrecisionError(
                f"partial_exp_sum cross-check failed at n={n}, zeta={zeta}: "
                f"log-polar mismatch {rel:.3e}"
            )
    return value


def partial_exp_sum_complement(n: int, zeta: complex) -> LogComplex:
    """E_n(zeta) - 1, computed without cancellation for |zeta| < 1.

    Since the full exponential series sums to e^{n zeta}, the complement is
    -e^{-n zeta} T with the tail T = sum_{k>=n} (n zeta)^k / k! of the
    windowed kernel; for |zeta| >= 1 it is E_n(zeta) - 1 formed in log scale.
    """
    x, log_mag, arg, inner = _endpoint_sums(n, np.array([zeta], dtype=complex))
    x, log_mag, arg = complex(x[0]), float(log_mag[0]), float(arg[0])
    if inner[0]:
        return LogComplex(log_mag - x.real, arg - x.imag + math.pi)
    diff_mag, diff_arg = _log_diff(log_mag - x.real, arg - x.imag, 0.0, 0.0)
    return LogComplex(float(diff_mag), float(diff_arg))


def ginibre_kernel_exact(n: int, z: complex, w: complex) -> GinibreKernelValue:
    """Exact kernel K_n(z, w) in log-polar form."""
    z = complex(z)
    w = complex(w)
    scale = _extent((z, w))
    _check_args(n, n * scale * scale)
    raw = _raw_partial_sum(n, z * w.conjugate())
    gauss = -0.5 * n * (abs(z) ** 2 + abs(w) ** 2)
    value = lc_mul(LogComplex(math.log(n) + gauss, 0.0), raw)
    return GinibreKernelValue(n=n, z=z, w=w, value=value)


def ginibre_log_one_point(n: int, z: complex) -> float:
    """log R_n(z); the one-point function is R_n(z) = n E_n(|z|^2)."""
    z = complex(z)
    scale = _extent(z)
    _check_args(n, n * scale * scale)
    e = partial_exp_sum(n, abs(z) ** 2, crosscheck=False)
    return math.log(n) + e.log_mag


def ginibre_one_point(n: int, z: complex) -> float:
    """One-point function R_n(z) = K_n(z, z); positive, bounded by n."""
    return math.exp(ginibre_log_one_point(n, z))


def ginibre_berezin(n: int, z: complex, w: complex) -> float:
    """Berezin kernel B_n(z, w) = |K_n(z, w)|^2 / K_n(z, z)."""
    kzw = ginibre_kernel_exact(n, z, w).value
    log_b = 2.0 * kzw.log_mag - ginibre_log_one_point(n, z)
    return math.exp(log_b) if log_b > -745.0 else 0.0


# ---------------------------------------------------------------------------
# Vectorized evaluation over grids (quadrature backends)
# ---------------------------------------------------------------------------


def ginibre_kernel_logmag_array(n: int, z: complex, ws: np.ndarray) -> np.ndarray:
    """log |K_n(z, w)| over an array of w."""
    z = complex(z)
    ws = np.asarray(ws, dtype=complex)
    scale = _extent(z) + _extent(ws)
    _check_args(n, n * scale * scale)
    zetas = z * np.conj(ws)
    mag, _ = raw_partial_sum_array(n, zetas.ravel())
    gauss = -0.5 * n * (abs(z) ** 2 + np.abs(ws.ravel()) ** 2)
    return (math.log(n) + mag + gauss).reshape(ws.shape)


def ginibre_berezin_array(n: int, z: complex, ws: np.ndarray) -> np.ndarray:
    """B_n(z, w) over an array of w; underflows are flushed to zero."""
    log_k = ginibre_kernel_logmag_array(n, z, ws)
    log_b = 2.0 * log_k - ginibre_log_one_point(n, z)
    out = np.zeros_like(log_b)
    ok = log_b > -745.0
    out[ok] = np.exp(log_b[ok])
    return out
