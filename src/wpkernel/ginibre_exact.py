"""Exact evaluation of the Ginibre kernel and its derived densities.

Everything here is non-asymptotic ground truth.  The kernel of the n-point
determinantal ensemble with weight e^{-n|z|^2} is

    K_n(z, w) = n * E_n(z w~) * e^{n z w~ - n|z|^2/2 - n|w|^2/2},

where E_n(zeta) = e^{-n zeta} * sum_{k<n} (n zeta)^k / k! is the partial
exponential sum.  All magnitudes are tracked in log-polar form.

The raw sum e_n(x) = sum_{k<n} x^k / k!, x = n zeta, is summed from an
endpoint of the series, following Szego's split (1924), one set of window
sums per side of |x| = n (`_side_sums`):

- |x| >= n: e_n is the endpoint term t = x^{n-1}/(n-1)! times s = 1 + s1,
  s1 the terms after t, summed downward on its own, so e_n - t needs no
  subtraction;
- |x| < n: e_n = e^x - T, the tail T = sum_{k>=n} x^k / k! summed upward
  from the endpoint term x^n/n!.

Each side's sums become e_n = e^{scale} c and the ratio r = e_{n-1}/e_n in
one place (`_outer_e_n`, `_inner_e_n`, on arrays or on one point); outside,
the scale is log |t|.  Inside, the partial sum and the flat grids scale by
max(Re x, log |x^n/n!|), which brings e^x or the tail's endpoint term to 1
and neither above (at n = 3832, x = 1916i, e_n ~ e^{1170} while
e^{-|x|} e_n underflows); the ring route scales by the ring's |x|, one
number per ring, which loses only values of B_n below its flush.

Only terms within e^{-40} of the endpoint term are summed.  The window length
is a closed-form bound on the number of steps the term magnitudes need to
fall by that much.  It depends only on |x|, so conjugate arguments share
their window; every later step (complex products, division and powers, a
real matrix product, atan2) maps conjugate inputs to conjugate outputs
exactly, so the kernel is Hermitian bit for bit.  The work is O(window) per
point and the memory O(points) for any n.

Three layouts sum the windows; all share the window (`_window_extent`) and
the two combinations:
- one point (`_point_e_n`): the window and its sum in Python arithmetic,
  each term the last times its ratio x/k or k/x, in O(1) memory; a real x
  (the diagonal e_n(n|z|^2) of the grids, the one-point function) stays
  real.  Every scalar entry point takes it;
- node arrays (`_flat_e_n`): the coefficients of `_window_coeffs` against
  baby and giant steps in blocks (`_window_sums`);
- polar tensors w = s e^{i phi} (`GinibreRoot.tensor_blocks`), in blocks of
  rings: every node of a ring shares |x| = n|z|s and so its window, and the
  sums of a group of rings are one matrix product per chunk of terms.
Both grid layouts hand log |e_n|, and r when dbar_z B_n is asked for, to
one assembly (`GinibreRoot.grids`) of B_n = |K_n(z, w)|^2 / K_n(z, z) and
dbar_z B_n, with the root's e_n(n|z|^2) and r(n|z|^2) found once.  The
one-point route is separate code and the grids' reference (the scalar
`ginibre_berezin` goes through `ginibre_kernel_exact`); all three are
checked against mpmath.

A continued-fraction evaluation of the upper incomplete gamma function
provides an independent route E_n(zeta) = Gamma(n, n zeta)/(n-1)!, used as
an automatic cross-check for Re(zeta) > 1 where the fraction is reliable,
at 1e-8 or at the rounding floor of the two routes' exponents, whichever is
larger (`partial_exp_sum`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError, check_n, check_scale, extent
from .scaled_numerics import LogComplex, _norm_arg, _where, lc_mul

_EPS = float(np.finfo(float).eps)
# log-polar disagreement between summation and gamma routes that triggers a
# hard failure of the internal cross-check, or _CROSSCHECK_FLOOR eps (n|zeta| +
# n|log n zeta|) where that is larger: both routes subtract exponents of that
# size, each rounded to eps of itself (measured: at most 1.8 eps times that
# sum, over 41,500 seeded points with n up to 3e7, Re zeta > 1)
_CROSSCHECK_TOL = 1e-8
_CROSSCHECK_FLOOR = 4.0
# terms more than e^{-_WINDOW_DROP} below the endpoint term are not summed
_WINDOW_DROP = 40.0
# points x baby steps per block of the windowed sum: its baby- and giant-step
# arrays hold about this many complex values each (64 KB), whatever the window
_BLOCK_ELEMENTS = 1 << 12
# a group of rings in one matrix product spans window lengths up to this
# ratio, so padding the shorter windows costs at most this factor in terms;
# tighter groups cost more, smaller matrix products
_RING_SPREAD = 1.5


@dataclass(frozen=True)
class GinibreKernelValue:
    n: int
    z: complex
    w: complex
    value: LogComplex


def _baby_steps(length) -> int:
    """B = ceil(sqrt(L)), the baby steps of a window of L terms (`_window_sums`)."""
    return math.isqrt(int(length) - 1) + 1


def _window_sums(q: np.ndarray, lengths: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_{j<L} coeffs[j] q^j for each point (q, L) of an array.

    Baby steps q^b (b < B) and giant steps q^{aB} (a < A), B A >= L: the
    coefficient sums over b are one real matrix product and the sum over a
    is a Horner recurrence in q^B, so the per-point work besides the matrix
    product is O(sqrt(L)).  Points are sorted by window length and summed in
    blocks of at most _BLOCK_ELEMENTS points x baby steps, which bounds the
    step arrays; a block is as long as its longest window, and the extra
    terms of the shorter windows are genuine (smaller) terms of the same
    series.
    """
    order = np.argsort(lengths, kind="stable")
    sorted_len = lengths[order]
    out = np.empty(q.size, dtype=complex)
    lo = 0
    while lo < order.size:
        hi = min(order.size, lo + max(1, _BLOCK_ELEMENTS // _baby_steps(sorted_len[lo])))
        while hi - lo > 1 and (hi - lo) * _baby_steps(sorted_len[hi - 1]) > _BLOCK_ELEMENTS:
            hi = lo + max(1, _BLOCK_ELEMENTS // _baby_steps(sorted_len[hi - 1]))
        idx = order[lo:hi]
        width = int(sorted_len[hi - 1])
        qb = q[idx]
        n_baby = _baby_steps(width)
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


def _log_kk_over_factorial(k: int) -> float:
    """k log k - log k!, from Stirling's series for k >= 32 (next term below
    1e-16), where the two logarithms would cancel to about eps k log k."""
    if k < 32:
        return k * math.log(k) - math.lgamma(k + 1.0) if k else 0.0
    inv2 = 1.0 / (k * k)
    series = (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0))) / k
    return k - 0.5 * math.log(2.0 * math.pi * k) - series


def _exp(v):
    """e^v of a float (math), a complex (cmath) or an array (numpy)."""
    if isinstance(v, np.ndarray):
        return np.exp(v)
    return cmath.exp(v) if isinstance(v, complex) else math.exp(v)


def _log(v):
    """log v of a float (math) or an array (numpy), -inf at v = 0."""
    if isinstance(v, np.ndarray):
        with np.errstate(divide="ignore"):
            return np.log(v)
    return math.log(v) if v > 0.0 else -math.inf


def _window_extent(n: int, r, inner: bool):
    """(L, lead) at |x| = r on one side of |x| = n, r a float or an array:
    the window length L of the endpoint sum and the log-magnitude `lead` of
    its endpoint term x^k/k! (k = n-1 outer, n inner).

    Outer (|x| >= n): S, summed downward from k = n-1, with term ratios
    (k/x).  Inner (|x| < n): the tail T, summed upward from k = n, with term
    ratios x/(k+1).  `rate` is the log-ratio of the first step; after j
    steps the terms have fallen by at least
      outer:  j rate + j(j-1)/(2(n-1)),  since -log(1-t) >= t;
      inner:  j rate + j^2 log 2/(2n) for j <= n, since log(1+t) >= t log 2
              on [0, 1], and by log 2 per step past j = n.
    Each window is the smallest j at which that bound reaches _WINDOW_DROP.
    """
    f = np if isinstance(r, np.ndarray) else math
    drop = _WINDOW_DROP
    if inner:
        # below |x| = 1e-300 n the tail is under 1e-300 of e^x ~ 1: dropped
        live = r > 1e-300 * n
        rate = f.log(n / _where(live, r, n))
        j_drop = 2.0 * drop / (rate + f.sqrt(rate * rate + 2.0 * drop * math.log(2.0) / n))
        lengths = _where(j_drop <= n, f.ceil(j_drop), n + math.ceil(drop / math.log(2.0)))
        return (_where(live, lengths, 1),
                _where(live, _log_kk_over_factorial(n) - n * rate, -math.inf))
    m = max(n - 1, 1)
    rate = f.log(r / m)
    a = rate - 0.5 / m
    j_drop = 2.0 * drop / (a + f.sqrt(a * a + 2.0 * drop / m))
    return _where(j_drop <= n, f.ceil(j_drop), n), (n - 1) * rate + _log_kk_over_factorial(n - 1)


def _window_coeffs(n: int, length: int, inner: bool) -> np.ndarray:
    """coeffs[j], j < length, of the endpoint sum: the j-th term is the
    endpoint term times coeffs[j] q^j, q = x/n inside and (n-1)/x outside."""
    if inner:
        # prod_{i=1}^{j} 1/(1 + i/n)
        return (1.0 / (1.0 + np.arange(length) / n)).cumprod()
    # prod_{i<j} (1 - i/(n-1)), one beyond: s1 starts at j = 1
    steps = 1.0 - np.arange(-1.0, length) / max(n - 1, 1)
    steps[0] = 1.0
    return steps.cumprod()


def _side_window(n: int, x: np.ndarray, inner: bool):
    """(q, lengths, coeffs, lead) of the endpoint sum for an array of points
    on one side of |x| = n (`_window_extent`): the sum is the endpoint term,
    of log-magnitude `lead`, times sum_{j<L} coeffs[j] q^j."""
    lengths, lead = _window_extent(n, np.abs(x), inner)
    lengths = lengths.astype(np.intp)
    q = x / n if inner else max(n - 1, 1) / x
    return q, lengths, _window_coeffs(n, int(lengths.max()), inner), lead


def _side_sums(n: int, x: np.ndarray, inner: bool):
    """(lead, sums) of the endpoint sum for points x on one side of |x| = n.

    Inner: sums is the window of the tail T, which is e^{lead + i n arg x}
    sums.  Outer: sums is s1 = q sum_{j<L-1} coeffs[j+1] q^j, the terms
    after the endpoint term t = x^{n-1}/(n-1)! of log-magnitude `lead`, so
    that e_n(x) = t (1 + s1) and s - 1 needs no subtraction.
    """
    q, lengths, coeffs, lead = _side_window(n, x, inner)
    if inner:
        return lead, _window_sums(q, lengths, coeffs)
    s1 = _window_sums(q, np.maximum(lengths - 1, 1), coeffs[1:])
    np.multiply(q, s1, out=s1)
    s1[lengths == 1] = 0.0  # the window is the endpoint term alone
    return lead, s1


def _point_sums(n: int, x, inner: bool):
    """(lead, sums) of `_side_sums` at one point x, a float or a complex: the
    window summed in Python arithmetic, each term of t_k = x^k/k! the last
    times its ratio, x/k upward from k = n inside and k/x downward from k =
    n-1 outside (q times the ratios `_window_coeffs` multiplies up).  The
    memory is O(1) for any window, and a real x stays real."""
    length, lead = _window_extent(n, abs(x), inner)
    if inner:
        term = total = 1.0
        for k in range(n + 1, n + length):
            term = term * x / k
            total += term
        return lead, total
    y = 1.0 / x
    term = total = (n - 1) * y if length > 1 else 0.0  # s1 starts at t_{n-2}/t_{n-1}
    for k in range(n - 2, n - length, -1):
        term *= k * y
        total += term
    return lead, total


def _tail(n: int, sums, arg_x):
    """e^{-lead} T for the tail T = sum_{k>=n} x^k/k! = e^{lead + i n arg x}
    sums inside |x| = n, sums its window (`_side_sums`)."""
    return _exp(1j * n * arg_x) * sums


def _turns(n: int, arg_x, ratio: bool) -> tuple:
    """(e^{i n arg x}, e^{i (n-1) arg x} or None unless ratio): the phases of
    the tail's and of the endpoint's terms that `_inner_e_n` reads."""
    return _exp(1j * n * arg_x), _exp(1j * (n - 1) * arg_x) if ratio else None


def _inner_e_n(n: int, lead, sums, scale, x_less_scale, abs_x, turns: tuple, ratio: bool):
    """(log |e_n(x)|, c, r) inside |x| = n: e_n(x) = e^x - T = e^{scale} c from
    the tail's window sums, T = sum_{k>=n} x^k/k! = e^{lead + i n arg x} sums,
    x_less_scale = x - scale, and r = e_{n-1}/e_n = 1 - t/e_n, t =
    x^{n-1}/(n-1)!, all broadcast, or all scalars at one point, with the
    phases turns = `_turns`; r is None unless ratio.  Where |c| <= 1e-300 the
    division is skipped and r stays finite: every scale is at most |x|, so
    |e_n| <= 1e-300 e^{|x|} and B_n is below e^{-1300} there, under its flush."""
    c = _exp(x_less_scale) - _exp(lead - scale) * turns[0] * sums
    log_e = scale + _log(abs(c))  # -inf where e_n(x) rounds to 0
    if not ratio:
        return log_e, c, None
    if n == 1:  # e_0 = 0
        return log_e, c, np.zeros(c.shape, dtype=complex) if isinstance(c, np.ndarray) else 0j
    log_t = (n - 1) * _log(abs_x / (n - 1)) + _log_kk_over_factorial(n - 1)
    t = _exp(log_t - scale) * turns[1]
    ok = log_e > scale + math.log(1e-300)
    if isinstance(t, np.ndarray):  # in place: t is a grid-sized temporary
        np.divide(t, c, out=t, where=ok)
        return log_e, c, np.subtract(1.0, t, out=t)
    return log_e, c, 1.0 - (t / c if ok else t)


def _outer_e_n(lead, s1, ratio: bool):
    """(log |e_n(x)|, s, r) outside |x| = n, e_n(x) = t s, s = 1 + s1, log |t| =
    lead (`_side_sums`); s has no zero (falling positive coefficients, |q| < 1).
    r = e_{n-1}/e_n = s1/s, as e_{n-1} = t s1, or None unless ratio; 1 - 1/s
    would cancel for large |x|."""
    s = 1.0 + s1
    return lead + _log(abs(s)), s, s1 / s if ratio else None


def _flat_e_n(n: int, x: np.ndarray, ratio: bool):
    """(log |e_n(x)|, r) over a flat array x, r None unless ratio: e_n =
    e^{scale} c inside |x| = n, scale = max(Re x, lead), and t s outside,
    log |t| = lead."""
    inner = np.abs(x) < n
    outer = ~inner
    log_e = np.empty(x.size)
    r = np.empty(x.size, dtype=complex) if ratio else None
    if np.count_nonzero(outer):  # a fraction of the cost of outer.any()
        log_e[outer], _, r_outer = _outer_e_n(*_side_sums(n, x[outer], False), ratio)
        if ratio:
            r[outer] = r_outer
    if np.count_nonzero(inner):
        xs = x[inner]
        lead, sums = _side_sums(n, xs, True)
        s = np.maximum(xs.real, lead)
        log_e[inner], _, r_inner = _inner_e_n(n, lead, sums, s, xs - s, np.abs(xs),
                                              _turns(n, np.angle(xs), ratio), ratio)
        if ratio:
            r[inner] = r_inner
    return log_e, r


def _point_e_n(n: int, x):
    """(inner, log |e_n(x)|, c, r) at one point x, a float or a complex, inner
    whether |x| < n: `_flat_e_n`'s two values and c, e_n = e^{scale} c inside
    and t c outside."""
    inner = abs(x) < n
    lead, sums = _point_sums(n, x, inner)
    if not inner:
        return False, *_outer_e_n(lead, sums, True)
    s = max(x.real, lead)
    return True, *_inner_e_n(n, lead, sums, s, x - s, abs(x),
                             _turns(n, math.atan2(x.imag, x.real), True), True)


def _raw_partial_sum(n: int, zeta: complex) -> LogComplex:
    """sum_{k=0}^{n-1} (n zeta)^k / k! in log-polar form, on the one-point
    route; a real zeta gives a real sum, whose arg is 0 or pi."""
    zeta = complex(zeta)
    check_n(n)
    check_scale(n * extent(zeta))
    x = n * zeta
    inner, log_mag, c, _ = _point_e_n(n, x)
    arg = _norm_arg(math.atan2(c.imag, c.real)
                    + (0.0 if inner else (n - 1) * math.atan2(x.imag, x.real)))
    if zeta.imag == 0.0:
        arg = math.pi if abs(arg) > 0.5 * math.pi else 0.0
    return LogComplex(log_mag, arg)


def _gamma_cf(a: float, x: complex) -> LogComplex:
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
    for i in range(1, 100000):
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
        if abs(delta - 1.0) < 1e-15:
            break
    else:
        raise PrecisionError("incomplete-gamma continued fraction did not converge")
    # atan2: cmath.phase raises OverflowError when the angle underflows
    return LogComplex(
        -x.real + a * math.log(abs(x)) + math.log(abs(h)),
        _norm_arg(-x.imag + a * math.atan2(x.imag, x.real) + math.atan2(h.imag, h.real)),
    )


def partial_exp_sum_gamma_route(n: int, zeta: complex) -> LogComplex:
    """E_n(zeta) via the incomplete-gamma identity; requires Re(zeta) > 1."""
    zeta = complex(zeta)
    check_n(n)
    check_scale(n * extent(zeta))
    if zeta.real <= 1.0:
        raise DomainError("gamma-function route is restricted to Re(zeta) > 1")
    g = _gamma_cf(float(n), n * zeta)
    return LogComplex(g.log_mag - math.lgamma(n), g.arg)


def partial_exp_sum(n: int, zeta: complex) -> LogComplex:
    """E_n(zeta) = e^{-n zeta} sum_{k<n} (n zeta)^k / k!.

    When Re(zeta) > 1 the value is verified against the continued-fraction
    gamma route: a log-polar disagreement beyond 1e-8, or beyond the rounding
    floor 4 eps (n|zeta| + n|log n zeta|) of the two routes' exponents where
    that is larger (past n|zeta| + n|log n zeta| = 1.1e7), raises PrecisionError.
    """
    zeta = complex(zeta)
    raw = _raw_partial_sum(n, zeta)
    value = LogComplex(raw.log_mag - n * zeta.real, _norm_arg(raw.arg - n * zeta.imag))
    if zeta.real > 1.0:
        alt = partial_exp_sum_gamma_route(n, zeta)
        rel = abs(value.log_mag - alt.log_mag) + abs(_norm_arg(value.arg - alt.arg))
        if rel > _CROSSCHECK_TOL and rel > _CROSSCHECK_FLOOR * _EPS * n * (
                abs(zeta) + abs(cmath.log(n * zeta))):
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
    zeta = complex(zeta)
    check_n(n)
    check_scale(n * extent(zeta))
    x = n * zeta
    if abs(x) < n:
        lead, sums = _point_sums(n, x, True)
        tail = _tail(n, sums, math.atan2(x.imag, x.real))  # e^{-lead} T; lead = -inf: T dropped
        arg = _norm_arg(math.atan2(tail.imag, tail.real) - x.imag)
        # the sign: arg + pi, odd in arg, so that conj zeta gives the conjugate bit for bit
        return LogComplex(lead + math.log(abs(tail)) - x.real,
                          arg - math.pi if arg > 0.0 else arg + math.pi)
    raw = _raw_partial_sum(n, zeta)
    log_e, arg = raw.log_mag - x.real, _norm_arg(raw.arg - x.imag)
    # E_n - 1 = e^{top} (E_n e^{-top} - e^{-top}), the 1 subtracted as a real
    # number, so that conj zeta gives the conjugate bit for bit
    top = max(log_e, 0.0)
    d = cmath.rect(math.exp(log_e - top), arg) - math.exp(-top)
    return LogComplex(top + _log(abs(d)), math.atan2(d.imag, d.real))


def ginibre_kernel_exact(n: int, z: complex, w: complex) -> GinibreKernelValue:
    """Exact kernel K_n(z, w) in log-polar form."""
    z = complex(z)
    w = complex(w)
    check_n(n)
    scale = max(extent(z), extent(w))
    check_scale(n * scale * scale)
    raw = _raw_partial_sum(n, z * w.conjugate())
    gauss = -0.5 * n * (abs(z) ** 2 + abs(w) ** 2)
    value = lc_mul(LogComplex(math.log(n) + gauss, 0.0), raw)
    return GinibreKernelValue(n=n, z=z, w=w, value=value)


def ginibre_log_one_point(n: int, z: complex) -> float:
    """log R_n(z); the one-point function is R_n(z) = n E_n(|z|^2)."""
    return GinibreRoot(n, z).log_one_point()


def ginibre_berezin(n: int, z: complex, w: complex) -> float:
    """Berezin kernel B_n(z, w) = |K_n(z, w)|^2 / K_n(z, z)."""
    kzw = ginibre_kernel_exact(n, z, w).value
    log_b = 2.0 * kzw.log_mag - ginibre_log_one_point(n, z)
    return math.exp(log_b) if log_b > -745.0 else 0.0


# ---------------------------------------------------------------------------
# Vectorized evaluation over grids: B_n and dbar_z B_n from one set of sums
# ---------------------------------------------------------------------------


def _ring_window_sums(q: np.ndarray, lengths: np.ndarray, coeffs: np.ndarray,
                      table: np.ndarray, giant: np.ndarray, first: int) -> np.ndarray:
    """sum_{first<=j<L} coeffs[j] (q omega)^j for every ring (q >= 0, L) and
    every angle omega, |omega| = 1, as a (rings, angles) array, from the
    tables table[b] = omega^b, b <= J, and giant[c] = omega^{cJ}.

    The rings go in groups whose longest window is at most _RING_SPREAD
    times the shortest.  A group takes J terms at a time, each chunk one
    real-by-complex matrix product: the rows coeffs[j] q^j against the
    table viewed as float, times the chunk's giant step.  A window of at
    most J terms is one product, with no giant step.  As in `_window_sums`,
    the extra terms of the shorter windows are genuine (smaller) terms of
    the same series.
    """
    span = table.shape[0] - 1
    pairs = table.view(float)
    out = np.zeros((q.size, table.shape[1]), dtype=complex)
    order = np.argsort(lengths, kind="stable")
    sorted_len = lengths[order]
    lo = 0
    while lo < order.size:
        hi = int(np.searchsorted(sorted_len, _RING_SPREAD * sorted_len[lo], side="right"))
        idx, stop = order[lo:hi], int(sorted_len[hi - 1])
        for start in range(first, stop, span):
            j = np.arange(start, min(start + span, stop))
            rows = coeffs[j] * q[idx, None] ** j
            chunk = (rows @ pairs[first:first + j.size]).view(complex)
            if start == first:
                out[idx] = chunk
            else:
                out[idx] += chunk * giant[(start - first) // span]
        lo = hi
    return out


class GinibreRoot:
    """The Ginibre kernel at a root z: the values that every Berezin grid and
    root term reads, e_n(n|z|^2) and r(n|z|^2) (`_point_e_n` on the
    diagonal), found once at construction, after the entry check on n and z.

    The grids are B_n = |K_n(z, w)|^2 / K_n(z, z) and dbar_z B_n over node
    arrays (`ginibre_berezin_array`) and over polar tensors in blocks of
    rings (`tensor_blocks`); the root terms are log R_n(z), Lap log k_n(z, z)
    and a bound on log B_n(z, .) by |w|.  A walk keeps one per root
    (`ward.GinibreSource`).
    """

    def __init__(self, n: int, z: complex):
        z = complex(z)
        check_n(n)
        scale = extent(z)
        check_scale(n * scale * scale)
        self.n, self.z = n, z
        _, self.log_d, self.c_d, self.r_d = _point_e_n(n, n * abs(z) ** 2)

    def log_one_point(self) -> float:
        """log R_n(z) = log n + log e_n(n|z|^2) - n|z|^2."""
        m2 = abs(self.z) ** 2
        return math.log(self.n) + (self.log_d - self.n * m2)

    def lap_log_kernel(self) -> float:
        """Lap log k_n(z, z) for the unweighted kernel k_n(z, z) = n e_n(n|z|^2).

        With x = n|z|^2, Lap log k_n = (x d/dx)^2 log e_n / |z|^2, the
        variance of k under the weights x^k/k!, k < n, divided by |z|^2.
        - x < n: e_n = e^x (1 - u) with u = T e^{-x} and du/dx = p, the
          Poisson weight x^{n-1} e^{-x}/(n-1)!, which gives n [1 - g (n - x)
          - x g^2], g = p/(1 - u); used while the subtracted part is below 1/2.
        - Elsewhere, where the endpoint share g is not small, the variance of
          j = n-1-k under the window weights coeffs[j] q^j, centred first.
        """
        n, z = self.n, self.z
        if n == 1:
            return 0.0  # k_1 = 1
        x = n * abs(z) ** 2
        if x == 0.0:
            return float(n)
        if x < n:
            # scale x: e^x > x^n/n!, so c = e^{-x} e_n = 1 - u
            p = math.exp((n - 1) * math.log(x / (n - 1)) + _log_kk_over_factorial(n - 1) - x)
            g = p / self.c_d.real
            cut = g * (n - x) + x * g * g
            if cut < 0.5:
                return n * (1.0 - cut)
        length, _ = _window_extent(n, x, False)
        j = np.arange(length)
        weights = _window_coeffs(n, length, False)[:length] * ((n - 1) / x) ** j
        mean = float(np.sum(j * weights) / np.sum(weights))
        return float(np.sum((j - mean) ** 2 * weights) / np.sum(weights)) / abs(z) ** 2

    def log_berezin_bound(self, abs_w: np.ndarray) -> np.ndarray:
        """log n + 2 log e_n(X) - n|w|^2 - log e_n(n|z|^2) >= log B_n(z, w) on |w| =
        abs_w, X = n|z||w| (|e_n(x)| <= e_n(X)), with log e_n(X) <= X below X = n
        and at most the endpoint term's lead + log min(n, 1/(1 - (n-1)/X)) from
        there.  As e_{n-1} <= e_n and 0 <= r(n|z|^2) <= 1, |dbar_z B_n| <= n (|w| +
        |z|) e^{bound} (`grids`)."""
        n = self.n
        x = n * abs(self.z) * abs_w
        x_out = np.maximum(x, n)  # the bound from X = n, taken everywhere
        _, lead = _window_extent(n, x_out, False)
        outer = lead + np.minimum(math.log(n), -np.log1p(-(n - 1) / x_out))
        return 2.0 * np.where(x >= n, outer, x) + (math.log(n) - self.log_d) - n * abs_w ** 2

    def grids(self, log_e: np.ndarray, r: np.ndarray, abs_w: np.ndarray, w_parts: tuple,
              dbar: bool):
        """(B_n(z, w), dbar_z B_n(z, w) if dbar else None) from log |e_n(x)| and
        r(x) = e_{n-1}/e_n (None without dbar) at x = n z w~ of either layout,
        broadcast against abs_w = |w|; w is the product of w_parts, multiplied
        in order.

        B_n = n |e_n(x)|^2 e^{-n|w|^2} / e_n(n|z|^2), flushed to zero below
        e^{-745}, and dbar_z B_n = n B_n (w conj r(x) - z r(n|z|^2)), zero at
        w = z.  log_e and r are overwritten; B is bit for bit the same either way.
        """
        n = self.n
        log_b = np.multiply(log_e, 2.0, out=log_e)
        log_b += (math.log(n) - self.log_d) - n * abs_w ** 2
        b = np.zeros(log_b.shape)
        np.exp(log_b, out=b, where=log_b > -745.0)
        if not dbar:
            return b, None
        # r is finite on every node
        bracket = np.conj(r, out=r)
        for part in w_parts:
            bracket *= part
        bracket -= self.z * self.r_d.real
        return b, np.multiply(n * b, bracket, out=np.zeros(b.shape, dtype=complex), where=b > 0.0)

    def tensor_blocks(self, angles: np.ndarray, radii: np.ndarray, dbar: bool, rings: int):
        """(B_n, dbar_z B_n if dbar else None) over the tensor w = radii e^{i
        angles}, as a generator of (block, b, f) over consecutive blocks of
        `rings` rings (one empty block without rings), block the slice of
        radii and b, f shaped (block, angles).  The arguments are checked at
        the call, not at the first block.

        On the ring |w| = s, x = n z w~ = n|z| s omega, omega = e^{i(phi_z -
        phi)}: every node of a ring shares |x|, its side of |x| = n, its
        window and its lead.  Formed once, before the first block: each
        ring's window (`_side_window`), the tables of `_ring_window_sums`
        with J at most `rings` (at most one block of nodes), and the angle
        factors e^{i n alpha}, e^{i (n-1) alpha} and e^{i alpha} - 1, alpha =
        arg omega.  The values agree with `ginibre_berezin_array` on the same
        nodes up to rounding.
        """
        angles = np.asarray(angles, dtype=float)
        radii = np.asarray(radii, dtype=float)
        scale = extent(self.z) + extent(radii)
        check_scale(self.n * scale * scale + extent(angles))
        return self._tensor_blocks(angles, radii, dbar, rings)

    def _tensor_blocks(self, angles: np.ndarray, radii: np.ndarray, dbar: bool, rings: int):
        n, z = self.n, self.z
        omega = np.exp(1j * (math.atan2(z.imag, z.real) - angles))
        arg = np.angle(omega)
        abs_x = n * abs(z) * radii
        inner = abs_x < n
        q, lead = np.empty(radii.size), np.empty(radii.size)
        lengths = np.ones(radii.size, dtype=np.intp)
        coeffs = {}
        for side in (False, True):
            on = inner == side
            if np.count_nonzero(on):
                q[on], lengths[on], coeffs[side], lead[on] = _side_window(n, abs_x[on], side)
        # omega^b for b <= J and the giant steps omega^{cJ}, J at most a block's rings
        longest = int(lengths.max(initial=1))
        span = max(1, min(rings, longest))
        table = np.empty((span + 1, angles.size), dtype=complex)
        table[:] = omega
        table[0] = 1.0
        np.cumprod(table, axis=0, out=table)
        giant = np.empty((-(-longest // span), angles.size), dtype=complex)
        giant[:] = table[span]
        giant[0] = 1.0
        np.cumprod(giant, axis=0, out=giant)
        turns = _turns(n, arg, dbar)
        # inside, the ring's |x| is the scale: x - |x| = |x| (omega - 1)
        less_one = np.exp(1j * arg) - 1.0
        turn = np.exp(1j * angles)

        def block(lo):
            rows = slice(lo, lo + rings)
            log_e = np.empty((radii[rows].size, angles.size))
            r = np.empty(log_e.shape, dtype=complex) if dbar else None
            for side in (False, True):
                at = np.flatnonzero(inner[rows] == side)
                if not at.size:
                    continue
                ring = at + lo
                # outer: s1 = the terms after the endpoint, from j = 1, on conj(omega)
                sums = _ring_window_sums(q[ring], lengths[ring], coeffs[side], table, giant,
                                         0 if side else 1)
                if side:
                    ring_x = abs_x[ring, None]
                    log_e[at], _, r_side = _inner_e_n(n, lead[ring, None], sums, ring_x,
                                                      ring_x * less_one, ring_x, turns, dbar)
                else:
                    log_e[at], _, r_side = _outer_e_n(lead[ring, None], np.conj(sums, out=sums),
                                                      dbar)
                if dbar:
                    r[at] = r_side
            s = radii[rows, None]
            return (rows, *self.grids(log_e, r, s, (s, turn), dbar))

        # a block's arrays live with the caller only, not in this frame
        yield from map(block, range(0, max(radii.size, 1), rings))


def ginibre_berezin_array(n: int, z: complex, ws: np.ndarray, dbar: bool,
                          root: GinibreRoot | None = None):
    """(B_n(z, w), dbar_z B_n(z, w) if dbar else None) over any array of w,
    shaped as ws: the sums point by point (`_flat_e_n`).  root is the
    `GinibreRoot` of (n, z) when the caller keeps one, or found here."""
    z = complex(z)
    ws = np.asarray(ws, dtype=complex)
    if root is None:
        root = GinibreRoot(n, z)
    scale = extent(z) + extent(ws)
    check_scale(n * scale * scale)
    flat = ws.ravel()
    log_e, r = _flat_e_n(n, n * (z * np.conj(flat)), dbar)
    b, f = root.grids(log_e, r, np.abs(flat), (flat,), dbar)
    return b.reshape(ws.shape), None if f is None else f.reshape(ws.shape)


def ginibre_lap_log_kernel(n: int, z: complex) -> float:
    """Lap log k_n(z, z) for the unweighted kernel k_n(z, z) = n e_n(n|z|^2)
    (`GinibreRoot.lap_log_kernel`)."""
    return GinibreRoot(n, z).lap_log_kernel()
