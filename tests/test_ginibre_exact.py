import cmath
import functools
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wpkernel import (
    DomainError,
    GinibreSource,
    PrecisionError,
    ginibre_berezin,
    ginibre_kernel_exact,
    partial_exp_sum,
    partial_exp_sum_complement,
    partial_exp_sum_gamma_route,
)
from wpkernel import ginibre_exact
from wpkernel.ginibre_exact import (
    _flat_e_n,
    _point_e_n,
    _raw_partial_sum,
    ginibre_berezin_array,
    ginibre_lap_log_kernel,
    ginibre_log_one_point,
)
from wpkernel.scaled_numerics import (
    LogComplex,
    _norm_arg,
    lc_sum_scaled_parts,
    quad_radial,
    quad_trapezoid_periodic,
)


def rel_lc(a, b):
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.arg - b.arg)) - 1.0)


@functools.lru_cache(maxsize=None)
def _mp_log_factorials(n):
    """log k! for k < n at 30 digits."""
    with mpmath.workdps(30):
        return list(itertools.accumulate((mpmath.log(k) for k in range(1, n)),
                                         initial=mpmath.mpf(0)))


def direct_partial_sum(n, zeta):
    """Reference: all n terms of x = n zeta, the log-magnitudes
    k log|x| - log k! formed at 30 digits relative to the largest one, so
    that no float64 cancellation enters them, and the arguments k arg x."""
    nz = n * complex(zeta)
    with mpmath.workdps(30):
        log_x = mpmath.log(abs(mpmath.mpc(nz.real, nz.imag)))
        logs = [k * log_x - lf for k, lf in enumerate(_mp_log_factorials(n))]
        top = max(logs)
        rel = np.array([float(v - top) for v in logs])
    s = lc_sum_scaled_parts(rel, math.atan2(nz.imag, nz.real) * np.arange(n))
    return LogComplex(float(top) + s.log_mag, s.arg)


def mp_partial_sum(n, zeta, dps=80):
    """Reference: e^x Q(n, x) = sum_{k<n} x^k/k!, x = n zeta, at dps digits."""
    with mpmath.workdps(dps):
        x = n * mpmath.mpc(zeta.real, zeta.imag)
        s = mpmath.exp(x) * mpmath.gammainc(n, x, mpmath.inf, regularized=True)
        return LogComplex(float(mpmath.log(abs(s))), float(mpmath.arg(s)))


def test_partial_sum_at_zero_and_single_term():
    for n in (1, 5, 50):
        e = partial_exp_sum(n, 0.0)
        assert e.to_complex() == 1.0
    zeta = 0.4 + 0.9j
    e1 = partial_exp_sum(1, zeta)
    assert abs(e1.to_complex() - cmath.exp(-zeta)) < 1e-15


def test_half_mass_limit_at_one():
    # one minus the mass below the mean of a Poisson variable tends to 1/2
    e = partial_exp_sum(5000, 1.0)
    assert abs((1.0 - math.exp(e.log_mag)) - 0.5) < 0.02


# zeta where the n terms do not cancel: the positive axis, and |zeta| > 1
# away from the negative axis
_NON_CANCELLING = [0.02, 0.3, 0.9, 1.0, 1.7, 3.0, 1.3 + 0.4j, 2.2 - 1.5j, -0.4 + 1.6j]


@pytest.mark.parametrize("n", [1, 2, 7, 30, 200, 800, 3200])
def test_window_matches_direct_sum(n):
    for zeta in _NON_CANCELLING:
        assert rel_lc(_raw_partial_sum(n, zeta), direct_partial_sum(n, zeta)) < 1e-12


def test_endpoint_lead_near_unit_circle_matches_mpmath():
    # the endpoint term's log-magnitude is formed near |x| = n, where
    # n log|x| and log n! are both above 2e4 at n = 3200; the lead must not
    # inherit their float64 spacing
    rng = np.random.default_rng(3200)
    zetas = np.array([cmath.rect(r, t) for r, t in
                      zip(rng.uniform(0.97, 1.03, 12), rng.uniform(-math.pi, math.pi, 12))])
    log_mag, _ = _flat_e_n(3200, 3200 * zetas, False)
    ref = [mp_partial_sum(3200, zeta, dps=40).log_mag for zeta in zetas]
    assert np.max(np.abs(log_mag - ref)) <= 1.5e-12


@pytest.mark.parametrize("n", [10, 50, 150])
def test_bulk_cancellation_matches_mpmath(n):
    # inside the unit disc the n terms cancel; e^{n zeta} minus the tail does not
    zetas = [0.5j, -0.5, -0.3 + 0.6j, 0.4 - 0.7j, 0.85j, 0.6 + 0.6j]
    for zeta in zetas:
        assert rel_lc(_raw_partial_sum(n, zeta), mp_partial_sum(n, zeta)) < 5e-13


@pytest.mark.parametrize("n", [1000, 4000])
def test_inner_partial_sum_at_large_n_matches_mpmath(n):
    # |x| exceeds Re x by up to n|zeta|: the inner sum must be scaled by
    # max(Re x, lead), not by |x|, or e^{x - |x|} underflows at 0.5i
    for zeta in [0.5j, 0.85j, 0.99j, -0.5, -0.3 + 0.6j]:
        assert rel_lc(_raw_partial_sum(n, zeta), mp_partial_sum(n, zeta, dps=40)) <= 3e-12


@pytest.mark.parametrize("zeta", [1.5, 2.0, 3 + 1j])
@pytest.mark.parametrize("n", [50, 200])
def test_gamma_route_agreement(zeta, n):
    a = partial_exp_sum(n, zeta)
    b = partial_exp_sum_gamma_route(n, zeta)
    assert rel_lc(a, b) < 1e-10


def test_kernel_trivial_values():
    for n in (1, 10, 137):
        k = ginibre_kernel_exact(n, 0.0, 0.0)
        assert abs(k.value.to_complex() - n) < 1e-12 * n
    z, w = 0.7 + 0.2j, -0.4 + 1.1j
    k1 = ginibre_kernel_exact(1, z, w)
    expected = math.exp(-0.5 * (abs(z) ** 2 + abs(w) ** 2))
    assert abs(k1.value.to_complex() - expected) < 1e-14


def test_boundary_one_point_half():
    n = 5000
    assert math.exp(ginibre_log_one_point(n, 1.0)) / n == pytest.approx(0.5, abs=0.02)


def test_hermitian_symmetry_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        w = complex(*rng.uniform(-1.5, 1.5, 2))
        a = ginibre_kernel_exact(n, z, w).value
        b = ginibre_kernel_exact(n, w, z).value
        assert a.log_mag == b.log_mag
        assert a.arg == pytest.approx(-b.arg, abs=0.0) or (a.arg == math.pi and b.arg == math.pi)


def test_cauchy_schwarz_property():
    rng = np.random.default_rng(9)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        z = complex(*rng.uniform(-1.5, 1.5, 2))
        w = complex(*rng.uniform(-1.5, 1.5, 2))
        kzw = ginibre_kernel_exact(n, z, w).value.log_mag
        kzz = ginibre_kernel_exact(n, z, z).value.log_mag
        kww = ginibre_kernel_exact(n, w, w).value.log_mag
        assert 2 * kzw <= kzz + kww + 1e-12


def test_berezin_trivial_and_decay():
    assert ginibre_berezin(10, 0.0, 0.0) == pytest.approx(10.0, rel=1e-12)
    # diagonal equals the one-point function
    z = 0.6 + 0.4j
    assert ginibre_berezin(35, z, z) == pytest.approx(math.exp(ginibre_log_one_point(35, z)),
                                                      rel=1e-12)
    # off-diagonal boundary decay: B ~ (1/pi) |z-w|^{-2}
    b = ginibre_berezin(1000, 1.0, 1j)
    assert b == pytest.approx(1.0 / (2.0 * math.pi), rel=0.05)


@pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0])
def test_berezin_mass_is_one(z):
    n = 150
    radial = quad_radial(1.0 + 10.0 / math.sqrt(n), 1.0 / math.sqrt(n))
    angular = quad_trapezoid_periodic(256)
    ws = radial.nodes[:, None] * np.exp(1j * angular.nodes)[None, :]
    b, _ = ginibre_berezin_array(n, complex(z), ws, False)
    mass = float(np.sum(
        radial.weights[:, None] * angular.weights[None, :] * b * radial.nodes[:, None]
    ) / math.pi)
    assert mass == pytest.approx(1.0, abs=1e-6)


def _mp_e_pair(n, x):
    """(e_{n-1}(x), e_n(x)), e_n(x) = sum_{k<n} x^k/k!, to 50 digits.  Inside
    |x| = n the terms, up to e^{|x|}, cancel to e^{Re x}, so the sum carries
    0.87 |x| more digits; outside, the endpoint term dominates it."""
    with mpmath.workdps(60 + (int(0.87 * abs(x)) if abs(x) < n else 0)):
        x = mpmath.mpc(x.real, x.imag)
        term, total = mpmath.mpf(1), mpmath.mpf(0)
        for k in range(n - 1):
            total += term
            term *= x / (k + 1)
        return total, total + term


def _mp_berezin(n, z, ws):
    """(log B, B, dbar_z B, scale) per node at 50 digits, from all n terms:
    B = n |e_n(x)|^2 e^{-n|w|^2} / e_n(d) and
    dbar_z B = n B (w conj r(x) - z r(d)), r = e_{n-1}/e_n, x = n z w~,
    d = n |z|^2; scale = n B (|w| max(1, |r(x)|) + |z| max(1, |r(d)|)) is
    the size of the bracket's two terms."""
    with mpmath.workdps(50):
        zm = mpmath.mpc(z.real, z.imag)
        e1d, ed = _mp_e_pair(n, n * abs(z) ** 2)
        rd = e1d / ed
        for w in ws:
            wm = mpmath.mpc(w.real, w.imag)
            e1x, ex = _mp_e_pair(n, n * z * w.conjugate())
            b = n * abs(ex) ** 2 * mpmath.exp(-n * abs(wm) ** 2) / ed.real
            rx = e1x / ex
            dbar = n * b * (wm * mpmath.conj(rx) - zm * rd)
            scale = n * b * (abs(wm) * max(1, abs(rx)) + abs(zm) * max(1, abs(rd)))
            yield float(mpmath.log(b)), b, dbar, scale


def ginibre_berezin_tensor(n, z, angles, radii, dbar):
    """The ring route on the tensor radii e^{i angles}: the source's blocks, stacked."""
    return GinibreSource(n).berezin_tensor(z, angles, radii, dbar)


@pytest.mark.parametrize("n", [1, 2, 50, 800])
def test_berezin_array_route_matches_mpmath(n):
    # both array routes to B_n and dbar_z B_n: roots inside, on and outside
    # |z| = 1 and at z = 0.  Flat nodes at w = 0, w = z, on both sides of
    # |x| = n (|w| = (1 -+ 1e-3)/|z|) and a heat-kernel distance n^{-1/2}
    # out; ring nodes on the same radii, one ray through z and one across
    h = 0.7 / math.sqrt(n)
    for z in (0.0, cmath.rect(0.6, 0.4), cmath.rect(1.0, 1.1), cmath.rect(1.7, -2.3)):
        ws = [0.0, z, 0.3 * cmath.exp(2j), z + h * cmath.exp(0.9j), z - h * cmath.exp(-2.1j)]
        radii = [abs(z) + h]
        if z != 0.0:
            ws += [z / abs(z) ** 2 * (1.0 + d) * cmath.exp(0.05j) for d in (-1e-3, 1e-3)]
            radii += [(1.0 + d) / abs(z) for d in (-1e-3, 1e-3)]
        ws = np.array(ws, dtype=complex)
        b, dbar = ginibre_berezin_array(n, z, ws, True)
        assert np.array_equal(ginibre_berezin_array(n, z, ws, False)[0], b)
        angles = cmath.phase(z) + np.array([0.0, 2.0])
        radii = np.array(radii)
        b_ring, dbar_ring = ginibre_berezin_tensor(n, z, angles, radii, True)
        assert np.array_equal(ginibre_berezin_tensor(n, z, angles, radii, False)[0], b_ring)
        ws = np.concatenate([ws, (radii * np.exp(1j * angles)[:, None]).ravel()])
        # the tensor is (radii, angles): transposed to the node order of ws
        b = np.concatenate([b, b_ring.T.ravel()])
        dbar = np.concatenate([dbar, dbar_ring.T.ravel()])
        tol = 10.0 * GinibreSource(n).value_error(z)
        refs = _mp_berezin(n, complex(z), [complex(w) for w in ws])
        for bv, dv, (log_ref, b_ref, dbar_ref, scale) in zip(b, dbar, refs):
            if log_ref < -700.0:
                assert bv <= 1e-300
                continue
            assert abs(bv / float(b_ref) - 1.0) <= tol
            assert abs(dv - complex(dbar_ref)) <= tol * float(scale)


def _ring_layout(n, z):
    """Angles and radii of a tensor about z out to the walk's s_max, with
    rings straddling |x| = n|z||w| = n where it lies within 2 s_max, one of
    them exactly on it when |z| is a power of two."""
    s_max = 1.0 + 12.0 / math.sqrt(n)
    angles = cmath.phase(z) + np.linspace(-math.pi, math.pi, 41)[:-1] + 0.01
    radii = np.linspace(0.02, s_max, 23)
    if abs(z) * 2.0 * s_max > 1.0:
        on = 1.0 / abs(z)
        radii = np.concatenate([radii, on * (1.0 + np.array([0.0, -1e-9, 1e-9, -1e-3, 1e-3]))])
    return angles, radii


@pytest.mark.parametrize("n", [1, 2, 50, 800, 3200])
def test_ring_route_matches_flat_route(n):
    # the ring route (one matrix product per group of rings) against the
    # flat route on the same tensor nodes; where |x| = n|z||w| is n, rounding
    # puts the flat route's nodes on either side
    for z in (0.0, 0.5j, 2.0, cmath.rect(0.8, 0.3), cmath.rect(1.3, -2.0)):
        angles, radii = _ring_layout(n, z)
        ws = radii * np.exp(1j * angles)[:, None]
        b, dbar = (g.T for g in ginibre_berezin_tensor(n, z, angles, radii, True))
        b_flat, dbar_flat = ginibre_berezin_array(n, z, ws, True)
        assert b.shape == dbar.shape == ws.shape
        live = b_flat >= 1e-200
        assert np.all(b[~live] < 1e-190)
        assert np.all(np.abs(b - b_flat)[live] <= 1e-11 * b_flat[live])
        scale = n * b_flat * (np.abs(ws) + abs(z)) + np.abs(dbar_flat)
        assert np.all(np.abs(dbar - dbar_flat)[live] <= 1e-11 * scale[live])
    for angles, radii in (([0.0, math.nan], [0.5]), ([0.0], [0.5, 1e300])):
        with pytest.raises(DomainError):
            ginibre_berezin_tensor(n, 0.5, np.array(angles), np.array(radii), False)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3200), st.floats(0.0, 2.0), st.floats(-math.pi, math.pi))
def test_ring_route_conjugation_property(n, radius, alpha):
    # conj B_n(z, w) = B_n(conj z, conj w): the grid at conj z on the mirrored
    # angles is the conjugate of the grid at z
    z = cmath.rect(radius, alpha)
    angles, radii = _ring_layout(n, z)
    b, dbar = (g.T for g in ginibre_berezin_tensor(n, z, angles, radii, True))
    b_m, dbar_m = (g.T for g in ginibre_berezin_tensor(n, z.conjugate(), -angles, radii, True))
    assert np.all(np.abs(b_m - b) <= 1e-13 * b)
    scale = n * b * (radii + abs(z)) + np.abs(dbar)
    assert np.all(np.abs(dbar_m - np.conj(dbar)) <= 1e-13 * scale)


@pytest.mark.parametrize("n", [2, 50, 800])
def test_outer_ratio_keeps_relative_precision(n):
    # r = e_{n-1}/e_n = s1/(1 + s1) outside |x| = n: about n/x far out, where
    # 1 - 1/s would keep only eps/r of it
    xs = n * np.array([10.0, 1e3, 1e6, 1e6 * cmath.exp(2.5j), 1e9j])
    _, r = _flat_e_n(n, xs, True)
    for x, val in zip(xs, r):
        e1, e = _mp_e_pair(n, complex(x))
        ref = complex(e1 / e)
        assert abs(val / ref - 1.0) <= 1e-13


def test_complement_route_consistency():
    # small n: E_n - 1 from the tail sum vs direct subtraction
    for n, zeta in [(12, 0.3), (20, 0.2 + 0.1j), (30, 1.5 + 0.2j)]:
        direct = partial_exp_sum(n, zeta).to_complex() - 1.0
        comp = partial_exp_sum_complement(n, zeta).to_complex()
        assert abs(direct - comp) < 1e-12 * max(1.0, abs(direct))


def test_array_path_matches_scalar():
    # the node-array route's log |e_n| and r = e_{n-1}/e_n, what the grids
    # read, against the one-point route and, up to n = 60, against 50
    # digits: both sides of |x| = n and 1e-9 off it, |x| = n exactly
    # (zeta = 1j, -1), x = 0, real negative zeta (away from the zero x = -1
    # of e_2, where both routes return rounding), and |x| below the 1e-300 n
    # cut of the dropped tail
    zetas = np.array([0.3 + 0.2j, 1.4, -0.8 + 0.5j, 2.2 - 1.0j, 0.9 * cmath.exp(2.0j),
                      1.1 * cmath.exp(2.0j), (1.0 - 1e-9) * cmath.exp(-0.7j),
                      (1.0 + 1e-9) * cmath.exp(-0.7j), 1j, -1.0, 0.0, -0.3, -1.5,
                      1e-301, 3e-302 - 4e-302j])
    for n in (1, 2, 60, 3832):
        mags, ratios = _flat_e_n(n, n * zetas, True)
        # without the ratios the log-magnitudes are the same bit for bit
        assert np.array_equal(_flat_e_n(n, n * zetas, False)[0], mags)
        for x, mag, r in zip(n * zetas, mags, ratios):
            _, ref_mag, _, ref_r = _point_e_n(n, complex(x))
            assert mag == pytest.approx(ref_mag, rel=1e-11, abs=1e-11)
            assert abs(r - ref_r) <= 1e-10 * max(1.0, abs(ref_r))
            if n <= 60:
                e1, e = _mp_e_pair(n, complex(x))
                assert mag == pytest.approx(float(mpmath.log(abs(e))), rel=1e-11, abs=1e-11)
                assert abs(r - complex(e1 / e)) <= 1e-10 * max(1.0, abs(complex(e1 / e)))


_complex_in_box = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
_RIM_ZETAS = [0.999, cmath.rect(1.0005, 0.01), cmath.rect(0.9995, 0.7), 1.0005j,
              cmath.rect(1.0, -2.5), -0.9995]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6400), _complex_in_box, _complex_in_box)
def test_hermitian_exact_property(n, z, w):
    a = ginibre_kernel_exact(n, z, w).value
    b = ginibre_kernel_exact(n, w, z).value
    assert a.log_mag == b.log_mag
    assert a.arg == -b.arg or a.arg == b.arg == math.pi


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6400), st.lists(_complex_in_box, min_size=1, max_size=6))
@example(3832, [0.5j])  # e^{-|x|} e_n(x) underflows, e_n(x) ~ e^{1170} does not
# rim points, |zeta| ~ 1: one-point windows of about 900 and 2800 terms,
# where the rounding of the term recurrence accumulates
@example(10_000, _RIM_ZETAS)
@example(100_000, _RIM_ZETAS)
def test_scalar_array_agreement(n, zetas):
    # the array route and the one-point route against mpmath: logarithms up
    # to L = n |zeta| + log n! round to eps L, and inside |x| = n,
    # e_n = e^x - T loses the ratio of the larger of e^x and the tail's
    # endpoint term x^n/n! to |e_n|
    mags, _ = _flat_e_n(n, n * np.array(zetas), False)
    for zeta, mag in zip(zetas, mags):
        ref = mp_partial_sum(n, zeta, dps=40)
        x = n * zeta
        top = (max(x.real, n * math.log(abs(x)) - math.lgamma(n + 1.0))
               if 0.0 < abs(x) < n else ref.log_mag)
        bound = n * abs(zeta) + math.lgamma(n + 1.0) + math.exp(min(top - ref.log_mag, 700.0))
        assert abs(mag - ref.log_mag) <= 4.0 * _EPS * bound
        assert _log_polar_gap(_raw_partial_sum(n, zeta), ref) <= 4.0 * _EPS * bound


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6400), _complex_in_box)
def test_conjugate_partial_sums_property(n, zeta):
    # E_n(conj zeta) = conj E_n(zeta), and so for E_n - 1, bit for bit
    for f in (partial_exp_sum, partial_exp_sum_complement):
        a, b = f(n, zeta), f(n, zeta.conjugate())
        assert a.log_mag == b.log_mag
        assert a.arg == -b.arg or a.arg == b.arg == math.pi


# c of the route-agreement tolerance c eps max(1, |log_mag|)
_ROUTE_C = 100.0
_EPS = float(np.finfo(float).eps)


def _log_polar_gap(a, b):
    return abs(a.log_mag - b.log_mag) + abs(_norm_arg(a.arg - b.arg))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 6400), rho=st.floats(1.5, 40.0), u=st.floats(-1.0, 1.0),
       t=st.floats(0.5, 2.0), alpha=st.floats(-math.pi, math.pi))
@example(n=6400, rho=3.93, u=0.0, t=1.0, alpha=0.3)     # log K, log E_n ~ -1e4
@example(n=6400, rho=5.27, u=1.0, t=1.3, alpha=-1.0)    # log E_n ~ +1e4
@example(n=6400, rho=5.27, u=-1.0, t=1.3, alpha=-1.0)
@example(n=1, rho=7.0, u=0.0, t=2.0, alpha=2.225073858507203e-309)  # Im zeta = 5e-324
def test_route_agreement_at_large_log_mag(n, rho, u, t, alpha):
    # zeta = z w~ = rho e^{i theta} with Re zeta from 1.1 (|u| = 1) to rho
    # (u = 0): the windowed kernel against the incomplete-gamma route,
    # K_n = n E_n(zeta) e^{n zeta - n(|z|^2 + |w|^2)/2}
    theta = math.copysign(math.acos(1.0 - abs(u) * (1.0 - 1.1 / rho)), u)
    z = cmath.rect(math.sqrt(rho) * t, alpha)
    w = cmath.rect(math.sqrt(rho) / t, alpha - theta)
    zeta = z * w.conjugate()
    gamma = partial_exp_sum_gamma_route(n, zeta)
    gamma_k = LogComplex(
        math.log(n) + gamma.log_mag + n * zeta.real - 0.5 * n * (abs(z) ** 2 + abs(w) ** 2),
        gamma.arg + n * zeta.imag)
    k = ginibre_kernel_exact(n, z, w).value
    assert _log_polar_gap(k, gamma_k) <= _ROUTE_C * _EPS * max(1.0, abs(k.log_mag))
    # E_n(zeta) itself: both routes round logarithms up to
    # L = n |zeta| + log n!, to eps L; L bounds |log E_n| by a factor 20
    # except near |E_n| ~ 1, where only eps L is resolved
    e = partial_exp_sum(n, zeta)
    big = n * abs(zeta) + math.lgamma(n + 1.0)
    assert _log_polar_gap(e, gamma) <= 4.0 * _EPS * big
    if big <= 20.0 * max(1.0, abs(e.log_mag)):
        assert _log_polar_gap(e, gamma) <= _ROUTE_C * _EPS * max(1.0, abs(e.log_mag))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 6400), exponent=st.floats(154.5, 308.0),
       alpha=st.floats(-math.pi, math.pi))
def test_overflow_scale_raises_domain_error(n, exponent, alpha):
    # n |z|^2 (kernel, Berezin, one-point) and n |zeta| (partial sums)
    # overflow float64; the entry points say so with DomainError, not
    # with the OverflowError of abs(z) ** 2
    z = cmath.rect(10.0 ** exponent, alpha)
    calls = [lambda: ginibre_kernel_exact(n, z, 0.5), lambda: ginibre_berezin(n, 0.5, z),
             lambda: ginibre_log_one_point(n, z),
             lambda: ginibre_berezin_array(n, z, np.array([0.5, 1.5]), False)]
    if n * 10.0 ** exponent > 1.8e308:
        zeta = z if z.real > 1.0 else -z
        calls += [lambda: partial_exp_sum(n, zeta), lambda: partial_exp_sum_gamma_route(n, zeta)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


def test_memory_bounded_at_large_n():
    # |zeta| ~ 1 gives the widest windows, about 3400 terms at n = 1e5
    n = 100_000
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ws = np.exp(1j * theta)[:, None] * np.linspace(0.999, 1.001, 64)[None, :]
    tracemalloc.start()
    try:
        b, _ = ginibre_berezin_array(n, 1.0, ws, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(b))
    assert peak < 10e6


def test_scalar_memory_bounded_at_large_n():
    # a rim pair at n = 1e8 sums a one-point window of about 89,000 terms
    tracemalloc.start()
    try:
        k = ginibre_kernel_exact(10 ** 8, 1.0, cmath.rect(1.0, 0.3)).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(k.log_mag)
    assert peak < 64 * 1024


@pytest.mark.parametrize("n, zeta", [(10 ** 6, 100), (10 ** 5, 10 ** 5), (10 ** 5, 10 ** 6),
                                     (10 ** 5, 2)])
def test_cross_check_admits_the_rounding_floor(n, zeta):
    # the two routes subtract exponents of size n|zeta| and n|log n zeta|,
    # each rounded to eps of itself: past 1e-8, the check admits 4 eps times
    # their sum, and the routes here differ by 0.57 to 1.3 times that
    e = partial_exp_sum(n, zeta)
    gamma = partial_exp_sum_gamma_route(n, zeta)
    floor = _EPS * n * (abs(zeta) + abs(cmath.log(n * zeta)))
    assert _log_polar_gap(e, gamma) <= 2.0 * floor


@pytest.mark.parametrize("n, zeta, shift", [(200, 1.5, 1e-7), (50, 3 + 1j, 2e-8),
                                            (10 ** 5, 10 ** 5, 1e-4)])
def test_cross_check_refuses_a_wrong_sum(monkeypatch, n, zeta, shift):
    # a sum off by more than the tolerance, 1e-8 or the rounding floor
    # (8.9e-6 at n = zeta = 1e5), fails the gamma cross-check
    raw = ginibre_exact._raw_partial_sum

    def shifted(n, zeta):
        value = raw(n, zeta)
        return LogComplex(value.log_mag + shift, value.arg)

    monkeypatch.setattr(ginibre_exact, "_raw_partial_sum", shifted)
    with pytest.raises(PrecisionError):
        partial_exp_sum(n, zeta)


@pytest.mark.parametrize("call", [
    lambda: ginibre_kernel_exact(50, 1e200, 1),
    lambda: ginibre_berezin(10, math.nan, 1),
    lambda: partial_exp_sum(10, math.nan),
    lambda: partial_exp_sum_complement(0, 0.5),
    lambda: ginibre_berezin_array(0, 1.0, np.array([0.5, 1.5]), False),
    lambda: ginibre_berezin_array(10, 1.0, np.array([0.5, complex(math.nan, 0.0)]), False),
    lambda: partial_exp_sum_gamma_route(10, complex(math.inf, 0.0)),
    lambda: ginibre_berezin_array(2.5, 1.0, np.array([0.5]), False),
    lambda: ginibre_lap_log_kernel(10, 1e200),
], ids=["kernel-overflow", "berezin-nan", "partial-nan", "complement-n0", "array-n0",
        "array-nan", "gamma-inf", "array-fractional-n", "lap-log-overflow"])
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()
