import cmath
import functools
import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpkernel import (
    DomainError,
    ginibre_berezin,
    ginibre_kernel_exact,
    ginibre_one_point,
    partial_exp_sum,
    partial_exp_sum_complement,
    partial_exp_sum_gamma_route,
)
from wpkernel.ginibre_exact import (
    _raw_partial_sum,
    ginibre_berezin_array,
    raw_partial_sum_array,
)
from wpkernel.scaled_numerics import (
    LogComplex,
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
    log_mag, _ = raw_partial_sum_array(3200, zetas)
    ref = [mp_partial_sum(3200, zeta, dps=40).log_mag for zeta in zetas]
    assert np.max(np.abs(log_mag - ref)) <= 1.5e-12


@pytest.mark.parametrize("n", [10, 50, 150])
def test_bulk_cancellation_matches_mpmath(n):
    # inside the unit disc the n terms cancel; e^{n zeta} minus the tail does not
    zetas = [0.5j, -0.5, -0.3 + 0.6j, 0.4 - 0.7j, 0.85j, 0.6 + 0.6j]
    for zeta in zetas:
        assert rel_lc(_raw_partial_sum(n, zeta), mp_partial_sum(n, zeta)) < 5e-13


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
    assert ginibre_one_point(n, 1.0) / n == pytest.approx(0.5, abs=0.02)


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
    assert ginibre_berezin(35, z, z) == pytest.approx(ginibre_one_point(35, z), rel=1e-12)
    # off-diagonal boundary decay: B ~ (1/pi) |z-w|^{-2}
    b = ginibre_berezin(1000, 1.0, 1j)
    assert b == pytest.approx(1.0 / (2.0 * math.pi), rel=0.05)


@pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0])
def test_berezin_mass_is_one(z):
    n = 150
    radial = quad_radial(1.0 + 10.0 / math.sqrt(n), 1.0 / math.sqrt(n))
    angular = quad_trapezoid_periodic(256)
    ws = radial.nodes[:, None] * np.exp(1j * angular.nodes)[None, :]
    b = ginibre_berezin_array(n, complex(z), ws)
    mass = float(np.sum(
        radial.weights[:, None] * angular.weights[None, :] * b * radial.nodes[:, None]
    ) / math.pi)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_complement_route_consistency():
    # small n: E_n - 1 from the tail sum vs direct subtraction
    for n, zeta in [(12, 0.3), (20, 0.2 + 0.1j), (30, 1.5 + 0.2j)]:
        direct = partial_exp_sum(n, zeta).to_complex() - 1.0
        comp = partial_exp_sum_complement(n, zeta).to_complex()
        assert abs(direct - comp) < 1e-12 * max(1.0, abs(direct))


def test_array_path_matches_scalar():
    n = 60
    zetas = np.array([0.3 + 0.2j, 1.4, -0.8 + 0.5j, 2.2 - 1.0j])
    mags, args = raw_partial_sum_array(n, zetas)
    for k, zeta in enumerate(zetas):
        ref = _raw_partial_sum(n, complex(zeta))
        assert mags[k] == pytest.approx(ref.log_mag, rel=1e-11, abs=1e-11)
        assert args[k] == pytest.approx(ref.arg, abs=1e-10)


_complex_in_box = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6400), _complex_in_box, _complex_in_box)
def test_hermitian_exact_property(n, z, w):
    a = ginibre_kernel_exact(n, z, w).value
    b = ginibre_kernel_exact(n, w, z).value
    assert a.log_mag == b.log_mag
    assert a.arg == -b.arg or a.arg == b.arg == math.pi


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6400), st.lists(_complex_in_box, min_size=1, max_size=6))
def test_scalar_array_agreement(n, zetas):
    mags, args = raw_partial_sum_array(n, np.array(zetas))
    for zeta, mag, arg in zip(zetas, mags, args):
        assert rel_lc(LogComplex(mag, arg), _raw_partial_sum(n, zeta)) < 1e-12


def test_memory_bounded_at_large_n():
    # |zeta| ~ 1 gives the widest windows, about 3400 terms at n = 1e5
    n = 100_000
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    ws = np.exp(1j * theta)[:, None] * np.linspace(0.999, 1.001, 64)[None, :]
    tracemalloc.start()
    try:
        b = ginibre_berezin_array(n, 1.0, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(b))
    assert peak < 10e6


@pytest.mark.parametrize("call", [
    lambda: ginibre_kernel_exact(50, 1e200, 1),
    lambda: ginibre_berezin(10, math.nan, 1),
    lambda: partial_exp_sum(10, math.nan),
    lambda: partial_exp_sum_complement(0, 0.5),
    lambda: ginibre_berezin_array(0, 1.0, np.array([0.5, 1.5])),
    lambda: ginibre_berezin_array(10, 1.0, np.array([0.5, complex(math.nan, 0.0)])),
    lambda: partial_exp_sum_gamma_route(10, complex(math.inf, 0.0)),
    lambda: raw_partial_sum_array(2.5, np.array([0.5])),
], ids=["kernel-overflow", "berezin-nan", "partial-nan", "complement-n0", "array-n0",
        "array-nan", "gamma-inf", "array-fractional-n"])
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()
