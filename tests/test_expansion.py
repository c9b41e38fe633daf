import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from wpkernel import (
    RegimeError,
    berezin_belt_density,
    bulk_kernel_expansion,
    exterior_kernel_expansion,
    ginibre_berezin,
    ginibre_kernel_exact,
    harmonic_measure_density,
    make_ginibre,
    partial_exp_sum,
    partial_exp_sum_complement,
    rho,
    stirling_series,
    tricomi_b,
)
from wpkernel.errors import DomainError
from wpkernel.expansion import rho_bracket
from wpkernel.general_kernel import gaussian_belt_profile
from wpkernel.scaled_numerics import RationalAtOne, poly_eval, poly_q, rational_eval
from wpkernel.szego_geometry import u_abs


def rel_lc(a, b):
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.arg - b.arg)) - 1.0)


def test_tricomi_polynomials():
    assert tricomi_b(0) == poly_q(1)
    assert tricomi_b(1) == poly_q(0, 1)
    assert tricomi_b(2) == poly_q(0, 1, 2)
    # coefficients stay nonnegative integers through j = 8
    for j in range(9):
        for c in tricomi_b(j).coeffs:
            assert c.denominator == 1
            assert c >= 0


def test_stirling_series_known_coefficients():
    st = stirling_series(4)
    assert st.coeffs[0] == 1
    assert st.coeffs[1] == Fraction(-1, 12)
    assert stirling_series(0).coeffs == (1,)  # k_max = 0: the one-term series


def test_stirling_series_richardson_oracle():
    # high-precision values of n^n e^{-n}/(n-1)! / sqrt(n/2pi), Richardson
    # extrapolated to expose the coefficients beyond the documented two
    st = stirling_series(4)
    with mp.workdps(60):
        def psi(n):
            n = mp.mpf(n)
            return mp.e ** (n * mp.log(n) - n - mp.loggamma(n)) / mp.sqrt(n / (2 * mp.pi))

        ns = [mp.mpf(10) ** 3, mp.mpf(10) ** 4, mp.mpf(10) ** 5]
        # residual after removing the known 1 - 1/(12 n) prefix, scaled by n^2
        vals = [(psi(n) - 1 + mp.mpf(1) / (12 * n)) * n * n for n in ns]
        r1 = [(ns[i + 1] * vals[i + 1] - ns[i] * vals[i]) / (ns[i + 1] - ns[i])
              for i in range(2)]
        c2 = (ns[2] * ns[1] * r1[1] - ns[1] * ns[0] * r1[0]) / (ns[2] * ns[1] - ns[1] * ns[0])
        assert abs(float(c2) / float(st.coeffs[2]) - 1.0) < 1e-6
        # next stage: c3 to a few digits
        vals3 = [(v - float(st.coeffs[2])) * n for v, n in zip(vals, ns)]
        r13 = [(ns[i + 1] * vals3[i + 1] - ns[i] * vals3[i]) / (ns[i + 1] - ns[i])
               for i in range(2)]
        assert abs(float(r13[1]) / float(st.coeffs[3]) - 1.0) < 1e-3


def test_rho_one_exact():
    r1 = rho(1)
    assert r1.pole_order == 2
    assert r1.numerator == poly_q(Fraction(-1, 12), Fraction(-5, 6), Fraction(-1, 12))
    assert rational_eval(r1, Fraction(2)) == Fraction(-25, 12)


def test_rational_eval_at_large_zeta():
    # (zeta - 1)^{2j} overflows float64 from |zeta| ~ 1e77 at j = 2; rho_j has
    # numerator degree 2j, so it tends to its leading coefficient there
    for j, zeta in ((2, 1e150), (2, 1e150 * (1 + 1j)), (3, -1e100j), (5, 1e300)):
        r = rho(j)
        assert r.numerator.degree == r.pole_order
        assert rational_eval(r, zeta) == pytest.approx(float(r.numerator.coeffs[-1]), rel=1e-14)
    # where the expression is finite its bits are kept
    num = poly_eval(rho(2).numerator, 1e70)
    assert rational_eval(rho(2), 1e70) == num / (1e70 - 1) ** 4
    # zeta^3/(zeta - 1): finite where zeta^3 overflows, a domain error where
    # the value itself is not finite
    cubic = RationalAtOne(poly_q(0, 0, 0, 1), 1)
    assert rational_eval(cubic, 1e150) == pytest.approx(1e300, rel=1e-14)
    with pytest.raises(DomainError):
        rational_eval(cubic, 1e200)
    # the expansions at such points, which raised OverflowError, are finite
    for n, z, k in ((1, 1e150, 2), (4, 1e100, 3)):
        value = exterior_kernel_expansion(n, z, 1.0, k)
        leading = exterior_kernel_expansion(n, z, 1.0, 0)
        assert math.isfinite(value.log_mag)
        assert value.log_mag == pytest.approx(leading.log_mag, rel=1e-12)


def test_rho_pole_orders_and_table():
    for j in range(1, 5):
        r = rho(j)
        assert r.pole_order == 2 * j
        # pole order exact: numerator does not vanish at 1
        from wpkernel.scaled_numerics import poly_eval

        assert poly_eval(r.numerator, Fraction(1)) != 0


@pytest.mark.parametrize("z,w", [(1.5, 1.2), (2 + 1j, 1.0), (2.0, -1.0)])
def test_exterior_empirical_order(z, w):
    ns = [100, 200, 400, 800, 1600]
    for k in (0, 1, 2):
        errs = []
        for n in ns:
            exact = ginibre_kernel_exact(n, z, w).value
            approx = exterior_kernel_expansion(n, z, w, k)
            errs.append(rel_lc(exact, approx))
        slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
        assert abs(slope + (k + 1)) < 0.25, (z, w, k, slope)


def test_exterior_diagonal_real_positive():
    # z = w: the product zeta = |z|^2 is real and the expansion is real > 0
    val = exterior_kernel_expansion(150, 1.4, 1.4, 2)
    assert val.arg == pytest.approx(0.0, abs=1e-12)


def test_exterior_regime_errors():
    with pytest.raises(RegimeError):
        exterior_kernel_expansion(100, 0.5, 0.5, 1)  # zeta = 0.25 interior
    with pytest.raises(RegimeError):
        exterior_kernel_expansion(100, 1.01, 1.0, 1)  # within eta of the saddle


def test_bulk_expansion_exact_at_origin():
    bk = bulk_kernel_expansion(77, 0.0, 0.0)
    exact = ginibre_kernel_exact(77, 0.0, 0.0).value
    assert rel_lc(bk.value, exact) < 1e-14


def test_bulk_error_bound_tracks_truth():
    z = w = 0.5  # zeta = 0.25, rho ~ 0.529
    # n small enough that the discrepancy is measurable in doubles
    for n in (10, 20, 30):
        bk = bulk_kernel_expansion(n, z, w)
        exact = ginibre_kernel_exact(n, z, w).value
        err = rel_lc(exact, bk.value)
        assert bk.rho == pytest.approx(0.25 * math.exp(0.75), rel=1e-12)
        # certified scale: within a constant factor of the observed error
        assert err < 10.0 * bk.error_bound
        assert err > 0.001 * bk.error_bound


def test_bulk_regime_error():
    with pytest.raises(RegimeError):
        bulk_kernel_expansion(100, 1.5, 1.2)


def test_heat_kernel_corollary():
    n, z, w = 200, 0.3, 0.35
    b = ginibre_berezin(n, z, w)
    model = n * math.exp(-n * abs(z - w) ** 2)
    assert b == pytest.approx(model, rel=0.02)


# The unit-disc belt of Q = |z|^2: the disc Poisson kernel is the harmonic
# measure density of the Ginibre potential, and the belt's normal profile is
# gamma_n, the Gaussian of the general belt model at Lap Q = 1.
_GIN = make_ginibre()
_ON_CIRCLE = cmath.exp(0.3j)
_BIG = 1.5e308 + 1.5e308j  # finite, but |Re| + |Im| overflows


def test_poisson_kernel():
    assert harmonic_measure_density(_GIN, 2.0, 1.0) == pytest.approx(
        3.0 / (2.0 * math.pi), rel=1e-14)
    theta = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
    mass = np.sum(harmonic_measure_density(_GIN, 2.0, np.exp(1j * theta))) * 2.0 * math.pi / 512
    assert mass == pytest.approx(1.0, abs=1e-12)
    # far field flattens to the uniform density at rate O(1/|z|)
    vals = harmonic_measure_density(_GIN, 1e6, np.exp(1j * np.array([0.0, 1.0, 2.5])))
    assert max(vals) - min(vals) < 1e-5
    assert vals[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-5)
    # just below the bound |phi(z)| < 1e150 the value is still 1/2pi
    assert harmonic_measure_density(_GIN, 5e149, cmath.exp(0.2j)) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-14)
    with pytest.raises(DomainError):
        harmonic_measure_density(_GIN, 0.9, _ON_CIRCLE)


def test_gaussian_belt_density():
    n, z = 100, 2.0
    val = berezin_belt_density(_GIN, n, z, 0.0, 0.0)
    expected = (2.0 * math.sqrt(n) / math.sqrt(2.0 * math.pi)) * 3.0 / (2.0 * math.pi)
    assert val == pytest.approx(expected, rel=1e-14)
    # even in the normal coordinate
    assert berezin_belt_density(_GIN, n, z, 1.0, 0.03) == pytest.approx(
        berezin_belt_density(_GIN, n, z, 1.0, -0.03), rel=1e-14)
    # belt mass 1 - O(e^{-n c^2})
    c = n ** (-0.4)
    ell = np.linspace(-c, c, 4001)
    mass = np.trapezoid(gaussian_belt_profile(n, ell), ell)
    assert abs(mass - 1.0) <= math.exp(-n * c * c)


def test_two_term_structure_both_sides_of_saddle_curve():
    # interior point: E_n - 1 matches the signed exterior-type correction
    n, zeta = 300, 0.25
    comp = partial_exp_sum_complement(n, zeta).to_complex()
    lead = math.sqrt(1.0 / (2.0 * math.pi * n)) * u_abs(zeta) ** n / (zeta - 1.0)
    ratio = comp.real / lead
    assert ratio == pytest.approx(1.0, abs=5e-3)
    # unbounded-component point right of the saddle branch: E_n itself decays
    zeta = 1.8
    e = partial_exp_sum(n, zeta)
    bracket = rho_bracket(n, zeta, 2).real
    lead_log = (0.5 * math.log(1.0 / (2.0 * math.pi * n))
                + n * math.log(u_abs(zeta)) - math.log(zeta - 1.0))
    assert math.exp(e.log_mag - lead_log) == pytest.approx(bracket, rel=1e-4)


@pytest.mark.parametrize("call", [
    lambda: exterior_kernel_expansion(0, 1.5, 1.2, 1),
    lambda: bulk_kernel_expansion(0, 0.1, 0.2),
    lambda: exterior_kernel_expansion(40, 1e200, 1.5),
    lambda: bulk_kernel_expansion(40, 1e200, 1e-201),
    # |z| itself overflows float64: DomainError, not the OverflowError of abs(z)
    lambda: exterior_kernel_expansion(100, 1.5e308 + 1.5e308j, 1.5, 2),
    lambda: exterior_kernel_expansion(100, 1.5, -1.5e308 + 1.5e308j),
    lambda: bulk_kernel_expansion(100, 1.5e308 + 1.5e308j, 0.5),
    lambda: bulk_kernel_expansion(100, 0.5, -1.5e308 + 1.5e308j),
    lambda: exterior_kernel_expansion(100, complex(math.nan, 0.0), 1.5),
    lambda: bulk_kernel_expansion(100, 0.5, complex(0.0, math.inf)),
    # the unit-disc belt: one non-finite entry of a theta array is enough
    lambda: berezin_belt_density(_GIN, 10, 2.0, np.array([0.1, math.nan]), 0.0),
    lambda: berezin_belt_density(_GIN, 10, 2.0, np.array([0.1, math.inf]), 0.0),
    lambda: harmonic_measure_density(_GIN, complex(math.nan, 0.0), _ON_CIRCLE),
    lambda: harmonic_measure_density(_GIN, complex(0.0, math.inf), _ON_CIRCLE),
    # |phi(z)|^2 overflows: DomainError, not an OverflowError or a silent 0.0
    lambda: harmonic_measure_density(_GIN, _BIG, _ON_CIRCLE),
    lambda: harmonic_measure_density(_GIN, 1.3e154, _ON_CIRCLE),
    lambda: berezin_belt_density(_GIN, 10, 2.0, 0.1, math.nan),
    lambda: berezin_belt_density(_GIN, 10, complex(math.nan, 0.0), 0.1, 0.0),
    lambda: berezin_belt_density(_GIN, 10, 2.0, math.nan, 0.0),
    lambda: berezin_belt_density(_GIN, -3, 2.0, 0.1, 0.0),
    lambda: berezin_belt_density(_GIN, 0, 2.0, 0.1, 0.0),
    lambda: berezin_belt_density(_GIN, 10, _BIG, 0.1, 0.0),
    # orders outside the exact series, which reach n^{-6}: never an
    # IndexError, a TypeError or a silent value
    lambda: stirling_series(7), lambda: stirling_series(-1), lambda: stirling_series(1.5),
    lambda: rho(7), lambda: rho(0), lambda: rho(1.5), lambda: tricomi_b(1.5),
    lambda: tricomi_b(-1), lambda: rho_bracket(100, 1.5, 7),
], ids=["exterior-n0", "bulk-n0", "exterior-overflow", "bulk-overflow",
        "exterior-overflow-scale-z", "exterior-overflow-scale-w", "bulk-overflow-scale-z",
        "bulk-overflow-scale-w", "exterior-nan", "bulk-inf",
        "poisson-theta-nan", "poisson-theta-inf", "poisson-z-nan", "poisson-z-inf",
        "poisson-overflow-scale-z", "poisson-square-overflow", "belt-ell-nan", "belt-z-nan",
        "belt-theta-nan", "belt-n-negative", "belt-n0", "belt-overflow-scale-z",
        "stirling-7", "stirling-negative", "stirling-fractional", "rho-7", "rho-0",
        "rho-fractional", "tricomi-fractional", "tricomi-negative", "bracket-7"])
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()

