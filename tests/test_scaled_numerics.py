import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from wpkernel import (
    DomainError,
    LC_ZERO,
    LogComplex,
    lc_from_complex,
    lc_mul,
    lc_sum,
    poly_derivative,
    poly_eval,
    poly_q,
    quad_gauss_legendre,
    quad_trapezoid_periodic,
    rational_eval,
)
from wpkernel.scaled_numerics import (
    RationalAtOne,
    composite_gauss,
    gauss_on_interval,
)


def test_from_complex_basic_cases():
    one = lc_from_complex(1.0, 0.0)
    assert one.log_mag == 0.0 and one.arg == 0.0
    two_i = lc_from_complex(0.0, 2.0)
    assert two_i.log_mag == pytest.approx(math.log(2.0), abs=1e-15)
    assert two_i.arg == pytest.approx(math.pi / 2, abs=1e-15)
    minus_one = lc_from_complex(-1.0, 0.0)
    assert minus_one.arg == math.pi  # normalized into (-pi, pi]
    # |z|^2 overflows or underflows, |z| does not
    assert lc_from_complex(1e200, 0.0).log_mag == pytest.approx(200.0 * math.log(10.0), rel=1e-15)
    assert lc_from_complex(1e-200, 0.0).log_mag == pytest.approx(-200.0 * math.log(10.0), rel=1e-15)
    huge = lc_from_complex(1.5e308, -1.5e308)
    assert huge.log_mag == pytest.approx(math.log(1.5e308) + 0.5 * math.log(2.0), rel=1e-15)
    assert huge.arg == -0.25 * math.pi
    for bad in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(DomainError):
            lc_from_complex(*bad)


def test_round_trip_within_representable_range():
    rng = np.random.default_rng(11)
    for _ in range(200):
        scale = rng.uniform(-600, 600)
        z = complex(rng.normal(), rng.normal()) * math.exp(scale % 30)
        lc = lc_from_complex(z.real, z.imag)
        back = lc.to_complex()
        assert abs(back - z) <= 1e-14 * abs(z)


def test_mul_pow_and_zero_rules():
    i = lc_from_complex(0.0, 1.0)
    sq = lc_mul(i, i)
    assert sq.log_mag == pytest.approx(0.0, abs=1e-15)
    assert sq.arg == pytest.approx(math.pi, abs=1e-15)
    assert lc_mul(LC_ZERO, i).is_zero
    # the repr the dataclass generates: field names and the floats round-trip
    assert repr(LogComplex(1.5, -0.25)) == "LogComplex(log_mag=1.5, arg=-0.25)"


def test_sum_exact_cases_and_rescaling():
    one = lc_from_complex(1.0, 0.0)
    two = lc_sum([one, one])
    assert two.log_mag == pytest.approx(math.log(2.0), abs=1e-15)
    x = lc_from_complex(0.3, -0.7)
    assert lc_sum([x]) is x  # singleton is exact
    # e^{1000} + 1 stays finite in log space
    s = lc_sum([LogComplex(1000.0, 0.0), LogComplex(0.0, 0.0)])
    assert s.log_mag == pytest.approx(1000.0, abs=1e-12)


def test_sum_against_high_precision_oracle():
    # small analogue of the huge-dynamic-range case: e^10 + 1
    s = lc_sum([LogComplex(10.0, 0.0), LogComplex(0.0, 0.0)])
    with mp.workdps(50):
        expected = float(mp.log(mp.e ** 10 + 1))
    assert s.log_mag == pytest.approx(expected, abs=1e-13)


def test_sum_permutation_invariance():
    rng = np.random.default_rng(3)
    terms = [LogComplex(rng.uniform(-40, 40), rng.uniform(-3, 3)) for _ in range(64)]
    ref = lc_sum(terms)
    for seed in range(5):
        perm = list(np.random.default_rng(seed).permutation(len(terms)))
        s = lc_sum([terms[i] for i in perm])
        assert s.log_mag == pytest.approx(ref.log_mag, rel=1e-12, abs=1e-12)
        assert s.arg == pytest.approx(ref.arg, abs=1e-12)


def test_poly_algebra():
    p = poly_q(0, 1, 2)  # z + 2z^2
    assert poly_derivative(p) == poly_q(1, 4)
    assert poly_eval(p, Fraction(3)) == Fraction(21)
    assert poly_eval(poly_q(), 2.0) == 0
    assert poly_q(1, 0, 0) == poly_q(1)  # trailing zeros stripped


def test_rational_at_one():
    r = RationalAtOne(poly_q(0, 1), 2)  # z/(z-1)^2
    assert rational_eval(r, 2.0) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        rational_eval(r, 1)
    # common factors are reduced so the pole order is exact
    reducible = RationalAtOne(poly_q(-1, 1), 2)  # (z-1)/(z-1)^2
    assert reducible.pole_order == 1
    assert reducible.numerator == poly_q(1)


def test_gauss_rules_small_cases():
    q1 = quad_gauss_legendre(1)
    assert q1.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert q1.weights[0] == pytest.approx(2.0, abs=1e-15)
    q2 = quad_gauss_legendre(2)
    assert sorted(q2.nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert q2.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_rule_is_built_once_and_read_only():
    rule = quad_gauss_legendre(16)
    assert quad_gauss_legendre(16) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights *= 2.0


@pytest.mark.parametrize("m", [2, 5, 9, 16, 32])
def test_gauss_monomial_exactness(m):
    rule = quad_gauss_legendre(m)
    assert np.all(rule.weights > 0)
    assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-14)
    for deg in range(2 * m):
        exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
        got = float(np.sum(rule.weights * rule.nodes ** deg))
        assert got == pytest.approx(exact, abs=1e-13)


def test_trapezoid_low_harmonics():
    rule = quad_trapezoid_periodic(8)
    assert np.sum(rule.weights) == pytest.approx(2 * math.pi, abs=1e-14)
    val = float(np.sum(rule.weights * np.cos(rule.nodes) ** 2))
    assert val == pytest.approx(math.pi, abs=1e-14)
    # a node count is an integer >= 1: never an empty rule or a TypeError
    for m in (0, -1, 1.5):
        with pytest.raises(DomainError):
            quad_trapezoid_periodic(m)


def test_gauss_on_interval_length():
    rule = gauss_on_interval(7, 0.5, 2.25)
    assert np.sum(rule.weights) == pytest.approx(1.75, abs=1e-14)


def test_composite_gauss_skips_empty_and_excluded_panels():
    edges = [0.0, 0.5, 0.5, 1.0, 2.0]
    rule = composite_gauss(5, edges, skip=lambda a, b: a >= 1.0)
    assert rule.nodes.size == 10
    assert np.all((rule.nodes > 0.0) & (rule.nodes < 1.0))
    assert np.sum(rule.weights * rule.nodes ** 3) == pytest.approx(0.25, abs=1e-15)
