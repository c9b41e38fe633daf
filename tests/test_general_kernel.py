import cmath
import dataclasses
import functools
import math
import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpkernel import (
    BeltError,
    DomainError,
    RegimeError,
    berezin_belt_density,
    boundary_correlation_modulus,
    cocycle,
    elliptic_kernel_exact,
    exterior_kernel_expansion,
    ginibre_kernel_exact,
    kernel_asymptotic,
    lowdeg_bound_check,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    quasipolynomial,
    sequence_cuts,
    szego_kernel,
    tail_kernel,
)
from wpkernel.general_kernel import _quasipolynomial_parts
from wpkernel.potential import RADIAL_PROFILES
from wpkernel.scaled_numerics import LogComplex, _norm_arg, lc_mul, lc_sum, quad_radial

QUARTIC = RADIAL_PROFILES["quartic"]


def quasipolynomial_scalar(pot, n: int, j: int, z: complex) -> LogComplex:
    """W#_{j,n}(z) from the scalar conformal data of one degree, in math/cmath."""
    tau = j / n
    phi, _, sdphi, sq, sh = pot.exterior(z, tau)
    log_mag = (0.25 * math.log(n / (2.0 * math.pi)) + 0.5 * sh.real + math.log(abs(sdphi))
               + j * math.log(abs(phi)) + 0.5 * n * sq.real - 0.5 * n * float(pot.Q(z)))
    arg = (0.5 * sh.imag + math.atan2(sdphi.imag, sdphi.real)
           + _norm_arg(j * math.atan2(phi.imag, phi.real)) + 0.5 * n * sq.imag)
    return LogComplex(log_mag, arg)


def tail_kernel_loop(pot, n: int, z: complex, w: complex) -> LogComplex:
    """The tail kernel one degree at a time: scalar quasipolynomial products, Kahan-summed."""
    cuts = sequence_cuts(n, pot.delta_M)
    j_start = max(0, int(math.ceil(n * cuts.theta_n - 1e-9)))
    return lc_sum(lc_mul(quasipolynomial_scalar(pot, n, j, z),
                         quasipolynomial_scalar(pot, n, j, w).conj()) for j in range(j_start, n))


def ginibre_orthonormal_logabs(n: int, j: int, z: complex) -> float:
    """log |W_{j,n}(z)| for the Ginibre closed-form basis."""
    z = complex(z)
    log_abs_z = math.log(abs(z)) if z != 0 else -math.inf
    return (
        0.5 * ((j + 1) * math.log(n) - math.lgamma(j + 1.0))
        + j * log_abs_z
        - 0.5 * n * abs(z) ** 2
    )


@pytest.fixture(scope="module")
def gin():
    return make_ginibre()


@pytest.fixture(scope="module")
def ell():
    return make_elliptic_ginibre(1.0, 3.0)


def rel_lc(a, b):
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.arg - b.arg)) - 1.0)


def test_sequence_cuts():
    cuts = sequence_cuts(400)
    assert cuts.theta_n == pytest.approx(1.0 - math.log(400) / 20.0, rel=1e-14)
    assert cuts.delta_n == pytest.approx(math.sqrt(math.log(math.log(400)) / 400), rel=1e-14)
    assert cuts.eps_n == pytest.approx(math.log(400) / 20.0, rel=1e-14)
    assert 400 * cuts.theta_n < 400
    with pytest.raises(DomainError):
        sequence_cuts(2)


def test_asymptotic_specializes_to_exterior_expansion(gin):
    for n, z, w in [(100, 1.5, 1.2), (250, 1.9, 1.1 + 0.4j), (60, 1.3, 1.3)]:
        ka = kernel_asymptotic(gin, n, z, w)
        ee = exterior_kernel_expansion(n, z, w, 0)
        assert abs(ka.value.log_mag - ee.log_mag) < 1e-12 * max(1, abs(ee.log_mag))
        assert abs(ka.value.arg - ee.arg) < 1e-12


def test_asymptotic_hermitian_swap_exact(ell):
    z, w = 1.6 + 0.3j, 1.4 - 0.5j
    a = kernel_asymptotic(ell, 80, z, w).value
    b = kernel_asymptotic(ell, 80, w, z).value
    assert a.log_mag == b.log_mag
    assert a.arg == -b.arg


def test_asymptotic_regime_errors(gin):
    with pytest.raises(RegimeError):
        kernel_asymptotic(gin, 100, 0.5, 0.5)  # deep inside the droplet
    with pytest.raises(RegimeError):
        kernel_asymptotic(gin, 100, 1.0, 1.0)  # phi(z) conj(phi(w)) = 1


def test_boundary_correlation_modulus(ell, gin):
    n = 200
    p1 = ell.boundary_point(0.3, 1.0).p
    p2 = ell.boundary_point(2.0, 1.0).p
    got = boundary_correlation_modulus(ell, n, p1, p2)
    expected = math.sqrt(2 * math.pi * n) * math.sqrt(2.0) * abs(szego_kernel(ell, p1, p2))
    assert got == pytest.approx(expected, rel=1e-13)
    # growth like sqrt(n)
    assert boundary_correlation_modulus(ell, 4 * n, p1, p2) == pytest.approx(2 * got, rel=1e-12)
    # Ginibre boundary pair matches the exterior-expansion modulus
    z, w = 1.0, 1j
    ka = kernel_asymptotic(gin, n, z, w)
    assert math.exp(ka.value.log_mag) == pytest.approx(
        boundary_correlation_modulus(gin, n, z, w), rel=1e-12)
    with pytest.raises(DomainError):
        boundary_correlation_modulus(gin, n, z, z)


def test_berezin_limit_boundary(gin):
    n = 2000
    z, w = 1.0, 1j
    k = kernel_asymptotic(gin, n, z, w)
    b = math.exp(2 * k.value.log_mag) / math.exp(
        ginibre_kernel_exact(n, z, z).value.log_mag)
    assert math.pi * abs(z - w) ** 2 * b == pytest.approx(1.0, abs=0.05)


def test_cocycle(gin, ell):
    n = 50
    z = cmath.exp(0.3j)
    w = cmath.exp(1.1j)
    c = cocycle(gin, n, z, w)
    assert abs(math.exp(c.log_mag) - 1.0) < 1e-10
    # Ginibre boundary cocycle is e^{i n (alpha - beta)}
    expected = (n * (0.3 - 1.1)) % (2 * math.pi)
    got = c.arg % (2 * math.pi)
    assert got == pytest.approx(expected, abs=1e-10)
    # identity at equal points and the multiplicative law
    assert cocycle(ell, n, z_b := ell.boundary_point(0.8, 1.0).p, z_b).arg == 0.0
    p1, p2, p3 = (ell.boundary_point(t, 1.0).p for t in (0.4, 1.7, 3.9))
    lhs = cocycle(ell, n, p1, p2).arg + cocycle(ell, n, p2, p3).arg
    rhs = cocycle(ell, n, p1, p3).arg
    assert (lhs - rhs) % (2 * math.pi) == pytest.approx(0.0, abs=1e-12) or \
           (lhs - rhs) % (2 * math.pi) == pytest.approx(2 * math.pi, abs=1e-12)
    with pytest.raises(DomainError):
        cocycle(ell, n, 2.0 + 0.5j, p1)


def test_cocycle_cancellation_in_determinants(gin):
    # the 2x2 correlation determinant is invariant under any unimodular
    # cocycle g(z) conj(g(w)) attached to the off-diagonal entries
    n, z, w = 120, 1.5, 1.3 + 0.4j
    kzz = ginibre_kernel_exact(n, z, z).value.to_complex()
    kww = ginibre_kernel_exact(n, w, w).value.to_complex()
    kzw = kernel_asymptotic(gin, n, z, w).value
    rng = np.random.default_rng(2)
    base = None
    for _ in range(5):
        phase = rng.uniform(0, 2 * math.pi)
        dressed = cmath.exp(kzw.log_mag + 1j * (kzw.arg + phase))
        det = kzz * kww - dressed * dressed.conjugate()
        if base is None:
            base = det
        assert det == pytest.approx(base, rel=1e-12)


def test_belt_density_matches_disc_product_form(gin):
    n, z = 400, 2.0
    theta, ell_coord = 0.9, 0.01
    # P_z(theta) gamma_n(ell) of the unit disc, in coordinates w = e^{i theta}(1 + ell)
    closed = ((abs(z) ** 2 - 1.0) / (2.0 * math.pi * abs(z - cmath.exp(1j * theta)) ** 2)
              * (2.0 * math.sqrt(n) / math.sqrt(2.0 * math.pi)) * math.exp(-2.0 * n * ell_coord ** 2))
    dens = berezin_belt_density(gin, n, z, theta, ell_coord)
    assert dens == pytest.approx(closed, rel=1e-12)
    assert dens <= berezin_belt_density(gin, n, z, theta, 0.0)
    with pytest.raises(BeltError):
        berezin_belt_density(gin, n, z, theta, 0.5)
    with pytest.raises(BeltError):
        berezin_belt_density(gin, n, z, theta, np.array([0.0, 0.5]))


def test_belt_mass_all_builtins(gin, ell):
    from wpkernel.scaled_numerics import gauss_on_interval, quad_trapezoid_periodic

    quart = make_radial(QUARTIC)
    n = 400
    for pot, z in ((gin, 2.0), (ell, 2.5), (quart, 2.0)):
        cuts = sequence_cuts(n, pot.delta_M)
        tq = quad_trapezoid_periodic(128)
        lq = gauss_on_interval(48, -cuts.delta_n, cuts.delta_n)
        _, _, speed, _ = pot.boundary_grid(128, 1.0)
        dens = berezin_belt_density(pot, n, z, tq.nodes[:, None], lq.nodes)
        mass = float(np.sum(np.outer(tq.weights * speed, lq.weights) * dens))
        assert mass > 0.95, (pot.name, mass)
        assert mass < 1.0 + 1e-6


@pytest.mark.parametrize("family, z", [("gin", 2.0), ("ell", 2.5 + 0.4j), ("quart", -1.5 + 1.2j)])
def test_belt_density_arrays_match_scalars(family, z, gin, ell):
    pot = {"gin": gin, "ell": ell, "quart": make_radial(QUARTIC)}[family]
    n = 400
    half = sequence_cuts(n, pot.delta_M).delta_n
    thetas = np.array([0.0, 0.9, 2.5, -1.3])
    ells = np.array([-half, -0.3 * half, 0.0, 0.7 * half])
    grid = berezin_belt_density(pot, n, z, thetas[:, None], ells)
    assert grid.shape == (4, 4)
    for i, theta in enumerate(thetas):
        for k, l in enumerate(ells):
            scalar = berezin_belt_density(pot, n, z, float(theta), float(l))
            assert isinstance(scalar, float)
            assert grid[i, k] == pytest.approx(scalar, rel=1e-14)


def test_quasipolynomial_against_closed_form(gin):
    n = 400
    z = 1.1 + 0.2j
    for j in (380, 395, 399):
        approx = quasipolynomial(gin, n, j, z)
        exact = ginibre_orthonormal_logabs(n, j, z)
        # ratio 1 + O(1/12j) from the factorial-vs-Stirling normalization
        assert abs(approx.log_mag - exact) < 1.0 / (6.0 * j)


def test_quasipolynomial_norm_near_one(gin):
    n = 200
    j = 190
    rule = quad_radial(1.0 + 12.0 / math.sqrt(n), 1.0 / math.sqrt(n))
    vals = []
    for r in rule.nodes:
        w = quasipolynomial(gin, n, j, complex(r, 0.0))
        vals.append(math.exp(2.0 * w.log_mag))
    norm_sq = 2.0 * float(np.sum(rule.weights * np.asarray(vals) * rule.nodes))
    eps_n = math.log(n) / math.sqrt(n)
    assert abs(math.sqrt(norm_sq) - 1.0) < 2.0 * eps_n
    assert abs(math.sqrt(norm_sq) - 1.0) < 0.01  # much tighter in practice


def test_quasipolynomial_ratio_decay(gin):
    # sup over belt samples of |W/W# - 1| shrinks with n for j/n in [0.95, 1]
    sups = []
    for n in (100, 200, 400):
        cuts = sequence_cuts(n)
        worst = 0.0
        for frac in (0.95, 0.975, 1.0):
            j = min(n - 1, int(round(frac * n)))
            for offset in (-cuts.delta_n, 0.0, cuts.delta_n):
                z = (1.0 + offset) * cmath.exp(0.4j)
                diff = abs(math.exp(
                    ginibre_orthonormal_logabs(n, j, z)
                    - quasipolynomial(gin, n, j, z).log_mag) - 1.0)
                worst = max(worst, diff)
        sups.append(worst)
    assert sups[0] > sups[1] > sups[2]


def test_quasipolynomial_boundary_modulus_identity(gin, ell):
    # |W#(z)|^2 e^{n(Q - V_tau)(z)} = sqrt(n/2pi) e^{Re HH} |phi_tau'| on the
    # tau-boundary, where the ridge vanishes
    n = 120
    for pot in (gin, ell):
        j = 102
        tau = j / n
        p = pot.boundary_point(0.7, tau).p
        w_val = quasipolynomial(pot, n, j, p)
        lhs = 2.0 * w_val.log_mag  # ridge term is zero on the boundary
        rhs = (0.5 * math.log(n / (2 * math.pi))
               + pot.exterior(p, tau).HH.real
               + math.log(abs(pot.exterior(p, tau).dphi)))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_quasipolynomial_tau_floor(gin):
    # every tau the conformal data accept is allowed; tau = 0 is below their floor
    assert math.isfinite(quasipolynomial(gin, 100, 50, 1.2).log_mag)
    with pytest.raises(DomainError):
        quasipolynomial(gin, 100, 0, 1.2)
    with pytest.raises(DomainError):
        quasipolynomial(gin, 100, 101, 1.2)


@pytest.mark.parametrize("family", ["gin", "ell"])
def test_quasipolynomial_is_the_tail_term_at_the_lowest_degree(family, request):
    pot = request.getfixturevalue(family)
    n = 20
    j_low = math.ceil(n * sequence_cuts(n, pot.delta_M).theta_n - 1e-9)
    assert 0.3 < j_low / n < 0.4
    z, w = pot.boundary_point(0.4).p * 1.05, pot.boundary_point(2.5).p * 1.02
    log_mag, arg = _quasipolynomial_parts(pot, n, np.arange(j_low, n), [z])
    low = quasipolynomial(pot, n, j_low, z)
    assert (low.log_mag, low.arg) == (log_mag[0, 0], arg[0, 0])
    terms = (lc_mul(quasipolynomial(pot, n, j, z), quasipolynomial(pot, n, j, w).conj())
             for j in range(j_low, n))
    assert rel_lc(tail_kernel(pot, n, z, w), lc_sum(terms)) <= 1e-12


def test_tail_kernel_ginibre(gin):
    tail = tail_kernel(gin, 400, 1.3, 1.3)
    exact = ginibre_kernel_exact(400, 1.3, 1.3).value
    assert rel_lc(tail, exact) < 0.02
    a = tail_kernel(gin, 150, 1.4, 1.2 + 0.3j)
    b = tail_kernel(gin, 150, 1.2 + 0.3j, 1.4)
    assert a.log_mag == b.log_mag and a.arg == -b.arg


FAMILIES = {
    "ginibre": make_ginibre(),
    "elliptic(1,3)": make_elliptic_ginibre(1.0, 3.0),
    "elliptic(2.5,0.7)": make_elliptic_ginibre(2.5, 0.7),
    "quartic": make_radial(QUARTIC),
}


def belt_point(pot, theta: float, ell: float) -> complex:
    """The point at signed normal distance ell from the boundary point at theta."""
    bp = pot.boundary_point(theta, 1.0)
    return bp.p + ell * bp.normal


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.integers(20, 3000), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi),
       st.floats(-0.5, 1.0), st.floats(-0.5, 1.0))
def test_tail_kernel_matches_the_degree_loop(name, n, t1, t2, s1, s2):
    pot = FAMILIES[name]
    delta = sequence_cuts(n, pot.delta_M).delta_n
    z, w = belt_point(pot, t1, s1 * delta), belt_point(pot, t2, s2 * delta)
    tail = tail_kernel(pot, n, z, w)
    assert rel_lc(tail, tail_kernel_loop(pot, n, z, w)) <= 1e-9
    swapped = tail_kernel(pot, n, w, z)
    assert swapped.log_mag == tail.log_mag and swapped.arg == -tail.arg
    assert rel_lc(quasipolynomial(pot, n, n - 1, z), quasipolynomial_scalar(pot, n, n - 1, z)) <= 1e-9


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
def test_tail_kernel_at_large_n(ell, n):
    # ~13.8k degrees at n = 10^6 in one array pass; the boundary law's
    # relative error falls like ~0.4/n
    z, w = belt_point(ell, 0.3, 1e-4), belt_point(ell, 2.0, 2e-4)
    tail = tail_kernel(ell, n, z, w)
    assert rel_lc(tail, kernel_asymptotic(ell, n, z, w).value) < 1e-5
    elapsed = min(timeit.repeat(lambda: tail_kernel(ell, n, z, w), number=1, repeat=3))
    assert elapsed < 0.05


def test_tail_matches_geometric_sum_prediction(gin):
    # closed geometric-sum form of the tail: ratio to the one-term
    # asymptotic approaches 1 from desk scale upward
    devs = []
    for n in (100, 200, 400, 800):
        tail = tail_kernel(gin, n, 1.3, 1.25)
        ka = kernel_asymptotic(gin, n, 1.3, 1.25)
        devs.append(rel_lc(tail, ka.value))
    assert devs[-1] < devs[0]
    assert devs[-1] < 0.01


def test_tail_vs_oracle_elliptic(ell):
    z, w = 1.6, 1.3 + 0.35j
    devs = []
    for n in (20, 40):
        oracle = elliptic_kernel_exact(ell, n, z, w)
        tail = tail_kernel(ell, n, z, w)
        devs.append(rel_lc(tail, oracle))
    assert devs[1] < devs[0]
    assert devs[1] < 0.35


def test_boundary_law_large_n(ell):
    # criterion 8's pair at scales beyond any Gram oracle: the relative
    # error of the boundary asymptotics keeps falling (~0.5/n)
    p1 = ell.boundary_point(0.3, 1.0).p
    p2 = ell.boundary_point(2.0, 1.0).p
    errs = [rel_lc(kernel_asymptotic(ell, n, p1, p2).value, elliptic_kernel_exact(ell, n, p1, p2))
            for n in (250, 1000, 4000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def _rate(ns, errs):
    """The slope of log error against log n, fitted by least squares."""
    return float(np.polyfit(np.log(ns), np.log(errs), 1)[0])


_RATE_NS = [200, 400, 800, 1600, 3200]


@pytest.mark.parametrize("z, w", [(1.3, 1.2 + 0.4j), (1.0, cmath.exp(2j))],
                         ids=["exterior", "boundary"])
def test_ginibre_asymptotic_rate_is_one_over_n(gin, z, w):
    errs = [rel_lc(kernel_asymptotic(gin, n, z, w).value, ginibre_kernel_exact(n, z, w).value)
            for n in _RATE_NS]
    assert _rate(_RATE_NS, errs) == pytest.approx(-1.0, abs=0.1)


def test_elliptic_asymptotic_rate_is_one_over_n(ell):
    z, w = ell.chi(1.15 * cmath.exp(0.4j)), ell.chi(1.1 * cmath.exp(-1.9j))
    errs = [rel_lc(kernel_asymptotic(ell, n, z, w).value, elliptic_kernel_exact(ell, n, z, w))
            for n in _RATE_NS]
    assert _rate(_RATE_NS, errs) == pytest.approx(-1.0, abs=0.1)


def test_boundary_law_rate_is_one_over_n(ell):
    # the paper's headline law for a non-radial Q: |K_n| against
    # sqrt(2 pi n) LapQ^{1/4}(z) LapQ^{1/4}(w) |S(z, w)|; n times the error
    # settles near 0.48
    z, w = ell.chi(cmath.exp(0.3j)), ell.chi(cmath.exp(2j))
    ns = [800, 1600, 3200, 6400, 12_800]
    errs = [abs(math.exp(elliptic_kernel_exact(ell, n, z, w).log_mag)
                / boundary_correlation_modulus(ell, n, z, w) - 1.0) for n in ns]
    assert _rate(ns, errs) == pytest.approx(-1.0, abs=0.1)


@pytest.mark.parametrize("name", ["ginibre", "elliptic(1,3)", "quartic"])
def test_belt_check_reads_the_formulas_exterior_record(name, monkeypatch):
    # kernel_asymptotic measures the distance to cl(U) only for a point
    # whose own phi, from the formula's exterior call, has |phi| < 1
    pot = FAMILIES[name]
    calls = []
    measure = pot.dist_to_exterior
    monkeypatch.setattr(pot, "dist_to_exterior", lambda z: calls.append(z) or measure(z))
    outside = pot.chi(1.2 * cmath.exp(0.4j))
    bp = pot.boundary_point(2.0, 1.0)
    inside = bp.p - 0.01 * bp.normal
    assert abs(pot.phi(inside, 1.0)) < 1.0
    kernel_asymptotic(pot, 400, outside, pot.chi(1.1 * cmath.exp(-1.9j)))
    assert calls == []
    kernel_asymptotic(pot, 400, outside, inside)
    assert calls == [inside]


def test_inside_belt_error_falls_like_one_over_n(gin, ell):
    # belt points up to delta_n inside the droplet: S(z, w) is continued
    # across the boundary, and the relative error still falls like 1/n
    bp = ell.boundary_point(0.3, 1.0)
    for pot, z, w in ((ell, bp.p - 0.01 * bp.normal, ell.boundary_point(2.0, 1.0).p),
                      (gin, 0.97, 1j)):
        assert abs(pot.phi(z, 1.0)) < 1.0
        errs = [rel_lc(kernel_asymptotic(pot, n, z, w).value, pot.exact_source(n).kernel(z, w))
                for n in (100, 400, 1600)]
        assert errs[1] < 0.3 * errs[0] and errs[2] < 0.3 * errs[1]


def test_inside_belt_pairs_where_the_bulk_term_wins_are_refused(gin):
    # inside the droplet the Ginibre kernel also carries the bulk term; the
    # exterior term over the bulk one is |u(zeta)|^n / (sqrt(2 pi n) |1 - zeta|)
    # with zeta = z conj(w), u(zeta) = zeta e^{1 - zeta}, and a pair with a point
    # inside is refused exactly where that ratio is at most 1
    for n in (400, 1600):
        with pytest.raises(RegimeError, match="bulk"):
            kernel_asymptotic(gin, n, 0.97, 0.97)
    rng = np.random.default_rng(17)
    refused = answered = 0
    for n in (20, 100, 400):
        inner = 1.0 - sequence_cuts(n).delta_n
        for _ in range(300):
            z, w = rng.uniform(inner, 1.2, 2) * np.exp(1j * rng.uniform(-math.pi, math.pi, 2))
            zeta = complex(z * w.conjugate())
            if min(abs(z), abs(w)) >= 1.0 or abs(zeta - 1.0) < 0.05:
                continue
            gap = (n * (math.log(abs(zeta)) + 1.0 - zeta.real)
                   - 0.5 * math.log(2.0 * math.pi * n) - math.log(abs(1.0 - zeta)))
            if abs(gap) < 1e-9:
                continue
            if gap > 0:
                kernel_asymptotic(gin, n, z, w)
                answered += 1
            else:
                with pytest.raises(RegimeError, match="bulk"):
                    kernel_asymptotic(gin, n, z, w)
                refused += 1
    assert refused >= 10 and answered >= 100


def test_lowdeg_bound_check(gin):
    r100 = lowdeg_bound_check(gin, 100, 1.2)
    r400 = lowdeg_bound_check(gin, 400, 1.2)
    assert r400.max_scaled < r100.max_scaled / 10.0
    # j = 0 term explicitly tiny at |z| = 1.2
    assert ginibre_orthonormal_logabs(100, 0, 1.2) < -60
    # deep exterior: negligible on every relevant scale
    deep = lowdeg_bound_check(gin, 100, 3.0)
    assert deep.max_scaled < 1e-20


def test_lowdeg_bound_check_follows_the_class_not_the_name():
    # a quartic profile named "ginibre" has no closed-form basis
    quartic = make_radial(dataclasses.replace(QUARTIC, name="ginibre"))
    with pytest.raises(DomainError):
        lowdeg_bound_check(quartic, 100, 1.2)


@pytest.mark.parametrize("name", ["ginibre", "elliptic(1,3)", "quartic"])
def test_overflow_scale_point_is_a_domain_error(name):
    # phi(z) or |phi(z)| overflows float64: DomainError, not an OverflowError
    # from abs, nor a RegimeError from the distance of a nan phi; the same
    # for the tail kernel and the exact kernel of the potential
    pot = FAMILIES[name]
    z = 1.5e308 + 1.5e308j
    with pytest.raises(DomainError):
        pot.dist_to_exterior(z)
    for pair in ((z, 2.0), (2.0, z)):
        for kernel in (functools.partial(kernel_asymptotic, pot, 100),
                       functools.partial(tail_kernel, pot, 100), pot.exact_source(20).kernel):
            with pytest.raises(DomainError):
                kernel(*pair)
