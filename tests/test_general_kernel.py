import cmath
import math

import numpy as np
import pytest

from wpkernel import (
    BeltError,
    DomainError,
    RegimeError,
    berezin_belt_density,
    boundary_correlation_modulus,
    cocycle,
    elliptic_kernel_exact,
    exterior_kernel_expansion,
    f_factor,
    ginibre_kernel_exact,
    h_function,
    kernel_asymptotic,
    lowdeg_bound_check,
    make_elliptic_ginibre,
    make_ginibre,
    quasipolynomial,
    sequence_cuts,
    szego_kernel,
    tail_kernel,
)
from wpkernel.expansion import berezin_gaussian_ginibre
from wpkernel.general_kernel import ginibre_orthonormal_logabs
from wpkernel.scaled_numerics import lc_sum, quad_radial


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
    bp = gin.boundary_point(theta, 1.0)
    belt = berezin_belt_density(gin, n, z, bp, ell_coord)
    assert belt.density == pytest.approx(
        berezin_gaussian_ginibre(n, z, theta, ell_coord), rel=1e-12)
    assert belt.density <= berezin_belt_density(gin, n, z, bp, 0.0).density
    with pytest.raises(BeltError):
        berezin_belt_density(gin, n, z, bp, 0.5)
    # plotting override
    wide = berezin_belt_density(gin, n, z, bp, 0.5, allow_outside_belt=True)
    assert wide.density >= 0.0


def test_belt_mass_all_builtins(gin, ell):
    from wpkernel import make_radial, RadialProfile
    from wpkernel.scaled_numerics import gauss_on_interval, quad_trapezoid_periodic

    quart = make_radial(RadialProfile(
        q=lambda r: 0.5 * r ** 4, dq=lambda r: 2.0 * r ** 3,
        d2q=lambda r: 6.0 * r ** 2, name="quartic"))
    n = 400
    for pot, z in ((gin, 2.0), (ell, 2.5), (quart, 2.0)):
        cuts = sequence_cuts(n, pot.delta_M)
        tq = quad_trapezoid_periodic(128)
        lq = gauss_on_interval(48, -cuts.delta_n, cuts.delta_n)
        mass = 0.0
        for theta, wt in zip(tq.nodes, tq.weights):
            bp = pot.boundary_point(theta, 1.0)
            speed = abs(pot.dchi(cmath.exp(1j * theta), 1.0))
            for l, wl in zip(lq.nodes, lq.weights):
                mass += wt * wl * speed * berezin_belt_density(pot, n, z, bp, l).density
        assert mass > 0.95, (pot.name, mass)
        assert mass < 1.0 + 1e-6


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
    rule = quad_radial(1.0 + 12.0 / math.sqrt(n), 1.0 / math.sqrt(n), m_per_panel=24)
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
               + pot.script_H(p, tau).real
               + math.log(abs(pot.dphi(p, tau))))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_quasipolynomial_tau_floor(gin):
    with pytest.raises(DomainError):
        quasipolynomial(gin, 100, 50, 1.2)  # tau = 0.5 below the formal window
    val = quasipolynomial(gin, 100, 50, 1.2, tau_floor=0.4)
    assert math.isfinite(val.log_mag)


def test_tail_kernel_ginibre(gin):
    tail = tail_kernel(gin, 400, 1.3, 1.3)
    exact = ginibre_kernel_exact(400, 1.3, 1.3).value
    assert rel_lc(tail, exact) < 0.02
    a = tail_kernel(gin, 150, 1.4, 1.2 + 0.3j)
    b = tail_kernel(gin, 150, 1.2 + 0.3j, 1.4)
    assert a.log_mag == b.log_mag and a.arg == -b.arg


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


def test_f_factor_invariants(gin, ell):
    for pot in (gin, ell):
        assert f_factor(pot, 1.0, 2.0 + 1.0j) == pytest.approx(1.0 + 0j, abs=1e-12)
        far = f_factor(pot, 0.9, 500.0)
        assert far.real > 0 and abs(far.imag) < 1e-10


def test_tail_ratio_decay_via_h(gin):
    # |a_m| with m = n theta_n decays like e^{-s log^2 n} with
    # s ~ -2 Re h = 1/2 for the unit disc
    for n in (100, 400, 1600):
        cuts = sequence_cuts(n)
        m = int(n * cuts.theta_n)
        tau = m / n
        log_am = 2.0 * m * math.log(abs(f_factor(gin, tau, 1.3)))
        s = -log_am / math.log(n) ** 2
        assert 0.3 < s < 0.7
    # quadratic model in (1 - tau) with coefficient 2 Re h sharpens as tau -> 1
    n = 10 ** 6
    devs = []
    for tau in (0.999, 0.9999):
        j = int(n * tau)
        log_aj = 2.0 * j * math.log(abs(f_factor(gin, tau, 1.3)))
        model = 2.0 * n * h_function(gin, 1.3).real * (1.0 - tau) ** 2
        devs.append(abs(log_aj / model - 1.0))
    assert devs[0] < 0.02
    assert devs[1] < devs[0]


def test_h_function(gin, ell):
    assert h_function(gin, 1.7) == pytest.approx(-0.25 + 0j, abs=1e-12)
    assert h_function(gin, 1e6).real < 0
    h_far = h_function(ell, 300.0)
    assert h_far.real < 0
    p = ell.boundary_point(0.5, 1.0).p
    boundary_data = -abs(ell.dphi(p, 1.0)) ** 2 / (4.0 * ell.laplacian(p))
    assert h_function(ell, p).real == pytest.approx(boundary_data, abs=1e-10)


def test_lowdeg_bound_check(gin):
    r100 = lowdeg_bound_check(gin, 100, 1.2)
    r400 = lowdeg_bound_check(gin, 400, 1.2)
    assert r400.max_scaled < r100.max_scaled / 10.0
    # j = 0 term explicitly tiny at |z| = 1.2
    assert ginibre_orthonormal_logabs(100, 0, 1.2) < -60
    # deep exterior: negligible on every relevant scale
    deep = lowdeg_bound_check(gin, 100, 3.0)
    assert deep.max_scaled < 1e-20
