import cmath
import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpkernel
from wpkernel import (
    AdmissiblePotential,
    DomainError,
    EllipticGinibrePotential,
    GinibrePotential,
    KernelAsymptotic,
    RadialPotential,
    RadialProfile,
    ResolutionError,
    ToleranceError,
    berezin_belt_density,
    boundary_correlation_modulus,
    boundary_speed,
    boundary_speed_fd,
    bulk_kernel_expansion,
    cocycle,
    droplet_mass,
    equilibrium_log_potential,
    exterior_kernel_expansion,
    harmonic_extension,
    harmonic_limit_check,
    harmonic_measure_density,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    pointwise_bound_check,
    quasipolynomial,
    rational_eval,
    rho,
    tail_kernel,
    variational_residual,
)
from wpkernel import expansion, general_kernel, ginibre_exact, hardy, scaled_numerics
from wpkernel import potential as potential_module
from wpkernel.ginibre_exact import _gamma_cf
from wpkernel.hardy import _exterior_on_cl_U
from wpkernel.potential import RADIAL_PROFILES
from wpkernel.scaled_numerics import PolynomialQ, RationalAtOne, quad_radial
from wpkernel.szego_geometry import negative_axis_crossing

QUARTIC = RADIAL_PROFILES["quartic"]


@pytest.fixture(scope="module")
def gin():
    return make_ginibre()


@pytest.fixture(scope="module")
def ell():
    return make_elliptic_ginibre(1.0, 3.0)


@pytest.fixture(scope="module")
def quart():
    return make_radial(QUARTIC)


def test_Q_accepts_arrays(gin, ell, quart):
    quadratic = make_radial(RADIAL_PROFILES["quadratic"])
    ws = np.array([0.0, 0.3 - 0.2j, -1.1 + 0.7j, 2.5j, 1e3 + 1e2j])
    for pot in (gin, ell, quart, quadratic):
        values = pot.Q(ws)
        assert values.shape == ws.shape
        assert values == pytest.approx([pot.Q(complex(w)) for w in ws], rel=1e-15)


def test_V_and_ridge_accept_arrays(gin, ell, quart):
    # an array of points outside the excluded compact, on and off the boundary
    for pot in (gin, ell, quart):
        ws = np.concatenate([pot.boundary_grid(8)[1], pot.chi(np.array([0.8, 1.3j, -2.0 - 1.0j]))])
        for f in (pot.V, pot.ridge):
            values = f(ws, 0.9)
            assert values.shape == ws.shape
            assert values == pytest.approx([f(complex(w), 0.9) for w in ws], rel=1e-14, abs=1e-15)
    with pytest.raises(DomainError):
        ell.V(np.array([2.0, 0.0]))  # the second point is past the excluded compact


def test_ginibre_closed_data(gin):
    assert gin.phi(0.73 + 0.4j, 1.0) == 0.73 + 0.4j
    assert gin.exterior(2.0, 1.0).QQ == 1.0
    assert gin.exterior(2.0, 1.0).HH == 0.0
    assert droplet_mass(gin, 0.61) == pytest.approx(0.61, abs=1e-10)
    # V on the boundary matches Q
    assert gin.V(cmath.exp(0.7j), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert gin.V(2.0, 1.0) == pytest.approx(1.0 + math.log(4.0), rel=1e-14)


def test_radial_reproduces_ginibre(gin):
    quad = make_radial(RADIAL_PROFILES["quadratic"])
    for tau in (0.4, 0.85, 1.0):
        assert quad.r_tau(tau) == pytest.approx(math.sqrt(tau), abs=1e-12)
    z = 1.4 - 0.3j
    assert quad.V(z, 0.9) == pytest.approx(gin.V(z, 0.9), abs=1e-12)
    assert quad.exterior(z, 0.8).HH == pytest.approx(gin.exterior(z, 0.8).HH, abs=1e-12)


def test_quartic_radius_and_mass(quart):
    # (1/2) r q'(r) = r^4 = tau
    for tau in (0.3, 0.5, 1.0):
        assert quart.r_tau(tau) == pytest.approx(tau ** 0.25, rel=1e-12)
        assert droplet_mass(quart, tau) == pytest.approx(tau, abs=1e-8)


def test_obstacle_inequality_outside(quart, gin):
    rng = np.random.default_rng(4)
    for pot in (quart, gin):
        r1 = pot.r_tau(1.0)
        for _ in range(40):
            z = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(r1, 3.0)
            assert pot.ridge(z, 1.0) >= -1e-12


def test_ridge_quadratic_coefficient(gin):
    # closed form vs the 2 LapQ ell^2 local model
    val = gin.ridge(1.01, 1.0)
    assert val == pytest.approx((1.01) ** 2 - 1.0 - math.log(1.01 ** 2), rel=1e-12)
    assert val / 1e-4 == pytest.approx(2.0, rel=0.01)


def test_ridge_growth_on_rays(gin):
    # (Q - V)(z) >= c min(dist^2, 1) along exterior rays
    for direction in (1.0, cmath.exp(0.9j)):
        for dist in (0.05, 0.3, 1.0, 2.5):
            z = (1.0 + dist) * direction
            assert gin.ridge(z, 1.0) >= 0.5 * min(dist * dist, 1.0)


def test_boundary_speed(gin, ell, quart):
    # Ginibre: closed form dr/dtau = 1/(2 sqrt(tau))
    assert boundary_speed(gin, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert boundary_speed_fd(gin, 1.0, 1.0) == pytest.approx(0.5, abs=1e-4)
    p_cov = ell.boundary_point(math.pi / 2, 1.0).p
    q_axis = ell.semi_axes(1.0)[1]
    assert boundary_speed(ell, 1.0, p_cov) == pytest.approx(q_axis / 2.0, rel=1e-12)
    assert abs(boundary_speed_fd(ell, 1.0, p_cov)
               - boundary_speed(ell, 1.0, p_cov)) < 1e-4
    for pot in (gin, ell, quart):
        for theta in (0.0, 1.1, 2.7):
            p = pot.boundary_point(theta, 1.0).p
            assert boundary_speed(pot, 1.0, p) > 0


def test_one_sided_boundary_motion_order(gin):
    # nearest point of the grown boundary sits at speed*dtau + O(dtau^2)
    p = 1.0
    speed = boundary_speed(gin, 1.0, p)
    errs = []
    for dtau in (1e-2, 5e-3, 2.5e-3):
        _, ell_signed, _ = gin.project(p, 1.0 + dtau)
        errs.append(abs(abs(ell_signed) - speed * dtau))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 4e-6


def test_elliptic_droplet_shape(ell):
    p, q = ell.semi_axes(1.0)
    assert p == pytest.approx(math.sqrt(1.5), rel=1e-14)
    assert q == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-14)
    assert ell.alpha * p * q == pytest.approx(1.0, rel=1e-14)
    for tau in (0.5, 0.9, 1.0):
        assert droplet_mass(ell, tau) == pytest.approx(tau, abs=1e-8)


def test_elliptic_reduces_to_disc():
    circ = make_elliptic_ginibre(1.0, 1.0)
    p, q = circ.semi_axes(1.0)
    assert p == pytest.approx(1.0, rel=1e-14)
    assert q == pytest.approx(1.0, rel=1e-14)
    z = 1.7 + 0.6j
    assert circ.phi(z, 1.0) == pytest.approx(z, rel=1e-12)


def test_elliptic_degenerate_parameters():
    with pytest.raises(DomainError):
        make_elliptic_ginibre(1.0, 0.0)
    with pytest.raises(DomainError):
        make_elliptic_ginibre(-1.0, 2.0)


def test_variational_oracle(gin, ell, quart):
    for pot in (gin, ell, quart):
        assert variational_residual(pot, 1.0) < 1e-4


def test_conformal_contracts(ell):
    rng = np.random.default_rng(12)
    for tau in (0.8, 1.0):
        for theta in rng.uniform(0, 2 * math.pi, 12):
            p = ell.boundary_point(theta, tau).p
            assert abs(ell.phi(p, tau)) == pytest.approx(1.0, abs=1e-10)
        for _ in range(12):
            omega = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(1.05, 2.0)
            z = ell.chi(omega, tau)
            assert abs(ell.phi(z, tau) - omega) < 1e-10


def test_extension_contracts(ell, gin):
    # Re(QQ) matches Q on the boundary to spectral accuracy
    for theta in (0.2, 1.3, 2.9, 4.4):
        p = ell.boundary_point(theta, 1.0).p
        assert abs(ell.exterior(p, 1.0).QQ.real - ell.Q(p)) < 1e-9
    assert abs(ell.exterior(100.0, 1.0).QQ.imag) < 1e-12
    # constant boundary data extends to the constant
    const = harmonic_extension(ell, 1.0, lambda p: 0.75)
    assert abs(const(2.0 + 0.5j) - 0.75) < 1e-13
    q_ext = harmonic_extension(gin, 1.0, lambda p: gin.Q(p))
    assert abs(q_ext(1.9) - 1.0) < 1e-13
    h_ext = harmonic_extension(ell, 1.0, lambda p: 0.5 * math.log(ell.laplacian(p)))
    assert abs(h_ext(2.4) - 0.5 * math.log(2.0)) < 1e-13


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (2.5, 0.7)])
def test_elliptic_script_Q_matches_fft_extension(a, b):
    pot = make_elliptic_ginibre(a, b)
    rng = np.random.default_rng(11)
    for tau in (0.5, 0.8, 0.9, 1.0):
        fft = harmonic_extension(pot, tau, pot.Q)
        for _ in range(16):
            omega = rng.uniform(1.0, 3.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            z = pot.chi(omega, tau)
            closed = pot.exterior(z, tau).QQ
            assert abs(closed - fft(z)) <= 1e-13 * abs(closed)


def test_elliptic_d2chi_is_the_derivative_of_dchi():
    pot = make_elliptic_ginibre(2.5, 0.7)
    h = 1e-5
    for omega in (1.0, 1.3 * cmath.exp(0.8j), cmath.exp(2.5j)):
        for tau in (0.6, 1.0):
            fd = (pot.dchi(omega + h, tau) - pot.dchi(omega - h, tau)) / (2.0 * h)
            assert abs(pot.d2chi(omega, tau) - fd) < 1e-9


def test_extension_rejects_rough_data():
    ell = make_elliptic_ginibre(1.0, 3.0)
    with pytest.raises(ToleranceError):
        harmonic_extension(ell, 1.0, lambda p: np.where(p.real > 0, 1.0, 0.0), nodes=256)


def test_sqrt_dphi_branch_continuity(ell):
    # continuous along a traced exterior loop, positive at a far real point
    thetas = np.linspace(0.0, 2.0 * math.pi, 400)
    path = [ell.chi(1.25 * cmath.exp(1j * t), 1.0) for t in thetas]
    vals = [ell.exterior(z, 1.0).sqrt_dphi for z in path]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 0.05
    far = ell.exterior(50.0, 1.0).sqrt_dphi
    assert far.real > 0 and abs(far.imag) < 1e-12
    e = ell.exterior(2.0 + 1.0j, 1.0)
    assert e.sqrt_dphi ** 2 == pytest.approx(e.dphi, rel=1e-12)


def test_obstacle_ordering(ell):
    # Qcheck_{tau'} - Qcheck_tau >= c (tau' - tau)^2 on the larger exterior;
    # on that set both obstacle functions equal their V's
    tau, tau2 = 0.9, 1.0
    for theta in np.linspace(0, 2 * math.pi, 10, endpoint=False):
        z = ell.boundary_point(theta, tau2).p
        gap = ell.V(z, tau2) - ell.V(z, tau)
        assert gap >= 0.05 * (tau2 - tau) ** 2
    z_far = 3.0 + 1.0j
    assert ell.V(z_far, tau2) - ell.V(z_far, tau) >= 0.05 * (tau2 - tau) ** 2


def test_v_tau_domain_error(ell):
    with pytest.raises(DomainError):
        ell.V(0.0, 1.0)  # deep inside, past the excluded compact


def test_droplet_geometry_summary(ell):
    _, boundary, _, _ = ell.boundary_grid(128, 1.0)
    p, q = ell.semi_axes(1.0)
    a_coeff, const, b_coeff = ell.chi_laurent(1.0)
    assert a_coeff == pytest.approx((p + q) / 2.0, rel=1e-14)
    assert const == 0.0
    assert b_coeff == pytest.approx((p - q) / 2.0, rel=1e-14)
    assert droplet_mass(ell, 1.0) == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(boundary.real)) == pytest.approx(p, rel=1e-6)


def test_radial_no_root_configuration_error():
    bounded = RadialProfile(q=lambda r: 1e-8 * r * r, dq=lambda r: 2e-8 * r,
                            d2q=lambda r: 2e-8, name="too-flat")
    with pytest.raises(DomainError):
        make_radial(bounded)


def test_elliptic_projection_finds_nearest_boundary_point(ell):
    # Newton from atan2(w) used to reach the wrong critical point on the flat
    # sides of the ellipse: boundary points that round to just inside got a
    # distance of O(1), and so did some interior points
    rng = np.random.default_rng(3)
    on_boundary = [ell.boundary_point(t).p for t in rng.uniform(0.0, 2.0 * math.pi, 4000)]
    assert max(ell.dist_to_exterior(p) for p in on_boundary) < 1e-9
    p, q = ell.semi_axes(1.0)
    r = np.sqrt(rng.uniform(0.0, 1.0, 400))
    t = rng.uniform(0.0, 2.0 * math.pi, 400)
    inside = p * r * np.cos(t) + 1j * q * r * np.sin(t)
    _, dense, _, _ = ell.boundary_grid(20000)
    brute = np.min(np.abs(dense[None, :] - inside[:, None]), axis=1)
    dist = np.array([ell.dist_to_exterior(z) for z in inside])
    # the projection may only beat the sampled boundary, by less than its spacing
    assert np.all(dist <= brute + 1e-12)
    assert np.all(brute - dist < 5e-4)



def test_projection_survives_an_underflowing_angle(ell):
    # the conformal angle of 2 + 5e-324j underflows in atan2, which
    # cmath.phase turns into an OverflowError; the projection is the vertex
    bp, ell_signed, theta = ell.project(2 + 5e-324j)
    p, _ = ell.semi_axes(1.0)
    assert theta == 0.0
    assert bp.p == pytest.approx(p, abs=1e-12)
    assert ell_signed == pytest.approx(2.0 - p, abs=1e-12)

@pytest.mark.parametrize("name", ["gin", "ell", "quart"])
def test_grad_Q_matches_central_differences(name, request):
    pot = request.getfixturevalue(name)
    h = 1e-6
    zs = np.array([0.3 - 0.2j, -1.1 + 0.7j, 2.5j, 0.9 + 0.05j])
    fd = (pot.Q(zs + h) - pot.Q(zs - h) + 1j * (pot.Q(zs + 1j * h) - pot.Q(zs - 1j * h))) / (2 * h)
    grad = pot.grad_Q(zs)
    assert grad.shape == zs.shape
    assert np.all(np.abs(grad - fd) <= 1e-7 * np.abs(fd))
    for z, expected in zip(zs, fd):
        assert abs(pot.grad_Q(complex(z)) - expected) <= 1e-7 * abs(expected)


def _power_profile(k):
    """q = r^{2k}/k: r_tau = tau^{1/(2k)} and Lap Q = k r^{2k-2}."""
    return RadialProfile(q=lambda r: r ** (2 * k) / k, dq=lambda r: 2.0 * r ** (2 * k - 1),
                         d2q=lambda r: 2.0 * (2 * k - 1) * r ** (2 * k - 2), name=f"power{k}")


families = st.one_of(
    st.builds(lambda a, b: (make_elliptic_ginibre(a, b), None),
              st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
    st.sampled_from([1, 2, 3]).map(lambda k: (make_radial(_power_profile(k)), k)),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(families, st.floats(0.3, 1.0), st.floats(0.0, 0.85), st.floats(0.0, 2.0 * math.pi))
def test_boundary_integral_oracles(family, tau, s, theta):
    pot, k = family
    assert abs(droplet_mass(pot, tau) - tau) <= 1e-12
    assert variational_residual(pot, tau) < 1e-8
    if k is not None:
        r = pot.r_tau(tau)
        z = s * r * cmath.exp(1j * theta)
        closed = tau * math.log(r) - (tau - abs(z) ** (2 * k)) / (2 * k)
        assert abs(equilibrium_log_potential(pot, tau, z) - closed) <= 1e-12


@pytest.mark.parametrize("tau", [1.0, 0.7])
def test_equilibrium_log_potential_near_the_boundary(tau):
    # at |phi_tau| = 0.99 a fixed 512-node rule is off by ~3e-3; the sized rule is not
    pot = make_radial(_power_profile(1))
    r = pot.r_tau(tau)
    for z in (0.99 * r, 0.99 * r * cmath.exp(2.1j)):
        closed = tau * math.log(r) - (tau - abs(z) ** 2) / 2
        assert abs(equilibrium_log_potential(pot, tau, z) - closed) <= 1e-12
    with pytest.raises(ResolutionError):
        equilibrium_log_potential(pot, tau, 0.9999 * r)


class _Shrunk(EllipticGinibrePotential):
    """chi_tau scaled by 0.9: the droplet of mass 0.81 tau, not of mass tau."""

    def chi(self, omega, tau=1.0):
        return 0.9 * super().chi(omega, tau)

    def dchi(self, omega, tau=1.0):
        return 0.9 * super().dchi(omega, tau)


class _Disc(EllipticGinibrePotential):
    """The disc with the area of the elliptic droplet in its place."""

    def phi(self, z, tau=1.0):
        return z / math.sqrt(tau / self.alpha)

    def chi(self, omega, tau=1.0):
        return math.sqrt(tau / self.alpha) * omega

    def dchi(self, omega, tau=1.0):
        return complex(math.sqrt(tau / self.alpha))


def test_oracles_reject_a_wrong_droplet():
    # a homothetic shrink is an equilibrium droplet, of a smaller mass: the mass sees it
    assert abs(droplet_mass(_Shrunk(1.0, 3.0), 1.0) - 0.81) < 1e-12
    # a disc of the right area has the right mass, but Q - 2U is not constant on it
    disc = _Disc(1.0, 3.0)
    assert abs(droplet_mass(disc, 1.0) - 1.0) < 1e-12
    assert variational_residual(disc, 1.0) > 1e-2


def test_radius_cache_stays_bounded():
    pot = make_radial(QUARTIC)
    # a tail solves the radii of all its degrees as one array, past the scalar cache
    for n in range(100, 400, 25):
        tail_kernel(pot, n, 1.05, 1.05 * cmath.exp(0.5j))
    assert pot._r_cache.cache_info().misses == 1  # r_1, solved by the constructor
    for tau in np.linspace(0.5, 1.0, 300):
        pot.r_tau(float(tau))
    info = pot._r_cache.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


def _conformal(pot, z, tau):
    """phi and the five fields of `exterior`, by name."""
    return {"phi": pot.phi(z, tau), **pot.exterior(z, tau)._asdict()}


@pytest.mark.parametrize("family", ["gin", "ell", "quart", "flat"])
def test_conformal_data_accept_point_and_tau_arrays(family, request):
    pot = make_elliptic_ginibre(2.5, 0.7) if family == "flat" else request.getfixturevalue(family)
    zs = np.array([[1.6 + 0.3j], [-1.3 + 1.1j], [2.0], [0.0]])
    taus = np.array([0.4, 0.83, 1.0])
    scalar = [[_conformal(pot, complex(z), float(t)) for t in taus] for z in zs[:, 0]]
    for name, value in _conformal(pot, zs, taus).items():
        got = np.broadcast_to(value, (4, 3))
        want = np.array([[d[name] for d in row] for row in scalar])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), name
    assert pot.outer_radius(1.0) == pytest.approx(max(np.abs(pot.boundary_grid(64)[1])), rel=1e-12)
    _, pts, speed, normal = pot.boundary_grid(64)
    assert pts.shape == speed.shape == normal.shape == (64,)


def test_radii_of_a_tau_array_are_one_bisection(quart):
    taus = np.linspace(0.05, 1.05, 41)
    radii = quart.r_tau(taus)
    assert radii == pytest.approx([quart.r_tau(float(t)) for t in taus], rel=1e-15, abs=0.0)
    assert 0.5 * radii * QUARTIC.dq(radii) == pytest.approx(taus, rel=1e-14)
    assert quart.r_tau(taus.copy()) is radii  # the same degrees again: no second solve


@pytest.mark.parametrize("tau", [np.array([0.9, math.nan]), np.array([0.9, math.inf]),
                                 np.array([0.9, 1.2]), np.array([1e-4, 0.9])],
                         ids=["nan", "inf", "above-ceiling", "below-floor"])
@pytest.mark.parametrize("family", ["gin", "ell", "quart"])
def test_tau_arrays_outside_the_range_raise_domain_error(family, tau, request):
    pot = request.getfixturevalue(family)
    for method in (pot.phi, pot.exterior):
        with pytest.raises(DomainError):
            method(1.5 + 0.2j, tau)


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (2.5, 0.7)])
def test_elliptic_arrays_at_zero_and_on_the_focal_segment(a, b):
    # the suite turns RuntimeWarning into an error; the branch must be the scalar one
    pot = make_elliptic_ginibre(a, b)
    p, q = pot.semi_axes(1.0)
    focal_axis = 1.0 if p > q else 1j
    zs = focal_axis * math.sqrt(abs(p * p - q * q)) * np.array([0.0, 0.3, -0.7, 0.999])
    scalar = [_conformal(pot, complex(z), 1.0) for z in zs]
    for name, value in _conformal(pot, zs, 1.0).items():
        got = np.broadcast_to(value, zs.shape)
        want = np.array([d[name] for d in scalar])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name
    taus = np.array([0.5, 1.0])
    assert pot.phi(0.0, taus) == pytest.approx([pot.phi(0.0, float(t)) for t in taus], rel=1e-15)


def test_elliptic_derivative_at_a_focus_raises_domain_error(ell):
    # a tau whose focus c squares back to c^2 exactly, so sqrt(z^2 - c^2) = 0 at z = c
    tau = next(float(t) for t in np.linspace(0.5, 1.0, 101)
               if math.sqrt(ell._joukowski(float(t))[2]) ** 2 == ell._joukowski(float(t))[2])
    c = math.sqrt(ell._joukowski(tau)[2])
    assert ell.phi(c, tau) == pytest.approx(c / (2.0 * ell._joukowski(tau)[0]), rel=1e-15)
    for z in (c, np.array([2.0, c])):
        with pytest.raises(DomainError):
            ell.exterior(z, tau)


@pytest.mark.parametrize("function, names", [
    (quasipolynomial, {"tau_floor"}),
    (berezin_belt_density, {"allow_outside_belt"}),
    (cocycle, {"boundary_tol"}),
    (harmonic_extension, {"trunc_tol"}),
    (harmonic_limit_check, {"rings"}),
    (variational_residual, {"n_radial", "n_angular"}),
    (RadialPotential.__init__, {"r_bracket"}),
    (boundary_speed_fd, {"dtau"}),
    (exterior_kernel_expansion, {"tol"}),
    (bulk_kernel_expansion, {"tol"}),
    (_exterior_on_cl_U, {"tol"}),
    (_gamma_cf, {"tol", "max_iter"}),
    (quad_radial, {"m_per_panel"}),
    (negative_axis_crossing, {"tol"}),
], ids=lambda v: getattr(v, "__qualname__", None))
def test_single_value_options_are_constants(function, names):
    # no caller sets these, so each is a constant in the function body
    assert names.isdisjoint(inspect.signature(function).parameters)


def test_argument_reordering_wrappers_are_gone():
    for name in ("V_tau", "ridge", "DropletGeometry", "_boundary_nodes"):
        assert not hasattr(wpkernel, name) and not hasattr(potential_module, name)
    # public functions that no library route called, deleted with their exports
    for name in ("lc_div", "lc_pow_int", "ginibre_one_point", "correction_table",
                 "CorrectionTable", "ridge_between", "f_factor", "h_function", "LC_ONE",
                 "lc_from_cnumber"):
        assert not hasattr(wpkernel, name)
    # the Ginibre-only copy of the belt model and the record of its scalar call
    for owner, name in ((wpkernel, "poisson_disc"), (wpkernel, "berezin_gaussian_ginibre"),
                        (wpkernel, "BeltDensity"), (expansion, "poisson_disc"),
                        (expansion, "berezin_gaussian_ginibre"),
                        (expansion, "gaussian_belt_profile"), (general_kernel, "BeltDensity")):
        assert not hasattr(owner, name), name
    for name in ("droplet_geometry", "tau0"):
        assert not hasattr(AdmissiblePotential, name)
    # code that no library route ran: the test-only array partial sum, the
    # general rho_j addition and the algebra only it used, and the membership
    # check that derived phi a second time
    for owner, name in ((ginibre_exact, "raw_partial_sum_array"),
                        (scaled_numerics, "_zeta_minus_one_pow"), (hardy, "_require_cl_U"),
                        (RationalAtOne, "__add__"), (RationalAtOne, "scale"),
                        (PolynomialQ, "__neg__"), (PolynomialQ, "__sub__")):
        assert not hasattr(owner, name), name
    assert "regime" not in {f.name for f in dataclasses.fields(KernelAsymptotic)}


@pytest.mark.parametrize("family", ["gin", "ell", "quart"])
def test_boundary_grid_returns_weights_points_speed_and_normal(family, request):
    pot = request.getfixturevalue(family)
    weights, pts, speed, normal = pot.boundary_grid(64, 0.8)
    omega = np.exp(2j * math.pi * np.arange(64) / 64)
    assert np.allclose(pts, pot.chi(omega, 0.8), rtol=1e-15, atol=0.0)
    assert np.allclose(normal, omega * pot.dchi(omega, 0.8), rtol=1e-15, atol=0.0)
    assert np.allclose(speed, np.abs(normal), rtol=1e-15, atol=0.0)
    assert weights.sum() == pytest.approx(2.0 * math.pi, rel=1e-15)
    # the flux of grad Q through Gamma_tau is 4 pi tau
    flux = (np.conj(pot.grad_Q(pts)) * normal).real
    assert float(weights @ flux) == pytest.approx(4.0 * math.pi * 0.8, rel=1e-8)


_FAMILIES = {"gin": make_ginibre(), "ell": make_elliptic_ginibre(1.0, 3.0),
             "quart": make_radial(QUARTIC)}


@pytest.mark.parametrize("name", sorted(_FAMILIES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(1.0, 3.0), st.floats(0.0, 2.0 * math.pi), st.floats(0.3, 1.0))
def test_exterior_is_one_consistent_record(name, rho, theta, tau):
    pot = _FAMILIES[name]
    zs = pot.chi(rho * np.exp(1j * (theta + np.array([0.0, 2.1, 4.2]))), tau)
    arr = pot.exterior(zs, tau)
    assert np.array_equal(arr.phi, pot.phi(zs, tau))
    for k, z in enumerate(zs):
        e = pot.exterior(complex(z), tau)
        assert e.phi == pot.phi(complex(z), tau)  # the same bits as the membership map
        assert abs(e.sqrt_dphi ** 2 - e.dphi) <= 1e-12 * abs(e.dphi)
        for field, value in zip(e._fields, arr):
            want = getattr(e, field)
            assert abs(np.broadcast_to(value, zs.shape)[k] - want) <= 1e-14 * max(1.0, abs(want)), field
    # Re QQ_tau = Q on Gamma_tau
    _, pts, _, _ = pot.boundary_grid(32, tau)
    q = pot.Q(pts)
    assert np.max(np.abs(np.real(pot.exterior(pts, tau).QQ) - q)) <= 1e-12 * np.max(q)


def test_exterior_replaces_the_per_quantity_methods():
    for cls in (AdmissiblePotential, RadialPotential, GinibrePotential, EllipticGinibrePotential):
        for name in ("dphi", "sqrt_dphi", "script_Q", "script_H"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert {"phi", "exterior"} <= set(vars(AdmissiblePotential))


def test_extension_reads_its_data_once_and_takes_point_arrays(ell, quart):
    seen = []
    ext = harmonic_extension(ell, 1.0, lambda p: seen.append(p) or ell.Q(p))
    assert len(seen) == 1 and seen[0].shape == (512,)
    zs = np.array([2.0 + 0.5j, -1.5j, 3.0, ell.boundary_point(0.4).p])
    got = ext(zs)
    assert got.shape == zs.shape
    assert np.max(np.abs(got - [ext(complex(z)) for z in zs])) <= 1e-14 * np.max(np.abs(got))
    assert np.max(np.abs(got - ell.exterior(zs, 1.0).QQ)) <= 1e-13 * np.max(np.abs(got))
    # a radial Lap Q is elementwise, through its small-r guard too
    rs = np.array([0.0, 1e-10, 0.5, 1.3j, -2.0])
    assert np.array_equal(quart.laplacian(rs), [quart.laplacian(complex(r)) for r in rs])


_ELL, _GIN = _FAMILIES["ell"], _FAMILIES["gin"]
_P, _W = _ELL.boundary_point(0.3).p, _ELL.boundary_point(2.0).p
_BIG = 1.5e308 * (1 + 1j)  # finite, but |Re| + |Im| overflows


@pytest.mark.parametrize("call", [
    lambda: cocycle(_ELL, 0, _P, _W),
    lambda: boundary_correlation_modulus(_ELL, 0, _P, _W),
    lambda: boundary_correlation_modulus(_ELL, -1, _P, _W),
    lambda: quasipolynomial(_ELL, 0, 0, 2.0),
    lambda: harmonic_measure_density(_ELL, 1e200, _P),
    lambda: boundary_speed(_ELL, 1.0, math.inf),
    lambda: equilibrium_log_potential(_ELL, 1.0, math.nan),
    lambda: pointwise_bound_check(0, [1, 2], [1.1]),
    lambda: pointwise_bound_check(20, [18], [complex(math.nan, 0.0)]),
    lambda: boundary_correlation_modulus(_ELL, 40, 1.5e308 * (1 + 1j), _W),
    lambda: boundary_correlation_modulus(_ELL, 40, _P, 1.5e308 * (1 + 1j)),
    lambda: _GIN.project(_BIG),
    lambda: _ELL.project(_BIG),
    lambda: _GIN.V(_BIG),
    lambda: _GIN.V(math.inf),
    lambda: _GIN.ridge(math.inf),
    lambda: boundary_speed(_ELL, 1.0, _BIG),
    lambda: boundary_speed_fd(_GIN, 1.0, _BIG),
    lambda: boundary_speed_fd(_ELL, 1.0, _BIG),
    lambda: harmonic_measure_density(_GIN, 3.0, _BIG),
    lambda: harmonic_measure_density(_ELL, 3.0, _BIG),
    lambda: rational_eval(rho(1), complex(math.nan, 0.0)),
    lambda: rational_eval(rho(1), math.inf),
    lambda: pointwise_bound_check(20, [18], [_BIG]),
    lambda: pointwise_bound_check(20, [20], [1.5]),  # the space holds degrees below n
], ids=["cocycle-n0", "modulus-n0", "modulus-n-1", "quasipolynomial-n0", "density-1e200",
        "speed-inf", "log-potential-nan", "bound-n0", "bound-nan", "modulus-overflow-scale-z",
        "modulus-overflow-scale-w", "project-overflow-scale-ginibre",
        "project-overflow-scale-elliptic", "V-overflow-scale", "V-inf", "ridge-inf",
        "speed-overflow-scale", "speed-fd-overflow-scale-ginibre",
        "speed-fd-overflow-scale-elliptic", "density-overflow-scale-p-ginibre",
        "density-overflow-scale-p-elliptic", "rational-nan", "rational-inf",
        "bound-overflow-scale", "bound-degree-n"])
def test_bad_input_raises_domain_error(call):
    # each of these returned a value, 0.0 or nan, or raised an untyped error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()


_HOSTILE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_scalar_methods_refuse_hostile_input(name):
    # a theta, z or tau that is not finite, or a z at the overflow scale, raises
    # DomainError from every scalar method; boundary_point returned a NaN record
    pot = _FAMILIES[name]
    cases = [("boundary_point", (t,)) for t in _HOSTILE]
    cases += [(method, (x, t)) for method, x in (("boundary_point", 0.3), ("project", 2.0),
                                                  ("V", 2.0), ("ridge", 2.0)) for t in _HOSTILE]
    cases += [(method, (z,)) for method in ("project", "dist_to_exterior", "V", "ridge")
              for z in (*_HOSTILE, complex(math.nan, 0.0), _BIG)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method, args in cases:
            with pytest.raises(DomainError):
                getattr(pot, method)(*args)
