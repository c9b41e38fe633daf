import cmath
import math

import numpy as np
import pytest

from wpkernel import (
    DomainError,
    RadialProfile,
    ToleranceError,
    boundary_speed,
    boundary_speed_fd,
    droplet_mass,
    harmonic_extension,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    ridge,
    ridge_between,
    variational_residual,
    V_tau,
)

QUARTIC = RadialProfile(q=lambda r: 0.5 * r ** 4, dq=lambda r: 2.0 * r ** 3,
                        d2q=lambda r: 6.0 * r ** 2, name="quartic")


@pytest.fixture(scope="module")
def gin():
    return make_ginibre()


@pytest.fixture(scope="module")
def ell():
    return make_elliptic_ginibre(1.0, 3.0)


@pytest.fixture(scope="module")
def quart():
    return make_radial(QUARTIC)


def test_ginibre_closed_data(gin):
    assert gin.phi(0.73 + 0.4j, 1.0) == 0.73 + 0.4j
    assert gin.script_Q(2.0, 1.0) == 1.0
    assert gin.script_H(2.0, 1.0) == 0.0
    assert droplet_mass(gin, 0.61) == pytest.approx(0.61, abs=1e-10)
    # V on the boundary matches Q
    assert V_tau(gin, 1.0, cmath.exp(0.7j)) == pytest.approx(1.0, abs=1e-12)
    assert V_tau(gin, 1.0, 2.0) == pytest.approx(1.0 + math.log(4.0), rel=1e-14)


def test_radial_reproduces_ginibre(gin):
    quad = make_radial(RadialProfile(q=lambda r: r * r, dq=lambda r: 2.0 * r,
                                     d2q=lambda r: 2.0, name="quadratic"))
    for tau in (0.4, 0.85, 1.0):
        assert quad.r_tau(tau) == pytest.approx(math.sqrt(tau), abs=1e-12)
    z = 1.4 - 0.3j
    assert quad.V(z, 0.9) == pytest.approx(gin.V(z, 0.9), abs=1e-12)
    assert quad.script_H(z, 0.8) == pytest.approx(gin.script_H(z, 0.8), abs=1e-12)


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
    val = ridge(gin, 1.0, 1.01)
    assert val == pytest.approx((1.01) ** 2 - 1.0 - math.log(1.01 ** 2), rel=1e-12)
    assert val / 1e-4 == pytest.approx(2.0, rel=0.01)


def test_ridge_growth_on_rays(gin):
    # (Q - V)(z) >= c min(dist^2, 1) along exterior rays
    for direction in (1.0, cmath.exp(0.9j)):
        for dist in (0.05, 0.3, 1.0, 2.5):
            z = (1.0 + dist) * direction
            assert ridge(gin, 1.0, z) >= 0.5 * min(dist * dist, 1.0)


def test_boundary_speed(gin, ell, quart):
    # Ginibre: closed form dr/dtau = 1/(2 sqrt(tau))
    assert boundary_speed(gin, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert boundary_speed_fd(gin, 1.0, 1.0, 1e-3) == pytest.approx(0.5, abs=1e-4)
    p_cov = ell.boundary_point(math.pi / 2, 1.0).p
    q_axis = ell.semi_axes(1.0)[1]
    assert boundary_speed(ell, 1.0, p_cov) == pytest.approx(q_axis / 2.0, rel=1e-12)
    assert abs(boundary_speed_fd(ell, 1.0, p_cov, 1e-3)
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


def test_ridge_between(gin, ell):
    exact, pred = ridge_between(gin, 1.0, 1.0, 1.0)
    assert exact == 0.0 and pred == 0.0
    exact, pred = ridge_between(gin, 0.99, 1.0, 1.0)
    assert exact == pytest.approx(1.0 - V_tau(gin, 0.99, 1.0), rel=1e-12)
    assert exact / pred == pytest.approx(1.0, abs=0.02)
    p2 = ell.boundary_point(0.9, 1.0).p
    exact, pred = ridge_between(ell, 0.99, 1.0, p2)
    assert exact / pred == pytest.approx(1.0, abs=0.05)


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
        assert abs(ell.script_Q(p, 1.0).real - ell.Q(p)) < 1e-9
    assert abs(ell.script_Q(100.0, 1.0).imag) < 1e-12
    # constant boundary data extends to the constant
    const = harmonic_extension(ell, 1.0, lambda p: 0.75)
    assert abs(const(2.0 + 0.5j) - 0.75) < 1e-13
    q_ext = harmonic_extension(gin, 1.0, lambda p: gin.Q(p))
    assert abs(q_ext(1.9) - 1.0) < 1e-13
    h_ext = harmonic_extension(ell, 1.0, lambda p: 0.5 * math.log(ell.laplacian(p)))
    assert abs(h_ext(2.4) - 0.5 * math.log(2.0)) < 1e-13


def test_extension_rejects_rough_data():
    ell = make_elliptic_ginibre(1.0, 3.0)
    with pytest.raises(ToleranceError):
        harmonic_extension(ell, 1.0, lambda p: 1.0 if p.real > 0 else 0.0, nodes=256)


def test_sqrt_dphi_branch_continuity(ell):
    # continuous along a traced exterior loop, positive at a far real point
    thetas = np.linspace(0.0, 2.0 * math.pi, 400)
    path = [ell.chi(1.25 * cmath.exp(1j * t), 1.0) for t in thetas]
    vals = [ell.sqrt_dphi(z, 1.0) for z in path]
    jumps = np.abs(np.diff(vals))
    assert jumps.max() < 0.05
    far = ell.sqrt_dphi(50.0, 1.0)
    assert far.real > 0 and abs(far.imag) < 1e-12
    assert ell.sqrt_dphi(2.0 + 1.0j, 1.0) ** 2 == pytest.approx(
        ell.dphi(2.0 + 1.0j, 1.0), rel=1e-12)


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
    geom = ell.droplet_geometry(1.0, m=128)
    p, q = ell.semi_axes(1.0)
    a_coeff, const, b_coeff = geom.conformal_coeffs
    assert a_coeff == pytest.approx((p + q) / 2.0, rel=1e-14)
    assert const == 0.0
    assert b_coeff == pytest.approx((p - q) / 2.0, rel=1e-14)
    assert geom.mass == pytest.approx(1.0, abs=1e-8)
    assert np.max(np.abs(geom.boundary.real)) == pytest.approx(p, rel=1e-6)


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
    _, _, dense, _ = ell.boundary_grid(20000)
    brute = np.min(np.abs(dense[None, :] - inside[:, None]), axis=1)
    dist = np.array([ell.dist_to_exterior(z) for z in inside])
    # the projection may only beat the sampled boundary, by less than its spacing
    assert np.all(dist <= brute + 1e-12)
    assert np.all(brute - dist < 5e-4)
