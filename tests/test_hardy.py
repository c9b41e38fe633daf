import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpkernel import (
    DomainError,
    PoleError,
    harmonic_measure_density,
    harmonic_measure_mass,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    szego_basis,
    szego_kernel,
    szego_kernel_series,
    szego_reproducing_check,
    RadialProfile,
)
from wpkernel.hardy import basis_gram_matrix, harmonic_measure_integral
from wpkernel.potential import RADIAL_PROFILES

FAMILIES = {
    "ginibre": make_ginibre(),
    "elliptic(1,3)": make_elliptic_ginibre(1.0, 3.0),
    "elliptic(2.5,0.7)": make_elliptic_ginibre(2.5, 0.7),
    "quartic": make_radial(RADIAL_PROFILES["quartic"]),
}


def szego_projection_of_constant(pot, z: complex, nodes: int = 512) -> float:
    """|<1, S(., z)>|; constants are orthogonal to the exterior Hardy space."""
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    vals = np.array([szego_kernel(pot, p, z).conjugate() for p in pts])
    return abs(complex(np.sum(wts * speed * vals)))


# The boundary integrals one node at a time, from the scalar Hardy functions.

def harmonic_measure_mass_loop(pot, z: complex, nodes: int = 512) -> float:
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    dens = np.array([harmonic_measure_density(pot, z, complex(p)) for p in pts])
    return float(np.sum(wts * dens * speed))


def szego_reproducing_check_loop(pot, f_index: int, z: complex, nodes: int = 512) -> float:
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    vals = np.array([szego_basis(pot, f_index, complex(p))
                     * szego_kernel(pot, complex(p), z).conjugate() for p in pts])
    return abs(complex(np.sum(wts * speed * vals)) - szego_basis(pot, f_index, z))


def basis_gram_matrix_loop(pot, j_max: int, nodes: int = 512) -> np.ndarray:
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    basis = np.array([[szego_basis(pot, j, complex(p)) for p in pts] for j in range(1, j_max + 1)])
    return (basis * (wts * speed)[None, :]) @ basis.conj().T


@pytest.fixture(scope="module")
def gin():
    return make_ginibre()


@pytest.fixture(scope="module")
def ell():
    return make_elliptic_ginibre(1.0, 3.0)


def test_disc_closed_forms(gin):
    z, w = 2.0, 1j
    assert szego_kernel(gin, z, w) == pytest.approx(
        1.0 / (2.0 * math.pi * (z * w.conjugate() - 1.0)), rel=1e-14)
    assert szego_kernel(gin, 2.0, 2.0) == pytest.approx(1.0 / (6.0 * math.pi), rel=1e-14)
    assert szego_kernel(gin, 2.0, 2.0).real > 0
    assert szego_basis(gin, 1, 2.0) == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * 2.0),
                                                     rel=1e-14)


def test_basis_vanishes_at_infinity(ell):
    assert abs(szego_basis(ell, 3, 1e8)) < 1e-20


def test_pole_error(gin):
    z = cmath.exp(0.4j)  # boundary diagonal: phi(z) conj(phi(z)) = 1
    with pytest.raises(PoleError):
        szego_kernel(gin, z, z)
    with pytest.raises(DomainError):
        szego_kernel(gin, 0.3, 2.0)  # inside the droplet


def test_basis_sum_identity(ell, gin):
    for pot, z, w in ((ell, 2 + 0.3j, 1.5 - 0.2j), (gin, 1.4, 1.2 + 0.5j)):
        closed = szego_kernel(pot, z, w)
        series = szego_kernel_series(pot, z, w, terms=200)
        assert abs(closed - series) < 1e-10
        # geometric convergence in the truncation order
        short = szego_kernel_series(pot, z, w, terms=20)
        ratio = abs(pot.phi(z, 1.0) * pot.phi(w, 1.0).conjugate())
        assert abs(closed - short) < 2.0 * abs(closed) * ratio ** -20 / (1 - 1 / ratio)


def test_hermitian_symmetry(ell):
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = complex(rng.uniform(1.3, 2.5), rng.uniform(-1, 1))
        w = complex(rng.uniform(1.3, 2.5), rng.uniform(-1, 1))
        assert abs(szego_kernel(ell, z, w) - szego_kernel(ell, w, z).conjugate()) < 1e-13


def test_orthonormality_matrix(ell):
    gram = basis_gram_matrix(ell, 5, nodes=512)
    assert np.max(np.abs(gram - np.eye(5))) < 1e-9


def test_harmonic_measure(ell, gin):
    # disc case reduces to the exterior Poisson kernel exactly
    theta = 0.8
    p = cmath.exp(1j * theta)
    assert harmonic_measure_density(gin, 2.0, p) == pytest.approx(
        3.0 / (2.0 * math.pi * abs(2.0 - p) ** 2), rel=1e-13)
    assert abs(harmonic_measure_mass(ell, 3.0, nodes=512) - 1.0) < 1e-9
    # far root point: density approaches |phi'|/(2 pi), mass stays 1
    assert abs(harmonic_measure_mass(ell, 250.0, nodes=512) - 1.0) < 1e-9
    far = harmonic_measure_density(ell, 1e7, p_ell := ell.boundary_point(1.1, 1.0).p)
    assert far == pytest.approx(abs(ell.exterior(p_ell, 1.0).dphi) / (2 * math.pi), rel=1e-5)
    with pytest.raises(DomainError):
        harmonic_measure_density(ell, ell.boundary_point(0.4, 1.0).p, p_ell)


def test_reproducing_property(gin, ell):
    assert szego_reproducing_check(gin, 1, 2.0, nodes=512) < 1e-10
    assert szego_reproducing_check(ell, 3, 2 + 0.5j, nodes=512) < 1e-8
    # for the disc the constant function is orthogonal to every basis mode;
    # on the ellipse constants have a genuinely nonzero projection
    assert szego_projection_of_constant(gin, 2.0, nodes=512) < 1e-12


def test_scaled_disc_covariance():
    # radial potential with droplet radius r: phi = z/r, and the kernel obeys
    # the sqrt(phi') cocycle scaling relative to the unit disc
    r = 1.31849
    scaled = make_radial(RadialProfile(
        q=lambda s: (s / r) ** 2, dq=lambda s: 2.0 * s / r ** 2,
        d2q=lambda s: 2.0 / r ** 2, name="scaled-disc"))
    assert scaled.r_tau(1.0) == pytest.approx(r, rel=1e-12)
    z, w = 2.2, 1.8 + 0.4j
    direct = szego_kernel(scaled, z, w)
    expected = (1.0 / r) / (2.0 * math.pi * (z * w.conjugate() / r ** 2 - 1.0))
    assert direct == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.floats(1.05, 2.5), st.floats(0.0, 2.0 * math.pi), st.integers(1, 5))
def test_hardy_arrays_match_the_node_loops(name, rho, theta, f_index):
    pot = FAMILIES[name]
    z = pot.chi(rho * cmath.exp(1j * theta), 1.0)
    nodes = 128
    _, pts, _, _ = pot.boundary_grid(nodes, 1.0)
    for array, scalar in (
        (szego_kernel(pot, pts, z), lambda p: szego_kernel(pot, p, z)),
        (szego_kernel(pot, z, pts), lambda p: szego_kernel(pot, z, p)),
        (szego_basis(pot, f_index, pts), lambda p: szego_basis(pot, f_index, p)),
        (harmonic_measure_density(pot, z, pts), lambda p: harmonic_measure_density(pot, z, p)),
    ):
        assert np.max(np.abs(array - np.array([scalar(complex(p)) for p in pts]))) <= 1e-13
    assert abs(harmonic_measure_mass(pot, z, nodes) - harmonic_measure_mass_loop(pot, z, nodes)) <= 1e-13
    assert abs(szego_reproducing_check(pot, f_index, z, nodes)
               - szego_reproducing_check_loop(pot, f_index, z, nodes)) <= 1e-13
    assert np.max(np.abs(basis_gram_matrix(pot, 4, nodes) - basis_gram_matrix_loop(pot, 4, nodes))) <= 1e-13


def test_harmonic_measure_integral_calls_f_once_on_the_nodes(ell):
    # u = Re(1/phi) is harmonic and bounded in U, so omega_z(u) = u(z)
    seen = []
    got = harmonic_measure_integral(
        ell, 2.5, lambda p: seen.append(p) or (1.0 / ell.phi(p, 1.0)).real, nodes=128)
    assert len(seen) == 1 and seen[0].shape == (128,)
    assert got == pytest.approx((1.0 / ell.phi(2.5, 1.0)).real, abs=1e-12)
    # a constant comes back as a scalar and integrates to itself
    assert harmonic_measure_integral(ell, 2.5, lambda p: 0.5, nodes=128) == pytest.approx(
        0.5, abs=1e-12)


_NAN_IN = np.array([2.0 + 0.5j, complex(math.nan, 0.0)])
_INF_IN = np.array([2.0 + 0.5j, complex(0.0, math.inf)])
_BIG_IN = np.array([2.0 + 0.5j, 1.5e308 * (1 + 1j)])  # |Re| + |Im| overflows


@pytest.mark.parametrize("bad", [_NAN_IN, _INF_IN, _BIG_IN], ids=["nan", "inf", "overflow-scale"])
@pytest.mark.parametrize("call", [
    lambda pot, bad: szego_kernel(pot, bad, 1.8 - 0.3j),
    lambda pot, bad: szego_kernel(pot, 1.8 - 0.3j, bad),
    lambda pot, bad: szego_basis(pot, 2, bad),
    lambda pot, bad: harmonic_measure_density(pot, 3.0, bad),
], ids=["szego-kernel-z", "szego-kernel-w", "szego-basis", "harmonic-density"])
def test_non_finite_point_arrays_raise_domain_error(ell, call, bad):
    with pytest.raises(DomainError):
        call(ell, bad)


def test_points_inside_an_array_raise_domain_error(ell):
    inside = np.array([2.0 + 0.5j, 0.1 + 0.1j])
    with pytest.raises(DomainError):
        szego_kernel(ell, inside, 2.0)
    with pytest.raises(DomainError):
        szego_basis(ell, 1, inside)
    with pytest.raises(DomainError):
        harmonic_measure_density(ell, inside, 2.0)
    with pytest.raises(PoleError):
        szego_kernel(make_ginibre(), np.array([2.0, 1.0]), 1.0)


@pytest.mark.parametrize("call", [
    lambda pot: basis_gram_matrix(pot, 0),
    lambda pot: basis_gram_matrix(pot, -1),
    lambda pot: basis_gram_matrix(pot, 1.5),
    lambda pot: basis_gram_matrix(pot, 3, nodes=1.5),
    lambda pot: harmonic_measure_integral(pot, 3.0, lambda p: p, nodes=0),
], ids=["gram-j-max-0", "gram-j-max-negative", "gram-j-max-fractional", "gram-nodes-fractional",
        "integral-nodes-0"])
def test_bad_counts_raise_domain_error(ell, call):
    # a count below 1 or a fractional one: never an empty result, a TypeError
    # or a numpy broadcasting ValueError
    with pytest.raises(DomainError):
        call(ell)
