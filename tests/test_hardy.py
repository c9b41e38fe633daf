import cmath
import math

import numpy as np
import pytest

from wpkernel import (
    DomainError,
    PoleError,
    harmonic_measure_density,
    harmonic_measure_mass,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    poisson_disc,
    szego_basis,
    szego_kernel,
    szego_kernel_series,
    szego_reproducing_check,
    RadialProfile,
)
from wpkernel.hardy import basis_gram_matrix


def szego_projection_of_constant(pot, z: complex, nodes: int = 512) -> float:
    """|<1, S(., z)>|; constants are orthogonal to the exterior Hardy space."""
    _, wts, pts, speed = pot.boundary_grid(nodes, 1.0)
    vals = np.array([szego_kernel(pot, p, z).conjugate() for p in pts])
    return abs(complex(np.sum(wts * speed * vals)))


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
        poisson_disc(2.0, theta), rel=1e-13)
    assert abs(harmonic_measure_mass(ell, 3.0, nodes=512) - 1.0) < 1e-9
    # far root point: density approaches |phi'|/(2 pi), mass stays 1
    assert abs(harmonic_measure_mass(ell, 250.0, nodes=512) - 1.0) < 1e-9
    far = harmonic_measure_density(ell, 1e7, p_ell := ell.boundary_point(1.1, 1.0).p)
    assert far == pytest.approx(abs(ell.dphi(p_ell, 1.0)) / (2 * math.pi), rel=1e-5)
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
