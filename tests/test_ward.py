import cmath
import math
import tracemalloc

import numpy as np
import pytest

from wpkernel import (
    DomainError,
    GinibreSource,
    OracleSource,
    berezin_cauchy_transform,
    compute_moments,
    ginthm_two_term,
    harmonic_limit_check,
    loop_residual,
    make_elliptic_ginibre,
    make_ginibre,
    orthonormalize,
)
from wpkernel.ortho_oracle import _poly_values, kernel_oracle
from wpkernel.ward import _lap_log_R, ginthm_leading, ginthm_second_coeff


def test_two_term_values():
    assert ginthm_leading(2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert ginthm_second_coeff(2.0) == pytest.approx(-10.0 / 27.0, rel=1e-14)
    val = ginthm_two_term(50, 2.0)
    assert val == pytest.approx(2.0 / 3.0 - 10.0 / 27.0 / 50.0, rel=1e-14)
    # conjugation equivariance and the mass limit
    z = 1.7 + 0.9j
    assert ginthm_two_term(80, z.conjugate()) == pytest.approx(
        ginthm_two_term(80, z).conjugate(), rel=1e-14)
    assert ginthm_two_term(80, 1e6) * 1e6 == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(DomainError):
        ginthm_two_term(10, 0.5)


def test_cauchy_transform_mass_limit():
    # z mu_{n,z}(k_z) -> 1 far out, at the O(1/z^2) rate of the dipole term
    src = GinibreSource(60)
    devs = []
    for z in (6.0, 12.0):
        mu = berezin_cauchy_transform(src, z)
        assert abs(mu.imag) < 1e-10
        devs.append(abs(z * mu.real - 1.0))
    assert devs[1] < 0.35 * devs[0]
    assert devs[1] < 0.01


def test_cauchy_transform_two_term_convergence():
    errs = []
    for n in (100, 400):
        mu = berezin_cauchy_transform(GinibreSource(n), 2.0)
        errs.append(abs(n * (mu.real - 2.0 / 3.0) + 10.0 / 27.0))
    assert errs[1] < errs[0]
    assert errs[1] < 0.1 * 10.0 / 27.0


def test_loop_residual_within_budget():
    src = GinibreSource(50)
    for z in (1.5, 0.5):
        lr = loop_residual(src, z)
        assert abs(lr.residual) <= lr.budget
        assert abs(lr.residual) <= 1e-3 * 50 * 1.0
        assert lr.quad_spec.mass == pytest.approx(1.0, abs=1e-7)


def test_loop_residual_no_growth():
    vals = [abs(loop_residual(GinibreSource(n), 1.5).residual) for n in (25, 50, 100)]
    assert vals[2] < 10.0 * vals[0]


def test_radial_harmonic_limit_vanishes():
    gin = make_ginibre()
    rep = harmonic_limit_check(gin, 2.0)
    assert abs(rep.H) < 1e-10
    assert rep.omega_cauchy == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_elliptic_harmonic_limit_decay():
    ell = make_elliptic_ginibre(1.0, 3.0)
    rep = harmonic_limit_check(ell, 3.0)
    assert abs(rep.H) < 0.1
    r5, r10 = rep.ring_values
    # faster than z^{-1.5}, consistent with the claimed z^{-2} rate
    assert math.log(r5 / r10) / math.log(2.0) > 1.5


def test_oracle_source_matches_ginibre_source():
    gin = make_ginibre()
    n = 24
    basis = orthonormalize(compute_moments(gin, n, n - 1))
    a = berezin_cauchy_transform(OracleSource(basis, gin), 1.6)
    b = berezin_cauchy_transform(GinibreSource(n), 1.6)
    assert abs(a - b) < 1e-6


def test_exterior_log_density_curvature():
    # Lap log R_n ~= -n LapQ + O(1) in the exterior; checkable from the
    # exact kernel at an exterior point
    n = 100
    src = GinibreSource(n)
    val = _lap_log_R(src, 1.5, 0.01 / math.sqrt(n))
    assert val == pytest.approx(-n, rel=0.05)
    # interior flatness: the log-density curvature collapses instead
    assert abs(_lap_log_R(src, 0.3, 0.01 / math.sqrt(n))) < 1.0


def test_convergence_to_harmonic_measure():
    gin = make_ginibre()
    target = harmonic_limit_check(gin, 2.0).omega_cauchy
    errs = []
    for n in (50, 200):
        mu = berezin_cauchy_transform(GinibreSource(n), 2.0)
        errs.append(abs(mu - target))
    assert errs[1] < errs[0]


@pytest.fixture(scope="module")
def elliptic_bases():
    ell = make_elliptic_ginibre(1.0, 3.0)
    return ell, {n: orthonormalize(compute_moments(ell, n, n - 1)) for n in (20, 40)}


@pytest.mark.parametrize("n", [20, 40])
def test_oracle_grid_matches_per_point_kernel(elliptic_bases, n):
    # the Horner form sum_k a_k conj(w)^k against the per-basis sum of
    # kernel_oracle; both round in the monomial representation, so the
    # relative gap is scaled by its condition kappa = sum |a_k| |w|^k / |sum|
    ell, bases = elliptic_bases
    basis = bases[n]
    src = OracleSource(basis, ell)
    p, q = ell.semi_axes(1.0)
    x = np.linspace(-1.5 * p, 1.5 * p, 25)
    y = np.linspace(-1.5 * q, 1.5 * q, 15)
    ws = (x[None, :] + 1j * y[:, None]).ravel()
    for z in (ell.chi(1.2 * cmath.exp(0.4j)), ell.boundary_point(2.0).p, 0.3 + 0.1j):
        b = src.berezin_grid(z, ws)
        log_rz = kernel_oracle(basis, z, z).log_mag
        ref = np.array([math.exp(2.0 * kernel_oracle(basis, z, w).log_mag - log_rz) for w in ws])
        a = np.asarray(basis.coeffs).conj().T @ _poly_values(basis, z)
        xs = np.conj(ws) / basis.scale
        kappa = np.polyval(np.abs(a)[::-1], np.abs(xs)) / np.abs(np.polyval(a[::-1], xs))
        assert np.all(np.abs(b - ref) <= 1e-12 * kappa * ref)


def test_oracle_grid_memory_is_linear_in_nodes(elliptic_bases):
    ell, bases = elliptic_bases
    src = OracleSource(bases[40], ell)
    rng = np.random.default_rng(0)
    ws = rng.uniform(-1.5, 1.5, 100_000) + 1j * rng.uniform(-1.0, 1.0, 100_000)
    tracemalloc.start()
    try:
        b = src.berezin_grid(ell.chi(1.3 * cmath.exp(0.7j)), ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(b))
    assert peak < 20e6
