"""Szego kernel, Hardy basis, and harmonic measure of the exterior domain.

For the exterior component U of the droplet complement with normalized
conformal map phi: U -> {|w| > 1}, the Hardy space of exterior-vanishing
holomorphic functions with boundary L^2 norm has orthonormal basis

    psi_j(z) = sqrt(phi'(z)) / (sqrt(2 pi) phi(z)^j),   j >= 1,

and reproducing kernel

    S(z, w) = (1/2pi) sqrt(phi'(z)) conj(sqrt(phi'(w)))
              / (phi(z) conj(phi(w)) - 1).

Harmonic measure of U at z has arclength density given by the conformal
pullback of the exterior Poisson kernel of the disc.  All boundary
integrals use the pullback parametrization p = chi(e^{i theta}) with
|dp| = |chi'| dtheta and the periodic trapezoid rule, which is spectrally
accurate on the analytic boundaries supplied by the potential module.
szego_kernel, szego_basis and harmonic_measure_density accept arrays of
points, so each boundary integral is one array expression over its nodes.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, PoleError, check_index, check_scale, extent
from .potential import AdmissiblePotential
from .scaled_numerics import _all, _as_complex, _elementwise


def _exterior_on_cl_U(pot: AdmissiblePotential, z):
    """The exterior data at z (tau = 1), checked to lie in the closed exterior domain."""
    e = pot.exterior(z, 1.0)
    mod = abs(e.phi)
    if not _all(mod >= 1.0 - 1e-8):
        raise DomainError(f"point {z} is not in the closed exterior domain "
                          f"(|phi| = {np.min(mod):.6f})")
    return e


def szego_kernel(pot: AdmissiblePotential, z: complex, w: complex) -> complex:
    """Closed-form Szego kernel S(z, w) on the closed exterior domain; elementwise over arrays."""
    z = _as_complex(z)
    w = _as_complex(w)
    check_scale(extent(z) + extent(w))
    ez = _exterior_on_cl_U(pot, z)
    ew = _exterior_on_cl_U(pot, w)
    denom = ez.phi * ew.phi.conjugate() - 1.0
    if not _all(abs(denom) >= 1e-12):
        raise PoleError("phi(z) conj(phi(w)) = 1: Szego kernel pole")
    return ez.sqrt_dphi * ew.sqrt_dphi.conjugate() / (2.0 * math.pi * denom)


def szego_basis(pot: AdmissiblePotential, j: int, z: complex) -> complex:
    """Orthonormal Hardy basis element psi_j(z), j >= 1; vanishes at infinity.

    Elementwise over an array of z.
    """
    check_index(j, "basis index j", 1)
    z = _as_complex(z)
    check_scale(extent(z))
    e = _exterior_on_cl_U(pot, z)
    # phi^{-j} through the exponential to avoid overflow at large j
    inv_pow = _elementwise(-j * _elementwise(e.phi, cmath.log, np.log), cmath.exp, np.exp)
    return e.sqrt_dphi * inv_pow / math.sqrt(2.0 * math.pi)


def szego_kernel_series(pot: AdmissiblePotential, z: complex, w: complex,
                        terms: int = 200) -> complex:
    """Partial basis sum sum_{j<=terms} psi_j(z) conj(psi_j(w)).

    Converges geometrically to S(z, w) with ratio |phi(z) conj(phi(w))|^{-1}.
    """
    check_index(terms, "term count", 1)
    acc = 0j
    for j in range(1, terms + 1):
        acc += szego_basis(pot, j, z) * szego_basis(pot, j, w).conjugate()
    return acc


def harmonic_measure_density(pot: AdmissiblePotential, z: complex, p: complex) -> float:
    """Arclength density P_z(p) of harmonic measure of U at an interior z of U.

    Elementwise over arrays of z and p.
    """
    z = _as_complex(z)
    p = _as_complex(p)
    check_scale(extent(z) + extent(p))
    phi_z = pot.phi(z, 1.0)
    if not _all(abs(phi_z) > 1.0 + 1e-12):
        raise DomainError("harmonic measure density needs z strictly in the exterior domain")
    # below 1e150, |phi(z)|^2 and |phi(z) - phi(p)|^2 stay finite
    if not _all(abs(phi_z) < 1e150):
        raise DomainError(f"harmonic measure density overflows float64 at z = {z}")
    e = pot.exterior(p, 1.0)
    return (abs(phi_z) ** 2 - 1.0) / (2.0 * math.pi * abs(phi_z - e.phi) ** 2) * abs(e.dphi)


def harmonic_measure_mass(pot: AdmissiblePotential, z: complex, nodes: int = 512) -> float:
    """Quadrature of P_z over the boundary; equals 1 for any exterior z."""
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    return float(np.sum(wts * harmonic_measure_density(pot, z, pts) * speed))


def harmonic_measure_integral(pot: AdmissiblePotential, z: complex, f,
                              nodes: int = 512) -> complex:
    """omega_z(f) = integral of f against harmonic measure at z; f takes the node array in one call."""
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    dens = harmonic_measure_density(pot, z, pts)
    return complex(np.sum(wts * dens * speed * np.asarray(f(pts), dtype=complex)))


def szego_reproducing_check(pot: AdmissiblePotential, f_index: int, z: complex,
                            nodes: int = 512) -> float:
    """| <psi_f, S(., z)>_boundary - psi_f(z) |; zero by the reproducing property."""
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    vals = szego_basis(pot, f_index, pts) * szego_kernel(pot, pts, z).conjugate()
    integral = complex(np.sum(wts * speed * vals))
    return abs(integral - szego_basis(pot, f_index, z))


def basis_gram_matrix(pot: AdmissiblePotential, j_max: int, nodes: int = 512) -> np.ndarray:
    """Boundary Gram matrix of psi_1..psi_jmax; identity up to quadrature error."""
    check_index(j_max, "j_max", 1)
    wts, pts, speed, _ = pot.boundary_grid(nodes, 1.0)
    basis = np.array([szego_basis(pot, j, pts) for j in range(1, j_max + 1)])
    scaled = basis * (wts * speed)[None, :]
    return scaled @ basis.conj().T
