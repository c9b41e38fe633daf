"""Loop-equation residuals and Cauchy transforms of Berezin measures.

The Berezin measure rooted at z, d mu_{n,z}(w) = B_n(z,w) dA(w), satisfies
the exact identity (at inverse temperature one)

    dbar_z [ mu_{n,z}(k_z) ] = R_n(z) - n LapQ(z) - Lap log R_n(z),

with k_z(w) = 1/(z - w) the Cauchy kernel and R_n the one-point function.
Because the identity is exact, its numerical residual is a pure measure of
quadrature and finite-difference error; every residual is therefore
reported next to an explicit numerical budget (Richardson step-halving for
the stencils, node refinement for the quadrature).

The Cauchy transform integral is evaluated on a polar grid centered at the
root z: the Jacobian rho drho dtheta cancels the 1/(z - w) singularity
exactly, leaving a smooth integrand.  The raw integral is normalized by the
same-grid mass of B_n, which also cancels shared quadrature bias.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError
from .ginibre_exact import ginibre_berezin_array, ginibre_log_one_point
from .hardy import harmonic_measure_integral
from .ortho_oracle import _poly_values, kernel_oracle
from .potential import AdmissiblePotential
from .scaled_numerics import composite_gauss, quad_trapezoid_periodic


class GinibreSource:
    """Exact-kernel source for Q = |z|^2."""

    name = "ginibre"

    def __init__(self, n: int):
        self.n = n
        self.outer_radius = 1.0

    def berezin_grid(self, z: complex, ws: np.ndarray) -> np.ndarray:
        return ginibre_berezin_array(self.n, z, ws)

    def log_one_point(self, z: complex) -> float:
        return ginibre_log_one_point(self.n, z)

    def laplacian_Q(self, z: complex) -> float:
        return 1.0


class OracleSource:
    """Berezin source built from an orthonormal basis.

    sum_j P_j(z) conj(P_j(w)) = sum_k a_k (conj(w)/scale)^k with a = C^H p(z),
    C the scaled-monomial coefficients of the P_j: one Horner step per degree
    over the flat node array, O(degree * nodes) work and O(nodes) memory.
    """

    name = "oracle"

    def __init__(self, basis, pot: AdmissiblePotential):
        self.basis = basis
        self.pot = pot
        self.n = basis.n
        self.outer_radius = pot.outer_radius(1.0)

    def berezin_grid(self, z: complex, ws: np.ndarray) -> np.ndarray:
        shape = ws.shape
        flat = ws.ravel()
        a = np.asarray(self.basis.coeffs).conj().T @ _poly_values(self.basis, z)
        x = np.conj(flat) / self.basis.scale
        kern = np.full(flat.shape, a[-1])
        for c in a[-2::-1]:
            kern *= x
            kern += c
        n = self.n
        qz = float(self.pot.Q(complex(z)))
        qw = self.pot.Q(flat)
        log_k2 = 2.0 * np.log(np.abs(kern) + 1e-300) - n * (qz + qw)
        log_b = log_k2 - self.log_one_point(z)
        out = np.zeros_like(log_b)
        ok = log_b > -700
        out[ok] = np.exp(log_b[ok])
        return out.reshape(shape)

    def log_one_point(self, z: complex) -> float:
        return kernel_oracle(self.basis, z, z).log_mag

    def laplacian_Q(self, z: complex) -> float:
        return self.pot.laplacian(z)


@dataclass(frozen=True)
class QuadSpec:
    n_theta: int
    n_radial: int
    r_max: float
    disc_radius: float
    mass: float


_GAUSS_PANEL_CACHE = {}


def _panel_nodes(a: float, b: float, m: int = 16):
    key = m
    base = _GAUSS_PANEL_CACHE.get(key)
    if base is None:
        from .scaled_numerics import quad_gauss_legendre

        rule = quad_gauss_legendre(m)
        base = (rule.nodes, rule.weights)
        _GAUSS_PANEL_CACHE[key] = base
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return mid + half * base[0], half * base[1]


def _graded_edges(s_max: float, fine_bands, fine: float, coarse: float):
    """Panel edges on [0, s_max]: fine width inside the given (center, half)
    bands, coarse elsewhere."""
    bands = []
    for center, half in fine_bands:
        lo, hi = max(0.0, center - half), min(s_max, center + half)
        if hi > lo:
            bands.append((lo, hi))
    bands.sort()
    merged = []
    for lo, hi in bands:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    edges = [0.0]
    cursor = 0.0
    for lo, hi in merged:
        if lo > cursor:
            n_c = max(1, int(math.ceil((lo - cursor) / coarse)))
            edges += list(np.linspace(cursor, lo, n_c + 1))[1:]
        n_f = max(1, int(math.ceil((hi - lo) / fine)))
        edges += list(np.linspace(lo, hi, n_f + 1))[1:]
        cursor = hi
    if s_max > cursor:
        n_c = max(1, int(math.ceil((s_max - cursor) / coarse)))
        edges += list(np.linspace(cursor, s_max, n_c + 1))[1:]
    return np.unique(np.array(edges))


def _radial_panels(edges, m: int = 16, drop=None):
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a < 1e-14:
            continue
        if drop is not None and drop(a, b):
            continue
        x, wgt = _panel_nodes(a, b, m)
        nodes.append(x)
        weights.append(wgt)
    return np.concatenate(nodes), np.concatenate(weights)


def _gauss_on_angles(a: float, b: float, max_panel: float, m: int = 12):
    n_panels = max(1, int(math.ceil((b - a) / max_panel)))
    edges = np.linspace(a, b, n_panels + 1)
    return _radial_panels(edges, m=m)


def _sector_piece(source, z: complex, s_a, s_b, phi_a, phi_b, fine):
    """Integral of -(1/pi) B e^{-i theta} over the sector, z-centered polar.

    The sector is star-shaped about z (its angular width is small), so each
    direction theta has a single exit radius: the nearest crossing with the
    two circles s = s_a, s_b and the two rays phi = phi_a, phi_b.  Corner
    directions split the theta-range into analytic pieces.
    """
    az = abs(z)
    disc_mode = s_a <= 1e-12

    def exit_radius(theta):
        e = cmath.exp(1j * theta)
        c = (z.conjugate() * e).real
        candidates = []
        d_out = c * c + s_b * s_b - az * az
        candidates.append(-c + math.sqrt(d_out))  # outer circle, always hit
        if not disc_mode:
            d_in = c * c + s_a * s_a - az * az
            if d_in > 0 and c < 0:
                r_in = -c - math.sqrt(d_in)
                if r_in > 0:
                    candidates.append(r_in)
            for phi_edge in (phi_a, phi_b):
                ee = cmath.exp(1j * phi_edge)
                denom = (e * ee.conjugate()).imag
                if abs(denom) > 1e-14:
                    r_ray = -(z * ee.conjugate()).imag / denom
                    if r_ray > 0:
                        candidates.append(r_ray)
        return min(candidates)

    if disc_mode:
        corner_angles = np.linspace(0.0, 2.0 * math.pi, 5)[:-1] + math.atan2(z.imag, z.real)
    else:
        corners = [
            s_a * cmath.exp(1j * phi_a), s_a * cmath.exp(1j * phi_b),
            s_b * cmath.exp(1j * phi_a), s_b * cmath.exp(1j * phi_b),
        ]
        corner_angles = np.array([cmath.phase(c - z) for c in corners])
    base = np.sort(np.mod(corner_angles, 2.0 * math.pi))
    theta_edges = np.concatenate([base, [base[0] + 2.0 * math.pi]])
    integral = 0j
    mass = 0.0
    for t0, t1 in zip(theta_edges[:-1], theta_edges[1:]):
        if t1 - t0 < 1e-13:
            continue
        t_nodes, t_w = _gauss_on_angles(t0, t1, max_panel=(t1 - t0) / 3 + 1e-9, m=16)
        rays = []
        for th in t_nodes:
            r_exit = exit_radius(th)
            n_pan = max(1, int(math.ceil(r_exit / fine)))
            rays.append(_radial_panels(np.linspace(0.0, r_exit, n_pan + 1), m=12))
        # one grid for every ray of the piece, sliced back per ray
        b_all = source.berezin_grid(z, np.concatenate(
            [z + r_nodes * cmath.exp(1j * th) for th, (r_nodes, _) in zip(t_nodes, rays)]))
        lo = 0
        for th, tw, (r_nodes, r_w) in zip(t_nodes, t_w, rays):
            b_vals = b_all[lo:lo + r_nodes.size]
            lo += r_nodes.size
            integral += -tw * cmath.exp(-1j * th) * complex(np.sum(r_w * b_vals)) / math.pi
            mass += tw * float(np.sum(r_w * b_vals * r_nodes)) / math.pi
    return integral, mass


def berezin_cauchy_transform(source, z: complex, n_theta: int = 256,
                             refine: int = 1, with_spec: bool = False):
    """mu_{n,z}(k_z) = integral of B_n(z, w)/(z - w) dA(w), mass-normalized.

    The plane is split into an annular sector aligned with droplet-centered
    polar coordinates that contains the root z, and its complement.  The
    sector is integrated in z-centered polar coordinates, where the Jacobian
    cancels the Cauchy singularity exactly.  The complement is integrated in
    droplet-centered polar coordinates with radial panels graded to resolve
    the boundary belt and the heat-kernel annulus; because the excluded
    region is aligned with the coordinates, the angular integrand stays
    piecewise analytic and composite Gauss rules converge at spectral rate.
    The result is normalized by the same-grid Berezin mass.
    """
    z = complex(z)
    n = source.n
    r_out = source.outer_radius
    s_max = r_out + 12.0 / math.sqrt(n)
    fine = min(0.25, 1.5 / math.sqrt(n)) / refine

    m_r = 0.15
    az = abs(z)
    phi_z = math.atan2(z.imag, z.real)
    have_sector = az - m_r < s_max
    integral = 0j
    mass = 0.0
    if have_sector:
        if az < 2.2 * m_r:
            s_a, s_b = 0.0, az + m_r
            phi_a = phi_b = 0.0
        else:
            s_a, s_b = az - m_r, az + m_r
            half_phi = m_r / az
            phi_a, phi_b = phi_z - half_phi, phi_z + half_phi
        integral, mass = _sector_piece(source, z, s_a, s_b, phi_a, phi_b, fine)
    else:
        s_a = s_b = phi_a = phi_b = 0.0

    # droplet-centered complement
    coarse = 0.25
    bands = [(r_out, min(0.35, r_out))]
    if have_sector:
        bands.append((az, m_r + 6.0 / math.sqrt(n)))
    base_edges = _graded_edges(s_max, bands, fine, coarse)
    n_nodes = 0

    def ray_contribution(phi_nodes, phi_weights, exclude_band):
        nonlocal integral, mass, n_nodes
        if exclude_band:
            edges = np.unique(np.concatenate([base_edges, [s_a, min(s_b, s_max)]]))
            drop = lambda a, b: a >= s_a - 1e-15 and b <= min(s_b, s_max) + 1e-15
            s_nodes, s_w = _radial_panels(edges, m=16, drop=drop)
        else:
            s_nodes, s_w = _radial_panels(base_edges, m=16)
        phases = np.exp(1j * np.asarray(phi_nodes))
        ws = s_nodes[None, :] * phases[:, None]
        b_vals = source.berezin_grid(z, ws)
        wmat = np.asarray(phi_weights)[:, None] * s_w[None, :]
        integral_add = np.sum(wmat * b_vals * s_nodes[None, :] / (z - ws)) / math.pi
        mass_add = np.sum(wmat * b_vals * s_nodes[None, :]) / math.pi
        n_nodes += ws.size
        integral += complex(integral_add)
        mass += float(mass_add)

    if have_sector and s_a > 0:
        # full rays outside the sector's angular range, Gauss panels in phi
        span = 2.0 * math.pi - (phi_b - phi_a)
        pn, pw = _gauss_on_angles(phi_b, phi_a + 2.0 * math.pi,
                                  max_panel=span / (max(24, n_theta // 8) * refine), m=12)
        ray_contribution(pn, pw, exclude_band=False)
        # rays through the sector's angular range, radial band excluded
        pn, pw = _gauss_on_angles(phi_a, phi_b,
                                  max_panel=(phi_b - phi_a) / (4 * refine) + 1e-12, m=12)
        ray_contribution(pn, pw, exclude_band=True)
    else:
        # no sector, or the sector is the full disc s <= s_b: every ray is
        # treated alike and the periodic trapezoid applies
        angular = quad_trapezoid_periodic(n_theta * refine)
        if have_sector:
            edges = np.unique(np.concatenate([base_edges, [min(s_b, s_max)]]))
            drop = lambda a, b: b <= min(s_b, s_max) + 1e-15
            s_nodes, s_w = _radial_panels(edges, m=16, drop=drop)
        else:
            s_nodes, s_w = _radial_panels(base_edges, m=16)
        phases = np.exp(1j * angular.nodes)
        ws = s_nodes[None, :] * phases[:, None]
        b_vals = source.berezin_grid(z, ws)
        wmat = angular.weights[:, None] * s_w[None, :]
        integral += complex(np.sum(wmat * b_vals * s_nodes[None, :] / (z - ws)) / math.pi)
        mass += float(np.sum(wmat * b_vals * s_nodes[None, :]) / math.pi)
        n_nodes += ws.size

    if mass <= 0:
        raise PrecisionError("Berezin mass quadrature collapsed to zero")
    value = integral / mass
    if with_spec:
        return value, QuadSpec(n_theta=n_theta * refine, n_radial=n_nodes,
                               r_max=s_max, disc_radius=m_r, mass=mass)
    return value


@dataclass(frozen=True)
class LoopResidual:
    n: int
    z: complex
    lhs: complex       # dbar of the Cauchy transform
    rhs: float         # R_n - n LapQ - Lap log R_n
    residual: complex
    fd_step: float
    budget: float      # FD Richardson + quadrature refinement estimate
    quad_spec: QuadSpec


def _dbar_stencil(source, z: complex, h: float, n_theta: int, refine: int = 1) -> complex:
    mu = lambda p: berezin_cauchy_transform(source, p, n_theta=n_theta, refine=refine)
    dx = (mu(z + h) - mu(z - h)) / (2.0 * h)
    dy = (mu(z + 1j * h) - mu(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx + 1j * dy)


def _lap_log_R(source, z: complex, h: float) -> float:
    f = source.log_one_point
    center = f(z)
    if not math.isfinite(center):
        raise PrecisionError("one-point function underflow inside the stencil")
    return (
        f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * center
    ) / (4.0 * h * h)


def loop_residual(source, z: complex, fd_step: float | None = None,
                  n_theta: int = 256, boundary_window: float = 0.2) -> LoopResidual:
    """Residual of the loop equation with an explicit numerical budget."""
    z = complex(z)
    n = source.n
    if fd_step is None:
        near_boundary = abs(abs(z) - source.outer_radius) < boundary_window
        fd_step = 0.1 / n if near_boundary else 0.01 / math.sqrt(n)
    lhs = _dbar_stencil(source, z, fd_step, n_theta)
    lhs_half = _dbar_stencil(source, z, 0.5 * fd_step, n_theta)
    lap_log = _lap_log_R(source, z, fd_step)
    lap_log_half = _lap_log_R(source, z, 0.5 * fd_step)
    r_n = math.exp(source.log_one_point(z))
    rhs = r_n - n * source.laplacian_Q(z) - lap_log_half
    residual = lhs_half - rhs
    _, spec = berezin_cauchy_transform(source, z, n_theta=n_theta, with_spec=True)
    mu_coarse = berezin_cauchy_transform(source, z, n_theta=n_theta)
    mu_fine = berezin_cauchy_transform(source, z, n_theta=n_theta, refine=2)
    quad_budget = 4.0 * abs(mu_fine - mu_coarse) / fd_step
    fd_budget = abs(lhs - lhs_half) / 2.0 + abs(lap_log - lap_log_half) / 2.0
    h = 0.5 * fd_step
    # rounding floor: machine noise amplified through the 1/h and 1/h^2 stencils
    eps = 2.3e-16
    fp_floor = 8.0 * eps * (abs(mu_coarse) + 1.0) / h \
        + 8.0 * eps * (abs(source.log_one_point(z)) + 1.0) / (h * h)
    return LoopResidual(
        n=n, z=z, lhs=lhs_half, rhs=rhs, residual=residual, fd_step=fd_step,
        budget=fd_budget + quad_budget + fp_floor, quad_spec=spec,
    )


# ---------------------------------------------------------------------------
# Limit objects: two-term expansion and harmonic-measure comparison
# ---------------------------------------------------------------------------


def ginthm_leading(z: complex) -> complex:
    z = complex(z)
    if abs(z) <= 1.0:
        raise DomainError("the exterior expansion needs |z| > 1")
    return z.conjugate() / (abs(z) ** 2 - 1.0)


def ginthm_second_coeff(z: complex) -> complex:
    z = complex(z)
    if abs(z) <= 1.0:
        raise DomainError("the exterior expansion needs |z| > 1")
    return -z.conjugate() * (abs(z) ** 2 + 1.0) / (abs(z) ** 2 - 1.0) ** 3


def ginthm_two_term(n: int, z: complex) -> complex:
    """Two-term exterior expansion of the Ginibre Berezin Cauchy transform."""
    return ginthm_leading(z) + ginthm_second_coeff(z) / n


@dataclass(frozen=True)
class HarmonicLimitReport:
    z: complex
    omega_cauchy: complex       # omega_z(k_z) by boundary quadrature
    gradient_term: complex      # d/dz log(|phi(z)|^2 - 1)
    H: complex                  # difference; O(z^-2) at infinity
    ring_values: tuple          # |H| samples on far rings for the decay check


def harmonic_limit_check(pot: AdmissiblePotential, z: complex,
                         nodes: int = 512, rings=(5.0, 10.0)) -> HarmonicLimitReport:
    """Compare omega_z(k_z) against the conformal gradient term.

    The difference H(z) vanishes identically for rotation-invariant
    potentials and decays like z^{-2} in general.
    """
    z = complex(z)

    def h_at(point: complex):
        omega_val = harmonic_measure_integral(
            pot, point, lambda p: 1.0 / (point - p), nodes=nodes
        )
        phi = pot.phi(point, 1.0)
        dphi = pot.dphi(point, 1.0)
        grad = dphi * phi.conjugate() / (abs(phi) ** 2 - 1.0)
        return omega_val - grad, omega_val, grad

    H, omega_val, grad = h_at(z)
    direction = z / abs(z) if z != 0 else 1.0
    ring_values = tuple(abs(h_at(r * direction)[0]) for r in rings)
    return HarmonicLimitReport(z=z, omega_cauchy=omega_val, gradient_term=grad,
                               H=H, ring_values=ring_values)
