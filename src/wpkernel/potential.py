"""Admissible potentials and their equilibrium/conformal data.

A potential Q supplies, for each mass parameter tau in (0, 1], the droplet
S_tau of its mass-tau equilibrium measure d sigma_tau = Lap(Q) 1_{S_tau} dA,
the exterior conformal map phi_tau (normalized at infinity), its inverse
chi_tau, the holomorphic functions QQ_tau and HH_tau with

    Re QQ_tau = Q  and  Re HH_tau = log sqrt(Lap Q)  on the boundary,
    Im QQ_tau(inf) = Im HH_tau(inf) = 0,

and the harmonic continuation V_tau = Re QQ_tau + tau log|phi_tau|^2 of the
obstacle function across the boundary.  The "ridge" Q - V_tau vanishes on
the boundary and grows like 2 Lap(Q) ell^2 in the normal coordinate.

Built-ins: the rotation-invariant family (disc droplets, radius r_tau from
(1/2) r q'(r) = tau) and the elliptic family Q = a u^2 + b v^2 whose droplet
is the ellipse with semi-axes fixed by

    alpha p q = tau   and   (p - q)/(p + q) = -beta/alpha,

with alpha = (a+b)/2, beta = (a-b)/2 (derived from the variational identity
for the equilibrium measure and confirmed here by an independent quadrature
oracle, see equilibrium_log_potential).  The exterior map of the ellipse is
the Joukowski map chi(omega) = ((p+q) omega + (p-q)/omega)/2.

Dirichlet data on analytic boundaries is extended holomorphically by circle
pullback and FFT; coefficients decay geometrically, so truncation at 1e-13
gives spectral accuracy with a few hundred nodes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceError
from .scaled_numerics import gauss_on_interval, quad_trapezoid_periodic


@dataclass(frozen=True)
class BoundaryPoint:
    p: complex
    normal: complex  # unit, pointing out of the droplet
    tau: float


@dataclass(frozen=True)
class DropletGeometry:
    tau: float
    boundary: np.ndarray  # complex samples of Gamma_tau
    conformal_coeffs: tuple  # Laurent coefficients (c_1, c_0, c_{-1}) of chi_tau
    mass: float  # quadrature of Lap(Q) over S_tau


class HarmonicExtension:
    """Holomorphic G on the exterior with Re G = f on Gamma_tau, Im G(inf) = 0.

    G(z) = c_0 + 2 sum_{k>=1} c_{-k} phi_tau(z)^{-k}, with c_{-k} the
    discrete Fourier coefficients of the pulled-back boundary data.
    """

    def __init__(self, pot, tau, c0, cneg):
        self.pot = pot
        self.tau = tau
        self.c0 = c0
        self.cneg = cneg  # cneg[k-1] = c_{-k}

    def __call__(self, z: complex) -> complex:
        w_inv = 1.0 / self.pot.phi(z, self.tau)
        acc = 0j
        power = 1.0 + 0j
        for ck in self.cneg:
            power *= w_inv
            acc += ck * power
        return self.c0 + 2.0 * acc


def harmonic_extension(pot, tau: float, f: Callable[[complex], float],
                       nodes: int = 512, trunc_tol: float = 1e-13) -> HarmonicExtension:
    """Solve the exterior Dirichlet problem for boundary data f spectrally."""
    rule = quad_trapezoid_periodic(nodes)
    omega = np.exp(1j * rule.nodes)
    boundary = np.array([pot.chi(o, tau) for o in omega])
    vals = np.array([float(f(p)) for p in boundary])
    coeffs = np.fft.fft(vals) / nodes
    c0 = float(coeffs[0].real)
    scale = max(1.0, abs(c0), float(np.max(np.abs(coeffs))))
    half = nodes // 2
    cneg = [coeffs[nodes - k] for k in range(1, half)]
    # geometric decay check: the last eighth of retained coefficients must
    # already be below truncation, else the data is not smooth enough
    guard = [abs(c) for c in cneg[-(max(4, half // 8)):]]
    if max(guard) > 1e-8 * scale:
        raise ToleranceError(
            "boundary data coefficients do not decay; refine nodes or smooth the data"
        )
    keep = 0
    for k, c in enumerate(cneg, start=1):
        if abs(c) >= trunc_tol * scale:
            keep = k
    return HarmonicExtension(pot, tau, c0, tuple(cneg[:keep]))


class AdmissiblePotential:
    """Base class; subclasses provide the conformal family and local data."""

    name = "abstract"
    tau0 = 0.8          # formal admissibility window [tau0, 1]
    tau_floor = 1e-3    # hard floor below which tau-data is refused
    tau_ceiling = 1.05  # headroom above 1 for finite-difference probes in tau
    rho0 = 0.5          # excluded compact is {|phi_tau| <= rho0}
    delta_M = 1.0       # constant M in the belt width delta_n
    is_radial = False
    has_parity_symmetry = False

    # --- subclass interface -------------------------------------------------
    def Q(self, z):
        raise NotImplementedError

    def laplacian(self, z) -> float:
        raise NotImplementedError

    def outer_radius(self, tau: float = 1.0) -> float:
        raise NotImplementedError

    def phi(self, z: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    def dphi(self, z: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    def sqrt_dphi(self, z: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    def chi(self, omega: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    def dchi(self, omega: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    def chi_laurent(self, tau: float = 1.0) -> tuple:
        raise NotImplementedError

    def script_Q(self, z: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    def script_H(self, z: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    # --- shared derived operations -------------------------------------------
    def _check_tau(self, tau: float):
        if not (self.tau_floor <= tau <= self.tau_ceiling):
            raise DomainError(
                f"tau = {tau} outside supported range [{self.tau_floor}, {self.tau_ceiling}]"
            )

    def rho0_effective(self, tau: float = 1.0) -> float:
        return self.rho0

    def boundary_point(self, theta: float, tau: float = 1.0) -> BoundaryPoint:
        omega = cmath.exp(1j * theta)
        p = self.chi(omega, tau)
        dchi = self.dchi(omega, tau)
        normal = omega * dchi / abs(dchi)
        return BoundaryPoint(p=p, normal=normal, tau=tau)

    def boundary_grid(self, m: int, tau: float = 1.0):
        """(theta, points, |chi'|) on a uniform pullback grid; |dp| = |chi'| dtheta."""
        rule = quad_trapezoid_periodic(m)
        omega = np.exp(1j * rule.nodes)
        pts = np.array([self.chi(o, tau) for o in omega])
        speed = np.array([abs(self.dchi(o, tau)) for o in omega])
        return rule.nodes, rule.weights, pts, speed

    def V(self, z: complex, tau: float = 1.0) -> float:
        """V_tau = Re QQ_tau + tau log |phi_tau|^2 outside the excluded compact."""
        self._check_tau(tau)
        mod = abs(self.phi(z, tau))
        if mod <= self.rho0_effective(tau):
            raise DomainError(
                f"|phi_tau({z})| = {mod:.4f} <= rho0; point is too deep inside the droplet"
            )
        return self.script_Q(z, tau).real + tau * 2.0 * math.log(mod)

    def ridge(self, z: complex, tau: float = 1.0) -> float:
        """Q - V_tau; zero on Gamma_tau, ~ 2 Lap(Q)(p) ell^2 nearby."""
        return float(self.Q(z)) - self.V(z, tau)

    def project(self, w: complex, tau: float = 1.0):
        """Closest boundary point: returns (BoundaryPoint, ell, theta).

        ell is the signed normal coordinate (positive outside the droplet).
        """
        theta = self._project_theta(w, tau)
        bp = self.boundary_point(theta, tau)
        d = w - bp.p
        ell = d.real * bp.normal.real + d.imag * bp.normal.imag
        return bp, ell, theta

    def _project_theta(self, w: complex, tau: float) -> float:
        # start from the conformal angle: atan2(w) sends Newton to the wrong
        # critical point near the flat sides of an eccentric droplet
        theta = cmath.phase(self.phi(w, tau))
        # Newton on d/dtheta |chi(e^{i theta}) - w|^2 = 0 with a small
        # grid fallback when the initial guess is poor
        for attempt in range(2):
            th = theta
            ok = True
            for _ in range(60):
                omega = cmath.exp(1j * th)
                c = self.chi(omega, tau)
                dc = 1j * omega * self.dchi(omega, tau)
                d2c = -omega * self.dchi(omega, tau) + (1j * omega) ** 2 * self._d2chi(omega, tau)
                g = ((c - w).conjugate() * dc).real
                gp = abs(dc) ** 2 + ((c - w).conjugate() * d2c).real
                if gp == 0:
                    ok = False
                    break
                step = g / gp
                th -= step
                if abs(step) < 1e-14:
                    break
            else:
                ok = False
            if ok:
                return th
            grid = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
            dists = [abs(self.chi(cmath.exp(1j * t), tau) - w) for t in grid]
            theta = float(grid[int(np.argmin(dists))])
        return theta

    def _d2chi(self, omega: complex, tau: float) -> complex:
        h = 1e-6
        return (self.dchi(omega * cmath.exp(1j * h), tau) * 1j * omega * cmath.exp(1j * h)
                - self.dchi(omega, tau) * 1j * omega) / (1j * omega * h)

    def dist_to_exterior(self, z: complex) -> float:
        """Distance from z to the closed exterior set cl(U); 0 outside S."""
        raise NotImplementedError

    def droplet_geometry(self, tau: float = 1.0, m: int = 256) -> DropletGeometry:
        _, _, pts, _ = self.boundary_grid(m, tau)
        return DropletGeometry(
            tau=tau,
            boundary=pts,
            conformal_coeffs=self.chi_laurent(tau),
            mass=droplet_mass(self, tau),
        )


@dataclass(frozen=True)
class RadialProfile:
    """Radial potential profile q(r) with first and second derivatives."""

    q: Callable[[float], float]
    dq: Callable[[float], float]
    d2q: Callable[[float], float]
    name: str = "radial"


class RadialPotential(AdmissiblePotential):
    """Rotation-invariant potential with disc droplets.

    The mass-tau droplet is the disc of radius r_tau solving
    (1/2) r q'(r) = tau; requires r q'(r) strictly increasing (no annuli).
    """

    is_radial = True
    has_parity_symmetry = True

    def __init__(self, profile: RadialProfile, r_bracket=(1e-8, 16.0)):
        self.profile = profile
        self.name = profile.name
        self._bracket = r_bracket
        self._r_cache = {}
        # fail early if the unit-mass droplet cannot be bracketed
        self.r_tau(1.0)

    def r_tau(self, tau: float) -> float:
        self._check_tau(tau)
        hit = self._r_cache.get(tau)
        if hit is not None:
            return hit
        lo, hi = self._bracket
        f = lambda r: 0.5 * r * self.profile.dq(r) - tau
        if f(lo) > 0 or f(hi) < 0:
            raise DomainError(
                f"droplet radius not bracketed in {self._bracket} for tau = {tau}"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo < 1e-15 * max(1.0, hi):
                break
        r = 0.5 * (lo + hi)
        self._r_cache[tau] = r
        return r

    def Q(self, z):
        return self.profile.q(abs(z))

    def laplacian(self, z) -> float:
        r = abs(z)
        if r < 1e-9:
            return 0.5 * self.profile.d2q(1e-9)
        return 0.25 * (self.profile.d2q(r) + self.profile.dq(r) / r)

    def outer_radius(self, tau: float = 1.0) -> float:
        return self.r_tau(tau)

    def phi(self, z, tau=1.0):
        return z / self.r_tau(tau)

    def dphi(self, z, tau=1.0):
        return 1.0 / self.r_tau(tau)

    def sqrt_dphi(self, z, tau=1.0):
        return 1.0 / math.sqrt(self.r_tau(tau))

    def chi(self, omega, tau=1.0):
        return self.r_tau(tau) * omega

    def dchi(self, omega, tau=1.0):
        return complex(self.r_tau(tau))

    def chi_laurent(self, tau=1.0):
        return (self.r_tau(tau), 0.0, 0.0)

    def script_Q(self, z, tau=1.0) -> complex:
        return complex(self.profile.q(self.r_tau(tau)))

    def script_H(self, z, tau=1.0) -> complex:
        r = self.r_tau(tau)
        return complex(0.5 * math.log(self.laplacian(r)))

    def dist_to_exterior(self, z):
        return max(0.0, self.r_tau(1.0) - abs(z))

    def project(self, w, tau=1.0):
        r = self.r_tau(tau)
        if w == 0:
            theta = 0.0
        else:
            theta = math.atan2(w.imag, w.real)
        bp = self.boundary_point(theta, tau)
        return bp, abs(w) - r, theta


class GinibrePotential(RadialPotential):
    """Q = |z|^2: discs of radius sqrt(tau), phi_tau = z/sqrt(tau), QQ = tau, HH = 0."""

    def __init__(self):
        super().__init__(RadialProfile(
            q=lambda r: r * r, dq=lambda r: 2.0 * r, d2q=lambda r: 2.0, name="ginibre"
        ))

    def r_tau(self, tau: float) -> float:
        self._check_tau(tau)
        return math.sqrt(tau)

    def Q(self, z):
        z = np.asarray(z) if isinstance(z, np.ndarray) else z
        if isinstance(z, np.ndarray):
            return np.abs(z) ** 2
        return abs(z) ** 2

    def laplacian(self, z) -> float:
        return 1.0

    def script_Q(self, z, tau=1.0) -> complex:
        return complex(tau)

    def script_H(self, z, tau=1.0) -> complex:
        return 0j


class EllipticGinibrePotential(AdmissiblePotential):
    """Q = a u^2 + b v^2 with elliptic droplets and Joukowski exterior maps."""

    has_parity_symmetry = True

    def __init__(self, a: float, b: float):
        if a <= 0 or b <= 0:
            raise DomainError("elliptic potential needs a > 0 and b > 0")
        self.a = float(a)
        self.b = float(b)
        self.alpha = 0.5 * (a + b)   # Lap(Q), constant
        self.beta = 0.5 * (a - b)
        if self.alpha <= abs(self.beta):
            raise DomainError("degenerate quadratic form: droplet is not an ellipse")
        # unit-mass semi-axes from alpha p q = 1, p/q = b/a
        self.p1 = math.sqrt(self.b / (self.a * self.alpha))
        self.q1 = math.sqrt(self.a / (self.b * self.alpha))
        self.name = f"elliptic(a={a:g},b={b:g})"
        self._ext_cache = {}

    def semi_axes(self, tau: float = 1.0):
        self._check_tau(tau)
        s = math.sqrt(tau)
        return self.p1 * s, self.q1 * s

    def _joukowski(self, tau: float):
        p, q = self.semi_axes(tau)
        return 0.5 * (p + q), 0.5 * (p - q), p * p - q * q  # (A, B, c^2)

    def Q(self, z):
        if isinstance(z, np.ndarray):
            return self.a * z.real ** 2 + self.b * z.imag ** 2
        z = complex(z)
        try:
            return self.a * z.real ** 2 + self.b * z.imag ** 2
        except OverflowError as exc:
            raise DomainError(f"Q overflows float64 at z = {z}") from exc

    def laplacian(self, z) -> float:
        return self.alpha

    def outer_radius(self, tau: float = 1.0) -> float:
        return max(self.semi_axes(tau))

    @staticmethod
    def _branch_sqrt(z: complex, c2: float) -> complex:
        """sqrt(z^2 - c^2) with the branch ~ z at infinity (cut on the focal segment)."""
        if z == 0:
            return 1j * math.sqrt(c2) if c2 > 0 else complex(math.sqrt(-c2))
        return z * cmath.sqrt(1.0 - c2 / (z * z))

    def phi(self, z, tau=1.0):
        A, B, c2 = self._joukowski(tau)
        s = self._branch_sqrt(complex(z), c2)
        return (z + s) / (2.0 * A)

    def dphi(self, z, tau=1.0):
        A, B, c2 = self._joukowski(tau)
        s = self._branch_sqrt(complex(z), c2)
        return self.phi(z, tau) / s

    def sqrt_dphi(self, z, tau=1.0):
        # phi' = (1 + z/s)/(2A) has strictly positive real part off the focal
        # cut, so the principal square root is the continuous branch that is
        # positive at infinity
        A, B, c2 = self._joukowski(tau)
        s = self._branch_sqrt(complex(z), c2)
        return cmath.sqrt((1.0 + z / s) / (2.0 * A))

    def chi(self, omega, tau=1.0):
        A, B, _ = self._joukowski(tau)
        return A * omega + B / omega

    def dchi(self, omega, tau=1.0):
        A, B, _ = self._joukowski(tau)
        return A - B / (omega * omega)

    def chi_laurent(self, tau=1.0):
        A, B, _ = self._joukowski(tau)
        return (A, 0.0, B)

    def rho0_effective(self, tau: float = 1.0) -> float:
        A, B, _ = self._joukowski(tau)
        univalent = math.sqrt(B / A) if B > 0 else 0.0
        return max(self.rho0, univalent + 1e-9)

    def _extension(self, which: str, tau: float) -> HarmonicExtension:
        key = (which, tau)
        hit = self._ext_cache.get(key)
        if hit is None:
            if which == "Q":
                hit = harmonic_extension(self, tau, lambda p: self.Q(p))
            else:
                hit = harmonic_extension(
                    self, tau, lambda p: 0.5 * math.log(self.laplacian(p))
                )
            if len(self._ext_cache) > 4096:
                self._ext_cache.clear()
            self._ext_cache[key] = hit
        return hit

    def script_Q(self, z, tau=1.0) -> complex:
        self._check_tau(tau)
        return self._extension("Q", tau)(z)

    def script_H(self, z, tau=1.0) -> complex:
        # Lap(Q) is constant, so HH_tau is the constant log sqrt(alpha)
        return complex(0.5 * math.log(self.alpha))

    def dist_to_exterior(self, z):
        z = complex(z)
        p, q = self.semi_axes(1.0)
        if math.hypot(z.real / p, z.imag / q) >= 1.0:
            return 0.0
        _, ell, _ = self.project(z, 1.0)
        return abs(ell)


def make_ginibre() -> GinibrePotential:
    return GinibrePotential()


def make_radial(profile: RadialProfile) -> RadialPotential:
    return RadialPotential(profile)


def make_elliptic_ginibre(a: float, b: float) -> EllipticGinibrePotential:
    return EllipticGinibrePotential(a, b)


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------


def V_tau(pot: AdmissiblePotential, tau: float, z: complex) -> float:
    return pot.V(z, tau)


def ridge(pot: AdmissiblePotential, tau: float, z: complex) -> float:
    return pot.ridge(z, tau)


def boundary_speed(pot: AdmissiblePotential, tau: float, p: complex) -> float:
    """Normal velocity |phi_tau'(p)| / (2 Lap Q(p)) of the growing boundary."""
    return abs(pot.dphi(p, tau)) / (2.0 * pot.laplacian(p))


def boundary_speed_fd(pot: AdmissiblePotential, tau: float, p: complex,
                      dtau: float = 1e-3) -> float:
    """Centered finite-difference estimate of the boundary speed at p."""
    _, ell_plus, _ = pot.project(p, tau + dtau)
    _, ell_minus, _ = pot.project(p, tau - dtau)
    return (ell_minus - ell_plus) / (2.0 * dtau)


def ridge_between(pot: AdmissiblePotential, tau: float, tau2: float, z: complex):
    """(exact ridge (Q - V_tau)(z), quadratic prediction) for z on Gamma_tau2."""
    exact = pot.ridge(z, tau)
    bp, _, _ = pot.project(z, tau)
    pred = abs(pot.dphi(bp.p, tau)) ** 2 / (2.0 * pot.laplacian(bp.p)) * (tau2 - tau) ** 2
    return exact, pred


def droplet_mass(pot: AdmissiblePotential, tau: float, nr: int = 160, nt: int = 256) -> float:
    """Quadrature of Lap(Q) over S_tau; equals tau for admissible data."""
    if pot.is_radial:
        r = pot.r_tau(tau)
        rule = gauss_on_interval(max(nr, 64), 0.0, r)
        vals = np.array([pot.laplacian(s) * s for s in rule.nodes])
        return 2.0 * float(rule.integrate(vals))
    if isinstance(pot, EllipticGinibrePotential):
        p, q = pot.semi_axes(tau)
        r_rule = gauss_on_interval(nr, 0.0, 1.0)
        t_rule = quad_trapezoid_periodic(nt)
        acc = 0.0
        for rr, wr in zip(r_rule.nodes, r_rule.weights):
            zs = p * rr * np.cos(t_rule.nodes) + 1j * q * rr * np.sin(t_rule.nodes)
            lap = np.array([pot.laplacian(zz) for zz in zs])
            acc += wr * rr * float(np.sum(t_rule.weights * lap))
        return acc * p * q / math.pi
    raise NotImplementedError("mass quadrature implemented for the built-in families")


def equilibrium_log_potential(pot: AdmissiblePotential, tau: float, z: complex,
                              m: int = 512) -> float:
    """U(z) = integral of log|z - w| d sigma_tau(w), by an independent route.

    Radial case: the circular average of log|z - s e^{i phi}| is
    log max(|z|, s), reducing U to a 1-D integral.  Elliptic case: polar
    coordinates centered at z; the radial integral of r log r against the
    constant density has a closed form in the ray exit radius R(theta),
    leaving a smooth periodic theta-integral.
    """
    z = complex(z)
    if pot.is_radial:
        r_outer = pot.r_tau(tau)
        a = min(abs(z), r_outer)

        def dens(s):
            return 2.0 * pot.laplacian(s) * s

        acc = 0.0
        if a > 0:
            rule = gauss_on_interval(200, 0.0, a)
            acc += math.log(abs(z)) * float(
                rule.integrate(np.array([dens(s) for s in rule.nodes]))
            )
        if r_outer > a:
            rule = gauss_on_interval(200, a, r_outer)
            acc += float(rule.integrate(
                np.array([dens(s) * math.log(s) for s in rule.nodes])
            ))
        return acc
    if isinstance(pot, EllipticGinibrePotential):
        p, q = pot.semi_axes(tau)
        if (z.real / p) ** 2 + (z.imag / q) ** 2 >= 1.0 - 1e-12:
            raise DomainError("ray-quadrature oracle requires z strictly inside the droplet")
        t_rule = quad_trapezoid_periodic(m)
        ct = np.cos(t_rule.nodes)
        st = np.sin(t_rule.nodes)
        A = ct ** 2 / p ** 2 + st ** 2 / q ** 2
        B = 2.0 * (z.real * ct / p ** 2 + z.imag * st / q ** 2)
        C = z.real ** 2 / p ** 2 + z.imag ** 2 / q ** 2 - 1.0
        R = (-B + np.sqrt(B * B - 4.0 * A * C)) / (2.0 * A)
        radial = R * R * (2.0 * np.log(R) - 1.0) / 4.0
        return pot.alpha / math.pi * float(t_rule.integrate(radial))
    raise NotImplementedError("equilibrium oracle implemented for the built-in families")


def variational_residual(pot: AdmissiblePotential, tau: float = 1.0,
                         n_radial: int = 5, n_angular: int = 12) -> float:
    """Spread of Q - 2 U_sigma over the droplet interior.

    The equilibrium measure makes this quantity constant on its support;
    the returned max-min spread is the oracle residual.
    """
    vals = []
    if pot.is_radial:
        r = pot.r_tau(tau)
        for rr in np.linspace(0.05, 0.85, n_radial):
            z = complex(rr * r, 0.0)
            vals.append(float(pot.Q(z)) - 2.0 * equilibrium_log_potential(pot, tau, z))
    else:
        p, q = pot.semi_axes(tau)
        for rr in np.linspace(0.1, 0.85, n_radial):
            for th in np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False):
                z = complex(p * rr * math.cos(th), q * rr * math.sin(th))
                vals.append(float(pot.Q(z)) - 2.0 * equilibrium_log_potential(pot, tau, z))
    return float(np.max(vals) - np.min(vals))
