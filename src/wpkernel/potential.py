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

The mass and equilibrium-potential oracles are trapezoid integrals over
Gamma_tau = chi_tau(|omega| = 1) that read only Q, grad Q and chi_tau; the
log potential reads |phi_tau| at its points only to size its rule.

`exterior(z, tau)` returns (phi, dphi, sqrt_dphi, QQ, HH) from one
derivation of the tau data (Joukowski root, or r_tau); `phi` alone serves
the callers that read no other exterior data (`dist_to_exterior`,
`project`), which also run inside the droplet and at the foci.
Both, and r_tau, accept arrays of points and of tau, and their values
broadcast against both (a value constant in them may come back as a
scalar): one call gives a tail kernel all its degrees at once.  V_tau and
the ridge accept arrays of points.

The built-in families have closed-form QQ_tau (a constant for the radial
family, c_0 + c_2 phi_tau^{-2} for the elliptic one).  harmonic_extension is
the generic solver and the test oracle of those forms: it extends Dirichlet
data on analytic boundaries by circle pullback and FFT; coefficients decay
geometrically, so truncation at 1e-13 gives spectral accuracy with a few
hundred nodes.
"""

from __future__ import annotations

import cmath
import collections
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResolutionError, ToleranceError, check_finite, check_scale, extent
from .ginibre_exact import ginibre_kernel_exact
from .scaled_numerics import (LogComplex, _all, _as_complex, _elementwise, _where,
                              quad_trapezoid_periodic)


@dataclass(frozen=True)
class BoundaryPoint:
    p: complex
    normal: complex  # unit, pointing out of the droplet
    tau: float


# exterior data of S_tau at z: phi_tau, phi_tau', its branch of sqrt
# positive at infinity, QQ_tau and HH_tau
Exterior = collections.namedtuple("Exterior", "phi dphi sqrt_dphi QQ HH")


class HarmonicExtension:
    """Holomorphic G on the exterior with Re G = f on Gamma_tau, Im G(inf) = 0.

    G(z) = c_0 + 2 sum_{k>=1} c_{-k} phi_tau(z)^{-k}, with c_{-k} the
    discrete Fourier coefficients of the pulled-back boundary data;
    elementwise over an array of z.
    """

    def __init__(self, pot, tau, c0, cneg):
        self.pot = pot
        self.tau = tau
        self.c0 = c0
        self.cneg = cneg  # cneg[k-1] = c_{-k}

    def __call__(self, z):
        w_inv = 1.0 / self.pot.phi(z, self.tau)
        acc = 0j
        power = 1.0 + 0j
        for ck in self.cneg:
            power *= w_inv
            acc += ck * power
        return self.c0 + 2.0 * acc


def harmonic_extension(pot, tau: float, f: Callable[[np.ndarray], np.ndarray],
                       nodes: int = 512) -> HarmonicExtension:
    """Solve the exterior Dirichlet problem spectrally; f takes the node array in one call."""
    _, boundary, _, _ = pot.boundary_grid(nodes, tau)
    vals = np.asarray(f(boundary), dtype=float) * np.ones(nodes)
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
        if abs(c) >= 1e-13 * scale:
            keep = k
    return HarmonicExtension(pot, tau, c0, tuple(cneg[:keep]))


class AdmissiblePotential:
    """Base class; subclasses provide the conformal family and local data."""

    name = "abstract"
    tau_floor = 1e-3    # hard floor below which tau-data is refused
    tau_ceiling = 1.05  # headroom above 1 for finite-difference probes in tau
    rho0 = 0.5          # excluded compact is {|phi_tau| <= rho0}
    delta_M = 1.0       # constant M in the belt width delta_n
    # Q(e^{2 pi i / k} z) = Q(z) for k = rotation_order, so the monomial
    # moments vanish unless k divides j - m (residue blocks of the Gram matrix)
    rotation_order = 1

    # --- subclass interface -------------------------------------------------
    def Q(self, z):
        raise NotImplementedError

    def grad_Q(self, z):
        """Q_x + i Q_y; accepts arrays."""
        raise NotImplementedError

    def laplacian(self, z):
        """Lap Q = d dbar Q; accepts arrays (a constant may come back as a scalar)."""
        raise NotImplementedError

    def outer_radius(self, tau: float = 1.0) -> float:
        raise NotImplementedError

    def phi(self, z: complex, tau: float = 1.0) -> complex:
        """Exterior map of S_tau onto |w| > 1, continued inside; accepts arrays of z and tau."""
        raise NotImplementedError

    def exterior(self, z: complex, tau: float = 1.0) -> Exterior:
        """(phi, dphi, sqrt_dphi, QQ, HH) of S_tau at z, phi as `phi` gives it; accepts arrays."""
        raise NotImplementedError

    def chi(self, omega: complex, tau: float = 1.0) -> complex:
        """Exterior map of the unit disc onto the exterior of S_tau; accepts arrays."""
        raise NotImplementedError

    def dchi(self, omega: complex, tau: float = 1.0) -> complex:
        """chi_tau'(omega); accepts arrays."""
        raise NotImplementedError

    def d2chi(self, omega: complex, tau: float = 1.0) -> complex:
        raise NotImplementedError

    def chi_laurent(self, tau: float = 1.0) -> tuple:
        raise NotImplementedError

    # --- shared derived operations -------------------------------------------
    def exact_kernel(self, n: int) -> Callable[[complex, complex], LogComplex]:
        """(z, w) -> K_n(z, w) in log-polar form, from the float64 Gram basis of degree n - 1."""
        from .ortho_oracle import compute_moments, kernel_oracle, orthonormalize

        return functools.partial(kernel_oracle, orthonormalize(compute_moments(self, n, n - 1)))

    def exact_source(self, n: int):
        """Berezin source of K_n for the loop equation: the Gram basis of degree n - 1."""
        from .ortho_oracle import compute_moments, orthonormalize
        from .ward import OracleSource

        return OracleSource(orthonormalize(compute_moments(self, n, n - 1)), self)

    def _check_tau(self, tau):
        """DomainError unless tau, or every entry of a tau array, lies in the range (NaN fails)."""
        if not _all((self.tau_floor <= tau) & (tau <= self.tau_ceiling)):
            raise DomainError(
                f"tau = {tau} outside supported range [{self.tau_floor}, {self.tau_ceiling}]"
            )

    def rho0_effective(self, tau: float = 1.0) -> float:
        return self.rho0

    def boundary_point(self, theta: float, tau: float = 1.0) -> BoundaryPoint:
        check_finite(theta)
        omega = cmath.exp(1j * theta)
        p = self.chi(omega, tau)
        dchi = self.dchi(omega, tau)
        normal = omega * dchi / abs(dchi)
        return BoundaryPoint(p=p, normal=normal, tau=tau)

    def boundary_grid(self, m: int, tau: float = 1.0):
        """The m-node trapezoid rule on Gamma_tau = chi_tau(|omega| = 1).

        Returns (weights, points, |chi'|, omega chi'(omega)): |dp| = |chi'| dtheta
        for the Hardy integrals, and the outward normal scaled by |chi'| for
        the flux and Green integrals.
        """
        rule = quad_trapezoid_periodic(m)
        omega = np.exp(1j * rule.nodes)
        # a constant chi' (a disc) comes back as a scalar: one entry per node
        dchi = self.dchi(omega, tau) * np.ones(m)
        return rule.weights, self.chi(omega, tau), np.abs(dchi), omega * dchi

    def V(self, z: complex, tau: float = 1.0) -> float:
        """V_tau = Re QQ_tau + tau log |phi_tau|^2 outside the excluded compact;
        elementwise for an array z."""
        self._check_tau(tau)
        check_scale(extent(z))
        e = self.exterior(z, tau)
        mod = abs(e.phi)
        if not _all(mod > self.rho0_effective(tau)):
            raise DomainError(f"|phi_tau| = {np.min(mod):.4f} at z = {z} is not above rho0; "
                              "point is too deep inside the droplet")
        return e.QQ.real + tau * 2.0 * _elementwise(mod, math.log, np.log)

    def ridge(self, z: complex, tau: float = 1.0) -> float:
        """Q - V_tau; zero on Gamma_tau, ~ 2 Lap(Q)(p) ell^2 nearby; elementwise for an array z."""
        v = self.V(z, tau)  # checks z before Q forms |z|^2
        return self.Q(z) - v

    def project(self, w: complex, tau: float = 1.0):
        """Closest boundary point: returns (BoundaryPoint, ell, theta).

        ell is the signed normal coordinate (positive outside the droplet).
        """
        check_scale(extent(w))
        theta = self._project_theta(w, tau)
        bp = self.boundary_point(theta, tau)
        d = w - bp.p
        ell = d.real * bp.normal.real + d.imag * bp.normal.imag
        return bp, ell, theta

    def _project_theta(self, w: complex, tau: float) -> float:
        # start from the conformal angle: atan2(w) sends Newton to the wrong
        # critical point near the flat sides of an eccentric droplet
        phi = self.phi(w, tau)
        theta = math.atan2(phi.imag, phi.real)
        # Newton on d/dtheta |chi(e^{i theta}) - w|^2 = 0 with a small
        # grid fallback when the initial guess is poor
        for attempt in range(2):
            th = theta
            ok = True
            for _ in range(60):
                omega = cmath.exp(1j * th)
                c = self.chi(omega, tau)
                dc = 1j * omega * self.dchi(omega, tau)
                d2c = -omega * self.dchi(omega, tau) + (1j * omega) ** 2 * self.d2chi(omega, tau)
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
            _, pts, _, _ = self.boundary_grid(256, tau)
            theta = 2.0 * math.pi * int(np.argmin(np.abs(pts - w))) / 256
        return theta

    def dist_to_exterior(self, z: complex) -> float:
        """Distance from z to the closed exterior set cl(U); 0 outside S.
        DomainError where phi(z) is not finite or overflows |phi|."""
        phi = self.phi(z, 1.0)
        check_scale(extent(phi))
        if abs(phi) >= 1.0:
            return 0.0
        _, ell, _ = self.project(complex(z), 1.0)
        return abs(ell)


@dataclass(frozen=True)
class RadialProfile:
    """Radial potential profile q(r) with first and second derivatives."""

    q: Callable[[float], float]
    dq: Callable[[float], float]
    d2q: Callable[[float], float]
    name: str = "radial"


# the radial test profiles: q = r^4/2 (non-constant Lap Q) and q = r^2 (Ginibre as a profile)
RADIAL_PROFILES = {
    "quartic": RadialProfile(q=lambda r: 0.5 * r ** 4, dq=lambda r: 2.0 * r ** 3,
                             d2q=lambda r: 6.0 * r ** 2, name="quartic"),
    "quadratic": RadialProfile(q=lambda r: r * r, dq=lambda r: 2.0 * r,
                               d2q=lambda r: 2.0, name="quadratic"),
}


class RadialPotential(AdmissiblePotential):
    """Rotation-invariant potential with disc droplets.

    The mass-tau droplet is the disc of radius r_tau solving
    (1/2) r q'(r) = tau; requires r q'(r) strictly increasing (no annuli).
    """

    rotation_order = math.inf

    def __init__(self, profile: RadialProfile):
        self.profile = profile
        self.name = profile.name
        # scalar calls come back to a few tau values (tau = 1 above all)
        self._r_cache = functools.lru_cache(maxsize=256)(self._solve_r_tau)
        # tail kernels at one n ask for the same tau array call after call:
        # the last tau array and its radii, solved in one bisection, serve the
        # next call without a second solve
        self._r_last = (np.empty(0), np.empty(0))
        # fail early if the unit-mass droplet cannot be bracketed
        self.r_tau(1.0)

    def r_tau(self, tau):
        """Droplet radius r_tau; elementwise for a tau array."""
        self._check_tau(tau)
        if not isinstance(tau, np.ndarray):
            return self._r_cache(tau)
        last_tau, r = self._r_last
        if not np.array_equal(tau, last_tau):
            r = self._solve_r_tau(tau)
            r.setflags(write=False)
            self._r_last = (tau.copy(), r)
        return r

    def _solve_r_tau(self, tau):
        """Bisection for (1/2) r q'(r) = tau, elementwise over a tau array.

        Every entry starts from the same bracket; the loop ends once every
        entry meets the tolerance, and entries that meet it earlier keep
        narrowing until then.
        """
        lo, hi = 1e-8, 16.0
        f = lambda r: 0.5 * r * self.profile.dq(r) - tau
        if np.any(f(lo) > 0) or np.any(f(hi) < 0):
            raise DomainError(
                f"droplet radius not bracketed in {(lo, hi)} for tau = {tau}"
            )
        if isinstance(tau, np.ndarray):
            lo, hi = np.full(tau.shape, lo), np.full(tau.shape, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            above = f(mid) > 0
            hi = _where(above, mid, hi)
            lo = _where(above, lo, mid)
            if _all(hi - lo < 1e-15 * _where(hi > 1.0, hi, 1.0)):
                break
        return 0.5 * (lo + hi)

    def Q(self, z):
        try:
            return self.profile.q(abs(z))
        except OverflowError as exc:
            raise DomainError(f"Q overflows float64 at z = {z}") from exc

    def grad_Q(self, z):
        r = np.abs(z)
        return self.profile.dq(r) * z / np.where(r > 0, r, 1.0)

    def laplacian(self, z):
        """Lap Q; elementwise for an array z (dq(r)/r -> d2q(0) as r -> 0)."""
        r = abs(z)
        small = r < 1e-9
        r = _where(small, 1e-9, r)
        return _where(small, 0.5 * self.profile.d2q(1e-9),
                      0.25 * (self.profile.d2q(r) + self.profile.dq(r) / r))

    def outer_radius(self, tau: float = 1.0) -> float:
        return self.r_tau(tau)

    def phi(self, z, tau=1.0):
        return z / self.r_tau(tau)

    def exterior(self, z, tau=1.0):
        # Lap Q on |z| = r_tau; r_tau is above the bracket floor 1e-8, clear
        # of the small-r guard of `laplacian`
        r = self.r_tau(tau)
        return Exterior(z / r, 1.0 / r, 1.0 / _elementwise(r, math.sqrt, np.sqrt),
                        self.profile.q(r) + 0j,
                        0.5 * _elementwise(self.laplacian(r), math.log, np.log) + 0j)

    def chi(self, omega, tau=1.0):
        return self.r_tau(tau) * omega

    def dchi(self, omega, tau=1.0):
        return self.r_tau(tau) + 0j

    def chi_laurent(self, tau=1.0):
        return (self.r_tau(tau), 0.0, 0.0)

    def project(self, w, tau=1.0):
        check_scale(extent(w))
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

    def r_tau(self, tau):
        self._check_tau(tau)
        return _elementwise(tau, math.sqrt, np.sqrt)

    def Q(self, z):
        if isinstance(z, np.ndarray):
            return np.abs(z) ** 2
        try:
            return abs(z) ** 2
        except OverflowError as exc:
            raise DomainError(f"Q overflows float64 at z = {z}") from exc

    def laplacian(self, z) -> float:
        return 1.0

    def exterior(self, z, tau=1.0):
        r = self.r_tau(tau)
        return Exterior(z / r, 1.0 / r, 1.0 / _elementwise(r, math.sqrt, np.sqrt), tau + 0j, 0j)

    def exact_kernel(self, n: int) -> Callable[[complex, complex], LogComplex]:
        """(z, w) -> K_n(z, w) from the partial exponential sums."""
        return lambda z, w: ginibre_kernel_exact(n, z, w).value

    def exact_source(self, n: int):
        """Berezin source of K_n from the partial exponential sums."""
        from .ward import GinibreSource

        return GinibreSource(n)


class EllipticGinibrePotential(AdmissiblePotential):
    """Q = a u^2 + b v^2 with elliptic droplets and Joukowski exterior maps."""

    rotation_order = 2

    def __init__(self, a: float, b: float):
        check_finite(a, b)
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

    def semi_axes(self, tau=1.0):
        """(p, q) of S_tau; elementwise for a tau array."""
        self._check_tau(tau)
        s = _elementwise(tau, math.sqrt, np.sqrt)
        return self.p1 * s, self.q1 * s

    def _joukowski(self, tau):
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

    def grad_Q(self, z):
        return 2.0 * (self.a * z.real + 1j * self.b * z.imag)

    def laplacian(self, z) -> float:
        return self.alpha

    def outer_radius(self, tau: float = 1.0) -> float:
        return max(self.semi_axes(tau))

    @staticmethod
    def _branch_sqrt(z, c2):
        """sqrt(z^2 - c^2) with the branch ~ z at infinity (cut on the focal segment).

        Elementwise; at z = 0 it is i c for c^2 > 0 and sqrt(-c^2) otherwise.
        """
        nonzero = z != 0
        safe = _where(nonzero, z, 1.0 + 0j)  # keeps z = 0 out of the division
        s = safe * _elementwise(1.0 - c2 / (safe * safe), cmath.sqrt, np.sqrt)
        if _all(nonzero):
            return s
        at_zero = _where(c2 > 0, 1j, 1.0) * _elementwise(abs(c2), math.sqrt, np.sqrt)
        return _where(nonzero, s, at_zero)

    def _root(self, z, tau):
        """(z, sqrt(z^2 - c_tau^2), A_tau, B_tau): the tau data phi_tau and its exterior data share."""
        A, B, c2 = self._joukowski(tau)
        z = _as_complex(z)
        return z, self._branch_sqrt(z, c2), A, B

    def phi(self, z, tau=1.0):
        z, s, A, _ = self._root(z, tau)
        return (z + s) / (2.0 * A)

    def exterior(self, z, tau=1.0):
        z, s, A, B = self._root(z, tau)
        if not _all(s != 0):
            raise DomainError("phi_tau' is infinite at the foci of the ellipse")
        phi = (z + s) / (2.0 * A)
        # Q(chi_tau(omega)) = c0 + c2 Re omega^2 on |omega| = 1, so
        # QQ_tau = c0 + c2 phi_tau^{-2}, real at infinity
        c0 = self.alpha * (A * A + B * B) + 2.0 * self.beta * A * B
        c2 = 2.0 * self.alpha * A * B + self.beta * (A * A + B * B)
        # phi' = (1 + z/s)/(2A) has strictly positive real part off the focal
        # cut, so the principal square root is the continuous branch that is
        # positive at infinity; Lap(Q) is constant, so HH_tau is log sqrt(alpha)
        return Exterior(phi, phi / s, _elementwise((1.0 + z / s) / (2.0 * A), cmath.sqrt, np.sqrt),
                        c0 + c2 / (phi * phi), complex(0.5 * math.log(self.alpha)))

    def chi(self, omega, tau=1.0):
        A, B, _ = self._joukowski(tau)
        return A * omega + B / omega

    def dchi(self, omega, tau=1.0):
        A, B, _ = self._joukowski(tau)
        return A - B / (omega * omega)

    def d2chi(self, omega, tau=1.0):
        A, B, _ = self._joukowski(tau)
        return 2.0 * B / omega ** 3

    def chi_laurent(self, tau=1.0):
        A, B, _ = self._joukowski(tau)
        return (A, 0.0, B)

    def rho0_effective(self, tau: float = 1.0) -> float:
        A, B, _ = self._joukowski(tau)
        univalent = math.sqrt(B / A) if B > 0 else 0.0
        return max(self.rho0, univalent + 1e-9)

    def exact_kernel(self, n: int) -> Callable[[complex, complex], LogComplex]:
        """(z, w) -> K_n(z, w) from the scaled Hermite basis."""
        from .ortho_oracle import elliptic_kernel_exact

        return functools.partial(elliptic_kernel_exact, self, n)


def make_ginibre() -> GinibrePotential:
    return GinibrePotential()


def make_radial(profile: RadialProfile) -> RadialPotential:
    return RadialPotential(profile)


def make_elliptic_ginibre(a: float, b: float) -> EllipticGinibrePotential:
    return EllipticGinibrePotential(a, b)


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------


def boundary_speed(pot: AdmissiblePotential, tau: float, p: complex) -> float:
    """Normal velocity |phi_tau'(p)| / (2 Lap Q(p)) of the growing boundary."""
    check_scale(extent(p))
    return abs(pot.exterior(p, tau).dphi) / (2.0 * pot.laplacian(p))


def boundary_speed_fd(pot: AdmissiblePotential, tau: float, p: complex) -> float:
    """Centered finite-difference estimate of the boundary speed at p, step 1e-3 in tau."""
    _, ell_plus, _ = pot.project(p, tau + 1e-3)
    _, ell_minus, _ = pot.project(p, tau - 1e-3)
    return (ell_minus - ell_plus) / 2e-3


def droplet_mass(pot: AdmissiblePotential, tau: float) -> float:
    """Lap(Q) integrated over S_tau; equals tau for admissible data.

    By the divergence theorem it is the flux of grad Q through Gamma_tau over
    4 pi (Lap = d dbar, dA = dx dy / pi).
    """
    weights, w, _, normal = pot.boundary_grid(256, tau)
    flux = (np.conj(pot.grad_Q(w)) * normal).real
    return float(weights @ flux) / (4.0 * math.pi)


_GREEN_NODE_CAP = 1 << 14


def _green_log_potential(pot: AdmissiblePotential, tau: float, zs: np.ndarray) -> np.ndarray:
    """Q/2 plus the Green boundary integral at the interior points zs.

    The trapezoid error at z decays like |phi_tau(z)|^m; m puts it below
    1e-17 at every point, with at least the 256 nodes that droplet_mass
    takes for the same flux data.
    """
    rho = float(np.max(np.abs(pot.phi(zs, tau))))
    if not rho < 1.0 - 1e-12:
        raise DomainError("the boundary-integral oracle requires z strictly inside the droplet")
    m = max(256, math.ceil(math.log(1e-17) / math.log(rho))) if rho > 0.0 else 256
    if m > _GREEN_NODE_CAP:
        raise ResolutionError(f"|phi_tau(z)| = {rho:.6f} needs {m} boundary nodes, "
                              f"above the cap of {_GREEN_NODE_CAP}")
    weights, w, _, normal = pot.boundary_grid(m, tau)
    d = w[None, :] - zs[:, None]
    terms = (np.log(np.abs(d)) * (np.conj(pot.grad_Q(w)) * normal).real
             - pot.Q(w) * (normal / d).real)
    return 0.5 * pot.Q(zs) + (terms @ weights) / (4.0 * math.pi)


def equilibrium_log_potential(pot: AdmissiblePotential, tau: float, z: complex) -> float:
    """U(z) = integral of log|z - w| d sigma_tau(w) for z strictly inside S_tau.

    Green's second identity for Q and log|z - .| on S_tau gives

        U(z) = Q(z)/2 + (1/4pi) oint (log|z - w| d_n Q - Q d_n log|z - w|) ds,

    an integral over Gamma_tau that never reads the droplet's interior.  A
    point too close to Gamma_tau for 2^14 trapezoid nodes raises
    ResolutionError.
    """
    check_scale(extent(z))
    return float(_green_log_potential(pot, tau, np.array([complex(z)]))[0])


def variational_residual(pot: AdmissiblePotential, tau: float = 1.0) -> float:
    """Spread of Q - 2 U_sigma over the interior points s chi_tau(e^{i theta}).

    The points are five scalings s in [0.1, 0.85] of the 12 nodes of the
    boundary rule.  The equilibrium measure makes this quantity constant on
    its support; the returned max-min spread is the oracle residual.  The
    Green rule is sized for the outermost sample point.
    """
    _, ring, _, _ = pot.boundary_grid(12, tau)
    zs = np.outer(np.linspace(0.1, 0.85, 5), ring).ravel()
    return float(np.ptp(pot.Q(zs) - 2.0 * _green_log_potential(pot, tau, zs)))
