"""Szego-type kernel asymptotics for admissible potentials.

The reproducing kernel of the weighted polynomial space obeys, for z, w in
a shrinking neighbourhood of the closed exterior domain and
|phi(z) conj(phi(w)) - 1| >= eta,

    K_n(z,w) ~= sqrt(2 pi n)
                * e^{(n/2)(QQ(z) + conj(QQ(w))) - (n/2)(Q(z) + Q(w))}
                * e^{(1/2)(HH(z) + conj(HH(w)))}
                * (phi(z) conj(phi(w)))^n * S(z, w),

with S the exterior Szego kernel.  On the boundary the unimodular cocycle
c_n(z,w) carries all the oscillation and the modulus is
sqrt(2 pi n) LapQ(z)^{1/4} LapQ(w)^{1/4} |S(z,w)|.

The same data yields the quasipolynomials

    W#_{j,n}(z) = (n/2pi)^{1/4} e^{HH_t(z)/2} sqrt(phi_t'(z)) phi_t(z)^j
                  e^{(n/2) QQ_t(z)} e^{-(n/2) Q(z)},      t = j/n,

which approximate the weighted orthonormal polynomials for degrees near n;
summing their products over j >= n theta_n gives the tail kernel, a faithful
stand-in for the full kernel near the exterior.  The Gaussian belt density
for the Berezin measure and the decay diagnostics for low degrees complete
the desk-scale checks of this regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BeltError, DomainError, RegimeError, check_finite, check_index, check_n,
                     check_positive, check_scale, extent)
from .hardy import harmonic_measure_density, szego_kernel
from .ortho_oracle import _ginibre_enveloped_log_w
from .potential import AdmissiblePotential, GinibrePotential
from .scaled_numerics import LogComplex, _norm_arg, lc_sum_scaled_parts


@dataclass(frozen=True)
class SequenceCuts:
    """Degree and belt cutoffs used by the tail-kernel machinery."""

    n: int
    theta_n: float  # tail starts at degree n * theta_n
    delta_n: float  # belt half-width M sqrt(log log n / n)
    eps_n: float    # log n / sqrt(n)


def sequence_cuts(n: int, M: float = 1.0) -> SequenceCuts:
    check_positive(M, "belt constant M")
    check_index(n, "particle count n", 3)  # log log n must be positive
    log_n = math.log(n)
    return SequenceCuts(
        n=n,
        theta_n=1.0 - log_n / math.sqrt(n),
        delta_n=M * math.sqrt(math.log(log_n) / n),
        eps_n=log_n / math.sqrt(n),
    )


@dataclass(frozen=True)
class KernelAsymptotic:
    n: int
    z: complex
    w: complex
    value: LogComplex


def _require_belt(pot: AdmissiblePotential, cuts: SequenceCuts, **points: complex):
    for label, z in points.items():
        d = pot.dist_to_exterior(z)
        if d > cuts.delta_n:
            raise RegimeError(f"{label} = {z} lies {d:.4f} inside the droplet; "
                              f"belt width is {cuts.delta_n:.4f}")


def kernel_asymptotic(pot: AdmissiblePotential, n: int, z: complex, w: complex,
                      eta: float = 0.05) -> KernelAsymptotic:
    """Leading Szego-type approximation of K_n(z, w) in log-polar form.

    S(z, w) is the closed form of `szego_kernel` continued across the
    boundary.  Inside the droplet the kernel also carries the bulk term, of
    modulus n LapQ e^{-n LapQ |z - w|^2 / 2} (exact for quadratic Q), so a
    pair with a point inside is answered only where the exterior term is
    the larger; elsewhere RegimeError.
    """
    check_n(n)
    check_positive(eta, "saddle distance eta")
    z = complex(z)
    w = complex(w)
    check_scale(extent(z) + extent(w))
    cuts = sequence_cuts(n, pot.delta_M)
    ez, ew = pot.exterior(z, 1.0), pot.exterior(w, 1.0)
    check_scale(extent(ez.phi) + extent(ew.phi))
    # a point with |phi| >= 1 is in cl(U), at distance 0: only the others are measured
    _require_belt(pot, cuts, **{label: p for label, p, e in (("z", z, ez), ("w", w, ew))
                                if abs(e.phi) < 1.0})
    prod = ez.phi * ew.phi.conjugate()
    if abs(prod - 1.0) < eta:
        raise RegimeError(
            f"|phi(z) conj(phi(w)) - 1| = {abs(prod - 1.0):.4f} < eta = {eta}"
        )
    expo = (
        0.5 * n * (ez.QQ + ew.QQ.conjugate())
        - 0.5 * n * (float(pot.Q(z)) + float(pot.Q(w)))
        + 0.5 * (ez.HH + ew.HH.conjugate())
    )
    s = ez.sqrt_dphi * ew.sqrt_dphi.conjugate() / (2.0 * math.pi * (prod - 1.0))
    log_mag = (
        0.5 * math.log(2.0 * math.pi * n)
        + expo.real
        + n * math.log(abs(prod))
        + math.log(abs(s))
    )
    if min(abs(ez.phi), abs(ew.phi)) < 1.0 - 1e-9:
        lap = 0.5 * (pot.laplacian(z) + pot.laplacian(w))
        if log_mag <= math.log(n * lap) - 0.5 * n * lap * abs(z - w) ** 2:
            raise RegimeError(f"the bulk term outweighs the exterior one at z = {z}, w = {w}")
    arg = expo.imag + _norm_arg(n * math.atan2(prod.imag, prod.real)) + math.atan2(s.imag, s.real)
    return KernelAsymptotic(n=n, z=z, w=w, value=LogComplex(log_mag, arg))


def cocycle(pot: AdmissiblePotential, n: int, z: complex, w: complex) -> LogComplex:
    """Unimodular factor c_n(z, w) of the boundary correlation; needs ||phi| - 1| <= 1e-8 at z and w."""
    check_n(n)
    check_scale(extent(z) + extent(w))
    ez = pot.exterior(complex(z), 1.0)
    ew = pot.exterior(complex(w), 1.0)
    for e, name in ((ez, "z"), (ew, "w")):
        if not abs(abs(e.phi) - 1.0) <= 1e-8:
            raise DomainError(f"cocycle needs {name} on the boundary")
    prod = ez.phi * ew.phi.conjugate()
    arg = (
        _norm_arg(n * math.atan2(prod.imag, prod.real))
        + 0.5 * n * (ez.QQ.imag - ew.QQ.imag)
        + 0.5 * (ez.HH.imag - ew.HH.imag)
    )
    return LogComplex(n * math.log(abs(prod)), _norm_arg(arg))


def boundary_correlation_modulus(pot: AdmissiblePotential, n: int,
                                 z: complex, w: complex) -> float:
    """sqrt(2 pi n) LapQ(z)^{1/4} LapQ(w)^{1/4} |S(z, w)| for distinct boundary points."""
    check_n(n)
    z = complex(z)
    w = complex(w)
    check_scale(extent(z) + extent(w))  # bounds |z - w|, so the abs below cannot overflow
    if abs(z - w) < 1e-12:
        raise DomainError("boundary correlation modulus is off-diagonal only")
    return (
        math.sqrt(2.0 * math.pi * n)
        * pot.laplacian(z) ** 0.25
        * pot.laplacian(w) ** 0.25
        * abs(szego_kernel(pot, z, w))
    )


def gaussian_belt_profile(m, ell):
    """gamma_m(ell) = (2 sqrt(m)/sqrt(2pi)) e^{-2 m ell^2}, of unit mass in ell; elementwise."""
    return 2.0 * np.sqrt(m) / math.sqrt(2.0 * math.pi) * np.exp(-2.0 * m * ell * ell)


def berezin_belt_density(pot: AdmissiblePotential, n: int, z: complex, theta, ell):
    """Gaussian belt model P_z(p) gamma_{n LapQ(p)}(ell) of B_n(z, .) at w = p + ell nu(p).

    p = chi(e^{i theta}) and nu(p) is the outward unit normal: harmonic
    measure along the boundary, a Gaussian of variance 1/(4 n LapQ(p))
    across it.  The density is per (arclength x normal length); theta and
    ell are scalars or broadcasting arrays.
    """
    check_n(n)
    theta = np.asarray(theta, dtype=float)
    ell = np.asarray(ell, dtype=float)
    check_finite(extent(theta), extent(ell))  # z is checked by harmonic_measure_density
    cuts = sequence_cuts(n, pot.delta_M)
    if not np.all(np.abs(ell) <= cuts.delta_n):
        raise BeltError(
            f"|ell| = {np.max(np.abs(ell)):.4f} exceeds the belt half-width {cuts.delta_n:.4f}"
        )
    p = pot.chi(np.exp(1j * theta), 1.0)
    return harmonic_measure_density(pot, z, p) * gaussian_belt_profile(n * pot.laplacian(p), ell)


# ---------------------------------------------------------------------------
# Quasipolynomials and the tail kernel
# ---------------------------------------------------------------------------


def _quasipolynomial_parts(pot: AdmissiblePotential, n: int, j: np.ndarray, points):
    """(log_mag, arg) of W#_{j,n}(z): one row per point z, one column per degree in j.

    The exterior data come from one call, with the points as a column
    against the row tau = j/n.
    """
    # the scalar Q raises DomainError at an overflow-scale point, before any array work
    q = np.array([[float(pot.Q(z))] for z in points])
    e = pot.exterior(np.array(points, dtype=complex)[:, None], j / n)
    if np.any(e.phi == 0):
        raise DomainError(f"W#_(j,n) has no log-polar value where phi_tau vanishes, z in {points}")
    log_mag = (
        0.25 * math.log(n / (2.0 * math.pi))
        + 0.5 * np.real(e.HH)
        + np.log(np.abs(e.sqrt_dphi))
        + j * np.log(np.abs(e.phi))
        + 0.5 * n * np.real(e.QQ)
        - 0.5 * n * q
    )
    if not np.all(np.isfinite(log_mag)):
        raise DomainError(f"W#_(j,n) is not finite at z in {points}")
    arg = (
        0.5 * np.imag(e.HH)
        + np.angle(e.sqrt_dphi)
        + j * np.angle(e.phi)
        + 0.5 * n * np.imag(e.QQ)
    )
    return log_mag, arg


def quasipolynomial(pot: AdmissiblePotential, n: int, j: int, z: complex) -> LogComplex:
    """Closed-form approximate orthonormal weighted polynomial W#_{j,n}(z).

    tau(j) = j/n selects the droplet family member.  It is the tail sum's
    term for degree j: every tau the potential's exterior data accept (down
    to its floor `tau_floor`) is allowed.
    """
    check_n(n)
    check_index(j, "degree j", 0, n)
    z = complex(z)
    check_scale(extent(z))
    log_mag, arg = _quasipolynomial_parts(pot, n, np.array([j]), [z])
    return LogComplex(float(log_mag[0, 0]), float(arg[0, 0]))


def tail_kernel(pot: AdmissiblePotential, n: int, z: complex, w: complex) -> LogComplex:
    """Sum of quasipolynomial products over the top degree range j >= n theta_n.

    Both points take all their degrees in one array pass, and the products
    are summed in log scale; swapping z and w conjugates the value exactly.
    """
    check_n(n)
    z = complex(z)
    w = complex(w)
    check_scale(extent(z) + extent(w))
    cuts = sequence_cuts(n, pot.delta_M)
    _require_belt(pot, cuts, z=z, w=w)
    j = np.arange(max(0, int(math.ceil(n * cuts.theta_n - 1e-9))), n)
    (log_z, log_w), (arg_z, arg_w) = _quasipolynomial_parts(pot, n, j, [z, w])
    return lc_sum_scaled_parts(log_z + log_w, arg_z - arg_w)


@dataclass(frozen=True)
class LowDegreeReport:
    n: int
    z: complex
    j_cut: int
    max_scaled: float  # max_{j <= n theta_n} |W_{j,n}(z)| e^{(n/2)(Q - Qcheck)(z)}
    argmax_j: int


def lowdeg_bound_check(pot: AdmissiblePotential, n: int, z: complex) -> LowDegreeReport:
    """Scaled size of the discarded low-degree terms (Ginibre closed form).

    The weighted orthonormal polynomials of Q = |z|^2 are
    sqrt(n^{j+1}/j!) z^j e^{-n|z|^2/2}; degrees below n theta_n are
    uniformly exp(-c log^2 n) small near the exterior after removing the
    obstacle-function envelope.
    """
    if not isinstance(pot, GinibrePotential):
        raise DomainError("closed-form low-degree check is specific to the Ginibre potential")
    z = complex(z)
    cuts = sequence_cuts(n, pot.delta_M)
    _require_belt(pot, cuts, z=z)
    j_cut = int(math.floor(n * cuts.theta_n))
    best = -math.inf
    best_j = 0
    for j in range(j_cut + 1):
        val = _ginibre_enveloped_log_w(n, j, z, 1.0)
        if val > best:
            best = val
            best_j = j
    return LowDegreeReport(n=n, z=z, j_cut=j_cut,
                           max_scaled=math.exp(best) if best > -745 else 0.0,
                           argmax_j=best_j)
