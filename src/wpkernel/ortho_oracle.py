"""Brute-force weighted orthonormal polynomials and the exact kernel.

The ground-truth route: assemble the monomial moment matrix

    M_{jk} = integral of z^j conj(z)^k e^{-n Q(z)} dA(z),

factor it (Cholesky), and read the orthonormal polynomial coefficients off
the inverse triangular factor.  The kernel is then the plain basis sum with
the weight e^{-n Q / 2} attached per argument.

Monomial Gram matrices are exponentially ill-conditioned in the degree;
the float64 pipeline refuses condition estimates above 1e12.  The elliptic
ensemble has a closed-form basis (scaled Hermite polynomials), evaluated by
elliptic_kernel_exact at any n without a Gram matrix.

Moments are computed by polar quadrature about the droplet center: a
composite Gauss radial rule out to R = r_outer + 12/sqrt(n) and a periodic
trapezoid in the angle with at least 4*max_degree + 16 nodes.  Rotation
invariant weights reduce to diagonal moments with a dedicated radial rule;
parity-symmetric weights (z -> -z) are assembled blockwise with exact zeros
at odd index sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError, ResolutionError
from .potential import AdmissiblePotential, EllipticGinibrePotential
from .scaled_numerics import LC_ZERO, LogComplex, quad_radial

_NATIVE_COND_LIMIT = 1e12


@dataclass(frozen=True)
class GramData:
    n: int
    max_degree: int
    moments: np.ndarray
    cond_estimate: float
    scale: float               # monomial scaling: basis is (z/scale)^k
    pot: AdmissiblePotential
    diagonal: bool
    parity: bool


@dataclass(frozen=True)
class OrthonormalBasis:
    n: int
    max_degree: int
    coeffs: np.ndarray         # row j = coefficients of P_j in scaled monomials
    scale: float
    pot: AdmissiblePotential
    gram_residual: float


def _radial_diag_moments(pot, n, max_degree, r_max):
    """Diagonal moments 2 int r^{2j+1} e^{-n q(r)} dr for rotation-invariant Q."""
    rule = quad_radial(r_max, feature_scale=1.0 / math.sqrt(max(n, 4)), m_per_panel=24)
    r = rule.nodes
    w = rule.weights
    log_w = -n * np.array([float(pot.Q(complex(s, 0.0))) for s in r])
    diag = np.empty(max_degree + 1)
    log_r = np.log(r)
    for j in range(max_degree + 1):
        diag[j] = 2.0 * float(np.sum(w * np.exp((2 * j + 1) * log_r + log_w)))
    return diag


def _angular_profile(pot, n, radii, m_theta, d_values):
    """A_d(r) = int_0^{2pi} e^{i d theta} e^{-n Q(r e^{i theta})} dtheta."""
    theta = 2.0 * math.pi * np.arange(m_theta) / m_theta
    wt = 2.0 * math.pi / m_theta
    zs = radii[:, None] * np.exp(1j * theta)[None, :]
    wgt = np.exp(-n * pot.Q(zs))
    out = {}
    for d in d_values:
        out[d] = wt * (wgt * np.exp(1j * d * theta)[None, :]).sum(axis=1)
    return out


def compute_moments(pot: AdmissiblePotential, n: int, max_degree: int, *,
                    m_theta: int | None = None) -> GramData:
    """Assemble the Hermitian moment matrix of the weighted monomials."""
    if n < 1 or max_degree < 0:
        raise DomainError("need n >= 1 and a nonnegative degree")
    if max_degree > n:
        raise DomainError("the space only contains degrees below n")
    r_max = pot.outer_radius(1.0) + 12.0 / math.sqrt(n)
    if pot.is_radial:
        diag = _radial_diag_moments(pot, n, max_degree, r_max)
        if np.any(diag <= 0):
            raise ResolutionError("nonpositive diagonal moment: quadrature too coarse")
        return GramData(
            n=n, max_degree=max_degree, moments=diag,
            cond_estimate=1.0, scale=1.0, pot=pot,
            diagonal=True, parity=True,
        )
    if m_theta is None:
        m_theta = max(4 * max_degree + 16, 64)
    if hasattr(pot, "semi_axes"):
        p_ax, q_ax = pot.semi_axes(1.0)
        scale = math.sqrt(p_ax * q_ax)  # geometric-mean monomial scaling
    else:
        scale = 1.0
    parity = pot.has_parity_symmetry
    moments = _moments_polar(pot, n, max_degree, r_max, m_theta, scale, parity)
    dm = np.sqrt(np.abs(np.diagonal(moments)))
    corr = moments / np.outer(dm, dm)
    cond = float(np.linalg.cond(corr))
    return GramData(n=n, max_degree=max_degree, moments=moments,
                    cond_estimate=cond, scale=scale, pot=pot,
                    diagonal=False, parity=parity)


def _moments_polar(pot, n, max_degree, r_max, m_theta, scale, parity):
    rule = quad_radial(r_max, feature_scale=1.0 / math.sqrt(max(n, 4)), m_per_panel=24)
    radii = rule.nodes
    d_values = range(0, max_degree + 1) if not parity else range(0, max_degree + 1, 2)
    prof = _angular_profile(pot, n, radii, m_theta, d_values)
    rho_hat = radii / scale
    d = max_degree + 1
    mom = np.zeros((d, d), dtype=complex)
    log_rho = np.log(rho_hat)
    for j in range(d):
        for k in range(j + 1):
            if parity and (j - k) % 2 == 1:
                continue
            dd = j - k
            rad = np.exp((j + k) * log_rho) * radii * rule.weights
            mom[j, k] = np.sum(rad * prof[dd]) / math.pi
            mom[k, j] = np.conj(mom[j, k])
    return mom


# ---------------------------------------------------------------------------
# Orthonormalization
# ---------------------------------------------------------------------------


def _cholesky_inverse(mom: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(mom)
    except np.linalg.LinAlgError as exc:
        raise ResolutionError(
            "numeric Gram matrix is not positive definite; refine the quadrature"
        ) from exc
    d = mom.shape[0]
    C = np.zeros_like(L)
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        x = np.zeros(d, dtype=complex)
        for i in range(d):
            x[i] = (e[i] - L[i, :i] @ x[:i]) / L[i, i]
        C[:, j] = x
    return C  # C = L^{-1}, lower triangular with positive diagonal


def orthonormalize(gram: GramData) -> OrthonormalBasis:
    """Triangular factorization of the moments; rows are P_j coefficients."""
    if gram.cond_estimate > _NATIVE_COND_LIMIT:
        raise PrecisionError(
            f"Gram condition {gram.cond_estimate:.2e} exceeds the float64 budget; "
            "lower the degree"
        )
    mom = np.asarray(gram.moments)
    if gram.diagonal:
        C = np.diag(1.0 / np.sqrt(mom))
        mom = np.diag(mom)
    elif gram.parity:
        # odd and even degrees are orthogonal blocks; the odd one is empty at degree 0
        C = np.zeros(mom.shape, dtype=complex)
        for par in (0, 1):
            idx = np.arange(par, mom.shape[0], 2)
            if idx.size:
                C[np.ix_(idx, idx)] = _cholesky_inverse(mom[np.ix_(idx, idx)])
    else:
        C = _cholesky_inverse(mom)
    resid = float(np.max(np.abs(C @ mom @ C.conj().T - np.eye(mom.shape[0]))))
    return OrthonormalBasis(n=gram.n, max_degree=gram.max_degree, coeffs=C,
                            scale=gram.scale, pot=gram.pot, gram_residual=resid)


# ---------------------------------------------------------------------------
# Kernel evaluation and bound diagnostics
# ---------------------------------------------------------------------------


def _poly_values(basis: OrthonormalBasis, z: complex) -> np.ndarray:
    zh = complex(z) / basis.scale
    d = basis.max_degree + 1
    powers = np.empty(d, dtype=complex)
    powers[0] = 1.0
    for k in range(1, d):
        powers[k] = powers[k - 1] * zh
    return np.asarray(basis.coeffs) @ powers


def kernel_oracle(basis: OrthonormalBasis, z: complex, w: complex) -> LogComplex:
    """Exact kernel K_n(z, w) = sum_j W_j(z) conj(W_j(w)) in log-polar form."""
    z = complex(z)
    w = complex(w)
    half_weights = -0.5 * basis.n * (float(basis.pot.Q(z)) + float(basis.pot.Q(w)))
    s = complex(np.sum(_poly_values(basis, z) * np.conj(_poly_values(basis, w))))
    if s == 0:
        return LC_ZERO
    return LogComplex(math.log(abs(s)) + half_weights, cmath.phase(s))


def elliptic_kernel_exact(pot: EllipticGinibrePotential, n: int, z: complex,
                          w: complex) -> LogComplex:
    """Exact kernel of Q = a u^2 + b v^2 from its scaled Hermite basis.

    With alpha = Lap Q, tau = -beta/alpha and s^2 = 1/(n alpha (1 - tau^2)),
    the orthonormal polynomials (measure dA/pi) obey the three-term
    recurrence

        p_0 = (s^2 sqrt(1 - tau^2))^{-1/2},
        sqrt(k+1) p_{k+1}(z) = (z/s) p_k(z) - tau sqrt(k) p_{k-1}(z),

    and K_n(z, w) = e^{-n(Q(z)+Q(w))/2} sum_{k<n} p_k(z) conj(p_k(w)).  The
    two running pairs are rescaled when they leave [1e-100, 1e100]; partial
    sums between rescales are folded into a log-scaled total.  Off the
    diagonal in the bulk the sum cancels; below a cancellation ratio
    |sum| / sum |p_k(z) p_k(w)| of 1e-6 a PrecisionError is raised.
    """
    if not isinstance(pot, EllipticGinibrePotential):
        raise DomainError("the Hermite route needs an elliptic Ginibre potential")
    if n < 1:
        raise DomainError("particle count n must be >= 1")
    z = complex(z)
    w = complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise DomainError("kernel arguments must be finite")
    log_weight = -0.5 * n * (pot.Q(z) + pot.Q(w))
    tau = -pot.beta / pot.alpha
    s = 1.0 / math.sqrt(n * pot.alpha * (1.0 - tau * tau))
    zs, ws = z / s, w / s
    log_p0 = -0.5 * math.log(s * s * math.sqrt(1.0 - tau * tau))
    # running pairs (previous, current) in units e^{lz}, e^{lw}
    zp, zc, lz = 0j, 1 + 0j, log_p0
    wp, wc, lw = 0j, 1 + 0j, log_p0
    chunk, chunk_abs = 0j, 0.0      # partial sums in units e^{lz + lw}
    total, total_abs, log_total = 0j, 0.0, -math.inf

    def fold():
        nonlocal total, total_abs, log_total, chunk, chunk_abs
        if chunk_abs > 0.0:
            lc = lz + lw + math.log(chunk_abs)
            if lc > log_total:
                shrink = math.exp(log_total - lc)
                total, total_abs, log_total = total * shrink, total_abs * shrink, lc
            grow = math.exp(lc - log_total)
            total += chunk / chunk_abs * grow
            total_abs += grow
        chunk, chunk_abs = 0j, 0.0

    for k in range(n):
        t = zc * wc.conjugate()
        chunk += t
        chunk_abs += abs(t)
        if k == n - 1:
            break
        root_k, root_k1 = math.sqrt(k), math.sqrt(k + 1)
        zp, zc = zc, (zs * zc - tau * root_k * zp) / root_k1
        wp, wc = wc, (ws * wc - tau * root_k * wp) / root_k1
        mz = max(abs(zc), abs(zp))
        mw = max(abs(wc), abs(wp))
        if not (1e-100 < mz < 1e100 and 1e-100 < mw < 1e100):
            fold()
            zp, zc, lz = zp / mz, zc / mz, lz + math.log(mz)
            wp, wc, lw = wp / mw, wc / mw, lw + math.log(mw)
    fold()
    if abs(total) < 1e-6 * total_abs:
        raise PrecisionError(
            f"Hermite kernel sum cancels to {abs(total) / total_abs:.1e} of its "
            "term mass; off-diagonal bulk values are beyond float64"
        )
    return LogComplex(log_total + math.log(abs(total)) + log_weight, cmath.phase(total))


def kernel_oracle_diag(basis: OrthonormalBasis, z: complex) -> float:
    """R_n(z) from the oracle basis (always a plain float)."""
    val = kernel_oracle(basis, z, z)
    return math.exp(val.log_mag) if val.log_mag > -745 else 0.0


@dataclass(frozen=True)
class PointwiseBoundReport:
    n: int
    samples: tuple
    max_ratio: float  # max |W_{j,n}(z)| e^{(n/2)(Q - Qcheck_tau(j))(z)} / sqrt(n)


def _ginibre_obstacle_tau(z: complex, tau: float) -> float:
    m2 = abs(z) ** 2
    return m2 if m2 <= tau else tau * (1.0 + math.log(m2 / tau))


def pointwise_bound_check(n: int, js, zs) -> PointwiseBoundReport:
    """Envelope check for the Ginibre closed-form basis.

    |W_{j,n}(z)| <= C sqrt(n) e^{-(n/2)(Q - Qcheck_tau)(z)} with tau = j/n;
    the report carries the empirical max of the normalized ratio.
    """
    worst = 0.0
    for j in js:
        tau = j / n
        for z in zs:
            z = complex(z)
            log_w = (
                0.5 * ((j + 1) * math.log(n) - math.lgamma(j + 1.0))
                + (j * math.log(abs(z)) if z != 0 else (0.0 if j == 0 else -math.inf))
                - 0.5 * n * abs(z) ** 2
            )
            envelope = 0.5 * n * (abs(z) ** 2 - _ginibre_obstacle_tau(z, tau))
            ratio = math.exp(log_w + envelope - 0.5 * math.log(n))
            worst = max(worst, ratio)
    return PointwiseBoundReport(n=n, samples=tuple(zs), max_ratio=worst)
