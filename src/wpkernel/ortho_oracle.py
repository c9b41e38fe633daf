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
trapezoid in the angle.  A weight invariant under z -> e^{2 pi i / p} z
(p = the potential's rotation_order) has M_{jk} = 0 unless p divides
j - k, so only the lags d = 0, p, 2p, ... are integrated, and the integrand
e^{i d theta} e^{-n Q} repeats with period 2 pi / p: the trapezoid runs on
one period, ceil(m/p) of the nodes of the rule on p ceil(m/p) nodes with
m = max(4*max_degree + 16, 128), and its sum is multiplied by p.  A
rotation-invariant weight (p = inf) is the end of that rule: one node,
and its angular profile 2 pi e^{-n Q(r)} is exact.  One real product (the
weight against the modes' real and imaginary parts) gives the profiles on
every radial node, one more the Hankel table of radial moments, and M_{jk}
is a gather from that table.  The residue blocks {j = r mod p} are stacked
into one (p, s, s) array, the short ones padded with a unit diagonal
entry, and factored together: one batched svd for the condition estimate
(the spread of the blocks' singular values), one batched Cholesky, and an
s-step recurrence for the inverse factors.  For the blocks p is capped at
max_degree + 1: a rotation-invariant weight has one 1 x 1 block per degree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, PrecisionError, ResolutionError, check_index, check_n,
                     check_scale, extent)
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
    period: int                # M_{jk} = 0 unless period divides j - k


@dataclass(frozen=True)
class OrthonormalBasis:
    n: int
    max_degree: int
    coeffs: np.ndarray         # row j = coefficients of P_j in scaled monomials
    scale: float
    pot: AdmissiblePotential
    gram_residual: float


def compute_moments(pot: AdmissiblePotential, n: int, max_degree: int) -> GramData:
    """Assemble the Hermitian moment matrix of the weighted monomials.

    With the angular profiles A_d(r) = int e^{i d theta} e^{-n Q(r e^{i theta})} dtheta
    and the Hankel table H[m, l] = sum_r (r/scale)^m r w_r A_{l period}(r) / pi,
    M_jk = H[j + k, (j - k)/period] for j >= k in a residue block.  A_d is
    the trapezoid on one period 2 pi / p of the weight, p = rotation_order,
    times p (see the module); both products are real products on the
    complex factor viewed as float.
    """
    check_n(n)
    check_index(max_degree, "max_degree", 0, n)
    r_max = pot.outer_radius(1.0) + 12.0 / math.sqrt(n)
    # the weight's own angular modes need the floor: with 64 nodes the elliptic
    # (1, 3) kernel missed the Hermite route by 2e-11 at n = 10, with 128 by 2e-14;
    # ceil(m/p) nodes on one period, one for p = inf (-m // inf is -1.0)
    p = pot.rotation_order
    m_period = int(-(-max(4 * max_degree + 16, 128) // p))
    # radius of the disc with the droplet's area (area theorem): sqrt(p q) for an ellipse
    c1, _, c_1 = pot.chi_laurent(1.0)
    scale = math.sqrt(abs(c1) ** 2 - abs(c_1) ** 2)
    period = min(p, max_degree + 1)
    rule = quad_radial(r_max, feature_scale=1.0 / math.sqrt(max(n, 4)))
    radii = rule.nodes
    theta = 2.0 * math.pi * np.arange(m_period) / (p * m_period)
    wgt = np.exp(-n * pot.Q(radii[:, None] * np.exp(1j * theta)[None, :]))
    lags = np.arange(0, max_degree + 1, period)
    # numpy would upcast the real factor and run a complex product
    modes = np.exp(1j * np.outer(theta, lags)).view(float)
    profiles = (2.0 * math.pi / m_period) * (wgt @ modes).view(complex)
    powers = np.exp(np.outer(np.arange(2 * max_degree + 1), np.log(radii / scale)))
    hankel = (powers @ ((radii * rule.weights / math.pi)[:, None] * profiles).view(float)
              ).view(complex)
    # one gather from (H, conj H), conjugated above the diagonal
    rows, cols, mask = _residue_layout(max_degree + 1, period)
    table = np.stack([hankel, hankel.conj()])
    blocks = table[(rows < cols).astype(int), rows + cols, np.abs(rows - cols) // period]
    blocks = np.where(mask, blocks, np.eye(rows.shape[-1]))
    diag = np.diagonal(blocks, axis1=1, axis2=2).real
    if not np.all(diag > 0):
        raise ResolutionError("nonpositive diagonal moment: quadrature too coarse")
    # the correlation matrix is block diagonal: its singular values are the blocks'
    dm = np.sqrt(diag)
    svals = np.linalg.svd(blocks / (dm[:, :, None] * dm[:, None, :]), compute_uv=False)
    moments = np.zeros((max_degree + 1, max_degree + 1), dtype=complex)
    moments[rows[mask], cols[mask]] = blocks[mask]
    return GramData(n=n, max_degree=max_degree, moments=moments,
                    cond_estimate=float(svals.max() / svals.min()), scale=scale, pot=pot,
                    period=period)


def _residue_layout(size: int, period: int):
    """The residue blocks {j = r mod period} of a size x size matrix as one
    (period, s, s) stack: entry [r, a, b] is at row r + a period and column
    r + b period where mask holds (rows and columns are 0 elsewhere).

    The short blocks are padded with a unit diagonal entry, which adds the
    singular value 1 to a unit-diagonal block, a Cholesky factor and inverse
    of exactly 1, and a zero residual.
    """
    s = -(-size // period)
    pos = np.arange(period)[:, None] + period * np.arange(s)
    valid = pos < size
    pos = np.where(valid, pos, 0)
    rows, cols = np.broadcast_arrays(pos[:, :, None], pos[:, None, :])
    return rows, cols, valid[:, :, None] & valid[:, None, :]


# ---------------------------------------------------------------------------
# Orthonormalization
# ---------------------------------------------------------------------------


def orthonormalize(gram: GramData) -> OrthonormalBasis:
    """Triangular factorization of the moments; rows are P_j coefficients.

    All residue blocks are factored at once; L^{-1} comes from the row
    recurrence C[i] = (e_i - L[i, :i] C[:i]) / L[i, i], which keeps it exactly
    lower triangular with a positive diagonal.
    """
    if gram.cond_estimate > _NATIVE_COND_LIMIT:
        raise PrecisionError(
            f"Gram condition {gram.cond_estimate:.2e} exceeds the float64 budget; "
            "lower the degree"
        )
    mom = np.asarray(gram.moments)
    rows, cols, mask = _residue_layout(mom.shape[0], gram.period)
    eye = np.eye(rows.shape[-1])
    blocks = np.where(mask, mom[rows, cols], eye)
    try:
        L = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError as exc:
        raise ResolutionError(
            "numeric Gram matrix is not positive definite; refine the quadrature"
        ) from exc
    C = np.zeros_like(L)
    for i in range(eye.shape[0]):
        C[:, i] = (eye[i] - (L[:, i, None, :i] @ C[:, :i])[:, 0]) / L[:, i, i, None]
    resid = np.abs(C @ blocks @ C.conj().transpose(0, 2, 1) - eye)
    coeffs = np.zeros(mom.shape, dtype=complex)
    coeffs[rows[mask], cols[mask]] = C[mask]
    return OrthonormalBasis(n=gram.n, max_degree=gram.max_degree, coeffs=coeffs,
                            scale=gram.scale, pot=gram.pot, gram_residual=float(resid.max()))


# ---------------------------------------------------------------------------
# Kernel evaluation and bound diagnostics
# ---------------------------------------------------------------------------


def _powers(first: float, zh: complex, degree: int) -> np.ndarray:
    """first zh^k for k = 0..degree, a running product on one array filled in place:
    building the row with np.r_ took more time than the product."""
    powers = np.full(degree + 1, zh)
    powers[0] = first
    return np.cumprod(powers, out=powers)


def _poly_values(basis: OrthonormalBasis, z: complex) -> np.ndarray:
    powers = _powers(1.0, complex(z) / basis.scale, basis.max_degree)
    return np.asarray(basis.coeffs) @ powers


def _poly_derivatives(basis: OrthonormalBasis, z: complex) -> np.ndarray:
    """P_j'(z) for every basis polynomial."""
    powers = _powers(1.0 / basis.scale, complex(z) / basis.scale, basis.max_degree)
    dpowers = np.zeros_like(powers)
    dpowers[1:] = np.arange(1, basis.max_degree + 1) * powers[:-1]
    return np.asarray(basis.coeffs) @ dpowers


def kernel_oracle(basis: OrthonormalBasis, z: complex, w: complex) -> LogComplex:
    """Exact kernel K_n(z, w) = sum_j W_j(z) conj(W_j(w)) in log-polar form
    (`_kernel_from_values`); z and w are checked before any power of them is formed."""
    z, w = complex(z), complex(w)
    check_scale(extent(z) + extent(w))
    with np.errstate(over="ignore", invalid="ignore"):
        pz, pw = _poly_values(basis, z), _poly_values(basis, w)
    return _kernel_from_values(basis, z, pz, w, pw)


def _kernel_from_values(basis: OrthonormalBasis, z: complex, pz: np.ndarray, w: complex,
                        pw: np.ndarray) -> LogComplex:
    """K_n(z, w) from the basis values pz = P_j(z) and pw = P_j(w), each scaled by a
    power of two before their product, so only a P_j that itself overflows raises
    PrecisionError."""
    half_weights = -0.5 * basis.n * (float(basis.pot.Q(z)) + float(basis.pot.Q(w)))
    with np.errstate(over="ignore", invalid="ignore"):
        kz, kw = (math.frexp(float(np.abs(p).max()))[1] for p in (pz, pw))
        s = complex(np.sum((pz * 2.0 ** -kz) * np.conj(pw * 2.0 ** -kw)))
    if not cmath.isfinite(s):
        raise PrecisionError("the basis values P_j overflow float64")
    if s == 0:
        return LC_ZERO
    return LogComplex(math.log(abs(s)) + (kz + kw) * math.log(2.0) + half_weights,
                      math.atan2(s.imag, s.real))


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
    check_n(n)
    z = complex(z)
    w = complex(w)
    check_scale(extent(z) + extent(w))
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
        # a pair that vanished (p_k(0) = 0 for k >= 1 at tau = 0) is left unscaled
        mz = max(abs(zc), abs(zp)) or 1.0
        mw = max(abs(wc), abs(wp)) or 1.0
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
    return LogComplex(log_total + math.log(abs(total)) + log_weight,
                      math.atan2(total.imag, total.real))


@dataclass(frozen=True)
class PointwiseBoundReport:
    n: int
    samples: tuple
    max_ratio: float  # max |W_{j,n}(z)| e^{(n/2)(Q - Qcheck_tau(j))(z)} / sqrt(n)


def _ginibre_enveloped_log_w(n: int, j: int, z: complex, tau: float) -> float:
    """log |W_{j,n}(z)| + (n/2)(Q - Qcheck_tau)(z) for the Ginibre basis
    sqrt(n^{j+1}/j!) z^j e^{-n|z|^2/2}; the obstacle function Qcheck_tau is
    |z|^2 on |z|^2 <= tau and tau (1 + log(|z|^2/tau)) outside."""
    m2 = abs(z) ** 2
    # the outer branch tends to 0 with tau: Qcheck_0 = 0
    obstacle = m2 if m2 <= tau else (tau * (1.0 + math.log(m2 / tau)) if tau > 0.0 else 0.0)
    log_z = j * math.log(abs(z)) if z != 0 else (0.0 if j == 0 else -math.inf)
    log_w = 0.5 * ((j + 1) * math.log(n) - math.lgamma(j + 1.0)) + log_z - 0.5 * n * m2
    return log_w + 0.5 * n * (m2 - obstacle)


def pointwise_bound_check(n: int, js, zs) -> PointwiseBoundReport:
    """Envelope check for the Ginibre closed-form basis.

    |W_{j,n}(z)| <= C sqrt(n) e^{-(n/2)(Q - Qcheck_tau)(z)} with tau = j/n;
    the report carries the empirical max of the normalized ratio.
    """
    check_n(n)
    check_scale(extent(np.asarray(zs, dtype=complex)))
    worst = 0.0
    for j in js:
        check_index(j, "degree j", 0, n - 1)
        for z in zs:
            log_ratio = _ginibre_enveloped_log_w(n, j, complex(z), j / n) - 0.5 * math.log(n)
            worst = max(worst, math.exp(log_ratio))
    return PointwiseBoundReport(n=n, samples=tuple(zs), max_ratio=worst)
