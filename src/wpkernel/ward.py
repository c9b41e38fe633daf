"""Loop-equation residuals and Cauchy transforms of Berezin measures.

The Berezin measure rooted at z, d mu_{n,z}(w) = B_n(z,w) dA(w), satisfies
the exact identity (at inverse temperature one)

    dbar_z [ mu_{n,z}(k_z) ] = R_n(z) - n LapQ(z) - Lap log R_n(z),

with k_z(w) = 1/(z - w) the Cauchy kernel and R_n the one-point function.
Both sides are evaluated in closed form.  Since dbar_z (z - w)^{-1} is the
point mass at w in dA, differentiating under the integral gives the left
side as R_n(z) + int dbar_z B_n(z,w)/(z - w) dA(w); the integrand is
bounded, because dbar_z B_n vanishes at w = z.  Writing R_n = k_n e^{-nQ}
with k_n the unweighted polynomial kernel, the n LapQ terms cancel and the
right side is R_n(z) - Lap log k_n(z,z).  There is no finite difference
and no Richardson step: the residual measures quadrature and rounding
error only, and is reported next to a budget made of the two (the walk's
exact error on the mass of B_n, scaled by the sums, and a rounding floor).

Every integral runs on one polar walk: a sector about the root z in
z-centered polar coordinates, where the Jacobian rho drho dtheta cancels
the 1/(z - w) singularity exactly and leaves a smooth integrand, and one or
two droplet-centered tensor pieces for the rest of the plane, shaped
(rings, angles) as the sources' products give them.  Each piece streams in
blocks of at most _NODE_BOUND nodes, the sector by whole rays and a tensor
piece by rings (`berezin_blocks`), one grid call each, and the walk reduces
a block before the next is evaluated, so its memory does not grow with its
node count.  The walk ends at the source's s_max (`walk_radius`), where
n (Q - V) >= 80 + log n: B_n(z, w) <= R_n(w), and a weighted polynomial of
degree < n decays like e^{-n (Q - V)} off the droplet, so the plane beyond
carries terms below e^{-80}; inside, it skips the nodes where the source's
log_envelope, a bound on log B_n and log |dbar_z B_n| in |w|, is below -80.
The raw integral is normalized by the same-grid mass of B_n, which also
cancels shared quadrature bias.  The walk integrates B_n/(z - w) next to the loop
integrand on the same nodes, so the Cauchy transform of the Berezin
measure is read off the loop residual's walk.

For a rotation-invariant weight the reflection R w = e^{2i phi_z} conj(w)
across the line through 0 and z is an antiholomorphic isometry that fixes z
and Q, so B_n(z, R w) = B_n(z, w) and dbar_z B_n(z, R w) = e^{2i phi_z} conj
dbar_z B_n(z, w).  The walk's layout is symmetric under R with no node on
the axis; it evaluates the half with arg w - phi_z in (0, pi) and adds the
mirror half in closed form.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, PrecisionError, check_n, check_scale, extent
from .ginibre_exact import GinibreRoot, ginibre_berezin_array
from .hardy import harmonic_measure_integral
from .ortho_oracle import _poly_derivatives, _poly_values, kernel_oracle
from .potential import AdmissiblePotential, GinibrePotential
from .scaled_numerics import (Quadrature1D, composite_gauss, gauss_on_interval,
                              quad_trapezoid_periodic)

_EPS = float(np.finfo(float).eps)
# The walk drops the plane past s_max (`walk_radius`) and the nodes where the
# source's log_envelope is below -_NEGLIGIBLE: B_n and dbar_z B_n are below e^-80.
_NEGLIGIBLE = 80.0
# nodes per block of a piece, the walk's memory bound: the sector's blocks are cut
# between rays (one may pass it by part of a ray), a tensor piece's between rings
# (a ring of more nodes is a block of its own); 4096 was the fastest of 2048-8192
_NODE_BOUND = 1 << 12
# Periodic trapezoid nodes on the full rays when the sector is the disc about
# the origin, or when the root is beyond the walk and the source is not
# rotation-invariant; otherwise the count is sized from the root (`_trapezoid_count`).
_N_THETA = 256


def walk_radius(pot: AdmissiblePotential, n: int) -> float:
    """s_max of the walk, which prunes inside by log_envelope: the first s = r_out +
    (12/sqrt(n)) k/32, k = 1..32, where n min (Q - V) >= _NEGLIGIBLE + log n over
    the angles 2 pi j/64 of |w| = s in one period 2 pi/p of the weight (p its
    rotation_order; Q - V repeats with it): ceil(64/p) of them, 32 for the
    ellipse and one for p = inf (-64 // inf is -1); the last s if none."""
    s = pot.outer_radius(1.0) + (12.0 / math.sqrt(n)) * np.arange(1, 33) / 32
    angles = 2j * math.pi * np.arange(-(-64 // pot.rotation_order)) / 64
    low = n * pot.ridge(s[:, None] * np.exp(angles)).min(axis=1)
    past = np.flatnonzero(low >= _NEGLIGIBLE + math.log(n))
    return float(s[past[0] if past.size else -1])


def _rings_per_block(angles: int) -> int:
    """Rings of `angles` nodes each in one block of a tensor piece: _NODE_BOUND nodes."""
    return max(1, _NODE_BOUND // max(angles, 1))


class BerezinSource:
    """The Berezin kernel B_n(z, .) of the weight e^{-n Q} of pot, as the walk reads it.

    The base fixes the walk's geometry from the weight (rotation_order, the
    droplet's outer_radius and s_max, `walk_radius`) and keeps every node
    (log_envelope +inf).  A source supplies berezin_flat(z, ws, dbar), (B_n,
    dbar_z B_n or None) on a node array, and berezin_blocks(z, angles, radii,
    dbar), the same on the tensor radii e^{i angles} as a generator of
    (block, b, f) over consecutive blocks of rings (`_rings_per_block`),
    block the slice of radii and b, f shaped (block, angles); it checks its
    arguments when called, and forms what depends only on the piece before
    the first block.  B_n is the same with or without dbar.  A source also
    supplies log_one_point, lap_log_kernel and value_error at the root z; the
    values at a root are found once (`_find_root`, kept by `_at_root`).
    berezin_grid and berezin_tensor are the base's views of the two routes.
    """

    def __init__(self, pot: AdmissiblePotential, n: int):
        check_n(n)
        self.n = n
        self.pot = pot
        self.rotation_order = pot.rotation_order
        self.outer_radius = pot.outer_radius(1.0)
        self._root = (None,)

    def _at_root(self, z: complex):
        """The source's values at root z (`_find_root`), found at the first call for a
        root and kept for the next calls at it; the root is told by the bits of z, as
        -0.0 and 0.0 are different roots to the walk."""
        z = complex(z)
        key = (z.real.hex(), z.imag.hex())
        if self._root[0] != key:
            self._root = (key, self._find_root(z))
        return self._root[1]

    @functools.cached_property
    def s_max(self) -> float:
        """`walk_radius` of the weight, found at the first walk: a source built
        only for its grids never pays for it."""
        return walk_radius(self.pot, self.n)

    def berezin_grid(self, z: complex, ws: np.ndarray) -> np.ndarray:
        """B_n(z, w) over the nodes ws, shaped as ws."""
        return self.berezin_flat(z, ws, False)[0]

    def berezin_tensor(self, z: complex, angles: np.ndarray, radii: np.ndarray, dbar: bool):
        """(B_n, dbar_z B_n or None) on the tensor radii e^{i angles}, shaped (radii,
        angles): the blocks of berezin_blocks stacked."""
        blocks = [(b, f) for _, b, f in self.berezin_blocks(z, angles, radii, dbar)]
        return (np.concatenate([b for b, _ in blocks]),
                np.concatenate([f for _, f in blocks]) if dbar else None)

    def log_envelope(self, z: complex, abs_w: np.ndarray) -> np.ndarray:
        return np.full(np.shape(abs_w), math.inf)


class GinibreSource(BerezinSource):
    """Exact-kernel source for Q = |z|^2."""

    name = "ginibre"

    def __init__(self, n: int):
        super().__init__(GinibrePotential(), n)

    def _find_root(self, z: complex) -> GinibreRoot:
        """e_n(n|z|^2) and r(n|z|^2), which every grid and root term at z reads."""
        return GinibreRoot(self.n, z)

    def berezin_flat(self, z: complex, ws: np.ndarray, dbar: bool):
        return ginibre_berezin_array(self.n, z, ws, dbar, self._at_root(z))

    def berezin_blocks(self, z: complex, angles: np.ndarray, radii: np.ndarray, dbar: bool):
        return self._at_root(z).tensor_blocks(angles, radii, dbar,
                                              _rings_per_block(np.size(angles)))

    def log_envelope(self, z: complex, abs_w: np.ndarray) -> np.ndarray:
        """A bound on log B_n(z, w) and on log |dbar_z B_n(z, w)| over |w| = abs_w."""
        bound = self._at_root(z).log_berezin_bound(abs_w)
        return bound + np.log(np.maximum(1.0, self.n * (abs_w + abs(z))))

    def log_one_point(self, z: complex) -> float:
        return self._at_root(z).log_one_point()

    def lap_log_kernel(self, z: complex) -> float:
        return self._at_root(z).lap_log_kernel()

    def value_error(self, z: complex) -> float:
        """Relative rounding error of the values at root z.

        Each value is the exponential of a sum of logarithms; its error is
        eps times their magnitude: log n! of the endpoint terms, twice, and
        the exponents n z w~, n|w|^2 and n|z|^2 over the nodes where B_n is
        above rounding, |w| <= max(1, |z|) up to O(n^{-1/2}).
        """
        n = self.n
        return _EPS * (2.0 * math.lgamma(n + 1.0) + 2.0 * n * max(1.0, abs(z) ** 2))


class OracleSource(BerezinSource):
    """Berezin source built from an orthonormal basis of the weight of pot.

    sum_j P_j(z) conj(P_j(w)) = sum_k a_k (conj(w)/scale)^k with a = C^H p(z),
    C the scaled-monomial coefficients of the P_j; d_z has a' = C^H p'(z).
    Flat nodes take one Horner step per degree, a tensor block one real BLAS
    product per polynomial (`_blocks`), shaped (rings, angles) as it comes:
    O(degree * nodes) work either way, in O(nodes + degree angles) memory per
    block.  pot is the basis's own potential (DomainError otherwise).  Every
    node is kept: a log_envelope needs Q on each node, ~10% of a transform at n = 40.
    p(z), p'(z) and log R_n(z) are found once per root (`_at_root`) and read by
    each of a walk's grid calls and by the loop's root terms.
    """

    name = "oracle"

    def __init__(self, basis, pot: AdmissiblePotential):
        if pot is not basis.pot:
            raise DomainError("OracleSource needs the potential its basis was built from")
        super().__init__(pot, basis.n)
        self.basis = basis

    def _find_root(self, z: complex) -> tuple:
        """(p(z), p'(z), log R_n(z))."""
        return (_poly_values(self.basis, z), _poly_derivatives(self.basis, z),
                kernel_oracle(self.basis, z, z).log_mag)

    def _entry(self, z: complex, node_extent: float, dbar: bool) -> list:
        """p(z), and p'(z) with dbar, after every route's entry check: DomainError unless
        (|w|/scale)^degree and the weight scale n|w|^2 stay finite on z and the nodes."""
        scale = extent(z) + node_extent
        with np.errstate(over="ignore"):
            top = np.float64(scale / self.basis.scale) ** self.basis.max_degree
        check_scale(float(top) + self.n * scale * scale)
        return list(self._at_root(z)[:1 + dbar])

    def _horner(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        a = np.asarray(self.basis.coeffs).conj().T @ values
        kern = np.full(x.shape, a[-1])
        for c in a[-2::-1]:
            kern *= x
            kern += c
        return kern

    def _blocks(self, z: complex, rows: list, angles: np.ndarray, radii: np.ndarray):
        """The blocks of berezin_blocks: sum_k a_k (r_j/scale)^k e^{-ik phi_i}, a = C^H v,
        on (rings, angles) for each row v, P[j, k] = (r_j/scale)^k against (a E) as float,
        E[k, i] = e^{-ik phi_i}, one product per row and block, so that p(z)'s sums are the
        same with or without p'(z); the tables a E are formed once, before the first block."""
        d = self.basis.max_degree
        table = np.ones((d + 1, angles.size), dtype=complex)
        table[1:] = np.exp(-1j * angles)
        np.cumprod(table, axis=0, out=table)
        c_h = np.asarray(self.basis.coeffs).conj().T
        tables = [(table * (c_h @ v)[:, None]).view(float) for v in rows]
        turn = np.exp(1j * angles)

        def block(rings):
            s = radii[rings]
            powers = np.ones((s.size, d + 1))
            powers[:, 1:] = (s / self.basis.scale)[:, None]
            np.cumprod(powers, axis=1, out=powers)
            kerns = [(powers @ t).view(complex) for t in tables]
            return (rings, *self._grids(z, s[:, None] * turn, rows, kerns))

        step = _rings_per_block(angles.size)
        for lo in range(0, max(radii.size, 1), step):
            yield block(slice(lo, lo + step))

    def _grids(self, z: complex, ws: np.ndarray, rows: list, kerns: list):
        """(B, dbar_z B or None) on the nodes ws from kerns = [k(z, w)] or [k, d_z k]:
        B = |k|^2 e^{-n (Q(z) + Q(w))} / R_n(z), flushed to zero below e^{-745}, and
        dbar_z B = B [conj(d_z k / k) - s], s = sum_j conj(P_j'(z)) P_j(z) / k(z,z)."""
        flat, kern = ws.ravel(), kerns[0].ravel()
        q = self.n * (float(self.pot.Q(complex(z))) + self.pot.Q(flat))
        with np.errstate(divide="ignore"):
            log_b = 2.0 * np.log(np.abs(kern)) - q - self.log_one_point(z)
        b = np.exp(log_b, out=np.zeros(log_b.shape), where=log_b > -745.0)
        if len(kerns) == 1:
            return b.reshape(ws.shape), None
        (p, dp), dkern = rows, kerns[1].ravel()
        dbar = np.zeros(flat.shape, dtype=complex)
        ok = b > 0.0
        dbar[ok] = b[ok] * (np.conj(dkern[ok] / kern[ok]) - np.vdot(dp, p) / np.vdot(p, p).real)
        return b.reshape(ws.shape), dbar.reshape(ws.shape)

    def berezin_flat(self, z: complex, ws: np.ndarray, dbar: bool):
        rows = self._entry(z, extent(ws), dbar)
        x = np.conj(ws.ravel()) / self.basis.scale
        return self._grids(z, ws, rows, [self._horner(v, x) for v in rows])

    def berezin_blocks(self, z: complex, angles: np.ndarray, radii: np.ndarray, dbar: bool):
        rows = self._entry(z, extent(radii) + extent(angles), dbar)
        return self._blocks(z, rows, np.asarray(angles, dtype=float),
                            np.asarray(radii, dtype=float))

    def log_one_point(self, z: complex) -> float:
        return self._at_root(z)[2]

    def lap_log_kernel(self, z: complex) -> float:
        """(sum|P'|^2 sum|P|^2 - |sum P' conj P|^2) / (sum|P|^2)^2, summed in
        Lagrange's form sum_{i<j} |P_i' P_j - P_j' P_i|^2, free of cancellation."""
        p, dp, _ = self._at_root(z)
        norm = math.sqrt(np.vdot(p, p).real)
        u, du = p / norm, dp / norm
        return 0.5 * float(np.sum(np.abs(np.outer(du, u) - np.outer(u, du)) ** 2))

    def value_error(self, z: complex) -> float:
        """Relative error of the values at root z: the basis is orthonormal
        only to its Gram residual, which bounds the error of the reproducing
        identity in operator norm times the dimension; to that adds eps times
        the weight exponents n Q(z) and n Q(w) over the nodes where B_n is
        above rounding."""
        dim = self.basis.max_degree + 1
        q = max(1.0, float(self.pot.Q(complex(z))))
        return dim * self.basis.gram_residual + _EPS * 2.0 * self.n * q


@dataclass(frozen=True)
class QuadSpec:
    """Layout of one polar walk.

    n_theta: angular nodes on the full rays: the periodic trapezoid's 2N,
        N sized from log(|z|/s_max) for a root beyond the walk
        (`_trapezoid_count`) for a rotation-invariant source and 128 for
        any other, and 128 when the sector is the disc about the origin; or,
        beside an annular sector, Gauss panels of 12 nodes in phi graded
        from the sector's edges (`_phi_edges`); n_radial: the nodes the walk
        evaluates (not those the source's log_envelope drops), sector
        included, which for a rotation-invariant source is one mirror half
        of the layout; mass: the same-grid mass of B_n, both halves.  The
        walk ends at s_max.
    """

    n_theta: int
    n_radial: int
    mass: float


def _graded_edges(s_max: float, fine_bands, fine: float, coarse: float):
    """Panel edges on [0, s_max]: fine width inside the given (center, half)
    bands, coarse elsewhere."""
    merged = []
    for lo, hi in sorted((max(0.0, c - h), min(s_max, c + h)) for c, h in fine_bands):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    edges, cursor = [np.zeros(1)], 0.0
    # coarse up to each band, fine across it; the empty band at s_max ends the walk
    for lo, hi in merged + [(s_max, s_max)]:
        for start, stop, width in ((cursor, lo, coarse), (lo, hi, fine)):
            if stop > start:
                n_pan = max(1, math.ceil((stop - start) / width))
                edges.append(np.linspace(start, stop, n_pan + 1)[1:])
        cursor = hi
    return np.unique(np.concatenate(edges))


def _sector(source, z: complex, dbar: bool, s_a, s_b, phi_a, phi_b, fine, per_piece, half):
    """The sector in z-centered polar coordinates: grid values, area and
    Cauchy weights of its live nodes, one flat array each per block of rays.

    The sector is star-shaped about z (its angular width is small), so each
    direction theta has a single exit radius: the nearest crossing with the
    two circles s = s_a, s_b and the two rays phi = phi_a, phi_b (only the
    outer circle when s_a = 0 and the sector is the disc s <= s_b).  Corner
    directions split the theta-range into analytic pieces of per_piece
    Gauss panels with 16 nodes each; each ray has ceil(exit/fine)
    panels of 12 nodes.  The Jacobian rho drho dtheta cancels the
    Cauchy kernel, whose weight is -e^{-i theta} drho dtheta in closed form.
    half picks the rays to evaluate (`_mirror_half`, or every ray); a kept
    ray's mirror has the weight -e^{i(theta - 2 phi_z)} drho dtheta, e^{-2i
    phi_z} times the conjugate, which the walk adds in its sums.
    The rays go in blocks of about _NODE_BOUND nodes (whole rays), which
    bounds the memory as the panels grow with n; each block drops its dead
    nodes before its grid call.
    """
    az = abs(z)
    if s_a > 0:
        corners = [s * cmath.exp(1j * phi) - z for s in (s_a, s_b) for phi in (phi_a, phi_b)]
        corner_angles = np.array([math.atan2(c.imag, c.real) for c in corners])
    else:
        corner_angles = np.linspace(0.0, 2.0 * math.pi, 5)[:-1] + math.atan2(z.imag, z.real)
    base = np.sort(np.mod(corner_angles, 2.0 * math.pi))
    theta_edges = np.append(base, base[0] + 2.0 * math.pi)
    t0, t1 = theta_edges[:-1], theta_edges[1:]
    keep = t1 - t0 >= 1e-13
    edges = np.linspace(t0[keep], t1[keep], per_piece + 1, axis=1)
    angular = half(gauss_on_interval(16, edges[:, :-1], edges[:, 1:]))

    # exit radii in real arithmetic: numpy's complex product may round differently
    e = np.exp(1j * angular.nodes)
    c = z.real * e.real + z.imag * e.imag  # Re(conj(z) e)
    r_exit = np.sqrt(c * c + s_b * s_b - az * az) - c  # outer circle, always hit
    if s_a > 0:
        d_in = c * c + s_a * s_a - az * az
        r_in = -c - np.sqrt(np.maximum(d_in, 0.0))
        r_exit = np.where((d_in > 0) & (c < 0) & (r_in > 0), np.minimum(r_exit, r_in), r_exit)
        edge = np.exp(1j * np.array([[phi_a], [phi_b]]))
        denom = e.imag * edge.real - e.real * edge.imag  # sin(theta - phi)
        r_ray = np.divide(z.real * edge.imag - z.imag * edge.real, denom,
                          out=np.full(denom.shape, np.inf), where=np.abs(denom) > 1e-14)
        r_exit = np.minimum(r_exit, np.where(r_ray > 0, r_ray, np.inf).min(axis=0))

    n_pan = np.maximum(1, np.ceil(r_exit / fine)).astype(int)
    ends = np.cumsum(n_pan)
    per_block = max(1, _NODE_BOUND // 12)  # panels of 12 nodes
    cuts = np.searchsorted(ends, np.arange(per_block, ends[-1], per_block), "right")
    bounds = [0, *cuts.tolist(), e.size]

    def block(first, last):
        # the panels of np.linspace(0, r_exit, n_pan + 1) on every ray, ray by ray
        counts = n_pan[first:last]
        ray = np.repeat(np.arange(first, last), counts)
        panel = np.arange(ray.size) - np.repeat(np.cumsum(counts) - counts, counts)
        step = (r_exit / n_pan)[ray]
        hi = np.where(panel + 1 == n_pan[ray], r_exit[ray], (panel + 1) * step)
        radial = gauss_on_interval(12, panel * step, hi)
        ray = np.repeat(ray, 12)
        ws = z + radial.nodes * e[ray]
        live = np.flatnonzero(source.log_envelope(z, np.abs(ws)) >= -_NEGLIGIBLE)
        ws, ray = ws[live], ray[live]
        b, f = source.berezin_flat(z, ws, dbar)
        d_area = angular.weights[ray] * radial.weights[live]  # drho dtheta
        return b, f, d_area * radial.nodes[live], -d_area * e[ray].conj()

    # a block's arrays live in the walk's sums only, not in this frame
    yield from map(block, bounds[:-1], bounds[1:])


def _tensor(source, z: complex, dbar: bool, angular, radial):
    """Droplet-centered tensor piece of two rules: grid values, area and
    Cauchy weights area/(z - w) of its nodes, as one flat array each per
    block of rings, on the rings where the source's log_envelope reaches
    -_NEGLIGIBLE.  The source evaluates the tensor from its angles and radii
    (`berezin_blocks`), block by block: for a rotation-invariant source, the
    mirror half of the angular rule that the walk evaluates."""
    live = source.log_envelope(z, radial.nodes) >= -_NEGLIGIBLE
    radii, weights = radial.nodes[live], radial.weights[live]
    turn = np.exp(1j * angular.nodes)

    def block(grids):
        rings, b, f = grids
        s = radii[rings, None]
        ws = (s * turn).ravel()
        area = (angular.weights * weights[rings, None] * s).ravel()
        # area/(z - w) in place: fresh node-sized arrays cost page faults
        kern = np.subtract(z, ws, out=ws)
        return b.ravel(), None if f is None else f.ravel(), area, np.divide(area, kern, out=kern)

    # a block's arrays live in the walk's sums only, not in this frame
    yield from map(block, source.berezin_blocks(z, angular.nodes, radii, dbar))


def _mirror_half(rule, phi_z: float):
    """The nodes of an angular rule with alpha = angle - phi_z in (0, pi): one of each
    pair of nodes mirrored across the root's axis, on which the walk's rules have no node."""
    keep = np.sin(rule.nodes - phi_z) > 0.0
    return Quadrature1D(rule.nodes[keep], rule.weights[keep])


def _trapezoid_count(az: float, s_max: float) -> int:
    """Half the trapezoid count for a root beyond the walk, |z| - m_r >=
    s_max: the smallest multiple N of 8 in [32, 128] with (s_max/|z|)^N <=
    e^{-37}; the walk takes 2N nodes.  The Cauchy factor
    1/(z - s e^{i phi}) is analytic in phi on a strip of half-width
    log(|z|/s_max), where the trapezoid's error falls like (s_max/|z|)^N
    (Trefethen & Weideman, SIAM Rev. 56, 2014)."""
    need = 37.0 / math.log(az / s_max)
    return min(128, max(32, 8 * math.ceil(need / 8.0)))


def _phi_edges(phi_b: float, phi_c: float, half_width: float) -> np.ndarray:
    """Panel edges on [phi_b, phi_c], graded geometrically from both ends: a
    panel starting at angular distance d from the nearer end is (d +
    half_width)/2 wide, at most 0.5, and the two sides meet in the middle.
    The Cauchy factor's pole lies half_width beyond the ends, so every
    panel sees it at twice its width.  Panels as wide as d + half_width left
    Gauss rules four orders lower short of B_n's Gaussian about a root at
    n = 50, whose angular width is 1/(sqrt(n) |z|)."""
    mid = 0.5 * (phi_c - phi_b)
    d = [0.0]
    while (width := 0.5 * (d[-1] + half_width)) < 0.5 and d[-1] + width < mid:
        d.append(d[-1] + width)
    # past the grading, panels of at most 0.5 up to the middle
    d = np.concatenate([d, np.linspace(d[-1], mid, math.ceil((mid - d[-1]) / 0.5) + 1)[1:]])
    return np.concatenate([phi_b + d, phi_c - d[-2::-1]])


def _polar_walk(source, z: complex, dbar: bool):
    """int B_n(z, w)/(z - w) dA(w), int f(w)/(z - w) dA(w) and the B_n mass
    on one grid, with f = dbar_z B_n when dbar and no f otherwise.

    The plane is split into an annular sector aligned with droplet-centered
    polar coordinates that contains the root z, and its complement.  The
    sector is integrated in z-centered polar coordinates, where the Jacobian
    cancels the Cauchy singularity exactly.  The complement is integrated in
    droplet-centered polar coordinates with radial panels graded to resolve
    the boundary belt and the heat-kernel annulus; because the excluded
    region is aligned with the coordinates, the angular integrand stays
    piecewise analytic and composite Gauss rules converge at spectral rate.
    Each of the at most three pieces is a stream of blocks of at most
    _NODE_BOUND nodes, one grid call each, reduced by the same four sums
    block by block: the sector is one flat array of nodes per block of rays
    (`berezin_flat`), a tensor piece is its angles and one block of its radii
    at a time (`berezin_blocks`).  The pieces first drop the nodes (rings)
    where the source's log_envelope, the same with or without dbar, is
    below -_NEGLIGIBLE: every dropped term is below e^{-80}.

    Beside an annular sector the full rays take Gauss panels in phi graded
    from its edges (`_phi_edges`), at most 0.5 wide, for every source.  With
    no sector, a rotation-invariant source takes the periodic trapezoid on
    2N nodes, N from log(|z|/s_max) (`_trapezoid_count`): its B_n(z, s e^{i
    phi}) is |sum_k c_k (|z| s e^{-i phi})^k|^2 times a radial weight, whose
    angular modes fall like those of the Cauchy factor where B_n has its
    mass.  Any other source keeps _N_THETA trapezoid nodes there: its B_n
    has angular structure of its own (the harmonic measure of an ellipse
    has poles a fixed distance off the real phi axis, whatever z), which
    the root does not size.  The disc about the origin keeps _N_THETA nodes.
    The sector's own angular panels grow like sqrt(n) from n = 3200.

    The source's rotation_order also folds the walk across the root's axis (see the
    module): the sector, its pieces and the phi panels are symmetric about
    it by construction, the periodic trapezoid is placed so, and no node of
    these even-order rules lies on it.  A rotation-invariant source is
    evaluated on one mirror half (`_mirror_half`); the sums add the other.

    Returns (cauchy, integral, l1, spec): the integrals of B_n and of f (0
    without f), l1 the sum of the moduli of the f integral's node terms,
    and spec.mass the same-grid mass, whose error sizes `loop_residual`'s budget.
    """
    n = source.n
    check_scale(extent(z))  # DomainError, not the OverflowError of abs(z)
    r_out, s_max = source.outer_radius, source.s_max
    fine = min(0.25, 1.5 / math.sqrt(n))

    m_r = 0.15
    az = abs(z)
    phi_z = math.atan2(z.imag, z.real)
    invariant = source.rotation_order == math.inf
    half = (lambda rule: _mirror_half(rule, phi_z)) if invariant else (lambda rule: rule)
    have_sector = az - m_r < s_max
    pieces = []
    if have_sector:
        if az < 2.2 * m_r:
            s_a, s_b = 0.0, az + m_r
            phi_a = phi_b = 0.0
        else:
            s_a, s_b = az - m_r, az + m_r
            half_phi = m_r / az
            phi_a, phi_b = phi_z - half_phi, phi_z + half_phi
        if az < s_max:
            s_b = min(s_b, s_max)  # the tensor pieces end at s_max
        # three angular panels per corner piece up to n = 3200, then growing like
        # sqrt(n): the directions cross the belt about the droplet's boundary,
        # across which B_n varies on the scale n^{-1/2}
        per_piece = max(3, math.ceil(3.0 * math.sqrt(n / 3200.0)))
        pieces.append(_sector(source, z, dbar, s_a, s_b, phi_a, phi_b, fine, per_piece, half))

    # droplet-centered complement
    coarse = 0.25
    bands = [(r_out, min(0.35, r_out))]
    if have_sector:
        bands.append((az, m_r + 6.0 / math.sqrt(n)))
    base_edges = _graded_edges(s_max, bands, fine, coarse)
    if have_sector and s_a > 0:
        # full rays outside the sector's angular range, Gauss panels in phi
        phi_c = phi_a + 2.0 * math.pi
        rules = [(composite_gauss(12, _phi_edges(phi_b, phi_c, half_phi)),
                  composite_gauss(16, base_edges))]
        # rays through the sector's angular range, radial band excluded
        edges = np.unique(np.concatenate([base_edges, [s_a, min(s_b, s_max)]]))
        skip = lambda a, b: a >= s_a - 1e-15 and b <= min(s_b, s_max) + 1e-15
        rules.append((composite_gauss(12, np.linspace(phi_a, phi_b, 5)),
                      composite_gauss(16, edges, skip=skip)))
    else:
        # no sector, or the sector is the full disc s <= s_b: every ray is
        # treated alike and the periodic trapezoid applies
        if have_sector:
            edges = np.unique(np.concatenate([base_edges, [min(s_b, s_max)]]))
            skip = lambda a, b: b <= min(s_b, s_max) + 1e-15
            radial = composite_gauss(16, edges, skip=skip)
            n_trap = _N_THETA // 2
        else:
            radial = composite_gauss(16, base_edges)
            n_trap = _trapezoid_count(az, s_max) if invariant else _N_THETA // 2
        trap = quad_trapezoid_periodic(2 * n_trap)
        if invariant:
            # symmetric about the root's axis, with no node on it; the offsets beta from
            # its normal come in exact +- pairs, which keeps the kept half's sums at the
            # root 0, where they cancel, to 1e-15 (nodes counted from phi_z left 2e-15)
            m = trap.nodes.size
            beta = np.pi * (2 * np.arange(m) + 1 - m // 2) / m
            trap = Quadrature1D(phi_z + (0.5 * np.pi + beta), trap.weights)
        rules = [(trap, radial)]
    pieces += [_tensor(source, z, dbar, half(angular), radial) for angular, radial in rules]

    cauchy = integral = 0j
    mass = l1 = 0.0
    n_nodes = 0
    for b, f, area, kern in chain(*pieces):  # the generators run one block at a time
        # pairwise ndarray sums: BLAS dot products round up to 1e-14 worse here
        cauchy += complex((b * kern).sum())
        mass += float(np.multiply(b, area, out=area).sum())
        if f is not None:
            np.multiply(f, kern, out=kern)
            integral += complex(kern.sum())
            l1 += float(np.abs(kern).sum())
        n_nodes += b.size
        del b, f, area, kern  # free this block's arrays before the next grid call
    if invariant:
        # add each node's mirror: the same B, f' = e^{2i phi_z} conj(f) and the
        # Cauchy weight e^{-2i phi_z} conj(k), so pairs sum to e^{-i phi_z} times a real
        u = cmath.exp(1j * phi_z)
        cauchy = 2.0 * (u * cauchy).real * u.conjugate()
        integral, mass, l1 = 2.0 * integral.real, 2.0 * mass, 2.0 * l1
    if mass <= 0:
        raise PrecisionError("Berezin mass quadrature collapsed to zero")
    # n_theta: the angular rule of the full rays, the first tensor piece
    return cauchy / math.pi, integral / math.pi, l1 / math.pi, QuadSpec(
        n_theta=rules[0][0].nodes.size, n_radial=n_nodes, mass=mass / math.pi)


def berezin_cauchy_transform(source, z: complex, with_spec: bool = False):
    """mu_{n,z}(k_z) = integral of B_n(z, w)/(z - w) dA(w), mass-normalized
    on the polar grid of `_polar_walk`."""
    z = complex(z)
    cauchy, _, _, spec = _polar_walk(source, z, dbar=False)
    return (cauchy / spec.mass, spec) if with_spec else cauchy / spec.mass


@dataclass(frozen=True)
class LoopResidual:
    n: int
    z: complex
    lhs: complex       # R_n + integral of dbar_z B_n(z, w)/(z - w) dA(w)
    rhs: float         # R_n - n LapQ - Lap log R_n = R_n - Lap log k_n
    residual: complex
    budget: float      # |mass - 1| l1/mass + rounding floor, see loop_residual
    quad_spec: QuadSpec
    cauchy_transform: complex  # berezin_cauchy_transform(source, z), same walk


def loop_residual(source, z: complex) -> LoopResidual:
    """Residual of the loop equation with an explicit numerical budget.

    The left side and the budget come from the one walk of
    `berezin_cauchy_transform`.  With l1 its sum of |f-integral terms| and
    mass its same-grid mass of B_n (exactly 1), budget = |mass - 1| l1/mass
    + value_error(z) (l1/mass + R_n + |Lap log k_n|): the walk's exact error
    on the integral of B_n, scaled by the sums, plus a rounding floor.
    The walk integrates B_n/(z - w) on
    the same nodes, and `berezin_flat` and `berezin_blocks` return the
    same B with or without dbar_z B (for Ginibre, e_n = t (1 + s1) and
    e_{n-1} = t s1 outside |n z w~| = n, so r = s1/(1 + s1) needs no
    s - 1), so `cauchy_transform` is `berezin_cauchy_transform(source, z)`
    bit for bit.
    """
    z = complex(z)
    cauchy, integral, l1, spec = _polar_walk(source, z, dbar=True)
    r_n = math.exp(source.log_one_point(z))
    lap_log = source.lap_log_kernel(z)
    lhs = r_n + integral / spec.mass
    rhs = r_n - lap_log
    sums = l1 / spec.mass
    budget = abs(spec.mass - 1.0) * sums + source.value_error(z) * (sums + r_n + abs(lap_log))
    return LoopResidual(
        n=source.n, z=z, lhs=lhs, rhs=rhs, residual=lhs - rhs,
        budget=budget, quad_spec=spec, cauchy_transform=cauchy / spec.mass,
    )


# ---------------------------------------------------------------------------
# Limit objects: two-term expansion and harmonic-measure comparison
# ---------------------------------------------------------------------------


def _exterior_point(z: complex):
    """(z, |z|^2); DomainError unless 1 < |z|^2 < inf (so never at a nan or inf z)."""
    z = complex(z)
    r2 = z.real * z.real + z.imag * z.imag
    if not 1.0 < r2 < math.inf:
        raise DomainError(f"the exterior expansion needs 1 < |z| < the overflow scale, got {z}")
    return z, r2


def ginthm_leading(z: complex) -> complex:
    z, r2 = _exterior_point(z)
    return z.conjugate() / (r2 - 1.0)


def ginthm_second_coeff(z: complex) -> complex:
    z, r2 = _exterior_point(z)
    q = 1.0 / (r2 - 1.0)  # one factor at a time: (r2 - 1)^3 overflows from |z| ~ 1e51
    return -z.conjugate() * q * ((r2 + 1.0) * q) * q


def ginthm_two_term(n: int, z: complex) -> complex:
    """Two-term exterior expansion of the Ginibre Berezin Cauchy transform."""
    check_n(n)
    return ginthm_leading(z) + ginthm_second_coeff(z) / n


@dataclass(frozen=True)
class HarmonicLimitReport:
    z: complex
    omega_cauchy: complex       # omega_z(k_z) by boundary quadrature
    gradient_term: complex      # d/dz log(|phi(z)|^2 - 1)
    H: complex                  # difference; O(z^-2) at infinity
    ring_values: tuple          # |H| at |z| = 5 and 10 along arg z, for the decay check


def harmonic_limit_check(pot: AdmissiblePotential, z: complex,
                         nodes: int = 512) -> HarmonicLimitReport:
    """Compare omega_z(k_z) against the conformal gradient term.

    The difference H(z) vanishes identically for rotation-invariant
    potentials and decays like z^{-2} in general.
    """
    z = complex(z)

    def h_at(point: complex):
        omega_val = harmonic_measure_integral(
            pot, point, lambda p: 1.0 / (point - p), nodes=nodes
        )
        e = pot.exterior(point, 1.0)
        grad = e.dphi * e.phi.conjugate() / (abs(e.phi) ** 2 - 1.0)
        return omega_val - grad, omega_val, grad

    H, omega_val, grad = h_at(z)
    direction = z / abs(z) if z != 0 else 1.0
    ring_values = tuple(abs(h_at(r * direction)[0]) for r in (5.0, 10.0))
    return HarmonicLimitReport(z=z, omega_cauchy=omega_val, gradient_term=grad,
                               H=H, ring_values=ring_values)
