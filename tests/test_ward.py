import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    make_radial,
    orthonormalize,
)
from wpkernel import ginibre_exact
from wpkernel.ginibre_exact import GinibreRoot
from wpkernel.ortho_oracle import _poly_derivatives, _poly_values, kernel_oracle
from wpkernel.potential import RADIAL_PROFILES
from wpkernel import ward
from wpkernel.ward import _polar_walk, ginthm_leading, ginthm_second_coeff

_EPS = 2.3e-16


# The finite-difference route of the loop equation, kept as a test oracle
# for the closed forms of the library: centred stencils for dbar of the
# Cauchy transform and for Lap log R_n, with a Richardson step-halving budget.


def _dbar_stencil(source, z: complex, h: float) -> complex:
    mu = lambda p: berezin_cauchy_transform(source, p)
    dx = (mu(z + h) - mu(z - h)) / (2.0 * h)
    dy = (mu(z + 1j * h) - mu(z - 1j * h)) / (2.0 * h)
    return 0.5 * (dx + 1j * dy)


def _lap_log_R(source, z: complex, h: float) -> float:
    f = source.log_one_point
    return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4.0 * f(z)) / (4.0 * h * h)


def _stencil_route(source, z: complex, lap_q: float):
    """(lhs, rhs, budget) of the loop equation by finite differences.

    The step is 0.1/n within 0.2 of the droplet boundary and 0.01/sqrt(n)
    elsewhere; the budget is the Richardson estimate of the halved step plus
    the rounding amplified through the 1/h and 1/h^2 stencils.
    """
    z = complex(z)
    n = source.n
    near_boundary = abs(abs(z) - source.outer_radius) < 0.2
    h = 0.1 / n if near_boundary else 0.01 / math.sqrt(n)
    lhs, lhs_half = _dbar_stencil(source, z, h), _dbar_stencil(source, z, 0.5 * h)
    lap, lap_half = _lap_log_R(source, z, h), _lap_log_R(source, z, 0.5 * h)
    r_n = math.exp(source.log_one_point(z))
    fd_budget = abs(lhs - lhs_half) / 2.0 + abs(lap - lap_half) / 2.0
    fp_floor = 8.0 * _EPS * (abs(lhs_half) + 1.0) / (0.5 * h) \
        + 8.0 * _EPS * (abs(source.log_one_point(z)) + 1.0) / (0.25 * h * h)
    return lhs_half, r_n - n * lap_q - lap_half, fd_budget + fp_floor


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


def _mp_ginibre_transform(n: int, z: complex) -> complex:
    """The Ginibre Berezin Cauchy transform in closed form at 40 digits:
    C_n(z) = P(n, x) (n - x r(x)) / z, x = n|z|^2, P = 1 - Q(n, x) and
    r = Q(n-1, x)/Q(n, x) = e_{n-1}/e_n, Q the regularised upper gamma
    function (r = 0 at n = 1, where e_0 = 0)."""
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        x = n * abs(z) ** 2
        q = lambda a: mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        q_n = q(n)
        r = q(n - 1) / q_n if n > 1 else 0
        return complex((1 - q_n) * (n - x * r) / z)


@pytest.mark.parametrize("n", [1, 10, 50, 200, 800, 3200])
def test_exterior_transform_matches_closed_form(n):
    # roots beyond the walk, s_max + 0.16 <= |z| <= s_max + 2.5, where the
    # full rays take the periodic trapezoid sized from log(|z|/s_max)
    src = GinibreSource(n)
    rng = np.random.default_rng(4000 + n)
    for radius, angle in zip(rng.uniform(src.s_max + 0.16, src.s_max + 2.5, 5),
                             rng.uniform(0.0, 2.0 * math.pi, 5)):
        z = cmath.rect(radius, angle)
        want = _mp_ginibre_transform(n, z)
        assert abs(berezin_cauchy_transform(src, z) - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n", [10_000, 30_000])
def test_rim_transform_at_large_n(n):
    # the sector's angular panels grow like sqrt(n); with three per corner
    # piece the mass missed 1 by 7e-10 at n = 1e4 and 6e-6 at n = 3e4.  The
    # mass also carries the rounding of its exponents, of size n|z|^2, half
    # a unit in their last place: 1.8e-12 at n = 3e4, whatever the Gauss
    # orders or panel widths, so the 1e-12 gate holds to n = 1e4 and the
    # rounding floor is the gate beyond
    src = GinibreSource(n)
    for radius in (1.02, 1.05):
        z = cmath.rect(radius, 0.9)
        mu, spec = berezin_cauchy_transform(src, z, with_spec=True)
        floor = 0.0 if n <= 10_000 else 0.5 * _EPS * n * radius ** 2
        assert abs(spec.mass - 1.0) <= 1e-12 + floor
        want = _mp_ginibre_transform(n, z)
        assert abs(mu - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [1, 2, 50, 800, 3200, 100_000])
def test_log_envelope_bounds_every_ring(n):
    # the walk drops the nodes where the envelope is below -80, so it must
    # bound B_n and |dbar_z B_n| on the whole ring |w| = s, up to rounding
    src = GinibreSource(n)
    angles = 2.0 * math.pi * np.arange(2048) / 2048
    rng = np.random.default_rng(6000 + n)
    radii = np.concatenate([[0.0, src.s_max], rng.uniform(0.0, src.s_max, 30)])
    for az in (0.0, 0.5, 0.99, 1.02, 1.05, src.s_max + 0.5):
        z = cmath.rect(az, rng.uniform(0.0, 2.0 * math.pi))
        b, f = src.berezin_tensor(z, angles, radii, True)
        with np.errstate(divide="ignore"):
            log_b, log_f = np.log(b.max(axis=1)), np.log(np.abs(f).max(axis=1))
        slack = 16.0 * _EPS * (1.0 + n * (az + src.s_max) ** 2)
        assert np.all(log_b <= GinibreRoot(n, z).log_berezin_bound(radii) + slack)
        envelope = src.log_envelope(z, radii)
        assert np.all(np.maximum(log_b, log_f) <= envelope + slack)


def _keep_every_node(self, z, abs_w):
    """A log_envelope under which no node is negligible."""
    return np.full(np.shape(abs_w), math.inf)


@pytest.mark.parametrize("n", [50, 800, 3200, 10_000])
def test_pruned_walk_matches_the_full_walk(n, monkeypatch):
    # the nodes the envelope drops carry less than e^{-80}: against the walk
    # that evaluates every node, transforms move by rounding only and loop
    # budgets by at most 1%
    src = GinibreSource(n)
    rng = np.random.default_rng(7000 + n)
    outside = [cmath.rect(r, a) for r, a in zip((1.02, 1.05, src.s_max + 0.3),
                                                  rng.uniform(0.0, 2.0 * math.pi, 3))]
    inside = [cmath.rect(r, a) for r, a in zip(rng.uniform(0.0, 0.9, 2),
                                                 rng.uniform(0.0, 2.0 * math.pi, 2))]
    roots = outside + inside
    pruned = [berezin_cauchy_transform(src, z, with_spec=True) for z in roots]
    loops = [loop_residual(src, z).budget for z in roots[::2]]
    monkeypatch.setattr(GinibreSource, "log_envelope", _keep_every_node)
    for z, (mu, spec) in zip(roots, pruned):
        want, full = berezin_cauchy_transform(src, z, with_spec=True)
        assert spec.n_radial < full.n_radial
        tol = 1e-14 * abs(want) if z in outside else 4.0 * _EPS * n
        assert abs(mu - want) <= tol
    for z, budget in zip(roots[::2], loops):
        assert loop_residual(src, z).budget == pytest.approx(budget, rel=0.01)


@pytest.mark.parametrize("n", [10, 50, 200, 800, 3200])
def test_interior_transform_floor(n):
    # inside the droplet the transform is exponentially small, and the walk
    # leaves the rounding of its O(n) exponents: about eps n absolute, not
    # the 1e-13 of the exterior (1.6e-12 at n = 3200)
    src = GinibreSource(n)
    rng = np.random.default_rng(5000 + n)
    for radius, angle in zip(rng.uniform(0.0, 0.9, 4), rng.uniform(0.0, 2.0 * math.pi, 4)):
        z = cmath.rect(radius, angle)
        assert abs(berezin_cauchy_transform(src, z) - _mp_ginibre_transform(n, z)) <= 4 * _EPS * n


@pytest.mark.parametrize("z", [cmath.rect(1.05, 0.9), 0.1 + 0.05j])
def test_sector_blocks_match_one_block(z, monkeypatch):
    # blocks of one ray (and tensor blocks of one ring) must give the same
    # nodes and the same integrals as the default blocks, up to the order of
    # summation
    src = GinibreSource(800)
    whole = loop_residual(src, z)
    monkeypatch.setattr(ward, "_NODE_BOUND", 7)
    blocked = loop_residual(src, z)
    assert blocked.quad_spec.n_radial == whole.quad_spec.n_radial
    assert abs(blocked.residual) <= blocked.budget
    assert abs(blocked.lhs - whole.lhs) <= whole.budget
    # inside the droplet the transform is at its rounding floor, eps n
    mu = whole.cauchy_transform
    assert abs(blocked.cauchy_transform - mu) <= 1e-14 * abs(mu) + 4.0 * _EPS * src.n


def test_walk_memory_is_bounded_at_large_n():
    # the sector goes in blocks of rays and the dead nodes are dropped before
    # any grid call; with the whole sector built at once, 763 MB were traced
    n, z = 1_000_000, cmath.rect(1.05, 0.9)
    tracemalloc.start()
    try:
        mu, spec = berezin_cauchy_transform(GinibreSource(n), z, with_spec=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    # to the rounding floor of the exponents n|z|^2 (`test_rim_transform_at_large_n`)
    want = _mp_ginibre_transform(n, z)
    assert abs(mu - want) <= (1e-12 + 0.5 * _EPS * n * abs(z) ** 2) * abs(want)


@pytest.mark.parametrize("family,n", [("ginibre", 50), ("quartic", 20), ("elliptic(1,3)", 20)])
def test_walk_is_the_same_in_blocks_of_one_ring(family, n, monkeypatch):
    # with one ring (and one sector panel) per block, every piece goes in
    # many blocks, and the Ginibre ring sums in chunks of one term with their
    # giant steps: the same nodes and the same integrals up to rounding.  The
    # transform moves by 1e-14 relative outside the droplet and by eps n
    # inside, where it is at its rounding floor.  The loop's left side sums
    # terms that cancel (to 1/4 of their moduli at the elliptic root beyond
    # the walk, whose Gram sums also round with their condition): it moves
    # by at most 5% of the residual's budget (up to 0.9% measured)
    src = _walk_source(family, n)
    roots = [0.5 * cmath.exp(0.4j), 0.9 * cmath.exp(2.1j), 1.03 * cmath.exp(-1.0j),
             (src.s_max + 0.5) * cmath.exp(0.3j)]
    roots = [src.outer_radius * z for z in roots[:3]] + roots[3:]
    whole = [loop_residual(src, z) for z in roots]
    monkeypatch.setattr(ward, "_NODE_BOUND", 1)
    for z, lr in zip(roots, whole):
        blocked = loop_residual(src, z)
        assert blocked.quad_spec.n_radial == lr.quad_spec.n_radial
        assert abs(blocked.residual) <= blocked.budget
        inside = abs(z) < src.outer_radius
        tol = 4.0 * _EPS * n if inside else 1e-14 * abs(lr.cauchy_transform)
        assert abs(blocked.cauchy_transform - lr.cauchy_transform) <= tol
        assert abs(blocked.residual - lr.residual) <= 0.05 * lr.budget


@pytest.mark.parametrize("family,n,z", [("elliptic(1,3)", 40, 2.0 + 0.5j),
                                        ("ginibre", 100_000, 1.0005)])
def test_walk_memory_is_bounded_by_the_node_bound(elliptic_bases, family, n, z):
    # a walk holds one block of _NODE_BOUND nodes at a time, and what a piece
    # forms once, whatever its node count: 52k nodes for the elliptic Gram
    # source, 119k at the Ginibre rim (97k of them in the sector)
    if family == "ginibre":
        src = GinibreSource(n)
    else:
        ell, bases = elliptic_bases
        src = OracleSource(bases[n], ell)
    tracemalloc.start()
    try:
        lr = loop_residual(src, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lr.quad_spec.n_radial > 50_000
    assert abs(lr.residual) <= lr.budget
    assert peak < 4e6


@pytest.mark.parametrize("family", ["elliptic(1,3)", "quartic"])
def test_far_transform_matches_finer_trapezoid(family, monkeypatch):
    # beyond the walk, a rotation-invariant source takes a trapezoid sized
    # from log(|z|/s_max) and any other source keeps 256 nodes: the
    # harmonic measure of the ellipse has poles 0.35 off the real phi axis
    # whatever z, so 64 nodes erred by 2e-10 at |z| = 3.5 s_max.  Both are
    # held to the walk on 512 nodes
    src = _walk_source(family, 40)
    roots = [cmath.rect(f * src.s_max, a) for f, a in ((2.0, 0.4), (3.5, 1.1), (3.5, 0.0))]
    got = [berezin_cauchy_transform(src, z) for z in roots]
    monkeypatch.setattr(ward, "_N_THETA", 512)
    monkeypatch.setattr(ward, "_trapezoid_count", lambda az, s_max: 256)
    for z, mu in zip(roots, got):
        want, spec = berezin_cauchy_transform(src, z, with_spec=True)
        assert spec.n_theta == 512
        assert abs(mu - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_elliptic_phi_panels_match_even_panels(n, monkeypatch):
    # beside the sector a non-invariant source takes the same graded phi
    # panels as a rotation-invariant one; at the elliptic Gram source they
    # meet 512 even panels, with roots in the bulk and within 0.3 of s_max
    src = make_elliptic_ginibre(1.0, 3.0).exact_source(n)
    rng = np.random.default_rng(3000 + n)
    roots = [cmath.rect(r * src.outer_radius, a)
             for r, a in zip(rng.uniform(0.3, 2.0, 4), rng.uniform(0.0, 2.0 * math.pi, 4))]
    roots += [cmath.rect(src.s_max - d, a)
              for d, a in zip(rng.uniform(0.0, 0.3, 2), rng.uniform(0.0, 2.0 * math.pi, 2))]
    got = [loop_residual(src, z) for z in roots]
    monkeypatch.setattr(ward, "_phi_edges", lambda a, b, half_width: np.linspace(a, b, 513))
    for z, lr in zip(roots, got):
        assert abs(lr.residual) <= lr.budget
        want, spec = berezin_cauchy_transform(src, z, with_spec=True)
        assert spec.n_theta == 512 * 12
        assert abs(lr.cauchy_transform - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z,parent_budget", [
    (1.23, 8.1e-13), (0.89 * cmath.exp(1j), 2.7e-11), (0.77j, 1.5e-11), (0.5, 1.3e-11),
])
def test_sector_budget_keeps_measuring_the_walk(z, parent_budget):
    # beside the sector the phi panels are graded at half the distance to
    # the sector's pole, so the walk resolves B_n's bulk Gaussian at n = 50;
    # the budget stays within a quarter above that of a walk with 32 even
    # panels there (parent_budget)
    lr = loop_residual(GinibreSource(50), z)
    assert abs(lr.residual) <= lr.budget <= 1.25 * parent_budget


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


@pytest.mark.parametrize("n,z", [(1, 1.5 + 0.5j), (2, 0.5)])
def test_loop_residual_smallest_n(n, z):
    # n = 1: e_0 = 0, so r = 0 and k_1 = 1; n = 2: k_2(z, z) = 2 (1 + 2|z|^2)
    src = GinibreSource(n)
    lr = loop_residual(src, z)
    assert math.isfinite(abs(lr.lhs)) and math.isfinite(lr.rhs)
    assert abs(lr.residual) <= lr.budget
    lap = [src.lap_log_kernel(r) for r in (0.7, 1.5)]
    if n == 1:
        assert lap == [0.0, 0.0]
    else:
        assert lap == pytest.approx([2.0 / (1.0 + 2.0 * r * r) ** 2 for r in (0.7, 1.5)],
                                    rel=1e-14)


@pytest.mark.parametrize("call", [
    lambda: GinibreSource(0),
    lambda: GinibreSource(2.5),
    lambda: loop_residual(GinibreSource(50), float("nan")),
    lambda: berezin_cauchy_transform(GinibreSource(5), complex(1.5e308, 1.5e308)),
], ids=["ginibre-n0", "ginibre-fractional-n", "loop-nan-root", "transform-overflow-root"])
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: ginthm_two_term(0, 2.0),
    lambda: ginthm_two_term(-1, 2.0),
    lambda: ginthm_two_term(50, float("nan")),
    lambda: ginthm_two_term(50, complex(2.0, math.inf)),
    lambda: ginthm_leading(1e200),
    lambda: ginthm_second_coeff(1e200),
], ids=["n0", "n-negative", "nan-root", "inf-root", "leading-overflow", "second-overflow"])
def test_limit_objects_raise_domain_error(call):
    # never ZeroDivisionError, a raw OverflowError or a nan value
    with pytest.raises(DomainError):
        call()


def test_two_term_below_the_overflow_scale():
    # |z|^2 is finite at 1e150, but (|z|^2 - 1)^3 would overflow
    assert ginthm_leading(1e150) == pytest.approx(1e-150, rel=1e-14)
    assert ginthm_second_coeff(1e150) == 0.0


_QUARTIC = RADIAL_PROFILES["quartic"]


def _walk_source(family, n):
    if family == "ginibre":
        return GinibreSource(n)
    pot = make_elliptic_ginibre(1.0, 3.0) if family == "elliptic(1,3)" else make_radial(_QUARTIC)
    return OracleSource(orthonormalize(compute_moments(pot, n, n - 1)), pot)


@pytest.mark.parametrize("family,n", [("ginibre", n) for n in (1, 2, 50, 800, 3200)]
                         + [(f, n) for f in ("elliptic(1,3)", "quartic") for n in (20, 40)])
def test_walk_ends_where_the_one_point_function_vanishes(family, n):
    # B_n(z, w) <= R_n(w), so nothing the walk leaves out exceeds e^{-80},
    # and the walk never runs past r_out + 12/sqrt(n)
    src = _walk_source(family, n)
    assert src.s_max <= src.outer_radius + 12.0 / math.sqrt(n)
    circle = src.s_max * np.exp(2j * math.pi * np.arange(512) / 512)
    assert max(src.log_one_point(w) for w in circle) <= -80.0


@pytest.mark.parametrize("family,n", [("ginibre", n) for n in (1, 2, 50, 800, 3200)]
                         + [("quartic", 20)])
def test_berezin_grids_are_mirror_symmetric(family, n):
    # the walk's fold: for a rotation-invariant weight the reflection
    # R w = e^{2i phi_z} conj(w) across the line through 0 and z is an
    # antiholomorphic isometry that fixes z and Q, so B_n(z, R w) = B_n(z, w)
    # and dbar_z B_n(z, R w) = e^{2i phi_z} conj dbar_z B_n(z, w).  Flat and
    # tensor routes, at the root 0, in the disc sector's and the annular
    # sector's range and beyond s_max, up to the rounding of exponents of
    # size n (|z| + s_max)^2
    src = _walk_source(family, n)
    assert src.rotation_order == math.inf
    rng = np.random.default_rng(8000 + n)
    for az in (0.0, 0.2, 0.5, 0.99, 1.05, src.s_max + 0.3):
        z = cmath.rect(az, rng.uniform(0.0, 2.0 * math.pi))
        phi = math.atan2(z.imag, z.real)
        rot = cmath.exp(2j * phi)
        ws = rng.uniform(0.0, src.s_max, 300) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 300))
        alpha, radii = rng.uniform(0.0, math.pi, 40), rng.uniform(0.0, src.s_max, 30)
        rings = [[g.ravel() for g in src.berezin_tensor(z, phi + sign * alpha, radii, True)]
                 for sign in (1.0, -1.0)]
        tol = src.value_error(z) + 16.0 * _EPS * (1.0 + n * (az + src.s_max) ** 2)
        for w, (b, f), (b_m, f_m) in (
                (ws, src.berezin_flat(z, ws, True), src.berezin_flat(z, rot * np.conj(ws), True)),
                ((radii[:, None] * np.exp(1j * (phi + alpha))).ravel(), *rings)):
            # 1e-300: a node at an underflow cut may round to either side
            assert np.all(np.abs(b_m - b) <= tol * b + 1e-300)
            scale = n * b * (np.abs(w) + az) + np.abs(f)
            assert np.all(np.abs(f_m - rot * np.conj(f)) <= tol * scale + 1e-300)


@pytest.mark.parametrize("family,n,z,parent_nodes", [
    ("ginibre", 1, 0.0, 155_136), ("ginibre", 50, 0.2j, 31_808), ("ginibre", 50, 0.5, 38_904),
    ("ginibre", 800, 2.0, 24_000), ("ginibre", 3200, cmath.rect(1.05, 0.9), 53_572),
    ("quartic", 20, 0.3 + 0.1j, 33_472), ("quartic", 20, 2.0 + 0.5j, 47_232),
    ("elliptic(1,3)", 40, 0.3 + 0.1j, 37_808), ("elliptic(1,3)", 40, 2.0 + 0.5j, 52_224),
    ("elliptic(1,3)", 40, 8.0, 40_960),
])
def test_folded_walk_evaluates_one_mirror_half(family, n, z, parent_nodes):
    # a rotation-invariant source evaluates one mirror half of the layout
    # the walk evaluated before the fold (parent_nodes): no rule has a node
    # on the root's axis; the elliptic source keeps the whole layout, with
    # the same graded phi panels beside the sector
    src = _walk_source(family, n)
    spec = berezin_cauchy_transform(src, z, with_spec=True)[1]
    folded = src.rotation_order == math.inf
    assert spec.n_radial == (parent_nodes // 2 if folded else parent_nodes)


@pytest.mark.parametrize("family,n", [("ginibre", 1), ("ginibre", 50), ("ginibre", 800),
                                      ("quartic", 20)])
def test_folded_walk_is_real_along_the_root(family, n):
    # each mirror pair's Cauchy weights sum to e^{-i phi_z} times a real
    # number, so z C_n(z) is real up to the rounding of that factor, and the
    # pairs of the f integral sum to reals: the left side of the loop
    # equation has no imaginary part beyond its rounding floor
    src = _walk_source(family, n)
    rng = np.random.default_rng(9000 + n)
    for radius, angle in zip(rng.uniform(0.0, src.s_max + 1.0, 5),
                             rng.uniform(0.0, 2.0 * math.pi, 5)):
        z = cmath.rect(radius, angle)
        lr = loop_residual(src, z)
        zc = z * lr.cauchy_transform
        assert abs(zc.imag) <= 8.0 * _EPS * abs(zc)
        assert abs(lr.lhs.imag) <= src.value_error(z) * (abs(lr.lhs) + abs(lr.rhs))
        assert abs(lr.residual) <= lr.budget


@pytest.mark.parametrize("source_name,z", [
    ("ginibre", 0.5), ("ginibre", 1.5), ("oracle", 2.0 + 0.5j),
])
def test_exact_route_matches_stencil(elliptic_bases, source_name, z):
    if source_name == "ginibre":
        src, lap_q = GinibreSource(50), 1.0
    else:
        ell, bases = elliptic_bases
        src, lap_q = OracleSource(bases[20], ell), ell.laplacian(z)
    lhs, rhs, budget = _stencil_route(src, z, lap_q)
    lr = loop_residual(src, z)
    assert abs(lr.lhs - lhs) <= budget
    assert abs(lr.rhs - rhs) <= budget
    if source_name == "ginibre":
        # criterion 11's points: no finite-difference error left
        assert abs(lr.residual) <= 1e-11


@pytest.mark.parametrize("n", [25, 100])
def test_lap_log_kernel_outer_side_matches_mpmath(n):
    # Lap g(|z|^2) = (s g'(s))' for radial g; k_n(z, z) = n e_n(n |z|^2)
    with mpmath.workdps(50):
        log_e = lambda s: mpmath.log(mpmath.fsum(
            (n * s) ** k / mpmath.factorial(k) for k in range(n)))
        for s in (1.05, 1.2, 2.25):
            ref = mpmath.diff(lambda t: t * mpmath.diff(log_e, t), mpmath.mpf(s))
            val = GinibreSource(n).lap_log_kernel(math.sqrt(s))
            assert abs(val / float(ref) - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [2, 25, 400])
def test_lap_log_kernel_inner_rim_matches_mpmath(n):
    # Lap log k_n(z, z) is the variance of k under (n|z|^2)^k/k!, k < n,
    # over |z|^2; just inside |z| = 1 the truncated-Poisson closed form
    # cancels, and the window variance must take over
    with mpmath.workdps(50):
        for s in (0.6, 0.9, 0.95, 0.99, 0.999):
            x = n * mpmath.mpf(s)
            w = [x ** k / mpmath.factorial(k) for k in range(n)]
            mean = mpmath.fsum(k * wk for k, wk in enumerate(w)) / mpmath.fsum(w)
            var = mpmath.fsum((k - mean) ** 2 * wk for k, wk in enumerate(w)) / mpmath.fsum(w)
            val = GinibreSource(n).lap_log_kernel(math.sqrt(s))
            assert abs(val / float(var / s) - 1.0) <= 5e-14


@settings(max_examples=5, deadline=None, derandomize=True)
@given(st.floats(0.3, 2.0), st.floats(0.0, 2.0 * math.pi))
def test_loop_residual_conjugation_property(radius, angle):
    src = GinibreSource(50)
    z = cmath.rect(radius, angle)
    lr = loop_residual(src, z)
    mirror = loop_residual(src, z.conjugate())
    assert abs(mirror.lhs - lr.lhs.conjugate()) <= 1e-12
    assert abs(lr.residual) <= lr.budget
    assert abs(mirror.residual) <= mirror.budget


def _sweep_roots(n):
    # one root in the rim band 0.95 <= |z| <= 1.05 and one in 0.3 <= |z| <= 2
    rng = np.random.default_rng(1000 + n)
    radii = (rng.uniform(0.95, 1.05), rng.uniform(0.3, 2.0))
    return [cmath.rect(r, t) for r, t in zip(radii, rng.uniform(0.0, 2.0 * math.pi, 2))]


@pytest.mark.parametrize("source_name,n", [
    ("ginibre", 1), ("ginibre", 2), ("ginibre", 50), ("ginibre", 200), ("oracle", 20),
])
def test_loop_residual_budget_sweep(elliptic_bases, source_name, n):
    if source_name == "ginibre":
        src, roots = GinibreSource(n), _sweep_roots(n)
    else:
        ell, bases = elliptic_bases
        src, roots = OracleSource(bases[n], ell), [2.0 + 0.5j]
    for z in roots:
        lr = loop_residual(src, z)
        assert abs(lr.residual) <= lr.budget
        # the residual is reported on the transform's own grid, and the
        # transform is read off that walk bit for bit
        mu, spec = berezin_cauchy_transform(src, z, with_spec=True)
        assert lr.cauchy_transform == mu
        assert lr.quad_spec.n_radial == spec.n_radial
        assert lr.quad_spec.n_theta == spec.n_theta


_SWEEP_RADII = (0.0, 0.5, 0.9, 0.98, 1.02, 1.05, 1.3, 2.0)


@pytest.mark.parametrize("family,n", [("ginibre", n) for n in (1, 2, 5, 20, 50, 200, 800, 3200)]
                         + [(f, n) for f in ("quartic", "elliptic(1,3)") for n in (10, 20, 40)])
def test_one_walk_budget_bounds_the_residual(family, n):
    # the budget |mass - 1| l1/mass + rounding floor comes from the one
    # walk alone; it bounds the residual from the origin through the rim to
    # past the walk, for the exact Ginibre sums and for the Gram basis of a
    # radial and of a non-radial weight
    src = _walk_source(family, n)
    rng = np.random.default_rng(2000 + n)
    for radius in _SWEEP_RADII:
        z = cmath.rect(radius * src.outer_radius, rng.uniform(0.0, 2.0 * math.pi))
        lr = loop_residual(src, z)
        assert abs(lr.residual) <= lr.budget


def test_one_walk_budget_sees_low_order_rules(monkeypatch):
    # with the tensor Gauss rules 6 orders too low the walk's mass error
    # must reveal the defect: at least one of these 28 roots exceeds its budget
    rules = ward.composite_gauss
    monkeypatch.setattr(ward, "composite_gauss",
                        lambda order, edges, **kw: rules(order - 6, edges, **kw))
    rng = np.random.default_rng(11)
    ratios = []
    for n in (20, 50, 200, 800):
        src = GinibreSource(n)
        for radius in _SWEEP_RADII[1:]:
            lr = loop_residual(src, cmath.rect(radius, rng.uniform(0.0, 2.0 * math.pi)))
            ratios.append(abs(lr.residual) / lr.budget)
    assert max(ratios) > 1.0


def test_loop_residual_walks_once(monkeypatch):
    calls = []
    walk = ward._polar_walk
    monkeypatch.setattr(ward, "_polar_walk", lambda *a, **kw: calls.append(a) or walk(*a, **kw))
    for src, z in ((GinibreSource(50), 0.5), (_walk_source("quartic", 20), 1.2 + 0.3j)):
        calls.clear()
        loop_residual(src, z)
        assert len(calls) == 1


# what the walk may read of a source: the geometry that BerezinSource fixes
# from the weight, the two grid routes and the values at the root
_WALK_MEMBERS = {"n", "rotation_order", "outer_radius", "s_max", "log_envelope",
                 "berezin_flat", "berezin_blocks"}
_ROOT_MEMBERS = {"log_one_point", "lap_log_kernel", "value_error"}


class _ReadRecorder:
    """Forwards to a source and records the name of every member read."""

    def __init__(self, src):
        self._src, self._read = src, set()

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._src, name)


@pytest.mark.parametrize("family,n", [("ginibre", n) for n in (1, 50, 3200)]
                         + [("quartic", 20), ("elliptic(1,3)", 20)])
def test_source_contract(family, n):
    # berezin_grid is the base's view of berezin_flat, each route's B is the
    # same with or without dbar_z B (loop_residual's cauchy_transform relies
    # on it), and the walk reads nothing of a source but the contract
    src = _walk_source(family, n)
    rng = np.random.default_rng(12_000 + src.n)
    for z in (0.5 * src.outer_radius * cmath.exp(0.3j), src.outer_radius + 0.05j):
        ws = rng.uniform(0.0, src.s_max, 200) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))
        b, none = src.berezin_flat(z, ws, False)
        assert none is None
        assert np.array_equal(src.berezin_grid(z, ws), b)
        assert np.array_equal(src.berezin_flat(z, ws, True)[0], b)
        angles, radii = rng.uniform(0.0, 2.0 * math.pi, 40), rng.uniform(0.0, src.s_max, 30)
        b, none = src.berezin_tensor(z, angles, radii, False)
        assert none is None
        assert np.array_equal(src.berezin_tensor(z, angles, radii, True)[0], b)

        rec = _ReadRecorder(src)
        berezin_cauchy_transform(rec, z)
        assert rec._read == _WALK_MEMBERS
        rec = _ReadRecorder(src)
        loop_residual(rec, z)
        assert rec._read == _WALK_MEMBERS | _ROOT_MEMBERS


def test_oracle_source_refuses_another_potential():
    # the basis gives the polynomials and pot the weight: a mismatched pair
    # would walk the Ginibre basis under the elliptic weight without a sign
    gin, ell = make_ginibre(), make_elliptic_ginibre(1.0, 3.0)
    basis = orthonormalize(compute_moments(gin, 20, 19))
    with pytest.raises(DomainError):
        OracleSource(basis, ell)
    assert OracleSource(basis, gin).pot is gin


class _UnitSource:
    """B = 1 and f = e^{i arg z} on every node, as a rotation-invariant source's
    f(R w) = e^{2i arg z} conj f(w) allows under the reflection R across the
    root's axis; records the node count of each grid call and the angles of
    each tensor call."""

    outer_radius = 1.0
    rotation_order = math.inf

    def __init__(self, n):
        self.n = n
        self.s_max = 1.0 + 12.0 / math.sqrt(n)
        self.sizes, self.tensor_angles = [], []

    def f_value(self, z):
        return cmath.exp(1j * math.atan2(z.imag, z.real))

    def berezin_flat(self, z, ws, dbar):
        self.sizes.append(ws.size)
        return np.ones(ws.shape), np.full(ws.shape, self.f_value(z))

    log_envelope = _keep_every_node

    def berezin_blocks(self, z, angles, radii, dbar):
        # the whole tensor as one block
        self.sizes.append(angles.size * radii.size)
        self.tensor_angles.append(angles)
        shape = (radii.size, angles.size)
        yield slice(None), np.ones(shape), np.full(shape, self.f_value(z))


class _NonInvariantUnitSource(_UnitSource):
    """B = f = 1 for a source that is not rotation-invariant: the walk is not
    folded and evaluates every node; only its trapezoid for a root beyond
    the walk keeps a fixed node count."""

    rotation_order = 1

    def f_value(self, z):
        return 1.0


@pytest.mark.parametrize("n", [1, 50, 800])
def test_walk_layout_matches_disc_closed_forms(n):
    # with B = 1 the walk integrates over the disc |w| < s_max, where
    # (1/pi) int dA(w)/(z - w) is conj(z) inside and s_max^2/z outside, and
    # the f integral is f times that
    s_max = 1.0 + 12.0 / math.sqrt(n)
    roots = [(0.0, 1e-12), (0.2, 1e-12), (0.5 + 0.3j, 1e-12), (0.99, 1e-12)]
    if n <= 50:
        roots.append((1.5 * cmath.exp(2j), 1e-12))
    if n >= 50:
        roots.append(((s_max + 1.0) * cmath.exp(0.7j), 1e-12))
    # within m_r = 0.15 of s_max the sector is clipped at s_max; the phi
    # panels beside it are graded from its edges for every source, so the
    # walk resolves 1/(z - w) there
    roots += [((s_max - d) * cmath.exp(1.2j), 1e-12) for d in (0.1, 0.14, 0.2, 0.3)]
    for z, rel in roots:
        z = complex(z)
        for src in (_UnitSource(n), _NonInvariantUnitSource(n)):
            cauchy, integral, l1, spec = _polar_walk(src, z, dbar=True)
            want = z.conjugate() if abs(z) < s_max else s_max ** 2 / z
            # at z = 0, where the sums cancel to 0, the rounding of the angles
            # times the Cauchy weights: eps times the sum of their moduli, l1
            # with |f| = 1 (5.8e-15 at n = 1, where the walk reads 9.9e-16)
            tol = rel * abs(want) + np.finfo(float).eps * l1
            assert abs(cauchy - want) <= tol
            assert abs(integral - src.f_value(z) * want) <= tol
            assert spec.mass == pytest.approx(s_max ** 2, rel=1e-12)
            # the sector's grid calls first, in blocks of whole rays of about
            # _NODE_BOUND nodes, then one call per tensor piece
            assert spec.n_radial == sum(src.sizes) and len(src.tensor_angles) <= 2
            sector = src.sizes[:len(src.sizes) - len(src.tensor_angles)]
            assert max(sector, default=0) <= 2 * ward._NODE_BOUND
            # the angular nodes of the full rays: the first tensor piece, of
            # which a rotation-invariant source evaluates the mirror half
            # with arg w - arg z in (0, pi)
            angles = src.tensor_angles[0]
            if src.rotation_order == math.inf:
                assert spec.n_theta == 2 * angles.size
                for a in src.tensor_angles:
                    assert np.all(np.sin(a - math.atan2(z.imag, z.real)) > 0.0)
            else:
                assert spec.n_theta == angles.size


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
        assert np.all(np.abs(b - ref) <= 1e-12 * _kappa(a, xs) * ref)


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


def test_oracle_tensor_memory_is_linear_in_nodes(elliptic_bases):
    # the power tables are O(degree (angles + radii)); the rest is node-sized
    ell, bases = elliptic_bases
    src = OracleSource(bases[40], ell)
    angles = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    for radii in (np.linspace(0.01, 2.0, 400), np.linspace(0.01, 2.0, 1600)):
        tracemalloc.start()
        try:
            b, f = src.berezin_tensor(ell.chi(1.3 * cmath.exp(0.7j)), angles, radii, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(b)) and np.all(np.isfinite(f))
        assert peak < 160 * b.size


def _kappa(a, xs):
    """Condition of sum_k a_k x^k: sum |a_k| |x|^k / |sum a_k x^k|."""
    return np.polyval(np.abs(a)[::-1], np.abs(xs)) / np.abs(np.polyval(a[::-1], xs))


class _RecordingSource:
    """Forwards to a source and records the angles and radii of each tensor call."""

    def __init__(self, src):
        self.src = src
        self.pieces = []

    def __getattr__(self, name):
        return getattr(self.src, name)

    def berezin_blocks(self, z, angles, radii, dbar):
        self.pieces.append((angles, radii))
        return self.src.berezin_blocks(z, angles, radii, dbar)


@pytest.mark.parametrize("dbar", [False, True], ids=["b", "dbar"])
@pytest.mark.parametrize("n", [20, 40])
def test_oracle_tensor_route_matches_flat_route(elliptic_bases, n, dbar):
    # the walk's own tensor pieces by the matrix-product route against the
    # Horner route on the same nodes; both round in the monomial
    # representation, so the gap is scaled by the condition of the sums
    ell, bases = elliptic_bases
    basis = bases[n]
    src = OracleSource(basis, ell)
    c_h = np.asarray(basis.coeffs).conj().T
    for z in (0.3 + 0.1j, ell.boundary_point(2.0).p, ell.chi(1.6 * cmath.exp(0.4j))):
        rec = _RecordingSource(src)
        _polar_walk(rec, z, dbar=dbar)
        assert len(rec.pieces) >= 1
        a, da = c_h @ _poly_values(basis, z), c_h @ _poly_derivatives(basis, z)
        for angles, radii in rec.pieces:
            ws = radii * np.exp(1j * angles)[:, None]
            b, f = (None if g is None else g.T for g in src.berezin_tensor(z, angles, radii, dbar))
            b_flat, f_flat = src.berezin_flat(z, ws, dbar)
            xs = np.conj(ws) / basis.scale
            kappa = _kappa(a, xs)
            # 1e-300: a node at the cut exp(-745) may round to either side
            assert np.all(np.abs(b - b_flat) <= 1e-12 * kappa * b_flat + 1e-300)
            if dbar:
                # f = B [conj(k'/k) - s]: the errors of B, k and k' add up
                p, dp = _poly_values(basis, z), _poly_derivatives(basis, z)
                ratio = np.abs(np.polyval(da[::-1], xs) / np.polyval(a[::-1], xs))
                s = abs(np.vdot(dp, p)) / np.vdot(p, p).real
                scale = b_flat * (ratio + s) * (kappa + _kappa(da, xs))
                assert np.all(np.abs(f - f_flat) <= 1e-12 * scale + 1e-300)
            else:
                assert f is None


@pytest.mark.parametrize("n", [20, 40])
def test_oracle_tensor_matches_mpmath(elliptic_bases, n):
    # the same coefficients summed at 40 digits, at a handful of tensor nodes
    ell, bases = elliptic_bases
    basis = bases[n]
    src = OracleSource(basis, ell)
    angles = np.array([0.1, 1.3, 2.9, 4.4])
    radii = np.array([0.05, 0.6, 1.4, 2.1])
    for z in (0.3 + 0.1j, ell.boundary_point(2.0).p, ell.chi(1.6 * cmath.exp(0.4j))):
        b = src.berezin_tensor(z, angles, radii, False)[0].T
        a = np.asarray(basis.coeffs).conj().T @ _poly_values(basis, z)
        qz, log_rz = float(ell.Q(complex(z))), src.log_one_point(z)
        for i, j in np.ndindex(b.shape):
            w = radii[j] * cmath.exp(1j * angles[i])
            x = w.conjugate() / basis.scale
            with mpmath.workdps(40):
                k = mpmath.polyval([mpmath.mpc(c) for c in a[::-1]], mpmath.mpc(x))
                log_b = 2 * mpmath.log(abs(k)) - n * (qz + float(ell.Q(w))) - log_rz
                ref = float(mpmath.exp(log_b))
            if log_b < -700:
                continue
            kappa = float(_kappa(a, np.array([x]))[0])
            assert abs(b[i, j] - ref) <= 1e-12 * kappa * ref


def _bad_node_call(src, entry, bad):
    ws = np.array([0.5 + 0.1j, complex(0.2, bad)])
    good = np.array([0.0, 1.0])
    return {
        "grid": lambda: src.berezin_grid(0.3, ws),
        "dbar_grid": lambda: src.berezin_flat(0.3, ws, True),
        "tensor_radius": lambda: src.berezin_tensor(0.3, good, np.array([0.5, bad]), False),
        "tensor_angle": lambda: src.berezin_tensor(0.3, np.array([0.5, bad]), good, True),
        # the generator is called, not iterated
        "blocks_radius": lambda: src.berezin_blocks(0.3, good, np.array([0.5, bad]), False),
        "blocks_angle": lambda: src.berezin_blocks(0.3, np.array([0.5, bad]), good, True),
    }[entry]


_BAD_NODE_ENTRIES = ["grid", "dbar_grid", "tensor_radius", "tensor_angle", "blocks_radius",
                     "blocks_angle"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e200])
@pytest.mark.parametrize("entry", _BAD_NODE_ENTRIES)
def test_oracle_source_rejects_bad_nodes(elliptic_bases, entry, bad):
    # never a silent 0.0: the flat and tensor routes share one entry check,
    # and the block generator runs it when called, before its first block
    ell, bases = elliptic_bases
    with np.errstate(all="ignore"), pytest.raises(DomainError):
        _bad_node_call(OracleSource(bases[20], ell), entry, bad)()


@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry in _BAD_NODE_ENTRIES for bad in (float("nan"), float("inf"), 1e200)
    if not (bad == 1e200 and entry.endswith("angle"))])
def test_ginibre_source_rejects_bad_nodes(entry, bad):
    # the angle 1e200 is finite and so is its ring route: only its scale n |w|^2 is checked
    with pytest.raises(DomainError):
        _bad_node_call(GinibreSource(20), entry, bad)()


def test_walk_radius_is_found_at_the_first_walk(monkeypatch):
    # a source built only for its grids never finds s_max; the first walk
    # finds it once, the same value walk_radius gives
    calls = []
    monkeypatch.setattr(ward, "walk_radius", lambda pot, n: calls.append(n) or 2.5)
    src = GinibreSource(3200)
    src.berezin_grid(0.5, np.array([0.3, 1.2j]))
    assert calls == []
    assert src.s_max == src.s_max == 2.5 and calls == [3200]
    monkeypatch.undo()
    assert GinibreSource(3200).s_max == ward.walk_radius(make_ginibre(), 3200)


def _walk_radius_full_circle(pot, n: int) -> float:
    """walk_radius with the ridge's minimum over all 64 angles of each circle."""
    s = pot.outer_radius(1.0) + (12.0 / math.sqrt(n)) * np.arange(1, 33) / 32
    low = n * pot.ridge(s[:, None] * np.exp(2j * math.pi * np.arange(64) / 64)).min(axis=1)
    past = np.flatnonzero(low >= ward._NEGLIGIBLE + math.log(n))
    return float(s[past[0] if past.size else -1])


@pytest.mark.parametrize("pot", [make_ginibre(), make_radial(_QUARTIC),
                                 make_elliptic_ginibre(1.0, 3.0), make_elliptic_ginibre(2.5, 0.7)],
                         ids=["ginibre", "quartic", "elliptic(1,3)", "elliptic(2.5,0.7)"])
def test_walk_radius_on_one_period_is_the_full_circle_rule(pot):
    # Q - V repeats with the weight's rotation_order p, so the angles of one
    # period (one for p = inf) see the ridge's minimum over all 64
    for n in [*range(1, 201), 400, 1000, 3200, 10**4, 10**5, 10**6]:
        assert ward.walk_radius(pot, n) == _walk_radius_full_circle(pot, n), n


def test_ginibre_source_finds_the_root_values_once(monkeypatch):
    # e_n(n|z|^2) and r(n|z|^2) serve every grid call of a root's walk, its
    # log_envelope and its root terms: one evaluation per root, and the
    # values are those of a fresh source
    roots = (0.5 + 0.1j, 1.5, 0.5 + 0.1j, complex(-0.0, 0.7), 0.7j)
    fresh = [repr(loop_residual(GinibreSource(50), z)) for z in roots]
    src = GinibreSource(50)
    calls = []
    point = ginibre_exact._point_e_n
    monkeypatch.setattr(ginibre_exact, "_point_e_n", lambda n, x: calls.append(x) or point(n, x))
    assert [repr(loop_residual(src, z)) for z in roots] == fresh
    assert calls == [50 * abs(z) ** 2 for z in roots]


def test_oracle_source_finds_the_root_values_once(monkeypatch):
    # p(z), p'(z) and log R_n(z) serve every grid call of a root's walk and
    # its root terms; the next root finds its own, and the values are those
    # of a fresh source
    roots = (0.3 + 0.2j, 2.0 + 0.5j, 0.3 + 0.2j, complex(-0.0, 0.7), 0.7j)
    fresh = [repr(loop_residual(_walk_source("elliptic(1,3)", 20), z)) for z in roots]
    src = _walk_source("elliptic(1,3)", 20)
    calls = []
    oracle = ward.kernel_oracle
    monkeypatch.setattr(ward, "kernel_oracle", lambda *a: calls.append(a[1]) or oracle(*a))
    assert [repr(loop_residual(src, z)) for z in roots] == fresh
    assert [repr(z) for z in calls] == [repr(z) for z in roots]
