import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wpkernel import (
    DomainError,
    PrecisionError,
    cocycle,
    compute_moments,
    elliptic_kernel_exact,
    equilibrium_log_potential,
    ginibre_kernel_exact,
    harmonic_measure_density,
    harmonic_measure_mass,
    kernel_asymptotic,
    kernel_oracle,
    lowdeg_bound_check,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    orthonormalize,
    pointwise_bound_check,
    quasipolynomial,
    szego_basis,
    szego_kernel,
    szego_kernel_series,
    tail_kernel,
)
from wpkernel.potential import RADIAL_PROFILES
from wpkernel.scaled_numerics import quad_radial, quad_trapezoid_periodic


def kernel_oracle_diag(basis, z: complex) -> float:
    """R_n(z) from the oracle basis (always a plain float)."""
    val = kernel_oracle(basis, z, z)
    return math.exp(val.log_mag) if val.log_mag > -745 else 0.0


def rel_lc(a, b):
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.arg - b.arg)) - 1.0)


@pytest.fixture(scope="module")
def gin():
    return make_ginibre()


@pytest.fixture(scope="module")
def ell():
    return make_elliptic_ginibre(1.0, 3.0)


@pytest.fixture(scope="module")
def gin_basis(gin):
    return orthonormalize(compute_moments(gin, 40, 39))


def test_ginibre_moments_closed_form(gin):
    gram = compute_moments(gin, 40, 40)
    diag = np.diagonal(gram.moments)
    for j in range(41):
        expected = math.exp(math.lgamma(j + 1.0) - (j + 1) * math.log(40.0))
        assert diag[j] == pytest.approx(expected, rel=1e-10)
    assert gram.period == 41


def test_diagonal_orthonormalization(gin):
    basis = orthonormalize(compute_moments(gin, 40, 40))
    C = np.asarray(basis.coeffs)
    assert np.allclose(C, np.diag(np.diagonal(C)))
    for j in (0, 7, 23, 40):
        expected = math.exp(0.5 * ((j + 1) * math.log(40.0) - math.lgamma(j + 1.0)))
        assert C[j, j] == pytest.approx(expected, rel=1e-9)
        assert C[j, j] > 0
    assert basis.gram_residual < 1e-12


def test_oracle_matches_exact_kernel(gin_basis):
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = complex(*rng.uniform(-1.4, 1.4, 2))
        w = complex(*rng.uniform(-1.4, 1.4, 2))
        ko = kernel_oracle(gin_basis, z, w)
        ke = ginibre_kernel_exact(40, z, w).value
        assert rel_lc(ko, ke) < 1e-8


def test_oracle_hermitian_and_reproducing(gin_basis, gin):
    z, w = 0.8 + 0.1j, -0.4 + 0.6j
    a = kernel_oracle(gin_basis, z, w)
    b = kernel_oracle(gin_basis, w, z)
    assert a.log_mag == pytest.approx(b.log_mag, abs=1e-13)
    assert a.arg == pytest.approx(-b.arg, abs=1e-13)
    # reproducing identity: integral of |K(z, .)|^2 equals K(z, z)
    basis30 = orthonormalize(compute_moments(gin, 30, 29))
    radial = quad_radial(1.0 + 12.0 / math.sqrt(30), 1.0 / math.sqrt(30))
    angular = quad_trapezoid_periodic(160)
    acc = 0.0
    for r, wr in zip(radial.nodes, radial.weights):
        ws = r * np.exp(1j * angular.nodes)
        vals = np.array([math.exp(2.0 * kernel_oracle(basis30, z, wv).log_mag)
                         for wv in ws])
        acc += wr * r * float(np.sum(angular.weights * vals)) / math.pi
    assert acc == pytest.approx(kernel_oracle_diag(basis30, z), rel=1e-6)


def test_elliptic_parity_structure(ell):
    gram = compute_moments(ell, 16, 12)
    mom = np.asarray(gram.moments)
    assert gram.period == 2
    for j in range(13):
        for k in range(13):
            if (j - k) % 2 == 1:
                assert mom[j, k] == 0.0
    assert np.max(np.abs(mom - mom.conj().T)) == 0.0  # mirrored assembly
    basis = orthonormalize(gram)
    C = np.asarray(basis.coeffs)
    for j in range(13):
        for k in range(13):
            if (j - k) % 2 == 1:
                assert C[j, k] == 0.0
    assert basis.gram_residual < 1e-8


class _Trigonal(type(make_ginibre())):
    """Q = |z|^2 + 0.1 Re z^3: invariant under rotation by 2 pi / 3 only."""

    rotation_order = 3

    def Q(self, z):
        return np.abs(z) ** 2 + 0.1 * (np.asarray(z) ** 3).real


class _TrigonalFull(_Trigonal):
    rotation_order = 1


def test_rotation_order_three_blocks():
    n = 20
    gram3 = compute_moments(_Trigonal(), n, n - 1)
    gram1 = compute_moments(_TrigonalFull(), n, n - 1)
    assert (gram3.period, gram1.period) == (3, 1)
    # the full assembly vanishes off the mod-3 blocks, to rounding
    mom = np.asarray(gram1.moments)
    dm = np.sqrt(np.diagonal(mom).real)
    off = np.array([[(j - k) % 3 != 0 for k in range(n)] for j in range(n)])
    assert np.max(np.abs(mom[off]) / np.outer(dm, dm)[off]) < 1e-13
    b3, b1 = orthonormalize(gram3), orthonormalize(gram1)
    assert b3.gram_residual < 1e-10
    for z, w in [(0.3 + 0.2j, 0.3 + 0.2j), (1.2, 0.9 * cmath.exp(1j)), (-0.5j, 1.1 + 0.4j)]:
        assert rel_lc(kernel_oracle(b3, z, w), kernel_oracle(b1, z, w)) < 1e-10


class _TrigonalTilted(_Trigonal):
    """The trigonal Q turned by 0.3 rad: Q(e^{0.3 i} z), with complex moments."""

    def Q(self, z):
        return super().Q(cmath.exp(0.3j) * np.asarray(z))


def test_tilted_weight_turns_the_kernel():
    # dA is rotation invariant, so K_tilted(z, w) = K(e^{0.3 i} z, e^{0.3 i} w);
    # a moment matrix conjugated on the wrong side of the diagonal turns the
    # other way
    n, turn = 20, cmath.exp(0.3j)
    tilted = orthonormalize(compute_moments(_TrigonalTilted(), n, n - 1))
    plain = orthonormalize(compute_moments(_Trigonal(), n, n - 1))
    for z, w in [(0.3 + 0.2j, 0.3 + 0.2j), (1.2, 0.9 * cmath.exp(1j)), (-0.5j, 1.1 + 0.4j)]:
        assert rel_lc(kernel_oracle(tilted, z, w), kernel_oracle(plain, turn * z, turn * w)) < 1e-10


_QUARTIC = make_radial(RADIAL_PROFILES["quartic"])


@pytest.mark.parametrize("pot, n, degree", [
    (_Trigonal(), 20, 19),             # three blocks of 7, 7 and 6: one is padded
    (make_elliptic_ginibre(1.0, 3.0), 20, 19),
    (_QUARTIC, 400, 400),              # 401 one-entry blocks
], ids=["trigonal", "elliptic", "quartic"])
def test_batched_blocks_match_unblocked_reference(pot, n, degree):
    gram = compute_moments(pot, n, degree)
    mom = np.asarray(gram.moments)
    # the inverse Cholesky factor of the whole matrix, blocks ignored
    ref = np.linalg.inv(np.linalg.cholesky(mom))
    C = np.asarray(orthonormalize(gram).coeffs)
    row_scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.max(np.abs(C - ref) / row_scale) < 1e-14 * gram.cond_estimate
    svals = []
    for r in range(gram.period):
        idx = np.arange(r, degree + 1, gram.period)
        block = mom[np.ix_(idx, idx)]
        dm = np.sqrt(np.diagonal(block).real)
        svals.extend(np.linalg.svd(block / np.outer(dm, dm), compute_uv=False))
        off = np.setdiff1d(np.arange(degree + 1), idx)
        assert np.all(C[np.ix_(idx, off)] == 0.0)
    assert gram.cond_estimate == pytest.approx(max(svals) / min(svals), rel=1e-12)


def _full_circle_moments(pot, n: int, degree: int, scale: float, m_theta: int) -> np.ndarray:
    """M_jk = int (w/scale)^j conj(w/scale)^k e^{-n Q} dA / pi by the periodic
    trapezoid on m_theta nodes of the full circle and the library's radial
    rule, through the angular profile of every lag j - k, entries off the
    residue blocks included."""
    rule = quad_radial(pot.outer_radius(1.0) + 12.0 / math.sqrt(n),
                       feature_scale=1.0 / math.sqrt(max(n, 4)))
    radii = rule.nodes
    theta = 2.0 * math.pi * np.arange(m_theta) / m_theta
    wgt = np.exp(-n * pot.Q(radii[:, None] * np.exp(1j * theta)))
    lags = np.arange(-degree, degree + 1)
    profiles = (2.0 * math.pi / m_theta) * (wgt @ np.exp(1j * np.outer(theta, lags)))
    powers = np.exp(np.outer(np.arange(2 * degree + 1), np.log(radii / scale)))
    hankel = powers @ ((radii * rule.weights / math.pi)[:, None] * profiles)
    j, k = np.indices((degree + 1, degree + 1))
    return hankel[j + k, j - k + degree]


_ELLIPSES = [(a, b, n) for a, b in ((1.0, 3.0), (2.5, 0.7)) for n in (10, 20, 40)]


@pytest.mark.parametrize("pot, n", [(make_elliptic_ginibre(a, b), n) for a, b, n in _ELLIPSES]
                         + [(_Trigonal(), 20)],
                         ids=[f"elliptic({a:g},{b:g})-{n}" for a, b, n in _ELLIPSES]
                         + ["trigonal-20"])
def test_one_period_moments_match_the_full_circle(pot, n):
    # the weight repeats with period 2 pi / p and so does every kept lag's mode:
    # the trapezoid on one period, times p, is the rule on the full circle of
    # p ceil(m/p) nodes (129 for p = 3, m = 128), up to rounding
    gram = compute_moments(pot, n, n - 1)
    p = pot.rotation_order
    m_theta = p * -(-max(4 * (n - 1) + 16, 128) // p)
    ref = _full_circle_moments(pot, n, n - 1, gram.scale, m_theta)
    dm = np.sqrt(np.diagonal(ref).real)
    assert np.max(np.abs(np.asarray(gram.moments) - ref) / np.outer(dm, dm)) <= 1e-14
    # the full circle's entries off the residue blocks are rounding: drop them
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    corr = np.where(lag % p == 0, ref, 0.0) / np.outer(dm, dm)
    assert gram.cond_estimate == pytest.approx(np.linalg.cond(corr), rel=1e-4)


def test_native_refuses_ill_conditioned(ell):
    gram = compute_moments(ell, 60, 59)
    assert gram.cond_estimate > 1e12
    with pytest.raises(PrecisionError):
        orthonormalize(gram)


_ELL = make_elliptic_ginibre(1.0, 3.0)
# criterion 8's boundary pair and the tail test's exterior pair
ELL_PAIRS = [(_ELL.boundary_point(0.3).p, _ELL.boundary_point(2.0).p), (1.6, 1.3 + 0.35j)]


@pytest.mark.parametrize("n, tol", [(20, 1e-9), (40, 1e-4)])
def test_hermite_matches_native_gram(ell, n, tol):
    # the Gram route degrades with its condition number (~1e11 at n = 40)
    basis = orthonormalize(compute_moments(ell, n, n - 1))
    for z, w in ELL_PAIRS:
        assert rel_lc(elliptic_kernel_exact(ell, n, z, w), kernel_oracle(basis, z, w)) < tol


@pytest.mark.parametrize("n", range(6, 13))
def test_gram_resolves_the_angle_at_small_n(ell, n):
    # the Gram route's angular trapezoid has at least 128 nodes: with 64 the
    # weight e^{-n Q} of the ellipse was under-resolved, and the kernel
    # missed the Hermite route by up to 1.5e-10 at n = 12
    basis = orthonormalize(compute_moments(ell, n, n - 1))
    pairs = ELL_PAIRS + [(0.3 + 0.2j, -0.1 + 0.4j), (0.5j, 0.5j), (1.2 + 0.3j, 1.2 + 0.3j)]
    for z, w in pairs:
        assert rel_lc(elliptic_kernel_exact(ell, n, z, w), kernel_oracle(basis, z, w)) <= 1e-12


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_hermite_reduces_to_ginibre(n):
    # a = b = 1 is Q = |z|^2, whose kernel has the independent partial-sum route
    disc = make_elliptic_ginibre(1.0, 1.0)
    # at tau = 0, p_k(0) = 0 for k >= 1: a vanished running pair is not rescaled
    pairs = [(1.5, 1.2 + 0.7j), (2 + 1j, -1.3 + 0.4j), (1.0, cmath.exp(1j)),
             (cmath.exp(0.3j), cmath.exp(2j)), (1.0, 1.0),
             (0, 0.5), (0, 0), (0.7j, 0), (0, 1.3 + 0.2j)]
    for z, w in pairs:
        exact = ginibre_kernel_exact(n, z, w).value
        assert rel_lc(elliptic_kernel_exact(disc, n, z, w), exact) < 1e-10


def test_hermite_refuses_bulk_cancellation(ell):
    # off the diagonal in the bulk the basis sum cancels to ~1e-17 of its terms
    with pytest.raises(PrecisionError):
        elliptic_kernel_exact(ell, 1000, 0.3 + 0.1j, -0.3j)
    # the diagonal never cancels
    assert math.isfinite(elliptic_kernel_exact(ell, 1000, 0.3 + 0.1j, 0.3 + 0.1j).log_mag)


def _exterior_point(ell, theta, ell_out):
    bp = ell.boundary_point(theta)
    return bp.p + ell_out * bp.normal


exterior_pairs = st.tuples(
    st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0),
    st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1.0),
    st.sampled_from([5, 20, 80, 300]),
)


@settings(max_examples=40, deadline=None)
@given(exterior_pairs)
def test_hermite_symmetries(ell, args):
    t1, d1, t2, d2, n = args
    z, w = _exterior_point(ell, t1, d1), _exterior_point(ell, t2, d2)
    try:
        k = elliptic_kernel_exact(ell, n, z, w)
    except PrecisionError:
        assume(False)
    tol = 1e-11
    # Hermitian
    assert rel_lc(elliptic_kernel_exact(ell, n, w, z), k.conj()) < tol
    # real coefficients: K(conj z, conj w) = conj K(z, w)
    assert rel_lc(elliptic_kernel_exact(ell, n, z.conjugate(), w.conjugate()), k.conj()) < tol
    # parity of Q: K(-z, -w) = K(z, w)
    assert rel_lc(elliptic_kernel_exact(ell, n, -z, -w), k) < tol


@pytest.fixture(scope="module")
def ell_basis20(ell):
    return orthonormalize(compute_moments(ell, 20, 19))


# exterior points and points of the belt just inside the boundary
belt_pairs = st.tuples(
    st.floats(0.0, 2.0 * math.pi), st.floats(-0.3, 1.0),
    st.floats(0.0, 2.0 * math.pi), st.floats(-0.3, 1.0),
)


@settings(max_examples=40, deadline=None)
@given(belt_pairs)
def test_gram_route_symmetries(ell, ell_basis20, args):
    t1, d1, t2, d2 = args
    z, w = _exterior_point(ell, t1, d1), _exterior_point(ell, t2, d2)
    k = kernel_oracle(ell_basis20, z, w)
    # errors in units of the Cauchy-Schwarz bound sqrt(K(z, z) K(w, w)), the
    # scale of the rounding: off the diagonal |K| falls to e^-9 of it
    log_cs = 0.5 * (kernel_oracle(ell_basis20, z, z).log_mag
                    + kernel_oracle(ell_basis20, w, w).log_mag)

    def gap(a):
        return rel_lc(a, k.conj()) * math.exp(k.log_mag - log_cs)

    # Hermitian: the swapped basis sum is the conjugate term by term, up to
    # the fused multiply-adds of numpy's complex product
    assert gap(kernel_oracle(ell_basis20, w, z)) < 1e-13
    # real moments up to quadrature rounding: K(conj z, conj w) = conj K(z, w)
    assert gap(kernel_oracle(ell_basis20, z.conjugate(), w.conjugate())) < 1e-11
    # parity of Q: the odd-lag coefficients are exact zeros and negation is exact
    assert kernel_oracle(ell_basis20, -z, -w) == k


def test_quadrature_refinement_stability(gin):
    # a rotation-invariant weight's angular profile is exact on one node: the
    # Gram kernel is the exact Ginibre kernel up to the radial rule and rounding
    basis = orthonormalize(compute_moments(gin, 40, 39))
    z = 1.2
    exact = ginibre_kernel_exact(40, z, z).value.log_mag
    assert abs(math.expm1(kernel_oracle(basis, z, z).log_mag - exact)) < 1e-12


def test_pointwise_bound_report():
    # top-degree envelope stays O(1) across a ladder at an exterior point
    for n in (20, 40, 80):
        report = pointwise_bound_check(n, [n - 1], [1.5])
        assert report.max_ratio <= 2.0
    # on the tau-boundary the amplitude runs at the n^{-1/4} scale
    n = 100
    j = 64
    tau = j / n
    report = pointwise_bound_check(n, [j], [math.sqrt(tau)])
    assert report.max_ratio <= 2.0 / n ** 0.25
    # deep interior point dominated trivially
    report = pointwise_bound_check(n, [10, 40], [0.0])
    assert report.max_ratio < 1.0
    # degree 0: the droplet is a point, Qcheck_0 = 0, and |W_0| e^{nQ/2} = sqrt(n)
    assert pointwise_bound_check(n, [0], [0.0, 1.5]).max_ratio == pytest.approx(1.0, rel=1e-12)


def test_degree_cannot_exceed_n(gin):
    with pytest.raises(DomainError):
        compute_moments(gin, 10, 11)


@pytest.mark.parametrize("call", [
    lambda: compute_moments(_ELL, 0, 0),
    lambda: compute_moments(make_ginibre(), 0, 0),
    lambda: compute_moments(_ELL, 5, -1),
    lambda: elliptic_kernel_exact(_ELL, 0, 1.5, 1.5),
    lambda: elliptic_kernel_exact(_ELL, 10, complex(math.nan, 0.0), 1.5),
    lambda: elliptic_kernel_exact(_ELL, 10, 1.5, complex(0.0, math.inf)),
    lambda: elliptic_kernel_exact(_ELL, 10, 1e200, 1.5),
    lambda: elliptic_kernel_exact(make_ginibre(), 10, 1.5, 1.5),
    lambda: kernel_asymptotic(_ELL, 40, 1e200, 1.5),
    lambda: tail_kernel(_ELL, 40, 1.5, 1e200j),
    lambda: kernel_oracle(orthonormalize(compute_moments(_ELL, 10, 9)), 1e200, 1.5),
    lambda: kernel_asymptotic(make_ginibre(), 40, 1e200, 1.5),
    lambda: tail_kernel(make_ginibre(), 40, 1e200, 1.5),
    lambda: tail_kernel(_ELL, 40, math.nan, 2),
    lambda: kernel_asymptotic(_ELL, 40, math.nan, 2),
    lambda: szego_kernel(_ELL, math.nan, 2),
    lambda: harmonic_measure_mass(_ELL, math.nan),
    lambda: make_elliptic_ginibre(math.nan, 1),
    lambda: kernel_asymptotic(_ELL, 40.5, 2, 2j),
    lambda: compute_moments(_ELL, 2.5, 1),
    lambda: szego_basis(_ELL, 1, math.nan),
    lambda: szego_kernel_series(_ELL, math.nan, 2),
    lambda: harmonic_measure_density(_ELL, math.nan, 2),
    lambda: quasipolynomial(_ELL, 40, 39, math.nan),
    lambda: kernel_oracle(orthonormalize(compute_moments(_ELL, 10, 9)), math.nan, 1),
    lambda: _ELL.V(math.nan),
    lambda: make_ginibre().V(math.nan),
    lambda: _ELL.project(math.nan),
    lambda: _ELL.dist_to_exterior(math.nan),
    lambda: lowdeg_bound_check(make_ginibre(), 100, math.nan),
    lambda: equilibrium_log_potential(_ELL, 1.0, _ELL.boundary_point(0.4).p),
    lambda: cocycle(_ELL, 40, math.nan, _ELL.boundary_point(0.4).p),
    lambda: harmonic_measure_density(_ELL, 2.0, math.nan),
    lambda: quasipolynomial(make_ginibre(), 40, 39, 0.0),
], ids=["moments-n0", "moments-radial-n0", "moments-negative-degree", "hermite-n0",
        "hermite-nan", "hermite-inf", "hermite-overflow", "hermite-not-elliptic",
        "asymptotic-overflow", "tail-overflow", "oracle-overflow",
        "ginibre-asymptotic-overflow", "ginibre-tail-overflow", "tail-nan",
        "asymptotic-nan", "szego-nan", "harmonic-mass-nan", "elliptic-nan-axis",
        "asymptotic-fractional-n", "moments-fractional-n", "szego-basis-nan",
        "szego-series-nan", "harmonic-density-nan", "quasipolynomial-nan", "oracle-nan",
        "elliptic-V-nan", "ginibre-V-nan", "project-nan", "dist-to-exterior-nan",
        "lowdeg-nan", "equilibrium-boundary-point",
        "cocycle-nan", "harmonic-density-nan-boundary-point", "quasipolynomial-phi-zero"])
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_oracle_overflow_is_a_precision_error():
    # P_399(8) of the quartic basis at n = 400 carries (8/scale)^399 > e^{800}:
    # the basis values themselves overflow
    basis = orthonormalize(compute_moments(_QUARTIC, 400, 399))
    with pytest.raises(PrecisionError):
        kernel_oracle(basis, 8, 8)


def test_oracle_kernel_past_the_unweighted_overflow():
    # the unweighted sum at z = 2 is ~e^{n V(2)} = e^{754} at n = 400, past
    # float64; the radial basis is diagonal, P_j = c_jj (z/scale)^j, so
    # K(z, z) = sum_j |c_jj|^2 |z/scale|^{2j} e^{-n Q(z)} is exact in log scale
    basis = orthonormalize(compute_moments(_QUARTIC, 400, 399))
    z = 2.0
    j = np.arange(400)
    logs = (2.0 * np.log(np.abs(np.diag(basis.coeffs))) + 2.0 * j * math.log(z / basis.scale)
            - 400 * float(_QUARTIC.Q(z)))
    top = logs.max()
    ref = top + math.log(np.sum(np.exp(logs - top)))
    k = kernel_oracle(basis, z, z)
    assert abs(k.log_mag - ref) <= 1e-12 * abs(ref)
    assert k.arg == 0.0


def test_degree_zero_elliptic_basis(ell):
    # the odd-parity block is empty at degree 0; the default angular rule has
    # at least 64 nodes, which the eccentric weight of (1, 3) needs there
    basis = orthonormalize(compute_moments(ell, 1, 0))
    assert np.asarray(basis.coeffs).shape == (1, 1)
    assert basis.gram_residual < 1e-12
    assert rel_lc(kernel_oracle(basis, 1.5, 0.5j), elliptic_kernel_exact(ell, 1, 1.5, 0.5j)) < 1e-9
