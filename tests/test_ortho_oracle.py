import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wpkernel import (
    DomainError,
    PrecisionError,
    compute_moments,
    elliptic_kernel_exact,
    ginibre_kernel_exact,
    kernel_asymptotic,
    kernel_oracle,
    make_elliptic_ginibre,
    make_ginibre,
    orthonormalize,
    pointwise_bound_check,
    tail_kernel,
)
from wpkernel.ortho_oracle import kernel_oracle_diag
from wpkernel.scaled_numerics import quad_radial, quad_trapezoid_periodic


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
    diag = np.asarray(gram.moments)
    for j in range(41):
        expected = math.exp(math.lgamma(j + 1.0) - (j + 1) * math.log(40.0))
        assert diag[j] == pytest.approx(expected, rel=1e-10)
    assert gram.diagonal


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
    assert gram.parity
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


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_hermite_reduces_to_ginibre(n):
    # a = b = 1 is Q = |z|^2, whose kernel has the independent partial-sum route
    disc = make_elliptic_ginibre(1.0, 1.0)
    pairs = [(1.5, 1.2 + 0.7j), (2 + 1j, -1.3 + 0.4j), (1.0, cmath.exp(1j)),
             (cmath.exp(0.3j), cmath.exp(2j)), (1.0, 1.0)]
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


def test_quadrature_refinement_stability(gin):
    base = orthonormalize(compute_moments(gin, 40, 39))
    fine = orthonormalize(compute_moments(gin, 40, 39, m_theta=512))
    z = 1.2
    a = kernel_oracle_diag(base, z)
    b = kernel_oracle_diag(fine, z)
    assert abs(a / b - 1.0) < 1e-8


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
], ids=["moments-n0", "moments-radial-n0", "moments-negative-degree", "hermite-n0",
        "hermite-nan", "hermite-inf", "hermite-overflow", "hermite-not-elliptic",
        "asymptotic-overflow", "tail-overflow", "oracle-overflow"])
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_degree_zero_elliptic_basis(ell):
    # the odd-parity block is empty at degree 0; the default angular rule has
    # at least 64 nodes, which the eccentric weight of (1, 3) needs there
    basis = orthonormalize(compute_moments(ell, 1, 0))
    assert np.asarray(basis.coeffs).shape == (1, 1)
    assert basis.gram_residual < 1e-12
    assert rel_lc(kernel_oracle(basis, 1.5, 0.5j), elliptic_kernel_exact(ell, 1, 1.5, 0.5j)) < 1e-9
