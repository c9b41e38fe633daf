"""The two-route contract: each quantity, its two routes and the tolerance between them.

Every row of `ROUTES` names a quantity, its two routes, the code the two
share (empty where they share none beyond the argument checks), a seeded
domain and a tolerance with its reason.  The test walks the table the way
test_errors.py walks the public API: at every point of a row's domain the
two routes must agree to the row's tolerance.  A row's `compare` takes one
point, so a single suspect point can be put to the row directly.

`ONE_ROUTE` lists the quantities that have a single route so far, each with
the library call that is that route and the ROADMAP item that gives it a
second.  An item that adds the second route moves the quantity into
`ROUTES`.
"""

import cmath
import dataclasses
import functools
import math
from typing import Callable

import numpy as np
import pytest

import wpkernel
from wpkernel import (
    GinibreSource,
    boundary_correlation_modulus,
    cocycle,
    compute_moments,
    elliptic_kernel_exact,
    exterior_kernel_expansion,
    ginibre_berezin,
    ginibre_kernel_exact,
    kernel_asymptotic,
    kernel_oracle,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    orthonormalize,
    partial_exp_sum,
    partial_exp_sum_gamma_route,
    szego_kernel,
    szego_kernel_series,
)
from wpkernel.potential import RADIAL_PROFILES
from wpkernel.scaled_numerics import LogComplex, _norm_arg

_EPS = float(np.finfo(float).eps)
_GIN = make_ginibre()
_ELL = make_elliptic_ginibre(1.0, 3.0)
_QUARTIC = make_radial(RADIAL_PROFILES["quartic"])


@dataclasses.dataclass(frozen=True)
class Route:
    """A quantity and its two routes; `compare(point)` gives (gap, tolerance) there."""

    quantity: str
    first: str
    second: str
    shared: str
    tolerance: str
    points: Callable[[], list]
    compare: Callable[[tuple], tuple]


def _log_polar_gap(a, b):
    return abs(a.log_mag - b.log_mag) + abs(_norm_arg(a.arg - b.arg))


def _rel_lc(a, b):
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.arg - b.arg)) - 1.0)


# --- E_n(zeta), the partial exponential sum ----------------------------------

def _e_n_points():
    # n log-uniform from 1 to 3e7, Re zeta - 1 log-uniform from 1e-3 to 100,
    # |Im zeta| log-uniform from 1e-3 to 4 with either sign, and the four
    # points where the rounding floor, not 1e-8, is the gate
    rng = np.random.default_rng(18_001)
    points = [(int(math.exp(rng.uniform(0.0, math.log(3e7)))),
               complex(1.0 + 10.0 ** rng.uniform(-3.0, 2.0),
                       rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 0.6)))
              for _ in range(256)]
    return points + [(10 ** 6, 100), (10 ** 5, 10 ** 5), (10 ** 5, 10 ** 6), (10 ** 5, 2)]


def _e_n_compare(point):
    n, zeta = point
    gap = _log_polar_gap(partial_exp_sum(n, zeta), partial_exp_sum_gamma_route(n, zeta))
    return gap, max(1e-8, 4.0 * _EPS * n * (abs(zeta) + abs(cmath.log(n * zeta))))


# --- K_n of the Ginibre and the elliptic (1, 3) families ----------------------

@functools.lru_cache(maxsize=None)
def _gram_kernel(pot, n):
    """K_n(z, w) from the orthonormalised Gram basis of degree n - 1."""
    basis = orthonormalize(compute_moments(pot, n, n - 1))
    return lambda z, w: kernel_oracle(basis, z, w)


def _ginibre_kernel_points():
    # criterion 7's pairs
    rng = np.random.default_rng(7)
    return [(complex(*rng.uniform(-1.4, 1.4, 2)), complex(*rng.uniform(-1.4, 1.4, 2)))
            for _ in range(20)]


def _ginibre_kernel_compare(point):
    z, w = point
    return _rel_lc(_gram_kernel(_GIN, 40)(z, w), ginibre_kernel_exact(40, z, w).value), 1e-8


def _elliptic_kernel_points():
    # criterion 8's boundary pair, the tail test's exterior pair, and seeded
    # pairs in the box of 1.5 times the semi-axes
    rng = np.random.default_rng(18_003)
    p, q = _ELL.semi_axes(1.0)
    box = [(complex(rng.uniform(-1.5 * p, 1.5 * p), rng.uniform(-1.5 * q, 1.5 * q)),
            complex(rng.uniform(-1.5 * p, 1.5 * p), rng.uniform(-1.5 * q, 1.5 * q)))
           for _ in range(12)]
    return [(_ELL.boundary_point(0.3).p, _ELL.boundary_point(2.0).p), (1.6, 1.3 + 0.35j)] + box


def _elliptic_kernel_compare(point):
    z, w = point
    return _rel_lc(elliptic_kernel_exact(_ELL, 20, z, w), _gram_kernel(_ELL, 20)(z, w)), 1e-9


# --- S(z, w), the exterior Szego kernel ---------------------------------------

def _szego_points():
    # exterior pairs with |phi| from 1.1 to 2, so 200 terms of the series
    # leave at most 1.21^{-200} ~ 3e-17 of S
    rng = np.random.default_rng(18_004)
    points = []
    for pot in (_GIN, _ELL):
        for _ in range(6):
            z, w = (pot.chi(cmath.rect(rng.uniform(1.1, 2.0), rng.uniform(-math.pi, math.pi)))
                    for _ in range(2))
            points.append((pot, complex(z), complex(w)))
    return points


def _szego_compare(point):
    pot, z, w = point
    return abs(szego_kernel(pot, z, w) - szego_kernel_series(pot, z, w, terms=200)), 1e-10


# --- B_n(z, w), the Ginibre Berezin kernel ------------------------------------

def _berezin_points():
    # roots inside, near and outside |z| = 1, nodes within three heat-kernel
    # distances n^{-1/2} of the root, where B_n is above rounding
    rng = np.random.default_rng(18_005)
    points = []
    for n in (1, 50, 800):
        for z in (0.3 + 0.2j, cmath.rect(0.98, 1.1), cmath.rect(1.6, -2.3)):
            h = rng.uniform(0.0, 3.0 / math.sqrt(n), 6)
            points.append((n, z, z + h * np.exp(1j * rng.uniform(-math.pi, math.pi, 6))))
    return points


def _berezin_compare(point):
    n, z, ws = point
    src = GinibreSource(n)
    scalar = np.array([ginibre_berezin(n, z, complex(w)) for w in ws])
    return float(np.max(np.abs(src.berezin_grid(z, ws) / scalar - 1.0))), 10.0 * src.value_error(z)


# --- the Szego-type asymptotics: conformal data against closed forms ---------

def _ginibre_exterior_points():
    # n log-uniform from 3 to 5000, |z| and |w| uniform in (1.02, 2.5) at
    # uniform angles, |z conj(w) - 1| >= 0.05 (both routes' saddle distance)
    rng = np.random.default_rng(18_006)
    points = []
    while len(points) < 300:
        n = int(math.exp(rng.uniform(math.log(3.0), math.log(5000.0))))
        z, w = (cmath.rect(rng.uniform(1.02, 2.5), rng.uniform(-math.pi, math.pi)) for _ in "zw")
        if abs(z * w.conjugate() - 1.0) >= 0.05:
            points.append((n, z, w))
    return points


def _ginibre_exterior_compare(point):
    n, z, w = point
    gap = _log_polar_gap(kernel_asymptotic(_GIN, n, z, w).value,
                         exterior_kernel_expansion(n, z, w, 0))
    return gap, 2.0 * _EPS * n * (abs(z) ** 2 + abs(w) ** 2 + math.pi)


def _boundary_law_points():
    # boundary pairs chi(e^{i t}), chi(e^{i (t + d)}) of the three families, n
    # log-uniform from 3 to 5000, d in (0.06, 2 pi - 0.06) so that |e^{i d} - 1|
    # > 0.05 (kernel_asymptotic's saddle distance), and criterion 8's pair at n = 5000
    rng = np.random.default_rng(18_007)
    points = []
    for pot in (_GIN, _ELL, _QUARTIC):
        for _ in range(40):
            n = int(math.exp(rng.uniform(math.log(3.0), math.log(5000.0))))
            t = rng.uniform(-math.pi, math.pi)
            d = rng.uniform(0.06, 2.0 * math.pi - 0.06)
            points.append((pot, n, *(complex(pot.chi(cmath.exp(1j * a), 1.0)) for a in (t, t + d))))
    return points + [(_ELL, 5000, _ELL.boundary_point(0.3).p, _ELL.boundary_point(2.0).p)]


def _boundary_law_compare(point):
    pot, n, z, w = point
    s = szego_kernel(pot, z, w)
    c = cocycle(pot, n, z, w)
    law = LogComplex(c.log_mag + math.log(boundary_correlation_modulus(pot, n, z, w)),
                     c.arg + math.atan2(s.imag, s.real))
    return _log_polar_gap(kernel_asymptotic(pot, n, z, w).value, law), 8.0 * _EPS * n


ROUTES = {
    "E_n": Route(
        "E_n(zeta), the partial exponential sum",
        "partial_exp_sum: Szego's split, the window of terms summed from its endpoint",
        "partial_exp_sum_gamma_route: the incomplete-gamma continued fraction",
        "",
        "max(1e-8, 4 eps (n|zeta| + n|log n zeta|)): both routes subtract exponents of "
        "those sizes, each rounded to eps of itself; measured at most 1.8 eps times their sum",
        _e_n_points, _e_n_compare),
    "ginibre_K": Route(
        "Ginibre K_n at n = 40",
        "ginibre_kernel_exact: the partial sums",
        "kernel_oracle: the Gram basis of degree 39 from quadrature moments",
        "",
        "1e-8 relative, criterion 7's: the Gram route rounds in its Cholesky factor",
        _ginibre_kernel_points, _ginibre_kernel_compare),
    "elliptic_K": Route(
        "elliptic (1, 3) K_n at n = 20",
        "elliptic_kernel_exact: the Hermite recurrence",
        "kernel_oracle: the Gram basis of degree 19 from quadrature moments",
        "",
        "1e-9 relative, test_hermite_matches_native_gram's at n = 20: the Gram route "
        "degrades with its condition number",
        _elliptic_kernel_points, _elliptic_kernel_compare),
    "szego_S": Route(
        "the exterior Szego kernel S(z, w)",
        "szego_kernel: the closed form sqrt(phi'(z)) conj sqrt(phi'(w)) "
        "/ (2 pi (phi(z) conj phi(w) - 1))",
        "szego_kernel_series: 200 terms of the Hardy basis sum",
        "pot.exterior: phi and sqrt(phi')",
        "1e-10 absolute, test_basis_sum_identity's: the terms' rounding, the truncation "
        "being below 3e-17 on this domain",
        _szego_points, _szego_compare),
    "ginibre_B": Route(
        "Ginibre B_n(z, w)",
        "GinibreSource(n).berezin_grid: the node-array window sums",
        "ginibre_berezin: the one-point window sums, through ginibre_kernel_exact",
        "the window extent and the two combinations of the window sums, and the root's "
        "log one-point function",
        "10 value_error(z) relative, test_berezin_array_route_matches_mpmath's: eps times "
        "the exponents, log n! and n|z|^2",
        _berezin_points, _berezin_compare),
    "ginibre_exterior_K": Route(
        "Ginibre K_n asymptotics on exterior pairs, no correction terms",
        "kernel_asymptotic: the conformal data phi, QQ, HH and the Szego kernel",
        "exterior_kernel_expansion(n, z, w, 0): the closed form in zeta = z conj(w)",
        "",
        "2 eps n (|z|^2 + |w|^2 + pi): both routes round the exponents n|z|^2/2, n|w|^2/2, "
        "n log|zeta| and n arg zeta, in different orders; measured at most 0.29 eps n (...)",
        _ginibre_exterior_points, _ginibre_exterior_compare),
    "boundary_law": Route(
        "the boundary law on the droplet's boundary: ginibre, elliptic (1, 3), quartic",
        "kernel_asymptotic: the exterior formula evaluated at boundary points",
        "cocycle times boundary_correlation_modulus times S/|S|",
        "pot.exterior and szego_kernel",
        "8 eps n: the formula's n (Re QQ - Q)/2, zero on the boundary, is a difference "
        "of terms of size n; measured at most 1.7 eps n",
        _boundary_law_points, _boundary_law_compare),
}

# quantity: (the library call that is its one route, where that route stops
# or is unchecked, the ROADMAP item that gives it a second)
ONE_ROUTE = {
    "Ginibre C_n outside the tests": (
        "berezin_cauchy_transform", "the polar walk; only the tests' mpmath sums check it",
        "item 13, the closed-form Berezin Cauchy transform"),
    "quartic K_n past n = 800": (
        "OracleSource", "the Gram route, whose moment table overflows past n = 800",
        "item 14, the exact layer from log-scaled radial moments"),
    "elliptic bulk K_n past n ~ 80": (
        "elliptic_kernel_exact", "the Hermite sum, which cancels on bulk pairs from n ~ 80",
        "item 1, the contour integral of Mehler's formula"),
}


@pytest.mark.parametrize("route", list(ROUTES.values()), ids=list(ROUTES))
def test_routes_agree(route):
    failures = []
    for point in route.points():
        gap, tol = route.compare(point)
        if not gap <= tol:
            failures.append(f"{route.quantity} at {point!r}: gap {gap:.3e} > {tol:.3e}")
    assert not failures, "\n".join(failures)


def test_the_one_route_list_names_public_callables():
    assert ONE_ROUTE and not ONE_ROUTE.keys() & {route.quantity for route in ROUTES.values()}
    assert {call for call, _, _ in ONE_ROUTE.values()} <= set(vars(wpkernel))
