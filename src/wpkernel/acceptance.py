"""Acceptance suite: one callable per criterion, hard tolerances pinned.

Each criterion function returns a CriterionResult with a pass flag and the
measured quantities, so the same checks back both the pytest acceptance
module and the command-line `validate` subcommand.  Asymptotic statements
are verified as fitted convergence orders or monotone error decay at desk
scale; exact identities are verified against explicit numerical budgets.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import (
    GinibreSource,
    berezin_cauchy_transform,
    boundary_speed,
    boundary_speed_fd,
    classify,
    compute_moments,
    droplet_mass,
    elliptic_kernel_exact,
    ginibre_berezin,
    ginibre_kernel_exact,
    ginibre_one_point,
    kernel_asymptotic,
    kernel_oracle,
    loop_residual,
    lowdeg_bound_check,
    make_elliptic_ginibre,
    make_ginibre,
    make_radial,
    orthonormalize,
    partial_exp_sum,
    partial_exp_sum_complement,
    partial_exp_sum_gamma_route,
    poisson_disc,
    rho,
    szego_reproducing_check,
    tail_kernel,
    tricomi_b,
    trace_szego_curve,
    variational_residual,
    harmonic_measure_mass,
    RadialProfile,
    Region,
)
from .expansion import exterior_kernel_expansion, gaussian_belt_profile
from .ginibre_exact import ginibre_berezin_array
from .hardy import basis_gram_matrix
from .scaled_numerics import gauss_on_interval, poly_q, quad_trapezoid_periodic
from .szego_geometry import negative_axis_crossing
from .ward import ginthm_second_coeff


@dataclass
class CriterionResult:
    cid: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d}: {self.title}"


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.time()
        result = fn(*args, **kwargs)
        result.elapsed = time.time() - t0
        return result

    return wrapper


def _rel_error_lc(a, b) -> float:
    """|a/b - 1| for two LogComplex values."""
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.arg - b.arg)) - 1.0)


@_timed
def criterion_1() -> CriterionResult:
    """Exterior expansion order: fitted slope within +-0.25 of -(k+1)."""
    ns = [100, 200, 400, 800, 1600]
    slopes = {}
    ok = True
    for z, w in [(1.5, 1.2), (2 + 1j, 1.0)]:
        for k in (0, 1, 2):
            errs = []
            for n in ns:
                exact = ginibre_kernel_exact(n, z, w).value
                approx = exterior_kernel_expansion(n, z, w, k)
                errs.append(_rel_error_lc(exact, approx))
            slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
            slopes[f"z={z},k={k}"] = slope
            if not (-(k + 1) - 0.25 <= slope <= -(k + 1) + 0.25):
                ok = False
    return CriterionResult(1, "exterior expansion order", ok, {"slopes": slopes})


@_timed
def criterion_2() -> CriterionResult:
    """Exact correction-term algebra."""
    r1 = rho(1)
    # -1/12 - zeta/(zeta-1)^2 over the common denominator (zeta-1)^2
    expected_num = poly_q(Fraction(-1, 12), Fraction(-5, 6), Fraction(-1, 12))
    ok_rho1 = r1.numerator == expected_num and r1.pole_order == 2
    ok_poles = all(rho(j).pole_order == 2 * j for j in range(1, 5))
    ok_b2 = tricomi_b(2) == poly_q(0, 1, 2)
    ok = ok_rho1 and ok_poles and ok_b2
    return CriterionResult(2, "exact rho/Tricomi algebra", ok, {
        "rho1": ok_rho1, "pole_orders": ok_poles, "b2": ok_b2,
    })


@_timed
def criterion_3() -> CriterionResult:
    """Bulk regime: scaled error stays within a factor-10 band."""
    zeta = 0.25
    rho_mod = abs(zeta * math.exp(1 - zeta))
    vals = []
    for n in [50, 100, 200, 400]:
        comp = partial_exp_sum_complement(n, zeta)
        vals.append(math.exp(comp.log_mag) * math.sqrt(n) / rho_mod ** n)
    band = max(vals) / min(vals)
    return CriterionResult(3, "bulk regime error band", band <= 10.0,
                           {"values": vals, "band": band})


@_timed
def criterion_4() -> CriterionResult:
    """Boundary half-mass: |R_n/n - 1/2| decays like n^{-1/2}."""
    ns = [500, 1000, 2000, 4000]
    errs = [abs(math.exp(partial_exp_sum(n, 1.0, crosscheck=False).log_mag) - 0.5)
            for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    ok = abs(slope + 0.5) <= 0.15
    return CriterionResult(4, "boundary half-mass decay", ok,
                           {"slope": slope, "errors": errs})


@_timed
def criterion_5() -> CriterionResult:
    """Off-diagonal boundary decay of the Berezin kernel."""
    b = ginibre_berezin(1000, 1.0, 1j)
    err = abs(math.pi * abs(1.0 - 1j) ** 2 * b - 1.0)
    return CriterionResult(5, "off-diagonal boundary decay", err < 0.05, {"error": err})


def _belt_tv_distance(n: int, z: complex, m_theta: int = 160, m_ell: int = 48) -> float:
    c_n = n ** (-0.4)
    tq = quad_trapezoid_periodic(m_theta)
    lq = gauss_on_interval(m_ell, -c_n, c_n)
    th, ell = np.meshgrid(tq.nodes, lq.nodes, indexing="ij")
    grid = np.exp(1j * th) * (1.0 + ell)
    b_vals = ginibre_berezin_array(n, z, grid)
    f_exact = b_vals * (1.0 + ell) / math.pi
    f_model = np.array([
        [poisson_disc(z, t) * gaussian_belt_profile(n, l) for l in lq.nodes]
        for t in tq.nodes
    ])
    wts = np.outer(tq.weights, lq.weights)
    me = float(np.sum(wts * f_exact))
    mm = float(np.sum(wts * f_model))
    return 0.5 * float(np.sum(wts * np.abs(f_exact / me - f_model / mm)))


@_timed
def criterion_6() -> CriterionResult:
    """Gaussian belt: TV distance small at n=400 and shrinking from n=100."""
    tv100 = _belt_tv_distance(100, 2.0)
    tv400 = _belt_tv_distance(400, 2.0)
    ok = tv400 < 0.05 and tv400 < tv100
    return CriterionResult(6, "Gaussian Berezin belt", ok,
                           {"tv_100": tv100, "tv_400": tv400})


@_timed
def criterion_7() -> CriterionResult:
    """Exact-route equivalence: summation vs gamma fraction vs Gram oracle."""
    worst_cf = 0.0
    for zeta in (1.5, 2.0, 3 + 1j):
        for n in (50, 200):
            a = partial_exp_sum(n, zeta, crosscheck=False)
            b = partial_exp_sum_gamma_route(n, zeta)
            worst_cf = max(worst_cf, _rel_error_lc(a, b))
    gin = make_ginibre()
    basis = orthonormalize(compute_moments(gin, 40, 39))
    rng = np.random.default_rng(7)
    worst_oracle = 0.0
    for _ in range(20):
        z = complex(*rng.uniform(-1.4, 1.4, 2))
        w = complex(*rng.uniform(-1.4, 1.4, 2))
        worst_oracle = max(worst_oracle, _rel_error_lc(
            kernel_oracle(basis, z, w), ginibre_kernel_exact(40, z, w).value
        ))
    ok = worst_cf < 1e-10 and worst_oracle < 1e-8
    return CriterionResult(7, "exact-route equivalence", ok, {
        "gamma_route_worst": worst_cf, "oracle_worst": worst_oracle,
    })


@_timed
def criterion_8() -> CriterionResult:
    """General-potential boundary asymptotics against the Hermite kernel."""
    ell = make_elliptic_ginibre(1.0, 3.0)
    p1 = ell.boundary_point(0.3, 1.0).p
    p2 = ell.boundary_point(2.0, 1.0).p
    errs = []
    for n in (20, 40, 60):
        ko = elliptic_kernel_exact(ell, n, p1, p2)
        ka = kernel_asymptotic(ell, n, p1, p2)
        errs.append(abs(math.exp(ko.log_mag - ka.value.log_mag) - 1.0))
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.10
    return CriterionResult(8, "elliptic Szego-type asymptotics", ok, {"errors": errs})


@_timed
def criterion_9() -> CriterionResult:
    """Tail-kernel sufficiency and low-degree suppression."""
    gin = make_ginibre()
    tail = tail_kernel(gin, 400, 1.3, 1.3)
    exact = ginibre_kernel_exact(400, 1.3, 1.3).value
    tail_err = _rel_error_lc(tail, exact)
    low100 = lowdeg_bound_check(gin, 100, 1.2).max_scaled
    low400 = lowdeg_bound_check(gin, 400, 1.2).max_scaled
    superpoly = low400 < low100 / 1e3
    ok = tail_err < 0.02 and superpoly
    return CriterionResult(9, "tail-kernel sufficiency", ok, {
        "tail_error": tail_err, "lowdeg_100": low100, "lowdeg_400": low400,
    })


@_timed
def criterion_10() -> CriterionResult:
    """Hardy layer: reproducing residuals, measure mass, orthonormality."""
    gin = make_ginibre()
    ell = make_elliptic_ginibre(1.0, 3.0)
    r_disc = szego_reproducing_check(gin, 1, 2.0, nodes=512)
    r_ell = szego_reproducing_check(ell, 3, 2 + 0.5j, nodes=512)
    mass_err = abs(harmonic_measure_mass(ell, 3.0, nodes=512) - 1.0)
    gram = basis_gram_matrix(ell, 5, nodes=512)
    gram_err = float(np.max(np.abs(gram - np.eye(5))))
    ok = r_disc < 1e-8 and r_ell < 1e-7 and mass_err < 1e-9 and gram_err < 1e-9
    return CriterionResult(10, "Szego/Hardy layer", ok, {
        "residual_disc": r_disc, "residual_ellipse": r_ell,
        "measure_mass_error": mass_err, "orthonormality_error": gram_err,
    })


@_timed
def criterion_11() -> CriterionResult:
    """Loop equation residual within budget and within 1e-3 n LapQ."""
    src = GinibreSource(50)
    details = {}
    ok = True
    for z in (0.5, 1.5):
        lr = loop_residual(src, z)
        within_budget = bool(abs(lr.residual) <= lr.budget)
        within_scale = bool(abs(lr.residual) <= 1e-3 * 50 * 1.0)
        details[f"z={z}"] = {
            "residual": float(abs(lr.residual)), "budget": float(lr.budget),
            "within_budget": within_budget, "within_scale": within_scale,
        }
        ok = ok and within_budget and within_scale
    return CriterionResult(11, "loop equation residual", ok, details)


@_timed
def criterion_12() -> CriterionResult:
    """Two-term Cauchy transform of the Berezin measure at z = 2."""
    target = ginthm_second_coeff(2.0).real  # -10/27
    errs = {}
    for n in (200, 800):
        mu = berezin_cauchy_transform(GinibreSource(n), 2.0)
        errs[n] = abs(n * (mu.real - 2.0 / 3.0) - target)
    ok = errs[800] < 0.1 * abs(target) and errs[800] < errs[200]
    return CriterionResult(12, "two-term Cauchy transform", ok,
                           {"target": target, "errors": errs})


@_timed
def criterion_13() -> CriterionResult:
    """Potential-theory layer: mass, variational constancy, ridge, speed."""
    gin = make_ginibre()
    ell = make_elliptic_ginibre(1.0, 3.0)
    quart = make_radial(RadialProfile(
        q=lambda r: 0.5 * r ** 4, dq=lambda r: 2.0 * r ** 3,
        d2q=lambda r: 6.0 * r ** 2, name="quartic",
    ))
    details = {}
    ok = True
    for pot in (gin, ell, quart):
        for tau in (0.5, 0.9, 1.0):
            err = abs(droplet_mass(pot, tau) - tau)
            details[f"mass[{pot.name},{tau}]"] = float(err)
            ok = ok and err < 1e-6
    var_res = variational_residual(ell, 1.0)
    details["variational_residual"] = var_res
    ok = ok and var_res < 1e-4
    ell_tol = 1e-3
    for pot, theta in ((gin, 0.0), (ell, 0.7), (quart, 1.3)):
        bp = pot.boundary_point(theta, 1.0)
        val = pot.ridge(bp.p + ell_tol * bp.normal, 1.0) / ell_tol ** 2
        rel = abs(val / (2.0 * pot.laplacian(bp.p)) - 1.0)
        details[f"ridge[{pot.name}]"] = float(rel)
        ok = ok and rel < 0.01
        fd = boundary_speed_fd(pot, 1.0, bp.p, 1e-3)
        an = boundary_speed(pot, 1.0, bp.p)
        details[f"speed[{pot.name}]"] = float(abs(fd - an))
        ok = ok and abs(fd - an) < 1e-4
    return CriterionResult(13, "potential-theory layer", ok, details)


@_timed
def criterion_14() -> CriterionResult:
    """Szego-curve geometry and the classification probe set."""
    curve = trace_szego_curve(step=1e-3, tol=1e-9)
    closes = bool(curve.closed and curve.points[0] == 1.0 and curve.points[-1] == 1.0)
    crossing = float(np.min(curve.points.real))
    crossing_ok = abs(crossing + 0.27846) < 1e-4
    crossing_vs_root = abs(crossing + negative_axis_crossing()) < 1e-9
    probes = {
        1.8: Region.REGION_II, 0.5: Region.REGION_I, 1j: Region.REGION_III,
        3.0: Region.REGION_II, 0.9j: Region.REGION_III,
    }
    labels_ok = all(classify(z).label is lab for z, lab in probes.items())
    ok = closes and crossing_ok and crossing_vs_root and labels_ok
    return CriterionResult(14, "Szego-curve geometry", ok, {
        "closes": closes, "crossing": crossing, "labels_ok": labels_ok,
    })


ALL_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13, 14: criterion_14,
}

SUITES = {
    "all": list(ALL_CRITERIA),
    "ginibre-exterior": [1, 2, 3, 4, 5],
    "belt": [6],
    "oracle": [7, 8],
    "tail": [9],
    "hardy": [10],
    "ward": [11, 12],
    "potential": [13],
    "geometry": [14],
    "fast": [2, 3, 4, 5, 9, 10, 13, 14],
}


def run_suite(suite: str = "all", echo=print):
    """Run a named group of criteria; returns the list of results."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for cid in SUITES[suite]:
        result = ALL_CRITERIA[cid]()
        results.append(result)
        if echo is not None:
            echo(result.line())
    return results
