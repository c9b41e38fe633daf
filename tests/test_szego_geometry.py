import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpkernel import DomainError, Region, classify, trace_curve_K, trace_szego_curve, u_map
from wpkernel import szego_geometry
from wpkernel.szego_geometry import RegionLabel, negative_axis_crossing, u_abs


# reference oracles on sampled curves, independent of the closed forms


def point_in_polygon(points: np.ndarray, z: complex) -> bool:
    """Even-odd ray casting against the polygon through the given vertices."""
    x1, y1 = points.real[:-1], points.imag[:-1]
    x2, y2 = points.real[1:], points.imag[1:]
    crosses = (y1 > z.imag) != (y2 > z.imag)
    x_cross = x1 + (z.imag - y1) * (x2 - x1) / np.where(crosses, y2 - y1, 1.0)
    return bool(np.count_nonzero(crosses & (x_cross > z.real)) % 2)


def dist_to_polyline(points: np.ndarray, z: complex) -> float:
    a = points[:-1]
    b = points[1:]
    ab = b - a
    denom = np.abs(ab) ** 2
    keep = denom > 0
    a, b, ab, denom = a[keep], b[keep], ab[keep], denom[keep]
    t = np.clip(((z - a) * np.conj(ab)).real / denom, 0.0, 1.0)
    proj = a + t * ab
    return float(np.min(np.abs(z - proj)))


def winding_number(points: np.ndarray, z0: complex) -> float:
    rel = points - z0
    dphi = np.angle(rel[1:] / rel[:-1])
    return float(np.sum(dphi) / (2.0 * math.pi))


def test_u_map_values():
    assert u_map(1.0) == 1.0
    assert u_map(0.0) == 0.0
    assert abs(u_map(1j)) == pytest.approx(math.e, rel=1e-15)


@pytest.mark.parametrize("zeta", [
    complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf), -800.0, -708.5,
], ids=["nan", "inf", "imaginary-inf", "exp-overflow", "product-overflow"])
def test_u_map_bad_input_raises_domain_error(zeta):
    # nan and inf returned nan; e^{1 - zeta} past float64 raised OverflowError
    with pytest.raises(DomainError):
        u_map(zeta)


def test_traced_curve_contracts():
    step, tol = 1e-3, 1e-9
    curve = trace_szego_curve(step=step)
    assert curve.closed
    assert curve.points[0] == 1.0 and curve.points[-1] == 1.0
    spacing = np.abs(np.diff(curve.points))
    assert spacing.max() <= step
    residual = np.abs(np.abs(curve.points * np.exp(1 - curve.points)) - 1.0)
    assert residual.max() <= tol
    assert np.abs(curve.points).max() <= 1.0 + tol
    assert winding_number(curve.points, 0.5) == pytest.approx(1.0, abs=1e-9)


def test_negative_axis_crossing():
    # independent oracle: bisection on t e^t = e^{-1}
    t = negative_axis_crossing()
    assert t * math.exp(t) == pytest.approx(math.exp(-1.0), abs=1e-13)
    curve = trace_szego_curve()
    assert float(np.min(curve.points.real)) == pytest.approx(-t, abs=1e-9)
    assert -t == pytest.approx(-0.27846, abs=1e-4)


def test_curve_K_contracts():
    step, tol, extent = 1e-3, 1e-9, 1.0
    curve = trace_curve_K(step=step)
    assert not curve.closed
    mid = len(curve.points) // 2
    assert curve.points[mid] == 1.0
    # vertical tangent at the saddle
    t_up = (curve.points[mid + 1] - 1.0) / abs(curve.points[mid + 1] - 1.0)
    assert abs(t_up - 1j) < 5e-3
    residual = np.abs([u_map(p).imag for p in curve.points])
    assert residual.max() <= tol
    # the branch leaves into |u| > 1
    far = curve.points[np.abs(curve.points - 1.0) > 0.45]
    assert all(u_abs(p) > 1.0 for p in far)
    # endpoints reach the requested extent
    assert abs(curve.points[0] - 1.0) >= extent - 2e-3


def test_classification_probe_set():
    expected = {
        1.8: (Region.REGION_II, True),
        0.5: (Region.REGION_I, False),
        1j: (Region.REGION_III, True),
        3.0: (Region.REGION_II, True),
        0.9j: (Region.REGION_III, True),
        -2.0: (Region.REGION_III, True),
        2 + 1j: (Region.REGION_II, True),
        1.0: (Region.AT_ONE, False),
    }
    for z, (label, in_e) in expected.items():
        got = classify(z)
        assert got.label is label, f"{z}: {got.label} != {label}"
        assert got.in_E_sz == in_e


def test_classify_conjugation_symmetry():
    rng = np.random.default_rng(17)
    for _ in range(60):
        z = complex(rng.uniform(-1.5, 2.5), rng.uniform(0.01, 2.0))
        assert classify(z).label is classify(z.conjugate()).label


def test_exterior_for_real_axis_and_outside_disc():
    for x in [1.01, 1.5, 3.0, 10.0]:
        assert classify(x).in_E_sz
    rng = np.random.default_rng(23)
    for _ in range(40):
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.uniform(1.0001, 3.0)
        assert classify(z).in_E_sz


def test_region_boundary_flip():
    curve = trace_szego_curve()
    # pick a few smooth curve points and nudge along the inward normal
    for idx in [len(curve.points) // 5, len(curve.points) // 3, len(curve.points) // 2]:
        p = curve.points[idx]
        tangent = curve.points[idx + 1] - curve.points[idx - 1]
        normal = 1j * tangent / abs(tangent)
        eps = 1e-4
        inside, outside = p + eps * normal, p - eps * normal
        if not point_in_polygon(curve.points, inside):
            inside, outside = outside, inside
        assert classify(inside).label is Region.REGION_I
        assert classify(outside).label is not Region.REGION_I


def test_on_curve_labels():
    curve = trace_szego_curve()
    p = curve.points[len(curve.points) // 4]
    assert classify(p, tol=1e-6).label is Region.ON_SZEGO_CURVE
    k_curve = trace_curve_K()
    q = k_curve.points[len(k_curve.points) // 2 + 200]
    assert classify(q, tol=1e-6).label is Region.ON_CURVE_K
    # distant zeros of Im u (the real axis) are not claimed by the K label
    assert classify(-2.0, tol=1e-6).label is Region.REGION_III


def test_dist_to_polyline_and_polygon_helpers():
    square = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)
    assert point_in_polygon(square, 0.5 + 0.5j)
    assert not point_in_polygon(square, 1.5 + 0.5j)
    assert dist_to_polyline(square, 0.5 + 2j) == pytest.approx(1.0, abs=1e-14)


def test_step_precondition():
    with pytest.raises(DomainError):
        trace_szego_curve(step=0.2)


@pytest.mark.parametrize("zeta,expected", [
    (complex(math.nan, 0.0), DomainError),
    (complex(math.inf, 1.0), DomainError),
    (-1000.0, Region.REGION_III),
    (1e300, Region.REGION_II),
    (complex(-1e308, 1e308), Region.REGION_III),
    (complex(1.5e308, 1.5e308), Region.REGION_II),
], ids=["nan", "inf", "minus-1000", "1e300", "overflow-scale-modulus", "overflowing-modulus"])
def test_classify_bad_and_overflow_scale_input(zeta, expected):
    if expected is DomainError:
        with pytest.raises(DomainError):
            classify(zeta)
    else:
        assert classify(zeta).label is expected


def test_classify_agrees_with_ray_cast():
    # away from the tol band, region I is exactly the inside of the sampled gamma
    gamma = trace_szego_curve().points
    xs, ys = np.meshgrid(np.linspace(-0.5, 1.2, 70), np.linspace(-1.0, 1.0, 70))
    checked = 0
    for z in (xs + 1j * ys).ravel():
        if abs(u_abs(z) - 1.0) <= 1e-6:
            continue
        checked += 1
        assert (classify(z).label is Region.REGION_I) == point_in_polygon(gamma, z), z
    assert checked > 4800


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False),
       st.sampled_from([1e-9, 1e-6]))
def test_classify_conjugation_symmetry_property(zeta, tol):
    a, b = classify(zeta, tol=tol), classify(zeta.conjugate(), tol=tol)
    assert (a.label, a.in_E_sz) == (b.label, b.in_E_sz)


def test_curve_K_is_the_closed_form_graph():
    pts = trace_curve_K().points
    off_axis = pts[pts.imag != 0.0]
    y = off_axis.imag
    assert np.allclose(off_axis.real, y * np.cos(y) / np.sin(y), rtol=1e-14, atol=0.0)
    assert max(abs(u_map(p).imag) for p in pts) <= 1e-12


def test_classify_returns_one_label_per_region():
    # one shared, equal-to-fresh RegionLabel per region; each region fixes in_E_sz
    probes = {Region.REGION_I: [0.5, 0.2j], Region.REGION_II: [1.8, 3.0 - 0.5j],
              Region.REGION_III: [0.5j, -2.5 + 1j], Region.ON_SZEGO_CURVE: [-negative_axis_crossing()],
              Region.ON_CURVE_K: [complex(0.5 / math.tan(0.5), 0.5)], Region.AT_ONE: [1.0]}
    exterior = {Region.REGION_II, Region.REGION_III, Region.ON_CURVE_K}
    for region, points in probes.items():
        labels = [classify(z) for z in points]
        assert all(label is labels[0] for label in labels)
        assert labels[0] == RegionLabel(region, region in exterior)


def test_array_labels_equal_classify(monkeypatch):
    # numpy's hypot, log and exp may differ from math's in the last ulp, which
    # flips raw array labels at tol = 0; the points at a decision edge go to classify
    rng = np.random.default_rng(35)
    curves = np.concatenate([trace_szego_curve(1e-4).points, trace_curve_K(1e-4).points])
    curves = rng.choice(curves, 4000, replace=False)
    offsets = [curves + d * np.exp(2j * math.pi * rng.uniform(size=curves.size))
               for d in (1e-9, 1e-10)]
    ring = 1.0 + 1e-9 * np.exp(2j * math.pi * rng.uniform(size=500))
    uniform = rng.uniform(-3.0, 3.0, 4000) + 1j * rng.uniform(-3.0, 3.0, 4000)
    extremes = [0.0, 1.0, -0.0j, 5e-324, 1e300, -1e300j, 1.5e308 * (1 + 1j), 700.0 + 1e304j]
    zeta = np.concatenate([uniform, curves, *offsets, ring, extremes])
    handed = []
    monkeypatch.setattr(szego_geometry, "classify",
                        lambda z, tol: handed.append(z) or classify(z, tol))
    for tol in (0.0, 1e-12, 1e-9, 1e-3):
        handed.clear()
        labels = [szego_geometry._LABELS[c] for c in szego_geometry._classify_codes(zeta, tol)]
        assert labels == [classify(complex(z), tol) for z in zeta], tol
        if tol == 0.0:
            assert handed
