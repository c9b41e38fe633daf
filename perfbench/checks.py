"""Correctness checks of the benchmark: every output against a second route.

A check yields (name, error, tolerance) triples; a triple passes when
error < tolerance, and error / tolerance is its margin.  `Tally` times each
operation, then checks its output untimed; it counts the operation as failed
when it raises or any of its triples fails, and keeps the worst margin seen.
A failed check never aborts a run.

The pure functions below only need the public `wpkernel` API, so the tests
in `tests/test_checks.py` can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import cmath
import math
import time
import traceback

import wpkernel as wp

# criterion 7: summation route against the incomplete-gamma route
GAMMA_ROUTE_TOL = 1e-10
# criterion 1: fitted convergence order within +-0.25 of -(k+1)
ORDER_TOL = 0.25
# criterion 11: loop residual against its budget and against 1e-3 n LapQ
LOOP_SCALE = 1e-3
# criterion 12: second coefficient of the Cauchy transform within 10%
TWO_TERM_BAND = 0.1
# criterion 10 (ellipse): reproducing residual and harmonic-measure mass
REPRODUCING_TOL = 1e-7
MEASURE_MASS_TOL = 1e-9
# criterion 13: droplet mass
DROPLET_MASS_TOL = 1e-6
# array and scalar Berezin routes; the library's own route cross-check level
ROUTE_AGREEMENT_TOL = 1e-8
# Berezin measures are probability measures; the native Gram oracle at
# n = 40 reaches ~6e-6, the exact Ginibre source ~1e-13
BEREZIN_MASS_TOL = 1e-4
# a classified point closer than this to gamma, K or 1 is not checked
SPECIAL_CURVE_GAP = 1e-6


class Tally:
    """Operation and failure counts, the worst error/tolerance ratio, and the
    time spent in the operations under test (checks are not timed)."""

    def __init__(self, tracer=None, probe=None):
        self.attempted = 0
        self.failed = 0     # operations that raised or failed their check
        self.wrong = 0      # of those, outputs that a check rejected
        self.worst_margin = 0.0
        self.margins = {}   # worst margin per check
        self.failures = []  # (operation, detail), first few only
        self.op_s = 0.0
        # the traced run records the library calls a check makes in the
        # "check" phase, which the per-layer metrics leave out
        self.tracer = tracer
        # called before and after each operation, outside its clock
        self.probe = probe or (lambda: None)

    def _fail(self, name: str, detail: str, count: int = 1, wrong: bool = True):
        self.failed += count
        self.wrong += count if wrong else 0
        if len(self.failures) < 20:
            self.failures.append((name, detail))

    def _timed(self, op):
        self.probe()
        t0 = time.perf_counter()
        try:
            return op()
        finally:
            self.op_s += time.perf_counter() - t0
            self.probe()

    def _check(self, check, out):
        if self.tracer is None:
            return check(out)
        phase, self.tracer.phase = self.tracer.phase, "check"
        try:
            return check(out)
        finally:
            self.tracer.phase = phase

    def record(self, name: str, triples) -> bool:
        """Count one operation judged by (check, error, tolerance) triples."""
        self.attempted += 1
        ok = True
        for check, err, tol in triples:
            margin = err / tol if tol > 0 else math.inf
            if not margin < 1.0:  # NaN fails too
                ok = False
                detail = f"{check}: error {err!r} vs tolerance {tol!r}"
            margin = margin if math.isfinite(margin) else math.inf
            self.worst_margin = max(self.worst_margin, margin)
            self.margins[check] = max(self.margins.get(check, 0.0), margin)
        if not ok:
            self._fail(name, detail)
        return ok

    def run_batch(self, name: str, ops: int, op, check) -> int:
        """Time op() as `ops` requests, then count check(output) of them as
        failed; an exception in op() fails all of them."""
        self.attempted += ops
        try:
            out = self._timed(op)
        except Exception:  # a failing operation is counted, the run goes on
            self._fail(name, traceback.format_exc(limit=3), ops, wrong=False)
            return ops
        try:
            bad = min(ops, int(self._check(check, out)))
            detail = f"{bad} of {ops} requests failed their check"
        except Exception:  # a check that cannot judge the output fails it
            bad, detail = ops, traceback.format_exc(limit=3)
        if bad:
            self._fail(name, detail, bad)
            self.worst_margin = math.inf
        return bad

    def run(self, name: str, op, check=None):
        """Time op() as one operation, then judge check(output) -> triples;
        returns the output, or None when op() raised or a check failed.

        An exception in op() fails the operation (the library refused the
        request); an exception in check() fails it as a wrong output."""
        try:
            out = self._timed(op)
        except Exception:  # a failing operation is counted, the run goes on
            self.attempted += 1
            self._fail(name, traceback.format_exc(limit=3), wrong=False)
            return None
        try:
            triples = list(self._check(check, out)) if check is not None else []
        except Exception:
            self.attempted += 1
            self._fail(name, traceback.format_exc(limit=3))
            return None
        return out if self.record(name, triples) else None


def rel_error_lc(a, b) -> float:
    """|a/b - 1| for two LogComplex values."""
    return abs(cmath.exp(complex(a.log_mag - b.log_mag, a.arg - b.arg)) - 1.0)


def kernel_via_gamma_route(n: int, z: complex, w: complex):
    """K_n(z, w) = n E_n(z w~) e^{n z w~ - n|z|^2/2 - n|w|^2/2}, with E_n
    from the continued-fraction route (needs Re(z w~) > 1)."""
    zeta = z * w.conjugate()
    e = wp.partial_exp_sum_gamma_route(n, zeta)
    return wp.LogComplex(
        math.log(n) + e.log_mag + n * zeta.real - 0.5 * n * (abs(z) ** 2 + abs(w) ** 2),
        e.arg + n * zeta.imag,
    )


def kernel_checks(n: int, z: complex, w: complex, exact, partial_sum):
    """Exact kernel and E_n against the gamma route (criterion 7)."""
    zeta = z * w.conjugate()
    return [
        ("kernel_vs_gamma_route",
         rel_error_lc(exact, kernel_via_gamma_route(n, z, w)), GAMMA_ROUTE_TOL),
        ("partial_sum_vs_gamma_route",
         rel_error_lc(partial_sum, wp.partial_exp_sum_gamma_route(n, zeta)), GAMMA_ROUTE_TOL),
    ]


def expansion_checks(n: int, errors: dict):
    """Exterior expansion against the exact kernel (criterion 1).

    errors[(m, k)] is the relative error of the k-term expansion at m = n
    and 2n.  For k = 0, 1 the order fitted over (n, 2n) must lie within
    +-0.25 of -(k+1); the k = 2 error sits too close to rounding at 2n for
    a fit, so it must only undercut the k = 1 error.
    """
    out = []
    for k in (0, 1):
        slope = math.log(errors[(2 * n, k)] / errors[(n, k)]) / math.log(2.0)
        out.append((f"expansion_order_k{k}", abs(slope + k + 1), ORDER_TOL))
    out.append(("expansion_k2_below_k1", errors[(n, 2)], errors[(n, 1)]))
    return out


def expected_region(zeta: complex):
    """Closed-form region of zeta, or None within SPECIAL_CURVE_GAP of gamma,
    K or 1: Region I iff |zeta| < 1 and |u| < 1, Region III iff |u| > 1,
    Region II otherwise, with u(zeta) = zeta e^{1 - zeta}."""
    if abs(zeta - 1.0) < SPECIAL_CURVE_GAP:
        return None
    u = zeta * cmath.exp(1.0 - zeta)
    if abs(abs(u) - 1.0) < SPECIAL_CURVE_GAP:
        return None
    if abs(u) > 1.0:
        if abs(u.imag) < SPECIAL_CURVE_GAP and abs(zeta - 1.0) <= 1.0 + SPECIAL_CURVE_GAP:
            return None  # near the curve K
        return "RegionIII"
    return "RegionI" if abs(zeta) < 1.0 else "RegionII"


def classify_mismatches(points, csv_text: str):
    """Compare `wpkernel classify` CSV output with the closed-form rule.

    Returns (mismatched rows, checked rows); a missing or extra row, a row
    whose point differs from the input, a wrong label or a wrong exterior
    flag each count as a mismatch.
    """
    rows = [line for line in csv_text.splitlines()
            if line and not line.startswith("#")]
    if not rows or not rows[0].startswith("re,"):
        return len(points), 0
    rows = rows[1:]
    mismatched = abs(len(rows) - len(points))
    checked = 0
    for point, row in zip(points, rows):
        fields = row.split(",")
        if len(fields) != 4 or complex(float(fields[0]), float(fields[1])) != point:
            mismatched += 1
            continue
        expect = expected_region(point)
        if expect is None:
            continue
        checked += 1
        exterior = "False" if expect == "RegionI" else "True"
        if fields[2] != expect or fields[3] != exterior:
            mismatched += 1
    return mismatched, checked


def two_term_check(n: int, z: complex, mu: complex):
    """Cauchy transform against its two-term expansion (criterion 12).

    ginthm_two_term(m, z) = a(z) + b(z)/m, so the values at n and 2n give
    the leading term a and the second coefficient b.
    """
    t1 = wp.ginthm_two_term(n, z)
    t2 = wp.ginthm_two_term(2 * n, z)
    second = 2 * n * (t1 - t2)
    leading = 2 * t2 - t1
    return [("two_term_band", abs(n * (mu - leading) - second), TWO_TERM_BAND * abs(second))]


def loop_checks(lr, lap_q: float = 1.0):
    """Loop residual within budget and within 1e-3 n LapQ (criterion 11)."""
    res = abs(lr.residual)
    return [("loop_within_budget", res, lr.budget),
            ("loop_within_scale", res, LOOP_SCALE * lr.n * lap_q)]
