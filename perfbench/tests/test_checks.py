"""The benchmark's checks reject wrong outputs.

Run with `PYTHONPATH=src python -m pytest -q perfbench/tests`.
"""

import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks as ck  # noqa: E402
import wpkernel as wp  # noqa: E402
import wpkernel.cli  # noqa: E402

POINTS = [0.3 + 0.1j, 2.5 + 0j, 1j, -0.5 + 0.2j]  # regions I, II, III, III


def _classify_csv(tmp_path):
    src = tmp_path / "points.csv"
    out = tmp_path / "labels.csv"
    src.write_text("re,im\n" + "".join(f"{p.real!r},{p.imag!r}\n" for p in POINTS))
    assert wpkernel.cli.main(["classify", "--points", str(src), "--out", str(out)]) == 0
    return out.read_text()


def test_mislabelled_classify_row_fails(tmp_path):
    text = _classify_csv(tmp_path)
    assert ck.classify_mismatches(POINTS, text) == (0, len(POINTS))
    wrong = text.replace("RegionII,", "RegionI,", 1)
    assert wrong != text
    tally = ck.Tally()
    assert tally.run_batch("classify", len(POINTS), lambda: wrong,
                           lambda text: ck.classify_mismatches(POINTS, text)[0]) == 1
    assert (tally.attempted, tally.failed, tally.wrong) == (len(POINTS), 1, 1)


def test_perturbed_kernel_value_fails():
    n, z, w = 400, 1.5 + 0.2j, 1.3 - 0.1j
    exact = wp.ginibre_kernel_exact(n, z, w).value
    partial = wp.partial_exp_sum(n, z * w.conjugate())
    perturbed = wp.LogComplex(exact.log_mag + math.log1p(1e-6), exact.arg)
    tally = ck.Tally()
    assert tally.record("kernel", ck.kernel_checks(n, z, w, exact, partial))
    assert not tally.record("kernel", ck.kernel_checks(n, z, w, perturbed, partial))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.worst_margin > 1.0


def test_raising_operation_counts_as_failed():
    tally = ck.Tally()

    def boom():
        raise wp.RegimeError("outside the exterior domain")

    assert tally.run("expansion", boom) is None
    # the library refused the request: a failed operation, not a wrong output
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_checks_are_not_timed():
    tally = ck.Tally()

    def slow_check(out):
        time.sleep(0.2)
        return [("value", abs(out - 1.0), 1e-12)]

    assert tally.run("op", lambda: 1.0, slow_check) == 1.0
    assert tally.op_s < 0.1
    assert (tally.attempted, tally.failed) == (1, 0)
