import importlib.util
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from wpkernel import (
    __version__,
    GinibreSource,
    OracleSource,
    berezin_cauchy_transform,
    compute_moments,
    kernel_oracle,
    make_elliptic_ginibre,
    make_ginibre,
    orthonormalize,
)
from wpkernel.cli import _parse_complex, _write_csv, build_parser, main
from wpkernel.szego_geometry import classify, trace_curve_K, trace_szego_curve


def run(args):
    return main(list(args))


def test_classify_roundtrip(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("re,im\n1.8,0\n0.5,0\n0,1\n")
    out = tmp_path / "labels.csv"
    assert run(["classify", "--points", str(pts), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# wpkernel")
    assert lines[1] == "re,im,label,in_exterior_domain"
    labels = [line.split(",")[2] for line in lines[2:]]
    assert labels == ["RegionII", "RegionI", "RegionIII"]


def test_classify_deterministic(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("2.0,0.5\n-0.1,0.1\n")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run(["classify", "--points", str(pts), "--out", str(out1)])
    run(["classify", "--points", str(pts), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_expand_csv(tmp_path):
    out = tmp_path / "exp.csv"
    code = run(["expand", "--nlist", "100", "200", "--z", "1.5,0", "--w", "1.2,0",
                "--k", "1", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 2
    # first-order corrected: relative error at the 1/n^2 scale
    assert float(rows[0][5]) < 1e-2
    assert float(rows[1][5]) < float(rows[0][5])


def test_expand_regime_exit_code(tmp_path):
    code = run(["expand", "--nlist", "50", "--z", "0.5,0", "--w", "0.5,0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_expand_order_past_the_series_exit_code(tmp_path):
    # the exact series reach rho_6: --k 7 is a domain error (exit 2), not a traceback
    code = run(["expand", "--nlist", "50", "--z", "1.5,0", "--w", "1.2,0", "--k", "7",
                "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert not (tmp_path / "x.csv").exists()


def test_kernel_modes(tmp_path):
    out = tmp_path / "kernel.csv"
    code = run(["kernel", "--n", "40", "--z", "1.4,0", "--w", "1.3,0.1",
                "--mode", "all", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "asymptotic" in text and "tail" in text and "oracle" in text
    ratio_lines = [line for line in text.splitlines() if line.startswith("ratio:")]
    for line in ratio_lines:
        assert abs(float(line.split(",")[1]) - 1.0) < 0.25


def test_kernel_all_modes_inside_the_belt(tmp_path):
    # z = 0.97 lies inside the droplet but within the belt at n = 400:
    # every mode answers, the asymptotic one included
    out = tmp_path / "kernel.csv"
    assert run(["kernel", "--n", "400", "--z", "0.97,0", "--w", "0,1", "--mode", "all",
                "--out", str(out)]) == 0
    modes = [line.split(",")[0] for line in out.read_text().splitlines()[2:5]]
    assert modes == ["asymptotic", "oracle", "tail"]
    # on the diagonal at 0.97 the bulk term outweighs the exterior one
    assert run(["kernel", "--n", "400", "--z", "0.97,0", "--w", "0.97,0",
                "--mode", "asymptotic", "--out", str(out)]) == 2


def test_elliptic_oracle_uses_hermite_route(tmp_path):
    # n = 60 is past the float64 Gram budget; the elliptic oracle needs no Gram matrix
    out = tmp_path / "kernel.csv"
    assert run(["kernel", "--potential", "elliptic", "--n", "60", "--z", "1.6,0",
                "--w", "1.3,0.35", "--mode", "all", "--out", str(out)]) == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[2:]}
    assert abs(float(rows["ratio:oracle/tail"][1]) - 1.0) < 0.35
    # off-diagonal bulk values cancel beyond float64: precision exit code
    assert run(["kernel", "--potential", "elliptic", "--n", "1000", "--z", "0.3,0.1",
                "--w", "0,-0.3", "--mode", "oracle", "--out", str(out)]) == 4


@pytest.mark.parametrize("command", [
    ["kernel", "--n", "12", "--z", "1.3,0", "--w", "1.2,0"],
    ["oracle", "--n", "12", "--degree", "11"],
])
def test_precision_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command + ["--precision", "native"])
    assert exc.value.code == 2


def test_rho0_flag_is_gone():
    # no subcommand reads pot.rho0, so the flag changed only the config hash
    with pytest.raises(SystemExit) as exc:
        run(["kernel", "--n", "12", "--z", "1.3,0", "--w", "1.2,0", "--rho0", "0.4"])
    assert exc.value.code == 2


def test_basis_flag_is_gone(tmp_path):
    # the oracle row has one route, the potential's exact_source(n).kernel
    with pytest.raises(SystemExit) as exc:
        run(["kernel", "--n", "12", "--z", "1.3,0", "--w", "1.2,0", "--mode", "oracle",
             "--basis", str(tmp_path / "basis.json")])
    assert exc.value.code == 2


def test_seed_flag_is_gone(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0\n")
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--points", str(pts), "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--potential", "radial"], ["--profile", "quadratic"], ["--M", "2"]])
def test_figures_flags_are_only_the_ellipse(flag, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["figures", "--droplets", "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2


def test_classify_non_finite_point_is_a_domain_error(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0\nnan,0\n")
    assert run(["classify", "--points", str(pts), "--out", str(tmp_path / "l.csv")]) == 2


@pytest.mark.parametrize("text,code", [
    ("nan,0\n1,2,3\n", 2), ("1,2,3\nnan,0\n", 1), ("inf,1\nabc,1\n", 2), ("abc,1\n1,inf\n", 1),
], ids=["non-finite-first", "three-fields-first", "non-finite-before-letters",
        "letters-before-non-finite"])
def test_classify_first_faulty_line_picks_the_exit_code(text, code, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    out = tmp_path / "labels.csv"
    assert run(["classify", "--points", str(pts), "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--points", "{bad_lines}"],
    ["classify", "--points", "{letters}"],
    ["classify", "--points", "{missing}"],
    ["classify", "--points", "{binary}"],
    ["expand", "--nlist", "100", "--z", "1,2,3", "--w", "1.2,0"],
    ["kernel", "--config", "{missing}"],
], ids=["classify-three-fields", "classify-not-a-number", "classify-missing-file",
        "classify-not-utf8", "expand-three-fields", "missing-config-file"])
def test_malformed_input_is_a_config_error(argv, tmp_path, capsys):
    paths = {"bad_lines": tmp_path / "bad.csv", "letters": tmp_path / "letters.csv",
             "missing": tmp_path / "missing.csv", "binary": tmp_path / "binary.csv"}
    paths["bad_lines"].write_text("0.5,0\n1,2,3\n")
    paths["binary"].write_bytes(b"\xff\xfe0.5,0\n")
    paths["letters"].write_text("re,im\nabc,1\n")
    argv = [arg.format(**paths) for arg in argv]
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv,code", [
    (["kernel", "--n", "400", "--z", "1,0", "--w", "1,0", "--mode", "asymptotic",
      "--eta", "nan"], 2),
    (["expand", "--nlist", "100", "--z", "1.0000001,0", "--w", "1,0", "--k", "2",
      "--eta", "-1"], 2),
    (["kernel", "--potential", "elliptic", "--n", "400", "--z", "0.2,0.1", "--w", "1.5,0",
      "--mode", "asymptotic", "--M", "nan"], 1),
    (["kernel", "--potential", "elliptic", "--n", "400", "--z", "0.2,0.1", "--w", "1.5,0",
      "--mode", "asymptotic", "--M", "inf"], 1),
] + [
    (["classify", "--points", "{pts}", "--tol", tol], 2) for tol in ("nan", "-1", "inf")
] + [
    (["classify", "--points", "{empty}", "--tol", tol], 2) for tol in ("nan", "-1", "inf")
], ids=["kernel-eta-nan", "expand-eta-negative", "kernel-M-nan", "kernel-M-inf",
        "classify-tol-nan", "classify-tol-negative", "classify-tol-inf",
        "classify-no-points-tol-nan", "classify-no-points-tol-negative",
        "classify-no-points-tol-inf"])
def test_bad_eta_tol_and_M_are_typed_errors(argv, code, tmp_path, capsys):
    # typed errors that write nothing: not a traceback, nor an answer at the pole,
    # with the belt check switched off, or a silent label; a file without data
    # rows used to skip the tol check and exit 0
    pts, empty = tmp_path / "pts.csv", tmp_path / "empty.csv"
    pts.write_text("0.5,0\n1,0\n")
    empty.write_text("re,im\n")
    out = tmp_path / "out.csv"
    assert run([arg.format(pts=pts, empty=empty) for arg in argv] + ["--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(("domain/regime error: ", "config error: "))
    assert not out.exists()


def _per_value_rows(rows):
    """CSV rows by the per-value rule: format(v, ".17g") for a float, else str(v)."""
    return "".join(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                            for v in row) + "\n" for row in rows)


def test_csv_rows_match_the_per_value_rule():
    # one length and one kind of value per column, as every subcommand writes:
    # the first row's format serves every row
    uniform = [(1.0 / 3.0, np.float64(-0.0), 7, True, "RegionI", np.float32(0.1)),
               (np.float64(5e-324), math.nan, np.int64(-12), False, "AtOne", np.float32(2.5)),
               (1e300, math.inf, 10 ** 20, True, "ratio:a/b", np.float32(-0.0))]
    fh = io.StringIO()
    _write_csv(fh, "rows", ["a", "b"], uniform)
    assert fh.getvalue() == f"# wpkernel {__version__} rows\na,b\n" + _per_value_rows(uniform)
    empty = io.StringIO()
    _write_csv(empty, "none", ["re", "im"], [])
    assert empty.getvalue() == f"# wpkernel {__version__} none\nre,im\n"


def _classify_points_text(complex_literals):
    """A seeded points file: `re,im` rows about the regions and curves, -0.0, a
    subnormal and 1e300, with a header, comments and blank lines; every fifth
    point written as a complex literal if asked."""
    rng = np.random.default_rng(35)
    curves = np.concatenate([trace_szego_curve().points, trace_curve_K().points])
    curves = rng.choice(curves, 200, replace=False)
    points = np.concatenate([
        rng.uniform(-3.0, 3.0, 300) + 1j * rng.uniform(-3.0, 3.0, 300), curves,
        curves + 1e-10 * np.exp(2j * math.pi * rng.uniform(size=curves.size)),
        [1.0, complex(-0.0, 0.5), complex(0.5, -0.0), 5e-324, complex(0.3, 5e-324), 1e300,
         complex(-1e300, 1e300), 1.5e308 * (1 + 1j)]]).tolist()
    lines = ["# seeded points", "re,im", ""]
    for k, z in enumerate(points):
        lines.append(repr(z) if complex_literals and k % 5 == 0 else f"{z.real!r},{z.imag!r}")
        if k % 97 == 0:
            lines += ["", f"# after point {k}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tol", [None, "0"])
@pytest.mark.parametrize("complex_literals", [False, True], ids=["re-im-rows", "mixed-rows"])
def test_classify_writes_the_bytes_of_the_per_point_loop(complex_literals, tol, tmp_path):
    # the re,im file is parsed as one vector, the mixed one line by line; both
    # must write what parsing and labelling each point in turn writes
    text = _classify_points_text(complex_literals)
    pts, out = tmp_path / "pts.csv", tmp_path / "labels.csv"
    pts.write_text(text)
    flags = [] if tol is None else ["--tol", tol]
    assert run(["classify", "--points", str(pts), "--out", str(out)] + flags) == 0
    rows = []
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#") or line.lower().startswith("re"):
            continue
        z = _parse_complex(line)
        label = classify(z, 1e-9 if tol is None else float(tol))
        rows.append((z.real, z.imag, label.label.value, label.in_E_sz))
    assert len(rows) == 708
    expected = "re,im,label,in_exterior_domain\n" + _per_value_rows(rows)
    assert out.read_text().split("\n", 1)[1] == expected


def _fresh_parser_run(argv):
    args = build_parser().parse_args(argv)
    return args.func(args)


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0005,0\n0.5,0\n1.8,0\n")
    classify = ["classify", "--points", str(pts), "--out"]
    loose, first, second, fresh = (tmp_path / f"{name}.csv"
                                   for name in ("loose", "first", "second", "fresh"))
    assert run(classify + [str(loose), "--tol", "1e-3"]) == 0
    assert run(classify + [str(first)]) == 0
    with pytest.raises(SystemExit):
        run(classify + [str(tmp_path / "x.csv"), "--no-such-flag"])
    assert run(classify + [str(second)]) == 0
    assert _fresh_parser_run(classify + [str(fresh)]) == 0
    assert first.read_bytes() == second.read_bytes() == fresh.read_bytes()
    # the loose tolerance labels the first point AtOne; the default does not
    assert loose.read_text().splitlines()[2].split(",")[2] == "AtOne"
    assert fresh.read_text().splitlines()[2].split(",")[2] == "RegionII"


@pytest.mark.parametrize("argv", [
    ["classify", "--points", "{pts}"],
    ["expand", "--nlist", "100", "200", "--z", "1.5,0", "--w", "1.2,0.1", "--k", "2"],
    ["kernel", "--n", "40", "--z", "1.4,0", "--w", "1.3,0.1"],
    ["kernel", "--potential", "elliptic", "--n", "60", "--z", "1.6,0", "--w", "1.3,0.35"],
    ["berezin", "--n", "100", "--z", "2,0", "--nodes", "8", "--ell-nodes", "5"],
    ["droplet", "--potential", "elliptic", "--nodes", "64"],
    ["figures", "--droplets", "--berezin-surface", "--nodes", "12"],
], ids=["classify", "expand", "kernel", "kernel-elliptic", "berezin", "droplet", "figures"])
def test_repeated_calls_write_the_same_bytes(argv, tmp_path):
    # the same flags give the same bytes on every call in one process,
    # and the same as a parser built for this call alone
    pts = tmp_path / "pts.csv"
    pts.write_text("re,im\n1.8,0\n0.5,0\n0,1\n1,0\n-0.2784645427610741,0\n")
    argv = [arg.format(pts=pts) for arg in argv]
    outs = [tmp_path / f"out{k}" for k in range(3)]
    assert run(argv + ["--out", str(outs[0])]) == 0
    assert run(argv + ["--out", str(outs[1])]) == 0
    assert _fresh_parser_run(argv + ["--out", str(outs[2])]) == 0

    def contents(out):
        if out.is_dir():
            return [(f.name, f.read_bytes()) for f in sorted(out.iterdir())]
        return out.read_bytes()

    assert contents(outs[0]) == contents(outs[1]) == contents(outs[2])


def test_droplet_and_figures(tmp_path):
    out = tmp_path / "droplet.csv"
    assert run(["droplet", "--potential", "elliptic", "--a", "1", "--b", "3",
                "--tau", "1.0", "--nodes", "64", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 64
    us = [float(r[0]) for r in rows]
    assert max(us) == pytest.approx(math.sqrt(1.5), rel=1e-6)

    figdir = tmp_path / "figs"
    assert run(["figures", "--szego-curve", "--step", "2e-3",
                "--out", str(figdir)]) == 0
    curve = (figdir / "szego_curve.csv").read_text().splitlines()
    first = curve[2].split(",")
    last = curve[-1].split(",")
    assert float(first[0]) == 1.0 and float(last[0]) == 1.0

    assert run(["figures", "--droplets", "--a", "2", "--b", "5", "--nodes", "16",
                "--out", str(figdir)]) == 0
    lines = (figdir / "droplet_elliptic.csv").read_text().splitlines()
    assert lines[:2] == [f"# wpkernel {__version__} droplet boundary elliptic", "re,im"]
    assert len(lines) == 18
    p, _ = make_elliptic_ginibre(2.0, 5.0).semi_axes(1.0)
    assert float(lines[2].split(",")[0]) == pytest.approx(p, rel=1e-15)


_ORACLE_KEYS = {"version", "config", "n", "degree", "scale", "cond_estimate", "gram_residual"}


def test_oracle_json_and_kernel_consumption(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--n", "12", "--degree", "11", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == _ORACLE_KEYS
    assert payload["gram_residual"] < 1e-10
    # the default oracle of Q = |z|^2 is the partial sums, equal to the Gram basis
    basis = orthonormalize(compute_moments(make_ginibre(), 12, 11))
    value = kernel_oracle(basis, 1.3, 1.2 + 0.1j)
    direct = tmp_path / "k.csv"
    assert run(["kernel", "--n", "12", "--z", "1.3,0", "--w", "1.2,0.1",
                "--mode", "oracle", "--out", str(direct)]) == 0
    _, log_mag, arg = direct.read_text().splitlines()[2].split(",")
    assert abs(float(log_mag) - value.log_mag) < 1e-13
    assert abs(float(arg) - value.arg) < 1e-13


def test_radial_oracle_smoke(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--potential", "radial", "--n", "400", "--degree", "399",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == _ORACLE_KEYS
    assert (payload["n"], payload["degree"]) == (400, 399)
    # one block per degree: the correlation-scaled moment matrix is the identity
    assert payload["cond_estimate"] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= payload["gram_residual"] < 1e-12
    assert payload["scale"] == pytest.approx(1.0, abs=1e-12)


def test_ward_json(tmp_path):
    out = tmp_path / "ward.json"
    assert run(["ward", "--n", "25", "--z", "1.5,0",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    pt = payload["points"][0]
    assert pt["residual"] <= pt["budget"]
    mu = berezin_cauchy_transform(GinibreSource(25), 1.5)
    assert pt["cauchy_transform"] == [mu.real, mu.imag]


def test_ward_source_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run(["ward", "--source", "ginibre", "--n", "25", "--z", "1.5,0"])
    assert exc.value.code == 2


def test_ward_source_follows_the_potential(tmp_path):
    out = tmp_path / "ward.json"
    assert run(["ward", "--potential", "elliptic", "--n", "20", "--z", "2,0.5",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["source"] == "oracle"
    ell = make_elliptic_ginibre(1.0, 3.0)
    source = OracleSource(orthonormalize(compute_moments(ell, 20, 19)), ell)
    mu = berezin_cauchy_transform(source, 2 + 0.5j)
    assert payload["points"][0]["cauchy_transform"] == [mu.real, mu.imag]


def test_berezin_csv(tmp_path):
    out = tmp_path / "berezin.csv"
    assert run(["berezin", "--n", "100", "--z", "2,0", "--nodes", "8",
                "--ell-nodes", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[0] == "p_index"
    assert len(lines) == 2 + 8 * 5
    # exact and Gaussian-model densities agree to leading order on the belt
    mid = lines[2 + 2 * 5 + 2].split(",")
    assert float(mid[3]) == pytest.approx(float(mid[4]), rel=0.2)


def _berezin_rows(tmp_path, *flags):
    out = tmp_path / "berezin.csv"
    assert run(["berezin", "--n", "100", "--z", "2,0", "--nodes", "8", "--ell-nodes", "5",
                *flags, "--out", str(out)]) == 0
    return [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[2:]]


def test_berezin_exact_column_for_every_potential(tmp_path):
    ginibre = _berezin_rows(tmp_path)
    quadratic = _berezin_rows(tmp_path, "--potential", "radial", "--profile", "quadratic")
    elliptic = _berezin_rows(tmp_path, "--potential", "elliptic")
    for rows in (quadratic, elliptic):
        assert len(rows) == 8 * 5
        for row in rows:
            assert all(math.isfinite(v) and v > 0 for v in (row[3], row[5]))
    # Q = r^2 is the Ginibre potential: its Gram oracle matches the partial sums
    for q_row, g_row in zip(quadratic, ginibre):
        assert q_row == pytest.approx(g_row, rel=1e-10, abs=1e-300)
    assert all(abs(row[5] - 1.0) < 0.2 for row in elliptic if row[2] == 0.0)


@pytest.mark.parametrize("command", [
    ["berezin", "--n", "100", "--z", "2,0", "--nodes", "0"],
    ["berezin", "--n", "100", "--z", "2,0", "--ell-nodes", "0"],
    ["berezin", "--n", "100", "--z", "2,0", "--ell-nodes", "-2"],
    ["droplet", "--nodes", "0"],
    ["figures", "--berezin-surface", "--nodes", "0"],
], ids=["berezin-nodes", "berezin-ell-nodes", "berezin-ell-nodes-negative", "droplet",
        "figures-berezin-surface"])
def test_node_count_below_one_exit_code(command, tmp_path):
    # a domain error (exit 2) that writes nothing, not an empty table or a traceback
    assert run(command + ["--out", str(tmp_path / "out")]) == 2
    assert not any(tmp_path.iterdir())


def test_elliptic_disc_at_the_origin(tmp_path):
    # a = b = 1 at z = 0: the Hermite pairs of z vanish after degree 0
    out = tmp_path / "kernel.csv"
    assert run(["kernel", "--potential", "elliptic", "--a", "1", "--b", "1", "--n", "10",
                "--z", "0,0", "--w", "0.5,0", "--mode", "oracle", "--out", str(out)]) == 0
    log_mag = float(out.read_text().splitlines()[2].split(",")[1])
    assert log_mag == pytest.approx(math.log(10.0) - 0.5 * 10 * 0.25, rel=1e-13)
    # the root point lies inside the droplet, where the belt model has no harmonic measure
    assert run(["berezin", "--potential", "elliptic", "--a", "1", "--b", "1", "--n", "10",
                "--z", "0,0", "--out", str(tmp_path / "b.csv")]) == 2


def test_validate_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["validate", "--suite", "geometry", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "criterion 14" in captured.out
    payload = json.loads(out.read_text())
    assert payload["passed"] is True


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=30\nz=1.5,0\nw=1.25,0\nmode=asymptotic\n# comment\n")
    out = tmp_path / "k.csv"
    assert run(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    assert "asymptotic" in out.read_text()


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a key value line\n")
    assert run(["kernel", "--config", str(cfg)]) == 1


def _readme_cli_examples():
    """The commands of the README's CLI block, without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("command", [
    pytest.param(cmd, id=cmd[0]) for cmd in _readme_cli_examples() if cmd[0] != "validate"
])
def test_readme_cli_example_runs(command, tmp_path, monkeypatch, capsys):
    # every README example exits 0 as written; validate is test_acceptance's
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pts.csv").write_text("re,im\n1.8,0\n0.5,0\n0,1\n")
    assert run(command) == 0


def _cli_digest_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_digest_tool_prints_one_line_per_command(tmp_path):
    # tools/cli_digest.py: `<sha256> <exit code> <command>` per command, on
    # the README's commands and the kernel, ward and expand matrix
    tool = _cli_digest_tool()
    assert tool.readme_commands() == _readme_cli_examples()
    kernel = ("kernel --potential elliptic --a 1 --b 3 --n 40 --z 1.4,0.2 --w 1.3,0 "
              "--mode all").split()
    expand = ["expand", "--nlist", "100", "400", "--z", "1.5,0", "--w", "1.2,0", "--k", "7"]
    assert kernel in tool.MATRIX
    lines = [tool.digest(kernel), tool.digest(expand)]
    assert re.fullmatch(r"[0-9a-f]{64} 0 " + re.escape(" ".join(kernel)), lines[0])
    assert re.fullmatch(r"[0-9a-f]{64} 2 " + re.escape(" ".join(expand)), lines[1])
    # validate's timings are dropped from its report, nothing else
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"criteria": [{"id": 1, "elapsed_s": 0.25}], "passed": True}))
    assert json.loads(tool._file_bytes(report)) == {"criteria": [{"id": 1}], "passed": True}
