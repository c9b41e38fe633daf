import json
import math
from pathlib import Path

import pytest

from wpkernel.cli import main


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


def test_oracle_json_and_kernel_consumption(tmp_path):
    out = tmp_path / "oracle.json"
    assert run(["oracle", "--n", "12", "--degree", "11", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gram_residual"] < 1e-10
    assert len(payload["coefficients"]) == 12
    # the kernel subcommand consumes the dumped basis
    k_out = tmp_path / "k.csv"
    assert run(["kernel", "--n", "12", "--z", "1.3,0", "--w", "1.2,0.1",
                "--mode", "oracle", "--basis", str(out), "--out", str(k_out)]) == 0
    direct = tmp_path / "k2.csv"
    assert run(["kernel", "--n", "12", "--z", "1.3,0", "--w", "1.2,0.1",
                "--mode", "oracle", "--out", str(direct)]) == 0
    line_a = k_out.read_text().splitlines()[2]
    line_b = direct.read_text().splitlines()[2]
    assert line_a == line_b


def test_ward_json(tmp_path):
    out = tmp_path / "ward.json"
    assert run(["ward", "--source", "ginibre", "--n", "25", "--z", "1.5,0",
                "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    pt = payload["points"][0]
    assert pt["residual"] <= pt["budget"]


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
