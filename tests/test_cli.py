import json
import subprocess
import sys

import numpy as np
import pytest

from ephcurve.cli import main


def run_cli(args):
    return main(list(args))


def read_csv(path):
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


@pytest.fixture
def curve_file(tmp_path):
    doc = {"m": 1, "omega": 2.0, "dim": 2,
           "control_points": [[0, 0], [1, 2], [2, -1], [3, 0.5]]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_eval_basic(curve_file, tmp_path):
    out = tmp_path / "samples.csv"
    assert run_cli(["eval", "--curve", curve_file, "--grid", "11",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x", "y"]
    assert rows.shape == (11, 3)
    assert np.allclose(rows[0], [0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(rows[-1, 1:], [3.0, 0.5], atol=1e-14)


def test_eval_methods_agree(curve_file, tmp_path):
    outs = {}
    for method in ("direct", "new"):
        out = tmp_path / (method + ".csv")
        assert run_cli(["eval", "--curve", curve_file, "--method", method,
                        "--grid", "101", "--out", str(out)]) == 0
        outs[method] = read_csv(out)[1]
    assert np.max(np.abs(outs["direct"] - outs["new"])) < 1e-9


def test_eval_missing_control_point(tmp_path):
    doc = {"m": 1, "omega": 2.0, "dim": 2,
           "control_points": [[0, 0], [1, 2], [2, -1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["eval", "--curve", str(path)]) == 2


def test_eval_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["eval", "--curve", str(path)]) == 2


def test_hermite_planar_and_plot(tmp_path):
    doc = {"r0": [0.1, -0.5], "r_end": [0.4, 0.15], "di": [-3.5, 10.0],
           "df": [6.5, 2.3], "omega": 8.0, "tag": "++"}
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "curve.json"
    svg = tmp_path / "plot.svg"
    assert run_cli(["hermite", "--problem", str(prob), "--out", str(out),
                    "--plot", str(svg)]) == 0
    produced = json.loads(out.read_text())
    assert produced["m"] == 2 and produced["dim"] == 2
    assert "preimage" in produced
    from ephcurve.curve import EphCurve, eval_direct, derivative
    curve = EphCurve.from_dict(produced)
    assert np.allclose(eval_direct(curve, 0.0), [0.1, -0.5], atol=1e-9)
    assert np.allclose(derivative(curve, 1.0), [6.5, 2.3], atol=1e-8)
    assert svg.read_text().startswith("<svg")
    assert "polyline" in svg.read_text()


def test_hermite_spatial_angles(tmp_path):
    doc = {"r0": [0, 0, 0], "r_end": [1, 1, 1], "di": [-0.8, 0.3, 1.2],
           "df": [0.5, -1.3, -1.0], "omega": 3.0,
           "angles": {"eta_m": -0.3141592653589793, "delta_eta": 1.0471975511965976,
                      "eta1": -1.5707963267948966}}
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "curve.json"
    assert run_cli(["hermite", "--problem", str(prob), "--out", str(out)]) == 0
    produced = json.loads(out.read_text())
    assert produced["dim"] == 3


def test_hermite_cosh_preset(tmp_path):
    out = tmp_path / "curve.json"
    assert run_cli(["hermite", "--preset", "cosh", "--omega", "0.5",
                    "--out", str(out)]) == 0
    from ephcurve.curve import EphCurve, eval_direct
    curve = EphCurve.from_dict(json.loads(out.read_text()))
    pts = eval_direct(curve, np.linspace(0, 1, 501))
    target = np.cosh(pts[:, 0]) / 1.0
    assert np.max(np.abs(pts[:, 1] - target)) < 1e-6


def test_hermite_zero_derivative_exit_4(tmp_path):
    doc = {"r0": [0, 0, 0], "r_end": [1, 1, 1], "di": [0.0, 0.0, 0.0],
           "df": [1.0, 0.0, 0.0], "omega": 1.0,
           "angles": {"eta0": 0.0, "eta1": 0.0, "eta2": 0.0}}
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    assert run_cli(["hermite", "--problem", str(prob)]) == 4


def test_hermite_non_finite_data_exit_2(tmp_path, capsys):
    doc = {"r0": [float("nan"), 0.0], "r_end": [1.0, 1.0], "di": [1.0, 0.0],
           "df": [0.0, 1.0], "omega": 1.0, "tag": "++"}
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(doc))
    assert run_cli(["hermite", "--problem", str(prob)]) == 2
    assert "r0 must be finite" in capsys.readouterr().err


def test_basis_rows_sum_to_one(tmp_path):
    out = tmp_path / "basis.csv"
    assert run_cli(["basis", "--m", "2", "--omega", "100", "--grid", "5",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[0] == "t" and len(header) == 7
    assert rows.shape == (5, 7)
    sums = rows[:, 1:].sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-11


def test_bench_breakpoints_deterministic(tmp_path):
    args = ["bench", "--experiment", "breakpoints", "--m", "1", "--seed", "7",
            "--curves", "5", "--grid", "51", "--omega-points", "20",
            "--omega-max", "0.6", "--methods", "new,direct"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_bench_rho_csv(tmp_path):
    out = tmp_path / "rho.csv"
    assert run_cli(["bench", "--experiment", "rho", "--m", "1", "--seed", "3",
                    "--curves", "4", "--grid", "51", "--omega-points", "10",
                    "--omega-max", "1.0", "--methods", "new",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["omega", "new"]
    assert rows.shape == (10, 2)
    text = out.read_text()
    assert text.startswith("#")
    assert "seed=3" in text


def test_bench_timing_csv(tmp_path):
    out = tmp_path / "timing.csv"
    assert run_cli(["bench", "--experiment", "timing", "--m", "1",
                    "--curves", "2", "--grid", "21", "--repetitions", "2",
                    "--k-min", "-1", "--k-max", "0", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "method,omega,median_seconds"
    assert len(lines) == 1 + 2 * 3


def test_eval_header_names_the_mode_auto_chose(tmp_path):
    doc = {"m": 2, "omega": 5.0, "dim": 2,
           "control_points": [[0, 0], [1, 2], [2, -1], [3, 0.5], [4, 1], [5, 0]]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "samples.csv"
    assert run_cli(["eval", "--curve", str(path), "--mode", "auto",
                    "--grid", "5", "--out", str(out)]) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("# ephcurve eval ") and "mode=stable" in first.split()


def test_eval_header_names_the_mode_of_each_quantity(tmp_path):
    # at m=1, omega=0.5 AUTO takes the stable corner weights for "new" and
    # the closed-form basis for the other methods
    doc = {"m": 1, "omega": 0.5, "dim": 2,
           "control_points": [[0, 0], [1, 2], [2, -1], [3, 0.5]]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    for method, mode in (("new", "stable"), ("direct", "naive")):
        out = tmp_path / ("%s.csv" % method)
        assert run_cli(["eval", "--curve", str(path), "--method", method,
                        "--grid", "5", "--out", str(out)]) == 0
        assert "mode=%s" % mode in out.read_text().splitlines()[0].split()


def test_basis_header_names_the_mode_auto_chose(tmp_path):
    out = tmp_path / "basis.csv"
    assert run_cli(["basis", "--m", "1", "--omega", "0.05", "--grid", "3",
                    "--out", str(out)]) == 0
    assert "mode=taylor5" in out.read_text().splitlines()[0].split()


def test_basis_naive_overflow_exit_3(capsys):
    assert run_cli(["basis", "--m", "1", "--omega", "800", "--mode", "naive"]) == 3
    assert "overflow" in capsys.readouterr().err


def test_basis_negative_omega_exit_2(capsys):
    assert run_cli(["basis", "--m", "1", "--omega", "-1"]) == 2
    assert "omega" in capsys.readouterr().err


def test_hermite_cosh_preset_out_of_range_exit_3(tmp_path):
    # cosh(2*omega) leaves double range above omega ~ 355.2
    assert run_cli(["hermite", "--preset", "cosh", "--omega", "400",
                    "--out", str(tmp_path / "curve.json")]) == 3


def test_bench_rho_one_grid_point_exit_2(tmp_path):
    assert run_cli(["bench", "--experiment", "rho", "--grid", "1",
                    "--curves", "2", "--omega-points", "3",
                    "--out", str(tmp_path / "rho.csv")]) == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ephcurve.cli", "basis",
                           "--m", "1", "--omega", "1.0", "--grid", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "t,phi0,phi1,phi2,phi3"
