import importlib.util
import io
from pathlib import Path

import numpy as np

from ephcurve.basis import EvalMode
from ephcurve.evaluators import EvalMethod

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitdump.py"


def load_bitdump():
    spec = importlib.util.spec_from_file_location("bitdump", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_counts_and_repeats_its_outcomes(monkeypatch):
    # the bitwise gate on a cut-down input set: one line per outcome, as
    # many lines as dump counts, and the same lines on a second run
    bitdump = load_bitdump()
    monkeypatch.setattr(bitdump, "OMEGAS", (1e-300, 0.5, 200.0))
    monkeypatch.setattr(bitdump, "TS", (0.0, 0.3, 0.7, 1.0, float("nan")))
    monkeypatch.setattr(bitdump, "GRIDS", (("grid5", np.linspace(0.0, 1.0, 5)),))
    runs = []
    for _ in range(2):
        out = io.StringIO()
        n = bitdump.dump(out)
        runs.append(out.getvalue().splitlines())
        assert len(runs[-1]) == n
    t_inputs = len(bitdump.TS) * len(bitdump.FORMS) + len(bitdump.GRIDS)
    polygons = len(bitdump.polygons(np.random.default_rng(0), 1))
    per_mode = 3 + polygons * len(EvalMethod)   # basis, weights, arc length, evaluators
    per_t = 6 + len(EvalMode) * per_mode        # three bases, speed, hodograph, derivative
    per_omega = 3 + t_inputs * per_t             # constants, is_regular, curve_from_preimage
    rho_lines = 2 * 2 * len(EvalMethod)
    assert n == 2 * len(bitdump.OMEGAS) * per_omega + rho_lines
    assert runs[0] == runs[1]
    assert all(line.count("\t") == 1 for line in runs[0])
    assert any("raise DomainError" in line for line in runs[0])    # t = NaN


def test_compare_counts_result_and_warning_differences(tmp_path, capsys):
    # a result differs by the text before the first " | warn "; a line
    # that differs only after it differs in its warnings only
    bitdump = load_bitdump()
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("a\tX\nb\tY | warn W: one\nc\tZ\nd\traise E: e | warn W: two\n")
    new.write_text("a\tX\nb\tY\nc\tQ\nd\traise E: e | warn W: three\n")
    assert bitdump.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "4 outcomes compared", "1 results differ", "  c",
        "2 differ in warnings only", "  b", "  d"]
    new.write_text("a\tX\nb\tY | warn W: one\nc\tZ\nd\traise E: e\n")
    assert bitdump.main(["--compare", str(old), str(new)]) == 0
    assert "0 results differ" in capsys.readouterr().out


def test_compare_fails_on_different_labels(tmp_path, capsys):
    bitdump = load_bitdump()
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    old.write_text("a\tX\nb\tY\n")
    for text in ("a\tX\nc\tY\n", "a\tX\n"):
        new.write_text(text)
        assert bitdump.main(["--compare", str(old), str(new)]) == 1
        assert capsys.readouterr().out.startswith("labels differ at line 2: 'b' vs ")
