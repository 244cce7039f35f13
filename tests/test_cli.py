import json
import math
import subprocess
import sys

import pytest

from lfequad.cli import main


def _write_samples(tmp_path, f, a, b, M, name="in.csv", header=True):
    h = (b - a) / M
    lines = ["x,f"] if header else []
    for j in range(M + 1):
        x = a + j * h
        lines.append(f"{x!r},{f(x)!r}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


F1 = lambda x: 3 * x**2 - math.exp(-x) - 2 * math.sin(2 * x)
F1_EXACT = (1.5**3 + math.exp(-1.5) + math.cos(3.0)) - (0.1**3 + math.exp(-0.1) + math.cos(0.2))


class TestIntegrateCommand:
    def test_smooth_csv(self, tmp_path, capsys):
        path = _write_samples(tmp_path, F1, 0.1, 1.5, 40)
        assert main(["integrate", "--input", str(path)]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value - F1_EXACT) <= 1e-12

    def test_json_report(self, tmp_path, capsys):
        path = _write_samples(tmp_path, F1, 0.1, 1.5, 40)
        assert main(["integrate", "--input", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"] - F1_EXACT) <= 1e-12
        assert payload["M"] == 40
        assert payload["windows"] == 2
        assert payload["corrected_windows"] == []

    def test_correct_flag_repairs_kink(self, tmp_path, capsys):
        xi = 0.3
        f = lambda x: 1 / (1 + x**2) + math.sin(5 * x) + max(x - xi, 0.0)
        exact = math.pi / 4 + (1 - math.cos(5)) / 5 + 0.5 * (1 - xi) ** 2
        path = _write_samples(tmp_path, f, 0.0, 1.0, 160)
        assert main(["integrate", "--input", str(path), "--correct", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrected_windows"] == [2]
        assert abs(payload["value"] - exact) <= 1e-12

    def test_custom_parameters_accepted(self, tmp_path, capsys):
        path = _write_samples(tmp_path, F1, 0.1, 1.5, 40)
        code = main(["integrate", "--input", str(path), "--n", "8", "--T", "5.0",
                     "--epsilon", "1e-13"])
        assert code == 0
        float(capsys.readouterr().out.strip())

    def test_correct_with_custom_parameters(self, tmp_path, capsys):
        # the corrector refits with the factors of the same non-default config
        xi = 0.3
        f = lambda x: 1 / (1 + x**2) + math.sin(5 * x) + max(x - xi, 0.0)
        exact = math.pi / 4 + (1 - math.cos(5)) / 5 + 0.5 * (1 - xi) ** 2
        path = _write_samples(tmp_path, f, 0.0, 1.0, 333)
        code = main(["integrate", "--input", str(path), "--n", "8", "--T", "5.0",
                     "--epsilon", "1e-13", "--correct", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corrected_windows"] == [6]
        assert abs(payload["value"] - exact) <= 1e-12

    def test_nonuniform_csv_fails_with_category(self, tmp_path, capsys):
        lines = ["x,f", "0.0,1.0", "0.1,1.0", "0.21,1.0", "0.3,1.0"]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["integrate", "--input", str(path)])
        assert code == 3
        assert "nonuniform-spacing" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        code = main(["integrate", "--input", str(tmp_path / "nope.csv")])
        assert code == 3
        assert "parse-failure" in capsys.readouterr().err

    def test_correct_falls_back_on_tiny_grid(self, tmp_path, capsys):
        path = _write_samples(tmp_path, F1, 0.1, 1.5, 40)  # two windows
        assert main(["integrate", "--input", str(path), "--correct"]) == 0
        err = capsys.readouterr().err
        assert "detection-unavailable" in err

    def test_overflowing_energies_leave_result_uncorrected(self, tmp_path, capsys):
        xi = 0.3
        f = lambda x: 1e170 * (1 / (1 + x**2) + math.sin(5 * x) + max(x - xi, 0.0))
        path = _write_samples(tmp_path, f, 0.0, 1.0, 160)
        assert main(["integrate", "--input", str(path), "--correct", "--json"]) == 0
        captured = capsys.readouterr()
        assert "detection-unavailable" in captured.err
        assert "uncorrected" in captured.err
        payload = json.loads(captured.out)
        assert payload["correction_applied"] is False
        assert math.isfinite(payload["value"])

    @pytest.mark.filterwarnings("error")
    def test_overflowing_value_fails_with_category(self, tmp_path, capsys):
        # the typed error is the only report: no numpy RuntimeWarning escapes
        f = lambda x: 1e300 * (1 / (1 + x**2) + math.sin(5 * x) + max(x - 0.3, 0.0))
        path = _write_samples(tmp_path, f, 0.0, 1.0, 160)
        assert main(["integrate", "--input", str(path)]) == 4
        assert "non-finite-result" in capsys.readouterr().err

    # a truncation above sigma_max*sqrt(L) = 10.95 keeps no direction, and an
    # infinite extension ratio has no reference interval: both are config
    # errors, not a printed 0.0 or an input error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("option,value", [("--epsilon", "20"), ("--epsilon", "inf"),
                                              ("--T", "inf")])
    def test_unusable_config_fails_with_category(self, tmp_path, capsys, option, value):
        path = _write_samples(tmp_path, F1, 0.1, 1.5, 40)
        assert main(["integrate", "--input", str(path), option, value]) == 4
        captured = capsys.readouterr()
        assert "error[invalid-config]" in captured.err
        assert captured.out == ""


class TestBenchCommand:
    def test_function_sweep_to_stdout(self, capsys):
        code = main(["bench", "--function", "f4", "--param", "omega=100",
                     "--M", "10,12", "--methods", "simpson"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "function,params,M,method,abs_error,runtime_ms"
        assert len(lines) == 3
        assert lines[1].startswith("f4,omega=100.0,10,simpson,")

    def test_csv_output_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["bench", "--function", "f1", "--M", "10,12,14",
                     "--methods", "lfe", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        errs = [float(ln.split(",")[4]) for ln in lines[1:]]
        assert errs[0] <= 1e-8 and errs[1] <= 1e-10 and errs[2] <= 1e-11

    def test_json_output_file(self, tmp_path):
        out = tmp_path / "rows.json"
        code = main(["bench", "--function", "f7", "--param", "xi=0.3",
                     "--M", "160", "--methods", "lfe,lfe_corrected", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        by_method = {row["method"]: row for row in payload}
        assert by_method["lfe_corrected"]["abs_error"] <= 1e-12
        assert by_method["lfe"]["abs_error"] >= 1e-6

    def test_preset_table1(self, tmp_path):
        out = tmp_path / "table1.csv"
        assert main(["bench", "--preset", "table1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 6 * 2  # three sweeps, six M values, two methods

    def test_unknown_function_exit_code(self, capsys):
        code = main(["bench", "--function", "f99", "--M", "10", "--methods", "lfe"])
        assert code == 6
        assert "unknown-function" in capsys.readouterr().err

    def test_missing_parameter_exit_code(self, capsys):
        code = main(["bench", "--function", "f4", "--M", "10", "--methods", "lfe"])
        assert code == 6
        assert "missing-parameter" in capsys.readouterr().err

    def test_missing_m_rejected(self, capsys):
        code = main(["bench", "--function", "f1", "--methods", "lfe"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_odd_m_rejected(self, capsys):
        code = main(["bench", "--function", "f1", "--M", "11", "--methods", "lfe"])
        assert code == 4
        assert "invalid-config" in capsys.readouterr().err

    def test_bad_param_syntax(self, capsys):
        code = main(["bench", "--function", "f4", "--param", "omega", "--M", "10"])
        assert code == 1


def test_module_entry_point(tmp_path):
    path = _write_samples(tmp_path, F1, 0.1, 1.5, 40, name="cli.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "lfequad.cli", "integrate", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert abs(float(proc.stdout.strip()) - F1_EXACT) <= 1e-12
