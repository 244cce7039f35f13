import math
import re
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from lfequad import SweepSpec, ingest_samples, registry_lookup, run_sweep
from lfequad.errors import (
    ConfigError,
    InvalidInputError,
    MissingParameterError,
    NonUniformSpacingError,
    ParseError,
    TooFewSamplesError,
    UnknownFunctionError,
    UnsortedDataError,
)
from lfequad import testbed
from lfequad.testbed import CSV_HEADER, METHODS, rows_to_csv, rows_to_json

CANONICAL = [
    ("f1", {}),
    ("f2", {}),
    ("f3", {}),
    ("f4", {"omega": 100.0}),
    ("f5", {"kappa": 50.0}),
    ("f6", {"alpha": 0.2}),
    ("f7", {"xi": 0.3}),
    ("f8", {"zeta": 0.73}),
]


class TestRegistry:
    def test_kink_function_exact_value(self):
        entry = registry_lookup("f7", {"xi": 0.3})
        expected = math.pi / 4 + (1 - math.cos(5)) / 5 + 0.245
        assert entry.exact_integral == pytest.approx(expected, rel=1e-15)

    def test_near_pole_exact_value(self):
        entry = registry_lookup("f6", {"alpha": 0.2})
        assert entry.exact_integral == pytest.approx(1 / 0.2 - 1 / 1.2, rel=1e-15)

    def test_missing_parameter(self):
        with pytest.raises(MissingParameterError):
            registry_lookup("f4", {})

    def test_unknown_id(self):
        with pytest.raises(UnknownFunctionError):
            registry_lookup("f9", {})

    def test_unexpected_parameter(self):
        with pytest.raises(InvalidInputError):
            registry_lookup("f1", {"omega": 3.0})

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_kink_location_range_checked(self, bad):
        with pytest.raises(InvalidInputError):
            registry_lookup("f7", {"xi": bad})

    @pytest.mark.parametrize("fid,params", CANONICAL)
    def test_exact_integral_matches_adaptive_quadrature(self, fid, params):
        # guards the closed-form antiderivatives against transcription slips
        entry = registry_lookup(fid, params)
        a, b = entry.domain
        kink = dict(entry.params).get("xi") or dict(entry.params).get("zeta")
        points = [kink] if kink is not None else None
        ref, err = quad(
            lambda x: float(entry.evaluator(np.asarray(x))),
            a,
            b,
            points=points,
            limit=400,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        assert err < 1e-10
        assert abs(entry.exact_integral - ref) <= 1e-10 * abs(ref)

    def test_evaluators_are_continuous_at_the_kink(self):
        for fid, pname, val in [("f7", "xi", 0.3), ("f8", "zeta", 0.73)]:
            entry = registry_lookup(fid, {pname: val})
            below = float(entry.evaluator(np.asarray(val - 1e-12)))
            above = float(entry.evaluator(np.asarray(val + 1e-12)))
            assert below == pytest.approx(above, abs=1e-10)


class TestIngest:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_uniform_rows_with_header(self, tmp_path):
        lines = ["x,f"] + [f"{0.05 * j!r},{math.sin(0.05 * j)!r}" for j in range(21)]
        s = ingest_samples(self._write(tmp_path, lines))
        assert s.grid.M == 20
        assert s.grid.a == 0.0
        assert s.grid.b == pytest.approx(1.0, rel=1e-15)

    def test_headerless_file(self, tmp_path):
        lines = [f"{0.1 * j!r},{j * j}" for j in range(11)]
        assert ingest_samples(self._write(tmp_path, lines)).grid.M == 10

    def test_perturbed_node_rejected(self, tmp_path):
        xs = [0.05 * j for j in range(21)]
        xs[7] += 1e-6 * 0.05
        lines = [f"{x!r},1.0" for x in xs]
        with pytest.raises(NonUniformSpacingError):
            ingest_samples(self._write(tmp_path, lines))

    def test_decimal_grid_accepted(self, tmp_path):
        # x written to 7 decimals deviates from a fitted grid by ~1e-11 h at
        # 1e5 rows: rounding of the x values, not non-uniform data
        n = 100_001
        lines = [f"{j * 1e-5:.7f},1.0" for j in range(n)]
        s = ingest_samples(self._write(tmp_path, lines))
        assert s.grid.M == n - 1
        assert s.grid.b == 1.0

    def test_numeric_first_line_is_data(self, tmp_path):
        s = ingest_samples(self._write(tmp_path, ["0.0,7.0", "0.5,8.0", "1.0,9.0"]))
        assert s.grid.a == 0.0
        assert s.values.tolist() == [7.0, 8.0, 9.0]

    @pytest.mark.parametrize(
        "layout",
        ["plain", "header", "crlf", "crlf_header", "padded", "blank_lines"],
    )
    def test_accepted_layouts_parse_alike(self, tmp_path, layout):
        xs = [0.1 * j for j in range(11)]
        fs = [math.exp(x) for x in xs]
        lines = [f"{x!r},{f!r}" for x, f in zip(xs, fs)]
        if layout == "padded":
            lines = [f"  {x!r} ,\t{f!r} " for x, f in zip(xs, fs)]
        if layout == "blank_lines":
            lines = ["", lines[0], "", ""] + lines[1:] + [""]
        if "header" in layout:
            lines = ["x, f"] + lines
        path = tmp_path / "data.csv"
        newline = "\r\n" if layout.startswith("crlf") else "\n"
        path.write_bytes((newline.join(lines) + newline).encode("utf-8"))
        s = ingest_samples(path)
        assert (s.grid.a, s.grid.b, s.grid.M) == (xs[0], xs[-1], 10)
        assert s.values.tolist() == fs

    @pytest.mark.parametrize(
        "bad,reason",
        [
            ("zap,1.0", "non-numeric"),
            ("0.3,1.0,7", "two comma-separated columns"),
            ("# a comment", "two comma-separated columns"),
            ("0.3,", "non-numeric"),
            ("   ", "two comma-separated columns"),
        ],
        ids=["non_numeric", "ragged", "comment", "empty_field", "spaces_only"],
    )
    def test_bad_line_is_named(self, tmp_path, bad, reason):
        # header and blank lines count: the bad line is file line 6
        lines = ["x,f", "0.0,1.0", "", "0.1,1.0", "0.2,1.0", bad, "0.4,1.0"]
        path = self._write(tmp_path, lines)
        with pytest.raises(ParseError, match=f"{re.escape(str(path))}:6: .*{reason}"):
            ingest_samples(path)

    @pytest.mark.parametrize("header", [b"", b"x,f\n"], ids=["no_header", "header"])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, header):
        # a BOM glued to a numeric first line must not turn it into a header
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + header + b"0.0,7.0\n0.5,8.0\n1.0,9.0\n")
        s = ingest_samples(path)
        assert s.grid.a == 0.0
        assert s.values.tolist() == [7.0, 8.0, 9.0]

    def test_undecodable_bytes_raise_parse_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"0.0,1.0\n0.1,\xff\n0.2,1.0\n")
        with pytest.raises(ParseError, match=":2: "):
            ingest_samples(path)

    def test_nan_abscissa_rejected(self, tmp_path):
        with pytest.raises(NonUniformSpacingError):
            ingest_samples(self._write(tmp_path, ["0.0,1.0", "nan,1.0", "0.2,1.0"]))

    @pytest.mark.parametrize("lines", [["x,f"], [""]])
    def test_no_rows_rejected_without_warning(self, tmp_path, lines):
        path = self._write(tmp_path, lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooFewSamplesError):
                ingest_samples(path)

    def test_peak_memory_is_a_few_times_the_output(self, tmp_path):
        # the output arrays take 16 B/row (x checked, f kept); a reader that
        # holds a Python float pair per row peaks near 15x that
        n = 100_001
        x = np.linspace(0.0, 1.0, n)
        lines = ["x,f"] + [f"{a!r},{b!r}" for a, b in zip(x.tolist(), np.sin(x).tolist())]
        path = self._write(tmp_path, lines)
        tracemalloc.start()
        try:
            ingest_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 16 * n

    def test_two_rows_rejected(self, tmp_path):
        with pytest.raises(TooFewSamplesError):
            ingest_samples(self._write(tmp_path, ["0.0,1.0", "1.0,2.0"]))

    def test_unsorted_rejected(self, tmp_path):
        with pytest.raises(UnsortedDataError):
            ingest_samples(self._write(tmp_path, ["0.0,1.0", "0.2,1.0", "0.1,1.0"]))

    def test_garbage_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_samples(self._write(tmp_path, ["0.0,1.0", "zap,1.0", "0.2,1.0"]))

    def test_three_columns_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_samples(self._write(tmp_path, ["0.0,1.0,9", "0.1,1.0,9", "0.2,1.0,9"]))

    def test_unknown_format_rejected(self, tmp_path):
        path = self._write(tmp_path, ["0.0,1.0", "0.1,1.0", "0.2,1.0"])
        with pytest.raises(ParseError):
            ingest_samples(path, fmt="parquet")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_samples(tmp_path / "absent.csv")


class TestSweeps:
    def test_smooth_blend_error_levels(self):
        spec = SweepSpec("f1", (), (10, 12, 14), ("lfe",))
        rows = run_sweep(spec)
        errors = {r.M: r.abs_error for r in rows}
        assert errors[10] <= 1e-8
        assert errors[12] <= 1e-10
        assert errors[14] <= 1e-11

    def test_oscillatory_plateau(self):
        spec = SweepSpec("f4", (("omega", 200.0),), (512,), ("lfe",))
        (row,) = run_sweep(spec)
        assert row.abs_error <= 1e-13

    def test_empty_m_list(self):
        assert run_sweep(SweepSpec("f1", (), (), ("lfe",))) == []

    def test_rows_are_in_spec_order(self):
        rows = run_sweep(SweepSpec("f1", (), (10, 12), ("lfe", "simpson")))
        assert [(r.M, r.method) for r in rows] == [
            (10, "lfe"),
            (10, "simpson"),
            (12, "lfe"),
            (12, "simpson"),
        ]

    def test_deterministic_apart_from_runtime(self):
        spec = SweepSpec("f7", (("xi", 0.3),), (160,), ("lfe", "lfe_corrected"))

        def stripped(rows):
            return "\n".join(",".join(line.split(",")[:-1]) for line in rows_to_csv(rows).splitlines())

        assert stripped(run_sweep(spec)) == stripped(run_sweep(spec))

    def test_csv_layout(self):
        rows = run_sweep(SweepSpec("f6", (("alpha", 0.2),), (100,), ("lfe",)))
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "f6"
        assert fields[1] == "alpha=0.2"
        assert fields[2] == "100"
        assert fields[3] == "lfe"
        assert float(fields[4]) == rows[0].abs_error

    def test_json_mirrors_csv_fields(self):
        import json

        rows = run_sweep(SweepSpec("f6", (("alpha", 0.2),), (100,), ("lfe",)))
        payload = json.loads(rows_to_json(rows))
        assert payload[0]["function"] == "f6"
        assert payload[0]["M"] == 100
        assert payload[0]["abs_error"] == rows[0].abs_error
        assert set(payload[0]) == {"function", "params", "M", "method", "abs_error", "runtime_ms"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M_values=(11,)),
            dict(M_values=(40, 20)),
            dict(methods=("lfe", "nope")),
        ],
    )
    def test_spec_validation(self, kwargs):
        base = dict(function="f1", params=(), M_values=(10,), methods=("lfe",))
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SweepSpec(**base)

    def test_corrected_method_on_kink_function(self):
        spec = SweepSpec("f8", (("zeta", 0.73),), (160,), ("lfe", "lfe_corrected"))
        rows = {r.method: r for r in run_sweep(spec)}
        assert rows["lfe"].abs_error > 1e-8
        assert rows["lfe_corrected"].abs_error <= 1e-12

    def test_runtime_excludes_sampling(self, monkeypatch):
        # lfe, lfe_corrected and simpson get samples made before the clock;
        # cc evaluates f at its own nodes, inside the clock
        entry = registry_lookup("f1")

        def slow(x):
            time.sleep(0.2)
            return entry.evaluator(x)

        slow_entry = replace(entry, evaluator=slow)
        monkeypatch.setattr(testbed, "registry_lookup", lambda fid, params: slow_entry)
        rows = {r.method: r for r in run_sweep(SweepSpec("f1", (), (40,), METHODS))}
        for method in ("lfe", "lfe_corrected", "simpson"):
            assert rows[method].runtime_ms < 100
        assert rows["cc"].runtime_ms >= 200

    def test_corrected_method_falls_back_on_tiny_grids(self):
        # two windows only: detection unavailable, value stays uncorrected
        spec = SweepSpec("f7", (("xi", 0.3),), (40,), ("lfe", "lfe_corrected"))
        rows = {r.method: r for r in run_sweep(spec)}
        assert rows["lfe_corrected"].abs_error == rows["lfe"].abs_error
