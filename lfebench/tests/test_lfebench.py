"""Tests of the benchmark itself: inputs, accuracy check, span arithmetic,
and a tiny run of every workload.

Run from the repository root:  python3 -m pytest -q lfebench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
from spans import NO_PARENT, Tracer, self_times  # noqa: E402


def first_cases(spec, seed, ncycles=2):
    return [case for cycle in itertools.islice(spec.cycles(seed), ncycles) for case in cycle]


@pytest.mark.parametrize("spec", [inputs.SmoothLong(), inputs.KinkSweep()])
def test_generator_is_deterministic_per_seed(spec):
    a, b, other = first_cases(spec, 7), first_cases(spec, 7), first_cases(spec, 8)
    assert a == b
    assert a != other
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.values(), y.values())


def test_smooth_long_covers_the_grid_range_evenly():
    spec = inputs.SmoothLong()
    Ms = np.array([c.M for c in first_cases(spec, 3, ncycles=20)])
    assert spec.m_lo <= Ms.min() and Ms.max() <= spec.m_hi
    # low discrepancy: each tenth of the range holds about a tenth of the calls
    counts = np.histogram(Ms, bins=10, range=(spec.m_lo, spec.m_hi))[0]
    assert counts.min() >= 8 and counts.max() <= 12
    assert len(set(Ms % inputs.WINDOW_CELLS)) > 10


def test_kink_positions_stay_two_cells_inside():
    for case in first_cases(inputs.KinkSweep(), 5, ncycles=20):
        h = (case.b - case.a) / case.M
        assert case.a + 2 * h <= case.kink <= case.b - 2 * h


def test_csv_files_are_deterministic_and_round_trip(tmp_path):
    spec = inputs.CliCsv(rows=(40, 300))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    fa, fb = spec.files(11, tmp_path / "a"), spec.files(11, tmp_path / "b")
    for x, y in zip(fa, fb):
        assert x.path.read_bytes() == y.path.read_bytes()
    lines = fa[0].path.read_text().splitlines()
    assert lines[0] == "x,f"
    x = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
    nodes = inputs.UniformGrid(fa[0].case.a, fa[0].case.b, fa[0].case.M).nodes()
    np.testing.assert_array_equal(x, nodes)
    assert all(ln.split(",")[0] == repr(v) for ln, v in zip(lines[1:], nodes.tolist()))


def test_tolerance_check_rejects_a_1e9_perturbation():
    case = first_cases(inputs.KinkSweep(), 1, ncycles=1)[0]
    fmax = float(np.abs(case.values()).max())
    assert inputs.within_tolerance(case.exact, case.exact, case.a, case.b, fmax)
    assert not inputs.within_tolerance(case.exact + 1e-9, case.exact, case.a, case.b, fmax)
    assert not inputs.within_tolerance(float("nan"), case.exact, case.a, case.b, fmax)


def test_non_finite_value_makes_the_run_incorrect():
    case = first_cases(inputs.KinkSweep(), 1, ncycles=1)[0]
    call = run.check(run.Call(case, 1e-3, float("nan")), 1.0)
    assert call.error and not call.ok
    assert not run.Result([call], {}).as_json()["correct"]


def test_failed_counts_errors_and_smooth_misses_not_kink_misses():
    kink = first_cases(inputs.KinkSweep(), 1, ncycles=1)[0]
    smooth = first_cases(inputs.SmoothLong(m_lo=2000, m_hi=4000), 1, ncycles=1)[0]
    kink_miss = run.check(run.Call(kink, 1e-3, kink.exact + 1e-3), 1.0)
    assert not kink_miss.ok and kink_miss.error is None
    out = run.Result([kink_miss], {}).as_json()
    assert out["correct"] and out["failed"] == 0
    smooth_miss = run.check(run.Call(smooth, 1e-3, smooth.exact + 1e-3), 1.0)
    out = run.Result([kink_miss, smooth_miss], {}).as_json()
    assert not out["correct"] and out["failed"] == 1


def test_window_blocks_tile_the_grid():
    for M in (160, 646, 1280):
        blocks = inputs.window_blocks(M)
        assert blocks[0][0] == 0 and blocks[-1][1] == M
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))


def test_self_time_on_a_synthetic_span_tree():
    # 0: [0, 100] root with children 1 and 3; 1: [10, 40] with child 2;
    # 2: [15, 25] leaf; 3: [50, 90] leaf; 4: [120, 130] second root.
    start = np.array([0, 10, 15, 50, 120])
    end = np.array([100, 40, 25, 90, 130])
    parent = np.array([NO_PARENT, 0, 1, 0, NO_PARENT])
    np.testing.assert_array_equal(self_times(start, end, parent), [30, 20, 10, 40, 10])


def test_tracer_records_nesting_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner, original_outer = mod.inner, mod.outer
    tracer = Tracer()
    with tracer:
        tracer.install([(mod, "inner", "t.inner"), (mod, "outer", "t.outer")])
        tracer.call_id = 4
        assert mod.outer(1) == 4
    assert mod.inner is original_inner and mod.outer is original_outer
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["t.outer", "t.inner"]
    assert list(spans["parent"]) == [NO_PARENT, 0]
    assert list(spans["call"]) == [4, 4]
    assert spans["start"][0] <= spans["start"][1] <= spans["end"][1] <= spans["end"][0]


def test_trace_targets_cover_every_reference():
    targets = {(m.__name__, attr): name for m, attr, name in run.trace_targets()}
    assert targets[("lfequad.engine", "solve_coefficients")] == "reference.solve_coefficients"
    assert targets[("lfequad.correction", "solve_coefficients")] == "reference.solve_coefficients"
    assert targets[("lfequad", "integrate")] == "engine.integrate"
    assert targets[("lfequad.cli", "ingest_samples")] == "testbed.ingest_samples"


TINY = {
    "smooth_long": inputs.SmoothLong(m_lo=2000, m_hi=4000),
    "kink_sweep": inputs.KinkSweep(grids=(160,)),
    "cli_csv": inputs.CliCsv(rows=(2000, 5000)),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_of_every_workload(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)
    runner = run.run_cli if workload == "cli_csv" else run.run_library
    result = runner(TINY[workload], 1, 0.01, trace, tmp_path / "spans.npz").as_json()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert result["correct"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert (tmp_path / "spans.npz").exists() == trace


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "kink_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
