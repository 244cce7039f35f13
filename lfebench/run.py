#!/usr/bin/env python3
"""lfequad benchmark: one closed-loop caller, end-to-end or traced.

Usage (from the repository root):

    python3 lfebench/run.py --workload kink_sweep --seed 1 --seconds 20 --trace 0

Workloads are ``smooth_long``, ``kink_sweep`` and ``cli_csv`` (see
lfebench/README.md). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and then replays the same calls traced, and prints
the per-layer metrics. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with status 1.
"""

from __future__ import annotations

import os

# One thread: the windows are 21x21, so BLAS threading only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".lfebench"  # temp CSVs and span files; never committed
SETUP_REPEATS = 9
STARTUP_REPEATS = 5

SPEED_EVERY_S = 0.25  # timed work between two runs of the speed reference
# Reach of the speed references that scale a call. The in-process kernel
# follows the library calls' speed from one call to the next, so only its
# nearest runs count; the child kernel follows the CLI only over the host's
# slow phases, so a median over seconds is used.
SPEED_WINDOW_S = 0.5
CHILD_SPEED_WINDOW_S = 5.0

SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import lfequad; t1 = time.perf_counter(); "
    "lfequad.build_reference(lfequad.WindowConfig()); t2 = time.perf_counter(); "
    "import speed; print(t2 - t0, t2 - t1, speed.reference_seconds())"
)

# Public functions traced per layer, named as in src/lfequad.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "testbed": ("ingest_samples",),
    "reference": (
        "build_reference",
        "solve_coefficients",
        "mode_weights",
        "integrate_expansion",
        "evaluate_expansion",
    ),
    "linalg": ("svd", "matvec_adjoint", "norm2"),
    "engine": ("plan_windows", "integrate"),
    "correction": ("detect", "localize", "predict_endpoint", "estimate_xi", "correct"),
}


def load_program():
    """Import lfequad from this checkout's src/, or exit with status 1."""
    if not (SRC / "lfequad" / "__init__.py").is_file():
        sys.exit(f"lfebench: program source not found at {SRC / 'lfequad'}")
    sys.path.insert(0, str(SRC))
    import lfequad

    if Path(lfequad.__file__).resolve().parent != SRC / "lfequad":
        sys.exit(f"lfebench: imported lfequad from {lfequad.__file__}, not from {SRC}")
    importlib.import_module("lfequad.cli")
    return lfequad


lfequad = load_program()
import numpy as np  # noqa: E402

import inputs  # noqa: E402  (needs the program on sys.path)
import speed  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

# Untraced references used for the per-layer facts computed outside the clock.
_detect = lfequad.correction.detect


def child_env(*paths: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(str(p) for p in (SRC, *paths)))


# --- one call -----------------------------------------------------------------


@dataclass
class Call:
    case: inputs.Case
    seconds: float
    value: float | None
    error: str | None = None  # set when the call raised or the CLI misbehaved
    ok: bool = False  # passes the per-call accuracy check
    facts: dict = field(default_factory=dict)  # per-layer facts, traced runs only
    scale: float = 1.0  # nominal / reference time of a speed reference near the call
    mid: float = 0.0  # perf_counter time at the middle of the call

    @property
    def samples(self) -> int:
        return self.case.M + 1

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


def check(call: Call, fmax: float) -> Call:
    c = call.case
    if call.error is None and not math.isfinite(call.value):
        call.error = f"non-finite value {call.value!r}"
    call.ok = call.error is None and inputs.within_tolerance(call.value, c.exact, c.a, c.b, fmax)
    return call


def library_call(case: inputs.Case, facts: bool) -> Call:
    """integrate then correct, as a library user calls them; sampling is untimed."""
    samples = case.samples()
    fmax = float(np.abs(samples.values).max())
    t0 = time.perf_counter_ns()
    try:
        report = lfequad.integrate(samples)
        fixed = lfequad.correct(report, samples, lfequad.build_reference(lfequad.WindowConfig()))
    except Exception:  # a raising call is a failed call; the run goes on
        return Call(case, (time.perf_counter_ns() - t0) * 1e-9, None, traceback.format_exc())
    call = Call(case, (time.perf_counter_ns() - t0) * 1e-9, float(fixed.value))
    if facts:
        call.facts = correction_facts(case, fixed)
    return check(call, fmax)


def correction_facts(case: inputs.Case, fixed) -> dict:
    """Flags, kink windows, warnings and confidence of one corrected report."""
    flagged = _detect(fixed).flagged
    blocks = inputs.window_blocks(case.M)
    h = (case.b - case.a) / case.M
    holds = set()
    if case.kink is not None:
        holds = {
            k for k, (lo, hi) in enumerate(blocks)
            if case.a + lo * h <= case.kink <= case.a + hi * h
        }
    return {
        "windows": len(blocks),
        "flagged": len(flagged),
        "flag_hits": sum(k in holds for k in flagged),
        "kink_case": case.kink is not None,
        "kink_found": bool(holds & set(flagged)),
        "warned": bool(fixed.warnings),
        "corrections": len(fixed.corrections),
        "low_confidence": sum(bool(c.low_confidence) for c in fixed.corrections),
    }


def cli_argv(path: Path) -> list[str]:
    return ["integrate", "--input", str(path), "--correct", "--json"]


def parse_cli(code: int, out: str) -> tuple[float | None, str | None, dict]:
    if code != 0:
        return None, f"exit status {code}", {}
    try:
        payload = json.loads(out)
        return float(payload["value"]), None, payload
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unparsable JSON output: {exc}", {}


def cli_subprocess(f: inputs.CsvFile, tmp: Path) -> tuple[Call, int]:
    """Run the CLI as a child process; returns the call and its peak RSS in KiB."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
    ]
    argv = [sys.executable, "-m", "lfequad.cli", *cli_argv(f.path)]
    t0 = time.perf_counter_ns()
    pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = (time.perf_counter_ns() - t0) * 1e-9
    value, error, _ = parse_cli(os.waitstatus_to_exitcode(status), out_path.read_text())
    if error:
        error += "\n" + err_path.read_text()
    return check(Call(f.case, seconds, value, error), f.fmax), usage.ru_maxrss


def cli_inprocess(f: inputs.CsvFile, facts: bool) -> Call:
    """Call cli.main in this process (traced runs), capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lfequad.cli.main(cli_argv(f.path))
    seconds = (time.perf_counter_ns() - t0) * 1e-9
    value, error, payload = parse_cli(code, out.getvalue())
    call = Call(f.case, seconds, value, error and error + "\n" + err.getvalue())
    if facts:
        call.facts = {"windows": payload.get("windows", 0), "nbytes": f.nbytes}
    return check(call, f.fmax)


# --- closed loop ------------------------------------------------------------------


def in_process_scale() -> float:
    return speed.NOMINAL_S / speed.reference_seconds()


def child_scale() -> float:
    return speed.CHILD_NOMINAL_S / speed.child_reference_seconds()


def run_cycles(
    cycles, do_call, seconds: float, scale=in_process_scale, window: float = SPEED_WINDOW_S
) -> list[list[Call]]:
    """Run whole cycles until the timed calls add up to ``seconds``.

    ``scale`` (a speed reference) runs first, after every SPEED_EVERY_S of
    timed calls and last; then each call is scaled by the median of the
    references within ``window`` seconds of its start or end."""
    done: list[list[Call]] = []
    probes = [speed_probe(scale)]
    timed = since_reference = 0.0
    for cycle in cycles:
        done.append([])
        for item in cycle:
            started = time.perf_counter()
            call = do_call(item)
            call.mid = started + call.seconds / 2
            done[-1].append(call)
            timed += call.seconds
            since_reference += call.seconds
            if since_reference >= SPEED_EVERY_S:
                probes.append(speed_probe(scale))
                since_reference = 0.0
        if timed >= seconds:
            break
    probes.append(speed_probe(scale))
    set_scales([c for cycle in done for c in cycle], probes, window)
    return done


def speed_probe(scale) -> tuple[float, float]:
    """(time, scale) of one run of a speed reference."""
    value = scale()
    return time.perf_counter(), value


def set_scales(calls: list[Call], probes: list[tuple[float, float]], window: float) -> None:
    """Scale each call by the median of the reference scales within
    ``window`` seconds of it, or by the nearest one if there is none."""
    at = np.array([t for t, _ in probes])
    scales = np.array([s for _, s in probes])
    for call in calls:
        reach = window + call.seconds / 2
        lo, hi = np.searchsorted(at, [call.mid - reach, call.mid + reach])
        near = scales[lo:hi] if hi > lo else scales[[min(lo, len(scales) - 1)]]
        call.scale = float(np.median(near))


def run_paired(cycles, do_call, seconds: float, tracer: Tracer):
    """Run each cycle untraced and traced, alternating which goes first, until
    the untraced calls add up to ``seconds``. Returns (untraced, traced) calls,
    which hold the same cases in the same order."""
    targets = trace_targets()
    plain: list[Call] = []
    traced: list[Call] = []

    def untraced_pass(cycle):
        plain.extend(do_call(item, False) for item in cycle)

    def traced_pass(cycle):
        with tracer:
            tracer.install(targets)
            for item in cycle:
                tracer.call_id = len(traced)
                traced.append(do_call(item, True))

    for i, cycle in enumerate(cycles):
        first, second = (untraced_pass, traced_pass) if i % 2 == 0 else (traced_pass, untraced_pass)
        first(cycle)
        second(cycle)
        if sum(c.seconds for c in plain) >= seconds:
            break
    return plain, traced


def trace_targets():
    """Every (module, attribute, span name) through which a layer function is
    reachable. Functions absent from the program are skipped (metric reads 0)."""
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "lfequad"]
    targets = []
    for layer, names in LAYER_FUNCTIONS.items():
        try:
            home = importlib.import_module(f"lfequad.{layer}")
        except ImportError:
            continue
        for fname in names:
            fn = getattr(home, fname, None)
            if fn is None:
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        targets.append((module, attr, f"{layer}.{fname}"))
    return targets


# --- metrics ------------------------------------------------------------------------


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def ratio(num, den):
    return num / den if den else 0.0


def setup_probe(repeats: int) -> tuple[list[float], list[float]]:
    """Fresh interpreters: scaled (import + first build) seconds, and raw
    build seconds. Each interpreter runs the speed reference after timing."""
    setup, build = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=child_env(BENCH), capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        setup.append(float(out[0]) * speed.NOMINAL_S / float(out[2]))
        build.append(float(out[1]))
    return setup, build


def end_to_end(cycles: list[list[Call]], setup_s: float, peak_rss_kib: int) -> dict:
    """Times are scaled to the nominal host speed (see speed.py). Throughput
    is the median over cycles of the cycle's samples per scaled second."""
    calls = [c for cycle in cycles for c in cycle]
    ms = [c.scaled_seconds * 1e3 for c in calls]
    rates = [sum(c.samples for c in cy) / sum(c.scaled_seconds for c in cy) for cy in cycles]
    raw_rate = sum(c.samples for c in calls) / sum(c.seconds for c in calls)
    print(
        f"unscaled: samples_per_s {raw_rate:.6g}, call_ms_p50 "
        f"{statistics.median(c.seconds for c in calls) * 1e3:.6g}; speed scale median "
        f"{statistics.median(c.scale for c in calls):.4f}",
        file=sys.stderr,
    )
    return {
        "setup_s": metric(setup_s, "s"),
        "samples_per_s": metric(statistics.median(rates), "samples/s"),
        "call_ms_p50": metric(statistics.median(ms), "ms"),
        "call_ms_p90": metric(statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "pass_frac": metric(sum(c.ok for c in calls) / len(calls), "fraction"),
        "peak_rss_mb": metric(peak_rss_kib / 1024, "MB"),
    }


def solve_cost() -> tuple[float, float]:
    """Flops and bytes of one solve_coefficients call, from the factor shapes.

    Project (u^H g), rescale, synthesize (v z) on complex128: a complex
    multiply-add is 8 flops, a complex-by-real division 2. Bytes count the
    factors and vectors read plus the coefficients written.
    """
    f = lfequad.build_reference(lfequad.WindowConfig()).svd
    (m, r), p = f.u.shape, f.v.shape[0]
    flops = 8 * m * r + 2 * r + 8 * p * r
    nbytes = 16 * (m * r + p * r) + 8 * r + 16 * m + 16 * p
    return float(flops), float(nbytes)


def per_layer(tracer: Tracer, calls: list[Call]) -> dict:
    """Per-layer metrics from the spans of a traced replay, per workload call."""
    a = tracer.arrays()
    dur = (a["end"] - a["start"]) * 1e-9
    own = self_times(a["start"], a["end"], a["parent"]) * 1e-9
    ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return a["name"] == ids[name] if name in ids else a["name"] < 0

    def count(name, parent=None):
        sel = mask(name)
        if parent is not None:
            has_parent = a["parent"] >= 0
            parent_name = a["name"][np.where(has_parent, a["parent"], 0)]
            sel &= has_parent & (parent_name == ids.get(parent, -1))
        return int(sel.sum())

    def total(name, self_time=False):
        return float((own if self_time else dur)[mask(name)].sum())

    n = len(calls)
    facts = [c.facts for c in calls]

    def per_call(x):
        return x / n

    def fsum(key):
        return sum(f.get(key, 0) for f in facts)

    flops, nbytes = solve_cost()
    solves = count("reference.solve_coefficients")
    linalg = [f"linalg.{name}" for name in LAYER_FUNCTIONS["linalg"]]
    windows = fsum("windows")
    ingest_s = total("testbed.ingest_samples")
    kink_cases = sum(f.get("kink_case", False) for f in facts)
    return {
        "testbed.ingest_s": metric(per_call(ingest_s), "s/call"),
        "testbed.ingest_bytes": metric(per_call(fsum("nbytes")), "bytes/call"),
        "testbed.ingest_mb_per_s": metric(ratio(fsum("nbytes") / 1e6, ingest_s), "MB/s"),
        "reference.solve_calls": metric(per_call(solves), "count/call"),
        "reference.solve_s": metric(per_call(total("reference.solve_coefficients")), "s/call"),
        "reference.solve_flops": metric(per_call(solves * flops), "flop/call"),
        "reference.solve_bytes": metric(per_call(solves * nbytes), "bytes/call"),
        "reference.solve_gflops": metric(
            ratio(solves * flops / 1e9, total("reference.solve_coefficients")), "GFLOP/s"
        ),
        "reference.weights_calls": metric(per_call(count("reference.mode_weights")), "count/call"),
        "reference.weights_s": metric(per_call(total("reference.mode_weights")), "s/call"),
        "reference.integrate_expansion_calls": metric(
            per_call(count("reference.integrate_expansion")), "count/call"
        ),
        "reference.integrate_expansion_s": metric(
            per_call(total("reference.integrate_expansion")), "s/call"
        ),
        "reference.evaluate_calls": metric(
            per_call(count("reference.evaluate_expansion")), "count/call"
        ),
        "reference.evaluate_s": metric(per_call(total("reference.evaluate_expansion")), "s/call"),
        "linalg.calls": metric(per_call(sum(count(x) for x in linalg)), "count/call"),
        "linalg.s": metric(per_call(sum(total(x) for x in linalg)), "s/call"),
        "engine.integrate_s": metric(per_call(total("engine.integrate", self_time=True)), "s/call"),
        "engine.windows": metric(per_call(windows), "count/call"),
        "engine.us_per_window": metric(ratio(total("engine.integrate") * 1e6, windows), "us"),
        "engine.plan_calls": metric(per_call(count("engine.plan_windows")), "count/call"),
        "engine.plan_s": metric(per_call(total("engine.plan_windows")), "s/call"),
        "correction.detect_s": metric(per_call(total("correction.detect")), "s/call"),
        "correction.flagged": metric(per_call(fsum("flagged")), "count/call"),
        "correction.flag_precision": metric(ratio(fsum("flag_hits"), fsum("flagged")), "fraction"),
        "correction.detect_recall": metric(ratio(fsum("kink_found"), kink_cases), "fraction"),
        "correction.warning_frac": metric(per_call(fsum("warned")), "fraction"),
        "correction.low_confidence_frac": metric(
            ratio(fsum("low_confidence"), fsum("corrections")), "fraction"
        ),
        "correction.localize_s": metric(per_call(total("correction.localize")), "s/call"),
        "correction.localize_solves": metric(
            per_call(count("reference.solve_coefficients", parent="correction.localize")),
            "count/call",
        ),
        "correction.predict_s": metric(per_call(total("correction.predict_endpoint")), "s/call"),
        "correction.estimate_xi_s": metric(per_call(total("correction.estimate_xi")), "s/call"),
        "correction.estimate_xi_evals": metric(
            per_call(count("reference.evaluate_expansion", parent="correction.estimate_xi")),
            "count/call",
        ),
        "correction.correct_s": metric(
            per_call(total("correction.correct", self_time=True)), "s/call"
        ),
    }


def bit_identical(first: list[Call], second: list[Call]) -> bool:
    def bits(c):
        return None if c.value is None else c.value.hex()

    return [bits(c) for c in first] == [bits(c) for c in second]


# --- workloads ------------------------------------------------------------------------

WORKLOADS = {
    "smooth_long": inputs.SmoothLong(),
    "kink_sweep": inputs.KinkSweep(),
    "cli_csv": inputs.CliCsv(),
}


@dataclass
class Result:
    calls: list[Call]
    metrics: dict
    identical: bool = True

    def as_json(self) -> dict:
        """``failed`` counts calls that raised, gave a non-finite value or a
        bad CLI exit or output, and smooth cases that missed the tolerance.
        Kink cases that return a finite value but miss the tolerance are the
        known corrector defect: ``pass_frac`` measures them, stderr counts them."""
        for err in [c.error for c in self.calls if c.error is not None][:3]:
            print(err, file=sys.stderr)
        failed = sum(
            c.error is not None or (not c.ok and c.case.kink is None) for c in self.calls
        )
        kink_miss = sum(not c.ok and c.error is None and c.case.kink is not None for c in self.calls)
        if kink_miss:
            print(f"kink cases outside the tolerance: {kink_miss} of {len(self.calls)}", file=sys.stderr)
        return {
            "correct": not failed and self.identical,
            "attempted": len(self.calls),
            "failed": failed,
            "metrics": self.metrics,
        }


def run_library(spec, seed: int, seconds: float, trace: bool, spans: Path) -> Result:
    if not trace:
        setup, _ = setup_probe(SETUP_REPEATS)
        cycles = run_cycles(spec.cycles(seed), lambda c: library_call(c, False), seconds)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return Result(sum(cycles, []), end_to_end(cycles, statistics.median(setup), rss))
    _, build = setup_probe(SETUP_REPEATS)
    tracer = Tracer()
    plain, traced = run_paired(spec.cycles(seed), library_call, seconds / 2, tracer)
    return traced_result(plain, traced, tracer, spans, build, startup=0.0)


def run_cli(spec, seed: int, seconds: float, trace: bool, spans: Path) -> Result:
    with tempfile.TemporaryDirectory(dir=spans.parent) as tmp:
        tmp = Path(tmp)
        files = spec.files(seed, tmp)
        if not trace:
            setup, _ = setup_probe(SETUP_REPEATS)
            peak = 0

            def sub(f):
                nonlocal peak
                call, rss = cli_subprocess(f, tmp)
                peak = max(peak, rss)
                return call

            cycles = run_cycles(
                itertools.repeat(files), sub, seconds, child_scale, CHILD_SPEED_WINDOW_S
            )
            return Result(sum(cycles, []), end_to_end(cycles, statistics.median(setup), peak))
        _, build = setup_probe(SETUP_REPEATS)
        # cli.startup_s: the child process's wall time beyond cli.main itself,
        # on the smallest file, where trace cost and file size matter least
        smallest = min(files, key=lambda f: f.case.M)
        sub = [cli_subprocess(smallest, tmp)[0] for _ in range(STARTUP_REPEATS)]
        inproc = [cli_inprocess(smallest, False) for _ in range(STARTUP_REPEATS)]
        startup = statistics.median(c.seconds for c in sub) - statistics.median(
            c.seconds for c in inproc
        )
        tracer = Tracer()
        plain, traced = run_paired(itertools.repeat(files), cli_inprocess, seconds / 2, tracer)
        result = traced_result(plain, traced, tracer, spans, build, startup)
        ref = next(c for c in plain if c.case == smallest.case)
        result.identical &= bit_identical(sub + inproc, [ref] * len(sub + inproc))
        result.calls = sub + inproc + result.calls
        return result


def traced_result(plain, traced, tracer, spans: Path, build, startup: float) -> Result:
    tracer.save(spans)
    metrics = {
        "cli.startup_s": metric(startup, "s"),
        "reference.build_s": metric(statistics.median(build), "s"),
        **per_layer(tracer, traced),
    }
    t_plain = sum(c.seconds for c in plain)
    t_traced = sum(c.seconds for c in traced)
    metrics["trace.overhead_frac"] = metric(1 - t_plain / t_traced, "fraction")
    return Result(plain + traced, metrics, identical=bit_identical(plain, traced))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    WORK_DIR.mkdir(exist_ok=True)
    spec = WORKLOADS[args.workload]
    runner = run_cli if isinstance(spec, inputs.CliCsv) else run_library
    spans = WORK_DIR / f"spans-{args.workload}.npz"
    result = runner(spec, args.seed, args.seconds, bool(args.trace), spans)
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
