"""Benchmark testbed: function registry, CSV ingestion, and error sweeps.

The registry ids f1..f8 are stable external names used by the CLI. Each
entry carries an evaluator and its exact integral from a closed-form
antiderivative, so sweep rows report true absolute errors.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import clenshaw_curtis, simpson
from .correction import correct
from .engine import SampledFunction, UniformGrid, integrate
from .errors import (
    ConfigError,
    DetectionUnavailableError,
    InvalidInputError,
    MissingParameterError,
    NonUniformSpacingError,
    ParseError,
    TooFewSamplesError,
    UnknownFunctionError,
    UnsortedDataError,
)
from .reference import ReferenceFactors, WindowConfig, build_reference

METHODS = ("lfe", "lfe_corrected", "simpson", "cc")

CSV_HEADER = "function,params,M,method,abs_error,runtime_ms"


@dataclass(frozen=True)
class TestFunction:
    id: str
    params: tuple[tuple[str, float], ...]
    domain: tuple[float, float]
    evaluator: object
    exact_integral: float
    description: str = ""

    @property
    def params_str(self) -> str:
        return ";".join(f"{k}={v!r}" for k, v in self.params)


_PARAM_NAMES = {
    "f1": (),
    "f2": (),
    "f3": (),
    "f4": ("omega",),
    "f5": ("kappa",),
    "f6": ("alpha",),
    "f7": ("xi",),
    "f8": ("zeta",),
}


def _f7_exact(xi: float) -> float:
    return math.pi / 4 + (1 - math.cos(5.0)) / 5 + 0.5 * (1 - xi) ** 2


def _f8_exact(zeta: float) -> float:
    # antiderivative of exp(x)*cos(2x) is exp(x)*(cos(2x) + 2*sin(2x))/5
    smooth = (math.e * (math.cos(2.0) + 2 * math.sin(2.0)) - 1) / 5 + math.log(2.0) / 2
    return smooth + (1 - zeta) ** 3 / 3


def _build_entry(fid: str, p: dict[str, float]) -> TestFunction:
    if fid == "f1":
        ev = lambda x: 3 * x**2 - np.exp(-x) - 2 * np.sin(2 * x)
        F = lambda x: x**3 + math.exp(-x) + math.cos(2 * x)
        return TestFunction(fid, (), (0.1, 1.5), ev, F(1.5) - F(0.1),
                            "polynomial + exponential + trig blend")
    if fid == "f2":
        ev = lambda x: np.exp(x) * np.cos(3 * x) + x**2 / (1 + x)
        F = lambda x: (math.exp(x) * (math.cos(3 * x) + 3 * math.sin(3 * x)) / 10
                       + x**2 / 2 - x + math.log(1 + x))
        return TestFunction(fid, (), (0.2, 1.3), ev, F(1.3) - F(0.2),
                            "modulated cosine plus rational term")
    if fid == "f3":
        ev = lambda x: 1 / (1 + x**2) + 2 * np.cos(np.sin(2 * x)) * np.cos(2 * x)
        F = lambda x: math.atan(x) + math.sin(math.sin(2 * x))
        return TestFunction(fid, (), (-0.1, 1.4), ev, F(1.4) - F(-0.1),
                            "Lorentzian plus composed trig")
    if fid == "f4":
        om = p["omega"]
        ev = lambda x: np.exp(-x) * np.sin(om * x)
        F = lambda x: math.exp(-x) * (-om * math.cos(om * x) - math.sin(om * x)) / (1 + om**2)
        return TestFunction(fid, (("omega", om),), (0.0, 1.1), ev, F(1.1) - F(0.0),
                            "damped uniform oscillation")
    if fid == "f5":
        ka = p["kappa"]
        ev = lambda x: -2 * ka * x * np.sin(ka * x**2)
        F = lambda x: math.cos(ka * x**2)
        return TestFunction(fid, (("kappa", ka),), (0.2, 1.3), ev, F(1.3) - F(0.2),
                            "quadratic-phase chirp")
    if fid == "f6":
        al = p["alpha"]
        if not al > 0:
            raise InvalidInputError(f"f6 needs alpha > 0, got {al}")
        ev = lambda x: 2 * x / (1 + al - x**2) ** 2
        return TestFunction(fid, (("alpha", al),), (0.0, 1.0), ev, 1 / al - 1 / (1 + al),
                            "steep but smooth near-pole profile")
    if fid == "f7":
        xi = p["xi"]
        if not 0 < xi < 1:
            raise InvalidInputError(f"f7 needs xi in (0, 1), got {xi}")

        def ev(x, xi=xi):
            x = np.asarray(x, dtype=float)
            return 1 / (1 + x**2) + np.sin(5 * x) + np.where(x >= xi, x - xi, 0.0)

        return TestFunction(fid, (("xi", xi),), (0.0, 1.0), ev, _f7_exact(xi),
                            "continuous with slope kink at xi")
    if fid == "f8":
        ze = p["zeta"]
        if not 0 < ze < 1:
            raise InvalidInputError(f"f8 needs zeta in (0, 1), got {ze}")

        def ev(x, ze=ze):
            x = np.asarray(x, dtype=float)
            base = np.exp(x) * np.cos(2 * x) + x / (1 + x**2)
            return base + np.where(x >= ze, (x - ze) ** 2, 0.0)

        return TestFunction(fid, (("zeta", ze),), (0.0, 1.0), ev, _f8_exact(ze),
                            "continuous with curvature kink at zeta")
    raise UnknownFunctionError(fid)


def registry_lookup(fid: str, params: dict[str, float] | None = None) -> TestFunction:
    """Resolve a test-function id and parameter dict to a registry entry."""
    params = dict(params or {})
    if fid not in _PARAM_NAMES:
        raise UnknownFunctionError(f"unknown function id {fid!r}; known: f1..f8")
    required = _PARAM_NAMES[fid]
    for name in required:
        if name not in params:
            raise MissingParameterError(f"{fid} requires parameter {name!r}")
    extra = set(params) - set(required)
    if extra:
        raise InvalidInputError(f"{fid} does not take parameters {sorted(extra)}")
    return _build_entry(fid, params)


def _is_numeric(fields) -> bool:
    try:
        for field_ in fields:
            float(field_)
    except ValueError:
        return False
    return True


def _bad_line(path, skip_header: bool, reason: str) -> str:
    """Name the first line numpy's reader rejected, as ``path:lineno: reason``.

    Runs on the failure path only. Line numbers are 1-based and count the
    header and blank lines; only empty lines are skipped, as numpy does.
    """
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if (skip_header and lineno == 1) or not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                return f"{path}:{lineno}: expected two comma-separated columns"
            if not _is_numeric(parts):
                return f"{path}:{lineno}: non-numeric data {line!r}"
    return f"{path}: {reason}"


def ingest_samples(path) -> SampledFunction:
    """Read two-column (x, f) data with an optional header into a SampledFunction.

    The first line is a header, and skipped, when it has two fields that do
    not both parse as numbers. Empty lines are skipped; CRLF line endings,
    spaces around fields and a UTF-8 byte-order mark are accepted; ``#``
    comments and lines of only spaces are not. A malformed line raises
    ParseError naming ``path:lineno``.

    Validates at least 3 rows, strictly increasing x, and uniform spacing:
    every x must lie within ``tol * h`` of ``x0 + j*h``, with
    ``tol = max(1e-12, 4 * eps * max(|x0|, |xM|) / h)``. The second term is
    the rounding of the x values themselves (half an ulp each, plus the ulp
    errors of the fitted grid), so a uniform grid written in decimal passes
    whatever its length.
    """
    skip_header = False
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            first = fh.readline().split(",")
        skip_header = len(first) == 2 and not _is_numeric(first)
        # Given a path (not a handle, which it iterates line by line), numpy
        # reads the file in large chunks.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", comments=None, skiprows=int(skip_header),
                              ndmin=2, encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # includes UnicodeDecodeError
        raise ParseError(_bad_line(path, skip_header, str(exc))) from None
    if data.size and data.shape[1] != 2:
        raise ParseError(_bad_line(path, skip_header, "expected two columns"))
    if data.shape[0] < 3:
        raise TooFewSamplesError(f"{path}: need at least 3 rows, got {data.shape[0]}")
    x, f = data[:, 0], data[:, 1].copy()  # a contiguous f that does not hold x alive
    if np.any(np.diff(x) <= 0):
        raise UnsortedDataError(f"{path}: x column must be strictly increasing")
    M = x.size - 1
    h = (x[-1] - x[0]) / M
    fit = x[0] + np.arange(M + 1) * h
    dev = np.max(np.abs(x - fit)) / h
    tol = max(1e-12, 4 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1])) / h)
    if not dev <= tol:  # also rejects a NaN x
        raise NonUniformSpacingError(
            f"{path}: spacing deviates from uniform by {dev:.3e} of h (tol {tol:.3e})"
        )
    return SampledFunction(grid=UniformGrid(float(x[0]), float(x[-1]), M), values=f)


@dataclass(frozen=True)
class SweepSpec:
    """One error-decay sweep: a function, M values, and methods to run."""

    function: str
    params: tuple[tuple[str, float], ...] = ()
    M_values: tuple[int, ...] = ()
    methods: tuple[str, ...] = ("lfe",)
    config: WindowConfig = field(default_factory=WindowConfig)

    def __post_init__(self):
        for M in self.M_values:
            if M % 2 != 0:
                raise ConfigError(f"sweep M values must be even, got {M}")
        if any(a >= b for a, b in zip(self.M_values, self.M_values[1:])):
            raise ConfigError(f"sweep M values must be ascending: {self.M_values}")
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ConfigError(f"unknown methods {sorted(bad)}; known: {METHODS}")


@dataclass(frozen=True)
class SweepRow:
    function: str
    params: str
    M: int
    method: str
    abs_error: float
    runtime_ms: float


def _run_method(
    method: str, entry: TestFunction, samples: SampledFunction, factors: ReferenceFactors
) -> float:
    if method == "cc":
        a, b = entry.domain
        return clenshaw_curtis(entry.evaluator, a, b, samples.grid.M)
    if method == "simpson":
        return simpson(samples)
    report = integrate(samples, factors.config, factors)
    if method == "lfe_corrected":
        try:
            report = correct(report, samples, factors)
        except DetectionUnavailableError:
            pass  # too few windows: keep the uncorrected value
    return report.value


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Run every (M, method) pair of a sweep and report absolute errors.

    Rows come back in spec order (M outer, methods inner) and the error
    columns are deterministic across runs; only runtime_ms varies.

    runtime_ms times the method alone: f is sampled once per M, and the
    reference factors are built, before the clock starts. ``cc`` is the
    exception: it evaluates f at its own Clenshaw-Curtis nodes, so its
    runtime_ms includes those evaluations.
    """
    entry = registry_lookup(spec.function, dict(spec.params))
    factors = build_reference(spec.config)
    rows = []
    for M in spec.M_values:
        samples = SampledFunction.from_function(entry.evaluator, *entry.domain, M)
        for method in spec.methods:
            t0 = time.perf_counter()
            value = _run_method(method, entry, samples, factors)
            dt_ms = (time.perf_counter() - t0) * 1e3
            rows.append(
                SweepRow(
                    function=entry.id,
                    params=entry.params_str,
                    M=M,
                    method=method,
                    abs_error=abs(value - entry.exact_integral),
                    runtime_ms=dt_ms,
                )
            )
    return rows


def rows_to_csv(rows) -> str:
    out = [CSV_HEADER]
    for r in rows:
        out.append(f"{r.function},{r.params},{r.M},{r.method},{r.abs_error!r},{r.runtime_ms:.3f}")
    return "\n".join(out) + "\n"


def rows_to_json(rows) -> str:
    payload = [
        {
            "function": r.function,
            "params": r.params,
            "M": r.M,
            "method": r.method,
            "abs_error": r.abs_error,
            "runtime_ms": round(r.runtime_ms, 3),
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _presets() -> dict[str, tuple[SweepSpec, ...]]:
    smooth = (
        SweepSpec("f1", (), (10, 12, 14, 92, 288, 912), ("lfe", "simpson")),
        SweepSpec("f2", (), (10, 14, 16, 76, 240, 758), ("lfe", "simpson")),
        SweepSpec("f3", (), (20, 26, 32, 134, 420, 1324), ("lfe", "simpson")),
    )
    osc = (
        SweepSpec("f4", (("omega", 100.0),), (154, 178, 196, 1024, 3232, 10204), ("lfe", "simpson")),
        SweepSpec("f4", (("omega", 200.0),), (276, 296, 392, 1448, 3568, 14444), ("lfe", "simpson")),
        SweepSpec("f5", (("kappa", 50.0),), (228, 260, 308, 3844, 12148, 38340), ("lfe", "simpson")),
        SweepSpec("f5", (("kappa", 100.0),), (418, 478, 592, 7364, 23268, 73396), ("lfe", "simpson")),
        SweepSpec("f6", (("alpha", 0.2),), (100, 164, 260, 948, 2964, 9364), ("lfe", "simpson")),
        SweepSpec("f6", (("alpha", 0.1),), (228, 340, 500, 2196, 6932, 21876), ("lfe", "simpson")),
    )
    kink_M = (160, 320, 640, 1280)
    piecewise = (
        SweepSpec("f7", (("xi", 0.3),), kink_M, ("lfe", "lfe_corrected")),
        SweepSpec("f7", (("xi", math.pi / 5),), kink_M, ("lfe", "lfe_corrected")),
        SweepSpec("f8", (("zeta", 0.6),), kink_M, ("lfe", "lfe_corrected")),
        SweepSpec("f8", (("zeta", 0.73),), kink_M, ("lfe", "lfe_corrected")),
    )
    cc_M = (128, 256, 512, 1024)
    cc = (
        SweepSpec("f4", (("omega", 200.0),), cc_M, ("lfe", "cc")),
        SweepSpec("f5", (("kappa", 100.0),), cc_M, ("lfe", "cc")),
        SweepSpec("f7", (("xi", 0.3),), cc_M, ("lfe_corrected", "cc")),
        SweepSpec("f8", (("zeta", 0.73),), cc_M, ("lfe_corrected", "cc")),
    )
    return {
        "table1": smooth,
        "table-osc": osc,
        "table-piecewise": piecewise,
        "table-cc": cc,
    }


PRESETS = _presets()


def run_preset(name: str) -> list[SweepRow]:
    if name not in PRESETS:
        raise UnknownFunctionError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    rows = []
    for spec in PRESETS[name]:
        rows.extend(run_sweep(spec))
    return rows
