"""Command-line interface.

Two subcommands:

* ``integrate``: quadrature of a two-column CSV of uniform samples, with
  optional kink correction and JSON output.
* ``bench``: error sweeps over the built-in test functions, either ad hoc or
  via the named table presets, emitted as CSV or JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from .correction import correct
from .engine import integrate
from .errors import DetectionUnavailableError, LfequadError
from .reference import WindowConfig, build_reference
from .testbed import (
    METHODS,
    PRESETS,
    SweepSpec,
    ingest_samples,
    registry_lookup,
    rows_to_csv,
    rows_to_json,
    run_preset,
    run_sweep,
)

EXIT_CODES = {
    "parse-failure": 3,
    "unsorted-data": 3,
    "nonuniform-spacing": 3,
    "too-few-samples": 3,
    "ingest": 3,
    "invalid-input": 4,
    "invalid-config": 4,
    "dimension-mismatch": 4,
    "unsupported-grid": 4,
    "invalid-grid": 4,
    "non-finite-result": 4,
    "detection-unavailable": 5,
    "prediction-failed": 5,
    "unknown-function": 6,
    "missing-parameter": 6,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfequad",
        description="High-order quadrature for uniformly sampled data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integrate", help="integrate a two-column CSV of uniform samples")
    p_int.add_argument("--input", required=True, help="CSV path with columns x,f")
    p_int.add_argument("--correct", action="store_true",
                       help="detect and repair derivative kinks inside windows")
    p_int.add_argument("--epsilon", type=float, default=1e-15, help="SVD truncation threshold")
    p_int.add_argument("--n", type=int, default=10, help="mode half-count (window has 2n+1 nodes)")
    p_int.add_argument("--T", type=float, default=6.0, help="extension ratio (> 1)")
    p_int.add_argument("--json", action="store_true", help="emit a JSON report")

    p_bench = sub.add_parser("bench", help="error sweeps over the test-function registry")
    group = p_bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sorted(PRESETS), help="named table preset")
    group.add_argument("--function", help="function id f1..f8")
    p_bench.add_argument("--param", action="append", default=[], metavar="k=v",
                         help="function parameter, repeatable (e.g. --param omega=100)")
    p_bench.add_argument("--M", help="comma-separated even subinterval counts, ascending")
    p_bench.add_argument("--methods", default="lfe",
                         help=f"comma-separated subset of {','.join(METHODS)}")
    p_bench.add_argument("--out", help="output path; .json extension selects JSON, else CSV")
    return parser


def _cmd_integrate(args) -> int:
    config = WindowConfig(n=args.n, m=2 * args.n + 1, T=args.T, epsilon=args.epsilon)
    samples = ingest_samples(args.input)
    report = integrate(samples, config)
    corrected = False
    if args.correct:
        try:
            report = correct(report, samples, build_reference(config))
            corrected = True
        except DetectionUnavailableError as exc:
            print(f"warning[{exc.category}]: {exc}; result left uncorrected", file=sys.stderr)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.json:
        payload = {
            "value": report.value,
            "M": samples.grid.M,
            "windows": int(report.starts.size),
            "corrected_windows": [c.window_index for c in report.corrections],
            "correction_applied": corrected,
            "imag_residue": report.imag_residue,
            "warnings": list(report.warnings),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(repr(report.value))
    return 0


def _parse_params(pairs) -> dict[str, float]:
    params = {}
    for item in pairs:
        key, sep, val = item.partition("=")
        if not sep:
            raise LfequadError(f"--param expects k=v, got {item!r}")
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise LfequadError(f"--param value for {key!r} is not a number: {val!r}") from None
    return params


def _cmd_bench(args) -> int:
    if args.preset:
        rows = run_preset(args.preset)
    else:
        if not args.M:
            raise LfequadError("--M is required with --function")
        try:
            m_values = tuple(int(tok) for tok in args.M.split(","))
        except ValueError:
            raise LfequadError(f"--M must be comma-separated integers, got {args.M!r}") from None
        params = _parse_params(args.param)
        methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
        entry = registry_lookup(args.function, params)  # validates id and params
        spec = SweepSpec(
            function=entry.id, params=entry.params, M_values=m_values, methods=methods
        )
        rows = run_sweep(spec)
    as_json = bool(args.out and args.out.endswith(".json"))
    text = rows_to_json(rows) if as_json else rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "integrate":
            return _cmd_integrate(args)
        return _cmd_bench(args)
    except LfequadError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
