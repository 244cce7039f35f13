#!/usr/bin/env python3
"""Regenerate every benchmark table preset as CSV.

Usage:
    python scripts/run_tables.py [outdir]

Writes table1.csv, table-osc.csv, table-piecewise.csv, table-cc.csv into
``outdir`` (default: ./tables). The heavy preset is table-osc, whose Simpson
reference runs reach M = 73396; the whole batch, interpreter start included,
takes about 0.6 s on a 2-vCPU Intel Xeon.
"""

import sys
import time
from pathlib import Path

from lfequad.testbed import PRESETS, rows_to_csv, run_preset


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("tables")
    outdir.mkdir(parents=True, exist_ok=True)
    for name in sorted(PRESETS):
        t0 = time.perf_counter()
        rows = run_preset(name)
        path = outdir / f"{name}.csv"
        path.write_text(rows_to_csv(rows), encoding="utf-8")
        print(f"{name}: {len(rows)} rows -> {path} ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
