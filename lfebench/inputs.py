"""Seeded inputs for the benchmark workloads and the per-call accuracy check.

Every workload is an endless stream of cycles; a cycle is a short list of
cases that the benchmark runs in order. Case ``i`` of a stream depends only
on the seed, so two runs with one seed see the same inputs. Samples are
computed here, before any clock starts; the program receives only the
sample arrays (library workloads) or CSV files (``cli_csv``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lfequad import SampledFunction, UniformGrid
from lfequad.testbed import registry_lookup

# Window geometry of the default WindowConfig: adjacent windows share one
# node, so each full window covers m - 1 = 20 cells.
WINDOW_CELLS = 20

# Absolute tolerance per unit of (b - a) * max|f_j|: a call is accurate when
# |value - exact| <= REL_TOL * (b - a) * max|f_j|.
REL_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    """One integration problem with its closed-form answer."""

    fid: str
    params: tuple[tuple[str, float], ...]
    a: float
    b: float
    M: int
    exact: float
    kink: float | None  # true kink position, None for smooth integrands

    def entry(self):
        return registry_lookup(self.fid, dict(self.params))

    def values(self) -> np.ndarray:
        return np.asarray(self.entry().evaluator(UniformGrid(self.a, self.b, self.M).nodes()), float)

    def samples(self) -> SampledFunction:
        return SampledFunction(grid=UniformGrid(self.a, self.b, self.M), values=self.values())


def make_case(fid: str, params: dict[str, float], M: int, kink_key: str | None = None) -> Case:
    entry = registry_lookup(fid, params)
    a, b = entry.domain
    return Case(
        fid=fid,
        params=entry.params,
        a=a,
        b=b,
        M=int(M),
        exact=entry.exact_integral,
        kink=params[kink_key] if kink_key else None,
    )


def within_tolerance(value: float, exact: float, a: float, b: float, fmax: float) -> bool:
    """The per-call accuracy check; False for non-finite values."""
    return math.isfinite(value) and abs(value - exact) <= REL_TOL * (b - a) * fmax


def window_blocks(M: int) -> list[tuple[int, int]]:
    """Node-index blocks that the windows of an M-cell grid integrate over.

    Full windows cover WINDOW_CELLS cells each; a leftover of r cells goes to
    one tail window covering the last r cells. Valid for M >= WINDOW_CELLS.
    """
    nfull, r = divmod(M, WINDOW_CELLS)
    blocks = [(k * WINDOW_CELLS, (k + 1) * WINDOW_CELLS) for k in range(nfull)]
    if r:
        blocks.append((M - r, M))
    return blocks


# --- workloads --------------------------------------------------------------

SMOOTH_FUNCTIONS = (
    ("f1", {}),
    ("f3", {}),
    ("f4", {"omega": 200.0}),
    ("f5", {"kappa": 100.0}),
    ("f6", {"alpha": 0.1}),
)


GOLDEN = (5**0.5 - 1) / 2


@dataclass(frozen=True)
class SmoothLong:
    """Long smooth grids; a cycle integrates each function once.

    Call i gets M = m_lo + frac(u + i*GOLDEN) * (m_hi - m_lo) with a seeded
    offset u: a low-discrepancy sequence, so every run covers [m_lo, m_hi]
    evenly and its median call has M near the middle whatever the seed,
    while M mod 20 still varies from call to call.
    """

    m_lo: int = 50_000
    m_hi: int = 200_000

    def cycles(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        u = rng.random()
        width = self.m_hi - self.m_lo
        for i in itertools.count(0, len(SMOOTH_FUNCTIONS)):
            order = rng.permutation(len(SMOOTH_FUNCTIONS))
            yield [
                make_case(*SMOOTH_FUNCTIONS[k], self.m_lo + ((u + (i + j) * GOLDEN) % 1.0) * width)
                for j, k in enumerate(order)
            ]


@dataclass(frozen=True)
class KinkSweep:
    """Short grids with one kink, position uniform in [2h, 1 - 2h]."""

    grids: tuple[int, ...] = (160, 646, 1280)

    def cycles(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        while True:
            cycle = []
            for fid, key in (("f7", "xi"), ("f8", "zeta")):
                for M in self.grids:
                    h = 1.0 / M
                    pos = float(rng.uniform(2 * h, 1 - 2 * h))
                    cycle.append(make_case(fid, {key: pos}, M, kink_key=key))
            yield [cycle[i] for i in rng.permutation(len(cycle))]


@dataclass(frozen=True)
class CsvFile:
    case: Case
    path: Path
    nbytes: int
    fmax: float


@dataclass(frozen=True)
class CliCsv:
    """f5(kappa=100) CSV files of about 1e4, 1e5 and 1e6 rows.

    The row count is 10^k plus a seeded offset below WINDOW_CELLS, so M mod
    20 varies and the tail window runs. One cycle runs each file once.
    """

    rows: tuple[int, ...] = (10_000, 100_000, 1_000_000)

    def files(self, seed: int, directory: Path) -> list[CsvFile]:
        rng = np.random.default_rng([seed, 3])
        out = []
        for n in self.rows:
            case = make_case("f5", {"kappa": 100.0}, n - 1 + int(rng.integers(WINDOW_CELLS)))
            out.append(write_csv(case, directory / f"f5_{case.M + 1}.csv"))
        return out


def write_csv(case: Case, path: Path) -> CsvFile:
    """Write x,f rows with shortest round-trip float text, as machine output would be."""
    x = UniformGrid(case.a, case.b, case.M).nodes()
    f = case.entry().evaluator(x)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,f\n")
        fh.writelines(f"{xi!r},{fi!r}\n" for xi, fi in zip(x.tolist(), f.tolist()))
    return CsvFile(case=case, path=path, nbytes=path.stat().st_size, fmax=float(np.max(np.abs(f))))
