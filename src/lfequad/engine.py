"""Sliding-window quadrature on a uniform grid.

The grid is partitioned into overlapping windows of m nodes (adjacent windows
share one node, so the shift is m-1 cells). Each window is fitted with the
precomputed reference factors and contributes the analytic integral of its
fit over the block of cells it covers. Every grid takes one path: its windows
are gathered into one stack, solved in one call and weighted in one product,
so the per-window work is array rows, not Python calls. The three grid
regimes differ only in the windows they gather:

* more nodes than a window: full windows every m-1 cells, plus, when M is not
  divisible by m-1, one tail window that reuses the last m nodes (borrowing
  already-covered nodes on the left) and integrates only the leftover cells
  through a truncated weight range;
* exactly one window's worth of nodes: a single full window;
* fewer nodes than a window: a single full window of all M+1 nodes, fitted
  with the reduced reference of floor(M/2) modes per side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GridError, InvalidInputError, NonFiniteResultError
from .reference import (
    WindowConfig,
    build_reference,
    mode_weights,
    solve_coefficients,
)


@dataclass(frozen=True)
class UniformGrid:
    """Equidistant nodes a + j*h, j = 0..M, with h = (b-a)/M."""

    a: float
    b: float
    M: int

    def __post_init__(self):
        if not self.b > self.a:
            raise InvalidInputError(f"need b > a, got [{self.a}, {self.b}]")
        if self.M < 1:
            raise InvalidInputError(f"need at least one cell, got M={self.M}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    def node(self, j: int) -> float:
        return self.a + j * self.h

    def nodes(self) -> np.ndarray:
        return self.a + np.arange(self.M + 1) * self.h


@dataclass(frozen=True)
class SampledFunction:
    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.M + 1,):
            raise InvalidInputError(
                f"expected {self.grid.M + 1} values for M={self.grid.M}, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("sample values contain non-finite entries")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, f, a: float, b: float, M: int) -> "SampledFunction":
        grid = UniformGrid(a, b, M)
        return cls(grid=grid, values=np.asarray(f(grid.nodes()), dtype=float))


@dataclass(frozen=True)
class WindowSpan:
    """One planned window: first node, kind, and covered cells.

    ``block`` is a pair of node indices; the window's contribution is the
    integral over [node(block[0]), node(block[1])]. For full windows that is
    the whole window span; a tail window covers only the leftover cells.
    """

    start: int
    kind: str  # "full" | "tail" | "small"
    block: tuple[int, int]


@dataclass(frozen=True)
class WindowPlan:
    windows: tuple[WindowSpan, ...]


@dataclass(frozen=True)
class QuadratureReport:
    """Total value plus per-window diagnostics, one array row per window.

    ``starts[k]`` is window k's first node and ``blocks[k]`` the node pair
    (lo, hi) of the cells it contributes; ``coefficients[k]`` holds its fit,
    ``etas[k]`` the coefficient energy ||c||_2 and ``contributions[k]`` the
    real part of its integral. ``value`` already includes any corrections;
    the arrays keep the original (uncorrected) per-window data, which is
    what makes re-running the corrector a no-op.
    """

    value: float
    starts: np.ndarray
    blocks: np.ndarray
    coefficients: np.ndarray
    etas: np.ndarray
    contributions: np.ndarray
    corrections: tuple = ()
    config_used: WindowConfig = WindowConfig()
    imag_residue: float = 0.0
    warnings: tuple[str, ...] = ()

    def with_corrections(self, corrections, value, warnings=()) -> "QuadratureReport":
        return replace(
            self,
            value=value,
            corrections=tuple(corrections),
            warnings=self.warnings + tuple(warnings),
        )


def window_layout(M: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """First node and covered block (lo, hi) of every window of an M-cell grid.

    Block k starts at node k*(m-1). Full windows start at their block and
    cover m-1 cells; when m-1 does not divide M, the last block is shorter
    and its tail window reuses the last m nodes. A grid with fewer than m
    nodes has one small window over all of it. Block bookkeeping is integer
    node counting, so the blocks tile [0, M] with no float drift.
    """
    shift = m - 1
    lo = np.arange(-(-M // shift)) * shift
    blocks = np.stack((lo, np.minimum(lo + shift, M)), axis=1)
    starts = np.maximum(np.minimum(lo, M - shift), 0)
    return starts, blocks


def plan_windows(grid: UniformGrid, config: WindowConfig) -> WindowPlan:
    """Decompose the grid into windows whose covered blocks tile [a, b] exactly."""
    starts, blocks = window_layout(grid.M, config.m)
    small = grid.M + 1 < config.m
    windows = tuple(
        WindowSpan(
            start=s,
            kind="small" if small else "full" if lo == s else "tail",
            block=(lo, hi),
        )
        for s, (lo, hi) in zip(starts.tolist(), blocks.tolist())
    )
    return WindowPlan(windows=windows)


def _coefficient_norms(c: np.ndarray) -> np.ndarray:
    """Row norms of a complex stack, summed over its (re, im) float view."""
    cf = c.view(float)
    return np.sqrt(np.einsum("ij,ij->i", cf, cf))


def _window_integrals(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Integrals ``c @ w`` as (re, im) pairs, from one real product.

    The float view of c interleaves (re, im), so the (2p, 2) matrix with
    rows (Re w, Im w) and (-Im w, Re w) per mode maps each row of c to the
    real and imaginary part of its weighted sum.
    """
    pairs = np.empty((w.size, 2, 2))
    pairs[:, 0, 0] = pairs[:, 1, 1] = w.real
    pairs[:, 0, 1] = w.imag
    pairs[:, 1, 0] = -w.imag
    return c.view(float) @ pairs.reshape(-1, 2)


def _report(q, c, starts, blocks, config) -> QuadratureReport:
    """Report of window integrals ``q`` ((re, im) pairs) from the fits ``c``.

    A non-finite total means the data's scale overflowed the solve or the
    weighted sums; it is raised, never returned.
    """
    contributions = q[:, 0].copy()
    value = float(contributions.sum())
    if not math.isfinite(value):
        raise NonFiniteResultError(
            f"quadrature value is {value}: the sample magnitudes overflow the window fits"
        )
    return QuadratureReport(
        value=value,
        starts=starts,
        blocks=blocks,
        coefficients=c,
        etas=_coefficient_norms(c),
        contributions=contributions,
        config_used=config,
        imag_residue=float(abs(q[:, 1].sum())),
    )


def integrate(samples: SampledFunction, config: WindowConfig | None = None) -> QuadratureReport:
    """Windowed quadrature of uniformly sampled data.

    Full, tail and small-grid windows all go through one batched solve. A
    grid with fewer nodes than ``config.m`` is fitted as one window with the
    reduced reference ``WindowConfig(n=M//2, m=M+1, T, epsilon)``; the
    report's ``config_used`` is still ``config``.

    Parameters
    ----------
    samples : SampledFunction
        Values on a uniform grid with at least 3 nodes.
    config : WindowConfig, optional
        Fit parameters, the truncation threshold included; defaults to the
        standard configuration. The reference factors come from
        ``build_reference(config)``, which caches them.

    Returns
    -------
    QuadratureReport
        Real total, per-window coefficients/energies/contributions, and the
        imaginary residue of the complex accumulation as a diagnostic.

    Raises
    ------
    GridError
        When the grid has fewer than 3 nodes.
    NonFiniteResultError
        When the total is not finite (sample magnitudes near the float
        range overflow the fits).
    """
    if config is None:
        config = WindowConfig()
    grid = samples.grid
    if grid.M + 1 < 3:
        raise GridError(f"need at least 3 nodes, got {grid.M + 1}")
    fit = config
    if grid.M + 1 < config.m:
        # fewer nodes than a window: one window over all of them, fitted with
        # the reference of floor(M/2) modes per side on the same interval
        fit = replace(config, n=grid.M // 2, m=grid.M + 1)
    factors = build_reference(fit)
    m, shift = fit.m, fit.m - 1
    starts, blocks = window_layout(grid.M, m)
    # full windows as a strided view of the samples (adjacent ones share a
    # node); a tail window goes in as one extra row. The view is built with
    # the ndarray constructor: sliding_window_view reads __array_interface__,
    # which retains memory on every call under numpy 2.4.
    values = np.ascontiguousarray(samples.values)
    step = values.itemsize
    windows = np.ndarray((grid.M // shift, m), float, values, 0, (shift * step, step))
    tail = starts.size > windows.shape[0]
    if tail:
        windows = np.concatenate((windows, values[None, -m:]))
    c = solve_coefficients(factors, windows)
    del windows  # free the gathered copy before the weight products
    q = _window_integrals(c, mode_weights(fit, 0.0).weights)
    if tail:
        t_lo = fit.lam * int(blocks[-1, 0] - starts[-1]) / shift
        q[-1] = _window_integrals(c[-1], mode_weights(fit, t_lo).weights)
    scale = (fit.T / (2.0 * np.pi)) * shift * grid.h
    return _report(scale * q / np.sqrt(factors.L), c, starts, blocks, config)
