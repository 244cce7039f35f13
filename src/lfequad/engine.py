"""Sliding-window quadrature on a uniform grid.

The grid is partitioned into overlapping windows of m nodes (adjacent windows
share one node, so the shift is m-1 cells). Each window is fitted with the
precomputed reference factors and contributes the analytic integral of its
fit over the block of cells it covers; all windows of a grid are solved as
one stack, so the per-window work is array rows, not Python calls. Three
grid regimes exist:

* more nodes than a window: full windows every m-1 cells, plus, when M is not
  divisible by m-1, one tail window that reuses the last m nodes (borrowing
  already-covered nodes on the left) and integrates only the leftover cells
  through a truncated weight range;
* exactly one window's worth of nodes: a single full window;
* fewer nodes than a window: a single bespoke fit using all available nodes
  with a correspondingly reduced mode count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, GridError, InvalidInputError, NonFiniteResultError
from .reference import (
    ReferenceFactors,
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
    """One planned window: node range, weight range, and covered cells.

    ``block`` is a pair of node indices; the window's contribution is the
    integral over [node(block[0]), node(block[1])]. For full windows that is
    the whole window span and t_lo = 0; a tail window covers only the
    leftover cells, mapped to [t_lo, 2*pi/T] in reference coordinates.
    """

    start: int
    kind: str  # "full" | "tail" | "small"
    t_lo: float
    block: tuple[int, int]


@dataclass(frozen=True)
class WindowPlan:
    grid: UniformGrid
    config: WindowConfig
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
    shift = config.m - 1
    starts, blocks = window_layout(grid.M, config.m)
    small = grid.M + 1 < config.m
    windows = tuple(
        WindowSpan(
            start=s,
            kind="small" if small else "full" if lo == s else "tail",
            t_lo=config.lam * (lo - s) / shift,
            block=(lo, hi),
        )
        for s, (lo, hi) in zip(starts.tolist(), blocks.tolist())
    )
    return WindowPlan(grid=grid, config=config, windows=windows)


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


def integrate_small(samples: SampledFunction, config: WindowConfig) -> QuadratureReport:
    """Single-window fit for grids with fewer nodes than a standard window.

    Builds an (M+1) x (2n'+1) system with n' = floor(M/2) over the same
    reference interval and integrates it in one shot. Needs at least three
    nodes.
    """
    grid = samples.grid
    if grid.M + 1 >= config.m:
        raise GridError(f"grid with {grid.M + 1} nodes is not a small-grid case for m={config.m}")
    if grid.M + 1 < 3:
        raise GridError(f"need at least 3 nodes, got {grid.M + 1}")
    sub = WindowConfig(n=grid.M // 2, m=grid.M + 1, T=config.T, epsilon=config.epsilon)
    starts, blocks = window_layout(grid.M, config.m)
    c = solve_coefficients(build_reference(sub), samples.values[None, :])
    scale = (sub.T / (2.0 * np.pi)) * (grid.b - grid.a)
    q = scale * _window_integrals(c, mode_weights(sub, 0.0).weights) / np.sqrt(sub.L)
    return _report(q, c, starts, blocks, config)


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


def integrate(
    samples: SampledFunction,
    config: WindowConfig | None = None,
    factors: ReferenceFactors | None = None,
) -> QuadratureReport:
    """Windowed quadrature of uniformly sampled data.

    Parameters
    ----------
    samples : SampledFunction
        Values on a uniform grid.
    config : WindowConfig, optional
        Fit parameters; defaults to the standard configuration.
    factors : ReferenceFactors, optional
        Precomputed reference factors. Must agree with ``config`` on
        (n, m, T); built (and cached) on demand when omitted.

    Returns
    -------
    QuadratureReport
        Real total, per-window coefficients/energies/contributions, and the
        imaginary residue of the complex accumulation as a diagnostic.

    Raises
    ------
    NonFiniteResultError
        When the total is not finite (sample magnitudes near the float
        range overflow the fits).
    """
    if config is None:
        config = factors.config if factors is not None else WindowConfig()
    if samples.grid.M + 1 < config.m:
        return integrate_small(samples, config)
    if factors is None:
        factors = build_reference(config)
    fc = factors.config
    if (fc.n, fc.m, fc.T) != (config.n, config.m, config.T):
        raise ConfigError(
            f"factors built for (n={fc.n}, m={fc.m}, T={fc.T}) do not match "
            f"(n={config.n}, m={config.m}, T={config.T})"
        )
    grid = samples.grid
    m, shift = config.m, config.m - 1
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
    c = solve_coefficients(factors, windows, config.epsilon)
    del windows  # free the gathered copy before the weight products
    q = _window_integrals(c, mode_weights(config, 0.0).weights)
    if tail:
        t_lo = config.lam * int(blocks[-1, 0] - starts[-1]) / shift
        q[-1] = _window_integrals(c[-1], mode_weights(config, t_lo).weights)
    scale = (config.T / (2.0 * np.pi)) * shift * grid.h
    return _report(scale * q / np.sqrt(factors.L), c, starts, blocks, config)
