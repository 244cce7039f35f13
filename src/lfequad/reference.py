"""Reference-window Fourier continuation: matrix, factorization, weights.

Every physical window of a uniform grid maps affinely onto the same reference
interval ``[0, 2*pi/T]`` with ``T > 1``, i.e. onto the leading ``1/T`` slice
of a full period. One complex node matrix therefore serves all windows, and
its SVD is computed once and reused. Solving the (severely ill-conditioned)
least-squares system with a truncated SVD gives coefficients whose integrals
are available in closed form, which is what makes the quadrature accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionMismatchError, InvalidInputError


@dataclass(frozen=True)
class WindowConfig:
    """Fixed parameters of the reference fit.

    n        mode half-count; modes run over -n..n (2n+1 columns)
    m        samples per window (defaults to 2n+1, one sample per column)
    T        extension ratio; the data occupies [0, 2*pi/T] of a 2*pi period
    epsilon  truncation threshold for the SVD solve, measured against the
             singular values of the unnormalized node system (see
             solve_coefficients)
    """

    n: int = 10
    m: int = 21
    T: float = 6.0
    epsilon: float = 1e-15

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"mode half-count must be >= 1, got {self.n}")
        if self.m < 2 * self.n + 1:
            raise ConfigError(f"m={self.m} underdetermines 2n+1={2 * self.n + 1} modes")
        if not self.T > 1:
            raise ConfigError(f"extension ratio must exceed 1, got {self.T}")
        if not self.epsilon > 0:
            raise ConfigError(f"truncation threshold must be positive, got {self.epsilon}")

    @property
    def lam(self) -> float:
        """Length of the sampled reference interval, 2*pi/T."""
        return 2.0 * np.pi / self.T

    @property
    def L(self) -> float:
        """Normalization constant T*(m-1); matrix entries carry 1/sqrt(L)."""
        return self.T * (self.m - 1)

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.n, self.n + 1)


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``a = u @ diag(sigma) @ v.conj().T``.

    ``u`` is (rows, r), ``v`` is (cols, r), ``sigma`` is (r,) sorted
    descending with r = min(rows, cols). Columns of ``u`` and ``v`` are
    orthonormal to roundoff. ``_operators`` caches the truncated solve
    operators derived from this factorization, one entry per (L, epsilon)
    (see solve_operators); a new factorization starts with none.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def svd(a: np.ndarray) -> SvdFactors:
    """Factor a complex matrix, singular values in descending order.

    Deterministic for identical input: the same bits in give the same bits
    out on a given build. Non-finite entries are rejected.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    u, sigma, vh = np.linalg.svd(a, full_matrices=False)
    return SvdFactors(u=u, sigma=sigma, v=vh.conj().T)


@dataclass(frozen=True)
class ReferenceFactors:
    """Node matrix on the reference interval together with its SVD."""

    config: WindowConfig
    matrix: np.ndarray  # (m, 2n+1), entry (i, l) = exp(1j*l*t_i)/sqrt(L)
    svd: SvdFactors

    @property
    def L(self) -> float:
        return self.config.L

    @property
    def nodes(self) -> np.ndarray:
        c = self.config
        return np.arange(c.m) * (c.lam / (c.m - 1))


@lru_cache(maxsize=32)
def _build(n: int, m: int, T: float) -> tuple[np.ndarray, SvdFactors]:
    lam = 2.0 * np.pi / T
    L = T * (m - 1)
    t = np.arange(m) * (lam / (m - 1))
    ell = np.arange(-n, n + 1)
    matrix = np.exp(1j * np.outer(t, ell)) / np.sqrt(L)
    return matrix, svd(matrix)


def build_reference(config: WindowConfig) -> ReferenceFactors:
    """Build (or fetch from cache) the reference matrix and its SVD.

    The factorization depends only on (n, m, T), so configs that differ
    only in epsilon share it; the solve truncates at ``config.epsilon``.
    Rebuilding with an equal config returns bitwise-identical factors.
    """
    matrix, factors = _build(config.n, config.m, float(config.T))
    return ReferenceFactors(config=config, matrix=matrix, svd=factors)


@dataclass(frozen=True)
class ModeWeights:
    """Closed-form integrals of the Fourier modes over [t_lo, t_hi].

    weights[l+n] = integral of exp(1j*l*t) over [t_lo, t_hi], so
    weights[-l] = conj(weights[l]) for real limits.
    """

    weights: np.ndarray
    t_lo: float
    t_hi: float


def mode_weights(config: WindowConfig, t_lo: float, t_hi: float | None = None) -> ModeWeights:
    """Analytic mode integrals over ``[t_lo, t_hi]`` (default upper limit 2*pi/T).

    The l = 0 weight is the interval length; for l != 0 the antiderivative
    exp(1j*l*t)/(1j*l) is evaluated at the limits. No quadrature is involved.
    """
    lam = config.lam
    if t_hi is None:
        if not 0.0 <= t_lo < lam:
            raise InvalidInputError(f"t_lo={t_lo} outside [0, {lam})")
        t_hi = lam
    else:
        slack = 1e-12 * lam
        if not (-slack <= t_lo <= t_hi <= lam + slack):
            raise InvalidInputError(f"bad weight range [{t_lo}, {t_hi}] for lam={lam}")
    ell = config.modes
    w = np.empty(ell.size, dtype=complex)
    nz = ell != 0
    w[~nz] = t_hi - t_lo
    lnz = ell[nz]
    w[nz] = (np.exp(1j * lnz * t_hi) - np.exp(1j * lnz * t_lo)) / (1j * lnz)
    return ModeWeights(weights=w, t_lo=float(t_lo), t_hi=float(t_hi))


def solve_operators(factors: ReferenceFactors) -> tuple[np.ndarray, np.ndarray]:
    """Offline half of the solve: the projector and synthesis matrix.

    Keeps the directions with ``sigma_j * sqrt(L) > epsilon``, epsilon being
    ``factors.config.epsilon``, and returns the folded projector
    ``conj(U_k) / sigma_k`` (m, r) and the synthesis matrix ``V_k^T``
    (r, 2n+1), both C-contiguous. They are derived once per factorization,
    L and epsilon, and kept on the factorization, so equal configs (which
    share one factorization) reuse them and factors holding another SVD
    never see them.
    """
    f = factors.svd
    epsilon = factors.config.epsilon
    key = (factors.L, epsilon)
    if key not in f._operators:
        keep = f.sigma * np.sqrt(factors.L) > epsilon
        f._operators[key] = (
            np.ascontiguousarray(f.u[:, keep].conj() / f.sigma[keep]),
            np.ascontiguousarray(f.v[:, keep].T),
        )
    return f._operators[key]


def solve_coefficients(factors: ReferenceFactors, samples: np.ndarray) -> np.ndarray:
    """Truncated-SVD solve for window coefficients, one window or a stack.

    ``samples`` is one window of m values or a (k, m) stack of windows; the
    result is (2n+1,) or (k, 2n+1) accordingly. The solve is two products
    with the operators of solve_operators: project the data with the folded
    projector ``conj(U_k) / sigma_k``, then synthesize with ``V_k^T``. Real
    samples are projected with a real product against the interleaved real
    and imaginary parts of the projector, so they are never copied to
    complex.

    Forbidden: any sum over singular directions formed before the data are
    applied, that is the merged pseudoinverse ``V_k Sigma_k^-1 U_k^H`` or a
    fused per-window quadrature vector. Such a sum adds terms scaled by the
    tiny singular values, and its roundoff is amplified through 1/sigma into
    every solve. Scaling the columns of ``U_k`` by the diagonal ``1/sigma_k``
    is allowed: it forms no sum across directions, so each projected
    component has the same roundoff class as projecting first and dividing
    afterwards.

    A direction j is retained when ``sigma_j * sqrt(L) > epsilon``, with
    epsilon the factors' ``config.epsilon`` (positive by construction): the
    threshold is calibrated to the unnormalized node system exp(1j*l*t_i).
    The 1/sqrt(L) matrix scaling keeps the factorization well-scaled but must
    not move the truncation point, otherwise directions that carry real
    signal at the default epsilon are discarded and the quadrature loses two
    to three digits on marginally resolved oscillatory data.
    """
    g = np.asarray(samples)
    real = not np.iscomplexobj(g)
    g = g.astype(float if real else complex, copy=False)
    if g.ndim not in (1, 2) or g.shape[-1] != factors.config.m:
        raise DimensionMismatchError(
            f"expected {factors.config.m} samples per window, got shape {g.shape}"
        )
    if not np.isfinite(g).all():
        raise InvalidInputError("samples contain non-finite values")
    projector, synthesis = solve_operators(factors)
    if real:
        # the float view of the projector holds (re, im) pairs, so the real
        # product comes out as the complex projection laid out pairwise
        y = (g @ projector.view(float)).view(complex)
    else:
        y = g @ projector
    return y @ synthesis


@dataclass(frozen=True)
class LocalExpansion:
    """A solved window fit in physical coordinates.

    Reconstruction at physical x:
        (1/sqrt(L)) * sum_l c_l * exp(1j*l*(x - origin)/scale)
    where ``scale`` maps the physical window onto the reference interval and
    ``origin`` is the window's left endpoint.
    """

    coefficients: np.ndarray
    scale: float
    origin: float
    L: float


def evaluate_expansion(expansion: LocalExpansion, x) -> complex | np.ndarray:
    """Evaluate the expansion at physical x (scalar or array).

    Points slightly outside the window are fine; the continuation is defined
    on the whole extended period.
    """
    c = expansion.coefficients
    n = (c.size - 1) // 2
    ell = np.arange(-n, n + 1)
    t = (np.asarray(x, dtype=float) - expansion.origin) / expansion.scale
    vals = np.exp(1j * np.multiply.outer(t, ell)) @ c / np.sqrt(expansion.L)
    if np.ndim(x) == 0:
        return complex(vals)
    return vals


def integrate_expansion(expansion: LocalExpansion, weights: ModeWeights) -> complex:
    """Integral of the expansion over the weights' reference range.

    Plain weighted sum scale * (1/sqrt(L)) * sum_l w_l c_l; the weights
    multiply the coefficients directly (no conjugation) and 1/sqrt(L)
    compensates the matrix normalization.
    """
    c = expansion.coefficients
    if weights.weights.shape != c.shape:
        raise DimensionMismatchError(
            f"weights length {weights.weights.size} != coefficients length {c.size}"
        )
    return complex(expansion.scale * (weights.weights @ c) / np.sqrt(expansion.L))

