"""Detection and repair of derivative-kink windows.

A continuous integrand with a derivative jump inside some window inflates
that window's coefficient energy by many orders of magnitude, because the
window fit is forced to straddle two smooth branches. The repair pipeline:

1. flag windows whose energy exceeds a large multiple of the median;
2. bracket the kink to one grid cell by scanning candidate split nodes and
   fitting one window ending and one starting at each split, keeping the
   split whose two fits are jointly tamest;
3. fit both one-sided branches in one stacked solve: the window ending at
   the cell's right edge and the one starting at its left edge, each with
   the single sample that belongs to the other branch replaced by a
   predicted one-sided limit (the value that makes the window data
   orthogonal to the reference matrix's most nearly null left singular
   vector);
4. estimate the kink location inside the cell as the root of the difference
   of the two branch fits;
5. swap the flagged window's contribution for the two analytic one-sided
   integrals split at the estimate.

Jump discontinuities are out of scope: one-sided limits of a discontinuous
function cannot be recovered from samples alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import QuadratureReport, SampledFunction, window_layout
from .errors import DetectionUnavailableError, InvalidInputError, PredictionFailedError
from .reference import (
    LocalExpansion,
    ReferenceFactors,
    evaluate_expansion,
    integrate_expansion,
    mode_weights,
    solve_coefficients,
)

# Energy threshold: flag windows with eta > DETECTION_RATIO * median(eta).
# Smooth windows sit within a factor of a few of each other while a straddled
# kink inflates eta by >= 1e6, so three decades leaves margin on both sides.
DETECTION_RATIO = 1e3

# At the minimizing split, a contaminated side exceeds a clean side by orders
# of magnitude; this ratio decides whether the kink hugs the split node from
# the right (cell shifts one to the right) or from the left / sits on it.
SIDE_RATIO = 1e2

_BISECT_ITERS = 60
_SCAN_POINTS = 64


@dataclass(frozen=True)
class DetectionReport:
    flagged: tuple[int, ...]
    etas: np.ndarray
    threshold: float


@dataclass(frozen=True)
class LocalizationResult:
    """Bracketing of a kink to one grid cell.

    ``split_index`` is the minimizing interior split (1..m-2, window-local),
    ``global_cell`` the node-index pair (c-1, c) bracketing the kink, and the
    norm arrays hold the candidate fits' coefficient energies per split.
    """

    split_index: int
    global_cell: tuple[int, int]
    cl_norms: np.ndarray
    cr_norms: np.ndarray


@dataclass(frozen=True)
class CorrectionResult:
    window_index: int
    localization: LocalizationResult
    xi_hat: float
    low_confidence: bool
    left_integral: float
    right_integral: float
    replaced_contribution: float


def detect(report: QuadratureReport) -> DetectionReport:
    """Flag windows whose coefficient energy is an outlier over the median.

    Needs at least three windows; with fewer, there is no meaningful median
    and the caller should keep the uncorrected result. The same holds when
    the energies left the float range: a non-finite threshold (energies
    overflowed) or all-zero energies beside a nonzero window integral
    (energies underflowed) cannot tell a kink from a smooth window.
    """
    etas = report.etas
    if etas.size < 3:
        raise DetectionUnavailableError(
            f"detection needs >= 3 windows, got {etas.size}"
        )
    threshold = DETECTION_RATIO * float(np.median(etas))
    if not np.isfinite(threshold):
        raise DetectionUnavailableError(
            f"detection threshold is {threshold}: coefficient energies overflowed"
        )
    if not etas.any() and report.contributions.any():
        raise DetectionUnavailableError(
            "coefficient energies underflowed to zero beside nonzero window integrals"
        )
    flagged = tuple(int(k) for k in np.nonzero(etas > threshold)[0])
    return DetectionReport(flagged=flagged, etas=etas, threshold=threshold)


def localize(
    samples: SampledFunction, factors: ReferenceFactors, window_index: int
) -> LocalizationResult:
    """Bracket the kink inside a flagged window to a single grid cell.

    For every interior split node g, fit the m nodes ending at g and the m
    nodes starting at g. A fit not containing the kink stays tame; the split
    minimizing the summed energies is the one whose contaminated fit holds
    the kink in its outermost cell. Whether that outermost cell lies left or
    right of the split follows from which side's energy dominates: a clean
    left fit with an inflated right fit means the kink sits just right of
    the split node.

    Near the domain boundary candidate windows clamp to the available range.
    """
    m = factors.config.m
    M = samples.grid.M
    starts, _ = window_layout(M, m)
    if not 0 <= window_index < starts.size:
        raise InvalidInputError(f"window index {window_index} out of range")
    start = int(starts[window_index])
    split = start + np.arange(1, m - 1)
    s_left = np.clip(split - (m - 1), 0, M - (m - 1))
    s_right = np.clip(split, 0, M - (m - 1))
    candidates = samples.values[np.concatenate((s_left, s_right))[:, None] + np.arange(m)]
    c = solve_coefficients(factors, candidates)
    norms = np.linalg.norm(c, axis=1)
    cl, cr = norms[: m - 2], norms[m - 2 :]
    i0 = int(np.argmin(cl + cr)) + 1  # ties resolve to the smallest i
    g0 = start + i0
    if cr[i0 - 1] > SIDE_RATIO * cl[i0 - 1]:
        location = g0 + 1  # kink just right of the split node
    else:
        location = g0  # kink at the split node or just left of it
    return LocalizationResult(
        split_index=i0,
        global_cell=(location - 1, location),
        cl_norms=cl,
        cr_norms=cr,
    )


def predict_endpoint(
    factors: ReferenceFactors, window_samples: np.ndarray, contaminated: int
) -> float:
    """One-sided limit at a contaminated sample position.

    Smooth window data is numerically orthogonal to the left singular vector
    of the smallest singular value; solving that orthogonality condition for
    the unknown entry gives a linear predictor for the missing one-sided
    value. Degenerate denominators (predictor node invisible to the smallest
    singular direction) abort the correction for this window.
    """
    g = np.asarray(window_samples, dtype=complex)
    if g.shape != (factors.config.m,):
        raise InvalidInputError(f"expected {factors.config.m} samples, got {g.shape}")
    if not 0 <= contaminated < g.size:
        raise InvalidInputError(f"contaminated index {contaminated} out of range")
    u_min = factors.svd.u[:, -1]
    denom = np.conj(u_min[contaminated])
    if abs(denom) <= 1e-12:
        raise PredictionFailedError(
            f"|u_min[{contaminated}]| = {abs(denom):.3e} too small for prediction"
        )
    num = np.conj(u_min) @ g - denom * g[contaminated]
    return float((-num / denom).real)


def _branch_fits(
    samples: SampledFunction, factors: ReferenceFactors, location: int
) -> tuple[LocalExpansion, LocalExpansion]:
    """Left and right branch fits around the kink cell (location-1, location).

    The left fit takes the m nodes ending at the cell's right edge, the right
    fit the m nodes starting at its left edge, both clamped to the grid. The
    cell edge sample of each may belong to the other branch and is replaced
    by the predicted one-sided limit; both windows are solved as one stack.
    """
    m = factors.config.m
    grid = samples.grid
    last = grid.M - (m - 1)
    targets = (location, location - 1)
    starts = [min(max(location - (m - 1), 0), last), min(max(location - 1, 0), last)]
    g = samples.values[np.add.outer(starts, np.arange(m))]
    for row, target, start in zip(g, targets, starts):
        row[target - start] = predict_endpoint(factors, row, target - start)
    c = solve_coefficients(factors, g)
    scale = (factors.config.T / (2.0 * np.pi)) * (m - 1) * grid.h
    left, right = (
        LocalExpansion(coefficients=ck, scale=scale, origin=grid.node(start), L=factors.L)
        for ck, start in zip(c, starts)
    )
    return left, right


def estimate_xi(
    left: LocalExpansion, right: LocalExpansion, cell: tuple[float, float]
) -> tuple[float, bool]:
    """Root of (left branch - right branch) inside the bracketing cell.

    Bisection when the difference changes sign over the cell, to an absolute
    tolerance of 1e-14 of the cell width or until the bracket is two
    adjacent floats, whichever comes first. Without a sign change (kink at a
    node, or numerically identical branches) the estimate falls back to the
    argmin of |difference| over an endpoint-inclusive scan and is marked
    low-confidence.
    """
    lo, hi = cell

    def diff(x: float) -> float:
        return (evaluate_expansion(left, x) - evaluate_expansion(right, x)).real

    d_lo, d_hi = diff(lo), diff(hi)
    if d_lo == 0.0 and d_hi == 0.0:
        pass  # degenerate (numerically identical branches): scan below
    elif d_lo == 0.0:
        return lo, False
    elif d_hi == 0.0:
        return hi, False
    elif np.sign(d_lo) != np.sign(d_hi):
        a, b = lo, hi
        tol = 1e-14 * (hi - lo)
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (a + b)
            if not a < mid < b:
                break  # a and b are adjacent floats: no step can move them
            d_mid = diff(mid)
            if d_mid == 0.0:
                return mid, False
            if np.sign(d_mid) == np.sign(d_lo):
                a = mid
            else:
                b = mid
            if b - a <= tol:
                break
        return 0.5 * (a + b), False
    # no sign change: kink at a node or degenerate difference
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    k = int(np.argmin([abs(diff(x)) for x in xs]))
    return float(xs[k]), True


def correct(
    report: QuadratureReport, samples: SampledFunction, factors: ReferenceFactors
) -> QuadratureReport:
    """Replace each flagged window's contribution by one-sided branch integrals.

    Detection reads the energies stored in the report, so correcting an
    already-corrected report reproduces it. Windows where the endpoint
    prediction degenerates are left uncorrected and noted in the warnings.
    Smooth reports come back unchanged.
    """
    detection = detect(report)
    if not detection.flagged:
        return report
    config = factors.config
    grid = samples.grid
    warnings: list[str] = []
    for a, b in zip(detection.flagged, detection.flagged[1:]):
        if b == a + 1:
            warnings.append(
                f"windows {a} and {b} both flagged; expected one kink per region"
            )
    corrections: list[CorrectionResult] = []
    contributions = report.contributions.copy()
    for k in detection.flagged:
        try:
            loc = localize(samples, factors, k)
            left, right = _branch_fits(samples, factors, loc.global_cell[1])
        except PredictionFailedError as exc:
            warnings.append(f"window {k} left uncorrected: {exc}")
            continue
        cell = (grid.node(loc.global_cell[0]), grid.node(loc.global_cell[1]))
        xi_hat, low_conf = estimate_xi(left, right, cell)
        if low_conf:
            warnings.append(f"window {k}: no sign change in branch difference, scan fallback")
        blk_lo, blk_hi = (grid.node(int(j)) for j in report.blocks[k])
        xi_c = min(max(xi_hat, blk_lo), blk_hi)
        halves = []
        for e, lo, hi in ((left, blk_lo, xi_c), (right, xi_c, blk_hi)):
            t = np.clip([(lo - e.origin) / e.scale, (hi - e.origin) / e.scale], 0.0, config.lam)
            halves.append(integrate_expansion(e, mode_weights(config, t[0], t[1])).real)
        left_int, right_int = halves
        corrections.append(
            CorrectionResult(
                window_index=k,
                localization=loc,
                xi_hat=xi_hat,
                low_confidence=low_conf,
                left_integral=left_int,
                right_integral=right_int,
                replaced_contribution=left_int + right_int,
            )
        )
        contributions[k] = left_int + right_int
    return report.with_corrections(corrections, float(contributions.sum()), warnings)
