"""lfequad: near machine-precision quadrature for uniformly sampled functions.

Each block of grid cells is fitted with a truncated-SVD-stabilized Fourier
continuation on a fixed reference interval and integrated analytically from
the coefficients. A detection-and-correction pass repairs windows that
straddle a derivative kink of an otherwise continuous integrand. Composite
Simpson and Clenshaw-Curtis baselines plus a benchmark harness round out the
package.
"""

from .baselines import CCRule, clenshaw_curtis, clenshaw_curtis_rule, simpson
from .correction import (
    BranchModel,
    CorrectionResult,
    DetectionReport,
    LocalizationResult,
    correct,
    detect,
    estimate_xi,
    localize,
    predict_endpoint,
)
from .engine import (
    QuadratureReport,
    SampledFunction,
    UniformGrid,
    WindowPlan,
    WindowSpan,
    integrate,
    integrate_small,
    plan_windows,
)
from .reference import (
    LocalExpansion,
    ModeWeights,
    ReferenceFactors,
    SvdFactors,
    WindowConfig,
    build_reference,
    evaluate_expansion,
    integrate_expansion,
    mode_weights,
    solve_coefficients,
    svd,
)
from .testbed import (
    PRESETS,
    SweepRow,
    SweepSpec,
    TestFunction,
    ingest_samples,
    registry_lookup,
    run_preset,
    run_sweep,
)

__version__ = "0.1.0"
