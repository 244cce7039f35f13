import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from lfequad import (
    LocalExpansion,
    SampledFunction,
    SvdFactors,
    WindowConfig,
    build_reference,
    correct,
    detect,
    estimate_xi,
    integrate,
    localize,
    predict_endpoint,
    registry_lookup,
    solve_coefficients,
)
from lfequad.correction import _BISECT_ITERS
from lfequad.reference import evaluate_expansion
from lfequad.errors import (
    ConfigError,
    DetectionUnavailableError,
    InvalidInputError,
    PredictionFailedError,
)


def _report(fid, params, M, config):
    entry = registry_lookup(fid, params)
    samples = SampledFunction.from_function(entry.evaluator, *entry.domain, M)
    return entry, samples, integrate(samples, config)


class TestDetect:
    def test_smooth_function_flags_nothing(self, config):
        _, _, rep = _report("f1", {}, 160, config)
        assert detect(rep).flagged == ()

    @pytest.mark.parametrize(
        "fid,params,point",
        [
            ("f7", {"xi": 0.3}, 0.3),
            ("f7", {"xi": np.pi / 5}, np.pi / 5),
            ("f8", {"zeta": 0.6}, 0.6),
            ("f8", {"zeta": 0.73}, 0.73),
        ],
    )
    def test_interior_kink_flags_exactly_its_window(self, config, fid, params, point):
        _, samples, rep = _report(fid, params, 160, config)
        det = detect(rep)
        assert len(det.flagged) == 1
        lo, hi = (samples.grid.node(int(j)) for j in rep.blocks[det.flagged[0]])
        assert lo < point < hi

    @pytest.mark.parametrize("fid,params", [("f7", {"xi": 0.5}), ("f8", {"zeta": 0.25})])
    def test_kink_on_window_boundary_flags_nothing(self, config, fid, params):
        _, _, rep = _report(fid, params, 160, config)
        assert detect(rep).flagged == ()

    def test_flagged_eta_dominates_median(self, config):
        _, _, rep = _report("f7", {"xi": 0.3}, 160, config)
        det = detect(rep)
        etas = det.etas
        assert etas[det.flagged[0]] >= 1e4 * np.median(etas)

    def test_too_few_windows(self, config):
        _, _, rep = _report("f1", {}, 40, config)  # two windows only
        with pytest.raises(DetectionUnavailableError):
            detect(rep)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e-200, 1e-300])
    def test_out_of_range_energies_are_unavailable(self, config, factors, scale):
        # the etas overflow (threshold inf) or underflow (all zero) while the
        # window integrals stay finite; flagging nothing would silently keep
        # the uncorrected value
        entry = registry_lookup("f7", {"xi": 0.3})
        samples = SampledFunction.from_function(
            lambda x: scale * entry.evaluator(x), *entry.domain, 160
        )
        rep = integrate(samples, config)
        assert np.isfinite(rep.value) and rep.value != 0
        with pytest.raises(DetectionUnavailableError):
            detect(rep)
        with pytest.raises(DetectionUnavailableError):
            correct(rep, samples, factors)

    def test_zero_data_flags_nothing(self, config):
        samples = SampledFunction.from_function(np.zeros_like, 0.0, 1.0, 160)
        assert detect(integrate(samples, config)).flagged == ()

    @pytest.mark.parametrize("kink,M,flagged", [(0.75, 200, (7,)), (0.75, 203, (7,))])
    def test_zero_majority_uses_nonzero_median(self, config, factors, kink, M, flagged):
        # max(x - kink, 0) has all-zero windows left of the kink; when they
        # are the majority, a median over every window is 0 and would flag
        # each smooth window right of the kink as well
        samples = SampledFunction.from_function(lambda x: np.maximum(x - kink, 0.0), 0, 1, M)
        rep = integrate(samples, config)
        assert detect(rep).flagged == flagged
        out = correct(rep, samples, factors)
        assert tuple(c.window_index for c in out.corrections) == flagged
        assert abs(out.value - (1 - kink) ** 2 / 2) <= 1e-15

    @pytest.mark.parametrize("kink", [0.85, 0.9, 0.95])
    def test_fewer_than_three_nonzero_windows_unavailable(self, config, factors, kink):
        # at M=200 window k spans [k/10, (k+1)/10]: only windows 8 and 9 (0.85)
        # or window 9 alone (0.9 smooth, 0.95 kinked) hold nonzero data, and a
        # median over one or two energies cannot single out a kink window
        samples = SampledFunction.from_function(lambda x: np.maximum(x - kink, 0.0), 0, 1, 200)
        rep = integrate(samples, config)
        assert np.count_nonzero(rep.etas) == (2 if kink < 0.9 else 1)
        with pytest.raises(DetectionUnavailableError):
            detect(rep)
        with pytest.raises(DetectionUnavailableError):
            correct(rep, samples, factors)


class TestLocalize:
    def test_aligned_kink_min_split_norms(self, config, factors):
        # kink sits on a sampling node: both candidate fits at the minimizing
        # split are clean while every other split has one inflated side
        _, samples, rep = _report("f7", {"xi": 0.3}, 160, config)
        loc = localize(samples, factors, detect(rep).flagged[0])
        i0 = loc.split_index
        assert loc.cl_norms[i0 - 1] <= 1e2
        assert loc.cr_norms[i0 - 1] <= 1e2
        for i in range(1, 20):
            if i != i0:
                assert max(loc.cl_norms[i - 1], loc.cr_norms[i - 1]) >= 1e6
        assert loc.global_cell == (47, 48)

    def test_misaligned_kink_keeps_one_contaminated_side(self, config, factors):
        _, samples, rep = _report("f8", {"zeta": 0.73}, 160, config)
        loc = localize(samples, factors, detect(rep).flagged[0])
        i0 = loc.split_index
        cl, cr = loc.cl_norms[i0 - 1], loc.cr_norms[i0 - 1]
        assert cr <= 1e2  # clean right branch
        assert cl >= 1e3 * cr  # left fit still straddles the kink
        assert loc.global_cell == (116, 117)

    @pytest.mark.parametrize(
        "fid,params,point",
        [
            ("f7", {"xi": 0.3}, 0.3),
            ("f7", {"xi": np.pi / 5}, np.pi / 5),
            ("f8", {"zeta": 0.6}, 0.6),
            ("f8", {"zeta": 0.73}, 0.73),
        ],
    )
    @pytest.mark.parametrize("M", [160, 320])
    def test_cell_brackets_true_kink(self, config, factors, fid, params, point, M):
        _, samples, rep = _report(fid, params, M, config)
        loc = localize(samples, factors, detect(rep).flagged[0])
        lo, hi = loc.global_cell
        assert lo <= point * M <= hi

    def test_kink_just_right_of_node_shifts_cell(self, config, factors):
        # at M=320 the f7 kink pi/5 sits 6% into its cell, so the minimizing
        # split has the clean fit on the left and the inflated one on the
        # right; the bracketing cell must follow the inflated side
        _, samples, rep = _report("f7", {"xi": np.pi / 5}, 320, config)
        loc = localize(samples, factors, detect(rep).flagged[0])
        i0 = loc.split_index
        assert loc.cr_norms[i0 - 1] > 1e2 * loc.cl_norms[i0 - 1]
        assert loc.global_cell == (201, 202)

    def test_candidates_solved_in_one_call(self, config, factors, monkeypatch):
        _, samples, rep = _report("f7", {"xi": 0.3}, 160, config)
        shapes = []

        def recorded(factors, samples, *args):
            shapes.append(np.shape(samples))
            return solve_coefficients(factors, samples, *args)

        monkeypatch.setattr("lfequad.correction.solve_coefficients", recorded)
        localize(samples, factors, detect(rep).flagged[0])
        assert shapes == [(2 * (config.m - 2), config.m)]

    def test_bad_window_index(self, config, factors):
        _, samples, rep = _report("f7", {"xi": 0.3}, 160, config)
        with pytest.raises(InvalidInputError):
            localize(samples, factors, 99)


class TestPredictEndpoint:
    def test_zero_samples_predict_zero(self, factors):
        assert predict_endpoint(factors, np.zeros(21, dtype=complex), 20) == 0.0

    @pytest.mark.parametrize("p", [0, 20])
    def test_plant_and_recover_in_span(self, factors, rng, p):
        decay = np.exp(-0.8 * np.abs(np.arange(-10, 11)))
        c = (rng.normal(size=21) + 1j * rng.normal(size=21)) * decay
        g = factors.matrix @ c
        true = g[p]
        g_masked = g.copy()
        g_masked[p] = 0.0
        alpha = predict_endpoint(factors, g_masked, p)
        assert abs(alpha - true.real) <= 1e-8 * abs(true)

    def test_recovers_smooth_branch_value(self, config, factors):
        # left branch of the kink function, window ending at the kink node
        branch = lambda x: 1 / (1 + x**2) + np.sin(5 * x)
        x = (28 + np.arange(21)) / 160.0
        g = branch(x).astype(complex)
        true = g[20].real
        g[20] = 0.0
        alpha = predict_endpoint(factors, g, 20)
        assert abs(alpha - true) / abs(true) <= 1e-6

    def test_degenerate_denominator(self, factors):
        u = factors.svd.u.copy()
        u[5, -1] = 0.0
        broken = replace(factors, svd=SvdFactors(u=u, sigma=factors.svd.sigma, v=factors.svd.v))
        with pytest.raises(PredictionFailedError):
            predict_endpoint(broken, np.ones(21, dtype=complex), 5)

    def test_contaminated_index_validated(self, factors):
        with pytest.raises(InvalidInputError):
            predict_endpoint(factors, np.ones(21, dtype=complex), 21)


def _linear_branches(factors, config, crossing):
    # two window fits whose difference is (numerically) linear, crossing at a
    # known point inside the cell (80, 81) of a 160-cell unit grid
    h = 1.0 / 160
    grid_nodes = np.arange(161) * h
    scale = (config.T / (2 * np.pi)) * 20 * h
    f_left = 1.0 + (grid_nodes - crossing)
    f_right = 1.0 - (grid_nodes - crossing)
    cl = solve_coefficients(factors, f_left[61:82].astype(complex))
    cr = solve_coefficients(factors, f_right[80:101].astype(complex))
    left = LocalExpansion(cl, scale, grid_nodes[61], factors.L)
    right = LocalExpansion(cr, scale, grid_nodes[80], factors.L)
    return left, right, (grid_nodes[80], grid_nodes[81])


def _bisection_without_stop(left, right, cell):
    # the bisection of estimate_xi before it stopped on an unmoving bracket,
    # kept as the reference its result must equal bit for bit
    lo, hi = cell

    def diff(x):
        return (evaluate_expansion(left, x) - evaluate_expansion(right, x)).real

    d_lo = diff(lo)
    a, b = lo, hi
    tol = 1e-14 * (hi - lo)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (a + b)
        d_mid = diff(mid)
        if d_mid == 0.0:
            return mid
        if np.sign(d_mid) == np.sign(d_lo):
            a = mid
        else:
            b = mid
        if b - a <= tol:
            break
    return 0.5 * (a + b)


class TestEstimateXi:
    def test_linear_crossing_at_cell_midpoint(self, factors, config):
        crossing = 0.5 + 0.5 / 160
        left, right, cell = _linear_branches(factors, config, crossing)
        xi, low_conf = estimate_xi(left, right, cell)
        assert not low_conf
        assert abs(xi - crossing) <= 1e-14

    @pytest.mark.parametrize("offset", [0.5, 0.25, 0.999])
    def test_bisection_stops_when_the_bracket_stops_moving(
        self, factors, config, monkeypatch, offset
    ):
        # a crossing well inside the cell: 1e-14 of the cell width is below
        # one ulp of x there, so the tolerance alone never stops bisection
        crossing = 0.5 + offset / 160
        left, right, cell = _linear_branches(factors, config, crossing)
        oracle = _bisection_without_stop(left, right, cell)
        evals = []

        def counted(expansion, x):
            evals.append(x)
            return evaluate_expansion(expansion, x)

        monkeypatch.setattr("lfequad.correction.evaluate_expansion", counted)
        xi, low_conf = estimate_xi(left, right, cell)
        assert not low_conf
        assert xi.hex() == oracle.hex()
        assert len(evals) < 2 * (2 + _BISECT_ITERS)

    def test_identical_branches_fall_back_to_scan(self, factors, config):
        left, _, cell = _linear_branches(factors, config, 0.5 + 0.5 / 160)
        xi, low_conf = estimate_xi(left, left, cell)
        assert low_conf
        assert cell[0] <= xi <= cell[1]

    def test_subgrid_accuracy_on_misaligned_kink(self, config, factors):
        _, samples, rep = _report("f7", {"xi": np.pi / 5}, 160, config)
        corrected = correct(rep, samples, factors)
        (result,) = corrected.corrections
        h = samples.grid.h
        assert abs(result.xi_hat - np.pi / 5) <= h / 100


class TestCorrect:
    def test_aligned_kink_restores_accuracy(self, config, factors):
        entry, samples, rep = _report("f7", {"xi": 0.3}, 160, config)
        uncorrected = abs(rep.value - entry.exact_integral)
        assert 1e-6 <= uncorrected <= 1e-2
        corrected = correct(rep, samples, factors)
        assert abs(corrected.value - entry.exact_integral) <= 1e-12

    def test_misaligned_kink_restores_accuracy(self, config, factors):
        entry, samples, rep = _report("f8", {"zeta": 0.73}, 160, config)
        corrected = correct(rep, samples, factors)
        assert abs(corrected.value - entry.exact_integral) <= 1e-12

    def test_correction_record_is_consistent(self, config, factors):
        _, samples, rep = _report("f8", {"zeta": 0.73}, 160, config)
        corrected = correct(rep, samples, factors)
        (c,) = corrected.corrections
        assert c.replaced_contribution == pytest.approx(
            c.left_integral + c.right_integral, rel=1e-15
        )
        lo, hi = c.localization.global_cell
        assert samples.grid.node(lo) <= c.xi_hat <= samples.grid.node(hi)
        # value = sum of contributions with the flagged one swapped out
        expected = sum(
            (c.replaced_contribution if k == c.window_index else w)
            for k, w in enumerate(corrected.contributions)
        )
        assert corrected.value == pytest.approx(expected, rel=1e-14)

    def test_branch_fits_share_one_solve(self, config, factors, monkeypatch):
        # localization solves its candidate stack, then both one-sided branch
        # windows go through a single (2, m) solve
        _, samples, rep = _report("f7", {"xi": 0.3}, 160, config)
        shapes = []

        def recorded(factors, samples, *args):
            shapes.append(np.shape(samples))
            return solve_coefficients(factors, samples, *args)

        monkeypatch.setattr("lfequad.correction.solve_coefficients", recorded)
        assert len(correct(rep, samples, factors).corrections) == 1
        assert shapes == [(2 * (config.m - 2), config.m), (2, config.m)]

    def test_smooth_report_passes_through_unchanged(self, config, factors):
        _, samples, rep = _report("f1", {}, 160, config)
        assert correct(rep, samples, factors) is rep

    def test_idempotent(self, config, factors):
        _, samples, rep = _report("f7", {"xi": np.pi / 5}, 160, config)
        once = correct(rep, samples, factors)
        twice = correct(once, samples, factors)
        assert twice.value == once.value
        assert len(twice.corrections) == len(once.corrections)
        assert twice.corrections[0].xi_hat == once.corrections[0].xi_hat

    def test_side_shifted_cell_still_corrects(self, config, factors):
        # the M=320 case where the bracketing cell moves one cell right
        entry, samples, rep = _report("f7", {"xi": np.pi / 5}, 320, config)
        corrected = correct(rep, samples, factors)
        assert abs(corrected.value - entry.exact_integral) <= 1e-12

    def test_repeated_calls_retain_no_memory(self, config, factors):
        # the window gathers must not go through numpy paths that keep
        # memory per call (as_strided via __array_interface__ in numpy 2.4)
        _, samples, rep = _report("f7", {"xi": 0.3}, 166, config)
        window = detect(rep).flagged[0]

        def run():
            integrate(samples, config)
            localize(samples, factors, window)

        for _ in range(20):
            run()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(500):
                run()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 500 * 8

    @pytest.mark.parametrize(
        "other", [WindowConfig(n=8, m=17), WindowConfig(epsilon=1e-13)], ids=["n-m", "epsilon"]
    )
    def test_factors_of_another_config_rejected(self, config, other):
        # refitting a flagged window with another fit mixes two quadratures
        # (n=8, m=17 on this report moves the error from 8e-6 to 6e-2)
        _, samples, rep = _report("f7", {"xi": 0.3}, 640, config)
        with pytest.raises(ConfigError) as exc:
            correct(rep, samples, build_reference(other))
        assert exc.value.category == "invalid-config"

    def test_prediction_failure_leaves_window_uncorrected(self, config, factors, monkeypatch):
        entry, samples, rep = _report("f7", {"xi": 0.3}, 160, config)

        def always_fails(*args, **kwargs):
            raise PredictionFailedError("forced failure")

        monkeypatch.setattr("lfequad.correction.predict_endpoint", always_fails)
        out = correct(rep, samples, factors)
        assert out.corrections == ()
        assert out.value == rep.value
        assert any("left uncorrected" in w for w in out.warnings)
