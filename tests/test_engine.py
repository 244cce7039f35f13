import numpy as np
import pytest
from hypothesis import given, strategies as st

from lfequad import (
    SampledFunction,
    UniformGrid,
    WindowConfig,
    build_reference,
    integrate,
    mode_weights,
    plan_windows,
    registry_lookup,
    solve_coefficients,
)
from lfequad.errors import ConfigError, GridError, InvalidInputError, NonFiniteResultError

F1 = lambda x: 3 * x**2 - np.exp(-x) - 2 * np.sin(2 * x)
F1_PRIM = lambda x: x**3 + np.exp(-x) + np.cos(2 * x)
F1_EXACT = F1_PRIM(1.5) - F1_PRIM(0.1)


class TestPlanWindows:
    def test_two_full_windows(self, config):
        plan = plan_windows(UniformGrid(0, 1, 40), config)
        kinds = [(w.start, w.kind) for w in plan.windows]
        assert kinds == [(0, "full"), (20, "full")]

    def test_single_window_exact_fit(self, config):
        plan = plan_windows(UniformGrid(0, 1, 20), config)
        assert [(w.start, w.kind) for w in plan.windows] == [(0, "full")]

    def test_tail_window_geometry(self, config):
        plan = plan_windows(UniformGrid(0, 1, 30), config)
        full, tail = plan.windows
        assert (full.start, full.kind, full.block) == (0, "full", (0, 20))
        assert (tail.start, tail.kind, tail.block) == (10, "tail", (20, 30))
        assert tail.t_lo == pytest.approx(np.pi / 6, abs=1e-15)

    def test_small_grid_plan(self, config):
        plan = plan_windows(UniformGrid(0, 1, 10), config)
        assert [(w.start, w.kind, w.block) for w in plan.windows] == [(0, "small", (0, 10))]

    def test_one_extra_cell_adds_tail(self, config):
        base = plan_windows(UniformGrid(0, 1, 40), config)
        plus = plan_windows(UniformGrid(0, 1, 41), config)
        assert len(plus.windows) == len(base.windows) + 1
        tail = plus.windows[-1]
        assert tail.kind == "tail"
        assert tail.t_lo == pytest.approx(config.lam * 19 / 20, abs=1e-15)
        assert tail.block == (40, 41)

    @given(M=st.integers(1, 500))
    def test_blocks_tile_grid_exactly(self, M):
        config = WindowConfig()
        plan = plan_windows(UniformGrid(0, 1, M), config)
        covered = 0
        prev_end = 0
        for w in plan.windows:
            lo, hi = w.block
            assert lo == prev_end  # contiguous, no gaps or overlaps
            assert hi > lo
            covered += hi - lo
            prev_end = hi
        assert covered == M

    @given(M=st.integers(21, 500))
    def test_windows_fit_inside_grid(self, M):
        config = WindowConfig()
        plan = plan_windows(UniformGrid(0, 1, M), config)
        for w in plan.windows:
            assert 0 <= w.start
            assert w.start + config.m - 1 <= M


class TestIntegrate:
    def test_constant(self, config):
        s = SampledFunction.from_function(lambda x: np.ones_like(x), 0, 1, 40)
        assert abs(integrate(s, config).value - 1.0) <= 1e-13

    def test_linear(self, config):
        s = SampledFunction.from_function(lambda x: x, 0, 2, 60)
        assert abs(integrate(s, config).value - 2.0) <= 1e-12

    def test_smooth_blend_small_grid(self, config):
        # M=14 has fewer nodes than a window: one window of the reduced reference
        s = SampledFunction.from_function(F1, 0.1, 1.5, 14)
        assert abs(integrate(s, config).value - F1_EXACT) <= 1e-11

    def test_block_additivity(self, config):
        whole = integrate(SampledFunction.from_function(F1, 0.1, 1.5, 40), config).value
        left = integrate(SampledFunction.from_function(F1, 0.1, 0.8, 20), config).value
        right = integrate(SampledFunction.from_function(F1, 0.8, 1.5, 20), config).value
        assert abs(whole - (left + right)) <= 1e-13 * abs(whole)

    def test_error_decays_to_plateau(self, config):
        errs = [
            abs(integrate(SampledFunction.from_function(F1, 0.1, 1.5, M), config).value - F1_EXACT)
            for M in (20, 40, 80)
        ]
        for a, b in zip(errs, errs[1:]):
            assert b <= a or b <= 1e-13  # monotone until the roundoff plateau

    def test_imag_residue_is_tiny(self, config):
        rep = integrate(SampledFunction.from_function(F1, 0.1, 1.5, 60), config)
        assert rep.imag_residue <= 1e-12 * (1 + abs(rep.value))

    def test_tail_window_grid(self, config):
        s = SampledFunction.from_function(F1, 0.1, 1.5, 30)
        assert abs(integrate(s, config).value - F1_EXACT) <= 1e-11

    def test_eta_is_coefficient_norm(self, config):
        rep = integrate(SampledFunction.from_function(F1, 0.1, 1.5, 40), config)
        for eta, c in zip(rep.etas, rep.coefficients):
            assert eta == pytest.approx(np.linalg.norm(c), rel=1e-15)

    def test_value_is_sum_of_contributions(self, config):
        rep = integrate(SampledFunction.from_function(F1, 0.1, 1.5, 70), config)
        assert rep.value == pytest.approx(rep.contributions.sum(), rel=1e-14)

    def test_scalars_are_python_floats(self, config):
        rep = integrate(SampledFunction.from_function(F1, 0.1, 1.5, 70), config)
        assert type(rep.value) is float
        assert type(rep.imag_residue) is float

    @pytest.mark.parametrize("M", [10, 20, 46, 60])
    def test_one_solve_per_call(self, config, monkeypatch, M):
        shapes = []

        def recorded(factors, samples, *args):
            shapes.append(np.shape(samples))
            return solve_coefficients(factors, samples, *args)

        monkeypatch.setattr("lfequad.engine.solve_coefficients", recorded)
        rep = integrate(SampledFunction.from_function(F1, 0.1, 1.5, M), config)
        assert shapes == [(rep.etas.size, min(M + 1, config.m))]

    @pytest.mark.parametrize("M", [10, 20, 46, 60, 79])
    def test_report_rows_follow_the_plan(self, config, M):
        rep = integrate(SampledFunction.from_function(F1, 0.1, 1.5, M), config)
        plan = plan_windows(UniformGrid(0.1, 1.5, M), config)
        assert rep.starts.tolist() == [w.start for w in plan.windows]
        assert [tuple(b) for b in rep.blocks.tolist()] == [w.block for w in plan.windows]
        nw = len(plan.windows)
        assert rep.coefficients.shape[0] == rep.etas.size == rep.contributions.size == nw

    @pytest.mark.parametrize("M", [12, 60, 79])
    def test_window_integrals_match_complex_products(self, config, M):
        # contributions and imag_residue keep their meaning: the real and
        # imaginary parts of scale * (c @ w) / sqrt(L), tail row included
        rep = integrate(SampledFunction.from_function(F1, 0.1, 1.5, M), config)
        sub = config if M + 1 >= config.m else WindowConfig(n=M // 2, m=M + 1)
        w = np.tile(mode_weights(sub, 0.0).weights, (rep.etas.size, 1))
        lo, start = int(rep.blocks[-1, 0]), int(rep.starts[-1])
        if lo > start:
            w[-1] = mode_weights(sub, sub.lam * (lo - start) / (sub.m - 1)).weights
        h = 1.4 / M
        shift = min(M, config.m - 1)
        scale = (sub.T / (2 * np.pi)) * shift * h
        q = scale * np.einsum("ij,ij->i", rep.coefficients, w) / np.sqrt(sub.L)
        tol = 1e-14 * np.max(np.abs(q.real))
        assert np.max(np.abs(rep.contributions - q.real)) <= tol
        assert abs(rep.imag_residue - abs(q.imag.sum())) <= tol

    @pytest.mark.parametrize("M", [14, 160])
    def test_overflowing_scale_raises(self, config, M):
        entry = registry_lookup("f7", {"xi": 0.3})
        s = SampledFunction.from_function(lambda x: 1e300 * entry.evaluator(x), 0, 1, M)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteResultError):
                integrate(s, config)

    def test_mismatched_factors_rejected(self, config):
        other = build_reference(WindowConfig(n=3, m=7))
        s = SampledFunction.from_function(F1, 0.1, 1.5, 40)
        with pytest.raises(ConfigError):
            integrate(s, config, factors=other)

    def test_nonfinite_values_rejected(self):
        grid = UniformGrid(0, 1, 30)
        vals = np.zeros(31)
        vals[4] = np.nan
        with pytest.raises(InvalidInputError):
            SampledFunction(grid, vals)

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInputError):
            SampledFunction(UniformGrid(0, 1, 30), np.zeros(30))


class TestIntegrateSmall:
    """integrate on grids with fewer nodes than a window."""

    def test_constant(self, config):
        s = SampledFunction.from_function(lambda x: np.ones_like(x), 0, 3, 10)
        assert abs(integrate(s, config).value - 3.0) <= 1e-12

    def test_square(self, config):
        s = SampledFunction.from_function(lambda x: x**2, 0, 1, 12)
        assert abs(integrate(s, config).value - 1 / 3) <= 1e-8

    def test_single_cell_unsupported(self, config):
        s = SampledFunction(UniformGrid(0, 1, 1), np.array([0.0, 1.0]))
        with pytest.raises(GridError):
            integrate(s, config)


class TestUniformGrid:
    def test_rejects_degenerate_interval(self):
        with pytest.raises(InvalidInputError):
            UniformGrid(1.0, 1.0, 10)

    def test_rejects_zero_cells(self):
        with pytest.raises(InvalidInputError):
            UniformGrid(0.0, 1.0, 0)

    def test_nodes(self):
        g = UniformGrid(0.5, 1.5, 4)
        np.testing.assert_allclose(g.nodes(), [0.5, 0.75, 1.0, 1.25, 1.5])
        assert g.node(2) == 1.0
