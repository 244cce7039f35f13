from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from lfequad import (
    LocalExpansion,
    SampledFunction,
    SvdFactors,
    WindowConfig,
    build_reference,
    evaluate_expansion,
    integrate,
    integrate_expansion,
    mode_weights,
    registry_lookup,
    solve_coefficients,
)
from lfequad.errors import ConfigError, DimensionMismatchError, InvalidInputError

LAM = np.pi / 3  # sampled reference interval for T=6


class TestWindowConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(T=1.0),
            dict(T=0.5),
            dict(epsilon=0.0),
            dict(epsilon=-1e-15),
            dict(n=10, m=20),
            dict(T=np.inf),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigError):
            WindowConfig(**kwargs)

    def test_defaults(self, config):
        assert (config.n, config.m, config.T, config.epsilon) == (10, 21, 6.0, 1e-15)
        assert config.L == 120.0


class TestBuildReference:
    def test_small_matrix_entries(self):
        cfg = WindowConfig(n=1, m=3, T=6.0)
        ref = build_reference(cfg)
        t = ref.nodes
        np.testing.assert_allclose(t, [0.0, np.pi / 6, np.pi / 3], atol=1e-15)
        # column order is l = -1, 0, 1; L = T*(m-1) = 12
        expected = np.exp(1j * np.pi / 3) / np.sqrt(12.0)
        assert ref.matrix[2, 2] == pytest.approx(expected, abs=1e-15)

    def test_default_matrix_is_severely_ill_conditioned(self, factors):
        s = factors.svd.sigma
        assert s[0] > 1e-1
        assert s[-1] < 1e-8

    def test_rebuild_is_bitwise_identical(self, config):
        a = build_reference(config)
        b = build_reference(WindowConfig())
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.svd.u, b.svd.u)
        assert np.array_equal(a.svd.sigma, b.svd.sigma)
        assert np.array_equal(a.svd.v, b.svd.v)

    def test_equal_configs_share_one_cached_factorization(self):
        assert build_reference(WindowConfig()) is build_reference(WindowConfig(T=6))

    def test_epsilon_variants_are_distinct_and_truncate_more(self, config, factors):
        loose = build_reference(replace(config, epsilon=1e-8))
        assert loose is not factors
        assert loose is build_reference(replace(config, epsilon=1e-8))
        assert loose.synthesis.shape[0] < factors.synthesis.shape[0]
        assert np.array_equal(loose.svd.sigma, factors.svd.sigma)

    # sigma_max * sqrt(L) is 10.95 at the default n, m, T
    @pytest.mark.parametrize("epsilon", [20.0, np.inf])
    def test_epsilon_keeping_no_direction_rejected(self, config, epsilon):
        with pytest.raises(ConfigError, match="keeps no singular direction"):
            build_reference(replace(config, epsilon=epsilon))
        samples = SampledFunction.from_function(np.cos, 0.0, 1.0, 100)
        with pytest.raises(ConfigError):
            integrate(samples, replace(config, epsilon=epsilon))


class TestModeWeights:
    def test_zero_mode_full_range(self, config):
        w = mode_weights(config, 0.0)
        assert w.weights[config.n] == pytest.approx(LAM, abs=1e-15)

    def test_first_mode_full_range(self, config):
        w = mode_weights(config, 0.0)
        expected = np.sqrt(3) / 2 + 0.5j  # (exp(i*pi/3) - 1) / i
        assert w.weights[config.n + 1] == pytest.approx(expected, abs=1e-15)

    def test_truncated_zero_mode(self, config):
        w = mode_weights(config, np.pi / 6)
        assert w.weights[config.n] == pytest.approx(np.pi / 6, abs=1e-15)

    def test_range_additivity(self, config):
        full = mode_weights(config, 0.0).weights
        first = mode_weights(config, 0.0, np.pi / 6).weights
        second = mode_weights(config, np.pi / 6).weights
        np.testing.assert_allclose(full, first + second, atol=1e-15)

    def test_conjugate_symmetry(self, config):
        w = mode_weights(config, 0.1).weights
        np.testing.assert_allclose(w, np.conj(w[::-1]), atol=1e-16)

    def test_out_of_range_rejected(self, config):
        with pytest.raises(InvalidInputError):
            mode_weights(config, -0.1)
        with pytest.raises(InvalidInputError):
            mode_weights(config, LAM)

    @pytest.mark.parametrize("t_lo,t_hi", [(0.0, LAM), (0.2, 0.9), (0.0, 0.3), (0.5, LAM)])
    def test_matches_adaptive_quadrature(self, config, t_lo, t_hi):
        w = mode_weights(config, t_lo, t_hi).weights
        for idx, ell in enumerate(config.modes):
            re, _ = quad(lambda t: np.cos(ell * t), t_lo, t_hi, epsabs=1e-15)
            im, _ = quad(lambda t: np.sin(ell * t), t_lo, t_hi, epsabs=1e-15)
            assert abs(w[idx] - (re + 1j * im)) <= 1e-13

    @given(t_mid=st.floats(min_value=1e-6, max_value=LAM - 1e-6))
    def test_additivity_any_interior_split(self, t_mid):
        cfg = WindowConfig()
        full = mode_weights(cfg, 0.0).weights
        a = mode_weights(cfg, 0.0, t_mid).weights
        b = mode_weights(cfg, t_mid).weights
        assert np.max(np.abs(full - (a + b))) <= 1e-15


class TestSolveCoefficients:
    def test_zero_samples_give_zero_coefficients(self, factors):
        c = solve_coefficients(factors, np.zeros(21))
        assert np.all(c == 0)

    def test_linearity(self, factors, rng):
        g1 = rng.normal(size=21)
        g2 = rng.normal(size=21)
        c1 = solve_coefficients(factors, g1)
        c2 = solve_coefficients(factors, g2)
        c12 = solve_coefficients(factors, g1 + g2)
        assert np.linalg.norm(c12 - (c1 + c2)) <= 1e-13 * np.linalg.norm(c12)

    def test_in_span_target_reconstructs_at_nodes(self, factors):
        g = np.cos(factors.nodes)
        c = solve_coefficients(factors, g)
        recon = factors.matrix @ c
        assert np.max(np.abs(recon - g)) <= 1e-12

    def test_wrong_length_rejected(self, factors):
        with pytest.raises(DimensionMismatchError):
            solve_coefficients(factors, np.zeros(20))

    def test_complex_samples_rejected(self, factors):
        with pytest.raises(InvalidInputError):
            solve_coefficients(factors, np.ones(21, dtype=complex))

    def test_nonfinite_rejected(self, factors):
        g = np.zeros(21)
        g[3] = np.inf
        with pytest.raises(InvalidInputError):
            solve_coefficients(factors, g)

    def test_regularization_monotonicity(self, config, factors, rng):
        g = rng.normal(size=21)
        loose_factors = build_reference(replace(config, epsilon=1e-8))
        loose = np.linalg.norm(solve_coefficients(loose_factors, g))
        tight = np.linalg.norm(solve_coefficients(factors, g))  # epsilon 1e-15
        assert tight >= loose

    @pytest.mark.parametrize("kind", [float])
    def test_stack_matches_row_by_row(self, factors, rng, kind):
        g = rng.normal(size=(7, 21)).astype(kind)
        stacked = solve_coefficients(factors, g)
        assert stacked.shape == (7, 21)
        for row, c in zip(g, stacked):
            single = solve_coefficients(factors, row)
            assert np.linalg.norm(c - single) <= 1e-14 * np.linalg.norm(single)

    def test_stack_shape_checked(self, factors):
        with pytest.raises(DimensionMismatchError):
            solve_coefficients(factors, np.zeros((3, 20)))
        with pytest.raises(DimensionMismatchError):
            solve_coefficients(factors, np.zeros((2, 3, 21)))

    # M mod 20 = 0, 6, 19; M = 30 and 41 put the tail window's weight range
    # at lam/2 and 19*lam/20 (one cell) of the reference interval
    @pytest.mark.parametrize("M", [200, 206, 219, 30, 41])
    def test_window_loop_matches_batched_contributions(self, config, factors, M):
        entry = registry_lookup("f1", {})
        samples = SampledFunction.from_function(entry.evaluator, *entry.domain, M)
        report = integrate(samples, config)
        grid = samples.grid
        scale = (config.T / (2 * np.pi)) * (config.m - 1) * grid.h
        loop = []
        for start, (lo, _) in zip(report.starts.tolist(), report.blocks.tolist()):
            c = solve_coefficients(factors, samples.values[start : start + config.m])
            t_lo = config.lam * (lo - start) / (config.m - 1)
            expansion = LocalExpansion(c, scale, grid.node(start), factors.L)
            loop.append(integrate_expansion(expansion, mode_weights(config, t_lo)).real)
        loop = np.array(loop)
        assert report.contributions.shape == loop.shape
        tol = 1e-14 * np.max(np.abs(loop))
        assert np.max(np.abs(report.contributions - loop)) <= tol
        assert abs(report.value - loop.sum()) <= 1e-14 * abs(report.value)

    @pytest.mark.parametrize("kind,epsilon", [(float, None), (float, 1e-8)])
    def test_folded_solve_matches_three_stage_oracle(self, config, factors, kind, epsilon):
        # oracle: project onto conj(U_k), divide by sigma_k, synthesize with
        # V_k^T, as three separate stages
        x = 0.1 + np.arange(201) * (1.4 / 200)
        g = (3 * x**2 - np.exp(-x) - 2 * np.sin(2 * x)).astype(kind)
        windows = g[np.arange(10)[:, None] * 20 + np.arange(21)]
        fit = factors if epsilon is None else build_reference(replace(config, epsilon=epsilon))
        f = fit.svd
        keep = f.sigma * np.sqrt(fit.L) > fit.config.epsilon
        y = windows @ f.u[:, keep].conj()
        y /= f.sigma[keep]
        oracle = y @ f.v[:, keep].T
        folded = solve_coefficients(fit, windows)
        w = mode_weights(config, 0.0).weights
        q_oracle, q_folded = oracle @ w, folded @ w
        assert np.max(np.abs(q_folded - q_oracle)) <= 1e-14 * np.max(np.abs(q_oracle))

    def test_operators_are_contiguous_and_folded(self, factors):
        projector, synthesis = factors.projector, factors.synthesis  # epsilon 1e-15
        f = factors.svd
        r = int(np.count_nonzero(f.sigma * np.sqrt(factors.L) > 1e-15))
        assert projector.shape == (21, 2 * r) and synthesis.shape == (r, 21)
        assert projector.dtype == float
        assert projector.flags.c_contiguous and synthesis.flags.c_contiguous
        assert np.array_equal(projector.view(complex), f.u[:, :r].conj() / f.sigma[:r])
        assert np.array_equal(synthesis, f.v[:, :r].T)

    def test_replaced_svd_is_solved_with(self, factors, rng):
        # halving sigma doubles every coefficient exactly, unless it moves
        # the truncation point, which this case checks it does not
        f = factors.svd
        g = rng.normal(size=(3, 21))
        before = solve_coefficients(factors, g)
        halved = replace(factors, svd=SvdFactors(u=f.u, sigma=f.sigma / 2, v=f.v))
        scaled = np.sqrt(factors.L)
        assert np.count_nonzero(f.sigma * scaled > 1e-15) == np.count_nonzero(
            f.sigma / 2 * scaled > 1e-15
        )
        assert np.array_equal(solve_coefficients(halved, g), 2 * before)
        assert np.array_equal(solve_coefficients(factors, g), before)


def _expansion_from_samples(factors, samples, origin=0.4, h=0.01):
    cfg = factors.config
    scale = (cfg.T / (2 * np.pi)) * (cfg.m - 1) * h
    c = solve_coefficients(factors, samples)
    return LocalExpansion(coefficients=c, scale=scale, origin=origin, L=factors.L)


class TestIntegrateExpansion:
    def test_constant_window_integrates_to_length(self, factors, config):
        h = 0.01
        exp = _expansion_from_samples(factors, np.ones(21), h=h)
        q = integrate_expansion(exp, mode_weights(config, 0.0))
        length = (config.m - 1) * h
        assert abs(q.real - length) <= 1e-13 * length

    def test_zero_coefficients_integrate_to_zero(self, factors, config):
        exp = LocalExpansion(np.zeros(21, dtype=complex), 0.1, 0.0, factors.L)
        assert integrate_expansion(exp, mode_weights(config, 0.0)) == 0

    @pytest.mark.parametrize("t_star", [0.05, 0.22, 0.5, 0.9])
    def test_splitting_additivity(self, factors, config, t_star):
        # engine-style data (a short physical window of a smooth function):
        # rough samples would drive the near-null coefficients to ~1e16 and
        # the weighted sums would lose relative accuracy to cancellation
        h = 0.01
        x = 0.4 + np.arange(21) * h
        g = 3 * x**2 - np.exp(-x) - 2 * np.sin(2 * x)
        exp = _expansion_from_samples(factors, g, origin=0.4, h=h)
        whole = integrate_expansion(exp, mode_weights(config, 0.0))
        left = integrate_expansion(exp, mode_weights(config, 0.0, t_star))
        right = integrate_expansion(exp, mode_weights(config, t_star))
        assert abs(whole - (left + right)) <= 1e-14 * max(abs(whole), 1.0)

    def test_dimension_mismatch(self, factors, config):
        exp = LocalExpansion(np.zeros(5, dtype=complex), 0.1, 0.0, factors.L)
        with pytest.raises(DimensionMismatchError):
            integrate_expansion(exp, mode_weights(config, 0.0))

    def test_cubic_polynomial_window(self, factors, config, rng):
        # solved expansion of a low-degree polynomial integrates near-exactly
        coef = rng.normal(size=4)
        h = 0.015
        origin = 0.3
        x = origin + np.arange(21) * h

        def p(t):
            return coef[0] + coef[1] * t + coef[2] * t**2 + coef[3] * t**3

        def P(t):
            return coef[0] * t + coef[1] * t**2 / 2 + coef[2] * t**3 / 3 + coef[3] * t**4 / 4

        exp = _expansion_from_samples(factors, p(x), origin=origin, h=h)
        q = integrate_expansion(exp, mode_weights(config, 0.0)).real
        exact = P(x[-1]) - P(origin)
        assert abs(q - exact) <= 1e-10 * abs(exact)

    def test_real_samples_leave_tiny_imaginary_part(self, factors, config):
        h = 0.012
        x = 0.7 + np.arange(21) * h
        g = np.cos(2 * x) + x**2
        exp = _expansion_from_samples(factors, g, origin=0.7, h=h)
        q = integrate_expansion(exp, mode_weights(config, 0.0))
        assert abs(q.imag) <= 1e-12 * (1.0 + abs(q.real))


class TestEvaluateExpansion:
    def test_zero_coefficients(self, factors):
        exp = LocalExpansion(np.zeros(21, dtype=complex), 0.1, 0.0, factors.L)
        assert evaluate_expansion(exp, 0.05) == 0

    def test_constant_mode(self, factors):
        c = np.zeros(21, dtype=complex)
        c[10] = np.sqrt(factors.L)
        exp = LocalExpansion(c, 0.1, 0.0, factors.L)
        for x in (0.0, 0.03, 0.11):
            assert evaluate_expansion(exp, x) == pytest.approx(1.0, abs=1e-14)

    def test_matches_naive_term_sum(self, factors, rng):
        c = rng.normal(size=21) + 1j * rng.normal(size=21)
        exp = LocalExpansion(c, 0.07, 0.2, factors.L)
        x = 0.233
        t = (x - exp.origin) / exp.scale
        naive = sum(
            c[k] * np.exp(1j * ell * t) for k, ell in enumerate(range(-10, 11))
        ) / np.sqrt(factors.L)
        assert abs(evaluate_expansion(exp, x) - naive) <= 1e-15 * abs(naive)

    def test_vectorized_evaluation(self, factors, rng):
        c = rng.normal(size=21) + 1j * rng.normal(size=21)
        exp = LocalExpansion(c, 0.07, 0.2, factors.L)
        xs = np.array([0.2, 0.21, 0.25])
        vals = evaluate_expansion(exp, xs)
        assert vals.shape == (3,)
        for x, v in zip(xs, vals):
            assert evaluate_expansion(exp, x) == pytest.approx(v, abs=1e-15)
