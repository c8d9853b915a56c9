"""Core estimator: tables, weighting, tuning, variance, and cross-fitting.

The eight-row fixture admits full hand computation (see conftest): at the
complete-case estimate theta_n = 3 the score tables are

    g_complete = ( 2.0,  1.0,  0.0, -3.0)
    g_masked   = ( 0.4,  1.2, -1.2, -0.4)
    g_imputed  = (-2.0, -3.6, -5.2, -6.8)

giving tuning components A = 16/15, C = 4/15, b = 4/15, tuned weight
lambda = 0.2 / (1 + 1e-8), and one-step estimate 3 + 4.4 * lambda.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy import stats

from ipinfer import estimators, imputers, losses, simgen
from ipinfer.errors import ConfigError, DataError
from ipinfer.estimators import (
    COMPLETE_CASE_HESSIAN,
    FULL_IPI_HESSIAN,
    ScoreTables,
    TuningWeights,
    bootstrap_variance,
    cipi_fit,
    confidence_interval,
    cross_fit,
    effective_sample_size,
    estimate_variance,
    fit_from_tables,
    full_ipi_hessian,
    ipi_fit,
    ipi_grad,
    ipi_point_estimate,
    resolve_weights,
    score_tables,
    split_train_inference,
    tune_lambda,
    tuning_components,
    zero_weights,
)
from ipinfer.diagnostics import apply_gradient_shift, t_full_test, t_ipi_test
from ipinfer.patterns import PatternedDataset, build_dataset, mask_matrix

from conftest import random_blockwise, three_pattern_tables
import oracles
from oracles import numeric_lambda_minimizer

nan = np.nan

G_COMPLETE = np.array([2.0, 1.0, 0.0, -3.0])
G_MASKED = np.array([0.4, 1.2, -1.2, -0.4])
G_IMPUTED = np.array([-2.0, -3.6, -5.2, -6.8])
LAMBDA_STAR = 0.2 / (1.0 + 1e-8)


def fixture_tables(fx):
    return score_tables(fx.dataset, fx.loss, fx.imputer, fx.theta_n)


def complete_case_tables(ds, loss, imputer):
    """Tables at the solved complete-case estimate, as ipi_fit builds them."""
    return score_tables(ds, loss, imputer, losses.solve_complete_case(ds, loss))


def solved_tables(fx):
    return complete_case_tables(fx.dataset, fx.loss, fx.imputer)


class TestScoreTables:
    def test_shapes_and_counts(self, eight_row):
        t = fixture_tables(eight_row)
        assert t.n_complete == 4
        assert t.n_patterns == 1
        assert t.param_dim == 1
        assert list(t.counts) == [4]
        assert t.g_complete.shape == (4, 1)
        assert t.g_masked.shape == (1, 4, 1)
        assert t.g_imputed.shape == (4, 1)
        assert list(t.pattern_imputed) == [0] * 4

    def test_hand_computed_gradients(self, eight_row):
        t = fixture_tables(eight_row)
        assert np.allclose(t.g_complete[:, 0], G_COMPLETE, atol=1e-9)
        assert np.allclose(t.g_masked[0][:, 0], G_MASKED, atol=1e-9)
        assert np.allclose(t.g_imputed[:, 0], G_IMPUTED, atol=1e-9)

    def test_mean_loss_hessians_are_identity(self, eight_row):
        t = fixture_tables(eight_row)
        assert np.array_equal(t.h_complete, [[1.0]])
        _, hessians = t.group_means  # complete, masked, then imputed rows
        assert np.array_equal(hessians[1], [[1.0]])
        assert np.array_equal(hessians[2], [[1.0]])


class TestWeights:
    def test_pooled_weights_scale_counts(self):
        matrix = random_blockwise(np.random.default_rng(0), 10, 4)
        matrix = np.vstack([matrix, matrix[-2:]])  # pattern 2 gets 6 rows
        ds = build_dataset(matrix, target_dims=(0, 1))
        model = imputers.fit(imputers.MEAN_KIND, ds.values)
        tables = score_tables(ds, losses.mean_loss(2), model, np.zeros(2))
        w, _ = resolve_weights(tables, "pooled")
        counts = ds.pattern_counts()[1:]
        assert np.allclose(w.lam, 2 * counts / counts.sum())
        assert w.mode == "pooled"

    def test_zero_weights(self):
        w = zero_weights(3)
        assert np.array_equal(w.lam, np.zeros(3))
        assert w.mode == "zero"

    def test_weights_are_read_only(self):
        w = TuningWeights(np.array([1.0]), "fixed")
        with pytest.raises(ValueError):
            w.lam[0] = 2.0

    def test_scalar_weight_broadcasts(self, eight_row):
        t = solved_tables(eight_row)
        est = ipi_point_estimate(t, 0.5)
        vec = ipi_point_estimate(t, np.array([0.5]))
        assert np.array_equal(est, vec)

    def test_wrong_length_or_nonfinite_rejected(self, eight_row):
        t = solved_tables(eight_row)
        with pytest.raises(ConfigError):
            ipi_point_estimate(t, [0.5, 0.5])
        with pytest.raises(ConfigError):
            ipi_point_estimate(t, [np.inf])


class TestPointEstimate:
    def test_zero_weights_reduce_to_complete_case(self, eight_row):
        est = ipi_point_estimate(solved_tables(eight_row), 0.0)
        assert abs(est[0] - 3.0) < 1e-12

    def test_one_step_is_linear_in_lambda(self, eight_row):
        # theta(lambda) = 3 + 4.4 * lambda for the fixture
        t = solved_tables(eight_row)
        for lam in (0.2, 0.5, 1.0):
            est = ipi_point_estimate(t, lam)
            assert est[0] == pytest.approx(3.0 + 4.4 * lam, abs=1e-8)

    def test_semi_supervised_identity_rule_is_exact(self, semi_supervised):
        est = ipi_point_estimate(solved_tables(semi_supervised), 1.0)
        assert est[0] == 6.0

    def test_gradient_matches_weighted_formula(self, eight_row):
        t = fixture_tables(eight_row)
        g = ipi_grad(t, [0.5])
        expected = G_COMPLETE.mean() + 0.5 * (G_IMPUTED.mean() - G_MASKED.mean())
        assert g[0] == pytest.approx(expected, abs=1e-9)

    def test_precomputed_tables_give_identical_fit(self, eight_row):
        t = fixture_tables(eight_row)
        direct = ipi_fit(eight_row.dataset, eight_row.loss, eight_row.imputer)
        reused = fit_from_tables(t)
        assert np.array_equal(direct.theta_hat, reused.theta_hat)
        assert np.array_equal(direct.se, reused.se)
        assert np.array_equal(direct.ci, reused.ci)


class TestMaskingCancellation:
    def test_all_observed_duplicate_pattern_contributes_nothing(self):
        # Rows of an all-observed "pattern" replicate the complete rows, so
        # masked and imputed tables coincide with the complete table and the
        # correction cancels bit-exactly at any weight.
        complete = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 4.0], [6.0, 3.0]])
        values = np.vstack([complete, complete])
        ids = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        masks = np.ones((2, 2), dtype=bool)
        ds = PatternedDataset(values, ids, masks, target_dims=(0,))
        loss = losses.mean_loss(1)
        model = imputers.fit(imputers.MEAN_KIND, complete)
        tables = score_tables(ds, loss, model, np.array([3.0]))
        assert np.array_equal(tables.g_masked[0], tables.g_complete)
        assert np.array_equal(tables.g_imputed, tables.g_complete)
        for lam in (0.3, 0.7, 1.0):
            est = ipi_point_estimate(tables, lam)
            base = ipi_point_estimate(tables, 0.0)
            assert np.array_equal(est, base)


class TestTuning:
    def test_components_match_hand_values(self, eight_row):
        t = fixture_tables(eight_row)
        comp = tuning_components(t)
        assert comp.a[0, 0] == pytest.approx(16 / 15, abs=1e-9)
        assert comp.c[0, 0] == pytest.approx(4 / 15, abs=1e-9)
        assert comp.b[0] == pytest.approx(4 / 15, abs=1e-9)

    def test_closed_form_solution_frozen(self, eight_row):
        w, comp = tune_lambda(fixture_tables(eight_row))
        assert w.mode == "tuned"
        assert not w.fallback
        assert w.lam[0] == pytest.approx(LAMBDA_STAR, abs=1e-12)
        assert comp is not None

    def test_tuned_weight_beats_zero_and_pooled(self, eight_row):
        t = fixture_tables(eight_row)
        w, comp = tune_lambda(t)
        pooled, _ = resolve_weights(t, "pooled")
        assert comp.objective(w.lam) <= comp.objective(np.zeros(1)) + 1e-12
        assert comp.objective(w.lam) <= comp.objective(pooled.lam) + 1e-12

    def test_matches_numeric_minimizer_of_plugin_variance(self, rng):
        matrix = random_blockwise(rng, n_complete=40, per_pattern=16)
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.mean_loss(2)
        train = random_blockwise(rng, n_complete=30, per_pattern=10)
        model = imputers.fit(imputers.GAUSSIAN_KIND, train)
        theta_n = losses.solve_complete_case(ds, loss)
        tables = score_tables(ds, loss, model, theta_n)
        w, _ = tune_lambda(tables)

        g_x = tables.g_complete
        n = tables.n_complete
        big_r = tables.n_patterns

        def plug_in_trace(lam):
            resid = g_x - sum(
                lam[r] / big_r * tables.g_masked[r] for r in range(big_r)
            )
            v = np.cov(resid, rowvar=False, ddof=1)
            for r in range(big_r):
                n_r = int(tables.counts[r])
                v = v + (lam[r] / big_r) ** 2 * (n / n_r) * np.cov(
                    tables.g_imputed[tables.pattern_imputed == r], rowvar=False, ddof=1
                )
            return float(np.trace(np.atleast_2d(v)))

        best = numeric_lambda_minimizer(plug_in_trace, np.zeros(big_r))
        assert np.allclose(w.lam, best, atol=1e-6)

    def test_degenerate_components_fall_back_to_pooled(self):
        # A constant-fill imputer makes every tuning component vanish, so
        # the ridge system is 0 = 0 and the solver must fall back.
        matrix = np.array(
            [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [4.0, 1.0],
             [nan, 1.0], [nan, 1.0]]
        )
        ds = build_dataset(matrix, target_dims=(0,))
        loss = losses.mean_loss(1)
        model = imputers.fit(imputers.ZERO_KIND, np.zeros((2, 2)))
        tables = complete_case_tables(ds, loss, model)
        w, _ = tune_lambda(tables)
        assert w.fallback
        assert np.allclose(w.lam, resolve_weights(tables, "pooled")[0].lam)

    def test_single_row_group_rejected(self):
        matrix = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 1.0], [nan, 4.0]])
        ds = build_dataset(matrix, target_dims=(0,))
        loss = losses.mean_loss(1)
        model = imputers.fit(imputers.MEAN_KIND, matrix)
        tables = complete_case_tables(ds, loss, model)
        with pytest.raises(DataError, match="2 rows"):
            tune_lambda(tables)

    def test_coordinate_objective_accepts_index(self, eight_row):
        t = solved_tables(eight_row)
        w_trace, _ = tune_lambda(t, objective="trace")
        w_coord, _ = tune_lambda(t, objective=0)
        assert np.allclose(w_trace.lam, w_coord.lam, atol=1e-15)
        with pytest.raises(ConfigError):
            tune_lambda(t, objective=5)

    @pytest.mark.parametrize("objective", ["1", 0.9, True, 1.0, 3, -1])
    def test_objective_is_trace_or_an_int_coordinate(self, rng, objective):
        # p = 3; "1", 0.9 and True once tuned a coordinate through int(),
        # where the CLI refuses all three.  The message is the CLI's too.
        matrix = random_blockwise(rng)
        dataset = build_dataset(matrix, target_dims=(0, 1, 2))
        loss = losses.mean_loss(3)
        model = imputers.fit(imputers.GAUSSIAN_KIND, random_blockwise(rng))
        tables = score_tables(
            dataset, loss, model, losses.solve_complete_case(dataset, loss)
        )
        message = f"field 'objective' must be in [0, 3) for this loss, got {objective!r}"
        for fit in (tune_lambda, fit_from_tables):
            fit(tables, objective=2)
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                fit(tables, objective=objective)


class TestVariance:
    def test_matches_independent_covariance(self, rng):
        # R = 3, p = 2, unequal weights and a non-identity Hessian: the
        # sandwich from score_cov equals np.cov of the lambda-corrected
        # complete-row scores plus the imputed terms.
        tables = three_pattern_tables(rng)
        lam = np.array([0.3, 1.1, -0.4])
        big_r, n = 3, tables.n_complete
        resid = tables.g_complete - sum(
            lam[r] / big_r * tables.g_masked[r] for r in range(big_r)
        )
        middle = np.cov(resid, rowvar=False, ddof=1)
        for r in range(big_r):
            middle += (lam[r] / big_r) ** 2 * (n / tables.counts[r]) * np.cov(
                tables.g_imputed[tables.pattern_imputed == r], rowvar=False, ddof=1
            )
        hinv = np.linalg.inv(tables.h_complete)
        assert not np.allclose(tables.h_complete, np.eye(2))
        assert np.allclose(
            estimate_variance(tables, lam), hinv @ middle @ hinv, rtol=1e-12, atol=0
        )

    def test_plug_in_matches_hand_formula(self, eight_row):
        lam = np.array([0.2])
        v = estimate_variance(fixture_tables(eight_row), lam)
        resid = G_COMPLETE - 0.2 * G_MASKED
        expected = np.var(resid, ddof=1) + 0.2**2 * (4 / 4) * np.var(
            G_IMPUTED, ddof=1
        )
        assert v[0, 0] == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(13.36 / 3, abs=1e-9)

    def test_zero_lambda_variance_is_complete_case(self, eight_row):
        v = estimate_variance(fixture_tables(eight_row), np.array([0.0]))
        assert v[0, 0] == pytest.approx(np.var(G_COMPLETE, ddof=1), rel=1e-12)

    def test_confidence_interval_scaling(self):
        se, ci, radius = confidence_interval(
            np.array([1.0]), np.array([[4.0]]), n=4, alpha=0.1
        )
        z = stats.norm.ppf(0.95)
        assert se[0] == pytest.approx(1.0, abs=1e-15)
        assert ci[0, 0] == pytest.approx(1.0 - z)
        assert ci[0, 1] == pytest.approx(1.0 + z)
        assert radius == pytest.approx(stats.chi2.ppf(0.9, 1) / 4)

    def test_confidence_interval_validation(self):
        with pytest.raises(ConfigError):
            confidence_interval(np.zeros(1), np.eye(1), 4, alpha=1.5)
        # 1 - alpha/2 rounds to 1, so the normal quantile is infinite
        with pytest.raises(ConfigError, match="too small"):
            confidence_interval(np.zeros(1), np.eye(1), 4, alpha=1e-20)
        with pytest.raises(DataError):
            confidence_interval(np.zeros(1), np.eye(1), 0, alpha=0.1)

    def test_effective_sample_size_formula(self):
        out = effective_sample_size(np.array([2.0]), np.array([1.0]), 10)
        assert out[0] == pytest.approx(40.0)
        with pytest.raises(DataError):
            effective_sample_size(np.array([0.0]), np.array([1.0]), 10)


class TestFitBundle:
    def test_frozen_fixture_numbers(self, eight_row):
        fit = ipi_fit(eight_row.dataset, eight_row.loss, eight_row.imputer)
        assert fit.method == "ipi"
        assert fit.estimand == "population"
        assert fit.hessian_mode == COMPLETE_CASE_HESSIAN
        assert fit.weights.lam[0] == pytest.approx(LAMBDA_STAR, abs=1e-12)
        assert fit.theta_hat[0] == pytest.approx(3.8799999912, abs=1e-9)
        assert fit.se[0] == pytest.approx(1.055146119422961, abs=1e-12)
        assert fit.ci[0, 0] == pytest.approx(2.1444390697033713, abs=1e-10)
        assert fit.ci[0, 1] == pytest.approx(5.615560912696629, abs=1e-10)
        assert fit.n_effective[0] == pytest.approx(4.191616766467066, abs=1e-9)
        assert np.array_equal(fit.theta_complete, [3.0])
        assert fit.n_scale == 4
        assert fit.warnings == ()

    def test_hotdeck_fitted_on_the_rows_it_fills_warns(self):
        # One headline dataset.  A hotdeck fitted on the rows it fills
        # refills each masked complete row with that row itself, so the
        # correction looks free and n_effective runs far past the row count.
        # The CLI cannot build such a fit; ipi_fit takes any model.
        rng = np.random.default_rng(0)
        config = simgen.ExperimentConfig()
        matrix = simgen.build_population(config.factor).sample(rng, config.n_total())
        loss, dims = config.make_loss()
        dataset = simgen.gen_mcar_missingness(matrix, config.missingness(), dims, rng)
        model = imputers.fit(imputers.HOTDECK_KIND, dataset.values)
        fit = ipi_fit(dataset, loss, model)
        assert max(fit.n_effective) > dataset.n_rows == 2200
        j = int(np.argmax(fit.n_effective))
        assert fit.warnings[-1] == (
            f"n_effective[{j}] = {fit.n_effective[j]:.0f} exceeds the 2200 "
            "rows of the data; was the imputer trained on the rows it fills?"
        )

    def test_width_property(self, eight_row):
        fit = ipi_fit(eight_row.dataset, eight_row.loss, eight_row.imputer)
        assert np.allclose(fit.width, fit.ci[:, 1] - fit.ci[:, 0])

    def test_zero_mode_matches_fixed_zero(self, eight_row):
        a = ipi_fit(
            eight_row.dataset, eight_row.loss, eight_row.imputer,
            weights="zero",
        )
        b = ipi_fit(
            eight_row.dataset, eight_row.loss, eight_row.imputer, weights=[0.0]
        )
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.se, b.se)

    def test_fixed_mode_requires_weights(self, eight_row):
        # "fixed" labels weights given as values; as a string it is no mode
        with pytest.raises(ConfigError, match="unknown weight mode 'fixed'.*themselves"):
            ipi_fit(
                eight_row.dataset, eight_row.loss, eight_row.imputer,
                weights="fixed",
            )

    def test_unknown_mode_rejected(self, eight_row):
        with pytest.raises(ConfigError, match="unknown weight mode 'auto'"):
            ipi_fit(
                eight_row.dataset, eight_row.loss, eight_row.imputer,
                weights="auto",
            )

    def test_mcar_flag_controls_estimand_and_hessian(self, eight_row):
        fit = ipi_fit(
            eight_row.dataset, eight_row.loss, eight_row.imputer, mcar=False
        )
        assert fit.estimand == "subpopulation"
        assert fit.hessian_mode == FULL_IPI_HESSIAN

    def test_tuning_objective_and_hessian_options_match_table_fit(self, rng):
        # ipi_fit's objective and mcar give what fit_from_tables gives on the
        # same tables; mcar=False steps with the full objective Hessian, and
        # ipi_point_estimate with the complete-case one, as mcar=True does.
        matrix = random_blockwise(rng, n_complete=40, per_pattern=20)
        model = imputers.fit(imputers.GAUSSIAN_KIND, random_blockwise(rng))
        loss, dims = losses.loss_for_columns(
            losses.LINEAR, response=0, covariates=(1, 2), intercept=True
        )
        ds = build_dataset(matrix, dims)
        fit = ipi_fit(ds, loss, model, objective=0, mcar=False)
        tables = complete_case_tables(ds, loss, model)
        reference = fit_from_tables(tables, objective=0, mcar=False)
        for field in ("theta_hat", "se", "ci", "variance", "hessian", "n_effective"):
            assert np.array_equal(getattr(fit, field), getattr(reference, field)), field
        assert np.array_equal(fit.weights.lam, reference.weights.lam)
        assert fit.hessian_mode == FULL_IPI_HESSIAN
        full = full_ipi_hessian(tables, fit.weights)
        point = estimators.one_step(tables.theta, full, ipi_grad(tables, fit.weights))
        assert np.array_equal(point, fit.theta_hat)
        default = fit_from_tables(tables)
        assert default.hessian_mode == COMPLETE_CASE_HESSIAN
        assert np.array_equal(ipi_point_estimate(tables, default.weights), default.theta_hat)
        # both options change the fit
        assert not np.array_equal(fit.weights.lam, default.weights.lam)
        assert not np.array_equal(fit.hessian, default.hessian)

    def test_full_hessian_evaluated_once_per_fit(self, eight_row, monkeypatch):
        calls = []

        def counting(tables, lam):
            calls.append(1)
            return full_ipi_hessian(tables, lam)

        monkeypatch.setattr(estimators, "full_ipi_hessian", counting)
        tables = solved_tables(eight_row)
        fit = fit_from_tables(tables, mcar=False)
        assert len(calls) == 1
        assert np.array_equal(fit.hessian, full_ipi_hessian(tables, fit.weights))

    def test_group_means_computed_once_per_tables(self, rng, monkeypatch):
        # The fold-averaged group means are cached on the frozen tables: a
        # full-Hessian fit and both diagnostics share one computation, and
        # shifted tables (a new object) compute their own.
        matrix = random_blockwise(rng, n_complete=30, per_pattern=15)
        ds = build_dataset(matrix, target_dims=(0, 1))
        folded = cross_fit(ds, 3, imputers.MEAN_KIND, seed=4)
        tables = score_tables(ds, losses.mean_loss(2), folded, np.zeros(2))
        cached = vars(ScoreTables)["group_means"]
        compute = cached.func
        fresh = compute(tables)
        calls = []

        def counting(t):
            calls.append(1)
            return compute(t)

        monkeypatch.setattr(cached, "func", counting)
        fit = fit_from_tables(tables, mcar=False)
        t_ipi_test(tables, fit.weights)
        t_full_test(tables)
        assert len(calls) == 1
        for means, expected in zip(tables.group_means, fresh):
            assert np.array_equal(means, expected)
            assert not means.flags.writeable
        t_ipi_test(apply_gradient_shift(tables, 0.5))
        assert len(calls) == 2
        with pytest.raises(FrozenInstanceError):
            tables.g_complete = tables.g_complete + 1.0

    def test_score_covariances_computed_once_per_tables(self, rng, monkeypatch):
        # The variance, the tuning and both diagnostics read one cached
        # score_cov: 1 + R sample covariances per tables object.
        tables = three_pattern_tables(rng)
        calls = []
        compute = estimators.sample_cov

        def counting(rows):
            calls.append(rows.shape)
            return compute(rows)

        monkeypatch.setattr(estimators, "sample_cov", counting)
        fit = fit_from_tables(tables, mcar=False)
        t_ipi_test(tables)
        t_ipi_test(tables, fit.weights)
        t_full_test(tables)
        assert len(calls) == 1 + tables.n_patterns
        assert calls[0] == (tables.n_complete, 2 * (1 + tables.n_patterns))
        joint, imputed = tables.score_cov
        assert joint.shape == (8, 8) and imputed.shape == (3, 2, 2)
        assert not joint.flags.writeable and not imputed.flags.writeable

    def test_hessian_helpers_agree_with_tables(self, eight_row):
        t = fixture_tables(eight_row)
        complete = eight_row.dataset.complete_values()[:, [0]]
        h_cc = losses.mean_hessian(eight_row.loss, complete, eight_row.theta_n)
        assert np.array_equal(h_cc, t.h_complete)
        h_full = full_ipi_hessian(t, np.array([0.5]))
        assert h_full.shape == (1, 1)

    def test_permutation_invariance_with_fixed_imputer(self, rng):
        matrix = random_blockwise(rng, n_complete=25, per_pattern=10)
        train = random_blockwise(rng, n_complete=20, per_pattern=8)
        model = imputers.fit(imputers.GAUSSIAN_KIND, train)
        loss = losses.mean_loss(2)
        perm = rng.permutation(matrix.shape[0])
        a = ipi_fit(build_dataset(matrix, (0, 1)), loss, model, weights=[0.5, 0.5])
        b = ipi_fit(build_dataset(matrix[perm], (0, 1)), loss, model, weights=[0.5, 0.5])
        assert np.allclose(a.theta_hat, b.theta_hat, rtol=1e-12)
        assert np.allclose(a.se, b.se, rtol=1e-12)


class TestSplit:
    def test_sizes_and_determinism(self, rng):
        matrix = random_blockwise(rng, n_complete=20, per_pattern=10)
        ds = build_dataset(matrix, target_dims=(0,))
        train_a, infer_a = split_train_inference(ds, 0.25, seed=11)
        train_b, infer_b = split_train_inference(ds, 0.25, seed=11)
        assert train_a.shape == (10, 4)
        assert infer_a.n_rows == 30
        assert np.array_equal(train_a, train_b, equal_nan=True)
        assert np.array_equal(infer_a.values, infer_b.values, equal_nan=True)

    def test_zero_fraction_returns_dataset_unchanged(self, eight_row):
        train, infer = split_train_inference(eight_row.dataset, 0.0, seed=0)
        assert train.shape == (0, 2)
        assert infer is eight_row.dataset

    def test_bad_fraction_rejected(self, eight_row):
        for frac in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                split_train_inference(eight_row.dataset, frac, seed=0)


class TestCrossFit:
    def blockwise(self, rng):
        matrix = random_blockwise(rng, n_complete=16, per_pattern=8)
        return build_dataset(matrix, target_dims=(0, 1))

    def test_folds_cover_every_pattern(self, rng):
        ds = self.blockwise(rng)
        folded = cross_fit(ds, 4, imputers.MEAN_KIND, seed=3)
        assert folded.k_folds == 4
        assert len(folded.models) == 4
        for pid in range(ds.n_patterns + 1):
            fold_counts = np.bincount(folded.fold_ids[ds.rows_of(pid)], minlength=4)
            assert (fold_counts > 0).all()

    def test_impossible_coverage_rejected(self):
        matrix = np.array(
            [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [nan, 4.0], [nan, 5.0], [5.0, nan]]
        )
        ds = build_dataset(matrix, target_dims=(0, 1))
        with pytest.raises(DataError, match="covering every pattern"):
            cross_fit(ds, 2, imputers.MEAN_KIND, seed=0)

    def test_k_bounds_enforced(self, rng):
        ds = self.blockwise(rng)
        with pytest.raises(ConfigError):
            cross_fit(ds, 1, imputers.MEAN_KIND, seed=0)
        with pytest.raises(ConfigError):
            cross_fit(ds, ds.n_rows + 1, imputers.MEAN_KIND, seed=0)

    def test_factory_callable_accepted(self, rng):
        ds = self.blockwise(rng)
        calls = []

        def factory(matrix):
            calls.append(matrix.shape)
            return imputers.fit(imputers.MEAN_KIND, matrix)

        folded = cross_fit(ds, 2, factory, seed=5)
        assert len(calls) == 2
        assert folded.models[0].kind == imputers.MEAN_KIND

    def test_cross_fitted_zero_weights_reduce_to_complete_case(self, rng):
        ds = self.blockwise(rng)
        folded = cross_fit(ds, 4, imputers.MEAN_KIND, seed=1)
        theta_n = losses.solve_complete_case(ds, losses.mean_loss(2))
        tables = score_tables(ds, losses.mean_loss(2), folded, theta_n)
        est = ipi_point_estimate(tables, 0.0)
        assert np.allclose(est, theta_n, atol=1e-12)


class TestFoldedTables:
    """Cross-fitted tables: K fold models, each filling its own fold's rows."""

    def regression(self, rng):
        matrix = random_blockwise(rng, n_complete=30, per_pattern=15)
        loss, dims = losses.loss_for_columns(losses.LINEAR, response=0, covariates=(1, 2))
        return build_dataset(matrix, target_dims=dims), loss

    def test_matches_mean_of_per_fold_objectives(self, rng):
        ds, loss = self.regression(rng)
        folded = cross_fit(ds, 3, imputers.CHAINED_KIND, seed=6)
        theta = losses.solve_complete_case(ds, loss)
        lam = np.array([0.6, 1.3])
        tables = score_tables(ds, loss, folded, theta)

        tdims = list(ds.target_dims)
        complete = ds.values[ds.rows_of(0)]
        complete_folds = folded.fold_ids[ds.rows_of(0)]
        grads, hessians = [], []
        for j, model in enumerate(folded.models):
            mine = complete[complete_folds == j]
            g = losses.grad_matrix(loss, mine[:, tdims], theta).mean(axis=0)
            h = losses.mean_hessian(loss, mine[:, tdims], theta)
            for r in range(1, ds.n_patterns + 1):
                masked = model.fill(mask_matrix(mine, ds.masks[r]))[:, tdims]
                rows_r = ds.rows_of(r)
                own_rows = rows_r[folded.fold_ids[rows_r] == j]
                own = model.fill(ds.values[own_rows])[:, tdims]
                w = lam[r - 1] / ds.n_patterns
                g = g + w * (
                    losses.grad_matrix(loss, own, theta).mean(axis=0)
                    - losses.grad_matrix(loss, masked, theta).mean(axis=0)
                )
                h = h + w * (
                    losses.mean_hessian(loss, own, theta)
                    - losses.mean_hessian(loss, masked, theta)
                )
            grads.append(g)
            hessians.append(h)

        grad = ipi_grad(tables, lam)
        hess = full_ipi_hessian(tables, lam)
        assert np.allclose(grad, np.mean(grads, axis=0), rtol=1e-10, atol=1e-12)
        assert np.allclose(hess, np.mean(hessians, axis=0), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k_folds", [1, 3])
    def test_gradient_shift_is_weighted_gap_sum(self, rng, k_folds):
        ds, loss = self.regression(rng)
        if k_folds == 1:
            imputer = imputers.fit(imputers.CHAINED_KIND, ds.values)
        else:
            imputer = cross_fit(ds, k_folds, imputers.CHAINED_KIND, seed=8)
        theta = losses.solve_complete_case(ds, loss)
        tables = score_tables(ds, loss, imputer, theta)
        lam = np.array([0.7, -0.4])
        shift = ipi_grad(tables, lam) - ipi_grad(tables, np.zeros(2))
        gaps = t_ipi_test(tables, lam).gaps
        expected = (lam[:, None] * gaps).sum(axis=0) / ds.n_patterns
        assert np.allclose(shift, expected, rtol=1e-10, atol=1e-13)


@pytest.fixture
def fill_calls(monkeypatch):
    """Row counts of the ImputationModel.fill calls made during a test."""
    calls = []
    fill = imputers.ImputationModel.fill

    def counting(self, values):
        calls.append(np.atleast_2d(values).shape[0])
        return fill(self, values)

    monkeypatch.setattr(imputers.ImputationModel, "fill", counting)
    return calls


class TestFillCalls:
    """Each model fills every row it scores in one call: the R masked
    copies of its complete rows and its own incomplete rows."""

    def dataset(self, rng):
        matrix = random_blockwise(rng, n_complete=16, per_pattern=8)
        return build_dataset(matrix, target_dims=(0, 1))

    def test_single_model_fills_once(self, rng, fill_calls):
        ds = self.dataset(rng)
        model = imputers.fit(imputers.MEAN_KIND, ds.values)
        score_tables(ds, losses.mean_loss(2), model, np.zeros(2))
        n_incomplete = ds.n_rows - ds.n_complete
        assert fill_calls == [ds.n_complete * ds.n_patterns + n_incomplete]

    def test_cross_fitted_tables_fill_once_per_fold(self, rng, fill_calls):
        ds = self.dataset(rng)
        folded = cross_fit(ds, 3, imputers.MEAN_KIND, seed=2)
        score_tables(ds, losses.mean_loss(2), folded, np.zeros(2))
        assert len(fill_calls) == 3
        n_incomplete = ds.n_rows - ds.n_complete
        assert sum(fill_calls) == ds.n_complete * ds.n_patterns + n_incomplete

    def test_cipi_fit_fills_once_per_model(self, rng, fill_calls):
        ds = self.dataset(rng)
        cipi_fit(ds, losses.mean_loss(2), imputers.MEAN_KIND, k_folds=3, n_boot=6, seed=1)
        assert len(fill_calls) == 3 + 6


class TestBootstrapVariance:
    def test_deterministic_fills_match_plugin_variance(self, rng):
        # A zero imputer ignores its training sample, so every bootstrap
        # model fills identically and the averaged-fill variance must equal
        # the plug-in variance at the same weights.
        matrix = random_blockwise(rng, n_complete=20, per_pattern=8)
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.mean_loss(2)
        theta_n = losses.solve_complete_case(ds, loss)
        lam = np.array([0.4, 0.8])
        boot = bootstrap_variance(
            ds, loss, theta_n, lam, k_folds=5, n_boot=8,
            imputer=imputers.ZERO_KIND, seed=2,
        )
        model = imputers.fit(imputers.ZERO_KIND, matrix)
        plug = estimate_variance(score_tables(ds, loss, model, theta_n), lam)
        assert np.allclose(boot, plug, rtol=1e-12)

    def test_seed_determinism(self, rng):
        matrix = random_blockwise(rng, n_complete=20, per_pattern=8)
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.mean_loss(2)
        theta_n = losses.solve_complete_case(ds, loss)
        args = (ds, loss, theta_n, np.array([0.5, 0.5]), 5, 6, imputers.MEAN_KIND)
        a = bootstrap_variance(*args, seed=7)
        b = bootstrap_variance(*args, seed=7)
        assert np.array_equal(a, b)

    def test_attempts_count_redraws(self, rng, monkeypatch):
        # With no redraws allowed, first draws that already leave every row
        # out of some model's sample pass, and draws that do not are refused.
        matrix = random_blockwise(rng, n_complete=20, per_pattern=8)
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.mean_loss(2)
        theta_n = losses.solve_complete_case(ds, loss)
        lam = np.array([0.5, 0.5])
        monkeypatch.setattr(estimators, "_BOOTSTRAP_ATTEMPTS", 0)
        v = bootstrap_variance(ds, loss, theta_n, lam, 5, 30, imputers.MEAN_KIND, seed=2)
        assert np.isfinite(v).all()
        with pytest.raises(DataError, match="in-bag"):
            bootstrap_variance(ds, loss, theta_n, lam, 2, 2, imputers.MEAN_KIND, seed=2)

    def test_parameter_validation(self, eight_row):
        with pytest.raises(ConfigError):
            bootstrap_variance(
                eight_row.dataset, eight_row.loss, eight_row.theta_n, [0.2],
                k_folds=5, n_boot=1, imputer=imputers.MEAN_KIND, seed=0,
            )
        with pytest.raises(ConfigError):
            bootstrap_variance(
                eight_row.dataset, eight_row.loss, eight_row.theta_n, [0.2],
                k_folds=1, n_boot=4, imputer=imputers.MEAN_KIND, seed=0,
            )


class TestCipiFit:
    def dataset(self, rng):
        matrix = random_blockwise(rng, n_complete=24, per_pattern=10)
        return build_dataset(matrix, target_dims=(0, 1))

    def test_end_to_end_fields(self, rng):
        ds = self.dataset(rng)
        fit = cipi_fit(ds, losses.mean_loss(2), imputers.MEAN_KIND,
                       k_folds=4, n_boot=6, seed=12)
        assert fit.method == "cipi"
        assert fit.estimand == "population"
        assert fit.theta_hat.shape == (2,)
        assert (fit.se > 0).all()
        assert fit.ci.shape == (2, 2)
        assert (fit.n_effective > 0).all()
        assert np.allclose(
            fit.theta_complete,
            losses.solve_complete_case(ds, losses.mean_loss(2)),
        )

    def test_seed_determinism(self, rng):
        ds = self.dataset(rng)
        a = cipi_fit(ds, losses.mean_loss(2), imputers.MEAN_KIND,
                     k_folds=4, n_boot=6, seed=3)
        b = cipi_fit(ds, losses.mean_loss(2), imputers.MEAN_KIND,
                     k_folds=4, n_boot=6, seed=3)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.se, b.se)

    def test_different_seeds_differ(self, rng):
        ds = self.dataset(rng)
        a = cipi_fit(ds, losses.mean_loss(2), imputers.HOTDECK_KIND,
                     k_folds=4, n_boot=6, seed=3)
        b = cipi_fit(ds, losses.mean_loss(2), imputers.HOTDECK_KIND,
                     k_folds=4, n_boot=6, seed=4)
        assert not np.array_equal(a.se, b.se)


class TestReferenceParity:
    """The stacked tables equal the per-cell tuple tables they replaced
    (tests/oracles.py): bitwise for every imputer but the gaussian one,
    whose batched solves may round differently in a larger batch."""

    def problem(self, rng, complete_only=False):
        """Headline-shaped data (d = 20, R = 10, linear loss) at 500 rows:
        the (22, 22) joint score covariance is large enough for a change in
        its summation order to show in the last bit."""
        config = simgen.ExperimentConfig(n_complete=100, ratio=4.0)
        population = simgen.build_population(config.factor)
        loss, dims = config.make_loss()
        matrix = population.sample(rng, config.n_total())
        ds = simgen.gen_mcar_missingness(matrix, config.missingness(), dims, rng)
        if complete_only:
            ds = ds.subset(ds.rows_of(0))
        train = population.sample(rng, 200)
        return ds, train, loss, losses.solve_complete_case(ds, loss)

    @staticmethod
    def built(monkeypatch, run):
        """run()'s tables from the library builder, and the reference
        tables from the same fills."""
        calls = []
        build = estimators._build_tables

        def recording(*args):
            calls.append((args, build(*args)))
            return calls[-1][1]

        monkeypatch.setattr(estimators, "_build_tables", recording)
        run()
        (args, tables), = calls
        return tables, oracles.build_tuple_tables(*args)

    @staticmethod
    def assert_same(new, old, kind):
        if kind == imputers.GAUSSIAN_KIND:
            def same(a, b):
                return np.allclose(a, b, rtol=0, atol=1e-12)
        else:
            same = np.array_equal
        big_r = old.n_patterns
        assert new.n_patterns == big_r
        assert np.array_equal(new.counts, old.counts)
        assert np.array_equal(new.fold_complete, old.fold_complete)
        assert np.array_equal(
            new.fold_imputed, np.concatenate((np.zeros(0, int), *old.fold_imputed))
        )
        assert np.array_equal(new.pattern_imputed, np.repeat(np.arange(big_r), old.counts))
        assert same(new.g_complete, old.g_complete)
        assert same(new.g_masked, np.reshape(old.g_masked, new.g_masked.shape))
        assert same(new.g_imputed, np.concatenate((np.zeros((0, new.param_dim)), *old.g_imputed)))
        assert same(new.h_complete, old.h_complete)
        assert same(new.h_folds, old.h_folds)
        for a, b in zip(new.group_means + new.score_cov, old.group_means + old.score_cov):
            assert same(a, b)
        for mode in ("tuned", "pooled"):
            fit_new, fit_old = fit_from_tables(new, mode), fit_from_tables(old, mode)
            for field in ("theta_hat", "se", "ci", "variance", "n_effective"):
                assert same(getattr(fit_new, field), getattr(fit_old, field))
            assert same(fit_new.weights.lam, fit_old.weights.lam)

    @pytest.mark.parametrize("kind", imputers.KINDS)
    def test_single_model(self, rng, monkeypatch, kind):
        ds, train, loss, theta = self.problem(rng)
        model = imputers.fit(kind, train)
        new, old = self.built(monkeypatch, lambda: score_tables(ds, loss, model, theta))
        assert new.k_folds == 1
        self.assert_same(new, old, kind)

    @pytest.mark.parametrize("kind", imputers.KINDS)
    def test_five_folds(self, rng, monkeypatch, kind):
        ds, _, loss, theta = self.problem(rng)
        folded = cross_fit(ds, 5, kind, seed=4)
        new, old = self.built(monkeypatch, lambda: score_tables(ds, loss, folded, theta))
        assert new.k_folds == 5
        self.assert_same(new, old, kind)

    @pytest.mark.parametrize("kind", imputers.KINDS)
    def test_bootstrap_averaged_tables(self, rng, monkeypatch, kind):
        ds, _, loss, theta = self.problem(rng)
        new, old = self.built(monkeypatch, lambda: bootstrap_variance(
            ds, loss, theta, np.ones(ds.n_patterns), k_folds=4, n_boot=12, imputer=kind, seed=5
        ))
        self.assert_same(new, old, kind)

    @pytest.mark.parametrize("k_folds", [1, 5])
    def test_no_patterns(self, rng, monkeypatch, k_folds):
        ds, train, loss, theta = self.problem(rng, complete_only=True)
        imputer = imputers.fit(imputers.MEAN_KIND, train)
        if k_folds > 1:
            imputer = cross_fit(ds, k_folds, imputers.MEAN_KIND, seed=4)
        new, old = self.built(monkeypatch, lambda: score_tables(ds, loss, imputer, theta))
        assert new.n_patterns == 0 and new.g_imputed.shape == (0, 2)
        self.assert_same(new, old, imputers.MEAN_KIND)
