"""Reference estimators: complete-case, naive, single-pattern, and AIPW."""

from __future__ import annotations

import numpy as np
import pytest

from ipinfer import baselines, imputers, losses
from ipinfer.baselines import (
    aipw_fit,
    augmentation_dimension,
    best_single_pattern,
    complete_case_fit,
    monomial_features,
    naive_single_impute_fit,
    single_pattern_ipi,
)
from ipinfer.errors import ConfigError, DataError
from ipinfer.estimators import score_tables
from ipinfer.patterns import build_dataset

from conftest import random_blockwise
from oracles import ols_coefficients, restrict_to_patterns

nan = np.nan


def complete_case_tables(ds, loss, model):
    return score_tables(ds, loss, model, losses.solve_complete_case(ds, loss))


class TestCompleteCase:
    def test_frozen_fixture_numbers(self, eight_row):
        fit = complete_case_fit(eight_row.dataset, eight_row.loss)
        assert fit.method == "complete_case"
        assert np.array_equal(fit.theta_hat, [3.0])
        assert fit.se[0] == pytest.approx(1.0801234497346435, abs=1e-12)
        assert fit.width[0] == pytest.approx(3.5532899477027295, abs=1e-10)
        assert np.array_equal(fit.n_effective, [4.0])
        assert fit.n_scale == 4

    def test_matches_hand_sandwich_on_linear_loss(self, rng):
        x = rng.standard_normal((60, 3))
        x[:, 0] = 1.5 * x[:, 1] - 0.5 * x[:, 2] + 0.3 * rng.standard_normal(60)
        ds = build_dataset(x, target_dims=(0, 1, 2))
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2))
        fit = complete_case_fit(ds, loss, alpha=0.05)

        theta = ols_coefficients(x[:, [1, 2]], x[:, 0])
        resid = x[:, [1, 2]] @ theta - x[:, 0]
        g = resid[:, None] * x[:, [1, 2]]
        h = x[:, [1, 2]].T @ x[:, [1, 2]] / 60
        hinv = np.linalg.inv(h)
        sigma = hinv @ np.cov(g, rowvar=False, ddof=1) @ hinv
        assert np.allclose(fit.theta_hat, theta, atol=1e-10)
        assert np.allclose(fit.variance, sigma, rtol=1e-8)
        assert np.allclose(fit.se, np.sqrt(np.diag(sigma) / 60), rtol=1e-8)

    def test_ignores_incomplete_rows(self, eight_row):
        complete_only = build_dataset(
            eight_row.dataset.complete_values(), target_dims=(0,)
        )
        a = complete_case_fit(eight_row.dataset, eight_row.loss)
        b = complete_case_fit(complete_only, eight_row.loss)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert np.array_equal(a.se, b.se)


class TestNaive:
    def test_bit_exact_complete_case_without_missing_cells(self, rng):
        x = rng.standard_normal((30, 2))
        ds = build_dataset(x, target_dims=(0, 1))
        model = imputers.fit(imputers.MEAN_KIND, x)
        naive = naive_single_impute_fit(ds, losses.mean_loss(2), model)
        cc = complete_case_fit(ds, losses.mean_loss(2))
        assert np.array_equal(naive.theta_hat, cc.theta_hat)
        assert np.array_equal(naive.se, cc.se)
        assert np.array_equal(naive.n_effective, [30.0, 30.0])

    def test_zero_fill_shrinks_the_estimate(self, semi_supervised):
        model = imputers.fit(imputers.ZERO_KIND, semi_supervised.dataset.values)
        fit = naive_single_impute_fit(
            semi_supervised.dataset, semi_supervised.loss, model
        )
        assert fit.theta_hat[0] == pytest.approx(1.0, abs=1e-15)
        assert fit.method == "naive"
        assert fit.n_scale == 6

    def test_treats_fills_as_data(self, eight_row):
        # n_scale is the full row count: imputation error never widens the
        # intervals, which is exactly how this baseline undercovers.
        fit = naive_single_impute_fit(
            eight_row.dataset, eight_row.loss, eight_row.imputer
        )
        assert fit.n_scale == 8
        filled = eight_row.imputer.fill(eight_row.dataset.values)
        assert fit.theta_hat[0] == pytest.approx(filled[:, 0].mean(), abs=1e-12)

    def test_theta_complete_is_the_complete_case_estimate(self, eight_row):
        fit = naive_single_impute_fit(
            eight_row.dataset, eight_row.loss, eight_row.imputer
        )
        assert np.array_equal(fit.theta_complete, [3.0])
        assert fit.theta_hat[0] != 3.0


class TestSinglePattern:
    def dataset(self, rng):
        matrix = random_blockwise(rng, n_complete=30, per_pattern=12)
        train = random_blockwise(rng, n_complete=20, per_pattern=8)
        model = imputers.fit(imputers.GAUSSIAN_KIND, train)
        return build_dataset(matrix, target_dims=(0, 1)), losses.mean_loss(2), model

    def test_sliced_tables_match_restricted_dataset(self, rng):
        ds, loss, model = self.dataset(rng)
        tables = complete_case_tables(ds, loss, model)
        for r in (1, 2):
            via_tables = single_pattern_ipi(tables, r)
            restricted = restrict_to_patterns(ds, [r])
            via_restrict = single_pattern_ipi(
                complete_case_tables(restricted, loss, model), 1
            )
            assert via_tables.method == f"single_pattern:{r}"
            assert np.allclose(
                via_tables.theta_hat, via_restrict.theta_hat, rtol=1e-12
            )
            assert np.allclose(via_tables.se, via_restrict.se, rtol=1e-12)

    def test_best_minimizes_trace_variance(self, rng):
        ds, loss, model = self.dataset(rng)
        tables = complete_case_tables(ds, loss, model)
        fit, winner = best_single_pattern(tables)
        traces = {}
        for r in (1, 2):
            single = single_pattern_ipi(tables, r)
            traces[r] = float(np.trace(single.variance))
        assert winner == min(traces, key=traces.get)
        assert fit.method == f"single_pattern:{winner}"

    def test_tie_breaks_to_lower_pattern_id(self):
        # Both patterns hide a non-target column, so their tables are
        # identical on the target coordinate and the scores tie.
        matrix = np.array(
            [
                [1.0, 1.0, 2.0],
                [2.0, 2.0, 1.0],
                [3.0, 3.0, 4.0],
                [4.0, 4.0, 3.0],
                [nan, 0.0, 5.0],
                [nan, 0.0, 7.0],
                [0.0, nan, 5.0],
                [0.0, nan, 7.0],
            ]
        )
        ds = build_dataset(matrix, target_dims=(2,))
        model = imputers.fit(imputers.MEAN_KIND, matrix)
        _, winner = best_single_pattern(
            complete_case_tables(ds, losses.mean_loss(1), model)
        )
        assert winner == 1

    def test_no_patterns_rejected(self, rng):
        x = rng.standard_normal((10, 2))
        ds = build_dataset(x, target_dims=(0,))
        model = imputers.fit(imputers.MEAN_KIND, x)
        tables = complete_case_tables(ds, losses.mean_loss(1), model)
        with pytest.raises(DataError):
            best_single_pattern(tables)


class TestMonomials:
    def test_degree_two_layout(self):
        out = monomial_features(np.array([[2.0, 3.0]]))
        assert np.array_equal(out[0], [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])

    def test_single_column(self):
        out = monomial_features(np.array([[5.0]]))
        assert np.array_equal(out[0], [1.0, 5.0, 25.0])

    def test_augmentation_dimension_sums_pattern_counts(self, eight_row):
        # one pattern observing one column: 1 + 1 + 1 = 3
        assert augmentation_dimension(eight_row.dataset) == 3

    def test_augmentation_dimension_general(self, rng):
        matrix = random_blockwise(rng, n_complete=10, per_pattern=4)
        ds = build_dataset(matrix, target_dims=(0,))
        expected = sum(
            1 + k + k * (k + 1) // 2
            for k in (int(ds.masks[r].sum()) for r in (1, 2))
        )
        assert augmentation_dimension(ds) == expected


class TestAipw:
    def simulate(self, rng, n_complete=60, per_pattern=25):
        d = 4
        cov = 0.5 * np.eye(d) + 0.5
        chol = np.linalg.cholesky(cov)

        def draw(m):
            x = rng.standard_normal((m, d)) @ chol.T
            x[:, 0] = 1.2 * x[:, 1] - 0.7 * x[:, 2] + 0.4 * rng.standard_normal(m)
            return x

        blocks = [draw(n_complete)]
        for mask in ((True, True, True, False), (True, True, False, True)):
            block = draw(per_pattern)
            block[:, ~np.asarray(mask)] = nan
            blocks.append(block)
        ds = build_dataset(np.vstack(blocks), target_dims=(0, 1, 2))
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2))
        return ds, loss

    def test_linear_loss_only(self, eight_row):
        with pytest.raises(ConfigError, match="linear regression"):
            aipw_fit(eight_row.dataset, eight_row.loss)

    def test_no_patterns_reduces_to_complete_case(self, rng):
        x = rng.standard_normal((50, 3))
        x[:, 0] = x[:, 1] - x[:, 2] + 0.2 * rng.standard_normal(50)
        ds = build_dataset(x, target_dims=(0, 1, 2))
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2))
        aipw = aipw_fit(ds, loss)
        cc = complete_case_fit(ds, loss)
        assert np.allclose(aipw.theta_hat, cc.theta_hat, atol=1e-8)
        assert np.allclose(aipw.se, cc.se, rtol=1e-6)

    def test_matches_independent_projection_route(self, rng):
        ds, loss = self.simulate(rng)
        fit = aipw_fit(ds, loss)

        theta_n = losses.solve_complete_case(ds, loss)
        n_rows, n = ds.n_rows, ds.n_complete
        complete_idx = ds.rows_of(0)
        tdims = list(ds.target_dims)
        g = losses.grad_matrix(loss, ds.values[complete_idx][:, tdims], theta_n)
        p0 = n / n_rows
        score = np.zeros((n_rows, loss.param_dim))
        score[complete_idx] = g / p0
        cols = []
        for r in (1, 2):
            obs = np.flatnonzero(ds.masks[r])
            width = 1 + obs.size + obs.size * (obs.size + 1) // 2
            block = np.zeros((n_rows, width))
            block[complete_idx] = (
                monomial_features(ds.values[np.ix_(complete_idx, obs)]) / p0
            )
            rows_r = ds.rows_of(r)
            block[rows_r] = -monomial_features(
                ds.values[np.ix_(rows_r, obs)]
            ) / (rows_r.size / n_rows)
            cols.append(block)
        aug = np.hstack(cols)
        beta = np.linalg.lstsq(aug, score, rcond=None)[0]
        phi = score - aug @ beta
        h = losses.mean_hessian(loss, ds.values[complete_idx][:, tdims], theta_n)
        theta = theta_n - np.linalg.solve(h, phi.mean(axis=0))
        hinv = np.linalg.inv(h)
        sigma = hinv @ np.cov(phi, rowvar=False, ddof=1) @ hinv.T
        assert np.allclose(fit.theta_hat, theta, rtol=1e-8)
        assert np.allclose(fit.variance, sigma, rtol=1e-6)
        assert fit.n_scale == n_rows

    def test_solves_the_complete_case_once(self, rng, monkeypatch):
        ds, loss = self.simulate(rng)
        calls = []
        solve = losses.solve_mean_loss

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(losses, "solve_mean_loss", counted)
        monkeypatch.setattr(baselines, "solve_mean_loss", counted, raising=False)
        aipw_fit(ds, loss)
        assert len(calls) == 1

    def test_oversized_augmentation_rejected(self):
        matrix = np.array(
            [[1.0, 1.0], [2.0, 2.0], [3.0, 2.5], [nan, 4.0], [nan, 5.0]]
        )
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.LossModel(losses.LINEAR, 2, 0, (1,))
        with pytest.raises(DataError, match="augmentation dimension"):
            aipw_fit(ds, loss)

    def test_estimates_stay_near_truth(self, rng):
        ds, loss = self.simulate(rng, n_complete=150, per_pattern=60)
        fit = aipw_fit(ds, loss)
        assert np.allclose(fit.theta_hat, [1.2, -0.7], atol=0.25)
