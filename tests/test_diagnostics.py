"""Transfer-gap diagnostics: statistics, covariances, and edge paths.

On the eight-row fixture (R = 1, p = 1, n = 4) the pieces are exact:
gap = -4.4, transfer variance 3.2/3, imputed variance 12.8/3, so for any
nonzero weight the weighted chi-square is

    4 * (4.4 w)^2 / (w^2 * 16/3) = 14.52

and a shift c on the imputed gradients moves it to 3 * (4.4 - c)^2 / 4.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from ipinfer import imputers, losses
from ipinfer.diagnostics import (
    DiagnosticReport,
    apply_gradient_shift,
    t_full_test,
    t_ipi_test,
)
from ipinfer.errors import DataError
from ipinfer.estimators import ScoreTables, score_tables
from ipinfer.patterns import build_dataset

nan = np.nan


def fixture_tables(fx):
    return score_tables(fx.dataset, fx.loss, fx.imputer, fx.theta_n)


def tables_at_complete_case(ds, loss, model):
    return score_tables(ds, loss, model, losses.solve_complete_case(ds, loss))


class TestWeightedTest:
    def test_fixture_chi_square_frozen(self, eight_row):
        report = t_ipi_test(fixture_tables(eight_row), lambda_hat=[0.2])
        assert report.df == 1
        assert report.gaps.shape == (1, 1)
        assert report.gaps[0, 0] == pytest.approx(-4.4, abs=1e-9)
        assert report.statistic[0] == pytest.approx(-0.88, abs=1e-9)
        assert report.chi2_stat == pytest.approx(14.52, abs=1e-6)
        assert report.p_value == pytest.approx(stats.chi2.sf(14.52, 1), abs=1e-8)
        assert report.warnings == ()

    def test_weight_scale_cancels_for_single_pattern(self, eight_row):
        t = fixture_tables(eight_row)
        a = t_ipi_test(t, lambda_hat=[0.2])
        b = t_ipi_test(t, lambda_hat=[1.7])
        assert a.chi2_stat == pytest.approx(b.chi2_stat, rel=1e-12)

    def test_default_weights_are_tuned(self, eight_row):
        t = fixture_tables(eight_row)
        default = t_ipi_test(t)
        assert default.chi2_stat == pytest.approx(14.52, abs=1e-6)

    def test_no_patterns_returns_trivial_report(self):
        complete = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        ds = build_dataset(complete, target_dims=(0,))
        model = imputers.fit(imputers.MEAN_KIND, complete, target_dims=(0,))
        report = t_ipi_test(tables_at_complete_case(ds, losses.mean_loss(1), model))
        assert report.chi2_stat == 0.0
        assert report.p_value == 1.0
        assert report.gaps.shape == (0, 1)
        assert report.df == 1

    def test_zero_statistic_yields_p_one(self, eight_row):
        # Shifting by the exact gap annihilates the statistic only up to
        # float error, so build tables whose gap is identically zero.
        t = fixture_tables(eight_row)
        zeroed = ScoreTables(
            loss=t.loss, theta=t.theta, counts=t.counts,
            g_complete=t.g_complete,
            g_masked=t.g_masked,
            g_imputed=(t.g_masked[0].copy(),),
            fold_complete=t.fold_complete, fold_imputed=t.fold_imputed,
            h_complete=t.h_complete, h_folds=t.h_folds,
        )
        report = t_ipi_test(zeroed, lambda_hat=[1.0])
        assert report.chi2_stat == 0.0
        assert report.p_value == 1.0

    def test_small_groups_rejected(self):
        matrix = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 1.0], [nan, 4.0]])
        ds = build_dataset(matrix, target_dims=(0,))
        model = imputers.fit(imputers.MEAN_KIND, matrix, target_dims=(0,))
        t = tables_at_complete_case(ds, losses.mean_loss(1), model)
        with pytest.raises(DataError, match="2 rows"):
            t_ipi_test(t, lambda_hat=[1.0])


class TestScaleInvariance:
    def test_chi_square_invariant_under_gradient_rescaling(self, rng):
        from conftest import random_blockwise
        from dataclasses import replace

        matrix = random_blockwise(rng, n_complete=30, per_pattern=12)
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.mean_loss(2)
        train = random_blockwise(rng, n_complete=20, per_pattern=8)
        model = imputers.fit(imputers.GAUSSIAN_KIND, train, target_dims=(0, 1))
        t = score_tables(ds, loss, model, losses.solve_complete_case(ds, loss))
        kappa = 3.7
        scaled = replace(
            t,
            g_complete=kappa * t.g_complete,
            g_masked=tuple(kappa * g for g in t.g_masked),
            g_imputed=tuple(kappa * g for g in t.g_imputed),
        )
        base = t_ipi_test(t, lambda_hat=[0.5, 0.8])
        resc = t_ipi_test(scaled, lambda_hat=[0.5, 0.8])
        assert resc.chi2_stat == pytest.approx(base.chi2_stat, rel=1e-9)
        assert resc.p_value == pytest.approx(base.p_value, rel=1e-9)


class TestSingularCovariance:
    def crafted_tables(self) -> ScoreTables:
        loss = losses.mean_loss(2)
        g_complete = np.array([[1.0, 2.0], [-1.0, 0.0], [2.0, 1.0], [-2.0, -3.0]])
        g_masked = np.array([[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]])
        g_imputed = np.array([[3.0, 3.0], [1.0, 1.0], [5.0, 5.0], [3.0, 3.0]])
        eye = np.eye(2)
        return ScoreTables(
            loss=loss, theta=np.zeros(2), counts=np.array([4]),
            g_complete=g_complete, g_masked=(g_masked,), g_imputed=(g_imputed,),
            fold_complete=np.zeros(4, dtype=int), fold_imputed=(np.zeros(4, dtype=int),),
            h_complete=eye, h_folds=np.array([[eye, eye, eye]]),
        )

    def test_rank_deficient_covariance_gets_ridge_repair(self):
        report = t_ipi_test(self.crafted_tables(), lambda_hat=[1.0])
        assert any("ridge" in w for w in report.warnings)
        assert report.chi2_stat is not None and report.chi2_stat >= 0
        assert 0.0 <= report.p_value <= 1.0

    def test_hopeless_covariance_reports_undefined(self):
        t = self.crafted_tables()
        constant = ScoreTables(
            loss=t.loss, theta=t.theta, counts=t.counts,
            g_complete=t.g_complete,
            g_masked=(np.zeros((4, 2)),),
            g_imputed=(np.ones((4, 2)),),
            fold_complete=t.fold_complete, fold_imputed=t.fold_imputed,
            h_complete=t.h_complete, h_folds=t.h_folds,
        )
        report = t_ipi_test(constant, lambda_hat=[1.0])
        assert report.chi2_stat is None
        assert report.p_value is None
        assert any("undefined" in w for w in report.warnings)


class TestFullTest:
    def test_fixture_matches_weighted_for_single_pattern(self, eight_row):
        report = t_full_test(fixture_tables(eight_row))
        assert report.df == 1
        assert report.chi2_stat == pytest.approx(14.52, abs=1e-6)
        assert report.statistic[0] == pytest.approx(-4.4, abs=1e-9)

    def test_stacks_gaps_across_patterns(self, rng):
        from conftest import random_blockwise

        matrix = random_blockwise(rng, n_complete=40, per_pattern=10)
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.mean_loss(2)
        model = imputers.fit(imputers.MEAN_KIND, matrix, target_dims=(0, 1))
        report = t_full_test(tables_at_complete_case(ds, loss, model))
        assert report.df == 4
        assert report.statistic.shape == (4,)
        assert np.array_equal(report.statistic, report.gaps.reshape(-1))
        assert report.v_t.shape == (4, 4)

    def test_refuses_oversized_statistic(self):
        matrix = np.array([[1.0, 1.0], [2.0, 2.0], [nan, 3.0], [nan, 4.0]])
        ds = build_dataset(matrix, target_dims=(0,))
        model = imputers.fit(imputers.MEAN_KIND, matrix, target_dims=(0,))
        t = tables_at_complete_case(ds, losses.mean_loss(1), model)
        with pytest.raises(DataError, match="too large"):
            t_full_test(t)

    def test_no_patterns_trivial_report(self):
        complete = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        ds = build_dataset(complete, target_dims=(0,))
        model = imputers.fit(imputers.MEAN_KIND, complete, target_dims=(0,))
        report = t_full_test(tables_at_complete_case(ds, losses.mean_loss(1), model))
        assert report.df == 0
        assert report.p_value == 1.0


class TestGradientShift:
    def test_shift_moves_only_imputed_tables(self, eight_row):
        t = fixture_tables(eight_row)
        shifted = apply_gradient_shift(t, 0.7)
        assert np.array_equal(shifted.g_masked[0], t.g_masked[0])
        assert np.array_equal(shifted.g_complete, t.g_complete)
        assert np.allclose(shifted.g_imputed[0], t.g_imputed[0] + 0.7)

    def test_chi_square_follows_shifted_gap(self, eight_row):
        t = fixture_tables(eight_row)
        for c in (0.0, 2.0, 10.0):
            report = t_ipi_test(apply_gradient_shift(t, c), lambda_hat=[0.2])
            assert report.chi2_stat == pytest.approx(
                3.0 * (4.4 - c) ** 2 / 4.0, abs=1e-6
            )

    def test_power_grows_with_shift_magnitude(self, eight_row):
        t = fixture_tables(eight_row)
        p_small = t_ipi_test(apply_gradient_shift(t, 5.0), lambda_hat=[1.0]).p_value
        p_large = t_ipi_test(apply_gradient_shift(t, 15.0), lambda_hat=[1.0]).p_value
        assert p_large < p_small

    def test_vector_shift_and_validation(self, eight_row):
        t = fixture_tables(eight_row)
        shifted = apply_gradient_shift(t, [1.5])
        assert np.allclose(shifted.g_imputed[0], t.g_imputed[0] + 1.5)
        with pytest.raises(DataError, match="shifts"):
            apply_gradient_shift(t, [1.0, 2.0])

    def test_report_is_immutable_record(self, eight_row):
        report = t_ipi_test(fixture_tables(eight_row), lambda_hat=[1.0])
        assert isinstance(report, DiagnosticReport)
        with pytest.raises(AttributeError):
            report.df = 2
