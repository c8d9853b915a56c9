"""Loss families: closed forms, solver behavior, and derivative consistency."""

from __future__ import annotations

import numpy as np
import pytest

from ipinfer import losses
from ipinfer.errors import ConfigError, ConvergenceError, DimensionError
from ipinfer.patterns import build_dataset

from oracles import (
    finite_difference_gradient,
    finite_difference_jacobian,
    logistic_fit_gradient_descent,
    ols_coefficients,
)

FAMILIES = (losses.MEAN, losses.LINEAR, losses.LOGISTIC)


def make_loss(family: str, p: int = 3) -> losses.LossModel:
    if family == losses.MEAN:
        return losses.mean_loss(p)
    if family == losses.LINEAR:
        return losses.LossModel(losses.LINEAR, p, 0, tuple(range(1, p)))
    return losses.LossModel(losses.LOGISTIC, p, 0, tuple(range(1, p)))


def draw_rows(rng, family: str, m: int = 12, p: int = 3) -> np.ndarray:
    x = rng.standard_normal((m, p))
    if family == losses.LOGISTIC:
        x[:, 0] = (x[:, 0] > 0).astype(float)
    return x


class TestDerivativeConsistency:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_gradient_matches_finite_differences(self, family, rng):
        loss = make_loss(family)
        for _ in range(20):
            x = draw_rows(rng, family)
            theta = 0.5 * rng.standard_normal(loss.param_dim)
            for row in x[:3]:
                num = finite_difference_gradient(
                    lambda t: losses.loss_value_matrix(loss, row, t)[0], theta
                )
                ana = losses.grad_matrix(loss, row, theta)[0]
                assert np.allclose(ana, num, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_hessian_matches_gradient_jacobian(self, family, rng):
        loss = make_loss(family)
        for _ in range(10):
            x = draw_rows(rng, family)
            theta = 0.5 * rng.standard_normal(loss.param_dim)
            num = finite_difference_jacobian(
                lambda t: losses.grad_matrix(loss, x, t).mean(axis=0), theta
            )
            ana = losses.mean_hessian(loss, x, theta)
            assert np.allclose(ana, num, rtol=1e-6, atol=1e-7)

    def test_grad_matrix_stacks_row_gradients(self, rng):
        loss = make_loss(losses.LINEAR)
        x = draw_rows(rng, losses.LINEAR)
        theta = rng.standard_normal(loss.param_dim)
        stacked = losses.grad_matrix(loss, x, theta)
        for i in range(x.shape[0]):
            assert np.allclose(stacked[i], losses.grad_matrix(loss, x[i], theta)[0])


class TestMeanLoss:
    def test_gradient_is_theta_minus_x(self):
        loss = losses.mean_loss(2)
        g = losses.grad_matrix(loss, [1.0, 4.0], [3.0, 1.0])
        assert np.array_equal(g, [[2.0, -3.0]])

    def test_solution_is_the_sample_mean(self, rng):
        loss = losses.mean_loss(3)
        x = rng.standard_normal((20, 3))
        theta = losses.solve_mean_loss(loss, x)
        assert np.allclose(theta, x.mean(axis=0), atol=1e-12)

    def test_large_scale_data_solve(self, rng):
        # A mean far from zero is no divergence: the separation guard
        # applies to the logistic loss only.
        loss = losses.mean_loss(2)
        x = 2e5 + 1e3 * rng.standard_normal((20, 2))
        theta = losses.solve_mean_loss(loss, x)
        assert np.allclose(theta, x.mean(axis=0), rtol=1e-12)

    def test_mean_at_1e8_scale_converges(self):
        # An absolute tolerance of 1e-10 is below the rounding error of a
        # mean gradient over values of size 1e8; the rounding floor stops it.
        # (These draws never met the absolute tolerance alone.)
        loss = losses.mean_loss(1)
        x = np.random.default_rng(3).uniform(-1e8, 1e8, (7, 1))
        theta = losses.solve_mean_loss(loss, x)
        assert np.allclose(theta, x.mean(axis=0), rtol=1e-12, atol=0.0)

    def test_hessian_is_identity(self, rng):
        loss = losses.mean_loss(2)
        h = losses.mean_hessian(loss, rng.standard_normal((5, 2)), np.zeros(2))
        assert np.array_equal(h, np.eye(2))


class TestLinearLoss:
    def test_solution_matches_ols_oracle(self, rng):
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2))
        x = draw_rows(rng, losses.LINEAR, m=40)
        theta = losses.solve_mean_loss(loss, x)
        expected = ols_coefficients(x[:, [1, 2]], x[:, 0])
        assert np.allclose(theta, expected, atol=1e-10)

    def test_intercept_column_appended_last(self, rng):
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2), intercept=True)
        x = draw_rows(rng, losses.LINEAR, m=40)
        theta = losses.solve_mean_loss(loss, x)
        design = np.column_stack([x[:, [1, 2]], np.ones(len(x))])
        expected = ols_coefficients(design, x[:, 0])
        assert theta.size == 3
        assert np.allclose(theta, expected, atol=1e-10)

    def test_regression_at_1e8_scale_converges(self, rng):
        loss = losses.LossModel(losses.LINEAR, 2, 0, (1,), intercept=True)
        u = 1e8 * rng.standard_normal(30)
        y = 3.0 * u + 1e8 * (1.0 + 0.1 * rng.standard_normal(30))
        theta = losses.solve_mean_loss(loss, np.column_stack([y, u]))
        expected = ols_coefficients(np.column_stack([u, np.ones(30)]), y)
        assert np.allclose(theta, expected, rtol=1e-9, atol=0.0)

    def test_residual_gradient_form(self, rng):
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2))
        row = np.array([2.0, 1.0, -1.0])
        theta = np.array([0.5, 0.25])
        resid = row[[1, 2]] @ theta - row[0]
        assert np.allclose(losses.grad_matrix(loss, row, theta), resid * row[[1, 2]])

    def test_duplicate_covariate_gives_singular_newton(self, rng):
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2))
        x = draw_rows(rng, losses.LINEAR, m=30)
        x[:, 2] = x[:, 1]
        with pytest.raises(losses.RankDeficiencyError):
            losses.solve_mean_loss(loss, x)


class TestLogisticLoss:
    def test_solution_matches_gradient_descent_oracle(self, rng):
        loss = losses.LossModel(losses.LOGISTIC, 3, 0, (1, 2))
        x = draw_rows(rng, losses.LOGISTIC, m=60)
        theta = losses.solve_mean_loss(loss, x)
        expected = logistic_fit_gradient_descent(x[:, [1, 2]], x[:, 0])
        assert np.allclose(theta, expected, atol=1e-6)

    def test_separable_data_raises(self):
        # Small covariate scale: the separating coefficient must blow up
        # past the divergence guard before the gradient can vanish.
        loss = losses.LossModel(losses.LOGISTIC, 2, 0, (1,))
        x = np.array([[0.0, -0.001], [0.0, -0.002], [1.0, 0.001], [1.0, 0.002]])
        with pytest.raises(ConvergenceError):
            losses.solve_mean_loss(loss, x)

    def test_separation_still_raises_with_rounding_floor(self, rng):
        # Separated rows all push the gradient the same way, so its size
        # stays that of the rows and never meets their rounding floor.
        loss = losses.LossModel(losses.LOGISTIC, 2, 0, (1,))
        u = 1e-3 * (rng.uniform(0.5, 1.0, 40) * rng.choice([-1.0, 1.0], 40))
        x = np.column_stack([(u > 0).astype(float), u])
        with pytest.raises(ConvergenceError):
            losses.solve_mean_loss(loss, x)

    def test_continuous_response_rejected_on_complete_case(self):
        matrix = np.array([[0.3, 1.0], [0.7, 2.0], [0.1, 0.5]])
        ds = build_dataset(matrix, target_dims=(0, 1))
        loss = losses.LossModel(losses.LOGISTIC, 2, 0, (1,))
        with pytest.raises(ConfigError, match="0/1"):
            losses.solve_complete_case(ds, loss)

    def test_continuous_response_allowed_in_gradients(self):
        loss = losses.LossModel(losses.LOGISTIC, 2, 0, (1,))
        g = losses.grad_matrix(loss, np.array([0.3, 1.0]), np.array([0.0]))
        assert np.allclose(g, (0.5 - 0.3) * 1.0)


class TestLossForColumns:
    def test_mean_family_uses_sorted_unique_columns(self):
        loss, dims = losses.loss_for_columns(losses.MEAN, columns=(3, 1, 3))
        assert dims == (1, 3)
        assert loss.family == losses.MEAN
        assert loss.param_dim == 2

    def test_regression_maps_raw_indices_to_positions(self):
        loss, dims = losses.loss_for_columns(
            losses.LINEAR, response=4, covariates=(0, 2)
        )
        assert dims == (0, 2, 4)
        assert loss.response_index == 2
        assert loss.covariate_indices == (0, 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            losses.loss_for_columns("quantile", columns=(0,))

    def test_missing_pieces_rejected(self):
        with pytest.raises(ConfigError):
            losses.loss_for_columns(losses.MEAN, columns=())
        with pytest.raises(ConfigError):
            losses.loss_for_columns(losses.LINEAR, response=0, covariates=())


class TestShapesAndValidation:
    def test_wrong_row_width_raises(self):
        loss = losses.mean_loss(2)
        with pytest.raises(DimensionError):
            losses.grad_matrix(loss, np.zeros(3), np.zeros(2))

    def test_wrong_theta_width_raises(self):
        loss = losses.mean_loss(2)
        with pytest.raises(DimensionError):
            losses.grad_matrix(loss, np.zeros(2), np.zeros(3))

    def test_solver_polish_hits_machine_precision(self, rng):
        loss = losses.LossModel(losses.LINEAR, 3, 0, (1, 2))
        x = draw_rows(rng, losses.LINEAR, m=25)
        theta = losses.solve_mean_loss(loss, x)
        g = losses.grad_matrix(loss, x, theta).mean(axis=0)
        assert np.max(np.abs(g)) < 1e-12
