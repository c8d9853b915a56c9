"""Smooth M-estimation losses and the complete-case solver.

A loss acts on the target vector x, the data coordinates listed in the
dataset's target_dims, in that order.  Three families are provided:

* mean: l(x; theta) = 0.5 * ||x - theta||^2, one parameter per coordinate.
* linear_regression: squared error of one target coordinate on others.
* logistic_regression: logistic log-loss, response must be 0/1.

Regression covariate/response indices refer to positions inside the target
vector, not raw data coordinates.  With intercept=True a constant-1
covariate is appended after the listed covariates, so the coefficient of
covariate k keeps position k and the intercept is the last parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    NumericError,
    RankDeficiencyError,
)
from .patterns import PatternedDataset

MEAN = "mean"
LINEAR = "linear_regression"
LOGISTIC = "logistic_regression"

_FAMILIES = (MEAN, LINEAR, LOGISTIC)

# Newton iterates beyond this norm indicate separation (logistic only).
_SEPARATION_NORM = 1e4


@dataclass(frozen=True)
class LossModel:
    """A loss family bound to a target-vector layout.

    Attributes:
        family: one of "mean", "linear_regression", "logistic_regression".
        dim: length of the target vector the loss consumes.
        response_index: regression response position within the target vector.
        covariate_indices: regression covariate positions, in order.
        intercept: whether a constant-1 covariate is appended (last).
    """

    family: str
    dim: int
    response_index: int | None = None
    covariate_indices: tuple[int, ...] | None = None
    intercept: bool = False

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown loss family {self.family!r}")
        if self.dim < 1:
            raise ConfigError("loss dim must be positive")
        if self.family == MEAN:
            if self.response_index is not None or self.covariate_indices is not None:
                raise ConfigError("mean loss takes no response or covariates")
            return
        if self.response_index is None or self.covariate_indices is None:
            raise ConfigError(f"{self.family} needs response and covariates")
        cov = tuple(int(c) for c in self.covariate_indices)
        resp = int(self.response_index)
        used = (resp,) + cov
        if len(set(cov)) != len(cov) or resp in cov:
            raise ConfigError("response and covariates must be distinct")
        if not cov:
            raise ConfigError("at least one covariate required")
        if min(used) < 0 or max(used) >= self.dim:
            raise ConfigError(
                f"response/covariate indices {used} out of range for dim={self.dim}"
            )
        object.__setattr__(self, "covariate_indices", cov)
        object.__setattr__(self, "response_index", resp)

    @property
    def param_dim(self) -> int:
        """Dimension p of the parameter vector."""
        if self.family == MEAN:
            return self.dim
        return len(self.covariate_indices) + (1 if self.intercept else 0)

    def design(self, x_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split target rows into (covariate matrix, response vector)."""
        x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=float))
        if x_matrix.shape[1] != self.dim:
            raise DimensionError(
                f"target rows have width {x_matrix.shape[1]}, loss expects {self.dim}"
            )
        covars = x_matrix[:, list(self.covariate_indices)]
        if self.intercept:
            covars = np.column_stack([covars, np.ones(len(covars))])
        return covars, x_matrix[:, self.response_index]


def mean_loss(dim: int) -> LossModel:
    """Componentwise mean loss over a target vector of the given length."""
    return LossModel(MEAN, dim)


def linear_regression_loss(
    dim: int, response_index: int, covariate_indices, intercept: bool = False
) -> LossModel:
    return LossModel(LINEAR, dim, response_index, tuple(covariate_indices), intercept)


def logistic_regression_loss(
    dim: int, response_index: int, covariate_indices, intercept: bool = False
) -> LossModel:
    return LossModel(LOGISTIC, dim, response_index, tuple(covariate_indices), intercept)


def loss_for_columns(
    family: str,
    response: int | None = None,
    covariates=None,
    columns=None,
    intercept: bool = False,
) -> tuple[LossModel, tuple[int, ...]]:
    """Bind a loss family to raw data coordinates.

    The loss consumes target vectors laid out as the sorted set of used
    coordinates; this translates raw indices into positions within that
    vector.

    Args:
        response, covariates: raw coordinate indices (regression families).
        columns: raw coordinate indices (mean family).

    Returns:
        (loss, target_dims) where target_dims is the sorted coordinate
        tuple the dataset must expose to the loss.
    """
    if family == MEAN:
        if not columns:
            raise ConfigError("mean loss needs columns")
        dims = tuple(sorted({int(c) for c in columns}))
        return mean_loss(len(dims)), dims
    if family not in (LINEAR, LOGISTIC):
        raise ConfigError(f"unknown loss family {family!r}")
    if response is None or not covariates:
        raise ConfigError(f"{family} needs response and covariates")
    cov = [int(c) for c in covariates]
    dims = tuple(sorted({int(response), *cov}))
    positions = {c: i for i, c in enumerate(dims)}
    loss = LossModel(
        family,
        len(dims),
        positions[int(response)],
        tuple(positions[c] for c in cov),
        intercept,
    )
    return loss, dims


def _check_rows(loss: LossModel, x_matrix: np.ndarray) -> np.ndarray:
    x_matrix = np.atleast_2d(np.asarray(x_matrix, dtype=float))
    if x_matrix.shape[1] != loss.dim:
        raise DimensionError(
            f"target rows have width {x_matrix.shape[1]}, loss expects {loss.dim}"
        )
    if not np.isfinite(x_matrix).all():
        raise NumericError("loss inputs must be finite on all used coordinates")
    return x_matrix


def _check_theta(loss: LossModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (loss.param_dim,):
        raise DimensionError(
            f"theta has shape {theta.shape}, loss expects ({loss.param_dim},)"
        )
    return theta


def loss_value_matrix(loss: LossModel, x_matrix, theta) -> np.ndarray:
    """Per-row loss values, shape (m,)."""
    x_matrix = _check_rows(loss, x_matrix)
    theta = _check_theta(loss, theta)
    if loss.family == MEAN:
        return 0.5 * np.sum((x_matrix - theta) ** 2, axis=1)
    covars, resp = loss.design(x_matrix)
    eta = covars @ theta
    if loss.family == LINEAR:
        return 0.5 * (resp - eta) ** 2
    # log(1 + exp(eta)) - y * eta, computed stably
    return np.logaddexp(0.0, eta) - resp * eta


def loss_value(loss: LossModel, x, theta) -> float:
    return float(loss_value_matrix(loss, np.atleast_2d(x), theta)[0])


def grad_matrix(loss: LossModel, x_matrix, theta) -> np.ndarray:
    """Per-row loss gradients, shape (m, p)."""
    x_matrix = _check_rows(loss, x_matrix)
    theta = _check_theta(loss, theta)
    if loss.family == MEAN:
        return theta - x_matrix
    covars, resp = loss.design(x_matrix)
    eta = covars @ theta
    if loss.family == LINEAR:
        resid = eta - resp
    else:
        resid = _sigmoid(eta) - resp
    return covars * resid[:, None]


def grad(loss: LossModel, x, theta) -> np.ndarray:
    """Loss gradient at one target vector, shape (p,)."""
    return grad_matrix(loss, np.atleast_2d(x), theta)[0]


def mean_hessian(loss: LossModel, x_matrix, theta) -> np.ndarray:
    """Average loss Hessian over rows, shape (p, p)."""
    x_matrix = _check_rows(loss, x_matrix)
    theta = _check_theta(loss, theta)
    p = loss.param_dim
    if loss.family == MEAN:
        return np.eye(p)
    covars, _ = loss.design(x_matrix)
    if loss.family == LINEAR:
        return covars.T @ covars / len(covars)
    w = _sigmoid(covars @ theta)
    w = w * (1.0 - w)
    return (covars * w[:, None]).T @ covars / len(covars)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def solve_mean_loss(
    loss: LossModel,
    x_matrix: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Minimize the empirical mean loss over the given target rows by Newton.

    Damped Newton with step-halving on the objective; stops when the mean
    gradient's max-norm falls below tol, then takes one undamped polishing
    step so the returned point sits at the root to machine precision.

    Raises:
        ConvergenceError: no convergence in max_iter iterations, or the
            iterates blow up (logistic separation).
        RankDeficiencyError: singular Newton system.
    """
    x_matrix = _check_rows(loss, x_matrix)
    p = loss.param_dim
    theta = np.zeros(p)
    value = float(np.mean(loss_value_matrix(loss, x_matrix, theta)))
    for _ in range(max_iter):
        g = grad_matrix(loss, x_matrix, theta).mean(axis=0)
        if np.max(np.abs(g)) <= tol:
            polished = theta - _newton_step(loss, x_matrix, theta, g)
            g_pol = grad_matrix(loss, x_matrix, polished).mean(axis=0)
            if np.max(np.abs(g_pol)) <= np.max(np.abs(g)):
                theta = polished
            return theta
        step = _newton_step(loss, x_matrix, theta, g)
        scale = 1.0
        for _ in range(30):
            cand = theta - scale * step
            cand_value = float(np.mean(loss_value_matrix(loss, x_matrix, cand)))
            if cand_value <= value:
                break
            scale *= 0.5
        theta, value = cand, cand_value
        if np.linalg.norm(theta) > _SEPARATION_NORM:
            raise ConvergenceError(
                "iterates diverged; the problem looks separable or degenerate"
            )
    raise ConvergenceError(f"Newton did not converge in {max_iter} iterations")


def _newton_step(loss, x_matrix, theta, g) -> np.ndarray:
    h = mean_hessian(loss, x_matrix, theta)
    try:
        return np.linalg.solve(h, g)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("singular Hessian in Newton step") from None


def solve_complete_case(
    dataset: PatternedDataset,
    loss: LossModel,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Complete-case M-estimate: minimize the mean loss over complete rows.

    Observed logistic responses must be coded 0/1.  Imputed responses fed to
    the gradients and Hessians elsewhere may be continuous; that is
    deliberate.
    """
    x = dataset.complete_values()[:, list(dataset.target_dims)]
    if loss.family == LOGISTIC and not np.isin(x[:, loss.response_index], (0.0, 1.0)).all():
        raise ConfigError("observed logistic responses must be coded 0/1")
    return solve_mean_loss(loss, x, tol=tol, max_iter=max_iter)

