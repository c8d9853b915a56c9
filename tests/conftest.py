"""Shared fixtures: hand-checkable datasets and small random builders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from ipinfer import estimators, imputers, losses
from ipinfer.patterns import PatternedDataset, build_dataset

# Fixed examples for the CLI config fuzz test, so every run checks the same
# configs: `@settings(settings.get_profile("cli_fuzz"))`.
settings.register_profile(
    "cli_fuzz", derandomize=True, deadline=None, max_examples=100, database=None
)


@dataclass(frozen=True)
class Fixture:
    """A dataset bundled with its loss, fitted imputer, and reference point."""

    dataset: PatternedDataset
    loss: losses.LossModel
    imputer: imputers.ImputationModel
    theta_n: np.ndarray


def eight_row_matrix() -> np.ndarray:
    """Four complete (x, u) rows and four rows with x missing.

    The in-sample chained-regression imputer fits x = 1 + 0.8 u exactly,
    so every downstream quantity is hand-computable.
    """
    nan = np.nan
    return np.array(
        [
            [1.0, 2.0],
            [2.0, 1.0],
            [3.0, 4.0],
            [6.0, 3.0],
            [nan, 5.0],
            [nan, 7.0],
            [nan, 9.0],
            [nan, 11.0],
        ]
    )


@pytest.fixture(scope="session")
def eight_row() -> Fixture:
    matrix = eight_row_matrix()
    dataset = build_dataset(matrix, target_dims=(0,))
    loss = losses.mean_loss(1)
    model = imputers.fit(imputers.CHAINED_KIND, matrix)
    return Fixture(dataset, loss, model, np.array([3.0]))


@pytest.fixture(scope="session")
def semi_supervised() -> Fixture:
    """Identity imputer (x = u on the training data), mean loss on x.

    With lambda = 1 the point estimate is exactly the mean of the imputed
    column: 2 + (6 - 2) = 6.
    """
    train = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [0.0, 0.0]])
    nan = np.nan
    matrix = np.array(
        [
            [1.0, 1.0],
            [2.0, 2.0],
            [3.0, 3.0],
            [nan, 4.0],
            [nan, 6.0],
            [nan, 8.0],
        ]
    )
    dataset = build_dataset(matrix, target_dims=(0,))
    loss = losses.mean_loss(1)
    model = imputers.fit(imputers.CHAINED_KIND, train)
    return Fixture(dataset, loss, model, np.array([2.0]))


def random_blockwise(
    rng: np.random.Generator,
    n_complete: int = 30,
    per_pattern: int = 12,
    d: int = 4,
    masks: tuple[tuple[bool, ...], ...] = ((True, True, False, True), (False, True, True, True)),
) -> np.ndarray:
    """Correlated Gaussian rows with fixed blockwise patterns appended."""
    cov = 0.5 * np.eye(d) + 0.5
    chol = np.linalg.cholesky(cov)
    blocks = [rng.standard_normal((n_complete, d)) @ chol.T]
    for mask in masks:
        block = rng.standard_normal((per_pattern, d)) @ chol.T
        block[:, ~np.asarray(mask, dtype=bool)] = np.nan
        blocks.append(block)
    return np.vstack(blocks)


def three_pattern_tables(rng: np.random.Generator):
    """R = 3, p = 2 score tables at the complete-case estimate: a linear
    regression of column 0 on column 1 with an intercept (so the Hessian is
    not the identity), filled by a Gaussian imputer trained on other rows."""
    masks = (
        (True, True, False, True),
        (False, True, True, True),
        (True, False, True, False),
    )
    matrix = random_blockwise(rng, n_complete=40, per_pattern=15, masks=masks)
    dataset = build_dataset(matrix, target_dims=(0, 1))
    loss = losses.LossModel(losses.LINEAR, 2, 0, (1,), intercept=True)
    train = random_blockwise(rng, n_complete=30, per_pattern=10, masks=masks)
    model = imputers.fit(imputers.GAUSSIAN_KIND, train)
    return estimators.score_tables(
        dataset, loss, model, losses.solve_complete_case(dataset, loss)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
