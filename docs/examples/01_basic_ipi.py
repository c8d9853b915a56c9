#!/usr/bin/env python3
"""Imputation-powered inference on a small blockwise-missing dataset.

Builds a synthetic dataset where two feature blocks are each missing for
a chunk of rows, fits a Gaussian conditional imputer on a training
split, and compares the tuned IPI interval for a regression coefficient
against the complete-case baseline.

Usage:
    python 01_basic_ipi.py
"""

import numpy as np

from ipinfer import baselines, estimators, imputers, losses
from ipinfer.patterns import build_dataset


def make_matrix(rng, n_complete=300, per_pattern=900):
    """Correlated features; y depends on x0 and x1; two masked blocks."""
    total = n_complete + 2 * per_pattern
    factor = rng.standard_normal((total, 1))
    x = 0.8 * factor + 0.6 * rng.standard_normal((total, 4))
    y = 1.5 * x[:, 0] - 1.0 * x[:, 1] + 0.5 * rng.standard_normal(total)
    matrix = np.column_stack([x, y])
    matrix[n_complete : n_complete + per_pattern, 0] = np.nan
    matrix[n_complete + per_pattern :, 1] = np.nan
    return matrix


def main():
    rng = np.random.default_rng(3)
    loss, target_dims = losses.loss_for_columns(
        losses.LINEAR, response=4, covariates=(0, 1)
    )
    dataset = build_dataset(make_matrix(rng), target_dims)
    print(
        f"{dataset.n_rows} rows, {dataset.n_complete} complete, "
        f"{dataset.n_patterns} missingness patterns"
    )

    # Hold out 10% of rows to train the imputer; infer on the rest.
    train, inference = estimators.split_train_inference(
        dataset, 0.1, np.random.SeedSequence(3)
    )
    model = imputers.fit(imputers.GAUSSIAN_KIND, train)

    fit = estimators.ipi_fit(inference, loss, model, alpha=0.1)
    cc = baselines.complete_case_fit(inference, loss, alpha=0.1)

    print(f"tuned weights: {np.round(fit.weights.lam, 3)}")
    for j, name in enumerate(["x0", "x1"]):
        lo, hi = fit.ci[j]
        clo, chi = cc.ci[j]
        print(
            f"{name}: IPI {fit.theta_hat[j]:+.3f} [{lo:+.3f}, {hi:+.3f}]"
            f"  vs complete-case {cc.theta_hat[j]:+.3f} [{clo:+.3f}, {chi:+.3f}]"
        )
    print(
        f"effective sample size {fit.n_effective[0]:.0f} "
        f"(complete rows alone: {inference.n_complete})"
    )


if __name__ == "__main__":
    main()
