#!/usr/bin/env python3
"""How the per-pattern weights change the interval.

Builds the score tables once, then fits them with zero weights
(complete-case), pooled weights (one shared weight per pattern, set by
pattern frequency), and variance-minimizing tuned weights, and prints the
plug-in objective alongside the interval width for each mode.

Usage:
    python 02_power_tuning.py
"""

import numpy as np

from ipinfer import estimators, imputers, losses
from ipinfer.patterns import build_dataset


def make_matrix(rng, n_complete=200, sizes=(700, 700, 300)):
    """Three patterns with different imputability for the target column."""
    total = n_complete + sum(sizes)
    factor = rng.standard_normal((total, 1))
    # x0 is tightly coupled to x2/x3, x1 only weakly: pattern-1 rows
    # (x0 missing) impute well, pattern-2 rows (x1 missing) poorly.
    x0 = 0.95 * factor[:, 0] + 0.3 * rng.standard_normal(total)
    x1 = 0.40 * factor[:, 0] + 1.0 * rng.standard_normal(total)
    rest = 0.9 * factor + 0.4 * rng.standard_normal((total, 2))
    matrix = np.column_stack([x0, x1, rest])
    row = n_complete
    for size, cols in zip(sizes, ((0,), (1,), (0, 1))):
        matrix[row : row + size, cols] = np.nan
        row += size
    return matrix


def main():
    rng = np.random.default_rng(12)
    loss, target_dims = losses.loss_for_columns(losses.MEAN, columns=(0, 1))
    dataset = build_dataset(make_matrix(rng), target_dims)

    train, inference = estimators.split_train_inference(
        dataset, 0.1, np.random.SeedSequence(12)
    )
    model = imputers.fit(imputers.GAUSSIAN_KIND, train, target_dims)

    theta_n = losses.solve_complete_case(inference, loss)
    tables = estimators.score_tables(inference, loss, model, theta_n)
    tuned, components = estimators.tune_lambda(tables)
    modes = {
        "zero": np.zeros(inference.n_patterns),
        "pooled": estimators.pooled_weights(inference).lam,
        "tuned": tuned.lam,
    }
    print(f"pattern sizes: {[int(c) for c in inference.pattern_counts()][1:]}")
    for name, lam in modes.items():
        fit = estimators.fit_from_tables(
            tables, lambda_mode="fixed", fixed_lambda=lam
        )
        width = float(np.mean(np.diff(fit.ci, axis=1)))
        print(
            f"{name:>6s}: objective {components.objective(lam):9.6f}  "
            f"mean CI width {width:.4f}  lambda {np.round(lam, 3)}"
        )
    print("tuned weights favor the patterns the imputer handles well")


if __name__ == "__main__":
    main()
