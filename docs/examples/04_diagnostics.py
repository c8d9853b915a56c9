#!/usr/bin/env python3
"""Transfer-gap diagnostics: is the imputation assumption plausible?

The weighted test compares the mean imputed score on each pattern's own
rows against the mean score from masking complete rows the same way;
under (first-moment) MCAR the gaps are centered at zero. The per-pattern
variant tests all R x p gaps jointly and is more sensitive to a single
bad pattern. Both are run here on clean MCAR data and on data whose
incomplete stratum is genuinely shifted.

Usage:
    python 04_diagnostics.py
"""

import numpy as np

from ipinfer import diagnostics, estimators, imputers, losses
from ipinfer.patterns import build_dataset


def make_matrix(rng, shift=0.0, n_complete=400, per_pattern=600):
    """Two patterns; `shift` moves the incomplete rows' distribution."""
    total = n_complete + 2 * per_pattern
    factor = rng.standard_normal((total, 1))
    x = 0.8 * factor + 0.6 * rng.standard_normal((total, 4))
    x[n_complete:] += shift
    matrix = x.copy()
    matrix[n_complete : n_complete + per_pattern, 0] = np.nan
    matrix[n_complete + per_pattern :, 1] = np.nan
    return matrix


def run(tag, matrix):
    loss, target_dims = losses.loss_for_columns(losses.MEAN, columns=(0, 1))
    dataset = build_dataset(matrix, target_dims)
    model = imputers.fit(imputers.GAUSSIAN_KIND, dataset.values, target_dims)
    theta_n = losses.solve_complete_case(dataset, loss)
    tables = estimators.score_tables(dataset, loss, model, theta_n)

    weighted = diagnostics.t_ipi_test(tables)
    full = diagnostics.t_full_test(tables)
    print(f"{tag}:")
    print(
        f"  weighted: chi2({weighted.df}) = {weighted.chi2_stat:8.2f}  "
        f"p = {weighted.p_value:.4f}"
    )
    print(
        f"  per-pattern: chi2({full.df}) = {full.chi2_stat:8.2f}  "
        f"p = {full.p_value:.4f}"
    )


def main():
    rng = np.random.default_rng(5)
    run("MCAR data (should not reject)", make_matrix(rng))
    run("shifted incomplete stratum (should reject)", make_matrix(rng, shift=0.25))


if __name__ == "__main__":
    main()
