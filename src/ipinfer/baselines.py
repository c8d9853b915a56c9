"""Reference estimators: complete-case, naive single imputation,
single-pattern restrictions, and an augmented inverse-probability baseline.

These share the IPIFit result shape so the harness and CLI can score them
interchangeably.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import ConfigError, DataError, RankDeficiencyError
from .estimators import (
    COMPLETE_CASE_HESSIAN,
    IPIFit,
    ScoreTables,
    TRACE_OBJECTIVE,
    fit_from_tables,
    inverse_hessian,
    objective_coords,
    one_step,
    sample_cov,
    summarize_fit,
)

# Kept bound here because perfbench/selftest.py checks that the benchmark's
# tracer wraps names imported into this module.
from .estimators import score_tables  # noqa: F401
from .losses import (
    LINEAR,
    LossModel,
    grad_matrix,
    mean_hessian,
    solve_complete_case,
    solve_mean_loss,
)
from .patterns import COMPLETE_PATTERN_ID, PatternedDataset

_GRAM_RIDGE = 1e-8


def _sandwich(loss: LossModel, x_matrix: np.ndarray, theta: np.ndarray):
    """Per-row scores, mean Hessian and sandwich variance at theta, treating
    x_matrix as observed."""
    g = grad_matrix(loss, x_matrix, theta)
    h = mean_hessian(loss, x_matrix, theta)
    hinv = inverse_hessian(h)
    return g, h, hinv @ sample_cov(g) @ hinv


def _complete_case(dataset: PatternedDataset, loss: LossModel):
    """The complete-case fit's pieces: (theta, scores, Hessian, sandwich
    variance) over the complete rows, in dataset order."""
    theta = solve_complete_case(dataset, loss)
    x = dataset.complete_values()[:, list(dataset.target_dims)]
    return (theta, *_sandwich(loss, x, theta))


def complete_case_fit(
    dataset: PatternedDataset, loss: LossModel, alpha: float = 0.1, mcar: bool = True
) -> IPIFit:
    """Drop all incomplete rows and run the standard sandwich fit."""
    theta, _, h, sigma = _complete_case(dataset, loss)
    return summarize_fit(
        "complete_case", theta, sigma, dataset.n_complete, alpha, mcar,
        hessian=h, hessian_mode=COMPLETE_CASE_HESSIAN,
    )


def naive_single_impute_fit(
    dataset: PatternedDataset,
    loss: LossModel,
    imputer,
    alpha: float = 0.1,
    mcar: bool = True,
) -> IPIFit:
    """Fill every missing cell once and fit as if the data were observed.

    The sandwich variance ignores imputation uncertainty entirely, which is
    the point of this baseline: its intervals undercover whenever the
    imputations carry error.
    """
    theta_cc, _, _, sigma_cc = _complete_case(dataset, loss)
    filled = imputer.fill(dataset.values)[:, list(dataset.target_dims)]
    theta = solve_mean_loss(loss, filled)
    _, h, sigma = _sandwich(loss, filled, theta)
    return summarize_fit(
        "naive", theta, sigma, filled.shape[0], alpha, mcar,
        baseline=(theta_cc, sigma_cc, dataset.n_complete),
        hessian=h, hessian_mode=COMPLETE_CASE_HESSIAN,
    )


def _slice_tables(tables: ScoreTables, r: int) -> ScoreTables:
    """Single-pattern view of shared tables (pattern ids are 1-based)."""
    i = r - 1
    if not 0 <= i < tables.n_patterns:
        raise ConfigError(f"unknown pattern id {r}")
    rows = tables.pattern_imputed == i
    return replace(
        tables,
        g_masked=tables.g_masked[i : i + 1],
        g_imputed=tables.g_imputed[rows],
        pattern_imputed=tables.pattern_imputed[rows] - i,
        fold_imputed=tables.fold_imputed[rows],
        h_folds=tables.h_folds[:, [0, 1 + i, 1 + tables.n_patterns + i]],
    )


def single_pattern_ipi(
    tables: ScoreTables, r: int, alpha: float = 0.1, objective=TRACE_OBJECTIVE
) -> IPIFit:
    """The estimator restricted to one pattern's correction (R = 1), with
    tuned weights.

    Equivalent to running the full fit on the dataset with every other
    pattern's rows removed; computed by slicing the shared tables.
    """
    return fit_from_tables(
        _slice_tables(tables, r),
        alpha=alpha,
        hessian_mode=COMPLETE_CASE_HESSIAN,
        objective=objective,
        method=f"single_pattern:{r}",
    )


def best_single_pattern(
    tables: ScoreTables, alpha: float = 0.1, objective=TRACE_OBJECTIVE
) -> tuple[IPIFit, int]:
    """Single-pattern fit maximizing plug-in effective sample size.

    Returns:
        (fit, pattern_id) for the winning pattern; ties break to the lower
        pattern id.
    """
    if tables.n_patterns == 0:
        raise DataError("no nontrivial patterns to restrict to")
    coords = objective_coords(objective, tables.param_dim)
    best = None
    for r in range(1, tables.n_patterns + 1):
        fit = single_pattern_ipi(tables, r, alpha=alpha, objective=objective)
        score = float(np.sum(np.diag(fit.variance)[coords]))
        if best is None or score < best[0]:
            best = (score, fit, r)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# augmented inverse-probability weighting (linear regression only)


def monomial_features(values: np.ndarray) -> np.ndarray:
    """Degree-two monomial basis over the given columns.

    Layout: constant 1, linear terms in column order, then products
    x_i * x_j for i <= j in lexicographic order (squares included).
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    m, k = values.shape
    blocks = [np.ones((m, 1)), values]
    for i in range(k):
        blocks.append(values[:, i : i + 1] * values[:, i:])
    return np.hstack(blocks)


def _monomial_count(d_r: int) -> int:
    return 1 + d_r + d_r * (d_r + 1) // 2


def augmentation_dimension(dataset: PatternedDataset) -> int:
    """Total stacked feature count across the nontrivial patterns."""
    return int(
        sum(
            _monomial_count(int(dataset.masks[r].sum()))
            for r in range(1, dataset.n_patterns + 1)
        )
    )


def aipw_fit(
    dataset: PatternedDataset,
    loss: LossModel,
    alpha: float = 0.1,
    mcar: bool = True,
) -> IPIFit:
    """Augmented inverse-probability-weighted one-step estimator.

    Starts from the complete-case estimate, projects the weighted score
    onto a per-pattern degree-two monomial augmentation by least squares,
    and takes one Newton step against the projected estimating equation.
    Restricted to the linear regression loss.  Under the full least-squares
    projection the estimate and the sandwich do not depend on a
    preconditioner of the score, so none is applied.

    Raises:
        DataError: when the stacked augmentation dimension exceeds N/2 (the
            projection would be hopelessly unstable).
    """
    if loss.family != LINEAR:
        raise ConfigError("this baseline is defined for linear regression only")
    n_rows = dataset.n_rows
    n = dataset.n_complete
    big_r = dataset.n_patterns
    q_a = augmentation_dimension(dataset)
    warnings: list[str] = []
    if big_r > 0 and q_a > n_rows / 2:
        raise DataError(
            f"augmentation dimension {q_a} exceeds half the sample size "
            f"{n_rows}; the projection is unstable"
        )

    theta_n, g, hessian, sigma_cc = _complete_case(dataset, loss)
    complete_idx = dataset.rows_of(COMPLETE_PATTERN_ID)
    p = loss.param_dim

    p0_hat = n / n_rows
    psi = np.zeros((n_rows, p))
    psi[complete_idx] = g / p0_hat

    if big_r > 0:
        aug = np.zeros((n_rows, q_a))
        col = 0
        for r in range(1, big_r + 1):
            obs = np.flatnonzero(dataset.masks[r])
            width = _monomial_count(obs.size)
            aug[complete_idx, col : col + width] = (
                monomial_features(dataset.values[np.ix_(complete_idx, obs)]) / p0_hat
            )
            rows_r = dataset.rows_of(r)
            p_r_hat = rows_r.size / n_rows
            aug[rows_r, col : col + width] = (
                -monomial_features(dataset.values[np.ix_(rows_r, obs)]) / p_r_hat
            )
            col += width
        beta = _project(aug, psi, warnings)
        phi = psi - aug @ beta
    else:
        phi = psi

    theta = one_step(theta_n, hessian, phi.mean(axis=0))
    hinv = inverse_hessian(hessian)
    return summarize_fit(
        "aipw", theta, hinv @ sample_cov(phi) @ hinv.T, n_rows, alpha, mcar,
        baseline=(theta_n, sigma_cc, n),
        hessian=hessian,
        hessian_mode=COMPLETE_CASE_HESSIAN,
        warnings=tuple(warnings),
    )


def _project(aug: np.ndarray, score: np.ndarray, warnings: list[str]) -> np.ndarray:
    """Least-squares coefficients of each score column on the augmentation."""
    gram = aug.T @ aug
    rhs = aug.T @ score
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        pass
    warnings.append("augmentation Gram matrix was singular; applied a ridge")
    ridge = _GRAM_RIDGE * float(np.trace(gram))
    gram = gram + ridge * np.eye(gram.shape[0])
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError(
            "augmentation Gram matrix singular even after ridge"
        ) from None
