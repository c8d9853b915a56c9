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
    POPULATION,
    SUBPOPULATION,
    ScoreTables,
    TRACE_OBJECTIVE,
    confidence_interval,
    effective_sample_size,
    fit_from_tables,
    inverse_hessian,
    objective_coords,
    sample_cov,
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


def _plain_sandwich(
    loss: LossModel, x_matrix: np.ndarray, alpha: float, method: str, mcar: bool
) -> IPIFit:
    """M-estimate plus sandwich intervals treating x_matrix as observed."""
    theta = solve_mean_loss(loss, x_matrix)
    g = grad_matrix(loss, x_matrix, theta)
    h = mean_hessian(loss, x_matrix, theta)
    hinv = inverse_hessian(h)
    sigma = hinv @ sample_cov(g) @ hinv
    n = x_matrix.shape[0]
    se, ci, chi2_radius = confidence_interval(theta, sigma, n, alpha)
    return IPIFit(
        method=method,
        estimand=POPULATION if mcar else SUBPOPULATION,
        theta_hat=theta,
        se=se,
        ci=ci,
        alpha=alpha,
        variance=sigma,
        n_scale=n,
        chi2_radius=chi2_radius,
        hessian=h,
        hessian_mode=COMPLETE_CASE_HESSIAN,
        theta_complete=theta,
    )


def complete_case_fit(
    dataset: PatternedDataset, loss: LossModel, alpha: float = 0.1, mcar: bool = True
) -> IPIFit:
    """Drop all incomplete rows and run the standard sandwich fit."""
    x = dataset.complete_values()[:, list(dataset.target_dims)]
    fit = _plain_sandwich(loss, x, alpha, "complete_case", mcar)
    n_eff = np.full(loss.param_dim, float(fit.n_scale))
    return _with_n_effective(fit, n_eff)


def _with_n_effective(fit: IPIFit, n_eff: np.ndarray) -> IPIFit:
    return replace(fit, n_effective=n_eff)


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
    filled = imputer.fill(dataset.values)[:, list(dataset.target_dims)]
    fit = _plain_sandwich(loss, filled, alpha, "naive", mcar)
    cc = complete_case_fit(dataset, loss, alpha=alpha, mcar=mcar)
    n_eff = effective_sample_size(cc.width, fit.width, cc.n_scale)
    return _with_n_effective(fit, n_eff)


def _slice_tables(tables: ScoreTables, r: int) -> ScoreTables:
    """Single-pattern view of shared tables (pattern ids are 1-based)."""
    i = r - 1
    if not 0 <= i < tables.n_patterns:
        raise ConfigError(f"unknown pattern id {r}")
    return ScoreTables(
        loss=tables.loss,
        theta=tables.theta,
        counts=tables.counts[i : i + 1],
        g_complete=tables.g_complete,
        g_masked=(tables.g_masked[i],),
        g_imputed=(tables.g_imputed[i],),
        fold_complete=tables.fold_complete,
        fold_imputed=(tables.fold_imputed[i],),
        h_complete=tables.h_complete,
        h_folds=tables.h_folds[:, [0, 1 + i, 1 + tables.n_patterns + i]],
    )


def single_pattern_ipi(
    tables: ScoreTables,
    r: int,
    alpha: float = 0.1,
    lambda_mode: str = "tuned",
    objective=TRACE_OBJECTIVE,
    mcar: bool = True,
) -> IPIFit:
    """The estimator restricted to one pattern's correction (R = 1).

    Equivalent to running the full fit on the dataset with every other
    pattern's rows removed; computed by slicing the shared tables.
    """
    return fit_from_tables(
        _slice_tables(tables, r),
        lambda_mode=lambda_mode,
        alpha=alpha,
        hessian_mode=COMPLETE_CASE_HESSIAN,
        objective=objective,
        mcar=mcar,
        method=f"single_pattern:{r}",
    )


def best_single_pattern(
    tables: ScoreTables,
    alpha: float = 0.1,
    lambda_mode: str = "tuned",
    objective=TRACE_OBJECTIVE,
    mcar: bool = True,
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
        fit = single_pattern_ipi(
            tables, r,
            alpha=alpha, lambda_mode=lambda_mode, objective=objective, mcar=mcar,
        )
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
            _monomial_count(int(dataset.registry[r].mask.sum()))
            for r in range(1, dataset.n_patterns + 1)
        )
    )


def aipw_fit(
    dataset: PatternedDataset,
    loss: LossModel,
    alpha: float = 0.1,
    c1=None,
    mcar: bool = True,
) -> IPIFit:
    """Augmented inverse-probability-weighted one-step estimator.

    Starts from the complete-case estimate, projects the weighted score
    onto a per-pattern degree-two monomial augmentation by least squares,
    and takes one Newton step against the projected estimating equation.
    Restricted to the linear regression loss.

    The optional preconditioner c1 (a p x p matrix, or "optimize") is
    accepted for completeness: under the full least-squares projection the
    one-step estimate and sandwich are invariant to any nonsingular c1, so
    "optimize" simply uses the inverse Hessian.

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

    theta_n = solve_complete_case(dataset, loss)
    tdims = list(dataset.target_dims)
    complete_idx = dataset.rows_of(COMPLETE_PATTERN_ID)
    x_complete = dataset.values[complete_idx][:, tdims]
    g = grad_matrix(loss, x_complete, theta_n)
    hessian = mean_hessian(loss, x_complete, theta_n)
    p = loss.param_dim

    p0_hat = n / n_rows
    psi = np.zeros((n_rows, p))
    psi[complete_idx] = g / p0_hat

    if c1 is None:
        c1_matrix = np.eye(p)
    elif isinstance(c1, str):
        if c1 != "optimize":
            raise ConfigError(f"unknown c1 option {c1!r}")
        c1_matrix = inverse_hessian(hessian)
    else:
        c1_matrix = np.asarray(c1, dtype=float)
        if c1_matrix.shape != (p, p):
            raise ConfigError(f"c1 must be ({p}, {p})")

    score = psi @ c1_matrix.T
    if big_r > 0:
        aug = np.zeros((n_rows, q_a))
        col = 0
        for r in range(1, big_r + 1):
            obs = dataset.registry[r].observed_indices
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
        beta = _project(aug, score, warnings)
        phi = score - aug @ beta
    else:
        phi = score

    effective_h = c1_matrix @ hessian
    try:
        step = np.linalg.solve(effective_h, phi.mean(axis=0))
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("singular Hessian in the one-step update") from None
    theta = theta_n - step
    ehinv = inverse_hessian(effective_h)
    sigma = ehinv @ sample_cov(phi) @ ehinv.T
    se, ci, chi2_radius = confidence_interval(theta, sigma, n_rows, alpha)
    cc = complete_case_fit(dataset, loss, alpha=alpha, mcar=mcar)
    return IPIFit(
        method="aipw",
        estimand=POPULATION if mcar else SUBPOPULATION,
        theta_hat=theta,
        se=se,
        ci=ci,
        alpha=alpha,
        variance=sigma,
        n_scale=n_rows,
        chi2_radius=chi2_radius,
        hessian=effective_h,
        hessian_mode=COMPLETE_CASE_HESSIAN,
        n_effective=effective_sample_size(cc.width, ci[:, 1] - ci[:, 0], cc.n_scale),
        theta_complete=theta_n,
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
