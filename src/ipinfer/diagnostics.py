"""Diagnostics for the transferability assumption behind the corrections.

The estimator is centered only when, pattern by pattern, the mean imputed
gradient over a pattern's own rows matches the mean gradient of the same
imputation applied to masked complete rows.  Two chi-square tests probe
this: a weighted p-dimensional statistic aggregating the per-pattern gaps
with the tuned weights, and a stacked pR-dimensional statistic testing
every gap jointly.  The first stays calibrated as R grows; the second is
more sensitive to sparse single-pattern shifts but anti-conservative in
high dimensions.  Both read the score tables the estimator itself uses
(estimators.score_tables at the complete-case estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .errors import DataError
from .estimators import (
    ScoreTables,
    as_weights,
    inverse_hessian,
    sample_cov,
    tune_lambda,
)

# Both diagnostics read score tables, which these two build.  They stay
# bound here because perfbench/selftest.py checks that the benchmark's
# tracer wraps names imported into this module.
from .estimators import score_tables  # noqa: F401
from .losses import solve_complete_case  # noqa: F401

_RIDGE = 1e-8


@dataclass(frozen=True)
class DiagnosticReport:
    """Result of a transfer-gap test.

    Attributes:
        statistic: the tested vector (p for the weighted test, p*R stacked
            for the full test).
        v_t: its estimated covariance.
        chi2_stat: n * statistic' v_t^{-1} statistic, or None when v_t is
            singular beyond repair.
        df: chi-square degrees of freedom (p or p*R).
        p_value: upper-tail probability; None when undefined.
        gaps: (R, p) matrix of raw per-pattern gaps (no weights).
    """

    statistic: np.ndarray
    v_t: np.ndarray
    chi2_stat: float | None
    df: int
    p_value: float | None
    gaps: np.ndarray
    warnings: tuple[str, ...] = ()


def _per_pattern_gaps(tables: ScoreTables) -> np.ndarray:
    means, _ = tables.group_means
    big_r = tables.n_patterns
    return means[1 + big_r :] - means[1 : 1 + big_r]


def _transfer_rows(tables: ScoreTables) -> list[np.ndarray]:
    """Per-pattern complete-row contributions h_r used by both covariances.

    h_r,i couples the Hessian mismatch between imputed and masked rows with
    the complete-row score, plus the masked score itself.
    """
    _, hessians = tables.group_means
    big_r = tables.n_patterns
    hinv = inverse_hessian(tables.h_complete)
    rows = []
    for r in range(big_r):
        b = (hessians[1 + big_r + r] - hessians[1 + r]) @ hinv
        rows.append(tables.g_complete @ b.T + tables.g_masked[r])
    return rows


def _chi_square(statistic, v, n, df):
    warnings = []
    if not np.any(statistic):
        return 0.0, 1.0, warnings
    try:
        stat = float(n * statistic @ np.linalg.solve(v, statistic))
        if stat >= 0:
            return stat, float(stats.chi2.sf(stat, df)), warnings
    except np.linalg.LinAlgError:
        pass
    ridge = _RIDGE * float(np.trace(v)) / max(df, 1)
    warnings.append("gap covariance was singular; applied a diagonal ridge")
    try:
        v_r = v + ridge * np.eye(df)
        stat = float(n * statistic @ np.linalg.solve(v_r, statistic))
        if stat >= 0:
            return stat, float(stats.chi2.sf(stat, df)), warnings
    except np.linalg.LinAlgError:
        pass
    warnings.append("gap covariance singular even after ridge; p-value undefined")
    return None, None, warnings


def t_ipi_test(tables: ScoreTables, lambda_hat=None) -> DiagnosticReport:
    """Weighted transfer-gap test with chi-square df = p.

    The statistic averages the per-pattern gaps with weights lambda_r / R;
    its covariance combines the complete-row variance of the weighted
    transfer rows with the per-pattern imputed-score variances.

    Args:
        lambda_hat: weights to aggregate with; defaults to tuned weights.

    Returns:
        A DiagnosticReport; with no nontrivial patterns the statistic is
        identically zero and the p-value is 1.
    """
    p = tables.param_dim
    big_r = tables.n_patterns
    if big_r == 0:
        return DiagnosticReport(
            statistic=np.zeros(p),
            v_t=np.zeros((p, p)),
            chi2_stat=0.0,
            df=p,
            p_value=1.0,
            gaps=np.zeros((0, p)),
        )
    if lambda_hat is None:
        weights, _ = tune_lambda(tables)
    else:
        weights = as_weights(lambda_hat, big_r)
    _check_group_sizes(tables)
    gaps = _per_pattern_gaps(tables)
    lam = weights.lam
    statistic = (lam[:, None] * gaps).sum(axis=0) / big_r

    transfer = _transfer_rows(tables)
    weighted = np.zeros_like(tables.g_complete)
    for r in range(big_r):
        weighted += (lam[r] / big_r) * transfer[r]
    n = tables.n_complete
    v_t = sample_cov(weighted)
    for r in range(big_r):
        n_r = int(tables.counts[r])
        v_t += (lam[r] / big_r) ** 2 * (n / n_r) * sample_cov(tables.g_imputed[r])

    chi2_stat, p_value, warnings = _chi_square(statistic, v_t, n, p)
    return DiagnosticReport(
        statistic=statistic,
        v_t=v_t,
        chi2_stat=chi2_stat,
        df=p,
        p_value=p_value,
        gaps=gaps,
        warnings=tuple(warnings),
    )


def t_full_test(tables: ScoreTables) -> DiagnosticReport:
    """Stacked per-pattern transfer-gap test with chi-square df = p * R.

    Tests all R gaps jointly without weighting.  The covariance couples
    patterns through the complete rows (they share the masked scores) and
    adds each pattern's own imputed-score variance on its diagonal block.

    Raises:
        DataError: when p * R >= n / 2; the statistic's dimension makes the
            chi-square approximation unstable.
    """
    p = tables.param_dim
    big_r = tables.n_patterns
    n = tables.n_complete
    if big_r == 0:
        return DiagnosticReport(
            statistic=np.zeros(0),
            v_t=np.zeros((0, 0)),
            chi2_stat=0.0,
            df=0,
            p_value=1.0,
            gaps=np.zeros((0, p)),
        )
    df = p * big_r
    if df >= n / 2:
        raise DataError(
            f"stacked statistic dimension {df} is too large for {n} complete "
            "rows; use the weighted test instead"
        )
    _check_group_sizes(tables)
    gaps = _per_pattern_gaps(tables)
    statistic = gaps.reshape(-1)

    transfer = np.hstack(_transfer_rows(tables))  # (n, p * R)
    v_t = sample_cov(transfer)
    for r in range(big_r):
        n_r = int(tables.counts[r])
        block = slice(r * p, (r + 1) * p)
        v_t[block, block] += (n / n_r) * sample_cov(tables.g_imputed[r])

    chi2_stat, p_value, warnings = _chi_square(statistic, v_t, n, df)
    return DiagnosticReport(
        statistic=statistic,
        v_t=v_t,
        chi2_stat=chi2_stat,
        df=df,
        p_value=p_value,
        gaps=gaps,
        warnings=tuple(warnings),
    )


def _check_group_sizes(tables: ScoreTables) -> None:
    if tables.n_complete < 2 or (tables.counts < 2).any():
        raise DataError("diagnostics need at least 2 rows in every group")


def apply_gradient_shift(tables: ScoreTables, shifts) -> ScoreTables:
    """Add a per-pattern constant to the imputed-score tables.

    shifts[r] is added to every coordinate of pattern r+1's own imputed
    gradients.  Masked complete rows are untouched: the shift models a
    transfer failure between the pattern's rows and the complete rows, so
    it must not cancel.

    Args:
        shifts: scalar (applied to every pattern) or length-R vector.
    """
    big_r = tables.n_patterns
    shifts = np.asarray(shifts, dtype=float)
    if shifts.ndim == 0:
        shifts = np.full(big_r, float(shifts))
    if shifts.shape != (big_r,):
        raise DataError(f"expected {big_r} shifts, got shape {shifts.shape}")
    g_imputed = tuple(tables.g_imputed[r] + shifts[r] for r in range(big_r))
    return replace(tables, g_imputed=g_imputed)
