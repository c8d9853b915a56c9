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

Both tests share one covariance.  With (joint, imputed) = tables.score_cov,
H the complete-case Hessian and B_r = (H_imputed_r - H_masked_r) H^-1, the
stacked gaps have the (pR, pR) covariance

    V = T joint T' + blockdiag((n / n_r) imputed_r),

where row block r of T is [B_r, e_r (x) I_p]: the complete-row score coupled
through the Hessian mismatch, plus pattern r's masked score.  The full test
uses V as it is; the weighted test projects it with W = (lambda / R) (x) I_p
to W V W'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg, stats

from .errors import DataError
from .estimators import (
    ScoreTables,
    as_weights,
    inverse_hessian,
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


def _gap_moments(tables: ScoreTables) -> tuple[np.ndarray, np.ndarray]:
    """The (R, p) per-pattern gaps and the (pR, pR) covariance V of the
    stacked gaps (see the module docstring)."""
    means, hessians = tables.group_means
    big_r, p, n = tables.n_patterns, tables.param_dim, tables.n_complete
    joint, imputed = tables.score_cov
    mismatch = (hessians[1 + big_r :] - hessians[1 : 1 + big_r]) @ inverse_hessian(
        tables.h_complete
    )
    transfer = np.hstack((mismatch.reshape(-1, p), np.eye(big_r * p)))
    scaled = (n / tables.counts)[:, None, None] * imputed
    v = transfer @ joint @ transfer.T + linalg.block_diag(*scaled)
    return means[1 + big_r :] - means[1 : 1 + big_r], v


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

    The statistic averages the per-pattern gaps with weights lambda_r / R,
    W times the stacked gaps; its covariance is W V W' (module docstring).

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
    gaps, v = _gap_moments(tables)
    w = np.kron(weights.lam / big_r, np.eye(p))
    statistic = w @ gaps.reshape(-1)
    v_t = w @ v @ w.T

    chi2_stat, p_value, warnings = _chi_square(statistic, v_t, tables.n_complete, p)
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

    Tests all R gaps jointly without weighting.  The covariance V (module
    docstring) couples patterns through the complete rows (they share the
    masked scores) and adds each pattern's own imputed-score variance on its
    diagonal block.

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
    gaps, v_t = _gap_moments(tables)
    statistic = gaps.reshape(-1)

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
    shifted = tables.g_imputed + shifts[tables.pattern_imputed][:, None]
    return replace(tables, g_imputed=shifted)
