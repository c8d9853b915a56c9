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
from .estimators import ScoreTables, inverse_hessian, resolve_weights

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
    """(n s' v^-1 s, its p-value, warnings); a failed solve or a negative
    statistic gets one retry with a diagonal ridge."""
    warnings = []
    if not np.any(statistic):
        return 0.0, 1.0, warnings
    for retry in (False, True):
        if retry:
            ridge = _RIDGE * float(np.trace(v)) / max(df, 1)
            warnings.append("gap covariance was singular; applied a diagonal ridge")
            v = v + ridge * np.eye(df)
        try:
            stat = float(n * statistic @ np.linalg.solve(v, statistic))
        except np.linalg.LinAlgError:
            continue
        if stat >= 0:
            return stat, float(stats.chi2.sf(stat, df)), warnings
    warnings.append("gap covariance singular even after ridge; p-value undefined")
    return None, None, warnings


def _gap_test(tables: ScoreTables, df: int, projection=None) -> DiagnosticReport:
    """The chi-square test of the stacked gaps, or of W = projection() times
    them.  With no nontrivial pattern, projection is not called, the
    statistic is identically zero and the p-value is 1."""
    if tables.n_patterns == 0:
        zero = np.zeros((0, tables.param_dim))
        return DiagnosticReport(np.zeros(df), np.zeros((df, df)), 0.0, df, 1.0, zero)
    w = None if projection is None else projection()
    gaps, v_t = _gap_moments(tables)
    statistic = gaps.reshape(-1)
    if w is not None:
        statistic, v_t = w @ statistic, w @ v_t @ w.T
    chi2_stat, p_value, warnings = _chi_square(statistic, v_t, tables.n_complete, df)
    return DiagnosticReport(statistic, v_t, chi2_stat, df, p_value, gaps, tuple(warnings))


def t_ipi_test(tables: ScoreTables, weights="tuned") -> DiagnosticReport:
    """Weighted transfer-gap test with chi-square df = p.

    The statistic averages the per-pattern gaps with weights lambda_r / R,
    W times the stacked gaps; its covariance is W V W' (module docstring).

    Args:
        weights: the weights to aggregate with, or a mode of
            estimators.WEIGHT_MODES (see estimators.resolve_weights).
    """
    big_r, p = tables.n_patterns, tables.param_dim

    def projection():
        lam = resolve_weights(tables, weights)[0].lam
        return np.kron(lam / big_r, np.eye(p))

    return _gap_test(tables, p, projection)


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
    df, n = tables.param_dim * tables.n_patterns, tables.n_complete
    if tables.n_patterns and df >= n / 2:
        raise DataError(
            f"stacked statistic dimension {df} is too large for {n} complete "
            "rows; use the weighted test instead"
        )
    return _gap_test(tables, df)


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
