"""Imputation-powered inference for M-estimation under blockwise missing data.

The estimator combines the complete-case estimate with pattern-specific
correction terms built from an imputation model: for each missingness
pattern, the mean imputed-data gradient over that pattern's rows enters
with weight lambda_r, debiased by the same imputation applied to masked
complete rows.  With the convention used throughout this package the
population objective is

    L(theta; lambda) = mean over patterns r of
        lambda_r * P_imputed_r[l] + P_complete[l - lambda_r * l_masked_r]

so lambda = 0 recovers the complete-case estimator and the pooled weights
lambda_r = R * n_r / n_total recover single-model imputation averaging.
Estimation is one Newton step from the complete-case solution; the
per-pattern weights can be tuned in closed form to minimize the estimated
asymptotic variance.  The cross-fitted variant (fold-wise imputers,
bootstrap variance) avoids overfitting bias when the imputer is trained
in-sample; its objective is the mean of the K per-fold objectives, and a
single imputer is the K = 1 case of the same score tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy import stats

from .errors import (
    ConfigError,
    DataError,
    NumericError,
    RankDeficiencyError,
)
from .imputers import ImputationModel, fit as fit_imputer
from .losses import LossModel, grad_matrix, mean_hessian, solve_complete_case
from .patterns import PatternedDataset

COMPLETE_CASE_HESSIAN = "complete_case_hessian"
FULL_IPI_HESSIAN = "full_ipi_hessian"
HESSIAN_MODES = (COMPLETE_CASE_HESSIAN, FULL_IPI_HESSIAN)

TRACE_OBJECTIVE = "trace"

# the modes resolve_weights turns into pattern weights; weights given as
# values carry the mode label "fixed"
WEIGHT_MODES = ("tuned", "pooled", "zero")

POPULATION = "population"
SUBPOPULATION = "subpopulation"

_TUNING_RIDGE = 1e-8
_CROSS_FIT_ATTEMPTS = 100
_BOOTSTRAP_ATTEMPTS = 100


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class TuningWeights:
    """Per-pattern weights lambda, one per nontrivial pattern."""

    lam: np.ndarray
    mode: str
    fallback: bool = False

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=float).reshape(-1).copy()
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    @property
    def n_patterns(self) -> int:
        return int(self.lam.size)


def zero_weights(n_patterns: int) -> TuningWeights:
    return TuningWeights(np.zeros(n_patterns), "zero")


def as_weights(lam, n_patterns: int) -> TuningWeights:
    """Validated weights from TuningWeights, a scalar (one weight for every
    pattern) or a length-R vector ("fixed" mode)."""
    if isinstance(lam, TuningWeights):
        w = lam
    else:
        arr = np.asarray(lam, dtype=float)
        if arr.ndim == 0:
            arr = np.full(n_patterns, float(arr))
        w = TuningWeights(arr, "fixed")
    if w.n_patterns != n_patterns:
        raise ConfigError(
            f"{w.n_patterns} weights given for {n_patterns} patterns"
        )
    if not np.isfinite(w.lam).all():
        raise ConfigError("pattern weights must be finite")
    return w


# ---------------------------------------------------------------------------
# score tables


@dataclass(frozen=True)
class ScoreTables:
    """Per-row gradients and per-fold mean Hessians at a reference parameter.

    Everything lambda-independent is computed once here; gradients,
    Hessians, variances, tuning, and diagnostics all read from the same
    tables.  g_masked[r] aligns row-for-row with g_complete (complete rows
    masked by pattern r+1 and re-imputed); g_imputed holds the incomplete
    rows sorted by pattern, pattern_imputed[i] = r for pattern r+1's rows.
    Every row carries the id of the fold whose imputer filled it (a masked
    row its complete row's): all zero for a single imputer (K = 1), 0..K-1
    for cross-fitted tables.  h_folds[j] holds fold j's mean Hessians of the
    1 + 2R row groups: the complete rows, the R masked groups, then the R
    pattern groups.  h_complete is the mean Hessian over all complete rows.
    """

    loss: LossModel
    theta: np.ndarray
    g_complete: np.ndarray  # (n, p)
    g_masked: np.ndarray  # (R, n, p)
    g_imputed: np.ndarray  # (N - n, p), sorted by pattern
    pattern_imputed: np.ndarray  # (N - n,) pattern index r in 0..R-1
    fold_complete: np.ndarray  # (n,)
    fold_imputed: np.ndarray  # (N - n,)
    h_complete: np.ndarray  # (p, p)
    h_folds: np.ndarray  # (K, 1 + 2R, p, p)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.pattern_imputed) < 0):
            raise DataError("imputed score rows must be sorted by pattern")

    @property
    def n_complete(self) -> int:
        return int(self.g_complete.shape[0])

    @property
    def n_patterns(self) -> int:
        return int(self.g_masked.shape[0])

    @property
    def param_dim(self) -> int:
        return int(self.g_complete.shape[1])

    @property
    def k_folds(self) -> int:
        return int(self.h_folds.shape[0])

    @cached_property
    def counts(self) -> np.ndarray:
        """(R,) rows per pattern."""
        return np.bincount(self.pattern_imputed, minlength=self.n_patterns)

    def _by_pattern(self, rows: np.ndarray) -> list[np.ndarray]:
        """The R per-pattern slices of an array aligned with g_imputed."""
        return np.split(rows, np.cumsum(self.counts)[:-1])[: self.n_patterns]

    @cached_property
    def group_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Fold-averaged group means of the gradients and the Hessians.

        Groups are ordered as in h_folds: complete rows, the R masked groups,
        then the R pattern groups.  Each group is averaged within every fold
        and the K fold means are averaged, so the cross-fitted objective is
        the mean of the K per-fold objectives and unfolded tables (K = 1) give
        the plain group means.  Computed once per (frozen) tables object and
        returned read-only.

        Returns:
            (gradient means (1 + 2R, p), mean Hessians (1 + 2R, p, p)).
        """
        big_r = self.n_patterns
        groups = [self.g_complete, *self.g_masked, *self._by_pattern(self.g_imputed)]
        folds = [self.fold_complete] * (1 + big_r) + self._by_pattern(self.fold_imputed)
        means = np.empty((self.k_folds, len(groups), self.param_dim))
        for i, (rows, row_folds) in enumerate(zip(groups, folds)):
            for j in range(self.k_folds):
                in_fold = row_folds == j
                count = np.count_nonzero(in_fold)
                if count == 0:
                    where = "complete rows" if i == 0 else f"rows of pattern {i - big_r}"
                    raise DataError(f"fold {j} has no {where}")
                # A masked sum keeps the summation order of rows.mean(axis=0)
                # when the fold holds every row, so K = 1 gives the same bits.
                means[j, i] = np.add.reduce(rows, axis=0, where=in_fold[:, None]) / count
        out = means.mean(axis=0), self.h_folds.mean(axis=0)
        for array in out:
            array.flags.writeable = False
        return out

    @cached_property
    def score_cov(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample covariances of the per-row scores: the one input of the
        sandwich variance, the weight tuning and both transfer-gap tests.

        Computed once per (frozen) tables object and returned read-only.

        Returns:
            (joint ((1 + R) p, (1 + R) p): the covariance of each complete
            row's stacked scores [g_complete, g_masked[0], ...,
            g_masked[R-1]]; imputed (R, p, p): the covariance of each
            pattern's own imputed scores).

        Raises:
            DataError: when the complete rows or a pattern hold fewer than
                2 rows.
        """
        per_pattern = self._by_pattern(self.g_imputed)
        groups = [("complete rows", self.g_complete)]
        groups += [(f"pattern {r + 1}", g) for r, g in enumerate(per_pattern)]
        for where, rows in groups:
            if rows.shape[0] < 2:
                raise DataError(
                    f"{where} has {rows.shape[0]} rows; the score covariances "
                    "need at least 2 rows per group"
                )
        p = self.param_dim
        joint = sample_cov(np.hstack((self.g_complete, *self.g_masked)))
        imputed = np.array([sample_cov(g) for g in per_pattern]).reshape(-1, p, p)
        for array in (joint, imputed):
            array.flags.writeable = False
        return joint, imputed


def score_tables(
    dataset: PatternedDataset,
    loss: LossModel,
    imputer,
    theta,
) -> ScoreTables:
    """Build the shared gradient/Hessian tables at a reference parameter.

    Args:
        dataset: the partitioned data.
        loss: loss acting on the dataset's target dims.
        imputer: a fitted ImputationModel, or a FoldedImputers bundle for
            the cross-fitted variant (each row filled by the model trained
            without its fold).  A single model is the one-fold bundle.
        theta: reference parameter, usually the complete-case estimate.
    """
    if not isinstance(imputer, FoldedImputers):
        imputer = FoldedImputers(np.zeros(dataset.n_rows, dtype=int), (imputer,))
    if imputer.fold_ids.shape != (dataset.n_rows,):
        raise ConfigError("fold ids do not align with the dataset rows")
    models = imputer.models
    return _build_tables(
        dataset, loss, theta, imputer.fold_ids, imputer.k_folds,
        lambda j, rows, row_ids: models[j].fill(rows),
    )


def _build_tables(dataset, loss, theta, fold_ids, k_folds, fill) -> ScoreTables:
    """Tables from fold-wise fills, one fill call per fold.

    The rows stack in the 1 + 2R groups of h_folds: the complete rows, the
    complete rows masked by each pattern, then the incomplete rows by
    pattern.  fill(j, rows, row_ids) imputes fold j's masked and incomplete
    rows (at row_ids in the dataset) in one batch, on which no row's fill
    depends.  Groups, and their rows within a fold, are contiguous slices.
    """
    theta = np.asarray(theta, dtype=float)
    tdims = list(dataset.target_dims)
    big_r, p, n = dataset.n_patterns, loss.param_dim, dataset.n_complete
    order = np.argsort(dataset.pattern_ids, kind="stable")
    complete_rows = dataset.values[order[:n]]
    masked = np.where(dataset.masks[1:, None, :], complete_rows, np.nan)
    stacked = np.vstack((complete_rows, *masked, dataset.values[order[n:]]))
    row_ids = np.concatenate((np.tile(order[:n], 1 + big_r), order[n:]))
    groups = np.repeat(np.arange(1 + big_r), n)
    groups = np.concatenate((groups, big_r + dataset.pattern_ids[order[n:]]))
    folds = fold_ids[row_ids]
    starts = np.arange(1, 1 + 2 * big_r)  # of groups 1..2R in a sorted selection
    h_folds = np.full((k_folds, 1 + 2 * big_r, p, p), np.nan)
    for j in range(k_folds):
        in_fold = np.flatnonzero(folds == j)
        to_fill = in_fold[groups[in_fold] > 0]
        if to_fill.size:
            stacked[to_fill] = fill(j, stacked[to_fill], row_ids[to_fill])
        bounds = np.searchsorted(groups[in_fold], starts)
        for group, cell in enumerate(np.split(stacked[in_fold][:, tdims], bounds)):
            if len(cell):
                h_folds[j, group] = mean_hessian(loss, cell, theta)

    # one call per group: the BLAS batches, and so the rounding, of tests/oracles.py
    parts = np.split(stacked[:, tdims], np.searchsorted(groups, starts))
    g = np.concatenate([grad_matrix(loss, part, theta) for part in parts])
    return ScoreTables(
        loss=loss,
        theta=theta,
        g_complete=g[:n],
        g_masked=g[n : n + big_r * n].reshape(big_r, n, p),
        g_imputed=g[n + big_r * n :],
        pattern_imputed=dataset.pattern_ids[order[n:]] - 1,
        fold_complete=folds[:n],
        fold_imputed=folds[n + big_r * n :],
        h_complete=mean_hessian(loss, complete_rows[:, tdims], theta),
        h_folds=h_folds,
    )


# ---------------------------------------------------------------------------
# gradient, Hessians, one-step estimate


def ipi_grad(tables: ScoreTables, lam) -> np.ndarray:
    """Gradient of the weighted imputation-powered objective at tables.theta."""
    return _weighted(tables.group_means[0], as_weights(lam, tables.n_patterns).lam)


def full_ipi_hessian(tables: ScoreTables, lam) -> np.ndarray:
    """Hessian of the weighted objective itself (plug-in form)."""
    return _weighted(tables.group_means[1], as_weights(lam, tables.n_patterns).lam)


def _weighted(means: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """means[0] + sum_r (lam_r / R) (means[1 + R + r] - means[1 + r]) over
    the 1 + 2R group means of the gradient or the Hessian."""
    big_r = lam.size
    out = means[0].copy()
    for r in range(big_r):
        out = out + (lam[r] / big_r) * (means[1 + big_r + r] - means[1 + r])
    return out


def _select_hessian(tables: ScoreTables, weights: TuningWeights, hessian_mode: str):
    if hessian_mode == COMPLETE_CASE_HESSIAN:
        return tables.h_complete
    if hessian_mode == FULL_IPI_HESSIAN:
        return full_ipi_hessian(tables, weights)
    raise ConfigError(
        f"unknown hessian mode {hessian_mode!r}; expected one of {HESSIAN_MODES}"
    )


def ipi_point_estimate(
    tables: ScoreTables, lam, hessian_mode: str = COMPLETE_CASE_HESSIAN
) -> np.ndarray:
    """One Newton step from tables.theta (the complete-case estimate) along
    the weighted objective."""
    weights = as_weights(lam, tables.n_patterns)
    hessian = _select_hessian(tables, weights, hessian_mode)
    return one_step(tables.theta, hessian, ipi_grad(tables, weights))


def one_step(theta, hessian, gradient) -> np.ndarray:
    """One Newton step from theta: theta - hessian^-1 gradient."""
    try:
        step = np.linalg.solve(hessian, gradient)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("singular Hessian in the one-step update") from None
    return theta - step


# ---------------------------------------------------------------------------
# variance


def sample_cov(rows: np.ndarray) -> np.ndarray:
    """Sample covariance (ddof=1) of row vectors, always (p, p)."""
    m = rows.shape[0]
    if m < 2:
        raise DataError("covariance needs at least 2 rows")
    centered = rows - rows.mean(axis=0)
    return centered.T @ centered / (m - 1)


def inverse_hessian(hessian: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(hessian)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("singular Hessian in variance sandwich") from None


def estimate_variance(tables: ScoreTables, lam, hessian=None) -> np.ndarray:
    """Plug-in sandwich estimate of the asymptotic covariance of the estimator.

    With (joint, imputed) = tables.score_cov and U = [1, -lambda / R] (x) I_p,
    the estimate is

        H^-1 (U joint U' + sum_r (lambda_r / R)^2 (n / n_r) imputed_r) H^-1,

    the covariance of the lambda-corrected complete-row scores plus the
    per-pattern imputed-score covariances.  Divide by the complete-row count
    to get the finite-sample covariance of the estimate.

    Args:
        hessian: sandwich curvature H; defaults to the complete-case Hessian.
    """
    lam = as_weights(lam, tables.n_patterns).lam
    if hessian is None:
        hessian = tables.h_complete
    big_r = tables.n_patterns
    joint, imputed = tables.score_cov
    u = np.kron(np.concatenate(([1.0], -lam / big_r)), np.eye(tables.param_dim))
    scale = (lam / big_r) ** 2 * (tables.n_complete / tables.counts)
    v = u @ joint @ u.T + np.tensordot(scale, imputed, axes=1)
    hinv = inverse_hessian(np.asarray(hessian, dtype=float))
    return hinv @ v @ hinv


# ---------------------------------------------------------------------------
# weight tuning


@dataclass(frozen=True)
class TuningComponents:
    """Quadratic pieces of the variance in lambda, summed over the target
    coordinates: variance(lambda) / n = const + lam' (a + c) lam / R^2
    - 2 b' lam / R.

    With M the rows of H^-1 (H the complete-case Hessian) at the target
    coordinates, (joint, imputed) = tables.score_cov and joint_rs its (p, p)
    block for stacked scores r and s (0 the complete score, 1..R the masked
    ones): a_rr = tr(M imputed_r M') / n_r, b_r = tr(M joint_0r M') / n and
    c_rs = tr(M joint_rs M') / n.
    """

    a: np.ndarray  # (R, R) diagonal: imputed-score variances / n_r
    c: np.ndarray  # (R, R): masked-score covariances / n
    b: np.ndarray  # (R,): complete/masked cross-covariances / n

    def objective(self, lam) -> float:
        lam = np.asarray(lam, dtype=float)
        big_r = self.b.size
        quad = lam @ (self.a + self.c) @ lam / big_r**2
        return float(quad - 2.0 * self.b @ lam / big_r)


def tuning_components(tables: ScoreTables, objective=TRACE_OBJECTIVE) -> TuningComponents:
    """Assemble the per-pattern variance components for weight tuning.

    Args:
        objective: "trace" to sum over all coordinates, or a coordinate
            index to target one parameter.
    """
    coords = objective_coords(objective, tables.param_dim)
    m = inverse_hessian(tables.h_complete)[coords]
    big_r, p = tables.n_patterns, tables.param_dim
    joint, imputed = tables.score_cov
    blocks = joint.reshape(1 + big_r, p, 1 + big_r, p)
    traced = np.einsum("jk,akbl,jl->ab", m, blocks, m) / tables.n_complete
    a = np.diag(np.einsum("jk,rkl,jl->r", m, imputed, m) / tables.counts)
    return TuningComponents(a, traced[1:, 1:], traced[0, 1:])


def objective_coords(objective, p: int) -> np.ndarray:
    """Parameter coordinates a tuning objective sums over."""
    if objective == TRACE_OBJECTIVE or objective is None:
        return np.arange(p)
    j = int(objective)
    if not 0 <= j < p:
        raise ConfigError(f"objective coordinate {j} out of range for p={p}")
    return np.array([j])


def _pooled_lam(counts: np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        return counts
    total = counts.sum()
    if total == 0:
        raise DataError("pooled weights need at least one incomplete row")
    return counts.size * counts / total


def tune_lambda(
    tables: ScoreTables, objective=TRACE_OBJECTIVE
) -> tuple[TuningWeights, TuningComponents | None]:
    """Closed-form variance-minimizing pattern weights.

    Solves ((A + C) / R + eps I) lambda = b with a relative ridge
    eps = 1e-8 * trace(A + C) / R.  If the system is singular or produces
    non-finite weights, falls back to pooled weights and flags it.  The
    sandwich being minimized has the complete-case Hessian.

    Returns:
        (weights, components); components is None when R = 0.
    """
    big_r = tables.n_patterns
    if big_r == 0:
        return TuningWeights(np.zeros(0), "tuned"), None
    comp = tuning_components(tables, objective)
    m = (comp.a + comp.c) / big_r
    eps = _TUNING_RIDGE * float(np.trace(comp.a + comp.c)) / big_r
    m = m + eps * np.eye(big_r)
    try:
        lam = np.linalg.solve(m, comp.b)
    except np.linalg.LinAlgError:
        lam = None
    if lam is None or not np.isfinite(lam).all():
        return TuningWeights(_pooled_lam(tables.counts), "tuned", fallback=True), comp
    return TuningWeights(lam, "tuned"), comp


# ---------------------------------------------------------------------------
# intervals and fit bundles


def confidence_interval(theta, variance, n: int, alpha: float):
    """Per-coordinate normal intervals and the joint ellipsoid radius.

    Returns:
        (se, ci, chi2_radius): se[j] = sqrt(variance[j, j] / n), ci is
        (p, 2), and {t: (t - theta)' variance^{-1} (t - theta) <=
        chi2_radius} is the joint 1 - alpha confidence ellipsoid.
    """
    theta = np.asarray(theta, dtype=float)
    variance = np.asarray(variance, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if n < 1:
        raise DataError("interval scaling needs n >= 1")
    diag = np.diag(variance)
    if (diag < -1e-12).any():
        raise NumericError("negative variance estimate")
    se = np.sqrt(np.maximum(diag, 0.0) / n)
    z, chi2_quantile = _critical_values(float(alpha), int(theta.size))
    if not np.isfinite(z):
        raise ConfigError(f"alpha {alpha} is too small for a bounded interval")
    ci = np.column_stack([theta - z * se, theta + z * se])
    chi2_radius = float(chi2_quantile / n)
    return se, ci, chi2_radius


@lru_cache(maxsize=64)
def _critical_values(alpha: float, p: int):
    """The two-sided normal quantile and the chi-square(p) quantile at
    level 1 - alpha; every fit at one (alpha, p) reuses them."""
    return stats.norm.ppf(1.0 - alpha / 2.0), stats.chi2.ppf(1.0 - alpha, df=p)


def effective_sample_size(baseline_width, method_width, n: int) -> np.ndarray:
    """Complete rows the baseline would need to match the method's width:
    n * (baseline_width / method_width)^2, elementwise."""
    wb = np.asarray(baseline_width, dtype=float)
    wm = np.asarray(method_width, dtype=float)
    if (wb <= 0).any() or (wm <= 0).any():
        raise DataError(
            "zero-width interval: effective sample sizes need positive "
            "interval widths; does a coordinate have no spread in the data?"
        )
    return n * (wb / wm) ** 2


@dataclass(frozen=True)
class IPIFit:
    """A fitted estimator with its uncertainty summary.

    Attributes:
        theta_hat: point estimate (p,).
        se: per-coordinate standard errors.
        ci: (p, 2) two-sided 1 - alpha intervals.
        variance: asymptotic sandwich covariance; se = sqrt(diag / n_scale).
        n_scale: the count dividing the variance (complete rows for the
            pattern-weighted estimators, all rows for the inverse-probability
            baseline).
        weights: the pattern weights used, if any.
        hessian: the curvature matrix used for the one-step and sandwich.
        n_effective: per-coordinate complete-case-equivalent sample sizes.
        chi2_radius: joint confidence ellipsoid radius for the variance.
        estimand: "population" under the missing-completely-at-random
            first-moment assumption, else "subpopulation" (the complete-row
            stratum's parameter).
    """

    method: str
    estimand: str
    theta_hat: np.ndarray
    se: np.ndarray
    ci: np.ndarray
    alpha: float
    variance: np.ndarray
    n_scale: int
    chi2_radius: float
    weights: TuningWeights | None = None
    hessian: np.ndarray | None = None
    hessian_mode: str | None = None
    n_effective: np.ndarray | None = None
    theta_complete: np.ndarray | None = None
    warnings: tuple[str, ...] = ()

    @property
    def width(self) -> np.ndarray:
        return self.ci[:, 1] - self.ci[:, 0]


def summarize_fit(
    method: str,
    theta,
    variance,
    n: int,
    alpha: float,
    mcar: bool,
    baseline=None,
    **detail,
) -> IPIFit:
    """The one builder of IPIFit: intervals, estimand label and effective
    sample size for a point estimate and its variance.

    Args:
        n: the count dividing the variance (n_scale).
        baseline: the complete-case (theta, variance, n) on the same rows,
            which n_effective and theta_complete report against; None when
            the fit is the complete-case fit itself, so n_effective = n.
        detail: the other IPIFit fields.
    """
    se, ci, chi2_radius = confidence_interval(theta, variance, n, alpha)
    if baseline is None:
        theta_complete, n_effective = theta, np.full(se.size, float(n))
    else:
        theta_complete, variance_cc, n_cc = baseline
        _, ci_cc, _ = confidence_interval(theta_complete, variance_cc, n_cc, alpha)
        n_effective = effective_sample_size(
            ci_cc[:, 1] - ci_cc[:, 0], ci[:, 1] - ci[:, 0], n_cc
        )
    return IPIFit(
        method=method,
        estimand=POPULATION if mcar else SUBPOPULATION,
        theta_hat=theta,
        se=se,
        ci=ci,
        alpha=alpha,
        variance=variance,
        n_scale=n,
        chi2_radius=chi2_radius,
        n_effective=n_effective,
        theta_complete=theta_complete,
        **detail,
    )


def resolve_weights(
    tables: ScoreTables, weights, objective=TRACE_OBJECTIVE
) -> tuple[TuningWeights, list[str]]:
    """Pattern weights, with any warning the choice raised.

    Args:
        weights: a mode of WEIGHT_MODES -- "tuned" (closed-form variance
            minimizer at the complete-case Hessian), "pooled" or "zero"
            (complete-case) -- or the weights themselves, in any form
            as_weights takes (mode "fixed").
        objective: "trace" or a coordinate index for tuning.
    """
    if not isinstance(weights, str):
        return as_weights(weights, tables.n_patterns), []
    if weights not in WEIGHT_MODES:
        raise ConfigError(
            f"unknown weight mode {weights!r}; expected one of "
            f"{', '.join(WEIGHT_MODES)}, or the weights themselves"
        )
    if weights == "pooled":
        return TuningWeights(_pooled_lam(tables.counts), "pooled"), []
    if weights == "zero":
        return zero_weights(tables.n_patterns), []
    tuned, _ = tune_lambda(tables, objective)
    if tuned.fallback:
        return tuned, ["weight tuning system was singular; fell back to pooled weights"]
    return tuned, []


def fit_from_tables(
    tables: ScoreTables,
    weights="tuned",
    alpha: float = 0.1,
    hessian_mode: str | None = None,
    objective=TRACE_OBJECTIVE,
    mcar: bool = True,
    method: str = "ipi",
    variance=estimate_variance,
) -> IPIFit:
    """Weight, step, and summarize on score tables built at the
    complete-case estimate.

    The fit warns when some coordinate's n_effective exceeds the rows the
    tables hold, complete and incomplete: no honest fit beats having every
    row complete by more than noise, so the likely cause is an imputer
    trained on the rows it fills.

    Args:
        weights: a mode of WEIGHT_MODES or the weights themselves (see
            resolve_weights).
        hessian_mode: defaults to the complete-case Hessian under mcar=True
            and to the full objective Hessian otherwise.
        objective: "trace" or a coordinate index for tuning.
        mcar: whether the first-moment missing-completely-at-random
            assumption is asserted; controls the estimand label and the
            default Hessian.
        method: the label the fit carries.
        variance: variance(tables, weights, hessian) gives the sandwich
            covariance; the plug-in estimate_variance unless a caller
            swaps it.
    """
    if hessian_mode is None:
        hessian_mode = COMPLETE_CASE_HESSIAN if mcar else FULL_IPI_HESSIAN
    weights, warnings = resolve_weights(tables, weights, objective)
    hessian = _select_hessian(tables, weights, hessian_mode)
    theta = one_step(tables.theta, hessian, ipi_grad(tables, weights))
    sigma = variance(tables, weights, hessian)
    sigma_cc = estimate_variance(tables, zero_weights(tables.n_patterns))
    n = tables.n_complete
    fit = summarize_fit(
        method, theta, sigma, n, alpha, mcar,
        baseline=(tables.theta, sigma_cc, n),
        weights=weights,
        hessian=hessian,
        hessian_mode=hessian_mode,
    )
    n_rows = n + int(tables.counts.sum())
    j = int(np.argmax(fit.n_effective))
    if fit.n_effective[j] > n_rows:
        warnings.append(
            f"n_effective[{j}] = {fit.n_effective[j]:.0f} exceeds the {n_rows} "
            "rows of the data; was the imputer trained on the rows it fills?"
        )
    return replace(fit, warnings=tuple(warnings))


def ipi_fit(
    dataset: PatternedDataset,
    loss: LossModel,
    imputer: ImputationModel,
    weights="tuned",
    alpha: float = 0.1,
    hessian_mode: str | None = None,
    objective=TRACE_OBJECTIVE,
    mcar: bool = True,
) -> IPIFit:
    """Full imputation-powered fit: solve, build the score tables, weight,
    correct, and summarize (see fit_from_tables for the options).

    Args:
        imputer: a fitted imputation model.  Train it on held-out rows (see
            split_train_inference) when honest tuning matters.
    """
    tables = score_tables(dataset, loss, imputer, solve_complete_case(dataset, loss))
    return fit_from_tables(
        tables,
        weights=weights,
        alpha=alpha,
        hessian_mode=hessian_mode,
        objective=objective,
        mcar=mcar,
    )


def split_train_inference(dataset: PatternedDataset, train_frac: float, seed):
    """Split rows into an imputer-training matrix and an inference dataset.

    floor(train_frac * N) rows, complete and incomplete alike, go to
    training; the rest form the returned inference dataset.

    Returns:
        (train_matrix, inference_dataset).
    """
    if not 0.0 <= train_frac < 1.0:
        raise ConfigError(f"train_frac must be in [0, 1), got {train_frac}")
    n_rows = dataset.n_rows
    n_train = int(np.floor(train_frac * n_rows))
    if n_train == 0:
        return np.empty((0, dataset.d)), dataset
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    train_idx = np.sort(perm[:n_train])
    infer_idx = np.sort(perm[n_train:])
    return dataset.values[train_idx], dataset.subset(infer_idx)


def train_imputer(dataset: PatternedDataset, kind: str, train_frac, seed, warnings):
    """Fit the imputer on the rows split_train_inference splits off, and
    return (model, inference_dataset).  A positive train_frac that splits
    off no row is a ConfigError.  train_frac=0 trains in-sample: fine for
    diagnostics and unbiased imputers, but tuning and intervals may be
    optimistic for flexible imputers.  That, and a fit stopped at its
    iteration cap, each add a warning to `warnings`."""
    train, inference = split_train_inference(dataset, train_frac, seed)
    if train_frac == 0.0:
        warnings.append(
            "imputer trained on the inference rows (train_frac=0); "
            "set train_frac>0 or use method 'cipi' for honest training"
        )
        train = dataset.values
    elif not len(train):
        raise ConfigError(
            f"field 'train_frac': {train_frac} of {dataset.n_rows} rows "
            "leaves no imputer training rows"
        )
    model = fit_imputer(kind, train)
    if not model.converged:
        warnings.append(
            f"the {kind} imputer stopped at its cap of {model.cap} before converging"
        )
    return model, inference


# ---------------------------------------------------------------------------
# cross-fitting


@dataclass(frozen=True)
class FoldedImputers:
    """K imputers, each trained on all rows outside its fold."""

    fold_ids: np.ndarray  # (N,) values in 0..K-1
    models: tuple[ImputationModel, ...]

    @property
    def k_folds(self) -> int:
        return len(self.models)


def _imputer_factory(imputer):
    """Normalize an imputer argument: kind string or callable factory(matrix)."""
    if callable(imputer) and not isinstance(imputer, str):
        return imputer
    if isinstance(imputer, str):
        return lambda matrix: fit_imputer(imputer, matrix)
    raise ConfigError("imputer must be a kind string or a callable factory(matrix)")


def cross_fit(
    dataset: PatternedDataset,
    k_folds: int,
    imputer,
    seed,
) -> FoldedImputers:
    """Randomly assign folds and train one imputer per held-out fold.

    Every fold must contain at least one complete row and at least one row
    of every pattern; assignments are redrawn up to 100 times.  Whether a
    covering split exists depends on the data, so a pattern with fewer
    than k_folds rows, or 100 failed draws, is a DataError.

    Args:
        imputer: imputer kind string or factory(matrix).
    """
    n_rows = dataset.n_rows
    if not 2 <= k_folds <= n_rows:
        raise ConfigError(f"k_folds must be in [2, {n_rows}], got {k_folds}")
    counts = dataset.pattern_counts()
    short = np.flatnonzero(counts < k_folds)
    if short.size:
        pid = int(short[0])
        raise DataError(
            f"pattern {pid} has {counts[pid]} rows, so no {k_folds}-fold split "
            "covering every pattern exists; reduce k_folds or pool patterns"
        )
    factory = _imputer_factory(imputer)
    rng = np.random.default_rng(seed)
    cells = (dataset.n_patterns + 1) * k_folds
    ids = None
    for _ in range(_CROSS_FIT_ATTEMPTS):
        perm = rng.permutation(n_rows)
        cand = np.empty(n_rows, dtype=int)
        cand[perm] = np.arange(n_rows) % k_folds
        # every (pattern, fold) cell holds a row
        if np.bincount(dataset.pattern_ids * k_folds + cand, minlength=cells).all():
            ids = cand
            break
    if ids is None:
        raise DataError(
            f"could not find a {k_folds}-fold split covering every pattern "
            f"in {_CROSS_FIT_ATTEMPTS} attempts; reduce k_folds or pool patterns"
        )
    models = tuple(factory(dataset.values[ids != k]) for k in range(k_folds))
    return FoldedImputers(ids, models)


# ---------------------------------------------------------------------------
# bootstrap variance for cross-fitted estimates


def bootstrap_variance(
    dataset: PatternedDataset,
    loss: LossModel,
    theta,
    lam,
    k_folds: int,
    n_boot: int,
    imputer,
    seed,
    hessian=None,
) -> np.ndarray:
    """Plug-in sandwich variance on out-of-bag-averaged score tables.

    Trains n_boot imputers on bootstrap multisets of size
    floor(N (K-1) / K).  Each model fills, in one call, the table rows its
    sample missed; estimate_variance then reads the tables of those fills
    averaged per row.  It never measures how the estimate moves across
    imputer fits, so it adds no term for the imputer's estimation noise.
    Resamples are redrawn (at most 100 redraws) until every row is
    out-of-bag for at least one model.

    Args:
        theta: reference parameter (the complete-case estimate).
        lam: pattern weights used by the estimator.
        imputer: kind string or factory(matrix), retrained per resample.
        hessian: sandwich curvature; defaults to the complete-case Hessian.

    Returns:
        (p, p) asymptotic covariance; divide by the complete-row count for
        the finite-sample covariance.
    """
    theta = np.asarray(theta, dtype=float)
    weights = as_weights(lam, dataset.n_patterns)
    if n_boot < 2:
        raise ConfigError(f"n_boot must be at least 2, got {n_boot}")
    if k_folds < 2:
        raise ConfigError(f"k_folds must be at least 2, got {k_folds}")
    factory = _imputer_factory(imputer)
    rng = np.random.default_rng(seed)
    n_rows = dataset.n_rows
    size = int(np.floor(n_rows * (k_folds - 1) / k_folds))
    if size < 1:
        raise ConfigError("bootstrap resample size is zero")

    draws = [rng.integers(0, n_rows, size) for _ in range(n_boot)]
    in_bag = np.zeros((n_boot, n_rows), dtype=bool)
    in_bag[np.arange(n_boot)[:, None], np.array(draws)] = True
    redraws = 0
    while in_bag.all(axis=0).any():
        if redraws == _BOOTSTRAP_ATTEMPTS:
            raise DataError(
                "some rows were in-bag for every bootstrap model; "
                "increase n_boot or k_folds"
            )
        b = redraws % n_boot
        draws[b] = rng.integers(0, n_rows, size)
        in_bag[b] = False
        in_bag[b, draws[b]] = True
        redraws += 1

    models = [factory(dataset.values[idx]) for idx in draws]
    oob = ~in_bag

    def _averaged_fill(j, rows, row_ids):
        use = oob[:, row_ids]
        total = np.zeros(rows.shape)
        for b, model in enumerate(models):
            sel = np.flatnonzero(use[b])
            if sel.size:
                total[sel] += model.fill(rows[sel])
        return total / use.sum(axis=0)[:, None]

    tables = _build_tables(
        dataset, loss, theta, np.zeros(n_rows, dtype=int), 1, _averaged_fill
    )
    return estimate_variance(tables, weights, hessian)


def cipi_fit(
    dataset: PatternedDataset,
    loss: LossModel,
    imputer,
    k_folds: int = 10,
    n_boot: int = 50,
    weights="tuned",
    alpha: float = 0.1,
    hessian_mode: str | None = None,
    objective=TRACE_OBJECTIVE,
    mcar: bool = True,
    seed=0,
) -> IPIFit:
    """Cross-fitted fit with the bootstrap variance.

    The imputer is retrained K times, each fold scored by the model that
    never saw it, so no training/inference split is needed.  The variance
    is bootstrap_variance: the plug-in sandwich on n_boot more models'
    out-of-bag-averaged fills.  When some of the K fold models stop at
    their iteration cap, one warning says how many.

    Args:
        imputer: imputer kind string or factory(matrix).
        seed: drives fold assignment and bootstrap resampling.
    """
    ss = np.random.SeedSequence(seed)
    fold_seed, boot_seed = ss.spawn(2)
    theta_n = solve_complete_case(dataset, loss)
    folded = cross_fit(dataset, k_folds, imputer, np.random.default_rng(fold_seed))
    tables = score_tables(dataset, loss, folded, theta_n)

    def _bootstrap(tables, weights, hessian):
        return bootstrap_variance(
            dataset, loss, theta_n, weights, k_folds, n_boot, imputer,
            np.random.default_rng(boot_seed), hessian=hessian,
        )

    fit = fit_from_tables(
        tables,
        weights=weights,
        alpha=alpha,
        hessian_mode=hessian_mode,
        objective=objective,
        mcar=mcar,
        method="cipi",
        variance=_bootstrap,
    )
    stopped = [m for m in folded.models if not getattr(m, "converged", True)]
    if not stopped:
        return fit
    return replace(fit, warnings=fit.warnings + (
        f"{len(stopped)} of {k_folds} fold {stopped[0].kind} imputers stopped "
        f"at their cap of {stopped[0].cap} before converging",
    ))
