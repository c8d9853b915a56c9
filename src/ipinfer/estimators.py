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

from dataclasses import dataclass

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
from .patterns import COMPLETE_PATTERN_ID, PatternedDataset, mask_matrix

COMPLETE_CASE_HESSIAN = "complete_case_hessian"
FULL_IPI_HESSIAN = "full_ipi_hessian"
HESSIAN_MODES = (COMPLETE_CASE_HESSIAN, FULL_IPI_HESSIAN)

TRACE_OBJECTIVE = "trace"

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


def pooled_weights(dataset: PatternedDataset) -> TuningWeights:
    """Weights that make the correction a single pooled imputation average.

    lambda_r = R * n_tilde_r / n_tilde_total, so the weighted pattern
    average becomes the frequency-weighted pooled mean.
    """
    return TuningWeights(_pooled_lam(dataset.pattern_counts()[1:]), "pooled")


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


@dataclass
class ScoreTables:
    """Per-row gradients and per-fold mean Hessians at a reference parameter.

    Everything lambda-independent is computed once here; gradients,
    Hessians, variances, tuning, and diagnostics all read from the same
    tables.  g_masked[r] aligns row-for-row with g_complete (complete rows
    masked by pattern r+1 and re-imputed); g_imputed[r] covers pattern
    r+1's own rows.  Every row carries the id of the fold whose imputer
    filled it: all zero for a single imputer (K = 1), 0..K-1 for
    cross-fitted tables.  h_folds[j] holds fold j's mean Hessians of the
    1 + 2R row groups: the complete rows, the R masked groups, then the R
    pattern groups.  h_complete is the mean Hessian over all complete rows.
    """

    loss: LossModel
    theta: np.ndarray
    counts: np.ndarray  # (R,) pattern-group sizes
    g_complete: np.ndarray  # (n, p)
    g_masked: tuple[np.ndarray, ...]  # R x (n, p)
    g_imputed: tuple[np.ndarray, ...]  # R x (counts[r], p)
    fold_complete: np.ndarray  # (n,)
    fold_imputed: tuple[np.ndarray, ...]  # R x (counts[r],)
    h_complete: np.ndarray  # (p, p)
    h_folds: np.ndarray  # (K, 1 + 2R, p, p)

    @property
    def n_complete(self) -> int:
        return int(self.g_complete.shape[0])

    @property
    def n_patterns(self) -> int:
        return len(self.g_masked)

    @property
    def param_dim(self) -> int:
        return int(self.g_complete.shape[1])

    @property
    def k_folds(self) -> int:
        return int(self.h_folds.shape[0])

    @property
    def h_masked(self) -> np.ndarray:
        """(R, p, p) fold-averaged mean Hessians of the masked complete rows."""
        return self.h_folds[:, 1 : 1 + self.n_patterns].mean(axis=0)

    @property
    def h_imputed(self) -> np.ndarray:
        """(R, p, p) fold-averaged mean Hessians of each pattern's own rows."""
        return self.h_folds[:, 1 + self.n_patterns :].mean(axis=0)

    def group_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Fold-averaged group means of the gradients and the Hessians.

        Groups are ordered as in h_folds: complete rows, the R masked groups,
        then the R pattern groups.  Each group is averaged within every fold
        and the K fold means are averaged, so the cross-fitted objective is
        the mean of the K per-fold objectives and unfolded tables (K = 1) give
        the plain group means.

        Returns:
            (gradient means (1 + 2R, p), mean Hessians (1 + 2R, p, p)).
        """
        big_r = self.n_patterns
        groups = [(self.g_complete, self.fold_complete)]
        groups += [(g, self.fold_complete) for g in self.g_masked]
        groups += list(zip(self.g_imputed, self.fold_imputed))
        means = np.empty((self.k_folds, len(groups), self.param_dim))
        for i, (rows, folds) in enumerate(groups):
            for j in range(self.k_folds):
                in_fold = folds == j
                count = np.count_nonzero(in_fold)
                if count == 0:
                    where = "complete rows" if i == 0 else f"rows of pattern {i - big_r}"
                    raise DataError(f"fold {j} has no {where}")
                # A masked sum keeps the summation order of rows.mean(axis=0)
                # when the fold holds every row, so K = 1 gives the same bits.
                means[j, i] = np.add.reduce(rows, axis=0, where=in_fold[:, None]) / count
        return means.mean(axis=0), self.h_folds.mean(axis=0)


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
    """Tables from fold-wise fills, one fill call per (fold, group) cell.

    fill(j, rows, row_ids) imputes the rows of fold j, which sit at row_ids
    in the dataset.  Each cell's filled rows are reduced to their mean
    Hessian as soon as they are filled.
    """
    theta = np.asarray(theta, dtype=float)
    tdims = list(dataset.target_dims)
    big_r = dataset.n_patterns
    p = loss.param_dim
    h_folds = np.full((k_folds, 1 + 2 * big_r, p, p), np.nan)

    def _group(group, base, row_ids, fill_cell):
        folds = fold_ids[row_ids]
        out = base.copy()
        for j in range(k_folds):
            rows = np.flatnonzero(folds == j)
            if rows.size:
                filled = fill_cell(j, base[rows], row_ids[rows])
                out[rows] = filled
                h_folds[j, group] = mean_hessian(loss, filled[:, tdims], theta)
        return grad_matrix(loss, out[:, tdims], theta), folds

    complete_idx = dataset.rows_of(COMPLETE_PATTERN_ID)
    complete_rows = dataset.values[complete_idx]
    g_complete, fold_complete = _group(
        0, complete_rows, complete_idx, lambda j, rows, row_ids: rows
    )
    g_masked, g_imputed, fold_imputed, counts = [], [], [], []
    for r in range(1, big_r + 1):
        masked = mask_matrix(complete_rows, dataset.registry[r])
        g_masked.append(_group(r, masked, complete_idx, fill)[0])
        rows_r = dataset.rows_of(r)
        g_own, folds_r = _group(big_r + r, dataset.values[rows_r], rows_r, fill)
        g_imputed.append(g_own)
        fold_imputed.append(folds_r)
        counts.append(rows_r.size)

    return ScoreTables(
        loss=loss,
        theta=theta,
        counts=np.asarray(counts, dtype=int),
        g_complete=g_complete,
        g_masked=tuple(g_masked),
        g_imputed=tuple(g_imputed),
        fold_complete=fold_complete,
        fold_imputed=tuple(fold_imputed),
        h_complete=mean_hessian(loss, complete_rows[:, tdims], theta),
        h_folds=h_folds,
    )


# ---------------------------------------------------------------------------
# gradient, Hessians, one-step estimate


def ipi_grad(tables: ScoreTables, lam) -> np.ndarray:
    """Gradient of the weighted imputation-powered objective at tables.theta."""
    lam = as_weights(lam, tables.n_patterns).lam
    big_r = tables.n_patterns
    means, _ = tables.group_means()
    g = means[0]
    for r in range(big_r):
        g = g + (lam[r] / big_r) * (means[1 + big_r + r] - means[1 + r])
    return g


def full_ipi_hessian(tables: ScoreTables, lam) -> np.ndarray:
    """Hessian of the weighted objective itself (plug-in form)."""
    lam = as_weights(lam, tables.n_patterns).lam
    big_r = tables.n_patterns
    _, hessians = tables.group_means()
    h = hessians[0].copy()
    for r in range(big_r):
        h += (lam[r] / big_r) * (hessians[1 + big_r + r] - hessians[1 + r])
    return h


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
    g = ipi_grad(tables, weights)
    try:
        step = np.linalg.solve(hessian, g)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("singular Hessian in the one-step update") from None
    return tables.theta - step


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

    The middle term combines the covariance of the lambda-corrected
    complete-row scores with the per-pattern imputed-score covariances,
    scaled by (lambda_r / R)^2 * n / n_r.  Divide by the complete-row count
    to get the finite-sample covariance of the estimate.

    Args:
        hessian: sandwich curvature; defaults to the complete-case Hessian.
    """
    lam = as_weights(lam, tables.n_patterns).lam
    if hessian is None:
        hessian = tables.h_complete
    big_r = tables.n_patterns
    n = tables.n_complete
    resid = tables.g_complete.copy()
    for r in range(big_r):
        resid -= (lam[r] / big_r) * tables.g_masked[r]
    v = sample_cov(resid)
    for r in range(big_r):
        n_r = int(tables.counts[r])
        if n_r < 2:
            raise DataError(
                f"pattern {r + 1} has {n_r} rows; variance needs at least 2"
            )
        v += (lam[r] / big_r) ** 2 * (n / n_r) * sample_cov(tables.g_imputed[r])
    hinv = inverse_hessian(np.asarray(hessian, dtype=float))
    return hinv @ v @ hinv


# ---------------------------------------------------------------------------
# weight tuning


@dataclass(frozen=True)
class TuningComponents:
    """Quadratic pieces of the variance in lambda, summed over the target
    coordinates: variance(lambda) / n = const + lam' (a + c) lam / R^2
    - 2 b' lam / R."""

    a: np.ndarray  # (R, R) diagonal: imputed-score variances / n_r
    c: np.ndarray  # (R, R): masked-score covariances / n
    b: np.ndarray  # (R,): complete/masked cross-covariances / n

    def objective(self, lam) -> float:
        lam = np.asarray(lam, dtype=float)
        big_r = self.b.size
        quad = lam @ (self.a + self.c) @ lam / big_r**2
        return float(quad - 2.0 * self.b @ lam / big_r)


def tuning_components(
    tables: ScoreTables, hessian, objective=TRACE_OBJECTIVE
) -> TuningComponents:
    """Assemble the per-pattern variance components for weight tuning.

    Args:
        objective: "trace" to sum over all coordinates, or a coordinate
            index to target one parameter.
    """
    coords = objective_coords(objective, tables.param_dim)
    hinv = inverse_hessian(np.asarray(hessian, dtype=float))
    n = tables.n_complete
    big_r = tables.n_patterns
    t_x = tables.g_complete @ hinv.T
    t_x = t_x - t_x.mean(axis=0)
    a = np.zeros((big_r, big_r))
    b = np.zeros(big_r)
    masked_centered = []
    for r in range(big_r):
        t_imp = tables.g_imputed[r] @ hinv.T
        t_imp = t_imp - t_imp.mean(axis=0)
        n_r = int(tables.counts[r])
        if n_r < 2 or n < 2:
            raise DataError("weight tuning needs at least 2 rows per group")
        a[r, r] = float(
            np.sum(t_imp[:, coords] ** 2) / (n_r - 1) / n_r
        )
        t_msk = tables.g_masked[r] @ hinv.T
        masked_centered.append(t_msk - t_msk.mean(axis=0))
        b[r] = float(
            np.sum(t_x[:, coords] * masked_centered[r][:, coords]) / (n - 1) / n
        )
    c = np.zeros((big_r, big_r))
    for r in range(big_r):
        for s in range(r, big_r):
            c[r, s] = float(
                np.sum(masked_centered[r][:, coords] * masked_centered[s][:, coords])
                / (n - 1)
                / n
            )
            c[s, r] = c[r, s]
    return TuningComponents(a, c, b)


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
    tables: ScoreTables, objective=TRACE_OBJECTIVE, hessian=None
) -> tuple[TuningWeights, TuningComponents | None]:
    """Closed-form variance-minimizing pattern weights.

    Solves ((A + C) / R + eps I) lambda = b with a relative ridge
    eps = 1e-8 * trace(A + C) / R.  If the system is singular or produces
    non-finite weights, falls back to pooled weights and flags it.

    Args:
        hessian: curvature of the sandwich being minimized; defaults to
            the complete-case Hessian.

    Returns:
        (weights, components); components is None when R = 0.
    """
    big_r = tables.n_patterns
    if big_r == 0:
        return TuningWeights(np.zeros(0), "tuned"), None
    if hessian is None:
        hessian = tables.h_complete
    comp = tuning_components(tables, hessian, objective)
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
    z = stats.norm.ppf(1.0 - alpha / 2.0)
    ci = np.column_stack([theta - z * se, theta + z * se])
    chi2_radius = float(stats.chi2.ppf(1.0 - alpha, df=theta.size) / n)
    return se, ci, chi2_radius


def effective_sample_size(baseline_width, method_width, n: int) -> np.ndarray:
    """Complete rows the baseline would need to match the method's width:
    n * (baseline_width / method_width)^2, elementwise."""
    wb = np.asarray(baseline_width, dtype=float)
    wm = np.asarray(method_width, dtype=float)
    if (wb <= 0).any() or (wm <= 0).any():
        raise ConfigError("interval widths must be positive")
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


def _complete_case_widths(tables: ScoreTables, alpha: float) -> np.ndarray:
    sigma_cc = estimate_variance(tables, zero_weights(tables.n_patterns))
    _, ci, _ = confidence_interval(tables.theta, sigma_cc, tables.n_complete, alpha)
    return ci[:, 1] - ci[:, 0]


def resolve_weights(
    tables: ScoreTables, lambda_mode: str, fixed_lambda=None, objective=TRACE_OBJECTIVE
) -> tuple[TuningWeights, list[str]]:
    """Pattern weights for a lambda_mode, with any warning the choice raised.

    Args:
        lambda_mode: "tuned" (closed-form variance minimizer at the
            complete-case Hessian), "pooled", "zero", or "fixed" with
            fixed_lambda.
    """
    warnings: list[str] = []
    if lambda_mode == "tuned":
        weights, _ = tune_lambda(tables, objective)
        if weights.fallback:
            warnings.append(
                "weight tuning system was singular; fell back to pooled weights"
            )
    elif lambda_mode == "pooled":
        weights = TuningWeights(_pooled_lam(tables.counts), "pooled")
    elif lambda_mode == "zero":
        weights = zero_weights(tables.n_patterns)
    elif lambda_mode == "fixed":
        if fixed_lambda is None:
            raise ConfigError("lambda_mode='fixed' needs fixed_lambda")
        weights = as_weights(fixed_lambda, tables.n_patterns)
    else:
        raise ConfigError(
            f"unknown lambda_mode {lambda_mode!r}; "
            "expected tuned, pooled, zero, or fixed"
        )
    return weights, warnings


def fit_from_tables(
    tables: ScoreTables,
    lambda_mode: str = "tuned",
    fixed_lambda=None,
    alpha: float = 0.1,
    hessian_mode: str | None = None,
    objective=TRACE_OBJECTIVE,
    mcar: bool = True,
    method: str = "ipi",
    variance=estimate_variance,
) -> IPIFit:
    """Weight, step, and summarize on score tables built at the
    complete-case estimate.

    Args:
        lambda_mode: "tuned" (closed-form variance minimizer), "pooled",
            "zero" (complete-case), or "fixed" with fixed_lambda.
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
    weights, warnings = resolve_weights(tables, lambda_mode, fixed_lambda, objective)
    hessian = _select_hessian(tables, weights, hessian_mode)
    theta = ipi_point_estimate(tables, weights, hessian_mode)
    sigma = variance(tables, weights, hessian)
    n = tables.n_complete
    se, ci, chi2_radius = confidence_interval(theta, sigma, n, alpha)
    width_cc = _complete_case_widths(tables, alpha)
    n_eff = effective_sample_size(width_cc, ci[:, 1] - ci[:, 0], n)
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
        weights=weights,
        hessian=hessian,
        hessian_mode=hessian_mode,
        n_effective=n_eff,
        theta_complete=tables.theta,
        warnings=tuple(warnings),
    )


def ipi_fit(
    dataset: PatternedDataset,
    loss: LossModel,
    imputer: ImputationModel,
    lambda_mode: str = "tuned",
    fixed_lambda=None,
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
        lambda_mode=lambda_mode,
        fixed_lambda=fixed_lambda,
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
    """Normalize an imputer argument: kind string or callable(matrix, dims)."""
    if callable(imputer) and not isinstance(imputer, str):
        return imputer
    if isinstance(imputer, str):
        return lambda matrix, dims: fit_imputer(imputer, matrix, dims)
    raise ConfigError(
        "imputer must be a kind string or a callable factory(matrix, target_dims)"
    )


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
        imputer: imputer kind string or factory(matrix, target_dims).
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
    ids = None
    for _ in range(_CROSS_FIT_ATTEMPTS):
        perm = rng.permutation(n_rows)
        cand = np.empty(n_rows, dtype=int)
        cand[perm] = np.arange(n_rows) % k_folds
        if _folds_cover_patterns(dataset, cand, k_folds):
            ids = cand
            break
    if ids is None:
        raise DataError(
            f"could not find a {k_folds}-fold split covering every pattern "
            f"in {_CROSS_FIT_ATTEMPTS} attempts; reduce k_folds or pool patterns"
        )
    models = []
    for k in range(k_folds):
        train = dataset.values[ids != k]
        models.append(factory(train, dataset.target_dims))
    return FoldedImputers(ids, tuple(models))


def _folds_cover_patterns(dataset, fold_ids, k_folds) -> bool:
    for pid in range(dataset.n_patterns + 1):
        present = np.bincount(fold_ids[dataset.rows_of(pid)], minlength=k_folds)
        if (present == 0).any():
            return False
    return True


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
    """Bootstrap-averaged sandwich variance for the cross-fitted estimator.

    Trains n_boot imputers on bootstrap multisets of size
    floor(N (K-1) / K), averages each row's imputed values over the models
    whose sample missed the row, and evaluates the plug-in variance formula
    on those averaged imputations.  Resamples are redrawn (up to 100
    attempts) until every row is out-of-bag for at least one model.

    Args:
        theta: reference parameter (the complete-case estimate).
        lam: pattern weights used by the estimator.
        imputer: kind string or factory, retrained per resample.
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
    for b, idx in enumerate(draws):
        in_bag[b, idx] = True
    for attempt in range(_BOOTSTRAP_ATTEMPTS):
        uncovered = np.flatnonzero(in_bag.all(axis=0))
        if uncovered.size == 0:
            break
        b = attempt % n_boot
        draws[b] = rng.integers(0, n_rows, size)
        in_bag[b] = False
        in_bag[b, draws[b]] = True
    else:
        raise DataError(
            "some rows were in-bag for every bootstrap model; "
            "increase n_boot or k_folds"
        )

    models = [factory(dataset.values[idx], dataset.target_dims) for idx in draws]
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
    lambda_mode: str = "tuned",
    fixed_lambda=None,
    alpha: float = 0.1,
    hessian_mode: str | None = None,
    objective=TRACE_OBJECTIVE,
    mcar: bool = True,
    seed=0,
) -> IPIFit:
    """Cross-fitted fit with bootstrap-averaged variance.

    The imputer is retrained K times (each fold scored by models that never
    saw it) so no training/inference split is needed, and the variance uses
    bootstrap model averaging to absorb the imputer's sampling noise.

    Args:
        imputer: imputer kind string or factory(matrix, target_dims).
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

    return fit_from_tables(
        tables,
        lambda_mode=lambda_mode,
        fixed_lambda=fixed_lambda,
        alpha=alpha,
        hessian_mode=hessian_mode,
        objective=objective,
        mcar=mcar,
        method="cipi",
        variance=_bootstrap,
    )
