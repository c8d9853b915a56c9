"""Imputation models: fit on training rows, fill missing cells at inference.

All models share one contract: fit(kind, matrix) learns state from a training
matrix (whose rows may themselves be incomplete), and model.fill(rows)
replaces the NaN cells of a query matrix using only fitted state and the
query row's observed cells.  A model never sees the estimand: it fills whole
rows, and the estimators read whichever coordinates their loss acts on.
Observed cells pass through unchanged, every builtin kind is deterministic
given its fitted state, and no row's fill depends on the rest of its batch.
The gaussian model caches per-pattern work across fills; a cached pattern
fills with the same arithmetic as a fresh one, so a fill depends neither on
its batch nor on what the model filled before.

Builtin kinds: "mean", "zero", "hotdeck", "gaussian_conditional",
"chained_regression".
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, FitError

MEAN_KIND = "mean"
ZERO_KIND = "zero"
HOTDECK_KIND = "hotdeck"
GAUSSIAN_KIND = "gaussian_conditional"
CHAINED_KIND = "chained_regression"

KINDS = (MEAN_KIND, ZERO_KIND, HOTDECK_KIND, GAUSSIAN_KIND, CHAINED_KIND)

# EM for the gaussian conditional model.
_EM_TOL = 1e-6
_EM_MAX_ITER = 200
_EM_RIDGE = 1e-8

# Chained regression sweeps.
_CHAIN_TOL = 1e-4
_CHAIN_MAX_SWEEPS = 20


class ImputationModel:
    """Base class; subclasses implement _fill_missing on a writable copy."""

    kind = "base"

    def __init__(self, d: int):
        self.d = int(d)

    def fill(self, values) -> np.ndarray:
        """Return a copy of values with every NaN cell imputed.

        Args:
            values: (m, d) or (d,) float array; NaN marks missing cells.
        """
        arr = np.asarray(values, dtype=float)
        single = arr.ndim == 1
        arr = np.atleast_2d(arr).copy()
        if arr.shape[1] != self.d:
            raise DimensionError(
                f"rows have width {arr.shape[1]}, imputer was fit with d={self.d}"
            )
        self._fill_missing(arr)
        return arr[0] if single else arr

    def _fill_missing(self, arr: np.ndarray) -> None:
        raise NotImplementedError


def fit(kind: str, matrix) -> ImputationModel:
    """Fit an imputation model of the named kind.

    Args:
        kind: one of KINDS.
        matrix: (m, d) float training matrix with NaN for missing cells.

    Raises:
        DimensionError: the matrix is not 2-d or has no columns.
        FitError: training rows cannot identify the model (never-observed
            column, degenerate covariance, too few observations).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise DimensionError("imputer training rows must be a 2-d matrix with columns")
    if matrix.shape[0] == 0:
        raise FitError("imputer training set is empty")
    cls = {
        MEAN_KIND: MeanImputer,
        ZERO_KIND: ZeroImputer,
        HOTDECK_KIND: HotDeckImputer,
        GAUSSIAN_KIND: GaussianConditionalImputer,
        CHAINED_KIND: ChainedRegressionImputer,
    }.get(kind)
    if cls is None:
        raise ConfigError(f"unknown imputer kind {kind!r}; expected one of {KINDS}")
    return cls._fit(matrix)


def _observed_column_means(matrix: np.ndarray) -> np.ndarray:
    observed = ~np.isnan(matrix)
    counts = observed.sum(axis=0)
    if (counts == 0).any():
        missing = np.flatnonzero(counts == 0)
        raise FitError(f"columns {missing.tolist()} never observed in training")
    sums = np.where(observed, matrix, 0.0).sum(axis=0)
    return sums / counts


class MeanImputer(ImputationModel):
    """Fill each missing cell with its column's observed training mean."""

    kind = MEAN_KIND

    def __init__(self, d, column_means):
        super().__init__(d)
        self.column_means = np.asarray(column_means, dtype=float)

    @classmethod
    def _fit(cls, matrix):
        return cls(matrix.shape[1], _observed_column_means(matrix))

    def _fill_missing(self, arr):
        miss = np.isnan(arr)
        arr[miss] = np.broadcast_to(self.column_means, arr.shape)[miss]


class ZeroImputer(ImputationModel):
    """Fill every missing cell with zero; carries no fitted state."""

    kind = ZERO_KIND

    @classmethod
    def _fit(cls, matrix):
        return cls(matrix.shape[1])

    def _fill_missing(self, arr):
        arr[np.isnan(arr)] = 0.0


class HotDeckImputer(ImputationModel):
    """Copy missing cells from the nearest training donor.

    Distance is Euclidean over the coordinates observed in both the query
    row and the donor; ties break toward the lowest donor index.  Cells the
    chosen donor is also missing, and query rows sharing no observed
    coordinate with any donor, fall back to column means.
    """

    kind = HOTDECK_KIND

    def __init__(self, d, donors, column_means):
        super().__init__(d)
        self.donors = np.asarray(donors, dtype=float)
        self.donor_observed = ~np.isnan(self.donors)
        self.column_means = np.asarray(column_means, dtype=float)

    @classmethod
    def _fit(cls, matrix):
        return cls(matrix.shape[1], matrix, _observed_column_means(matrix))

    def _fill_missing(self, arr):
        donors = self.donors
        donor_obs = self.donor_observed
        for i in range(arr.shape[0]):
            row = arr[i]
            miss = np.isnan(row)
            if not miss.any():
                continue
            obs = ~miss
            shared = donor_obs & obs
            counts = shared.sum(axis=1)
            usable = counts > 0
            fill = self.column_means[miss]
            if usable.any():
                diff = np.where(shared, donors - row, 0.0)
                dist2 = np.einsum("ij,ij->i", diff, diff)
                dist2[~usable] = np.inf
                best = int(np.argmin(dist2))
                donor_row = donors[best]
                take = donor_obs[best][miss]
                fill = np.where(take, donor_row[miss], fill)
            row[miss] = fill


class GaussianConditionalImputer(ImputationModel):
    """Conditional means under a joint gaussian fitted by EM.

    Fitting runs EM for (mu, Sigma) over the training rows, handling
    incomplete rows exactly (conditional means in the E-step plus the
    conditional covariance mass in the M-step, maximum-likelihood 1/m
    updates).  Convergence is max absolute parameter change below 1e-6,
    capped at 200 iterations.  Before every conditioning solve the observed
    block's diagonal is inflated by 1e-8 * trace(Sigma) / d.  Rows with no
    observed cells fill with the unconditional mean.

    EM plans each training missingness pattern once per fit: its column
    indices, block selections, observed training block and row count are
    built before the first iteration and reused by every one.  The fitted
    model caches each query pattern's regression coefficients, keyed by the
    pattern, on first fill; a cached pattern's fill is the same arithmetic
    as a fresh one, so mu and sigma must not change after fitting.
    """

    kind = GAUSSIAN_KIND

    def __init__(self, d, mu, sigma, n_iter):
        super().__init__(d)
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.n_iter = int(n_iter)
        self._ridge = _EM_RIDGE * float(np.trace(self.sigma)) / self.d
        self._coefficients: dict[bytes, tuple] = {}

    @classmethod
    def _fit(cls, matrix):
        d = matrix.shape[1]
        observed = ~np.isnan(matrix)
        if (observed.sum(axis=0) < 2).any():
            low = np.flatnonzero(observed.sum(axis=0) < 2)
            raise FitError(
                f"columns {low.tolist()} observed fewer than twice; "
                "cannot fit a gaussian model"
            )
        mu, sigma, n_iter = _em_gaussian(matrix, observed)
        return cls(d, mu, sigma, n_iter)

    def _pattern_coefficients(self, key: bytes) -> tuple:
        """(observed columns, missing columns, coefficients) of one pattern;
        coefficients are None when nothing is observed."""
        cached = self._coefficients.get(key)
        if cached is None:
            m_idx = np.frombuffer(key, dtype=bool)
            o_cols, m_cols = np.flatnonzero(~m_idx), np.flatnonzero(m_idx)
            coef = None
            if o_cols.size:
                oo, mo = np.ix_(o_cols, o_cols), np.ix_(m_cols, o_cols)
                coef, _ = _conditional_solve(self.sigma, oo, mo, self._ridge)
            cached = self._coefficients[key] = (o_cols, m_cols, coef)
        return cached

    def _fill_missing(self, arr):
        miss = np.isnan(arr)
        if not miss.any():
            return
        for key, rows in pattern_groups(miss).items():
            o_cols, m_cols, coef = self._pattern_coefficients(key)
            if coef is None:
                arr[np.ix_(rows, m_cols)] = self.mu[m_cols]
                continue
            resid = arr[np.ix_(rows, o_cols)] - self.mu[o_cols]
            arr[np.ix_(rows, m_cols)] = self.mu[m_cols] + resid @ coef.T


def pattern_groups(miss: np.ndarray) -> dict[bytes, np.ndarray]:
    """Group row indices by their missingness row, skipping complete rows.

    Keys are the rows' boolean bytes, in order of first appearance; the
    row indices of each group ascend.
    """
    incomplete = np.flatnonzero(miss.any(axis=1))
    if not incomplete.size:
        return {}
    packed = np.packbits(miss[incomplete], axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    # a stable sort keeps each group's rows ascending, so a group's first
    # row is where its pattern first appears
    order = np.argsort(keys, kind="stable")
    rows, sorted_keys = incomplete[order], keys[order]
    new_key = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    starts = np.flatnonzero(new_key)
    ends = np.append(starts[1:], rows.size)
    firsts = rows[starts]
    return {
        miss[firsts[g]].tobytes(): rows[starts[g]:ends[g]] for g in np.argsort(firsts)
    }


def _conditional_solve(sigma, oo, mo, ridge):
    """Regression coefficients of missing on observed cells, and the
    missing-by-observed block, from the np.ix_ selections of the
    observed-by-observed (oo) and missing-by-observed (mo) blocks."""
    s_oo = sigma[oo]
    s_oo.flat[:: s_oo.shape[0] + 1] += ridge
    s_mo = sigma[mo]
    try:
        coef = np.linalg.solve(s_oo, s_mo.T).T
    except np.linalg.LinAlgError:
        raise FitError("degenerate covariance in gaussian conditioning") from None
    return coef, s_mo


class _PatternPlan:
    """One training missingness pattern's EM bookkeeping, built once per fit."""

    __slots__ = ("o_cols", "m_cols", "fill", "oo", "mo", "mm", "x_obs", "n_rows")

    def __init__(self, key: bytes, rows: np.ndarray, matrix: np.ndarray):
        m_idx = np.frombuffer(key, dtype=bool)
        self.o_cols = np.flatnonzero(~m_idx)
        self.m_cols = np.flatnonzero(m_idx)
        self.fill = np.ix_(rows, self.m_cols)
        self.oo = np.ix_(self.o_cols, self.o_cols)
        self.mo = np.ix_(self.m_cols, self.o_cols)
        self.mm = np.ix_(self.m_cols, self.m_cols)
        self.x_obs = matrix[np.ix_(rows, self.o_cols)]
        self.n_rows = len(rows)


def _em_gaussian(matrix, observed):
    m, d = matrix.shape
    mu = _observed_column_means(matrix)
    filled0 = np.where(observed, matrix, mu)
    centered = filled0 - filled0.mean(axis=0)
    sigma = centered.T @ centered / m
    # pattern order fixes the order cond_mass sums in
    plans = [
        _PatternPlan(key, rows, matrix)
        for key, rows in pattern_groups(~observed).items()
    ]
    observed_only = np.where(observed, matrix, 0.0)
    n_iter = 0
    for n_iter in range(1, _EM_MAX_ITER + 1):
        filled = observed_only.copy()
        cond_mass = np.zeros((d, d))
        ridge = _EM_RIDGE * float(np.trace(sigma)) / d
        for plan in plans:
            if not plan.o_cols.size:
                filled[plan.fill] = mu[plan.m_cols]
                cond_cov = sigma[plan.mm]
            else:
                coef, s_mo = _conditional_solve(sigma, plan.oo, plan.mo, ridge)
                cond_cov = sigma[plan.mm] - coef @ s_mo.T
                resid = plan.x_obs - mu[plan.o_cols]
                filled[plan.fill] = mu[plan.m_cols] + resid @ coef.T
            cond_mass[plan.mm] += plan.n_rows * cond_cov
        mu_new = filled.mean(axis=0)
        centered = filled - mu_new
        sigma_new = (centered.T @ centered + cond_mass) / m
        delta = max(
            float(np.max(np.abs(mu_new - mu))),
            float(np.max(np.abs(sigma_new - sigma))),
        )
        mu, sigma = mu_new, sigma_new
        if delta <= _EM_TOL:
            break
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] < -1e-8 * max(1.0, eigs[-1]):
        raise FitError("EM produced a non-PSD covariance")
    return mu, sigma, n_iter


class ChainedRegressionImputer(ImputationModel):
    """Per-column least-squares regressions on the other columns.

    Fitting initializes missing cells with column means, then sweeps the
    columns in ascending training-missing-count order, refitting an
    intercept-plus-all-other-columns regression (normal equations on centred
    cross-products; minimum-norm least squares if exactly singular) on the
    rows where the column is observed and re-imputing its missing cells,
    until the mean absolute change of imputed cells drops below 1e-4 or 20
    sweeps pass (one sweep when the training matrix is complete); n_sweeps
    records how many ran.  The final regressions are x_j = intercepts[j] +
    coefs[j] @ x, with coefs (d, d) zero on the diagonal.  Filling imputes
    a row's missing cells m at the fixed point of those regressions,
    (I - coefs_mm) x_m = intercepts_m + coefs_mo x_o, solved once per
    missingness pattern (least squares if singular), so a row's fill depends
    on that row alone.
    """

    kind = CHAINED_KIND

    def __init__(self, d, intercepts, coefs, n_sweeps):
        super().__init__(d)
        self.intercepts = np.asarray(intercepts, dtype=float)
        self.coefs = np.asarray(coefs, dtype=float)
        self.n_sweeps = int(n_sweeps)

    @classmethod
    def _fit(cls, matrix):
        d = matrix.shape[1]
        miss = np.isnan(matrix)
        filled = np.where(miss, _observed_column_means(matrix), matrix)
        order = np.argsort(miss.sum(axis=0), kind="stable")
        obs_rows = [np.flatnonzero(~miss[:, j]) for j in range(d)]
        mis_rows = [np.flatnonzero(miss[:, j]) for j in range(d)]
        others = [np.flatnonzero(np.arange(d) != j) for j in range(d)]
        n_cells = int(miss.sum())
        intercepts = np.zeros(d)
        coefs = np.zeros((d, d))
        for n_sweeps in range(1, _CHAIN_MAX_SWEEPS + 1):
            total_change = 0.0
            for j in order:
                o = others[j]
                x = filled[obs_rows[j]]
                mean = x.mean(axis=0)
                centred = x - mean
                gram = centred.T @ centred
                try:
                    coef = np.linalg.solve(gram[o[:, None], o], gram[o, j])
                except np.linalg.LinAlgError:
                    coef, *_ = np.linalg.lstsq(centred[:, o], centred[:, j], rcond=None)
                coefs[j, o] = coef
                intercepts[j] = mean[j] - mean[o] @ coef
                rows = mis_rows[j]
                if rows.size:
                    pred = intercepts[j] + filled[rows] @ coefs[j]
                    total_change += float(np.abs(pred - filled[rows, j]).sum())
                    filled[rows, j] = pred
            if n_cells == 0 or total_change / n_cells < _CHAIN_TOL:
                break
        return cls(d, intercepts, coefs, n_sweeps)

    def _fill_missing(self, arr):
        for key, rows in pattern_groups(np.isnan(arr)).items():
            m_idx = np.frombuffer(key, dtype=bool)
            b_m = self.coefs[m_idx]
            system = np.eye(b_m.shape[0]) - b_m[:, m_idx]
            x_o = arr[np.ix_(rows, ~m_idx)]
            rhs = self.intercepts[m_idx, None] + b_m[:, ~m_idx] @ x_o.T
            try:
                x_m = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                x_m, *_ = np.linalg.lstsq(system, rhs, rcond=None)
            arr[np.ix_(rows, m_idx)] = x_m.T
