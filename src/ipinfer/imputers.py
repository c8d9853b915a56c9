"""Imputation models: fit on training rows, fill missing cells at inference.

All models share one contract: fit() learns state from training rows (which
may themselves be incomplete), and fill() replaces the NaN cells of a query
matrix using only fitted state and the query row's observed cells.
Observed cells pass through unchanged, every builtin kind is deterministic
given its fitted state, and no row's fill depends on the rest of its batch.

Builtin kinds: "mean", "zero", "hotdeck", "gaussian_conditional",
"chained_regression".
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, FitError
from .patterns import PatternedDataset

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

    def __init__(self, d: int, target_dims: tuple[int, ...]):
        self.d = int(d)
        self.target_dims = tuple(target_dims)

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


def fit(kind: str, train_rows, target_dims) -> ImputationModel:
    """Fit an imputation model of the named kind.

    Args:
        kind: one of KINDS.
        train_rows: PatternedDataset, or (m, d) float matrix with NaN for
            missing cells.
        target_dims: the coordinates the estimators read from filled rows.

    Raises:
        FitError: training rows cannot identify the model (never-observed
            column, degenerate covariance, too few observations).
    """
    if isinstance(train_rows, PatternedDataset):
        train_rows = train_rows.values
    matrix = np.asarray(train_rows, dtype=float)
    if matrix.ndim != 2:
        raise DimensionError("imputer training rows must be a 2-d matrix")
    width = matrix.shape[1]
    dims = tuple(sorted({int(t) for t in target_dims}))
    if not dims or dims[0] < 0 or dims[-1] >= width:
        raise ConfigError(f"target_dims {dims} out of range for d={width}")
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
    return cls._fit(matrix, dims)


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

    def __init__(self, d, target_dims, column_means):
        super().__init__(d, target_dims)
        self.column_means = np.asarray(column_means, dtype=float)

    @classmethod
    def _fit(cls, matrix, dims):
        return cls(matrix.shape[1], dims, _observed_column_means(matrix))

    def _fill_missing(self, arr):
        miss = np.isnan(arr)
        arr[miss] = np.broadcast_to(self.column_means, arr.shape)[miss]


class ZeroImputer(ImputationModel):
    """Fill every missing cell with zero; carries no fitted state."""

    kind = ZERO_KIND

    @classmethod
    def _fit(cls, matrix, dims):
        return cls(matrix.shape[1], dims)

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

    def __init__(self, d, target_dims, donors, column_means):
        super().__init__(d, target_dims)
        self.donors = np.asarray(donors, dtype=float)
        self.donor_observed = ~np.isnan(self.donors)
        self.column_means = np.asarray(column_means, dtype=float)

    @classmethod
    def _fit(cls, matrix, dims):
        return cls(matrix.shape[1], dims, matrix, _observed_column_means(matrix))

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
    """

    kind = GAUSSIAN_KIND

    def __init__(self, d, target_dims, mu, sigma, n_iter):
        super().__init__(d, target_dims)
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.n_iter = int(n_iter)

    @classmethod
    def _fit(cls, matrix, dims):
        d = matrix.shape[1]
        observed = ~np.isnan(matrix)
        if (observed.sum(axis=0) < 2).any():
            low = np.flatnonzero(observed.sum(axis=0) < 2)
            raise FitError(
                f"columns {low.tolist()} observed fewer than twice; "
                "cannot fit a gaussian model"
            )
        mu, sigma, n_iter = _em_gaussian(matrix, observed)
        return cls(d, dims, mu, sigma, n_iter)

    def _ridge(self) -> float:
        return _EM_RIDGE * float(np.trace(self.sigma)) / self.d

    def _fill_missing(self, arr):
        miss = np.isnan(arr)
        if not miss.any():
            return
        for key, rows in _pattern_groups(miss).items():
            m_idx = np.frombuffer(key, dtype=bool)
            o_idx = ~m_idx
            if not o_idx.any():
                arr[np.ix_(rows, np.flatnonzero(m_idx))] = self.mu[m_idx]
                continue
            coef, _ = _conditional_solve(self.sigma, o_idx, m_idx, self._ridge())
            resid = arr[np.ix_(rows, np.flatnonzero(o_idx))] - self.mu[o_idx]
            arr[np.ix_(rows, np.flatnonzero(m_idx))] = self.mu[m_idx] + resid @ coef.T


def _pattern_groups(miss: np.ndarray) -> dict[bytes, np.ndarray]:
    """Group row indices by their missingness row, skipping complete rows."""
    groups: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(miss.any(axis=1)):
        groups.setdefault(miss[i].tobytes(), []).append(i)
    return {k: np.asarray(v, dtype=int) for k, v in groups.items()}


def _conditional_solve(sigma, o_idx, m_idx, ridge):
    """Regression coefficients and conditional covariance of missing on observed."""
    s_oo = sigma[np.ix_(o_idx, o_idx)].copy()
    s_oo[np.diag_indices_from(s_oo)] += ridge
    s_mo = sigma[np.ix_(m_idx, o_idx)]
    try:
        coef = np.linalg.solve(s_oo, s_mo.T).T
    except np.linalg.LinAlgError:
        raise FitError("degenerate covariance in gaussian conditioning") from None
    cond_cov = sigma[np.ix_(m_idx, m_idx)] - coef @ s_mo.T
    return coef, cond_cov


def _em_gaussian(matrix, observed):
    m, d = matrix.shape
    mu = _observed_column_means(matrix)
    filled0 = np.where(observed, matrix, mu)
    centered = filled0 - filled0.mean(axis=0)
    sigma = centered.T @ centered / m
    groups = _pattern_groups(~observed)
    n_iter = 0
    for n_iter in range(1, _EM_MAX_ITER + 1):
        filled = np.where(observed, matrix, 0.0)
        cond_mass = np.zeros((d, d))
        ridge = _EM_RIDGE * float(np.trace(sigma)) / d
        for key, rows in groups.items():
            m_idx = np.frombuffer(key, dtype=bool)
            o_idx = ~m_idx
            m_cols = np.flatnonzero(m_idx)
            if not o_idx.any():
                filled[np.ix_(rows, m_cols)] = mu[m_idx]
                cond_cov = sigma[np.ix_(m_idx, m_idx)]
            else:
                coef, cond_cov = _conditional_solve(sigma, o_idx, m_idx, ridge)
                resid = matrix[np.ix_(rows, np.flatnonzero(o_idx))] - mu[o_idx]
                filled[np.ix_(rows, m_cols)] = mu[m_idx] + resid @ coef.T
            cond_mass[np.ix_(m_cols, m_cols)] += len(rows) * cond_cov
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

    def __init__(self, d, target_dims, intercepts, coefs, n_sweeps):
        super().__init__(d, target_dims)
        self.intercepts = np.asarray(intercepts, dtype=float)
        self.coefs = np.asarray(coefs, dtype=float)
        self.n_sweeps = int(n_sweeps)

    @classmethod
    def _fit(cls, matrix, dims):
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
        return cls(d, dims, intercepts, coefs, n_sweeps)

    def _fill_missing(self, arr):
        for key, rows in _pattern_groups(np.isnan(arr)).items():
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
