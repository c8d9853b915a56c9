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
# Halvings of a rejected SQUAREM steplength before the plain two-map step.
_SQUAREM_HALVINGS = 10

# Chained regression sweeps.
_CHAIN_TOL = 1e-4
_CHAIN_MAX_SWEEPS = 20

# Hotdeck search: query rows per screen block, (row, donor) pairs per
# recheck, and the screen's error bound per coordinate, relative to the
# summed squares and absolute for underflow.
_HOTDECK_BLOCK = 256
_RECHECK_PAIRS = 16384
_SCREEN_RELATIVE = 8 * np.finfo(float).eps
_SCREEN_ABSOLUTE = 8 * np.finfo(float).tiny


class ImputationModel:
    """Base class; subclasses implement _fill_missing on a writable copy."""

    kind = "base"
    # Whether the fit met its tolerance before its iteration cap, `cap`;
    # kinds fitted in closed form always do.
    converged = True

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

    Distance is the squared Euclidean distance over the coordinates observed
    in both the query row and the donor, summed per pair as
    einsum("ij,ij->i") of the masked differences; ties break toward the
    lowest donor index.  Cells the chosen donor is also missing, and query
    rows sharing no observed coordinate with any donor, fall back to column
    means.

    Filling screens, then rechecks.  For each block of 256 incomplete query
    rows, three matmuls on zero-filled copies give every (row, donor)
    distance in expanded form, a - 2 x.y + c, where a sums the query's
    squares over the donor's observed cells and c the donor's squares over
    the query's.  That form and the einsum distance each lie within
    about (d + 2) eps (a + c) of the exact distance, for any summation
    order, with or without FMA; the bound 8 (d + 2) (eps (a + c) + tiny)
    covers both with room to spare, and its tiny term covers underflow.  A
    donor whose screened distance minus its bound exceeds some usable
    donor's screened distance plus that donor's bound is farther than that
    donor in einsum distance too, so it cannot be chosen.  The remaining
    usable donors are rechecked with the einsum distance, whose value for
    a pair depends on that pair alone, and the lowest (distance, donor
    index) wins: exactly the donor an argmin over the usable donors picks.
    A row whose screen overflows (data beyond about 1e154) rechecks every
    usable donor.
    """

    kind = HOTDECK_KIND

    def __init__(self, d, donors, column_means):
        super().__init__(d)
        self.donors = np.asarray(donors, dtype=float)
        self.donor_observed = ~np.isnan(self.donors)
        self.column_means = np.asarray(column_means, dtype=float)
        # the screen's donor operands, zero at missing cells: the observed
        # mask, the squares, and -2 times the values
        values = np.where(self.donor_observed, self.donors, 0.0)
        self._screen_mask = self.donor_observed.astype(float)
        with np.errstate(all="ignore"):
            self._screen_squares = values * values
            self._screen_cross = -2.0 * values

    @classmethod
    def _fit(cls, matrix):
        return cls(matrix.shape[1], matrix, _observed_column_means(matrix))

    def _fill_missing(self, arr):
        miss = np.isnan(arr)
        incomplete = np.flatnonzero(miss.any(axis=1))
        for start in range(0, incomplete.size, _HOTDECK_BLOCK):
            rows = incomplete[start:start + _HOTDECK_BLOCK]
            x, x_miss = arr[rows], miss[rows]
            best = self._nearest(x, ~x_miss)
            fill = np.broadcast_to(self.column_means, x.shape).copy()
            found = best >= 0
            donor = best[found]
            fill[found] = np.where(
                self.donor_observed[donor], self.donors[donor], fill[found]
            )
            arr[rows] = np.where(x_miss, fill, x)

    def _nearest(self, x, obs):
        """Each query row's nearest usable donor, or -1 when no donor shares
        an observed coordinate with the row."""
        xq = np.where(obs, x, 0.0)
        mq = obs.astype(float)
        usable = mq @ self._screen_mask.T > 0.0
        # the screen's overflow and underflow are the bound's business, not
        # the caller's: the recheck alone does the arithmetic argmin did
        with np.errstate(all="ignore"):
            bound = (xq * xq) @ self._screen_mask.T
            bound += mq @ self._screen_squares.T
            low = xq @ self._screen_cross.T
            low += bound
            bound *= (self.d + 2) * _SCREEN_RELATIVE
            bound += (self.d + 2) * _SCREEN_ABSOLUTE
            high = low + bound
            low -= bound
        # low and bound are finite wherever high is
        overflowed = ~np.isfinite(high).all(axis=1)
        high[~usable] = np.inf
        pairs = low <= high.min(axis=1, keepdims=True)
        pairs &= usable
        pairs[overflowed] = usable[overflowed]

        q, j = np.nonzero(pairs)
        dist = np.empty(q.size)
        for s in range(0, q.size, _RECHECK_PAIRS):
            qs, js = q[s:s + _RECHECK_PAIRS], j[s:s + _RECHECK_PAIRS]
            diff = np.where(
                self.donor_observed[js] & obs[qs], self.donors[js] - x[qs], 0.0
            )
            dist[s:s + _RECHECK_PAIRS] = np.einsum("ij,ij->i", diff, diff)
        # argmin's order: a NaN distance (from infinite data) wins
        dist[np.isnan(dist)] = -np.inf
        order = np.lexsort((j, dist, q))
        q, j = q[order], j[order]
        first = np.flatnonzero(np.diff(q, prepend=-1))
        best = np.full(len(x), -1)
        best[q[first]] = j[first]
        return best


class GaussianConditionalImputer(ImputationModel):
    """Conditional means under a joint gaussian fitted by EM.

    Fitting runs EM for (mu, Sigma) over the training rows, handling
    incomplete rows exactly (conditional means in the E-step plus the
    conditional covariance mass in the M-step, maximum-likelihood 1/m
    updates), accelerated by SQUAREM (Varadhan & Roland, Scand. J. Stat.
    2008): each cycle extrapolates two EM maps into one step along the
    squared-extrapolation path, then applies one EM map to the result; a
    step that is not finite or whose Sigma is not positive definite falls
    back toward the plain two-map point.  The fit stops after the first EM
    map whose max absolute parameter change is at most 1e-6, or after 200
    EM maps; n_iter counts the maps and converged says whether the change
    fell to 1e-6.  Before every conditioning solve the observed block's
    diagonal is inflated by 1e-8 * trace(Sigma) / d.  Rows with no observed
    cells fill with the unconditional mean.

    EM plans each training missingness pattern once per fit: its column
    indices, block selections, observed training block and row count are
    built before the first iteration and reused by every one.  The fitted
    model caches each query pattern's regression coefficients, keyed by the
    pattern, on first fill; a cached pattern's fill is the same arithmetic
    as a fresh one, so mu and sigma must not change after fitting.
    """

    kind = GAUSSIAN_KIND
    cap = f"{_EM_MAX_ITER} EM iterations"

    def __init__(self, d, mu, sigma, n_iter, converged):
        super().__init__(d)
        self.mu = np.asarray(mu, dtype=float)
        self.sigma = np.asarray(sigma, dtype=float)
        self.n_iter = int(n_iter)
        self.converged = bool(converged)
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
        return cls(d, *_em_gaussian(matrix, observed))

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


def _em_map(mu, sigma, plans, observed_only):
    """One EM map (mu, sigma) -> (mu', sigma'): the E-step's conditional
    means and covariance mass per planned pattern, then the 1/m M-step."""
    m, d = observed_only.shape
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
    return mu_new, sigma_new


def _positive_definite(sigma) -> bool:
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return False
    return True


def _squarem_point(x0, x1, x2):
    """The SQUAREM-3 extrapolation of x0 and its two EM maps x1, x2, each
    an (mu, sigma) pair.

    With r = x1 - x0 and v = x2 - 2 x1 + x0 over the stacked parameters,
    the step is x0 - 2 a r + a^2 v for a = -|r| / |v|, capped at -1 (and -1
    when v vanishes).  A step that is not finite, or whose sigma fails a
    Cholesky, halves a's distance to -1, at most _SQUAREM_HALVINGS times;
    a = -1 is the plain two-map point x2 itself.  The arithmetic ignores
    floating-point errors, so a rejected step never raises.
    """
    with np.errstate(all="ignore"):
        r = [b - a for a, b in zip(x0, x1)]
        v = [c - 2.0 * b + a for a, b, c in zip(x0, x1, x2)]
        r_norm = np.sqrt(sum(float(np.sum(t * t)) for t in r))
        v_norm = np.sqrt(sum(float(np.sum(t * t)) for t in v))
        step = -r_norm / v_norm if v_norm > 0.0 else -1.0
        if not step < -1.0:  # also a NaN or infinite ratio
            return x2
        for _ in range(_SQUAREM_HALVINGS):
            mu, sigma = (a - 2.0 * step * dr + step * step * dv
                         for a, dr, dv in zip(x0, r, v))
            if (np.isfinite(mu).all() and np.isfinite(sigma).all()
                    and _positive_definite(sigma)):
                return mu, sigma
            step = (step - 1.0) / 2.0
    return x2


def _em_gaussian(matrix, observed):
    """(mu, sigma, n_iter, converged) of the SQUAREM-accelerated EM fit.

    Each cycle maps x twice, extrapolates (_squarem_point) and maps the
    extrapolated point once to stabilise it.  The fit stops after the first
    map, of any kind, whose max absolute change is at most 1e-6, or after
    200 maps; n_iter counts the maps.
    """
    m = matrix.shape[0]
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
    converged = False

    def em_map(x):
        nonlocal n_iter, converged
        x_new = _em_map(*x, plans, observed_only)
        n_iter += 1
        delta = max(float(np.max(np.abs(b - a))) for a, b in zip(x, x_new))
        converged = delta <= _EM_TOL
        return x_new

    x = (mu, sigma)
    while n_iter < _EM_MAX_ITER:
        x1 = em_map(x)
        if converged or n_iter == _EM_MAX_ITER:
            x = x1
            break
        x2 = em_map(x1)
        if converged or n_iter == _EM_MAX_ITER:
            x = x2
            break
        x = em_map(_squarem_point(x, x1, x2))
        if converged:
            break
    mu, sigma = x
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] < -1e-8 * max(1.0, eigs[-1]):
        raise FitError("EM produced a non-PSD covariance")
    return mu, sigma, n_iter, converged


class ChainedRegressionImputer(ImputationModel):
    """Per-column least-squares regressions on the other columns.

    Fitting initializes missing cells with column means, then sweeps the
    columns in ascending training-missing-count order, refitting an
    intercept-plus-all-other-columns regression (normal equations on centred
    cross-products; minimum-norm least squares if exactly singular) on the
    rows where the column is observed and re-imputing its missing cells,
    until the mean absolute change of imputed cells drops below 1e-4 or 20
    sweeps pass (one sweep when the training matrix is complete); n_sweeps
    records how many ran and converged whether the change fell below 1e-4.
    The final regressions are x_j = intercepts[j] + coefs[j] @ x, with
    coefs (d, d) zero on the diagonal.  Filling imputes a row's missing
    cells m at the fixed point of those regressions,
    (I - coefs_mm) x_m = intercepts_m + coefs_mo x_o, solved once per
    missingness pattern (least squares if singular), so a row's fill depends
    on that row alone.
    """

    kind = CHAINED_KIND
    cap = f"{_CHAIN_MAX_SWEEPS} sweeps"

    def __init__(self, d, intercepts, coefs, n_sweeps, converged):
        super().__init__(d)
        self.intercepts = np.asarray(intercepts, dtype=float)
        self.coefs = np.asarray(coefs, dtype=float)
        self.n_sweeps = int(n_sweeps)
        self.converged = bool(converged)

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
            converged = n_cells == 0 or total_change / n_cells < _CHAIN_TOL
            if converged:
                break
        return cls(d, intercepts, coefs, n_sweeps, converged)

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
