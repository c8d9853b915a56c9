"""Independent reference implementations used to check derived values.

Everything in this module is deliberately written from the mathematical
definitions, without calling into ipinfer, so tests can compare the library
against a second route.  The exceptions are at the end: the reference
score tables call the library's per-row loss gradients and Hessians (they
pin the table layout and the fill calls, not the losses), and the
restricted dataset is cut with the dataset's own row subset.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import optimize

from ipinfer.losses import grad_matrix, mean_hessian


def finite_difference_gradient(f, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = eps
        out[j] = (f(theta + step) - f(theta - step)) / (2.0 * eps)
    return out


def finite_difference_jacobian(g, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a vector function of theta."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for j in range(theta.size):
        step = np.zeros_like(theta)
        step[j] = eps
        cols.append((g(theta + step) - g(theta - step)) / (2.0 * eps))
    return np.stack(cols, axis=1)


def logistic_fit_gradient_descent(
    x_cov: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Logistic-loss minimizer by plain gradient descent with backtracking.

    Independent of any Newton machinery; used as the reference solution for
    the complete-case solver.
    """
    x_cov = np.asarray(x_cov, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.zeros(x_cov.shape[1])

    def mean_loss(t):
        z = x_cov @ t
        # log(1 + exp(z)) - y z, computed stably
        return float(np.mean(np.logaddexp(0.0, z) - y * z))

    def mean_grad(t):
        s = 1.0 / (1.0 + np.exp(-(x_cov @ t)))
        return x_cov.T @ (s - y) / x_cov.shape[0]

    step = 1.0
    for _ in range(max_iter):
        g = mean_grad(theta)
        if np.max(np.abs(g)) <= tol:
            break
        base = mean_loss(theta)
        step = min(step * 2.0, 1e4)
        while mean_loss(theta - step * g) > base - 0.5 * step * float(g @ g):
            step *= 0.5
        theta = theta - step * g
    return theta


def gaussian_conditional_mean(
    mu: np.ndarray,
    sigma: np.ndarray,
    observed: np.ndarray,
    missing: np.ndarray,
    x_obs: np.ndarray,
) -> np.ndarray:
    """Conditional mean of the missing block given the observed block."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s_oo = sigma[np.ix_(observed, observed)]
    s_mo = sigma[np.ix_(missing, observed)]
    return mu[missing] + s_mo @ np.linalg.solve(s_oo, x_obs - mu[observed])


def ols_coefficients(x_cov: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Plain least-squares fit, the reference for closed-form targets."""
    return np.linalg.lstsq(np.asarray(x_cov, dtype=float), np.asarray(y, dtype=float), rcond=None)[0]


def numeric_lambda_minimizer(objective, start: np.ndarray) -> np.ndarray:
    """Numeric minimizer of a smooth scalar objective over lambda.

    Quasi-Newton from the given start, run to tight tolerance, with a
    Nelder-Mead polish; the reference for the closed-form tuning solution.
    """
    start = np.asarray(start, dtype=float)
    res = optimize.minimize(objective, start, method="BFGS", options={"gtol": 1e-12, "maxiter": 2000})
    best = res.x
    res2 = optimize.minimize(
        objective,
        best,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20_000, "maxfev": 20_000},
    )
    if res2.fun <= res.fun:
        best = res2.x
    return best


def grid_search_lambda_1d(objective, lo: float = -2.0, hi: float = 2.0, rounds: int = 12) -> float:
    """Iteratively refined 1-D grid search to ~1e-8 resolution."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, 401)
        vals = np.array([objective(np.array([g])) for g in grid])
        k = int(np.argmin(vals))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.size - 1)]
    return float(0.5 * (lo + hi))


# ---------------------------------------------------------------------------
# plain gaussian EM before per-pattern planning
#
# The EM fit and the pattern grouping exactly as the library computed them
# before each pattern's indices and observed block were built once per fit,
# and before EM was accelerated.  The library's planned EM map must
# reproduce one iteration of this EM bit for bit, and its grouping the
# grouping.  Failures raise ValueError here instead of the library's
# FitError.

_EM_TOL = 1e-6
_EM_MAX_ITER = 200
_EM_RIDGE = 1e-8


def _observed_column_means(matrix: np.ndarray) -> np.ndarray:
    observed = ~np.isnan(matrix)
    counts = observed.sum(axis=0)
    if (counts == 0).any():
        raise ValueError("a column is never observed")
    sums = np.where(observed, matrix, 0.0).sum(axis=0)
    return sums / counts


def pattern_groups(miss: np.ndarray) -> dict[bytes, np.ndarray]:
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
    coef = np.linalg.solve(s_oo, s_mo.T).T
    cond_cov = sigma[np.ix_(m_idx, m_idx)] - coef @ s_mo.T
    return coef, cond_cov


def em_gaussian(matrix, observed, max_iter=_EM_MAX_ITER, tol=_EM_TOL):
    """(mu, sigma, n_iter) of plain gaussian EM, recomputing every
    pattern's indices and observed block on each iteration: it stops after
    the first iteration whose max absolute change is at most tol, or after
    max_iter iterations (max_iter=0 gives the starting point)."""
    m, d = matrix.shape
    mu = _observed_column_means(matrix)
    filled0 = np.where(observed, matrix, mu)
    centered = filled0 - filled0.mean(axis=0)
    sigma = centered.T @ centered / m
    groups = pattern_groups(~observed)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
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
        if delta <= tol:
            break
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] < -1e-8 * max(1.0, eigs[-1]):
        raise ValueError("EM produced a non-PSD covariance")
    return mu, sigma, n_iter


# ---------------------------------------------------------------------------
# hotdeck and CSV reading before block-wise work
#
# The hotdeck fill as a loop over query rows, and the CSV reader as a loop
# over cells.  The library's screened fill and block-converted reader must
# reproduce these bit for bit, messages included.


def hotdeck_fill(donors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The hotdeck fill as a per-row loop: for each incomplete row, the
    masked-difference distance to every donor sharing an observed
    coordinate with it, then argmin over those donors (the first minimum,
    so ties go to the lowest donor index)."""
    donors = np.asarray(donors, dtype=float)
    donor_obs = ~np.isnan(donors)
    column_means = _observed_column_means(donors)
    arr = np.array(values, dtype=float)
    for i in range(arr.shape[0]):
        row = arr[i]
        miss = np.isnan(row)
        if not miss.any():
            continue
        obs = ~miss
        shared = donor_obs & obs
        counts = shared.sum(axis=1)
        usable = counts > 0
        fill = column_means[miss]
        if usable.any():
            diff = np.where(shared, donors - row, 0.0)
            dist2 = np.einsum("ij,ij->i", diff, diff)
            candidates = np.flatnonzero(usable)
            best = int(candidates[np.argmin(dist2[candidates])])
            donor_row = donors[best]
            take = donor_obs[best][miss]
            fill = np.where(take, donor_row[miss], fill)
        row[miss] = fill
    return arr


def load_csv_per_cell(path) -> tuple[list[str], np.ndarray]:
    """The CSV reader as a loop over cells: float(cell.strip()) per cell,
    ''/'NA' missing, and the first bad cell raising.  Errors are ValueErrors
    carrying the library's DataError messages."""
    na_tokens = frozenset({"", "NA"})
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            columns = [c.strip() for c in header]
            if len(set(columns)) != len(columns):
                raise ValueError(f"{path}: duplicate column names")
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != len(columns):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(columns)} cells, got {len(rec)}"
                    )
                vals = np.empty(len(columns))
                for j, tok in enumerate(rec):
                    tok = tok.strip()
                    if tok in na_tokens:
                        vals[j] = np.nan
                    else:
                        try:
                            vals[j] = float(tok)
                        except ValueError:
                            raise ValueError(
                                f"{path}:{lineno}: cannot parse {tok!r} in column "
                                f"{columns[j]!r}"
                            ) from None
                        if not np.isfinite(vals[j]):
                            raise ValueError(
                                f"{path}:{lineno}: non-finite value in column "
                                f"{columns[j]!r}; use '' or 'NA' for missing"
                            )
                rows.append(vals)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: unreadable CSV: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return columns, np.vstack(rows)


# ---------------------------------------------------------------------------
# Pattern discovery as it was before datasets held one mask table: a
# dict from mask bytes to row lists, a registry of Pattern objects, and
# per-row id and renumbering loops.  Kept verbatim apart from the error
# types (ValueError) and target_dims, which are stored without range checks.


@dataclass(frozen=True)
class Pattern:
    """A missingness pattern: a boolean observation mask with an id."""

    pattern_id: int
    mask: np.ndarray

    def key(self) -> bytes:
        """Hashable identity of the mask, independent of the id."""
        return self.mask.tobytes()


@dataclass(frozen=True)
class RegistryDataset:
    """Rows partitioned by missingness pattern, patterns in a registry."""

    values: np.ndarray
    pattern_ids: np.ndarray
    registry: tuple[Pattern, ...]
    target_dims: tuple[int, ...]
    dropped_rows: int = 0

    @property
    def masks(self) -> np.ndarray:
        """The registry as an (R + 1, d) mask table."""
        return np.array([p.mask for p in self.registry], dtype=bool)

    def subset(self, row_indices) -> "RegistryDataset":
        idx = np.asarray(row_indices, dtype=int)
        sub_values = self.values[idx]
        sub_ids = self.pattern_ids[idx]
        if not np.any(sub_ids == 0):
            raise ValueError("subset contains no complete rows")
        surviving = [
            pid for pid in range(len(self.registry)) if np.any(sub_ids == pid)
        ]
        remap = {old: new for new, old in enumerate(surviving)}
        new_registry = tuple(
            Pattern(remap[pid], self.registry[pid].mask) for pid in surviving
        )
        new_ids = np.array([remap[pid] for pid in sub_ids], dtype=int)
        return RegistryDataset(
            sub_values, new_ids, new_registry, self.target_dims, self.dropped_rows
        )


def build_registry_dataset(
    raw_values, target_dims, min_pattern_count: int = 1
) -> RegistryDataset:
    values = np.asarray(raw_values, dtype=float)
    d = values.shape[1]
    dims = tuple(sorted({int(t) for t in target_dims}))

    observed = ~np.isnan(values)
    complete = observed.all(axis=1)
    if not complete.any():
        raise ValueError("dataset has no complete rows")

    # Group nontrivial rows by mask bytes, keeping first-appearance order.
    packed = np.packbits(observed, axis=1)
    key_to_rows: dict[bytes, list[int]] = {}
    order: list[bytes] = []
    for i in np.flatnonzero(~complete):
        key = packed[i].tobytes()
        rows = key_to_rows.get(key)
        if rows is None:
            key_to_rows[key] = [i]
            order.append(key)
        else:
            rows.append(i)

    keep_rows = [np.flatnonzero(complete)]
    masks: list[np.ndarray] = []
    dropped = 0
    for key in order:
        rows = key_to_rows[key]
        if len(rows) < min_pattern_count:
            dropped += len(rows)
            continue
        keep_rows.append(np.asarray(rows, dtype=int))
        masks.append(observed[rows[0]].copy())

    kept = np.sort(np.concatenate(keep_rows))
    registry = [Pattern(0, np.ones(d, dtype=bool))]
    registry.extend(Pattern(r + 1, mask) for r, mask in enumerate(masks))

    mask_key_to_id = {p.key(): p.pattern_id for p in registry}
    ids = np.empty(kept.size, dtype=int)
    for out_i, i in enumerate(kept):
        ids[out_i] = mask_key_to_id[observed[i].tobytes()]

    return RegistryDataset(values[kept], ids, tuple(registry), dims, dropped)


# ---------------------------------------------------------------------------
# Score tables as they were before the tables were stacked: R-tuples of
# ragged per-pattern arrays, built with one fill call per (fold, group)
# cell.  Kept as they were apart from the error type (ValueError), the
# masking (inline), the read-only flags and the properties nothing reads.


def _sample_cov(rows: np.ndarray) -> np.ndarray:
    m = rows.shape[0]
    if m < 2:
        raise ValueError("covariance needs at least 2 rows")
    centered = rows - rows.mean(axis=0)
    return centered.T @ centered / (m - 1)


@dataclass(frozen=True)
class TupleScoreTables:
    """Per-row gradients and per-fold mean Hessians at a reference parameter."""

    loss: object
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

    @cached_property
    def group_means(self) -> tuple[np.ndarray, np.ndarray]:
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
                    raise ValueError(f"fold {j} has no {where}")
                means[j, i] = np.add.reduce(rows, axis=0, where=in_fold[:, None]) / count
        return means.mean(axis=0), self.h_folds.mean(axis=0)

    @cached_property
    def score_cov(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.param_dim
        joint = _sample_cov(np.hstack((self.g_complete, *self.g_masked)))
        imputed = np.array([_sample_cov(g) for g in self.g_imputed]).reshape(-1, p, p)
        return joint, imputed


def build_tuple_tables(dataset, loss, theta, fold_ids, k_folds, fill) -> TupleScoreTables:
    """Tables from fold-wise fills, one fill call per (fold, group) cell.

    fill(j, rows, row_ids) imputes the rows of fold j, which sit at row_ids
    in the dataset.
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

    complete_idx = dataset.rows_of(0)
    complete_rows = dataset.values[complete_idx]
    g_complete, fold_complete = _group(
        0, complete_rows, complete_idx, lambda j, rows, row_ids: rows
    )
    g_masked, g_imputed, fold_imputed, counts = [], [], [], []
    for r in range(1, big_r + 1):
        masked = complete_rows.copy()
        masked[:, ~dataset.masks[r]] = np.nan
        g_masked.append(_group(r, masked, complete_idx, fill)[0])
        rows_r = dataset.rows_of(r)
        g_own, folds_r = _group(big_r + r, dataset.values[rows_r], rows_r, fill)
        g_imputed.append(g_own)
        fold_imputed.append(folds_r)
        counts.append(rows_r.size)

    return TupleScoreTables(
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


def restrict_to_patterns(dataset, pattern_ids):
    """The dataset keeping its complete rows plus the named pattern groups,
    renumbered: the route single-pattern fits took before they sliced the
    shared score tables."""
    keep = np.isin(dataset.pattern_ids, [0, *pattern_ids])
    return dataset.subset(np.flatnonzero(keep))

