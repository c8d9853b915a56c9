"""Synthetic data generation and the Monte Carlo experiment harness.

Data follow a gaussian factor model: X = Z F' + sigma * eps with F a fixed
(d, q) loading matrix drawn once per population seed and the noise variance
set so the factors explain a target fraction of the total variance.
Missingness is completely at random: a fixed catalog of distinct nontrivial
patterns, each feature missing independently with a given probability, with
rows assigned to patterns uniformly.

The harness runs repeated trials, applies the configured methods to each
simulated dataset, scores coverage / width / effective sample size at a
target coordinate against the closed-form population parameter, and
aggregates with Monte Carlo standard errors.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import baselines, diagnostics, estimators, imputers
from .errors import ConfigError, DataError, IpinferError
from .losses import LINEAR, MEAN, LossModel, loss_for_columns, solve_complete_case
from .patterns import PatternedDataset, build_dataset

_PATTERN_DRAW_ATTEMPTS = 1000


# ---------------------------------------------------------------------------
# factor-model population


@dataclass(frozen=True)
class FactorModelConfig:
    """Gaussian factor population: d features, n_factors latent factors,
    noise variance chosen so factors explain variance_explained of the
    total."""

    d: int = 20
    n_factors: int = 2
    variance_explained: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d < 1 or self.n_factors < 1:
            raise ConfigError("d and n_factors must be positive")
        if not 0.0 < self.variance_explained < 1.0:
            raise ConfigError("variance_explained must be in (0, 1)")


@dataclass(frozen=True)
class FactorPopulation:
    """A realized factor model with its exact second moments."""

    loadings: np.ndarray  # (d, q)
    noise_var: float
    sigma: np.ndarray  # (d, d) = F F' + noise_var I

    @property
    def d(self) -> int:
        return int(self.loadings.shape[0])

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        q = self.loadings.shape[1]
        z = rng.standard_normal((m, q))
        eps = rng.standard_normal((m, self.d))
        return z @ self.loadings.T + np.sqrt(self.noise_var) * eps

    def regression_theta(self, response: int, covariates) -> np.ndarray:
        """Population least-squares coefficients of one coordinate on others
        (no intercept; the population is centered)."""
        cov = list(covariates)
        s_cc = self.sigma[np.ix_(cov, cov)]
        s_cy = self.sigma[cov, response]
        return np.linalg.solve(s_cc, s_cy)

    def theta_star(self, loss: LossModel, target_dims) -> np.ndarray:
        """Population minimizer of the loss over the target coordinates."""
        if loss.family == MEAN:
            return np.zeros(loss.param_dim)
        if loss.family == LINEAR:
            dims = list(target_dims)
            response = dims[loss.response_index]
            covariates = [dims[c] for c in loss.covariate_indices]
            theta = self.regression_theta(response, covariates)
            if loss.intercept:
                theta = np.append(theta, 0.0)
            return theta
        raise ConfigError(f"no closed-form parameter for {loss.family}")


def build_population(config: FactorModelConfig) -> FactorPopulation:
    """Draw the loading matrix once and fix the population."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    loadings = rng.standard_normal((config.d, config.n_factors))
    signal = float(np.trace(loadings @ loadings.T))
    v = config.variance_explained
    noise_var = signal * (1.0 - v) / (v * config.d)
    if not np.isfinite(noise_var):
        raise ConfigError(
            f"variance_explained={v!r} is too small: the noise variance overflows"
        )
    sigma = loadings @ loadings.T + noise_var * np.eye(config.d)
    return FactorPopulation(loadings, noise_var, sigma)


# ---------------------------------------------------------------------------
# MCAR missingness


@dataclass(frozen=True)
class MissingnessConfig:
    """Completely-at-random blockwise missingness.

    The first n_complete rows stay fully observed; the rest are assigned
    uniformly to n_patterns distinct nontrivial patterns, each drawn by
    masking features independently with feature_mask_prob.
    """

    n_complete: int
    n_patterns: int = 10
    feature_mask_prob: float = 0.2
    min_pattern_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_complete < 1:
            raise ConfigError("n_complete must be positive")
        if self.n_patterns < 0:
            raise ConfigError("n_patterns must be nonnegative")
        if not 0.0 < self.feature_mask_prob < 1.0:
            raise ConfigError("feature_mask_prob must be in (0, 1)")


def draw_patterns(d: int, config: MissingnessConfig, rng) -> np.ndarray:
    """Draw n_patterns distinct nontrivial observation masks, (R, d) bool."""
    rng = np.random.default_rng(rng)
    masks: list[np.ndarray] = []
    seen: set[bytes] = set()
    for _ in range(_PATTERN_DRAW_ATTEMPTS):
        if len(masks) == config.n_patterns:
            break
        mask = rng.random(d) >= config.feature_mask_prob
        if mask.all() or mask.tobytes() in seen:
            continue
        seen.add(mask.tobytes())
        masks.append(mask)
    else:
        raise ConfigError(
            f"could not draw {config.n_patterns} distinct nontrivial patterns "
            f"in {_PATTERN_DRAW_ATTEMPTS} attempts; adjust feature_mask_prob"
        )
    return np.asarray(masks, dtype=bool).reshape(config.n_patterns, d)


def gen_mcar_missingness(
    complete_matrix: np.ndarray,
    config: MissingnessConfig,
    target_dims,
    rng=None,
) -> PatternedDataset:
    """Mask a fully observed matrix per the MCAR pattern mechanism.

    Rows beyond the first n_complete are assigned uniformly at random to
    the drawn patterns and their unobserved cells set to NaN.
    """
    matrix = np.asarray(complete_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ConfigError("complete_matrix must be 2-d")
    n_total, d = matrix.shape
    if config.n_complete > n_total:
        raise ConfigError(
            f"n_complete={config.n_complete} exceeds the {n_total} rows provided"
        )
    rng = np.random.default_rng(config.seed if rng is None else rng)
    n_tilde = n_total - config.n_complete
    out = matrix.copy()
    if config.n_patterns > 0 and n_tilde > 0:
        masks = draw_patterns(d, config, rng)
        assign = rng.integers(0, config.n_patterns, size=n_tilde)
        for r in range(config.n_patterns):
            rows = config.n_complete + np.flatnonzero(assign == r)
            out[np.ix_(rows, np.flatnonzero(~masks[r]))] = np.nan
    return build_dataset(out, target_dims, config.min_pattern_count)


# ---------------------------------------------------------------------------
# experiment harness


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: population, missingness, loss, methods."""

    factor: FactorModelConfig = field(default_factory=FactorModelConfig)
    n_complete: int = 200
    ratio: float = 10.0  # incomplete rows per complete row
    n_patterns: int = 10
    feature_mask_prob: float = 0.2
    loss_family: str = LINEAR
    response: int | None = 2
    covariates: tuple[int, ...] | None = (0, 1)
    mean_columns: tuple[int, ...] | None = None
    intercept: bool = False
    imputer: str = imputers.GAUSSIAN_KIND
    methods: tuple[str, ...] = ("ipi", "complete_case")
    trials: int = 100
    alpha: float = 0.1
    train_frac: float = 0.1
    k_folds: int = 10
    n_boot: int = 50
    objective: object = 0  # tuning objective: coordinate or "trace"
    target_coordinate: int = 0
    min_pattern_count: int = 1
    seed: int = 0
    jobs: int = 1

    def n_total(self) -> int:
        return self.n_complete + int(round(self.ratio * self.n_complete))

    def missingness(self) -> MissingnessConfig:
        """The missingness fields as a MissingnessConfig, which checks them."""
        return MissingnessConfig(
            n_complete=self.n_complete,
            n_patterns=self.n_patterns,
            feature_mask_prob=self.feature_mask_prob,
            min_pattern_count=self.min_pattern_count,
        )

    def make_loss(self) -> tuple[LossModel, tuple[int, ...]]:
        if self.loss_family == MEAN:
            if not self.mean_columns:
                raise ConfigError("mean loss needs mean_columns")
            return loss_for_columns(MEAN, columns=self.mean_columns)
        return loss_for_columns(
            self.loss_family,
            response=self.response,
            covariates=self.covariates,
            intercept=self.intercept,
        )


# The methods a coverage run accepts, with the suffixes each takes after
# ':'; single_pattern needs one, 'best' or a pattern id in [1, n_patterns].
METHOD_SUFFIXES = {
    "complete_case": (), "aipw": (), "naive": (), "single_pattern": ("best",),
    "ipi": estimators.WEIGHT_MODES, "cipi": estimators.WEIGHT_MODES,
}


def check_methods(methods, n_patterns: int, loss_family: str) -> None:
    """Raise ConfigError unless every entry names a method of
    METHOD_SUFFIXES, alone or with a suffix it takes, that fits the loss
    family (aipw is defined for linear regression only)."""
    for method in methods:
        name, sep, arg = method.partition(":")
        if name not in METHOD_SUFFIXES:
            raise ConfigError(
                f"field 'methods': unknown method {method!r}; "
                f"expected one of {', '.join(METHOD_SUFFIXES)}"
            )
        suffixes = METHOD_SUFFIXES[name]
        if name == "single_pattern":
            # no id is longer than n_patterns, and int() refuses very long strings
            ok = arg == "best" or (
                arg.isdecimal() and len(arg) <= len(str(n_patterns))
                and 1 <= int(arg) <= n_patterns
            )
            takes = f"':best' or a pattern id in [1, {n_patterns}] after ':'"
        else:
            ok = not sep or arg in suffixes
            takes = " or ".join(["no suffix", *(f"':{s}'" for s in suffixes)])
        if not ok:
            raise ConfigError(f"field 'methods': {method!r}: {name} takes {takes}")
        if name == "aipw" and loss_family != LINEAR:
            raise ConfigError(
                f"field 'methods': {method!r} is defined for linear regression "
                f"only, not {loss_family}"
            )


@dataclass
class TrialRecord:
    method: str
    trial: int
    estimate: float
    lower: float
    upper: float
    covered: bool
    width: float
    n_effective: float


@dataclass
class MethodMetrics:
    """Aggregates for one method across completed trials."""

    method: str
    n_trials: int
    failures: int
    coverage: float
    coverage_se: float
    mean_width: float
    width_se: float
    mean_n_effective: float
    n_effective_se: float
    mean_estimate: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    theta_star: float
    metrics: list[MethodMetrics]
    records: list[TrialRecord] = field(default_factory=list)

    def metric(self, method: str) -> MethodMetrics:
        for m in self.metrics:
            if m.method == method:
                return m
        raise KeyError(method)


def _simulate_dataset(config: ExperimentConfig, population, target_dims, trial: int):
    """Trial `trial`'s masked sample, and the generator that drew it and
    goes on to draw the split."""
    # checked before drawing: a negative n_complete is no sample size
    mcfg = config.missingness()
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2, trial)))
    matrix = population.sample(rng, config.n_total())
    return gen_mcar_missingness(matrix, mcfg, target_dims, rng), rng


def _split_tables(config: ExperimentConfig, dataset, loss, rng) -> dict:
    """The train/inference split, the imputer fitted on the training rows,
    and the inference rows' score tables at the complete-case estimate."""
    model, inference = estimators.train_imputer(
        dataset, config.imputer, config.train_frac, rng
    )
    theta_n = solve_complete_case(inference, loss)
    tables = estimators.score_tables(inference, loss, model, theta_n)
    return {"inference": inference, "model": model, "tables": tables}


def _unless_failed(fn, *args):
    """fn(*args), or None if it fails; a ConfigError is no failure and raises."""
    try:
        return fn(*args)
    except ConfigError:
        raise
    except IpinferError:
        return None


def _map_trials(config: ExperimentConfig, trial_fn) -> list:
    """trial_fn(config, t) for every trial t.

    The trials run in min(jobs, trials, CPUs) worker processes when that is
    more than one: the pool starts every worker at once, so a large `jobs`
    must not reach it.  The outputs come back in trial order either way,
    so results do not depend on scheduling.
    """
    one = partial(trial_fn, config)
    workers = min(config.jobs, config.trials, os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, config.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, range(config.trials), chunksize=chunk))
    return [one(t) for t in range(config.trials)]


def run_one_trial(config: ExperimentConfig, trial: int, population=None):
    """All configured methods on one simulated dataset.

    Returns:
        (trial, {method: TrialRecord | None}); None marks a failed method.

    Raises:
        ConfigError: a method is misconfigured; this propagates rather than
            counting as a failed trial.
    """
    check_methods(config.methods, config.n_patterns, config.loss_family)
    if population is None:
        population = build_population(config.factor)
    loss, target_dims = config.make_loss()
    theta_star = population.theta_star(loss, target_dims)
    j = config.target_coordinate
    dataset, rng = _simulate_dataset(config, population, target_dims, trial)

    cc_fit = baselines.complete_case_fit(dataset, loss, alpha=config.alpha)
    baseline_width = cc_fit.width[j]

    # One split, imputer and table set per trial, built only if a method
    # needs them and shared by every method that does.
    split_artifacts = cache(lambda: _split_tables(config, dataset, loss, rng))

    def _record(method):
        fit = _run_method(method, config, dataset, loss, cc_fit, split_artifacts, trial)
        lo, hi = fit.ci[j]
        return TrialRecord(
            method=method,
            trial=trial,
            estimate=float(fit.theta_hat[j]),
            lower=float(lo),
            upper=float(hi),
            covered=bool(lo <= theta_star[j] <= hi),
            width=float(hi - lo),
            n_effective=float(
                estimators.effective_sample_size(baseline_width, hi - lo, cc_fit.n_scale)
            ),
        )

    # A method whose fit or record fails (a zero-width interval, say) is
    # marked failed; the other methods still run.
    out = {method: _unless_failed(_record, method) for method in config.methods}
    return trial, out


def _run_method(method, config, dataset, loss, cc_fit, split_artifacts, trial):
    name, _, arg = method.partition(":")
    if name == "complete_case":
        return cc_fit
    if name == "aipw":
        return baselines.aipw_fit(dataset, loss, alpha=config.alpha)
    if name == "cipi":
        return estimators.cipi_fit(
            dataset, loss, config.imputer,
            k_folds=config.k_folds, n_boot=config.n_boot,
            weights=arg or "tuned", alpha=config.alpha,
            objective=config.objective,
            seed=(config.seed, 3, trial),
        )
    state = split_artifacts()
    if name == "ipi":
        return estimators.fit_from_tables(
            state["tables"], weights=arg or "tuned", alpha=config.alpha,
            objective=config.objective,
        )
    if name == "naive":
        return baselines.naive_single_impute_fit(
            state["inference"], loss, state["model"], alpha=config.alpha
        )
    # single_pattern: check_methods passed 'best' or an id in [1, n_patterns]
    tables = state["tables"]
    if arg == "best":
        fit, _ = baselines.best_single_pattern(
            tables, alpha=config.alpha, objective=config.objective
        )
        return fit
    if int(arg) > tables.n_patterns:
        raise DataError(
            f"this trial's data hold {tables.n_patterns} of the "
            f"{config.n_patterns} patterns, so no pattern {arg}"
        )
    return baselines.single_pattern_ipi(
        tables, int(arg), alpha=config.alpha, objective=config.objective
    )


def run_trials(config: ExperimentConfig, collect_records: bool = False) -> ExperimentResult:
    """Run the full experiment and aggregate per-method metrics."""
    population = build_population(config.factor)
    loss, target_dims = config.make_loss()
    theta_star = population.theta_star(loss, target_dims)
    trial_fn = partial(run_one_trial, population=population)
    results = [out for _, out in _map_trials(config, trial_fn)]

    metrics = []
    records: list[TrialRecord] = []
    for method in config.methods:
        recs = [out[method] for out in results]
        ok = [r for r in recs if r is not None]
        failures = len(recs) - len(ok)
        if collect_records:
            records.extend(ok)
        metrics.append(_aggregate(method, ok, failures))
    return ExperimentResult(
        config=config,
        theta_star=float(theta_star[config.target_coordinate]),
        metrics=metrics,
        records=records,
    )


def _aggregate(method: str, ok: list[TrialRecord], failures: int) -> MethodMetrics:
    t = len(ok)
    if t == 0:
        return MethodMetrics(method, 0, failures, *(float("nan"),) * 6, float("nan"))
    covered = np.array([r.covered for r in ok], dtype=float)
    widths = np.array([r.width for r in ok])
    n_effs = np.array([r.n_effective for r in ok])
    estimates = np.array([r.estimate for r in ok])
    coverage = float(covered.mean())
    return MethodMetrics(
        method=method,
        n_trials=t,
        failures=failures,
        coverage=coverage,
        coverage_se=float(np.sqrt(coverage * (1.0 - coverage) / t)),
        mean_width=float(widths.mean()),
        width_se=float(widths.std(ddof=1) / np.sqrt(t)) if t > 1 else float("nan"),
        mean_n_effective=float(n_effs.mean()),
        n_effective_se=float(n_effs.std(ddof=1) / np.sqrt(t)) if t > 1 else float("nan"),
        mean_estimate=float(estimates.mean()),
    )


# ---------------------------------------------------------------------------
# diagnostic shift experiments


@dataclass
class ShiftTrialRecord:
    trial: int
    p_value_weighted: float | None
    p_value_full: float | None


@dataclass
class ShiftExperimentResult:
    config: ExperimentConfig
    shifts: np.ndarray
    records: list[ShiftTrialRecord]

    def p_values(self, which: str = "weighted") -> np.ndarray:
        attr = "p_value_weighted" if which == "weighted" else "p_value_full"
        return np.array(
            [getattr(r, attr) for r in self.records if getattr(r, attr) is not None]
        )

    def rejection_rate(self, level: float = 0.05, which: str = "weighted") -> float:
        p = self.p_values(which)
        if p.size == 0:
            return float("nan")
        return float((p < level).mean())


def gen_shift_experiment(
    config: ExperimentConfig,
    shifts,
    include_full: bool = False,
) -> list[ShiftExperimentResult]:
    """Repeated transfer-gap tests under injected per-pattern score shifts:
    one ShiftExperimentResult per setting in `shifts`, in order.

    A setting is a number (applied to every pattern) or a length-n_patterns
    vector; any other shape is a ConfigError before any trial.  Entry r of
    a vector shifts whichever pattern is numbered r + 1 in that trial:
    every trial draws and numbers its patterns afresh, so a vector names no
    fixed mask.  Each trial simulates data, fits the imputer on the
    training split and builds the score tables once.  Per setting it then
    shifts each pattern's own imputed scores (masked complete rows stay
    put), tunes the weights on the shifted tables and records the test
    p-values.  Trials run in the pool when jobs > 1.
    """
    big_r = config.n_patterns
    if np.isscalar(shifts):
        raise ConfigError("shifts must be a list of settings, not one number")
    settings = [np.asarray(s, dtype=float) for s in shifts]
    for s in settings:
        if s.shape not in ((), (big_r,)):
            raise ConfigError(
                f"each shift setting must be a number or {big_r} values "
                f"(one per pattern), got shape {s.shape}"
            )
    trial_fn = partial(
        _shift_trial, population=build_population(config.factor),
        settings=settings, include_full=include_full,
    )
    p_values = _map_trials(config, trial_fn)
    return [
        ShiftExperimentResult(
            config=config,
            shifts=np.broadcast_to(s, (big_r,)).copy(),
            records=[ShiftTrialRecord(t, *p[i]) for t, p in enumerate(p_values)],
        )
        for i, s in enumerate(settings)
    ]


def _shift_trial(config, trial, population, settings, include_full) -> list:
    """One trial's (weighted, full) p-values under every shift setting;
    (None, None) where no pattern survives or a build or test failed."""
    loss, target_dims = config.make_loss()

    def build():
        dataset, rng = _simulate_dataset(config, population, target_dims, trial)
        return _split_tables(config, dataset, loss, rng)["tables"]

    tables = _unless_failed(build)
    if tables is None or tables.n_patterns == 0:
        return [(None, None)] * len(settings)
    return [
        _unless_failed(_shift_p_values, tables, s, config.objective, include_full)
        or (None, None)
        for s in settings
    ]


def _shift_p_values(tables, shift, objective, include_full):
    # A number is applied as a number, so it covers every pattern the
    # trial's data hold.
    shifted = diagnostics.apply_gradient_shift(tables, shift)
    weights, _ = estimators.resolve_weights(shifted, "tuned", objective)
    weighted = diagnostics.t_ipi_test(shifted, weights).p_value
    full = diagnostics.t_full_test(shifted).p_value if include_full else None
    return weighted, full
