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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines, diagnostics, estimators, imputers
from .errors import ConfigError, IpinferError
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
    sigma = loadings @ loadings.T + noise_var * np.eye(config.d)
    return FactorPopulation(loadings, noise_var, sigma)


def gen_factor_data(
    config: FactorModelConfig, n_total: int, seed=None
) -> tuple[np.ndarray, FactorPopulation]:
    """Sample a fully observed (n_total, d) matrix plus its population."""
    population = build_population(config)
    if seed is None:
        seed = np.random.SeedSequence((config.seed, 1))
    rng = np.random.default_rng(seed)
    return population.sample(rng, n_total), population


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


def _trial_seed(master: int, trial: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((master, 2, trial))


def run_one_trial(config: ExperimentConfig, trial: int, population=None):
    """All configured methods on one simulated dataset.

    Returns:
        (trial, {method: TrialRecord | None}); None marks a failed method.

    Raises:
        ConfigError: a method is misconfigured; this propagates rather than
            counting as a failed trial.
    """
    if population is None:
        population = build_population(config.factor)
    loss, target_dims = config.make_loss()
    theta_star = population.theta_star(loss, target_dims)
    j = config.target_coordinate
    rng = np.random.default_rng(_trial_seed(config.seed, trial))
    matrix = population.sample(rng, config.n_total())
    mcfg = MissingnessConfig(
        n_complete=config.n_complete,
        n_patterns=config.n_patterns,
        feature_mask_prob=config.feature_mask_prob,
        min_pattern_count=config.min_pattern_count,
    )
    dataset = gen_mcar_missingness(matrix, mcfg, target_dims, rng)

    cc_fit = baselines.complete_case_fit(dataset, loss, alpha=config.alpha)
    baseline_width = cc_fit.width[j]

    split_state: dict = {}

    def _split_artifacts():
        # One train/inference split and one fitted imputer per trial,
        # shared by every method that needs them.
        if not split_state:
            train, inference = estimators.split_train_inference(
                dataset, config.train_frac, rng
            )
            model = imputers.fit(config.imputer, train, target_dims)
            theta_n = solve_complete_case(inference, loss)
            tables = estimators.score_tables(inference, loss, model, theta_n)
            split_state.update(inference=inference, model=model, tables=tables)
        return split_state

    out: dict[str, TrialRecord | None] = {}
    for method in config.methods:
        try:
            fit = _run_method(
                method, config, dataset, loss, cc_fit, _split_artifacts, trial
            )
        except ConfigError:
            raise
        except IpinferError:
            out[method] = None
            continue
        lo, hi = fit.ci[j]
        out[method] = TrialRecord(
            method=method,
            trial=trial,
            estimate=float(fit.theta_hat[j]),
            lower=float(lo),
            upper=float(hi),
            covered=bool(lo <= theta_star[j] <= hi),
            width=float(hi - lo),
            n_effective=float(
                cc_fit.n_scale * (baseline_width / (hi - lo)) ** 2
            ),
        )
    return trial, out


def _run_method(method, config, dataset, loss, cc_fit, split_artifacts, trial):
    name, _, arg = method.partition(":")
    if name == "complete_case":
        return cc_fit
    if name == "aipw":
        return baselines.aipw_fit(dataset, loss, alpha=config.alpha)
    if name == "cipi":
        lambda_mode = arg or "tuned"
        return estimators.cipi_fit(
            dataset, loss, config.imputer,
            k_folds=config.k_folds, n_boot=config.n_boot,
            lambda_mode=lambda_mode, alpha=config.alpha,
            objective=config.objective,
            seed=(config.seed, 3, trial),
        )
    state = split_artifacts()
    if name == "ipi":
        return estimators.fit_from_tables(
            state["tables"], lambda_mode=arg or "tuned", alpha=config.alpha,
            objective=config.objective,
        )
    if name == "naive":
        return baselines.naive_single_impute_fit(
            state["inference"], loss, state["model"], alpha=config.alpha
        )
    if name == "single_pattern":
        if arg == "best":
            fit, _ = baselines.best_single_pattern(
                state["tables"], alpha=config.alpha, objective=config.objective
            )
            return fit
        return baselines.single_pattern_ipi(
            state["tables"], int(arg), alpha=config.alpha, objective=config.objective
        )
    raise ConfigError(f"unknown method {method!r}")


def run_trials(config: ExperimentConfig, collect_records: bool = False) -> ExperimentResult:
    """Run the full experiment and aggregate per-method metrics.

    Trials are independent; with jobs > 1 they run in worker processes and
    are aggregated in trial order either way, so results do not depend on
    scheduling.
    """
    population = build_population(config.factor)
    loss, target_dims = config.make_loss()
    theta_star = population.theta_star(loss, target_dims)
    results: dict[int, dict] = {}
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for trial, out in pool.map(
                _trial_worker,
                ((config, t) for t in range(config.trials)),
                chunksize=max(1, config.trials // (4 * config.jobs)),
            ):
                results[trial] = out
    else:
        for t in range(config.trials):
            trial, out = run_one_trial(config, t, population)
            results[trial] = out

    metrics = []
    records: list[TrialRecord] = []
    for method in config.methods:
        recs = [results[t][method] for t in range(config.trials)]
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


def _trial_worker(args):
    config, trial = args
    return run_one_trial(config, trial)


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
) -> ShiftExperimentResult:
    """Repeated transfer-gap tests under injected per-pattern score shifts.

    Each trial simulates data, fits the imputer on the training split,
    shifts the imputed-score tables by the per-pattern constants (the shift
    hits only each pattern's own rows), tunes the weights on the shifted
    tables, and records the test p-values.
    """
    population = build_population(config.factor)
    loss, target_dims = config.make_loss()
    records = []
    for t in range(config.trials):
        rng = np.random.default_rng(_trial_seed(config.seed, t))
        matrix = population.sample(rng, config.n_total())
        mcfg = MissingnessConfig(
            n_complete=config.n_complete,
            n_patterns=config.n_patterns,
            feature_mask_prob=config.feature_mask_prob,
            min_pattern_count=config.min_pattern_count,
        )
        try:
            dataset = gen_mcar_missingness(matrix, mcfg, target_dims, rng)
            train, inference = estimators.split_train_inference(
                dataset, config.train_frac, rng
            )
            model = imputers.fit(config.imputer, train, target_dims)
            theta_n = solve_complete_case(inference, loss)
            tables = estimators.score_tables(inference, loss, model, theta_n)
            tables = diagnostics.apply_gradient_shift(tables, shifts)
            weights, _ = estimators.tune_lambda(tables, config.objective)
            weighted = diagnostics.t_ipi_test(tables, weights)
            full = diagnostics.t_full_test(tables) if include_full else None
        except IpinferError:
            records.append(ShiftTrialRecord(t, None, None))
            continue
        records.append(
            ShiftTrialRecord(
                t,
                weighted.p_value,
                full.p_value if full is not None else None,
            )
        )
    big_r = config.n_patterns
    arr = np.asarray(shifts, dtype=float)
    if arr.ndim == 0:
        arr = np.full(big_r, float(arr))
    return ShiftExperimentResult(config=config, shifts=arr, records=records)
