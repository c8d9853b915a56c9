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

import math
import multiprocessing
import numbers
import os
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from . import baselines, diagnostics, estimators, imputers
from .errors import ConfigError, IpinferError
from .losses import LINEAR, MEAN, LossModel, loss_for_columns, solve_complete_case
from .patterns import PatternedDataset, build_dataset

_PATTERN_DRAW_ATTEMPTS = 1000
# Environment variables that fix a BLAS library's thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# config fields: one rule per field, for the library and the CLI alike


@dataclass(frozen=True)
class Field:
    """One top-level config field: name, JSON type, default and range.

    `kind` is int, float, bool, str, list (of numbers, read as floats),
    object (any JSON value, checked by `ok` or by the code that reads it)
    or a tuple of these, read as the first that fits.
    An int reads as a float and an integral float as an int.  A JSON null
    is accepted only where the default is None, and never for a list.  A
    default that is itself a Field stands for that field's value.
    `choices` names the accepted strings; otherwise `ok` tests the value and
    `must` says what passes.  `what`, if set, names the kind in a type error.
    `flag`, if set, is the help of the command-line flag `--<name>` that
    overrides the field (a bool flag turns it on).
    """

    name: str
    kind: type
    default: object = None
    must: str = ""
    ok: Callable[[object], bool] | None = None
    choices: tuple[str, ...] = ()
    what: str = ""
    flag: str = ""

    def read(self, cfg: dict, default):
        """This field's checked value in `cfg`; `default` if it is absent."""
        value = cfg.get(self.name, default)
        nullable = default is None and (self.kind is not list or self.name not in cfg)
        if value is None and nullable:
            return None
        try:
            value = _as_kind(value, self.kind)
        except (TypeError, OverflowError):
            shown = "null" if value is None else repr(value)
            what = self.what or self.kind.__name__
            raise ConfigError(f"field {self.name!r} must be {what}, got {shown}") from None
        if self.choices and value not in self.choices:
            raise ConfigError(
                f"field {self.name!r} must be one of {', '.join(self.choices)}; "
                f"got {value!r}"
            )
        if self.ok is not None and not self.ok(value):
            raise ConfigError(f"field {self.name!r} must be {self.must}, got {value!r}")
        return value


def _as_kind(value, kind):
    """`value` read as a field of `kind`.  Raises TypeError if it is not
    one, and OverflowError for an int too large to read as a float."""
    if kind is object:
        return value
    if isinstance(kind, tuple):
        for each in kind:
            with suppress(TypeError):
                return _as_kind(value, each)
        raise TypeError
    if kind is list:
        if not isinstance(value, list):
            raise TypeError
        return [_as_kind(v, float) for v in value]
    if isinstance(value, bool) and kind is not bool:  # JSON true is no number
        raise TypeError
    if kind is float and isinstance(value, int):
        return float(value)
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, kind):
        raise TypeError
    return value


_NON_NEGATIVE = "a non-negative integer"
# The rule of each field of FactorModelConfig, MissingnessConfig and
# ExperimentConfig that has one, by name; the dataclasses hold the defaults.
# Each dataclass applies them when built, as the CLI does to its own fields.
RULES = {rule.name: rule for rule in (
    Field("seed", int, must=_NON_NEGATIVE, ok=lambda s: s >= 0, what=_NON_NEGATIVE),
    Field("d", int, must="at least 1", ok=lambda d: d >= 1),
    Field("n_factors", int, must="at least 1", ok=lambda q: q >= 1),
    Field("variance_explained", float, must="in (0, 1)", ok=lambda v: 0.0 < v < 1.0),
    Field("n_complete", int, must="at least 1", ok=lambda n: n >= 1),
    Field("ratio", float, must="finite and at least 0", ok=lambda r: 0.0 <= r < math.inf),
    Field("n_patterns", int, must=_NON_NEGATIVE, ok=lambda r: r >= 0),
    Field("feature_mask_prob", float, must="in (0, 1)", ok=lambda q: 0.0 < q < 1.0),
    Field("imputer", str, choices=imputers.KINDS),
    Field("trials", int, must="at least 1", ok=lambda t: t >= 1),
    Field("alpha", float, must="in (0, 1)", ok=lambda a: 0.0 < a < 1.0),
    Field("train_frac", float, must="in [0, 1)", ok=lambda f: 0.0 <= f < 1.0),
    Field("k_folds", int, must="at least 2", ok=lambda k: k >= 2),
    Field("n_boot", int, must="at least 2", ok=lambda b: b >= 2),
    # a coordinate's range depends on the loss: check_config checks it
    Field(
        "objective", object, must="'trace' or a coordinate index",
        ok=lambda o: o == estimators.TRACE_OBJECTIVE or type(o) is int,
    ),
    Field("target_coordinate", int),
    Field("min_pattern_count", int),
    Field("jobs", int, must="at least 1", ok=lambda j: j >= 1),
)}


def _check_fields(config) -> None:
    """Raise ConfigError unless the frozen dataclass `config` passes RULES,
    and hold each value as its rule reads it (an integral float as an int)."""
    for f in fields(config):
        if f.name in RULES:
            object.__setattr__(config, f.name, RULES[f.name].read(vars(config), f.default))


# ---------------------------------------------------------------------------
# factor-model population


@dataclass(frozen=True)
class FactorModelConfig:
    """Gaussian factor population: d features, n_factors latent factors,
    noise variance chosen so factors explain variance_explained of the
    total.  Each field is checked by its rule in RULES when the config is
    built."""

    d: int = 20
    n_factors: int = 2
    variance_explained: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_fields(self)


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
    masking features independently with feature_mask_prob.  Each field
    is checked by its rule in RULES when the config is built.
    """

    n_complete: int
    n_patterns: int = 10
    feature_mask_prob: float = 0.2
    min_pattern_count: int = 1

    def __post_init__(self) -> None:
        _check_fields(self)


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
    rng,
) -> PatternedDataset:
    """Mask a fully observed matrix per the MCAR pattern mechanism.

    Rows beyond the first n_complete are assigned uniformly at random to
    the drawn patterns and their unobserved cells set to NaN; `rng` (a
    Generator or anything np.random.default_rng takes) draws both.
    """
    matrix = np.asarray(complete_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ConfigError("complete_matrix must be 2-d")
    n_total, d = matrix.shape
    if config.n_complete > n_total:
        raise ConfigError(
            f"n_complete={config.n_complete} exceeds the {n_total} rows provided"
        )
    rng = np.random.default_rng(rng)
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
    """One Monte Carlo experiment: population, missingness, loss, methods;
    RULES checks each field when built, check_config the rules that span
    fields."""

    factor: FactorModelConfig = field(default_factory=FactorModelConfig)
    n_complete: int = 200
    ratio: float = 10.0  # incomplete rows per complete row
    n_patterns: int = MissingnessConfig.n_patterns
    feature_mask_prob: float = MissingnessConfig.feature_mask_prob
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
    objective: object = estimators.TRACE_OBJECTIVE  # or a coordinate index
    target_coordinate: int = 0
    min_pattern_count: int = MissingnessConfig.min_pattern_count
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        _check_fields(self)

    def n_total(self) -> int:
        return self.n_complete + int(round(self.ratio * self.n_complete))

    def missingness(self) -> MissingnessConfig:
        """The missingness fields as a MissingnessConfig."""
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
# ':'; single_pattern needs its one, 'best': every trial draws and numbers
# its patterns afresh, so a pattern id would name no fixed mask.
METHOD_SUFFIXES = {
    "complete_case": (), "aipw": (), "naive": (), "single_pattern": ("best",),
    "ipi": estimators.WEIGHT_MODES, "cipi": estimators.WEIGHT_MODES,
}
# The methods that read a Split: one imputer trained on split-off rows.
SPLIT_METHODS = ("ipi", "naive", "single_pattern")


def check_config(config: ExperimentConfig, shift: bool) -> None:
    """Raise ConfigError, once per run and before trial 0, unless the
    methods pass check_methods, the split check_split (`shift` marks a
    shift run), and target_coordinate and a coordinate objective each index
    one of the loss's parameters (estimators.check_coordinate): the rules
    that span fields, where RULES checked each field alone."""
    check_methods(config.methods, config.loss_family)
    check_split(config, shift)
    p = config.make_loss()[0].param_dim
    estimators.check_coordinate("target_coordinate", config.target_coordinate, p)
    estimators.objective_coords(config.objective, p)


def check_methods(methods, loss_family: str) -> None:
    """Raise ConfigError unless every entry names a method of
    METHOD_SUFFIXES, alone or with a suffix it takes, that fits the loss
    family (aipw is defined for linear regression only).  Whether the
    methods of SPLIT_METHODS get training rows is check_split's rule."""
    for method in methods:
        name, sep, arg = method.partition(":")
        if name not in METHOD_SUFFIXES:
            raise ConfigError(
                f"field 'methods': unknown method {method!r}; "
                f"expected one of {', '.join(METHOD_SUFFIXES)}"
            )
        suffixes = METHOD_SUFFIXES[name]
        # single_pattern needs its suffix; the others may go without one
        bare = () if name == "single_pattern" else ("no suffix",)
        if not (arg in suffixes or bare and not sep):
            takes = " or ".join([*bare, *(f"':{s}'" for s in suffixes)])
            raise ConfigError(f"field 'methods': {method!r}: {name} takes {takes}")
        if name == "aipw" and loss_family != LINEAR:
            raise ConfigError(
                f"field 'methods': {method!r} is defined for linear regression "
                f"only, not {loss_family}"
            )


def check_split(config: ExperimentConfig, shift: bool) -> None:
    """Raise ConfigError, before any trial, unless a run that reads a
    Split -- a shift experiment (`shift`), or any method of SPLIT_METHODS
    -- splits off at least one of its n_total rows for training (the rule
    of _check_training_rows, which Split.fitted applies to each dataset).
    Methods that read no split accept any train_frac."""
    if shift or any(m.partition(":")[0] in SPLIT_METHODS for m in config.methods):
        _check_training_rows(config.train_frac, config.n_total())


def _check_training_rows(train_frac: float, n_rows: int) -> None:
    """Raise ConfigError unless train_frac puts at least one of n_rows rows
    into the imputer's training split (split_train_inference takes
    floor(train_frac * n_rows)); so 0 never passes."""
    if int(np.floor(train_frac * n_rows)) == 0:
        raise ConfigError(
            f"field 'train_frac': {train_frac} of {n_rows} rows "
            "leaves no imputer training rows"
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
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2, trial)))
    matrix = population.sample(rng, config.n_total())
    return gen_mcar_missingness(matrix, config.missingness(), target_dims, rng), rng


@dataclass
class Split:
    """The imputer split the methods of SPLIT_METHODS read, each part built
    on first use.

    `fitted` is (model, inference dataset): the `imputer` kind fitted on
    the rows estimators.split_train_inference splits off, and the rows it
    leaves.  The model never fills a row it trained on.  A train_frac that
    splits off no row, 0 included, is a ConfigError, and a fit stopped at
    its iteration cap adds a warning to `warnings`.  `tables` holds the
    inference rows' score tables at their complete-case estimate.
    """

    dataset: PatternedDataset
    loss: LossModel
    imputer: str
    train_frac: float
    seed: object
    warnings: list

    @cached_property
    def fitted(self) -> tuple:
        _check_training_rows(self.train_frac, self.dataset.n_rows)
        train, inference = estimators.split_train_inference(
            self.dataset, self.train_frac, self.seed
        )
        model = imputers.fit(self.imputer, train)
        if not model.converged:
            self.warnings.append(
                f"the {self.imputer} imputer stopped at its cap of {model.cap} "
                "before converging"
            )
        return model, inference

    @cached_property
    def tables(self) -> estimators.ScoreTables:
        model, inference = self.fitted
        theta_n = solve_complete_case(inference, self.loss)
        return estimators.score_tables(inference, self.loss, model, theta_n)


def fit_method(
    method, dataset, loss, split, *, imputer, alpha, objective, k_folds, n_boot,
    seed, weights="tuned", mcar=True,
):
    """Fit one method of METHOD_SUFFIXES on `dataset`: the methods of
    SPLIT_METHODS read `split`, and cipi cross-fits `imputer` with `seed`.

    A ':' suffix on ipi or cipi names the weight mode in place of
    `weights`; single_pattern's is 'best', the pattern whose fit tunes to
    the smallest objective.  `mcar` sets the estimand label,
    and for ipi and cipi also the Hessian (see
    estimators.fit_from_tables).
    """
    name, _, arg = method.partition(":")
    shared = dict(weights=arg or weights, alpha=alpha, objective=objective, mcar=mcar)
    if name == "complete_case":
        return baselines.complete_case_fit(dataset, loss, alpha=alpha, mcar=mcar)
    if name == "aipw":
        return baselines.aipw_fit(dataset, loss, alpha=alpha, mcar=mcar)
    if name == "cipi":
        return estimators.cipi_fit(
            dataset, loss, imputer, k_folds=k_folds, n_boot=n_boot, seed=seed, **shared
        )
    if name == "naive":
        model, inference = split.fitted
        return baselines.naive_single_impute_fit(
            inference, loss, model, alpha=alpha, mcar=mcar
        )
    tables = split.tables
    if name == "ipi":
        return estimators.fit_from_tables(tables, **shared)
    fit, _ = baselines.best_single_pattern(tables, alpha=alpha, objective=objective)
    return fit


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
    must not reach it.  The workers are spawned, each with one BLAS thread.
    The outputs come back in trial order either way, so results do not
    depend on scheduling.
    """
    one = partial(trial_fn, config)
    workers = min(config.jobs, config.trials, os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, config.trials // (4 * workers))
        with _single_threaded_blas(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            return list(pool.map(one, range(config.trials), chunksize=chunk))
    return [one(t) for t in range(config.trials)]


@contextmanager
def _single_threaded_blas():
    """Set the BLAS thread variables to 1 for processes started inside, and
    restore the caller's environment on exit.

    A pool worker runs one trial at a time, so BLAS threads in it only
    compete with the other workers for the CPUs.  The variables take effect
    when numpy loads, which is why the pool spawns fresh workers rather than
    forking this process and its loaded BLAS.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var)
            else:
                os.environ[var] = value


def run_one_trial(config: ExperimentConfig, trial: int, population=None):
    """All configured methods on one simulated dataset, for a config that
    passed check_config; each record holds its fit's own n_effective.

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
    dataset, rng = _simulate_dataset(config, population, target_dims, trial)
    split = Split(dataset, loss, config.imputer, config.train_frac, rng, [])

    def _record(method):
        fit = fit_method(
            method, dataset, loss, split, imputer=config.imputer, alpha=config.alpha,
            objective=config.objective, k_folds=config.k_folds, n_boot=config.n_boot,
            seed=(config.seed, 3, trial),
        )
        lo, hi = fit.ci[j]
        return TrialRecord(
            method=method,
            trial=trial,
            estimate=float(fit.theta_hat[j]),
            lower=float(lo),
            upper=float(hi),
            covered=bool(lo <= theta_star[j] <= hi),
            width=float(hi - lo),
            n_effective=float(fit.n_effective[j]),
        )

    # A method whose fit or record fails (a zero-width interval, say) is
    # marked failed; the other methods still run.
    out = {method: _unless_failed(_record, method) for method in config.methods}
    return trial, out


def run_trials(config: ExperimentConfig, collect_records: bool = False) -> ExperimentResult:
    """Run the full experiment and aggregate per-method metrics."""
    check_config(config, False)
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
    shift: float
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

    A setting is a number, applied to every pattern: every trial draws and
    numbers its patterns afresh, so no per-pattern setting would name a
    fixed mask.  Anything else, and a config check_config refuses, is a
    ConfigError before any trial.  Each trial simulates data, fits the
    imputer on the training split and builds the score tables once.  Per
    setting it then shifts each pattern's own imputed scores (masked
    complete rows stay put), tunes the weights on the shifted tables and
    records the test p-values.  Trials run in the pool when jobs > 1.
    """
    check_config(config, True)
    if np.isscalar(shifts):
        raise ConfigError("shifts must be a list of settings, not one number")
    settings = list(shifts)
    if not all(isinstance(s, numbers.Real) for s in settings):
        raise ConfigError("each shift setting must be a number")
    trial_fn = partial(
        _shift_trial, population=build_population(config.factor),
        settings=settings, include_full=include_full,
    )
    p_values = _map_trials(config, trial_fn)
    return [
        ShiftExperimentResult(
            config=config,
            shift=float(s),
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
        return Split(dataset, loss, config.imputer, config.train_frac, rng, []).tables

    tables = _unless_failed(build)
    if tables is None or tables.n_patterns == 0:
        return [(None, None)] * len(settings)
    return [
        _unless_failed(_shift_p_values, tables, s, config.objective, include_full)
        or (None, None)
        for s in settings
    ]


def _shift_p_values(tables, shift, objective, include_full):
    shifted = diagnostics.apply_gradient_shift(tables, shift)
    weights, _ = estimators.resolve_weights(shifted, "tuned", objective)
    weighted = diagnostics.t_ipi_test(shifted, weights).p_value
    full = diagnostics.t_full_test(shifted).p_value if include_full else None
    return weighted, full
