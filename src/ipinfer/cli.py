"""Command-line entry points: simulate, analyze, diagnose.

Each subcommand reads a declarative JSON config (unknown keys rejected),
applies any overriding flags, and checks every field before any work.  It
writes machine-readable output: metrics CSV/JSON for simulations,
schema-versioned result JSON for analyses, and a diagnostics JSON for the
transfer-gap tests.  Outputs carry no timestamps and use sorted keys, so a
rerun with the same config and seed is byte-identical.

Exit codes: 0 success, 2 config or usage error (an unreadable config or
data file or an unwritable output included), 3 data insufficiency,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources

import numpy as np

from . import baselines, diagnostics, estimators, imputers, losses, simgen
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    IpinferError,
    NumericError,
)
from .patterns import PatternedDataset, build_dataset, load_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_SHIFT_LEVELS = (0.01, 0.05, 0.10)

_LOSS_KEYS = {"family", "response", "covariates", "columns", "intercept"}

# simulate's loss when the config has no 'loss' section, and its values for
# the fields a section leaves out
_SIMULATE_LOSS = {"family": losses.LINEAR, "response": 2, "covariates": [0, 1]}


# ---------------------------------------------------------------------------
# config fields: one table per command, and one reader


@dataclass(frozen=True)
class Field:
    """One top-level config field: name, JSON type, default and range.

    `kind` is int, float, bool, str, list (of numbers, read as floats) or
    object (any JSON value, checked by `ok` or by the code that reads it).
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
_NUMBERS = "a list of numbers"
_SEED = Field(
    "seed", int, 0, _NON_NEGATIVE, lambda s: s >= 0, what=_NON_NEGATIVE,
    flag="override master seed",
)
_LOSS = Field("loss", object)
_IMPUTER = Field("imputer", str, imputers.GAUSSIAN_KIND, choices=imputers.KINDS)
_ALPHA = Field(
    "alpha", float, 0.1, "in (0, 1)", lambda a: 0.0 < a < 1.0, flag="interval level"
)
_TRAIN_FRAC = Field("train_frac", float, 0.0, "in [0, 1)", lambda f: 0.0 <= f < 1.0)
_K_FOLDS = Field("k_folds", int, 10, "at least 2", lambda k: k >= 2)
_N_BOOT = Field("n_boot", int, 50, "at least 2", lambda b: b >= 2)
# a coordinate index is range-checked once the loss is built
_OBJECTIVE = Field(
    "objective", object, "trace", "'trace' or a coordinate index",
    lambda o: o == "trace" or type(o) is int,
)
_MIN_COUNT = Field("min_pattern_count", int, 1)
_FULL = Field("full", bool, False, flag="also run the per-pattern test")
_OUT = Field("out", str)


def _data_fields(out_help: str) -> tuple[Field, ...]:
    """The fields analyze and diagnose share, in the order they are
    checked; `out_help` is the help of the command's --out flag."""
    return (
        _LOSS, _MIN_COUNT, _IMPUTER, _TRAIN_FRAC, _SEED,
        Field("lambda_mode", str, "tuned", choices=(*estimators.WEIGHT_MODES, "fixed")),
        Field("fixed_lambda", list, what=_NUMBERS),
        _FULL, replace(_OUT, flag=out_help),
    )


# Every config key each command accepts, in the order its fields are
# checked.  'loss' and simulate's 'methods' are read whole here and checked
# by _loss_from_config and build_experiment_config.
FIELDS = {
    "simulate": (
        _SEED,
        replace(_SEED, name="population_seed", default=_SEED, flag=""),
        Field("d", int, 20),
        Field("n_factors", int, 2),
        Field("variance_explained", float, 0.5),
        replace(_LOSS, default=_SIMULATE_LOSS),
        Field("methods", object, ["ipi", "complete_case"]),
        Field("n_complete", int, 200),
        Field(
            "ratio", float, 10.0, "finite and at least 0",
            lambda r: math.isfinite(r) and r >= 0.0,
        ),
        Field("n_patterns", int, 10),
        Field("feature_mask_prob", float, 0.2),
        _IMPUTER,
        Field("trials", int, 100, "at least 1", lambda t: t >= 1),
        _ALPHA,
        replace(_TRAIN_FRAC, default=0.1),
        _K_FOLDS,
        _N_BOOT,
        _OBJECTIVE,
        Field("target_coordinate", int, 0),
        _MIN_COUNT,
        Field("jobs", int, 1, "at least 1", lambda j: j >= 1, flag="worker processes"),
        replace(_OUT, flag="output directory"),
        Field("experiment", str, "coverage", choices=("coverage", "shift")),
        Field("records", bool, False, flag="include per-trial records in JSON"),
        Field("shift_magnitudes", list, [0.0], what=_NUMBERS),
        Field("include_full", bool, False),
    ),
    "analyze": _data_fields("result JSON path (default stdout)") + (
        Field(
            "method", str, "ipi", choices=("complete_case", "aipw", "cipi", "ipi", "naive")
        ),
        _K_FOLDS,
        _N_BOOT,
        Field("diagnose", bool, False, flag="attach the transfer-gap report"),
        _ALPHA,
        Field("mcar", bool, True),
        Field("hessian_mode", str, None, choices=estimators.HESSIAN_MODES),
        _OBJECTIVE,
    ),
    "diagnose": _data_fields("output JSON path (default stdout)"),
}


def load_config(path: str) -> dict:
    """Parse a JSON config file; unreadable or malformed content is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return cfg


def _check_keys(cfg: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} field(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _read_fields(cfg: dict, command: str) -> dict:
    """Reject keys `command` does not accept, then read and check every
    field of its table; returns the values by name."""
    table = FIELDS[command]
    _check_keys(cfg, {f.name for f in table}, "config")
    values = {}
    for f in table:
        default = values[f.default.name] if isinstance(f.default, Field) else f.default
        values[f.name] = f.read(cfg, default)
    return values


def _check_coordinate(key, value, p):
    """A coordinate field ('objective' may also be 'trace') must index one
    of the loss's p parameters."""
    if value != "trace" and not 0 <= value < p:
        raise ConfigError(
            f"field {key!r} must be in [0, {p}) for this loss, got {value!r}"
        )


def _resolve_column(token, columns, key):
    """Map a column name or index from the config onto a matrix index."""
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise ConfigError(f"field {key!r} entries must be column names or indices")
    if isinstance(token, int):
        if not 0 <= token < len(columns):
            raise ConfigError(
                f"field {key!r}: column index {token} out of range "
                f"for {len(columns)} columns"
            )
        return token
    try:
        return columns.index(token)
    except ValueError:
        raise ConfigError(
            f"field {key!r}: unknown column name {token!r}; "
            f"available: {', '.join(columns)}"
        ) from None


def _loss_from_config(section, columns: list, fallback=None) -> dict:
    """Resolve a 'loss' section to the raw column indices it names.

    Returns the keyword arguments of `losses.loss_for_columns`.  Entries
    are names in `columns` (the CSV header, or x0..x{d-1} for simulate) or
    indices into it, and every entry given is resolved, whichever family
    reads it.  A field the section leaves out takes its value from
    `fallback` (simulate's; analyze and diagnose have none), except that a
    mean loss takes no fallback response.
    """
    fallback = fallback or {}
    if not isinstance(section, dict):
        raise ConfigError("config needs a 'loss' object")
    _check_keys(section, _LOSS_KEYS, "loss")
    family = Field("family", str).read(section, fallback.get("family"))
    if family is None:
        raise ConfigError("field 'loss.family' is required")
    spec = {"family": family, "intercept": Field("intercept", bool).read(section, False)}
    for key in ("response", "covariates", "columns"):
        default = None if key == "response" and family == losses.MEAN else fallback.get(key)
        value = section.get(key, default)
        where = f"loss.{key}"
        if value is None:
            if default is not None:
                raise ConfigError(f"field {where!r} must not be null")
            spec[key] = None
        elif key == "response":
            spec[key] = _resolve_column(value, columns, where)
        elif isinstance(value, list):
            spec[key] = tuple(_resolve_column(v, columns, where) for v in value)
        else:
            raise ConfigError(f"field {where!r} must be a list of column names or indices")
    return spec


def build_experiment_config(values: dict) -> simgen.ExperimentConfig:
    """Map simulate's checked field values onto an ExperimentConfig,
    checking the loss section, the method list, the missingness fields and
    the coordinates."""
    factor = simgen.FactorModelConfig(
        d=values["d"], n_factors=values["n_factors"],
        variance_explained=values["variance_explained"], seed=values["population_seed"],
    )
    loss = _loss_from_config(
        values["loss"], [f"x{j}" for j in range(factor.d)], _SIMULATE_LOSS
    )
    methods = values["methods"]
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError("field 'methods' must be a list of method names")
    simgen.check_methods(methods, values["n_patterns"], loss["family"])
    # the fields an ExperimentConfig takes under their config names
    same = {f.name for f in fields(simgen.ExperimentConfig)} - {"methods"}
    config = simgen.ExperimentConfig(
        **{key: values[key] for key in same & values.keys()},
        factor=factor,
        methods=tuple(methods),
        loss_family=loss["family"], response=loss["response"],
        covariates=loss["covariates"], mean_columns=loss["columns"],
        intercept=loss["intercept"],
    )
    config.missingness()  # checks its fields before simulate creates --out
    p = config.make_loss()[0].param_dim
    _check_coordinate("target_coordinate", config.target_coordinate, p)
    _check_coordinate("objective", config.objective, p)
    return config


def _apply_overrides(cfg: dict, args) -> dict:
    """The command's flags given on the command line override their config
    fields one-to-one."""
    out = dict(cfg)
    for f in FIELDS[args.command]:
        value = getattr(args, f.name) if f.flag else None
        if value is not None:
            out[f.name] = value
    return out


def _weights(values: dict):
    """The `weights` argument that the checked lambda_mode and fixed_lambda
    fields ask for: a weight mode, or the fixed weights."""
    mode, fixed = values["lambda_mode"], values["fixed_lambda"]
    if mode == "fixed":
        if fixed is None:
            raise ConfigError("lambda_mode='fixed' needs fixed_lambda")
        return fixed
    if fixed is not None:
        raise ConfigError("field 'fixed_lambda' only applies to lambda_mode='fixed'")
    return mode


# ---------------------------------------------------------------------------
# JSON emission


def _clean(obj):
    """Make a payload JSON-safe: numpy scalars/arrays out, non-finite to null."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n"


def _write(path: str, text: str) -> None:
    """Write one output file; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot write output {path}: {exc}") from None


def _emit(payload: dict, out_path: str | None) -> None:
    text = _dump_json(payload)
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write(out_path, text)


def schema_text(name: str) -> str:
    """Return a bundled output schema ('result-v1', 'diagnostics-v1', 'metrics-v1')."""
    ref = resources.files("ipinfer").joinpath("schemas", f"{name}.json")
    return ref.read_text()


def _report_payload(report: diagnostics.DiagnosticReport) -> dict:
    names = ("statistic", "chi2_stat", "df", "p_value", "gaps", "warnings")
    return {name: getattr(report, name) for name in names}


# ---------------------------------------------------------------------------
# shared analyze/diagnose plumbing


def _load_dataset(csv_path: str, loss_section, min_count: int):
    """Read the data CSV and build the dataset the loss section asks for;
    returns (dataset, loss, coefficient names, warnings)."""
    try:
        columns, matrix = load_csv(csv_path)
    except OSError as exc:
        raise ConfigError(f"cannot read data {csv_path}: {exc}") from None
    spec = _loss_from_config(loss_section, columns)
    loss, target_dims = losses.loss_for_columns(**spec)
    dataset = build_dataset(matrix, target_dims, min_pattern_count=min_count)
    if dataset.n_rows < 2:
        raise DataError(
            f"{csv_path}: need at least 2 rows after pattern filtering, "
            f"got {dataset.n_rows}"
        )
    warnings = []
    if dataset.dropped_rows:
        warnings.append(
            f"dropped {dataset.dropped_rows} rows in patterns below "
            f"min_pattern_count={min_count}"
        )
    names = [columns[i] for i in target_dims]
    if loss.family != losses.MEAN:
        names = [names[i] for i in loss.covariate_indices]
        if loss.intercept:
            names.append("intercept")
    return dataset, loss, names, warnings


def _trained_imputer(dataset, kind, train_frac, seed, warnings):
    """Fit the imputer, splitting off training rows if asked; returns
    (model, inference dataset).

    train_frac=0 trains in-sample: fine for diagnostics and unbiased
    imputers, but tuning and intervals may be optimistic for flexible
    imputers; the cross-fitted method avoids the issue entirely.
    """
    if train_frac == 0.0:
        warnings.append(
            "imputer trained on the inference rows (train_frac=0); "
            "set train_frac>0 or use method 'cipi' for honest training"
        )
        return imputers.fit(kind, dataset.values), dataset
    return estimators.train_imputer(
        dataset, kind, train_frac, np.random.SeedSequence((seed, 0))
    )


def _ipi_tables(dataset, loss, values, warnings, score=True):
    """Analyze's ipi pipeline after loading, which diagnose runs too: train
    the imputer, then score the inference rows at the complete-case
    estimate unless `score` is false.  Returns (model, inference, tables)."""
    model, inference = _trained_imputer(
        dataset, values["imputer"], values["train_frac"], values["seed"], warnings
    )
    if not score:
        return model, inference, None
    theta_n = losses.solve_complete_case(inference, loss)
    return model, inference, estimators.score_tables(inference, loss, model, theta_n)


def _dataset_summary(inference: PatternedDataset) -> dict:
    """The row and pattern counts both result payloads report."""
    names = ("n_rows", "n_complete", "n_patterns", "dropped_rows")
    return {"pattern_counts": inference.pattern_counts(),
            **{name: getattr(inference, name) for name in names}}


def _diagnostics_payload(tables, weights, run_full, warnings):
    """Both transfer-gap reports at `weights` (a weight mode or the weights
    themselves); any warning the weight tuning raised goes to `warnings`."""
    weights, tune_warnings = estimators.resolve_weights(tables, weights)
    warnings.extend(tune_warnings)
    return {
        "weighted": _report_payload(diagnostics.t_ipi_test(tables, weights)),
        "full": _report_payload(diagnostics.t_full_test(tables)) if run_full else None,
        "lambda": weights.lam,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    values = _read_fields(cfg, "simulate")
    config = build_experiment_config(values)
    if values["experiment"] == "coverage":
        for key in ("shift_magnitudes", "include_full"):
            if key in cfg:
                raise ConfigError(f"field {key!r} only applies to experiment='shift'")
    out_dir = values["out"] or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write output {out_dir}: {exc}") from None
    if values["experiment"] == "coverage":
        outputs = _simulate_coverage(config, values["records"])
    else:
        outputs = _simulate_shift(
            config, values["shift_magnitudes"], values["include_full"]
        )
    for name, text in outputs.items():
        _write(os.path.join(out_dir, name), text)
    return EXIT_OK


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _simulate_coverage(config, collect) -> dict:
    """The coverage run's output files, by name."""
    result = simgen.run_trials(config, collect_records=collect)
    fields = (
        "coverage", "coverage_se", "mean_width", "width_se",
        "mean_n_effective", "n_effective_se", "mean_estimate",
    )
    rows = [["method", "metric", "value"]]
    for m in result.metrics:
        rows.append([m.method, "n_trials", m.n_trials])
        rows.append([m.method, "failures", m.failures])
        rows.extend([m.method, name, repr(float(getattr(m, name)))] for name in fields)
    payload = {
        "schema": "ipinfer/metrics-v1",
        "experiment": "coverage",
        "config": asdict(config),
        "theta_star": result.theta_star,
        "methods": [asdict(m) for m in result.metrics],
        "records": [asdict(r) for r in result.records],
        "warnings": [],
    }
    return {"metrics.csv": _csv_text(rows), "metrics.json": _dump_json(payload)}


def _simulate_shift(config, magnitudes, include_full) -> dict:
    """The shift run's output files, by name."""
    results = simgen.gen_shift_experiment(config, magnitudes, include_full=include_full)
    rows = [["magnitude", "trial", "p_value_weighted", "p_value_full"]]
    for mag, res in zip(magnitudes, results):
        for rec in res.records:
            rows.append([
                repr(mag),
                rec.trial,
                "" if rec.p_value_weighted is None else repr(rec.p_value_weighted),
                "" if rec.p_value_full is None else repr(rec.p_value_full),
            ])
    rates = {
        which: {
            f"{level:.2f}": [res.rejection_rate(level, which) for res in results]
            for level in _SHIFT_LEVELS
        }
        for which in (("weighted", "full") if include_full else ("weighted",))
    }
    failures = sum(rec.p_value_weighted is None for res in results for rec in res.records)
    untested = [repr(mag) for mag, res in zip(magnitudes, results) if not res.p_values().size]
    warnings = [] if not untested else [
        f"no trial produced a p-value at shift magnitude(s) {', '.join(untested)}, "
        "so their rejection rates are null: a trial tests nothing when every "
        f"pattern falls below min_pattern_count ({config.min_pattern_count}) "
        "or its imputer or test fails"
    ]
    payload = {
        "schema": "ipinfer/metrics-v1",
        "experiment": "shift",
        "config": asdict(config),
        "shifts": magnitudes,
        "rejection_rates": rates,
        "n_trials": config.trials,
        "failures": failures,
        "warnings": warnings,
    }
    return {"pvalues.csv": _csv_text(rows), "shift.json": _dump_json(payload)}


def cmd_analyze(args) -> int:
    values = _read_fields(_apply_overrides(load_config(args.config), args), "analyze")
    method, alpha, mcar = values["method"], values["alpha"], values["mcar"]
    run_diag = values["diagnose"]
    # the options the cipi and ipi fits share
    shared = ("alpha", "hessian_mode", "objective", "mcar")
    options = {"weights": _weights(values), **{key: values[key] for key in shared}}
    if run_diag and method in ("cipi", "complete_case", "aipw"):
        raise ConfigError(
            f"--diagnose is not available with method {method!r}: its estimate "
            "uses no single trained imputer to test; run 'ipinfer diagnose' or "
            "use method 'ipi'"
        )

    dataset, loss, names, warnings = _load_dataset(
        args.csv, values["loss"], values["min_pattern_count"]
    )
    _check_coordinate("objective", values["objective"], loss.param_dim)
    inference, tables = dataset, None
    if method == "complete_case":
        fit = baselines.complete_case_fit(dataset, loss, alpha=alpha, mcar=mcar)
    elif method == "aipw":
        fit = baselines.aipw_fit(dataset, loss, alpha=alpha, mcar=mcar)
    elif method == "cipi":
        fit = estimators.cipi_fit(
            dataset, loss, values["imputer"], k_folds=values["k_folds"],
            n_boot=values["n_boot"], seed=(values["seed"], 0), **options,
        )
    else:
        model, inference, tables = _ipi_tables(
            dataset, loss, values, warnings, score=method == "ipi" or run_diag
        )
        if method == "naive":
            fit = baselines.naive_single_impute_fit(
                inference, loss, model, alpha=alpha, mcar=mcar
            )
        else:
            fit = estimators.fit_from_tables(tables, **options)

    payload = {
        "schema": "ipinfer/result-v1",
        "method": fit.method,
        "estimand": fit.estimand,
        "alpha": fit.alpha,
        "coefficients": names,
        "theta_hat": fit.theta_hat,
        "theta_complete": fit.theta_complete,
        "se": fit.se,
        "ci": fit.ci,
        "chi2_radius": fit.chi2_radius,
        "lambda": fit.weights.lam if fit.weights is not None else [],
        "lambda_mode": fit.weights.mode if fit.weights is not None else None,
        "hessian_mode": fit.hessian_mode,
        "n_effective": fit.n_effective,
        **_dataset_summary(inference),
        # naive carries no weights; its report uses tuned ones
        "diagnostics": (
            _diagnostics_payload(tables, fit.weights or "tuned", values["full"], warnings)
            if run_diag else None
        ),
        "warnings": warnings + list(fit.warnings),
    }
    _emit(payload, values["out"])
    return EXIT_OK


def cmd_diagnose(args) -> int:
    values = _read_fields(_apply_overrides(load_config(args.config), args), "diagnose")
    weights = _weights(values)
    dataset, loss, _, warnings = _load_dataset(
        args.csv, values["loss"], values["min_pattern_count"]
    )
    _, inference, tables = _ipi_tables(dataset, loss, values, warnings)
    payload = {
        "schema": "ipinfer/diagnostics-v1",
        **_diagnostics_payload(tables, weights, values["full"], warnings),
        **_dataset_summary(inference),
        "warnings": warnings,
    }
    _emit(payload, values["out"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipinfer",
        description=(
            "Imputation-powered inference for M-estimation under blockwise "
            "missing data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "simulate": ("run a Monte Carlo experiment", cmd_simulate, "experiment"),
        "analyze": ("fit an estimator on a data CSV", cmd_analyze, "analysis"),
        "diagnose": ("transfer-gap tests on a data CSV", cmd_diagnose, "diagnostics"),
    }
    for command, (help_text, func, config_kind) in commands.items():
        cmd = sub.add_parser(command, help=help_text)
        if command != "simulate":
            cmd.add_argument("csv", help="data CSV; ''/'NA' mark missing cells")
        cmd.add_argument("--config", required=True, help=f"{config_kind} config JSON")
        for f in (f for f in FIELDS[command] if f.flag):
            kind = {"action": "store_true"} if f.kind is bool else {"type": f.kind}
            cmd.add_argument(f"--{f.name}", default=None, help=f.flag, **kind)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or an invalid operation ends the run (exit 4) rather
        # than printing a warning and reporting NaN
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except (ConfigError, DimensionError) as exc:
        print(f"ipinfer: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"ipinfer: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"ipinfer: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IpinferError as exc:
        print(f"ipinfer: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
