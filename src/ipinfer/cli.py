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
import os
import sys
from dataclasses import asdict
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

_LAMBDA_MODES = ("tuned", "pooled", "zero", "fixed")

_LOSS_KEYS = {"family", "response", "covariates", "columns", "intercept"}

# simulate's loss when the config has no 'loss' section, and its values for
# the fields a section leaves out
_SIMULATE_LOSS = {"family": losses.LINEAR, "response": 2, "covariates": [0, 1]}

_SIMULATE_KEYS = {
    "experiment", "d", "n_factors", "variance_explained", "population_seed",
    "n_complete", "ratio", "n_patterns", "feature_mask_prob", "loss",
    "imputer", "methods", "trials", "alpha", "train_frac", "k_folds",
    "n_boot", "objective", "target_coordinate", "min_pattern_count", "seed",
    "jobs", "records", "shift_magnitudes", "include_full", "out",
}

_ANALYZE_KEYS = {
    "loss", "method", "imputer", "lambda_mode", "fixed_lambda", "alpha",
    "train_frac", "k_folds", "n_boot", "hessian_mode", "objective", "mcar",
    "min_pattern_count", "seed", "diagnose", "full", "out",
}

_DIAGNOSE_KEYS = {
    "loss", "imputer", "lambda_mode", "fixed_lambda", "train_frac",
    "min_pattern_count", "seed", "full", "out",
}


# ---------------------------------------------------------------------------
# config loading and validation


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


def _field(cfg, key, kind, default, expected=None):
    """Fetch and type-check one scalar config field; a JSON null is
    accepted only where the default itself is None."""
    value = cfg.get(key, default)
    if value is None and default is None:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        shown = "null" if value is None else repr(value)
        raise ConfigError(
            f"field {key!r} must be {expected or kind.__name__}, got {shown}"
        )
    return value


def _choice_field(cfg, key, choices, default):
    """A string field that must name one of `choices`; absent or null only
    where the default is None."""
    value = _field(cfg, key, str, default)
    if value is not None and value not in choices:
        raise ConfigError(
            f"field {key!r} must be one of {', '.join(choices)}; got {value!r}"
        )
    return value


def _seed_field(cfg, key, default):
    """A seed field: an integer that numpy's seeding accepts (>= 0)."""
    value = _field(cfg, key, int, default, "a non-negative integer")
    if value < 0:
        raise ConfigError(f"field {key!r} must be a non-negative integer, got {value}")
    return value


def _ranged_field(cfg, key, kind, default, ok, expected):
    """A scalar field whose value must pass `ok`; `expected` says what
    passes."""
    value = _field(cfg, key, kind, default)
    if not ok(value):
        raise ConfigError(f"field {key!r} must be {expected}, got {value!r}")
    return value


def _alpha_field(cfg):
    return _ranged_field(cfg, "alpha", float, 0.1, lambda a: 0.0 < a < 1.0, "in (0, 1)")


def _train_frac_field(cfg, default):
    return _ranged_field(
        cfg, "train_frac", float, default, lambda f: 0.0 <= f < 1.0, "in [0, 1)"
    )


def _at_least(cfg, key, default, minimum):
    return _ranged_field(
        cfg, key, int, default, lambda v: v >= minimum, f"at least {minimum}"
    )


def _list_field(cfg, key, default=None):
    """A list of numbers, read as floats; absent gives the default, and a
    JSON null is an error."""
    if key not in cfg:
        return default
    value = cfg[key]
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        shown = "null" if value is None else repr(value)
        raise ConfigError(f"field {key!r} must be a list of numbers, got {shown}")
    return [float(v) for v in value]


def _objective_field(cfg):
    value = cfg.get("objective", "trace")
    if value == "trace":
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(
        f"field 'objective' must be 'trace' or a coordinate index, got {value!r}"
    )


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
    family = _field(section, "family", str, fallback.get("family"))
    if family is None:
        raise ConfigError("field 'loss.family' is required")
    spec = {"family": family, "intercept": _field(section, "intercept", bool, False)}
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


def build_experiment_config(cfg: dict) -> simgen.ExperimentConfig:
    """Translate a simulate config dict into an ExperimentConfig."""
    _check_keys(cfg, _SIMULATE_KEYS, "config")
    seed = _seed_field(cfg, "seed", 0)
    pop_seed = _seed_field(cfg, "population_seed", seed)
    factor = simgen.FactorModelConfig(
        d=_field(cfg, "d", int, 20),
        n_factors=_field(cfg, "n_factors", int, 2),
        variance_explained=_field(cfg, "variance_explained", float, 0.5),
        seed=pop_seed,
    )
    loss = _loss_from_config(
        cfg.get("loss", _SIMULATE_LOSS),
        [f"x{j}" for j in range(factor.d)],
        _SIMULATE_LOSS,
    )
    methods = cfg.get("methods", ["ipi", "complete_case"])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError("field 'methods' must be a list of method names")
    for method in methods:
        name, _, arg = method.partition(":")
        if name != "single_pattern" or arg == "best":
            continue
        try:
            int(arg)
        except ValueError:
            raise ConfigError(
                f"field 'methods': {method!r} needs a pattern id or 'best' after ':'"
            ) from None
    config = simgen.ExperimentConfig(
        factor=factor,
        n_complete=_field(cfg, "n_complete", int, 200),
        ratio=_ranged_field(cfg, "ratio", float, 10.0, np.isfinite, "a finite number"),
        n_patterns=_field(cfg, "n_patterns", int, 10),
        feature_mask_prob=_field(cfg, "feature_mask_prob", float, 0.2),
        loss_family=loss["family"],
        response=loss["response"],
        covariates=loss["covariates"],
        mean_columns=loss["columns"],
        intercept=loss["intercept"],
        imputer=_choice_field(cfg, "imputer", imputers.KINDS, imputers.GAUSSIAN_KIND),
        methods=tuple(methods),
        trials=_at_least(cfg, "trials", 100, 1),
        alpha=_alpha_field(cfg),
        train_frac=_train_frac_field(cfg, 0.1),
        k_folds=_at_least(cfg, "k_folds", 10, 2),
        n_boot=_at_least(cfg, "n_boot", 50, 2),
        objective=_objective_field(cfg),
        target_coordinate=_field(cfg, "target_coordinate", int, 0),
        min_pattern_count=_field(cfg, "min_pattern_count", int, 1),
        seed=seed,
        jobs=_at_least(cfg, "jobs", 1, 1),
    )
    p = config.make_loss()[0].param_dim
    _check_coordinate("target_coordinate", config.target_coordinate, p)
    _check_coordinate("objective", config.objective, p)
    return config


def _data_fields(cfg: dict, allowed: set) -> dict:
    """Check an analyze or diagnose config's keys and read the fields the
    two commands share."""
    _check_keys(cfg, allowed, "config")
    return {
        "loss": cfg.get("loss"),
        "min_count": _field(cfg, "min_pattern_count", int, 1),
        "kind": _choice_field(cfg, "imputer", imputers.KINDS, imputers.GAUSSIAN_KIND),
        "train_frac": _train_frac_field(cfg, 0.0),
        "seed": _seed_field(cfg, "seed", 0),
        "lambda_mode": _choice_field(cfg, "lambda_mode", _LAMBDA_MODES, "tuned"),
        "fixed_lambda": _list_field(cfg, "fixed_lambda"),
        "full": _field(cfg, "full", bool, False),
        "out": _field(cfg, "out", str, None),
    }


def _apply_overrides(cfg: dict, args) -> dict:
    """CLI flags override config fields one-to-one."""
    out = dict(cfg)
    for key in ("seed", "jobs", "alpha", "out"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    for key in ("diagnose", "full"):
        if getattr(args, key, False):
            out[key] = True
    return out


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
    train, inference = estimators.split_train_inference(
        dataset, train_frac, np.random.SeedSequence((seed, 0))
    )
    if not len(train):
        raise ConfigError(
            f"field 'train_frac': {train_frac} of {dataset.n_rows} rows "
            "leaves no imputer training rows"
        )
    return imputers.fit(kind, train), inference


def _ipi_tables(dataset, loss, fields, warnings, score=True):
    """Analyze's ipi pipeline after loading, which diagnose runs too: train
    the imputer, then score the inference rows at the complete-case
    estimate unless `score` is false.  Returns (model, inference, tables)."""
    model, inference = _trained_imputer(
        dataset, fields["kind"], fields["train_frac"], fields["seed"], warnings
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


def _diagnostics_payload(tables, weights, run_full):
    """Both transfer-gap reports; weights None means tuned weights."""
    if weights is None:
        weights, _ = estimators.tune_lambda(tables)
    return {
        "weighted": _report_payload(diagnostics.t_ipi_test(tables, weights)),
        "full": _report_payload(diagnostics.t_full_test(tables)) if run_full else None,
        "lambda": weights.lam,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    config = build_experiment_config(cfg)
    out_dir = _field(cfg, "out", str, None) or "."
    experiment = _choice_field(cfg, "experiment", ("coverage", "shift"), "coverage")
    collect = _field(cfg, "records", bool, False) or args.records
    shift_mags = _list_field(cfg, "shift_magnitudes", [0.0])
    include_full = _field(cfg, "include_full", bool, False)
    if experiment == "coverage":
        for key in ("shift_magnitudes", "include_full"):
            if key in cfg:
                raise ConfigError(f"field {key!r} only applies to experiment='shift'")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write output {out_dir}: {exc}") from None
    if experiment == "coverage":
        outputs = _simulate_coverage(config, collect)
    else:
        outputs = _simulate_shift(config, shift_mags, include_full)
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
    payload = {
        "schema": "ipinfer/metrics-v1",
        "experiment": "shift",
        "config": asdict(config),
        "shifts": magnitudes,
        "rejection_rates": rates,
        "n_trials": config.trials,
        "failures": failures,
        "warnings": [],
    }
    return {"pvalues.csv": _csv_text(rows), "shift.json": _dump_json(payload)}


def cmd_analyze(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    fields = _data_fields(cfg, _ANALYZE_KEYS)
    method = _choice_field(
        cfg, "method", ("complete_case", "aipw", "cipi", "ipi", "naive"), "ipi"
    )
    k_folds = _at_least(cfg, "k_folds", 10, 2)
    n_boot = _at_least(cfg, "n_boot", 50, 2)
    run_diag = _field(cfg, "diagnose", bool, False)
    alpha = _alpha_field(cfg)
    mcar = _field(cfg, "mcar", bool, True)
    # the options the cipi and ipi fits share
    options = {
        "lambda_mode": fields["lambda_mode"],
        "fixed_lambda": fields["fixed_lambda"],
        "alpha": alpha,
        "hessian_mode": _choice_field(
            cfg, "hessian_mode", estimators.HESSIAN_MODES, None
        ),
        "objective": _objective_field(cfg),
        "mcar": mcar,
    }
    if run_diag and method in ("cipi", "complete_case", "aipw"):
        raise ConfigError(
            f"--diagnose is not available with method {method!r}: its estimate "
            "uses no single trained imputer to test; run 'ipinfer diagnose' or "
            "use method 'ipi'"
        )

    dataset, loss, names, warnings = _load_dataset(
        args.csv, fields["loss"], fields["min_count"]
    )
    _check_coordinate("objective", options["objective"], loss.param_dim)
    inference, tables = dataset, None
    if method == "complete_case":
        fit = baselines.complete_case_fit(dataset, loss, alpha=alpha, mcar=mcar)
    elif method == "aipw":
        fit = baselines.aipw_fit(dataset, loss, alpha=alpha, mcar=mcar)
    elif method == "cipi":
        fit = estimators.cipi_fit(
            dataset, loss, fields["kind"], k_folds=k_folds, n_boot=n_boot,
            seed=(fields["seed"], 0), **options,
        )
    else:
        model, inference, tables = _ipi_tables(
            dataset, loss, fields, warnings, score=method == "ipi" or run_diag
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
        "diagnostics": (
            _diagnostics_payload(tables, fit.weights, fields["full"]) if run_diag else None
        ),
        "warnings": warnings + list(fit.warnings),
    }
    _emit(payload, fields["out"])
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    fields = _data_fields(cfg, _DIAGNOSE_KEYS)
    dataset, loss, _, warnings = _load_dataset(
        args.csv, fields["loss"], fields["min_count"]
    )
    _, inference, tables = _ipi_tables(dataset, loss, fields, warnings)
    weights, tune_warnings = estimators.resolve_weights(
        tables, fields["lambda_mode"], fields["fixed_lambda"]
    )
    payload = {
        "schema": "ipinfer/diagnostics-v1",
        **_diagnostics_payload(tables, weights, fields["full"]),
        **_dataset_summary(inference),
        "warnings": warnings + tune_warnings,
    }
    _emit(payload, fields["out"])
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

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--seed", type=int, default=None, help="override master seed")
    sim.add_argument("--jobs", type=int, default=None, help="worker processes")
    sim.add_argument("--alpha", type=float, default=None, help="interval level")
    sim.add_argument("--out", default=None, help="output directory")
    sim.add_argument(
        "--records", action="store_true", help="include per-trial records in JSON"
    )
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="fit an estimator on a data CSV")
    ana.add_argument("csv", help="data CSV; ''/'NA' mark missing cells")
    ana.add_argument("--config", required=True, help="analysis config JSON")
    ana.add_argument("--seed", type=int, default=None)
    ana.add_argument("--alpha", type=float, default=None)
    ana.add_argument("--out", default=None, help="result JSON path (default stdout)")
    ana.add_argument(
        "--diagnose", action="store_true", help="attach the transfer-gap report"
    )
    ana.add_argument(
        "--full", action="store_true", help="also run the per-pattern test"
    )
    ana.set_defaults(func=cmd_analyze)

    dia = sub.add_parser("diagnose", help="transfer-gap tests on a data CSV")
    dia.add_argument("csv", help="data CSV; ''/'NA' mark missing cells")
    dia.add_argument("--config", required=True, help="diagnostics config JSON")
    dia.add_argument("--seed", type=int, default=None)
    dia.add_argument("--out", default=None, help="output JSON path (default stdout)")
    dia.add_argument(
        "--full", action="store_true", help="also run the per-pattern test"
    )
    dia.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DimensionError) as exc:
        print(f"ipinfer: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"ipinfer: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"ipinfer: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IpinferError as exc:
        print(f"ipinfer: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
