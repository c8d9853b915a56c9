"""Command-line entry points: simulate, analyze, diagnose.

Each subcommand reads a declarative JSON config (unknown keys rejected),
applies any overriding flags, and writes machine-readable output: metrics
CSV/JSON for simulations, schema-versioned result JSON for analyses, and a
diagnostics JSON for the transfer-gap tests.  Outputs carry no timestamps
and use sorted keys, so a rerun with the same config and seed is
byte-identical.

Exit codes: 0 success, 2 config or usage error, 3 data insufficiency,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
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

_LOSS_KEYS = {"family", "response", "covariates", "columns", "intercept"}

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
    """Parse a JSON config file; malformed content is a ConfigError."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
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


def _field(cfg, key, kind, default):
    """Fetch and type-check one scalar config field."""
    value = cfg.get(key, default)
    if value is None:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _seed_field(cfg, key, default):
    """A seed field: an integer that numpy's seeding accepts (>= 0)."""
    value = _field(cfg, key, int, default)
    if value is None or value < 0:
        raise ConfigError(f"field {key!r} must be a non-negative integer, got {value}")
    return value


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"field 'alpha' must be in (0, 1), got {alpha}")
    return alpha


def _int_list(cfg, key):
    value = cfg.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"field {key!r} must be a list of integers")
    return value


def _objective_field(cfg):
    value = cfg.get("objective", "trace")
    if value == "trace":
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(
        f"field 'objective' must be 'trace' or a coordinate index, got {value!r}"
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


def _loss_from_config(cfg: dict, columns: list) -> tuple:
    """Build (loss, target_dims) from the 'loss' config section.

    For analyze/diagnose, `columns` is the CSV header and entries may be
    names; for simulate it is the synthetic x0..x{d-1} list.
    """
    section = cfg.get("loss")
    if not isinstance(section, dict):
        raise ConfigError("config needs a 'loss' object")
    _check_keys(section, _LOSS_KEYS, "loss")
    family = _field(section, "family", str, None)
    if family is None:
        raise ConfigError("field 'loss.family' is required")
    intercept = bool(_field(section, "intercept", bool, False))
    if family == losses.MEAN:
        cols = section.get("columns")
        if not isinstance(cols, list) or not cols:
            raise ConfigError("mean loss needs 'columns' (list)")
        idx = [_resolve_column(c, columns, "columns") for c in cols]
        return losses.loss_for_columns(family, columns=idx)
    response = section.get("response")
    covariates = section.get("covariates")
    if response is None or not isinstance(covariates, list) or not covariates:
        raise ConfigError(
            f"{family} loss needs 'response' and 'covariates' (list)"
        )
    r = _resolve_column(response, columns, "response")
    c = [_resolve_column(v, columns, "covariates") for v in covariates]
    return losses.loss_for_columns(
        family, response=r, covariates=c, intercept=intercept
    )


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
    section = cfg.get(
        "loss",
        {"family": losses.LINEAR, "response": 2, "covariates": [0, 1]},
    )
    if not isinstance(section, dict):
        raise ConfigError("field 'loss' must be an object")
    _check_keys(section, _LOSS_KEYS, "loss")
    family = _field(section, "family", str, losses.LINEAR)
    methods = cfg.get("methods", ["ipi", "complete_case"])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ConfigError("field 'methods' must be a list of method names")
    mean_cols = _int_list(section, "columns")
    covariates = _int_list(section, "covariates")
    trials = _field(cfg, "trials", int, 100)
    if trials is None or trials < 1:
        raise ConfigError(f"field 'trials' must be at least 1, got {trials!r}")
    return simgen.ExperimentConfig(
        factor=factor,
        n_complete=_field(cfg, "n_complete", int, 200),
        ratio=_field(cfg, "ratio", float, 10.0),
        n_patterns=_field(cfg, "n_patterns", int, 10),
        feature_mask_prob=_field(cfg, "feature_mask_prob", float, 0.2),
        loss_family=family,
        response=_field(section, "response", int, 2 if family != losses.MEAN else None),
        covariates=tuple(covariates) if covariates is not None else (0, 1),
        mean_columns=tuple(mean_cols) if mean_cols is not None else None,
        intercept=bool(_field(section, "intercept", bool, False)),
        imputer=_imputer_kind(cfg),
        methods=tuple(methods),
        trials=trials,
        alpha=_check_alpha(_field(cfg, "alpha", float, 0.1)),
        train_frac=_field(cfg, "train_frac", float, 0.1),
        k_folds=_field(cfg, "k_folds", int, 10),
        n_boot=_field(cfg, "n_boot", int, 50),
        objective=_objective_field(cfg),
        target_coordinate=_field(cfg, "target_coordinate", int, 0),
        min_pattern_count=_field(cfg, "min_pattern_count", int, 1),
        seed=seed,
        jobs=_field(cfg, "jobs", int, 1),
    )


def _imputer_kind(cfg) -> str:
    kind = _field(cfg, "imputer", str, imputers.GAUSSIAN_KIND)
    if kind not in imputers.KINDS:
        raise ConfigError(
            f"field 'imputer' must be one of {', '.join(imputers.KINDS)}; "
            f"got {kind!r}"
        )
    return kind


def _apply_overrides(cfg: dict, args) -> dict:
    """CLI flags override config fields one-to-one."""
    out = dict(cfg)
    for key in ("seed", "jobs", "alpha", "out"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    if getattr(args, "diagnose", False):
        out["diagnose"] = True
    if getattr(args, "full", False):
        out["full"] = True
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


def _emit(payload: dict, out_path: str | None) -> None:
    text = _dump_json(payload)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def schema_text(name: str) -> str:
    """Return a bundled output schema ('result-v1', 'diagnostics-v1', 'metrics-v1')."""
    ref = resources.files("ipinfer").joinpath("schemas", f"{name}.json")
    return ref.read_text()


def _report_payload(report: diagnostics.DiagnosticReport | None):
    if report is None:
        return None
    return {
        "statistic": report.statistic,
        "chi2_stat": report.chi2_stat,
        "df": int(report.df),
        "p_value": report.p_value,
        "gaps": report.gaps,
        "warnings": list(report.warnings),
    }


# ---------------------------------------------------------------------------
# shared analyze/diagnose plumbing


def _load_dataset(csv_path: str, cfg: dict) -> tuple[list, PatternedDataset, list]:
    columns, matrix = load_csv(csv_path)
    loss, target_dims = _loss_from_config(cfg, columns)
    min_count = _field(cfg, "min_pattern_count", int, 1)
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
    return columns, dataset, [loss, target_dims, warnings]


def _trained_imputer(dataset, cfg, warnings):
    """Fit the configured imputer, splitting off training rows if asked.

    train_frac=0 trains in-sample: fine for diagnostics and unbiased
    imputers, but tuning and intervals may be optimistic for flexible
    imputers; the cross-fitted method avoids the issue entirely.
    """
    kind = _imputer_kind(cfg)
    train_frac = _field(cfg, "train_frac", float, 0.0)
    seed = _seed_field(cfg, "seed", 0)
    if train_frac == 0.0:
        warnings.append(
            "imputer trained on the inference rows (train_frac=0); "
            "set train_frac>0 or use method 'cipi' for honest training"
        )
        model = imputers.fit(kind, dataset.values, dataset.target_dims)
        return model, dataset
    train, inference = estimators.split_train_inference(
        dataset, train_frac, np.random.SeedSequence((seed, 0))
    )
    model = imputers.fit(kind, train, dataset.target_dims)
    return model, inference


def _fixed_lambda(cfg):
    value = cfg.get("fixed_lambda")
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError("field 'fixed_lambda' must be a list of numbers")
    return np.asarray(value, dtype=float)


def _coefficient_names(loss, target_dims, columns) -> list:
    names = [columns[i] for i in target_dims]
    if loss.family == losses.MEAN:
        out = names
    else:
        out = [names[i] for i in loss.covariate_indices]
        if loss.intercept:
            out = out + ["intercept"]
    return out


def _score_tables(dataset, loss, model):
    """Score tables at the complete-case estimate."""
    theta_n = losses.solve_complete_case(dataset, loss)
    return estimators.score_tables(dataset, loss, model, theta_n)


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
    out_dir = cfg.pop("out", None) or "."
    experiment = _field(cfg, "experiment", str, "coverage")
    collect = bool(_field(cfg, "records", bool, False))
    if getattr(args, "records", False):
        collect = True
    if experiment == "coverage":
        for key in ("shift_magnitudes", "include_full"):
            if key in cfg:
                raise ConfigError(f"field {key!r} only applies to experiment='shift'")
    elif experiment != "shift":
        raise ConfigError(
            f"field 'experiment' must be 'coverage' or 'shift', got {experiment!r}"
        )
    shift_mags = cfg.pop("shift_magnitudes", [0.0])
    include_full = bool(_field(cfg, "include_full", bool, False))
    cfg.pop("include_full", None)
    cfg.pop("experiment", None)
    cfg.pop("records", None)
    config = build_experiment_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    if experiment == "coverage":
        _simulate_coverage(config, collect, out_dir)
    else:
        if not isinstance(shift_mags, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in shift_mags
        ):
            raise ConfigError("field 'shift_magnitudes' must be a list of numbers")
        _simulate_shift(config, [float(v) for v in shift_mags], include_full, out_dir)
    return EXIT_OK


def _config_echo(config: simgen.ExperimentConfig) -> dict:
    echo = asdict(config)
    echo["objective"] = (
        config.objective if isinstance(config.objective, (str, int)) else None
    )
    return echo


def _simulate_coverage(config, collect, out_dir):
    result = simgen.run_trials(config, collect_records=collect)
    fields = (
        "coverage", "coverage_se", "mean_width", "width_se",
        "mean_n_effective", "n_effective_se", "mean_estimate",
    )
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "metric", "value"])
        for m in result.metrics:
            writer.writerow([m.method, "n_trials", m.n_trials])
            writer.writerow([m.method, "failures", m.failures])
            for name in fields:
                writer.writerow([m.method, name, repr(float(getattr(m, name)))])
    payload = {
        "schema": "ipinfer/metrics-v1",
        "experiment": "coverage",
        "config": _config_echo(config),
        "theta_star": result.theta_star,
        "methods": [
            {
                "method": m.method,
                "n_trials": m.n_trials,
                "failures": m.failures,
                **{name: getattr(m, name) for name in fields},
            }
            for m in result.metrics
        ],
        "records": [
            {
                "method": r.method,
                "trial": r.trial,
                "estimate": r.estimate,
                "lower": r.lower,
                "upper": r.upper,
                "covered": r.covered,
                "width": r.width,
                "n_effective": r.n_effective,
            }
            for r in result.records
        ],
        "warnings": [],
    }
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        fh.write(_dump_json(payload))


def _simulate_shift(config, magnitudes, include_full, out_dir):
    results = [
        simgen.gen_shift_experiment(config, mag, include_full=include_full)
        for mag in magnitudes
    ]
    csv_path = os.path.join(out_dir, "pvalues.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["magnitude", "trial", "p_value_weighted", "p_value_full"])
        for mag, res in zip(magnitudes, results):
            for rec in res.records:
                writer.writerow([
                    repr(mag),
                    rec.trial,
                    "" if rec.p_value_weighted is None else repr(rec.p_value_weighted),
                    "" if rec.p_value_full is None else repr(rec.p_value_full),
                ])
    rates = {
        "weighted": {
            f"{level:.2f}": [res.rejection_rate(level, "weighted") for res in results]
            for level in _SHIFT_LEVELS
        }
    }
    if include_full:
        rates["full"] = {
            f"{level:.2f}": [res.rejection_rate(level, "full") for res in results]
            for level in _SHIFT_LEVELS
        }
    failures = sum(
        sum(1 for rec in res.records if rec.p_value_weighted is None)
        for res in results
    )
    payload = {
        "schema": "ipinfer/metrics-v1",
        "experiment": "shift",
        "config": _config_echo(config),
        "shifts": magnitudes,
        "rejection_rates": rates,
        "n_trials": config.trials,
        "failures": failures,
        "warnings": [],
    }
    with open(os.path.join(out_dir, "shift.json"), "w") as fh:
        fh.write(_dump_json(payload))


def cmd_analyze(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    _check_keys(cfg, _ANALYZE_KEYS, "config")
    out_path = cfg.get("out")
    alpha = _check_alpha(_field(cfg, "alpha", float, 0.1))
    columns, dataset, (loss, target_dims, warnings) = _load_dataset(args.csv, cfg)
    method = _field(cfg, "method", str, "ipi")
    mcar = bool(_field(cfg, "mcar", bool, True))
    lambda_mode = _field(cfg, "lambda_mode", str, "tuned")
    hessian_mode = _field(cfg, "hessian_mode", str, None)
    objective = _objective_field(cfg)
    run_diag = bool(_field(cfg, "diagnose", bool, False))
    run_full = bool(_field(cfg, "full", bool, False))
    seed = _seed_field(cfg, "seed", 0)
    if run_diag and method in ("cipi", "complete_case", "aipw"):
        raise ConfigError(
            f"--diagnose is not available with method {method!r}: its estimate "
            "uses no single trained imputer to test; run 'ipinfer diagnose' or "
            "use method 'ipi'"
        )

    inference = dataset
    tables = None
    if method == "complete_case":
        fit = baselines.complete_case_fit(dataset, loss, alpha=alpha, mcar=mcar)
    elif method == "aipw":
        fit = baselines.aipw_fit(dataset, loss, alpha=alpha, mcar=mcar)
    elif method == "cipi":
        fit = estimators.cipi_fit(
            dataset, loss, _imputer_kind(cfg),
            k_folds=_field(cfg, "k_folds", int, 10),
            n_boot=_field(cfg, "n_boot", int, 50),
            lambda_mode=lambda_mode,
            fixed_lambda=_fixed_lambda(cfg),
            alpha=alpha,
            hessian_mode=hessian_mode,
            objective=objective,
            mcar=mcar,
            seed=(seed, 0),
        )
    elif method in ("ipi", "naive"):
        model, inference = _trained_imputer(dataset, cfg, warnings)
        if method == "naive":
            fit = baselines.naive_single_impute_fit(
                inference, loss, model, alpha=alpha, mcar=mcar
            )
        else:
            tables = _score_tables(inference, loss, model)
            fit = estimators.fit_from_tables(
                tables,
                lambda_mode=lambda_mode,
                fixed_lambda=_fixed_lambda(cfg),
                alpha=alpha,
                hessian_mode=hessian_mode,
                objective=objective,
                mcar=mcar,
            )
    else:
        raise ConfigError(
            f"field 'method' must be one of complete_case, aipw, cipi, ipi, "
            f"naive; got {method!r}"
        )

    diag = None
    if run_diag:
        if tables is None:
            tables = _score_tables(inference, loss, model)
        diag = _diagnostics_payload(tables, fit.weights, run_full)

    payload = {
        "schema": "ipinfer/result-v1",
        "method": fit.method,
        "estimand": fit.estimand,
        "alpha": fit.alpha,
        "coefficients": _coefficient_names(loss, target_dims, columns),
        "theta_hat": fit.theta_hat,
        "theta_complete": fit.theta_complete,
        "se": fit.se,
        "ci": fit.ci,
        "chi2_radius": fit.chi2_radius,
        "lambda": fit.weights.lam if fit.weights is not None else [],
        "lambda_mode": fit.weights.mode if fit.weights is not None else None,
        "hessian_mode": fit.hessian_mode,
        "n_effective": fit.n_effective,
        "n_rows": inference.n_rows,
        "n_complete": inference.n_complete,
        "n_patterns": inference.n_patterns,
        "pattern_counts": inference.pattern_counts(),
        "dropped_rows": dataset.dropped_rows,
        "diagnostics": diag,
        "warnings": warnings + list(fit.warnings),
    }
    _emit(payload, out_path)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    _check_keys(cfg, _DIAGNOSE_KEYS, "config")
    out_path = cfg.get("out")
    columns, dataset, (loss, target_dims, warnings) = _load_dataset(args.csv, cfg)
    run_full = bool(_field(cfg, "full", bool, False))
    lambda_mode = _field(cfg, "lambda_mode", str, "tuned")
    model, inference = _trained_imputer(dataset, cfg, warnings)
    tables = _score_tables(inference, loss, model)
    weights, tune_warnings = estimators.resolve_weights(
        tables, lambda_mode, _fixed_lambda(cfg)
    )
    diag = _diagnostics_payload(tables, weights, run_full)
    payload = {
        "schema": "ipinfer/diagnostics-v1",
        "weighted": diag["weighted"],
        "full": diag["full"],
        "lambda": diag["lambda"],
        "n_rows": inference.n_rows,
        "n_complete": inference.n_complete,
        "n_patterns": inference.n_patterns,
        "pattern_counts": inference.pattern_counts(),
        "dropped_rows": dataset.dropped_rows,
        "warnings": warnings + tune_warnings,
    }
    _emit(payload, out_path)
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
