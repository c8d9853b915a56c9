"""End-to-end tests for the command-line interface.

Every test drives ``cli.main(argv)`` directly: it returns the process
exit code instead of raising SystemExit, so commands and their error
paths can be exercised in-process.
"""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import tempfile

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eight_row_matrix, random_blockwise
import oracles
from ipinfer import baselines, cli, diagnostics, estimators, imputers, losses, simgen
from ipinfer.errors import ConfigError
from ipinfer.patterns import build_dataset


EIGHT_CSV = "x,u\n1,2\n2,1\n3,4\n6,3\n,5\n,7\n,9\n,11\n"
COMPLETE_CSV = "x,u\n1,2\n2,1\n3,4\n6,3\n"

MEAN_X_LOSS = {"family": "mean", "columns": ["x"]}
MEAN_X = losses.mean_loss(1)

LINEAR_LOSS = {"family": "linear_regression", "response": 2, "covariates": [0, 1]}

WEIGHTS_MUST = "field 'weights' must be 'tuned', 'pooled', 'zero' or a list of finite numbers"

# The tests that fit the eight-row fixture through the CLI read its rows
# twice and split them in half, so eight rows train the imputer and eight
# are scored.  Its frozen numbers need a model fitted on the rows it
# fills, which the CLI never builds; test_estimators pins them.
EIGHT_TWICE_CSV = EIGHT_CSV + EIGHT_CSV.split("\n", 1)[1]
EIGHT_ROW_TRAIN_FRAC = 0.5


def eight_twice_matrix() -> np.ndarray:
    return np.vstack([eight_row_matrix()] * 2)


def write(path, text):
    path.write_text(text)
    return str(path)


def csv_text(header, matrix) -> str:
    """`matrix` as CSV text under `header`, NaN cells left empty."""
    rows = [",".join("" if np.isnan(v) else repr(float(v)) for v in row) for row in matrix]
    return "\n".join([header, *rows]) + "\n"


def library_split(matrix, kind):
    """The split that analyze and diagnose make of `matrix`, the loss on
    column 0, at EIGHT_ROW_TRAIN_FRAC and seed 0, rebuilt from the library:
    (the `kind` imputer fitted on the training rows, the inference dataset)."""
    dataset = build_dataset(matrix, (0,))
    train, inference = estimators.split_train_inference(
        dataset, EIGHT_ROW_TRAIN_FRAC, (0, 0)
    )
    return imputers.fit(kind, train), inference


def assert_fields_match(payload, fit, keys):
    """Each of `keys` in the payload equals the fit's, to 1e-12."""
    for key in keys:
        np.testing.assert_allclose(payload[key], getattr(fit, key), rtol=1e-12, err_msg=key)


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(capsys, argv):
    """Run the CLI, asserting success, and parse the stdout payload."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def run_error(capsys, argv):
    """Run the CLI, returning (exit_code, stderr_text)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.fixture
def eight_csv(tmp_path):
    return write(tmp_path / "eight.csv", EIGHT_CSV)


@pytest.fixture
def eight_twice_csv(tmp_path):
    return write(tmp_path / "eight_twice.csv", EIGHT_TWICE_CSV)


@pytest.fixture
def complete_csv(tmp_path):
    return write(tmp_path / "complete.csv", COMPLETE_CSV)


@pytest.fixture
def analyze_config(tmp_path):
    return write_config(
        tmp_path / "analyze.json",
        {
            "loss": MEAN_X_LOSS,
            "method": "ipi",
            "imputer": "chained_regression",
            "train_frac": EIGHT_ROW_TRAIN_FRAC,
            "alpha": 0.1,
        },
    )


def validate(payload, name):
    jsonschema.validate(payload, json.loads(cli.schema_text(name)))


class TestSchemas:
    @pytest.mark.parametrize("name", ["result-v1", "diagnostics-v1", "metrics-v1"])
    def test_bundled_schema_is_valid(self, name):
        schema = json.loads(cli.schema_text(name))
        jsonschema.validators.validator_for(schema).check_schema(schema)
        assert schema["properties"]["schema"]["const"] == f"ipinfer/{name}"

    def test_unknown_schema_name(self):
        with pytest.raises(FileNotFoundError):
            cli.schema_text("nope-v9")


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_analyze_requires_config(self, capsys, eight_csv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["analyze", eight_csv])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_flags_are_the_flagged_fields(self):
        # Each command's flags are the rows of its field table that declare
        # one, and the README sentence on flags names exactly those.
        parser = cli.build_parser()
        [commands] = [a.choices for a in parser._actions if a.dest == "command"]
        flagged = set()
        for command, sub in commands.items():
            options = {
                opt for action in sub._actions for opt in action.option_strings
                if opt.startswith("--") and opt not in ("--config", "--help")
            }
            expected = {f"--{f.name}" for f in cli.FIELDS[command] if f.flag}
            assert options == expected, command
            flagged |= expected
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        [sentence] = re.findall(r"The CLI flags [^.]*\.", " ".join(readme.split()))
        assert set(re.findall(r"`(--[a-z_]+)`", sentence)) == flagged


def readme_field_tables():
    """README's field tables: {command: {field: default cell}}, each table
    going to the commands named in the line before it."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n")[1].split("\n## ")[0]
    tables, heading = {}, ""
    for line in section.splitlines():
        if line.startswith("| `"):
            name, _, default = [cell.strip() for cell in line.split(" | ")[:3]]
            for command in cli.FIELDS:
                if f"`{command}`" in heading:
                    tables.setdefault(command, {})[name.strip("|` ")] = default
        elif line and not line.startswith("|"):
            heading = line
    return tables


def readme_default(field):
    if isinstance(field.default, cli.Field):
        return f"`{field.default.name}`"
    return "—" if field.default is None else f"`{json.dumps(field.default)}`"


@pytest.mark.parametrize("command", sorted(cli.FIELDS))
def test_readme_lists_every_field_with_its_default(command):
    documented = readme_field_tables()[command]
    for field in cli.FIELDS[command]:
        assert documented.get(field.name) == readme_default(field), field.name


def test_library_fields_are_declared_once():
    # Each row of a field the library's configs declare has the dataclass's
    # default and simgen.RULES's rule, so the README-table test above checks
    # the library's defaults too; ExperimentConfig's missingness defaults
    # are MissingnessConfig's.
    defaults = {
        f.name: f.default
        for config in (simgen.FactorModelConfig, simgen.ExperimentConfig)
        for f in dataclasses.fields(config)
    }
    named = set()
    for row in (row for table in cli.FIELDS.values() for row in table):
        if row.name in simgen.RULES:
            rule = simgen.RULES[row.name]
            assert row.default == defaults[row.name], row.name
            assert (row.kind, row.must, row.ok, row.choices, row.what) == (
                rule.kind, rule.must, rule.ok, rule.choices, rule.what
            ), row.name
            named.add(row.name)
    assert named == set(simgen.RULES)
    simulate = {row.name: row.default for row in cli.FIELDS["simulate"]}
    loss = simulate["loss"]
    assert (loss["family"], loss["response"], loss["covariates"], simulate["methods"]) == (
        defaults["loss_family"], defaults["response"], list(defaults["covariates"]),
        list(defaults["methods"]),
    )
    for f in dataclasses.fields(simgen.MissingnessConfig):
        if f.default is not dataclasses.MISSING:
            assert f.default == defaults[f.name], f.name


# One bad value for every field of simgen.RULES, and for the coordinate
# ranges, with the message that run_trials and `ipinfer simulate` both give.
RULE_CASES = [
    ("seed", -1, "field 'seed' must be a non-negative integer, got -1"),
    ("d", 0, "field 'd' must be at least 1, got 0"),
    ("n_factors", 0, "field 'n_factors' must be at least 1, got 0"),
    ("variance_explained", 1.0, "field 'variance_explained' must be in (0, 1), got 1.0"),
    ("n_complete", 0, "field 'n_complete' must be at least 1, got 0"),
    ("ratio", float("nan"), "field 'ratio' must be finite and at least 0, got nan"),
    ("ratio", -1.0, "field 'ratio' must be finite and at least 0, got -1.0"),
    ("n_patterns", -1, "field 'n_patterns' must be a non-negative integer, got -1"),
    ("feature_mask_prob", 0.0, "field 'feature_mask_prob' must be in (0, 1), got 0.0"),
    (
        "imputer", "bogus",
        "field 'imputer' must be one of mean, zero, hotdeck, "
        "gaussian_conditional, chained_regression; got 'bogus'",
    ),
    ("trials", 0, "field 'trials' must be at least 1, got 0"),
    ("alpha", 1.0, "field 'alpha' must be in (0, 1), got 1.0"),
    ("train_frac", 1.0, "field 'train_frac' must be in [0, 1), got 1.0"),
    ("k_folds", 1, "field 'k_folds' must be at least 2, got 1"),
    ("n_boot", 1, "field 'n_boot' must be at least 2, got 1"),
    (
        "objective", "bogus",
        "field 'objective' must be 'trace' or a coordinate index, got 'bogus'",
    ),
    # a coordinate's range depends on the loss, here of one parameter
    ("objective", 1, "field 'objective' must be in [0, 1) for this loss, got 1"),
    ("target_coordinate", 0.5, "field 'target_coordinate' must be int, got 0.5"),
    (
        "target_coordinate", -1,
        "field 'target_coordinate' must be in [0, 1) for this loss, got -1",
    ),
    ("min_pattern_count", "1", "field 'min_pattern_count' must be int, got '1'"),
    ("jobs", 0, "field 'jobs' must be at least 1, got 0"),
]


class TestConfigErrors:
    def test_unknown_key_lists_allowed(self, capsys, tmp_path, eight_csv):
        cfg = write_config(tmp_path / "c.json", {"loss": MEAN_X_LOSS, "bogus": 1})
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 2
        assert "bogus" in err and "allowed:" in err and "train_frac" in err

    def test_malformed_json_reports_position(self, capsys, tmp_path, eight_csv):
        cfg = write(tmp_path / "c.json", "{bad\n")
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 2
        assert f"{cfg}:1:2" in err and "invalid JSON" in err

    def test_config_must_be_object(self, capsys, tmp_path, eight_csv):
        cfg = write(tmp_path / "c.json", "[1, 2]\n")
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 2
        assert "JSON object" in err

    def test_missing_config_file(self, capsys, tmp_path, eight_csv):
        code, err = run_error(
            capsys, ["analyze", eight_csv, "--config", str(tmp_path / "none.json")]
        )
        assert code == 2
        assert "cannot read config" in err

    def test_unknown_column_lists_available(self, capsys, tmp_path, eight_csv):
        cfg = write_config(
            tmp_path / "c.json", {"loss": {"family": "mean", "columns": ["zzz"]}}
        )
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 2
        assert "'zzz'" in err and "available: x, u" in err

    def test_alpha_out_of_range(self, capsys, eight_csv, analyze_config):
        code, err = run_error(
            capsys,
            ["analyze", eight_csv, "--config", analyze_config, "--alpha", "1.5"],
        )
        assert code == 2
        assert "'alpha'" in err and "1.5" in err

    def test_unknown_method(self, capsys, tmp_path, eight_csv):
        cfg = write_config(
            tmp_path / "c.json", {"loss": MEAN_X_LOSS, "method": "ridge"}
        )
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 2
        assert "'method'" in err and "complete_case" in err

    def test_unknown_loss_family(self, capsys, tmp_path, eight_csv):
        cfg = write_config(
            tmp_path / "c.json", {"loss": {"family": "huber", "columns": ["x"]}}
        )
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 2
        assert "huber" in err

    def test_unknown_experiment(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"experiment": "power"})
        code, err = run_error(capsys, ["simulate", "--config", cfg])
        assert code == 2
        assert "'experiment'" in err

    def test_simulate_alpha_flag_out_of_range(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"trials": 2})
        code, err = run_error(
            capsys, ["simulate", "--config", cfg, "--alpha", "1.5"]
        )
        assert code == 2
        assert "'alpha'" in err

    def test_shift_keys_rejected_for_coverage(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"experiment": "coverage", "shift_magnitudes": [0.0]},
        )
        code, err = run_error(capsys, ["simulate", "--config", cfg])
        assert code == 2
        assert "shift_magnitudes" in err


    @pytest.mark.parametrize(
        "command, key, value, via_flag",
        [
            ("analyze", "seed", -1, False),
            ("analyze", "seed", -1, True),
            ("analyze", "seed", None, False),
            ("diagnose", "seed", -1, False),
            ("diagnose", "seed", -1, True),
            ("simulate", "seed", -1, False),
            ("simulate", "seed", -1, True),
            ("simulate", "population_seed", -1, False),
            ("simulate", "population_seed", None, False),
        ],
    )
    def test_negative_or_null_seed_rejected(
        self, capsys, tmp_path, eight_csv, command, key, value, via_flag
    ):
        if command == "simulate":
            payload = dict(TestSimulate.COVERAGE)
            argv = ["simulate", "--out", str(tmp_path / "out")]
        else:
            payload = {"loss": MEAN_X_LOSS, "imputer": "mean", "train_frac": 0.25}
            argv = [command, eight_csv]
        if via_flag:
            argv += ["--seed", str(value)]
        else:
            payload[key] = value
        argv += ["--config", write_config(tmp_path / "c.json", payload)]
        code, err = run_error(capsys, argv)
        assert code == 2
        assert err.count("\n") == 1
        assert f"'{key}'" in err and "non-negative" in err

    @pytest.mark.parametrize(
        "command, key, extra",
        [
            ("simulate", key, {})
            for key in (
                "n_complete", "d", "alpha", "train_frac", "n_patterns", "jobs",
                "k_folds", "n_boot", "ratio", "trials", "target_coordinate",
                "records", "experiment",
            )
        ]
        + [
            ("analyze", key, {})
            for key in ("mcar", "train_frac", "min_pattern_count", "alpha", "method")
        ]
        + [("analyze", key, {"method": "cipi"}) for key in ("k_folds", "n_boot")]
        + [("diagnose", key, {}) for key in ("train_frac", "full", "weights")]
        # fields the chosen method never reads are checked all the same
        + [("analyze", key, {}) for key in ("k_folds", "n_boot")]
        + [
            ("analyze", key, {"method": "complete_case"})
            for key in ("imputer", "weights")
        ],
    )
    def test_null_field_rejected(self, capsys, tmp_path, eight_csv, command, key, extra):
        # A JSON null once ended in a traceback, or silently took a value
        # other than the field's default.
        if command == "simulate":
            payload = dict(TestSimulate.COVERAGE)
            argv = ["simulate", "--out", str(tmp_path / "out")]
        else:
            payload = {"loss": MEAN_X_LOSS, "imputer": "mean", **extra}
            argv = [command, eight_csv]
        payload[key] = None
        argv += ["--config", write_config(tmp_path / "c.json", payload)]
        code, err = run_error(capsys, argv)
        assert code == 2
        assert err.startswith("ipinfer: config error:")
        assert err.count("\n") == 1
        assert f"'{key}'" in err and "got null" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("analyze", "weights", "bogus"),
            ("analyze", "train_frac", 5),
            ("analyze", "objective", 99),
            ("analyze", "objective", -1),
            ("analyze", "k_folds", -1),
            ("analyze", "n_boot", 0),
            ("diagnose", "weights", "bogus"),
            ("diagnose", "train_frac", -0.5),
            ("simulate", "train_frac", 5),
            ("simulate", "k_folds", -1),
            ("simulate", "n_boot", 0),
            ("simulate", "objective", 99),
            ("simulate", "jobs", 0),
            ("simulate", "jobs", -3),
            ("simulate", "ratio", -5),
        ],
    )
    def test_out_of_range_field_rejected(
        self, capsys, tmp_path, eight_csv, command, key, value
    ):
        # Fields the chosen method never reads are range-checked all the
        # same: complete_case uses none of these, and they once exited 0.
        if command == "simulate":
            payload = dict(TestSimulate.COVERAGE, methods=["complete_case"])
            argv = ["simulate", "--out", str(tmp_path / "out")]
        else:
            payload = {"loss": MEAN_X_LOSS, "imputer": "mean"}
            if command == "analyze":
                payload["method"] = "complete_case"
            argv = [command, eight_csv]
        payload[key] = value
        argv += ["--config", write_config(tmp_path / "c.json", payload)]
        code, err = run_error(capsys, argv)
        assert code == 2
        assert err.startswith("ipinfer: config error:")
        assert err.count("\n") == 1
        assert f"'{key}'" in err and repr(value) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, method",
        [("analyze", m) for m in ("complete_case", "aipw", "cipi", "ipi", "naive")]
        + [("diagnose", None)],
    )
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"fixed_lambda": [1.0]}, "unknown config field(s): fixed_lambda; allowed:"),
            ({"lambda_mode": "fixed"}, "unknown config field(s): lambda_mode; allowed:"),
            ({"weights": "fixed"}, f"{WEIGHTS_MUST}, got 'fixed'"),
            ({"weights": [float("nan"), 1]}, f"{WEIGHTS_MUST}, got [nan, 1.0]"),
            ({"weights": [True, 1]}, f"{WEIGHTS_MUST}, got [True, 1]"),
            ({"weights": [10**400, 1]}, f"{WEIGHTS_MUST}, got [{10**400}, 1]"),
        ],
        ids=[
            "stray_fixed_lambda", "fixed_without_weights",
            "weights_mode", "weights_nan", "weights_bool", "weights_overflow",
        ],
    )
    def test_weight_fields_checked_when_read(
        self, capsys, tmp_path, command, method, change, message
    ):
        # Weights once went unchecked under methods that use none, and
        # [10**400, 1] overflowed into a traceback.  These are errors of the
        # config alone, so the data file is never opened.  `weights` is the
        # one weight field: the old two-field spelling is an unknown key.
        payload = {"loss": MEAN_X_LOSS, "imputer": "mean", **change}
        if method is not None:
            payload["method"] = method
        cfg = write_config(tmp_path / "c.json", payload)
        absent = str(tmp_path / "absent.csv")
        code, err = run_error(capsys, [command, absent, "--config", cfg])
        assert code == 2
        assert err.startswith(f"ipinfer: config error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["analyze", "diagnose"])
    @pytest.mark.parametrize("weights", [[], [0.5, 0.5]], ids=["empty", "long"])
    def test_weight_count_checked_against_the_data(
        self, capsys, tmp_path, eight_csv, command, weights
    ):
        # The eight-row CSV holds one pattern.
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": MEAN_X_LOSS, "imputer": "mean", "train_frac": 0.25,
             "weights": weights},
        )
        code, err = run_error(capsys, [command, eight_csv, "--config", cfg])
        assert code == 2
        assert err == (
            f"ipinfer: config error: {len(weights)} weights given for 1 patterns\n"
        )

    def test_hessian_mode_is_an_unknown_key(self, capsys, tmp_path, eight_csv):
        # `mcar` alone picks the Hessian.
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": MEAN_X_LOSS, "imputer": "mean", "hessian_mode": "full_ipi_hessian"},
        )
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 2
        assert err.startswith("ipinfer: config error: unknown config field(s): hessian_mode;")
        assert "allowed:" in err and "mcar" in err

    @pytest.mark.parametrize("method", ["cipi", "complete_case", "aipw"])
    def test_diagnose_flag_rejected_for_method(
        self, capsys, tmp_path, eight_csv, method
    ):
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": MEAN_X_LOSS, "method": method, "imputer": "mean",
             "k_folds": 2, "n_boot": 4},
        )
        code, err = run_error(
            capsys, ["analyze", eight_csv, "--config", cfg, "--diagnose"]
        )
        assert code == 2
        assert err.count("\n") == 1
        assert f"'{method}'" in err
        assert "ipinfer diagnose" in err and "'ipi'" in err

    def test_simulate_method_config_error_exits_2(self, capsys, tmp_path):
        # n_boot 1 fails every cipi trial; it must not read as trial failures.
        payload = dict(TestSimulate.COVERAGE, d=6, n_complete=50, methods=["cipi"],
                       n_boot=1)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", payload)
        code, err = run_error(capsys, ["simulate", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert err.count("\n") == 1
        assert "n_boot" in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("trials", [0, -3, None])
    def test_simulate_rejects_fewer_than_one_trial(self, capsys, tmp_path, trials):
        cfg = write_config(
            tmp_path / "c.json", dict(TestSimulate.COVERAGE, trials=trials)
        )
        code, err = run_error(
            capsys, ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert err.count("\n") == 1
        assert "'trials'" in err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"ratio": float("inf")}, "'ratio'"),
            ({"ratio": float("nan")}, "'ratio'"),
            ({"loss": dict(LINEAR_LOSS, response=9)}, "'loss.response'"),
            ({"loss": dict(LINEAR_LOSS, covariates=[0, 9])}, "'loss.covariates'"),
            ({"loss": LINEAR_LOSS, "target_coordinate": 5}, "'target_coordinate'"),
            ({"target_coordinate": -1}, "'target_coordinate'"),
            ({"methods": ["single_pattern:x"]}, "'methods'"),
            ({"methods": ["single_pattern:"]}, "'methods'"),
            ({"ratio": 10**400}, "'ratio'"),
            ({"n_complete": 0}, "'n_complete'"),
            ({"n_patterns": -1}, "'n_patterns'"),
            ({"feature_mask_prob": 1.0}, "'feature_mask_prob'"),
            ({"methods": ["complete_case:xyz"]}, "'methods'"),
            ({"methods": ["naive:junk"]}, "'methods'"),
            ({"methods": ["aipw:1"]}, "'methods'"),
            ({"methods": ["bogus"]}, "'methods'"),
            ({"methods": ["ipi:bogus"]}, "'methods'"),
            ({"methods": ["ipi:fixed"]}, "'methods'"),
            ({"methods": ["cipi:fixed"]}, "'methods'"),
            # no pattern id names a fixed mask across trials, in range or not
            ({"methods": ["single_pattern:3", "single_pattern:99"], "n_patterns": 3},
             "'methods'"),
            ({"methods": ["single_pattern:" + "9" * 5000]}, "'methods'"),
            ({"methods": ["aipw"]}, "linear regression only"),
        ],
    )
    def test_simulate_rejects_unusable_field(self, capsys, tmp_path, change, field):
        # Each of these once ended in a traceback, was silently misread or
        # created the output directory before failing.
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", dict(TestSimulate.COVERAGE, **change))
        code, err = run_error(capsys, ["simulate", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert err.startswith("ipinfer: config error:")
        assert err.count("\n") == 1
        assert field in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "case, expected_code, fragment",
        [
            ("csv_missing", 2, "cannot read data"),
            ("csv_is_directory", 2, "cannot read data"),
            ("csv_not_utf8", 3, "not UTF-8"),
            ("config_not_utf8", 2, "cannot read config"),
            ("analyze_out_in_missing_dir", 2, "cannot write output"),
            ("simulate_out_is_file", 2, "cannot write output"),
            ("analyze_out_not_string", 2, "'out'"),
            ("simulate_out_not_string", 2, "'out'"),
            ("analyze_out_with_nul", 2, "cannot write output"),
            ("simulate_out_with_nul", 2, "cannot write output"),
        ],
    )
    def test_file_errors_exit_with_documented_code(
        self, capsys, tmp_path, eight_csv, case, expected_code, fragment
    ):
        # Each of these once ended in a traceback with exit status 1, or
        # wrote to file descriptor 7.
        cfg = write_config(tmp_path / "c.json", {"loss": MEAN_X_LOSS, "imputer": "mean"})
        # the analyze runs that reach --out fit a method that reads no split
        cc_cfg = write_config(
            tmp_path / "cc.json", {"loss": MEAN_X_LOSS, "method": "complete_case"}
        )
        sim_cfg = write_config(tmp_path / "s.json", TestSimulate.COVERAGE)
        (tmp_path / "bad.csv").write_bytes(b"x,u\n1,2\n\xff,3\n")
        (tmp_path / "bad.json").write_bytes(b'{"loss": "\xff"}')
        (tmp_path / "taken").write_text("")
        argv = {
            "csv_missing": ["analyze", str(tmp_path / "none.csv"), "--config", cfg],
            "csv_is_directory": ["diagnose", str(tmp_path), "--config", cfg],
            "csv_not_utf8": ["analyze", str(tmp_path / "bad.csv"), "--config", cfg],
            "config_not_utf8": ["analyze", eight_csv, "--config", str(tmp_path / "bad.json")],
            "analyze_out_in_missing_dir": [
                "analyze", eight_csv, "--config", cc_cfg,
                "--out", str(tmp_path / "missing" / "r.json"),
            ],
            "simulate_out_is_file": [
                "simulate", "--config", sim_cfg, "--out", str(tmp_path / "taken"),
            ],
            "analyze_out_not_string": [
                "analyze", eight_csv, "--config",
                write_config(tmp_path / "o.json", {"loss": MEAN_X_LOSS, "out": 7}),
            ],
            "simulate_out_not_string": [
                "simulate", "--config",
                write_config(tmp_path / "so.json", dict(TestSimulate.COVERAGE, out=7)),
            ],
            "analyze_out_with_nul": [
                "analyze", eight_csv, "--config",
                write_config(
                    tmp_path / "n.json",
                    {"loss": MEAN_X_LOSS, "method": "complete_case", "out": "r\0.json"},
                ),
            ],
            "simulate_out_with_nul": [
                "simulate", "--config",
                write_config(tmp_path / "sn.json", dict(TestSimulate.COVERAGE, out="o\0")),
            ],
        }[case]
        code, err = run_error(capsys, argv)
        assert code == expected_code
        assert err.count("\n") == 1
        assert fragment in err
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "command, method, train_frac",
        [
            ("analyze", None, 0.01),
            ("diagnose", None, 0.01),
            ("analyze", "ipi", 0.0),
            ("analyze", "naive", 0.0),
            ("diagnose", None, 0.0),
        ],
        ids=[
            "analyze", "diagnose", "analyze_ipi_zero", "analyze_naive_zero",
            "diagnose_zero",
        ],
    )
    def test_split_without_training_rows_exits_2(
        self, capsys, tmp_path, command, method, train_frac
    ):
        # 0.01 of the rows is no row; the imputer fit once failed on the
        # empty training set with exit 4.  0 once trained the imputer on
        # the rows it fills and exited 0.  The data hold 40 rows, so the
        # default 0.1 would leave four training rows.
        rng = np.random.default_rng(3)
        matrix = random_blockwise(rng, n_complete=20, per_pattern=10)
        csv = write(tmp_path / "d.csv", csv_text("x0,x1,x2,x3", matrix))
        payload = {"loss": {"family": "mean", "columns": ["x0"]}, "imputer": "mean",
                   "train_frac": train_frac}
        if method is not None:
            payload["method"] = method
        cfg = write_config(tmp_path / "c.json", payload)
        code, err = run_error(capsys, [command, csv, "--config", cfg])
        assert code == 2
        assert err == (
            f"ipinfer: config error: field 'train_frac': {train_frac} of 40 rows "
            "leaves no imputer training rows\n"
        )
        del payload["train_frac"]
        cfg = write_config(tmp_path / "c.json", payload)
        run_json(capsys, [command, csv, "--config", cfg])

    @pytest.mark.parametrize(
        "case", ["ipi", "naive", "single_pattern:best", "shift", "no_row"]
    )
    def test_simulate_split_without_training_rows_exits_2(self, capsys, tmp_path, case):
        # Every trial once failed and the run exited 0; then the run exited
        # 2 from its first trial, after creating --out.
        out = tmp_path / "out"
        change = {
            # a shift run splits whatever its methods
            "shift": {"experiment": "shift", "methods": ["complete_case"], "train_frac": 0.0},
            # 0.001 of the 120 rows is no row
            "no_row": {"train_frac": 0.001},
        }.get(case, {"methods": [case, "complete_case"], "train_frac": 0.0})
        cfg = write_config(tmp_path / "c.json", dict(TestSimulate.COVERAGE, **change))
        code, err = run_error(capsys, ["simulate", "--config", cfg, "--out", str(out)])
        assert code == 2
        train_frac = 0.001 if case == "no_row" else 0.0
        assert err == (
            f"ipinfer: config error: field 'train_frac': {train_frac} of 120 rows "
            "leaves no imputer training rows\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", 0),
            ("n_factors", 0),
            ("variance_explained", 0.0),
            ("variance_explained", 1.0),
            ("n_complete", 0),
            ("n_patterns", -1),
            ("feature_mask_prob", 0.0),
            ("feature_mask_prob", 1.0),
        ],
    )
    def test_simulate_field_out_of_range_names_it(self, capsys, tmp_path, field, value):
        # The library's checks once answered with messages such as "d and
        # n_factors must be positive".
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", dict(TestSimulate.COVERAGE, **{field: value}))
        code, err = run_error(capsys, ["simulate", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert err.startswith(f"ipinfer: config error: field {field!r} must be ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", RULE_CASES)
    def test_library_and_cli_give_one_message(self, capsys, tmp_path, key, value, message):
        # run_trials once answered some of these in other words or with a
        # numpy traceback, ran with trials 0 or jobs 0, and found n_boot 1
        # only once a trial reached the bootstrap.
        factor_keys = {"d", "n_factors", "variance_explained"}
        payload = dict(TestSimulate.COVERAGE, methods=["cipi", "complete_case"], trials=2)
        payload[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            simgen.run_trials(simgen.ExperimentConfig(
                factor=simgen.FactorModelConfig(**{k: payload[k] for k in factor_keys}),
                loss_family=losses.MEAN, response=None, covariates=None, mean_columns=(1,),
                methods=tuple(payload["methods"]),
                **{k: v for k, v in payload.items() if k in simgen.RULES.keys() - factor_keys},
            ))
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.json", payload)
        code, err = run_error(capsys, ["simulate", "--config", cfg, "--out", str(out)])
        assert (code, err) == (2, f"ipinfer: config error: {message}\n")
        assert not out.exists()

    def test_every_rule_has_a_case(self):
        assert {key for key, *_ in RULE_CASES} == set(simgen.RULES)

    @pytest.mark.parametrize("method", ["complete_case", "naive", "ipi"])
    def test_fractional_logistic_response_exits_2(self, capsys, tmp_path, method):
        # Every method fits the complete rows through the one complete-case
        # solver, so every method checks that observed responses are 0/1.
        # The default split trains on two of the 20 rows, so a fractional
        # response stays among the rows scored.
        y = [0, 1, 0.5, 1, 0, 0.25, 1, 0, 0.5, 1, 0, 1, 0.75, 0, 1, 0]
        rows = "y,x\n" + "".join(f"{v},{i}\n" for i, v in enumerate(y))
        csv = write(tmp_path / "d.csv", rows + ",16\n,17\n,18\n,19\n")
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": {"family": "logistic_regression", "response": "y",
                      "covariates": ["x"]},
             "method": method, "imputer": "mean"},
        )
        code, err = run_error(capsys, ["analyze", csv, "--config", cfg])
        assert code == 2
        assert "0/1" in err


class TestDataErrors:
    def test_no_complete_rows(self, capsys, tmp_path, analyze_config):
        csv = write(tmp_path / "d.csv", "x,u\n1,\n,2\n,3\n")
        code, err = run_error(capsys, ["analyze", csv, "--config", analyze_config])
        assert code == 3
        assert "complete" in err

    def test_too_few_rows_after_filtering(self, capsys, tmp_path):
        csv = write(tmp_path / "d.csv", "x,u\n1,2\n,3\n,5\n")
        cfg = write_config(
            tmp_path / "c.json", {"loss": MEAN_X_LOSS, "min_pattern_count": 5}
        )
        code, err = run_error(capsys, ["analyze", csv, "--config", cfg])
        assert code == 3
        assert "at least 2 rows" in err


    def test_cipi_without_covering_fold_split_exits_3(self, capsys, tmp_path, eight_csv):
        # Four complete rows cannot fill five folds: the data, not the
        # config, rules the fit out.
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": MEAN_X_LOSS, "method": "cipi", "imputer": "mean",
             "k_folds": 5, "n_boot": 4},
        )
        code, err = run_error(capsys, ["analyze", eight_csv, "--config", cfg])
        assert code == 3
        assert err.count("\n") == 1
        assert "covering every pattern" in err


    @pytest.mark.parametrize("method", ["ipi", "naive"])
    def test_zero_width_interval_exits_3(self, capsys, tmp_path, method):
        # The complete rows of 'a' have no spread, so the complete-case
        # interval has zero width and no effective sample size exists.  The
        # default split trains on two of the 20 rows.
        rows = "".join(f"2,{u}\n" for u in range(16)) + ",17\n,19\n,21\n,23\n"
        csv = write(tmp_path / "d.csv", "a,u\n" + rows)
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": {"family": "mean", "columns": ["a"]}, "method": method,
             "imputer": "chained_regression"},
        )
        code, err = run_error(capsys, ["analyze", csv, "--config", cfg])
        assert code == 3
        assert err.count("\n") == 1
        assert "zero-width interval" in err


class TestNumericErrors:
    def test_duplicate_covariate_exits_4(self, capsys, tmp_path):
        rows = "y,x1,x2\n1.0,2.0,2.0\n2.0,1.0,1.0\n0.5,3.0,3.0\n1.5,4.0,4.0\n"
        csv = write(tmp_path / "d.csv", rows)
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": {
                    "family": "linear_regression",
                    "response": "y",
                    "covariates": ["x1", "x2"],
                },
                "method": "complete_case",
            },
        )
        code, err = run_error(capsys, ["analyze", csv, "--config", cfg])
        assert code == 4
        assert "singular" in err

    def test_overflow_exits_4(self, capsys, tmp_path):
        # Squared scores on this scale overflow; the run once printed
        # numpy warnings and exited 0 with null estimates.  The default
        # split trains on two of the 20 rows.
        rows = "".join(f"{i % 7 + 1}e170,{(i * 3) % 5 + 1}e170\n" for i in range(16))
        csv = write(tmp_path / "d.csv", "y,x\n" + rows + ",5\n,7\n,9\n,11\n")
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": {"family": "linear_regression", "response": "y",
                      "covariates": ["x"]}, "imputer": "mean"},
        )
        code, err = run_error(capsys, ["analyze", csv, "--config", cfg])
        assert code == 4
        assert err.count("\n") == 1
        assert "overflow" in err

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_hotdeck_at_extreme_scale_matches_per_row_fill(
        self, capsys, monkeypatch, tmp_path, scale
    ):
        # Squared distances over x and u overflow (or underflow) at these
        # scales, while the mean of y stays finite.  Under the CLI's error
        # state the hotdeck screen must neither raise where the per-row fill
        # did not, nor pick another donor.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((90, 3)) * [1.0, scale, scale]
        x[30:60, 0] = np.nan
        x[60:, 1] = np.nan
        lines = ["y,x,u"] + [
            ",".join("" if np.isnan(v) else repr(float(v)) for v in row) for row in x
        ]
        csv = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": {"family": "mean", "columns": ["y"]}, "imputer": "hotdeck",
             "train_frac": 0.5},
        )
        argv = ["analyze", csv, "--config", cfg, "--diagnose"]

        def run():
            code = cli.main(argv)
            return code, *capsys.readouterr()

        def per_row_fill(model, arr):
            arr[...] = oracles.hotdeck_fill(model.donors, arr)

        screened = run()
        monkeypatch.setattr(imputers.HotDeckImputer, "_fill_missing", per_row_fill)
        assert run() == screened


class TestAnalyze:
    def test_eight_row_fixture_matches_library(
        self, capsys, eight_twice_csv, analyze_config
    ):
        payload = run_json(
            capsys, ["analyze", eight_twice_csv, "--config", analyze_config]
        )
        model, inference = library_split(eight_twice_matrix(), imputers.CHAINED_KIND)
        fit = estimators.ipi_fit(inference, MEAN_X, model, alpha=0.1)
        assert payload["schema"] == "ipinfer/result-v1"
        assert payload["method"] == "ipi"
        assert payload["estimand"] == "population"
        assert payload["coefficients"] == ["x"]
        assert_fields_match(
            payload, fit, ("theta_complete", "theta_hat", "se", "ci", "n_effective")
        )
        np.testing.assert_allclose(payload["lambda"], fit.weights.lam, rtol=1e-12)
        assert payload["lambda_mode"] == "tuned"
        assert payload["hessian_mode"] == "complete_case_hessian"
        assert payload["n_rows"] == inference.n_rows == 8
        assert payload["n_complete"] == inference.n_complete
        assert payload["n_patterns"] == 1
        assert payload["pattern_counts"] == inference.pattern_counts().tolist()
        assert payload["dropped_rows"] == 0
        assert payload["diagnostics"] is None
        assert payload["warnings"] == list(fit.warnings) == []
        validate(payload, "result-v1")

    def test_fixed_lambda_mode(self, capsys, tmp_path, eight_twice_csv):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": MEAN_X_LOSS,
                "imputer": "chained_regression",
                "train_frac": EIGHT_ROW_TRAIN_FRAC,
                "weights": [0.2],
            },
        )
        payload = run_json(capsys, ["analyze", eight_twice_csv, "--config", cfg])
        model, inference = library_split(eight_twice_matrix(), imputers.CHAINED_KIND)
        fit = estimators.ipi_fit(inference, MEAN_X, model, weights=[0.2], alpha=0.1)
        assert payload["lambda"] == [0.2]
        assert payload["lambda_mode"] == "fixed"
        assert_fields_match(payload, fit, ("theta_hat", "se"))

    def test_complete_csv_reduces_to_complete_case(
        self, capsys, complete_csv, analyze_config
    ):
        payload = run_json(
            capsys, ["analyze", complete_csv, "--config", analyze_config]
        )
        _, inference = library_split(eight_row_matrix()[:4], imputers.CHAINED_KIND)
        cc = baselines.complete_case_fit(inference, MEAN_X, alpha=0.1)
        assert_fields_match(payload, cc, ("theta_hat", "se"))
        assert payload["lambda"] == []
        assert payload["n_patterns"] == 0
        assert payload["n_effective"] == pytest.approx([inference.n_rows])

    def test_method_dispatch_matches_library(self, capsys, tmp_path, eight_twice_csv):
        matrix = eight_twice_matrix()
        dataset = build_dataset(matrix, (0,))
        loss = losses.loss_for_columns(losses.MEAN, columns=(0,))[0]
        cc = baselines.complete_case_fit(dataset, loss, alpha=0.1)
        model, inference = library_split(matrix, imputers.ZERO_KIND)
        naive = baselines.naive_single_impute_fit(inference, loss, model, alpha=0.1)

        cfg = write_config(
            tmp_path / "cc.json", {"loss": MEAN_X_LOSS, "method": "complete_case"}
        )
        payload = run_json(capsys, ["analyze", eight_twice_csv, "--config", cfg])
        assert payload["method"] == "complete_case"
        assert payload["theta_hat"] == pytest.approx(list(cc.theta_hat), rel=1e-12)
        assert payload["se"] == pytest.approx(list(cc.se), rel=1e-12)

        cfg = write_config(
            tmp_path / "nv.json",
            {
                "loss": MEAN_X_LOSS,
                "method": "naive",
                "imputer": "zero",
                "train_frac": EIGHT_ROW_TRAIN_FRAC,
            },
        )
        payload = run_json(capsys, ["analyze", eight_twice_csv, "--config", cfg])
        assert payload["method"] == "naive"
        assert payload["theta_hat"] == pytest.approx(list(naive.theta_hat), rel=1e-12)

    def test_naive_makes_no_hessian_choice(self, capsys, tmp_path, rng):
        # naive's Hessian is the mean over its filled rows, neither of the
        # two IPI Hessians, so it names none.
        masks = ((True, True, False, True), (False, True, True, True),
                 (True, False, True, False))
        matrix = random_blockwise(rng, n_complete=40, per_pattern=15, masks=masks)
        csv = write(tmp_path / "d.csv", csv_text("x0,x1,x2,x3", matrix))
        cfg = write_config(tmp_path / "c.json", {
            "loss": {"family": "mean", "columns": ["x0", "x1", "x2"]},
            "method": "naive", "imputer": "gaussian_conditional",
        })
        payload = run_json(capsys, ["analyze", csv, "--config", cfg])
        assert payload["n_patterns"] == 3
        assert payload["hessian_mode"] is None
        validate(payload, "result-v1")

    def test_naive_diagnose_uses_configured_weights(
        self, capsys, tmp_path, eight_twice_csv
    ):
        # naive fits no weights; its report tests the ones `weights` asks
        # for, as `ipinfer diagnose` does
        reports = {}
        for mode in ("tuned", "pooled"):
            config = {"loss": MEAN_X_LOSS, "imputer": "chained_regression",
                      "train_frac": EIGHT_ROW_TRAIN_FRAC, "weights": mode}
            diagnose = run_json(capsys, [
                "diagnose", eight_twice_csv,
                "--config", write_config(tmp_path / "d.json", config),
            ])
            config["method"] = "naive"
            naive = run_json(capsys, [
                "analyze", eight_twice_csv, "--diagnose",
                "--config", write_config(tmp_path / "a.json", config),
            ])
            reports[mode] = naive["diagnostics"]
            assert reports[mode]["lambda"] == diagnose["lambda"]
            assert reports[mode]["weighted"] == diagnose["weighted"]
        assert reports["pooled"]["lambda"] != reports["tuned"]["lambda"]

    def test_cipi_method_runs(self, capsys, tmp_path, rng):
        matrix = random_blockwise(rng)
        lines = ["x0,x1,x2,x3"]
        for row in matrix:
            lines.append(",".join("" if np.isnan(v) else repr(float(v)) for v in row))
        csv = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": {"family": "mean", "columns": ["x0"]},
                "method": "cipi",
                "imputer": "mean",
                "k_folds": 3,
                "n_boot": 8,
                "seed": 4,
            },
        )
        payload = run_json(capsys, ["analyze", csv, "--config", cfg])
        assert payload["method"] == "cipi"
        assert np.isfinite(payload["theta_hat"]).all()
        assert payload["ci"][0][0] < payload["theta_hat"][0] < payload["ci"][0][1]
        validate(payload, "result-v1")

    def test_diagnose_flag_attaches_report(
        self, capsys, eight_twice_csv, analyze_config
    ):
        argv = ["analyze", eight_twice_csv, "--config", analyze_config]
        payload = run_json(capsys, [*argv, "--diagnose", "--full"])
        diag = payload["diagnostics"]
        model, inference = library_split(eight_twice_matrix(), imputers.CHAINED_KIND)
        fit = estimators.ipi_fit(inference, MEAN_X, model, alpha=0.1)
        tables = estimators.score_tables(inference, MEAN_X, model, fit.theta_complete)
        np.testing.assert_allclose(diag["lambda"], fit.weights.lam, rtol=1e-12)
        reports = {
            "weighted": diagnostics.t_ipi_test(tables, fit.weights),
            "full": diagnostics.t_full_test(tables),
        }
        for key, report in reports.items():
            assert diag[key]["df"] == report.df == 1
            assert diag[key]["chi2_stat"] > 0.0
            assert_fields_match(
                diag[key], report, ("statistic", "chi2_stat", "p_value", "gaps")
            )
        validate(payload, "result-v1")

    def test_six_pattern_regression_workflow(self, capsys, tmp_path, rng):
        """Regression on two controls plus a feature of interest, six
        blockwise patterns over the covariates, full diagnostics attached."""
        n, per = 60, 15
        masks = (
            ("x1",), ("x2",), ("x3",), ("x1", "x2"), ("x2", "x3"), ("x1", "x3"),
        )
        header = ["y", "x1", "x2", "x3", "u"]
        total = n + per * len(masks)
        base = rng.standard_normal((total, 2))
        x = 0.6 * base[:, [0]] + 0.8 * rng.standard_normal((total, 3))
        u = base[:, 1]
        y = 1.0 + 0.5 * x[:, 0] - 0.3 * x[:, 1] + 0.8 * x[:, 2]
        y = y + 0.5 * rng.standard_normal(total)
        lines = [",".join(header)]
        for i in range(total):
            row = dict(zip(header, [y[i], x[i, 0], x[i, 1], x[i, 2], u[i]]))
            if i >= n:
                for name in masks[(i - n) // per]:
                    row[name] = None
            lines.append(
                ",".join(
                    "" if row[h] is None else repr(float(row[h])) for h in header
                )
            )
        csv = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": {
                    "family": "linear_regression",
                    "response": "y",
                    "covariates": ["x1", "x2", "x3"],
                    "intercept": True,
                },
                "imputer": "chained_regression",
                "train_frac": 0.2,
            },
        )
        payload = run_json(
            capsys, ["analyze", csv, "--config", cfg, "--diagnose", "--full"]
        )
        assert payload["n_patterns"] == 6
        assert payload["coefficients"] == ["x1", "x2", "x3", "intercept"]
        assert len(payload["theta_hat"]) == 4
        assert len(payload["lambda"]) == 6
        for lo, hi in payload["ci"]:
            assert lo < hi
        diag = payload["diagnostics"]
        assert diag["weighted"]["df"] == 4
        assert diag["full"]["df"] == 24
        assert 0.0 <= diag["weighted"]["p_value"] <= 1.0
        assert np.asarray(diag["full"]["gaps"]).shape == (6, 4)
        validate(payload, "result-v1")

    def test_out_file_and_byte_identical_reruns(
        self, capsys, tmp_path, eight_twice_csv, analyze_config
    ):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = cli.main(
                ["analyze", eight_twice_csv, "--config", analyze_config, "--out", str(out)]
            )
            assert code == 0
            assert capsys.readouterr().out == ""
        assert out1.read_bytes() == out2.read_bytes()
        model, inference = library_split(eight_twice_matrix(), imputers.CHAINED_KIND)
        fit = estimators.ipi_fit(inference, MEAN_X, model, alpha=0.1)
        assert_fields_match(json.loads(out1.read_text()), fit, ("theta_hat",))


    @staticmethod
    def collinear_csv(tmp_path) -> str:
        """30 rows whose chained fit stops at its cap: two nearly collinear
        columns, missing together in 10 rows, between which the sweeps pass
        the imputations back and forth."""
        rng = np.random.default_rng(0)
        z = rng.standard_normal((30, 1)) + 3.0
        x = np.hstack([rng.standard_normal((30, 1)), z + 0.3 * rng.standard_normal((30, 2))])
        x[:10, 1:] = np.nan
        rows = [",".join("" if np.isnan(v) else repr(float(v)) for v in row) for row in x]
        return write(tmp_path / "d.csv", "\n".join(["a,b,c", *rows]) + "\n")

    @pytest.mark.parametrize("command", ["analyze", "diagnose"])
    def test_imputer_fit_at_its_cap_warns(self, capsys, tmp_path, command):
        csv = self.collinear_csv(tmp_path)
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": {"family": "mean", "columns": ["b"]},
             "imputer": "chained_regression", "train_frac": 0.5},
        )
        payload = run_json(capsys, [command, csv, "--config", cfg])
        assert payload["warnings"][-1] == (
            "the chained_regression imputer stopped at its cap of 20 sweeps "
            "before converging"
        )

    @pytest.mark.parametrize("train_frac", [0.1, None])
    def test_n_effective_beyond_the_row_count_warns(self, capsys, tmp_path, train_frac):
        # One headline dataset.  A hotdeck trained on the rows it fills
        # would refill each masked complete row with that row itself, and
        # n_effective would run far past the row count (the library-level
        # test in test_estimators).  On a split, given or the default, the
        # tripwire stays quiet.
        rng = np.random.default_rng(0)
        config = simgen.ExperimentConfig()
        matrix = simgen.build_population(config.factor).sample(rng, config.n_total())
        dataset = simgen.gen_mcar_missingness(matrix, config.missingness(), (0, 1, 2), rng)
        rows = [",".join("" if np.isnan(v) else repr(float(v)) for v in row)
                for row in dataset.values]
        header = ",".join(f"x{j}" for j in range(dataset.d))
        csv = write(tmp_path / "d.csv", "\n".join([header, *rows]) + "\n")
        fields = {"loss": {"family": "linear_regression", "response": "x2",
                           "covariates": ["x0", "x1"]}, "imputer": "hotdeck"}
        if train_frac is not None:
            fields["train_frac"] = train_frac
        cfg = write_config(tmp_path / "c.json", fields)
        payload = run_json(capsys, ["analyze", csv, "--config", cfg])
        tripwire = [w for w in payload["warnings"] if w.startswith("n_effective")]
        assert payload["n_rows"] == 1980
        assert max(payload["n_effective"]) < payload["n_rows"]
        assert tripwire == []

    def test_cipi_fold_fits_at_their_cap_warn(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": {"family": "mean", "columns": ["b"]},
             "imputer": "chained_regression", "method": "cipi",
             "k_folds": 5, "n_boot": 5},
        )
        payload = run_json(capsys, ["analyze", self.collinear_csv(tmp_path), "--config", cfg])
        assert payload["warnings"] == [
            "4 of 5 fold chained_regression imputers stopped at their cap of "
            "20 sweeps before converging"
        ]


class TestDiagnose:
    def test_eight_row_fixture(self, capsys, tmp_path, eight_twice_csv):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": MEAN_X_LOSS,
                "imputer": "chained_regression",
                "train_frac": EIGHT_ROW_TRAIN_FRAC,
            },
        )
        payload = run_json(capsys, ["diagnose", eight_twice_csv, "--config", cfg])
        model, inference = library_split(eight_twice_matrix(), imputers.CHAINED_KIND)
        theta_n = losses.solve_complete_case(inference, MEAN_X)
        tables = estimators.score_tables(inference, MEAN_X, model, theta_n)
        weights, _ = estimators.resolve_weights(tables, "tuned")
        weighted = diagnostics.t_ipi_test(tables, weights)
        assert payload["schema"] == "ipinfer/diagnostics-v1"
        assert payload["full"] is None
        np.testing.assert_allclose(payload["lambda"], weights.lam, rtol=1e-12)
        assert payload["weighted"]["df"] == weighted.df == 1
        assert payload["weighted"]["chi2_stat"] > 0.0
        assert_fields_match(payload["weighted"], weighted, ("chi2_stat", "p_value", "gaps"))
        assert payload["n_rows"] == inference.n_rows == 8
        assert payload["pattern_counts"] == inference.pattern_counts().tolist()
        validate(payload, "diagnostics-v1")

        full = run_json(
            capsys, ["diagnose", eight_twice_csv, "--config", cfg, "--full"]
        )
        assert full["full"]["df"] == 1
        assert_fields_match(full["full"], diagnostics.t_full_test(tables), ("chi2_stat",))
        validate(full, "diagnostics-v1")

    def test_complete_csv_is_trivial(self, capsys, tmp_path, complete_csv):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": MEAN_X_LOSS,
                "imputer": "chained_regression",
                "train_frac": EIGHT_ROW_TRAIN_FRAC,
            },
        )
        payload = run_json(capsys, ["diagnose", complete_csv, "--config", cfg])
        assert payload["weighted"]["p_value"] == 1.0
        assert payload["weighted"]["chi2_stat"] == 0.0
        assert payload["weighted"]["gaps"] == []
        assert payload["lambda"] == []
        assert payload["n_patterns"] == 0
        validate(payload, "diagnostics-v1")

    def test_violated_transfer_yields_small_p(self, capsys, tmp_path, rng):
        """Incomplete rows drawn from a shifted stratum should be flagged."""
        u_comp = rng.normal(0.0, 1.0, 40)
        x_comp = 2.0 * u_comp + rng.normal(0.0, 0.1, 40)
        u_miss = rng.normal(8.0, 1.0, 40)
        lines = ["x,u"]
        lines += [f"{x},{u}" for x, u in zip(x_comp, u_comp)]
        lines += [f",{u}" for u in u_miss]
        csv = write(tmp_path / "d.csv", "\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path / "c.json",
            {"loss": MEAN_X_LOSS, "imputer": "chained_regression"},
        )
        payload = run_json(capsys, ["diagnose", csv, "--config", cfg])
        assert payload["n_rows"] == 72  # the default split trains on 8 rows
        assert payload["weighted"]["p_value"] < 1e-6


@pytest.mark.parametrize("imputer", imputers.KINDS)
@pytest.mark.parametrize(
    "command, method, flags",
    [
        ("analyze", "ipi", ["--diagnose", "--full"]),
        ("analyze", "naive", ["--diagnose"]),
        ("analyze", "cipi", []),
        ("analyze", "complete_case", []),
        ("analyze", "aipw", []),
        ("diagnose", None, ["--full"]),
    ],
    ids=["ipi", "naive", "cipi", "complete_case", "aipw", "diagnose"],
)
def test_no_model_fills_a_row_it_was_fitted_on(
    capsys, monkeypatch, tmp_path, imputer, command, method, flags
):
    # Each row carries its index in an 'id' column that is never missing.
    # Every model fitted records the ids of its training rows, and every
    # fill checks the ids of the rows it is given against them.
    matrix = random_blockwise(np.random.default_rng(6), n_complete=40, per_pattern=20)
    matrix = np.hstack([matrix, np.arange(len(matrix))[:, None]])
    csv = write(tmp_path / "d.csv", csv_text("x0,x1,x2,x3,id", matrix))
    trained, fills = {}, []
    fit, fill = imputers.fit, imputers.ImputationModel.fill

    def recording_fit(kind, train):
        model = fit(kind, train)
        # the model is kept, so no later model reuses its id
        trained[id(model)] = (model, set(np.asarray(train)[:, 4]))
        return model

    def recording_fill(model, values):
        fills.append((trained[id(model)][1], set(np.atleast_2d(values)[:, 4])))
        return fill(model, values)

    monkeypatch.setattr(imputers, "fit", recording_fit)
    monkeypatch.setattr(estimators, "fit_imputer", recording_fit)
    monkeypatch.setattr(imputers.ImputationModel, "fill", recording_fill)
    config = {"loss": {"family": "linear_regression", "response": "x0",
                       "covariates": ["x1", "x2"]}, "imputer": imputer}
    if method is not None:
        config.update(method=method, k_folds=3, n_boot=10)
    cfg = write_config(tmp_path / "c.json", config)
    run_json(capsys, [command, csv, "--config", cfg, *flags])
    assert bool(fills) == (method not in ("complete_case", "aipw"))
    for train_ids, filled_ids in fills:
        assert train_ids and filled_ids and not train_ids & filled_ids


class TestSimulate:
    COVERAGE = {
        "experiment": "coverage",
        "d": 4,
        "n_factors": 2,
        "variance_explained": 0.5,
        "n_complete": 40,
        "ratio": 2.0,
        "n_patterns": 2,
        "feature_mask_prob": 0.25,
        "loss": {"family": "mean", "columns": [1]},
        "imputer": "mean",
        "methods": ["ipi", "complete_case"],
        "trials": 3,
        "alpha": 0.1,
        "train_frac": 0.1,
        "seed": 11,
    }

    def test_coverage_outputs(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.COVERAGE)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        capsys.readouterr()

        payload = json.loads((out / "metrics.json").read_text())
        assert payload["schema"] == "ipinfer/metrics-v1"
        assert payload["experiment"] == "coverage"
        assert [m["method"] for m in payload["methods"]] == ["ipi", "complete_case"]
        for m in payload["methods"]:
            assert m["n_trials"] == 3
            assert m["failures"] == 0
            assert 0.0 <= m["coverage"] <= 1.0
            assert m["mean_width"] > 0.0
        assert payload["records"] == []
        assert payload["config"]["trials"] == 3
        validate(payload, "metrics-v1")

        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "method,metric,value"
        assert lines[1] == "ipi,n_trials,3"
        metrics = {tuple(l.split(",")[:2]) for l in lines[1:]}
        assert ("complete_case", "coverage") in metrics

    def test_uncoverable_fold_split_counts_as_cipi_failure(self, capsys, tmp_path):
        # Ten incomplete rows over two patterns: no pattern reaches twelve
        # rows, so every trial's cross-fit fails and is counted.
        payload = dict(self.COVERAGE, ratio=0.25, k_folds=12, n_boot=4,
                       methods=["cipi", "complete_case"])
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        methods = {
            m["method"]: m
            for m in json.loads((out / "metrics.json").read_text())["methods"]
        }
        assert methods["cipi"]["failures"] == 3
        assert methods["cipi"]["n_trials"] == 0
        assert methods["complete_case"]["failures"] == 0
        assert methods["complete_case"]["n_trials"] == 3

    def test_method_without_intervals_warns(self, capsys, tmp_path):
        # One complete row: no trial's complete rows can be fitted, so every
        # cipi fit fails.  The run once ended with exit 4 after creating
        # --out; now it counts the failures and says the coverage is null.
        payload = dict(self.COVERAGE, n_complete=1, ratio=10.0, k_folds=2, n_boot=4,
                       methods=["cipi"], loss={"family": "linear_regression"})
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        result = json.loads((out / "metrics.json").read_text())
        [cipi] = result["methods"]
        assert (cipi["n_trials"], cipi["failures"], cipi["coverage"]) == (0, 3, None)
        assert result["warnings"] == [
            "no trial produced an interval for method(s) cipi, so their coverage "
            "is null: every trial's fit failed (see 'failures')"
        ]
        validate(result, "metrics-v1")

    def test_train_frac_zero_without_split_methods(self, capsys, tmp_path):
        # cipi and complete_case split off no training rows.
        payload = dict(self.COVERAGE, methods=["cipi", "complete_case"],
                       train_frac=0.0, k_folds=2, n_boot=4)
        cfg = write_config(tmp_path / "c.json", payload)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        for m in json.loads((out / "metrics.json").read_text())["methods"]:
            assert m["n_trials"] == 3
            assert m["failures"] == 0

    def test_loss_columns_by_name_or_index(self, capsys, tmp_path):
        # simulate reads the loss section with analyze's parser, over the
        # synthetic columns x0..x{d-1}.
        outputs = []
        for name, columns in (("index", [1]), ("name", ["x1"])):
            payload = dict(self.COVERAGE, loss={"family": "mean", "columns": columns})
            cfg = write_config(tmp_path / f"{name}.json", payload)
            out = tmp_path / name
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outputs.append((out / "metrics.json").read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1])["config"]["mean_columns"] == [1]

    def test_records_flag(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.COVERAGE)
        out = tmp_path / "out"
        code = cli.main(
            ["simulate", "--config", cfg, "--out", str(out), "--records"]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((out / "metrics.json").read_text())
        assert len(payload["records"]) == 6
        rec = payload["records"][0]
        assert rec["method"] == "ipi"
        assert rec["lower"] <= rec["estimate"] <= rec["upper"]
        validate(payload, "metrics-v1")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.COVERAGE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            capsys.readouterr()
        assert (out1 / "metrics.json").read_bytes() == (
            out2 / "metrics.json"
        ).read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (
            out2 / "metrics.csv"
        ).read_bytes()

    def test_seed_override_changes_results(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", self.COVERAGE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert (
            cli.main(
                ["simulate", "--config", cfg, "--out", str(out2), "--seed", "12"]
            )
            == 0
        )
        capsys.readouterr()
        a = json.loads((out1 / "metrics.json").read_text())
        b = json.loads((out2 / "metrics.json").read_text())
        assert (
            a["methods"][0]["mean_estimate"] != b["methods"][0]["mean_estimate"]
        )

    def test_shift_outputs(self, capsys, tmp_path):
        cfg_dict = dict(self.COVERAGE)
        cfg_dict.pop("methods")
        cfg_dict.update(
            {
                "experiment": "shift",
                "shift_magnitudes": [0.0, 0.8],
                "include_full": True,
            }
        )
        cfg = write_config(tmp_path / "c.json", cfg_dict)
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        capsys.readouterr()

        payload = json.loads((out / "shift.json").read_text())
        assert payload["experiment"] == "shift"
        assert payload["shifts"] == [0.0, 0.8]
        for kind in ("weighted", "full"):
            rates = payload["rejection_rates"][kind]
            assert sorted(rates) == ["0.01", "0.05", "0.10"]
            assert all(len(v) == 2 for v in rates.values())
        assert payload["n_trials"] == 3
        validate(payload, "metrics-v1")

        lines = (out / "pvalues.csv").read_text().splitlines()
        assert lines[0] == "magnitude,trial,p_value_weighted,p_value_full"
        assert len(lines) == 1 + 2 * 3

    def test_shift_run_that_tests_no_pattern_has_no_rate(self, capsys, tmp_path):
        # min_pattern_count 190 drops every pattern of the 150 + 1,500 rows,
        # so no trial tests anything: each counts as a failure and no
        # setting reports a rejection rate; the warning says why.
        cfg = write_config(tmp_path / "c.json", {
            "experiment": "shift", "n_complete": 150, "min_pattern_count": 190,
            "imputer": "mean", "trials": 2, "shift_magnitudes": [0.0, 0.1],
        })
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads((out / "shift.json").read_text())
        assert payload["rejection_rates"] == {
            "weighted": {level: [None, None] for level in ("0.01", "0.05", "0.10")}
        }
        assert payload["failures"] == 2 * 2
        [warning] = payload["warnings"]
        assert "0.0, 0.1" in warning
        assert "min_pattern_count (190)" in warning
        validate(payload, "metrics-v1")


# The config fuzz tests draw each field of a command's table in cli.FIELDS
# from its default or the bounded values of its kind that its row accepts,
# then overwrite up to one field with a value of any JSON type.
INTS = st.integers(-2, 12)
FLOATS = st.floats(0, 1) | st.floats(-2, 12) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf")]
)
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, st.text(max_size=6))
JUNK = st.one_of(
    SCALARS,
    st.lists(INTS | FLOATS | st.text(max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(sorted(cli._LOSS_KEYS)), SCALARS, max_size=3),
)
BY_KIND = {
    int: INTS, float: FLOATS, bool: st.booleans(), list: st.lists(FLOATS, max_size=3)
}
# a string names a file or directory in the test's own directory
OUT = st.sampled_from(["r.json", "missing/r.json", ""])
DATA_SPECIAL = {
    "loss": st.sampled_from([
        MEAN_X_LOSS,
        {"family": "mean", "columns": [0, "u"]},
        {"family": "linear_regression", "response": "x", "covariates": ["u"]},
        {"family": "linear_regression", "response": 0, "covariates": [1],
         "intercept": True},
        {"family": "logistic_regression", "response": "x", "covariates": ["u"]},
    ]),
    "weights": st.sampled_from(estimators.WEIGHT_MODES) | BY_KIND[list],
    "out": OUT,
}
# simulate's sizes are always drawn, and small, so no run takes the
# default 100 trials of 2,200 rows
SIMULATE_SIZES = {
    "trials": st.integers(1, 2),
    "jobs": st.integers(1, 2),
    "d": st.integers(3, 6),
    "n_complete": st.integers(2, 30),
    "n_patterns": st.integers(0, 4),
    "k_folds": st.integers(2, 4),
    "n_boot": st.integers(2, 4),
}
SIMULATE_SPECIAL = {
    **SIMULATE_SIZES,
    "loss": st.sampled_from([
        {"family": "mean", "columns": [1]},
        {"family": "mean", "columns": ["x0", 2]},
        {"family": "linear_regression"},
        {"family": "linear_regression", "response": 0, "covariates": [1, 2],
         "intercept": True},
        {"family": "logistic_regression", "response": 2, "covariates": [0]},
    ]),
    "methods": st.lists(
        st.sampled_from([
            "ipi", "ipi:pooled", "complete_case", "naive", "cipi", "cipi:zero",
            "aipw", "single_pattern:best", "single_pattern:0", "single_pattern:7",
            "bogus",
        ]),
        max_size=3,
    ),
    "out": OUT,
}


def field_values(field, special):
    """The field's default or a value of its kind that its row accepts; the
    junk overwrite supplies the rest."""
    if field.name in special:
        return special[field.name]
    if field.choices:
        return st.sampled_from(field.choices)
    values = INTS if field.kind is object else BY_KIND[field.kind]  # objective
    if field.ok is not None:
        values = values.filter(field.ok)
    if field.default is None or isinstance(field.default, cli.Field):
        return values
    return st.just(field.default) | values


@st.composite
def configs(draw, command, special, always):
    """A config for `command`: the `always` fields and a random subset of
    the others, then up to one field overwritten with any JSON value."""
    table = cli.FIELDS[command]
    config = {
        f.name: draw(field_values(f, special))
        for f in table
        if f.name in always or draw(st.booleans())
    }
    key = draw(st.none() | st.sampled_from([f.name for f in table]))
    if key is not None:
        config[key] = draw(JUNK)
    return config


@st.composite
def cli_runs(draw):
    command = draw(st.sampled_from(["analyze", "diagnose"]))
    config = draw(configs(command, DATA_SPECIAL, always=("loss",)))
    flags = ["--full"] if draw(st.booleans()) else []
    if command == "analyze" and draw(st.booleans()):
        flags.append("--diagnose")
    return command, flags, config


def assert_documented_exit(command, flags, config, csv_text=EIGHT_CSV):
    """Run one command on `config` inside a fresh directory (analyze and
    diagnose on a data CSV holding `csv_text`): it must exit 0, 2, 3 or 4,
    a failure must write one stderr line, and nothing may print a
    traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(config.get("out"), str):
            # keep the path inside tmp: drop root, '.' and '..' parts
            parts = [p for p in config["out"].split("/") if p not in ("", ".", "..")]
            config["out"] = os.path.join(tmp, *parts)
        csv_path = write(pathlib.Path(tmp, "data.csv"), csv_text)
        data = [] if command == "simulate" else [csv_path]
        cfg = write(pathlib.Path(tmp, "c.json"), json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a null or absent simulate 'out' writes to '.'
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, *data, "--config", cfg, *flags])
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().count("\n") == 1
    assert "Traceback" not in out.getvalue() + err.getvalue()


@settings(settings.get_profile("cli_fuzz"))
@given(run=cli_runs())
def test_any_config_ends_in_a_documented_exit_code(run):
    """Whatever the config holds, the CLI exits 0, 2, 3 or 4; a failure
    writes one stderr line and nothing prints a traceback."""
    assert_documented_exit(*run)


@settings(settings.get_profile("cli_fuzz"))
@given(
    config=configs("simulate", SIMULATE_SPECIAL, always=tuple(SIMULATE_SIZES)),
    records=st.booleans(),
)
def test_any_simulate_config_ends_in_a_documented_exit_code(config, records):
    """The same for simulate, at sizes that keep each run small."""
    assert_documented_exit("simulate", ["--records"] if records else [], config)


# The CSV fuzz test writes mostly numeric cells, with special tokens, junk
# text and whitespace mixed in, some rows one cell short or long, and some
# headers with duplicate or empty names.
NUMBER_CELLS = st.floats(-1e6, 1e6).map(repr) | st.integers(-5, 5).map(str)
ODD_CELLS = st.one_of(
    st.sampled_from(["", "NA", "inf", "-inf", "nan", "NaN", "1e400", "-1e400"]),
    # "1" * 140_000 passes the csv module's field size limit
    st.sampled_from([" ", "\t", " 3 ", "1 2", "--1", "0x1", "1" * 140_000]),
    st.text(max_size=4),
)
HEADERS = st.sampled_from(["x,u", "x,u", "x,u,v", "x", "x,x", ",u", " x,x", "x,"])


@st.composite
def csv_texts(draw):
    header = draw(HEADERS)
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        width = header.count(",") + 1 + draw(st.sampled_from([0] * 38 + [-1, 1]))
        cells = [
            draw(ODD_CELLS if draw(st.integers(0, 9)) == 0 else NUMBER_CELLS)
            for _ in range(width)
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(settings.get_profile("cli_fuzz"))
@given(text=csv_texts(), command=st.sampled_from(["analyze", "diagnose"]))
def test_any_csv_ends_in_a_documented_exit_code(text, command):
    """Whatever the data CSV holds, a fixed valid config exits 0, 2, 3 or
    4; a failure writes one stderr line and nothing prints a traceback."""
    config = {"loss": {"family": "mean", "columns": [0]}, "imputer": "mean"}
    flags = ["--full", "--diagnose"] if command == "analyze" else ["--full"]
    assert_documented_exit(command, flags, config, text)
