"""End-to-end tests for the command-line interface.

Every test drives ``cli.main(argv)`` directly: it returns the process
exit code instead of raising SystemExit, so commands and their error
paths can be exercised in-process.
"""

import json

import jsonschema
import numpy as np
import pytest

from conftest import eight_row_matrix
from ipinfer import baselines, cli, imputers, losses
from ipinfer.patterns import build_dataset


EIGHT_CSV = "x,u\n1,2\n2,1\n3,4\n6,3\n,5\n,7\n,9\n,11\n"
COMPLETE_CSV = "x,u\n1,2\n2,1\n3,4\n6,3\n"

MEAN_X_LOSS = {"family": "mean", "columns": ["x"]}


def write(path, text):
    path.write_text(text)
    return str(path)


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
            "train_frac": 0.0,
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


class TestAnalyze:
    def test_eight_row_fixture_matches_frozen_numbers(
        self, capsys, eight_csv, analyze_config
    ):
        payload = run_json(capsys, ["analyze", eight_csv, "--config", analyze_config])
        assert payload["schema"] == "ipinfer/result-v1"
        assert payload["method"] == "ipi"
        assert payload["estimand"] == "population"
        assert payload["coefficients"] == ["x"]
        assert payload["theta_complete"] == [3.0]
        assert payload["theta_hat"] == pytest.approx([3.8799999912], abs=1e-12)
        assert payload["lambda"] == pytest.approx([0.1999999979999999], abs=1e-12)
        assert payload["se"] == pytest.approx([1.055146119422961], rel=1e-12)
        assert payload["ci"][0] == pytest.approx(
            [2.1444390697033713, 5.615560912696629], rel=1e-12
        )
        assert payload["n_effective"] == pytest.approx([4.191616766467066], rel=1e-12)
        assert payload["lambda_mode"] == "tuned"
        assert payload["hessian_mode"] == "complete_case_hessian"
        assert payload["n_rows"] == 8
        assert payload["n_complete"] == 4
        assert payload["n_patterns"] == 1
        assert payload["pattern_counts"] == [4, 4]
        assert payload["dropped_rows"] == 0
        assert payload["diagnostics"] is None
        assert any("train_frac=0" in w for w in payload["warnings"])
        validate(payload, "result-v1")

    def test_fixed_lambda_mode(self, capsys, tmp_path, eight_csv):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": MEAN_X_LOSS,
                "imputer": "chained_regression",
                "train_frac": 0.0,
                "lambda_mode": "fixed",
                "fixed_lambda": [0.2],
            },
        )
        payload = run_json(capsys, ["analyze", eight_csv, "--config", cfg])
        assert payload["lambda"] == [0.2]
        assert payload["lambda_mode"] == "fixed"
        assert payload["theta_hat"] == pytest.approx([3.88], abs=1e-12)

    def test_complete_csv_reduces_to_complete_case(
        self, capsys, complete_csv, analyze_config
    ):
        payload = run_json(
            capsys, ["analyze", complete_csv, "--config", analyze_config]
        )
        matrix = eight_row_matrix()[:4]
        dataset = build_dataset(matrix, (0,))
        loss = losses.loss_for_columns(losses.MEAN, columns=(0,))[0]
        cc = baselines.complete_case_fit(dataset, loss, alpha=0.1)
        assert payload["theta_hat"] == pytest.approx(list(cc.theta_hat), rel=1e-12)
        assert payload["se"] == pytest.approx(list(cc.se), rel=1e-12)
        assert payload["lambda"] == []
        assert payload["n_patterns"] == 0
        assert payload["n_effective"] == pytest.approx([4.0])

    def test_method_dispatch_matches_library(self, capsys, tmp_path, eight_csv):
        matrix = eight_row_matrix()
        dataset = build_dataset(matrix, (0,))
        loss = losses.loss_for_columns(losses.MEAN, columns=(0,))[0]
        cc = baselines.complete_case_fit(dataset, loss, alpha=0.1)
        model = imputers.fit("zero", dataset.values, dataset.target_dims)
        naive = baselines.naive_single_impute_fit(dataset, loss, model, alpha=0.1)

        cfg = write_config(
            tmp_path / "cc.json", {"loss": MEAN_X_LOSS, "method": "complete_case"}
        )
        payload = run_json(capsys, ["analyze", eight_csv, "--config", cfg])
        assert payload["method"] == "complete_case"
        assert payload["theta_hat"] == pytest.approx(list(cc.theta_hat), rel=1e-12)
        assert payload["se"] == pytest.approx(list(cc.se), rel=1e-12)

        cfg = write_config(
            tmp_path / "nv.json",
            {
                "loss": MEAN_X_LOSS,
                "method": "naive",
                "imputer": "zero",
                "train_frac": 0.0,
            },
        )
        payload = run_json(capsys, ["analyze", eight_csv, "--config", cfg])
        assert payload["method"] == "naive"
        assert payload["theta_hat"] == pytest.approx(list(naive.theta_hat), rel=1e-12)

    def test_cipi_method_runs(self, capsys, tmp_path, rng):
        from conftest import random_blockwise

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
        self, capsys, eight_csv, analyze_config
    ):
        payload = run_json(
            capsys,
            ["analyze", eight_csv, "--config", analyze_config, "--diagnose", "--full"],
        )
        diag = payload["diagnostics"]
        assert diag["lambda"] == pytest.approx([0.1999999979999999], abs=1e-12)
        for key in ("weighted", "full"):
            assert diag[key]["df"] == 1
            assert diag[key]["chi2_stat"] == pytest.approx(14.52, rel=1e-12)
            assert diag[key]["p_value"] == pytest.approx(
                0.00013867940542948873, rel=1e-9
            )
            assert np.allclose(diag[key]["gaps"], [[-4.4]], rtol=1e-12)
        assert diag["weighted"]["statistic"] == pytest.approx(
            [-0.8799999912], abs=1e-12
        )
        assert diag["full"]["statistic"] == pytest.approx([-4.4], rel=1e-12)
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
                "train_frac": 0.0,
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
        self, capsys, tmp_path, eight_csv, analyze_config
    ):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = cli.main(
                ["analyze", eight_csv, "--config", analyze_config, "--out", str(out)]
            )
            assert code == 0
            assert capsys.readouterr().out == ""
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["theta_hat"] == pytest.approx(
            [3.8799999912]
        )


class TestDiagnose:
    def test_eight_row_fixture(self, capsys, tmp_path, eight_csv):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": MEAN_X_LOSS,
                "imputer": "chained_regression",
                "train_frac": 0.0,
            },
        )
        payload = run_json(capsys, ["diagnose", eight_csv, "--config", cfg])
        assert payload["schema"] == "ipinfer/diagnostics-v1"
        assert payload["full"] is None
        assert payload["lambda"] == pytest.approx([0.1999999979999999], abs=1e-12)
        assert payload["weighted"]["chi2_stat"] == pytest.approx(14.52, rel=1e-12)
        assert payload["weighted"]["df"] == 1
        assert payload["weighted"]["p_value"] < 0.001
        validate(payload, "diagnostics-v1")

        full = run_json(
            capsys, ["diagnose", eight_csv, "--config", cfg, "--full"]
        )
        assert full["full"]["df"] == 1
        assert full["full"]["chi2_stat"] == pytest.approx(14.52, rel=1e-12)
        validate(full, "diagnostics-v1")

    def test_complete_csv_is_trivial(self, capsys, tmp_path, complete_csv):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "loss": MEAN_X_LOSS,
                "imputer": "chained_regression",
                "train_frac": 0.0,
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
            {
                "loss": MEAN_X_LOSS,
                "imputer": "chained_regression",
                "train_frac": 0.0,
            },
        )
        payload = run_json(capsys, ["diagnose", csv, "--config", cfg])
        assert payload["weighted"]["p_value"] < 1e-6


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
