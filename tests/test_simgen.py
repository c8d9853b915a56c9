"""Synthetic data generation and the Monte Carlo harness."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ipinfer import baselines, losses, simgen
from ipinfer.errors import ConfigError
from ipinfer.simgen import (
    ExperimentConfig,
    FactorModelConfig,
    MissingnessConfig,
    build_population,
    draw_patterns,
    gen_mcar_missingness,
    gen_shift_experiment,
    run_one_trial,
    run_trials,
)

from oracles import ols_coefficients

nan = np.nan


def small_config(**kw) -> ExperimentConfig:
    base = dict(
        factor=FactorModelConfig(d=6, n_factors=2, variance_explained=0.5, seed=5),
        n_complete=60,
        ratio=2.0,
        n_patterns=3,
        feature_mask_prob=0.25,
        loss_family=losses.MEAN,
        response=None,
        covariates=None,
        mean_columns=(2,),
        imputer="mean",
        methods=("ipi", "complete_case"),
        trials=6,
        alpha=0.1,
        train_frac=0.1,
        seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestFactorPopulation:
    def test_variance_explained_share(self):
        cfg = FactorModelConfig(d=8, n_factors=3, variance_explained=0.6, seed=1)
        pop = build_population(cfg)
        signal = float(np.trace(pop.loadings @ pop.loadings.T))
        total = signal + cfg.d * pop.noise_var
        assert signal / total == pytest.approx(0.6, abs=1e-12)
        assert np.allclose(
            pop.sigma, pop.loadings @ pop.loadings.T + pop.noise_var * np.eye(8)
        )

    def test_loadings_fixed_by_seed(self):
        cfg = FactorModelConfig(d=5, n_factors=2, seed=9)
        a = build_population(cfg)
        b = build_population(cfg)
        assert np.array_equal(a.loadings, b.loadings)
        c = build_population(FactorModelConfig(d=5, n_factors=2, seed=10))
        assert not np.array_equal(a.loadings, c.loadings)

    def test_sample_moments_match_sigma(self):
        pop = build_population(FactorModelConfig(d=4, n_factors=2, seed=3))
        x = pop.sample(np.random.default_rng(0), 40000)
        assert x.shape == (40000, 4)
        assert np.allclose(x.mean(axis=0), 0.0, atol=0.05)
        emp = np.cov(x, rowvar=False)
        assert np.allclose(emp, pop.sigma, atol=0.1)

    def test_regression_theta_matches_large_sample_ols(self):
        pop = build_population(FactorModelConfig(d=4, n_factors=2, seed=3))
        theta = pop.regression_theta(2, [0, 1])
        x = pop.sample(np.random.default_rng(1), 200000)
        fit = ols_coefficients(x[:, [0, 1]], x[:, 2])
        assert np.allclose(theta, fit, atol=0.02)

    def test_theta_star_closed_forms(self):
        pop = build_population(FactorModelConfig(d=4, n_factors=2, seed=3))
        mean = pop.theta_star(losses.mean_loss(2), (0, 3))
        assert np.array_equal(mean, np.zeros(2))
        loss, dims = losses.loss_for_columns(
            losses.LINEAR, response=2, covariates=(0, 1), intercept=True
        )
        theta = pop.theta_star(loss, dims)
        assert theta.shape == (3,)
        assert theta[2] == 0.0
        assert np.allclose(theta[:2], pop.regression_theta(2, [0, 1]))
        logistic, dims = losses.loss_for_columns(
            losses.LOGISTIC, response=2, covariates=(0, 1)
        )
        with pytest.raises(ConfigError):
            pop.theta_star(logistic, dims)


class TestMissingness:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MissingnessConfig(n_complete=0)
        with pytest.raises(ConfigError):
            MissingnessConfig(n_complete=5, feature_mask_prob=0.0)
        with pytest.raises(ConfigError):
            MissingnessConfig(n_complete=5, n_patterns=-1)

    def test_draw_patterns_distinct_nontrivial(self):
        cfg = MissingnessConfig(n_complete=5, n_patterns=6, feature_mask_prob=0.3)
        masks = draw_patterns(5, cfg, rng=0)
        assert masks.shape == (6, 5)
        assert len({m.tobytes() for m in masks}) == 6
        assert not masks.all(axis=1).any()

    def test_draw_patterns_impossible_request(self):
        cfg = MissingnessConfig(n_complete=5, n_patterns=2, feature_mask_prob=0.5)
        with pytest.raises(ConfigError, match="distinct nontrivial"):
            draw_patterns(1, cfg, rng=0)

    def test_first_rows_stay_complete(self):
        matrix = np.arange(60, dtype=float).reshape(20, 3)
        cfg = MissingnessConfig(n_complete=8, n_patterns=2, seed=2)
        ds = gen_mcar_missingness(matrix, cfg, target_dims=(0,))
        assert not np.isnan(ds.values[:8]).any()
        assert np.isnan(ds.values[8:]).any()
        assert ds.n_rows == 20

    def test_assignment_depends_only_on_the_seed(self):
        # MCAR by construction: the same rng produces the same missing cells
        # regardless of the underlying values.
        cfg = MissingnessConfig(n_complete=6, n_patterns=2)
        a = np.arange(45, dtype=float).reshape(15, 3)
        b = np.cos(a) + 2.0
        ds_a = gen_mcar_missingness(a, cfg, (0,), rng=np.random.default_rng(7))
        ds_b = gen_mcar_missingness(b, cfg, (0,), rng=np.random.default_rng(7))
        assert np.array_equal(np.isnan(ds_a.values), np.isnan(ds_b.values))

    def test_zero_patterns_keeps_matrix_complete(self):
        matrix = np.arange(30, dtype=float).reshape(10, 3)
        cfg = MissingnessConfig(n_complete=4, n_patterns=0)
        ds = gen_mcar_missingness(matrix, cfg, target_dims=(0,))
        assert ds.n_patterns == 0
        assert ds.n_complete == 10

    def test_too_few_rows_rejected(self):
        cfg = MissingnessConfig(n_complete=11, n_patterns=2)
        with pytest.raises(ConfigError, match="exceeds"):
            gen_mcar_missingness(np.zeros((10, 3)), cfg, target_dims=(0,))


class TestExperimentConfig:
    def test_n_total_rounds_ratio(self):
        cfg = small_config(n_complete=10, ratio=2.5)
        assert cfg.n_total() == 35

    def test_make_loss_mean_requires_columns(self):
        cfg = small_config(mean_columns=None)
        with pytest.raises(ConfigError):
            cfg.make_loss()

    def test_make_loss_regression(self):
        cfg = small_config(
            loss_family=losses.LINEAR, response=2, covariates=(0, 1),
            mean_columns=None,
        )
        loss, dims = cfg.make_loss()
        assert loss.family == losses.LINEAR
        assert dims == (0, 1, 2)


class TestRunTrials:
    def test_one_trial_produces_records_for_each_method(self):
        cfg = small_config()
        trial, out = run_one_trial(cfg, 0)
        assert trial == 0
        assert set(out) == {"ipi", "complete_case"}
        for record in out.values():
            assert record is not None
            assert record.lower <= record.estimate <= record.upper
            assert record.width > 0
            assert record.n_effective > 0

    def test_zero_width_interval_fails_only_its_method(self, monkeypatch):
        def zero_width(dataset, loss, alpha):
            fit = baselines.complete_case_fit(dataset, loss, alpha=alpha)
            return replace(fit, ci=np.repeat(fit.theta_hat[:, None], 2, axis=1))

        monkeypatch.setattr(baselines, "aipw_fit", zero_width)
        # aipw takes a linear loss only
        cfg = small_config(
            methods=("aipw", "complete_case"), loss_family=losses.LINEAR,
            response=2, covariates=(0, 1), mean_columns=None,
        )
        _, out = run_one_trial(cfg, 0)
        assert out["aipw"] is None
        assert out["complete_case"] is not None

    def test_trials_are_seed_deterministic(self):
        a = run_trials(small_config())
        b = run_trials(small_config())
        for ma, mb in zip(a.metrics, b.metrics):
            assert ma == mb
        c = run_trials(small_config(seed=6))
        assert any(
            ma.mean_estimate != mc.mean_estimate
            for ma, mc in zip(a.metrics, c.metrics)
        )

    def test_parallel_matches_serial(self):
        serial = run_trials(small_config(trials=4))
        parallel = run_trials(small_config(trials=4, jobs=2))
        for ms, mp in zip(serial.metrics, parallel.metrics):
            assert ms == mp
        settings = [0.0, [0.5, 1.0]]
        serial = gen_shift_experiment(
            small_config(trials=4, n_patterns=2), settings, include_full=True
        )
        parallel = gen_shift_experiment(
            small_config(trials=4, n_patterns=2, jobs=2), settings, include_full=True
        )
        for rs, rp in zip(serial, parallel):
            assert rs.records == rp.records
            assert rs.p_values().size == 4

    def test_jobs_capped_at_trials_and_cpus(self, monkeypatch):
        # The pool starts every worker at once; record what reaches it
        # instead of starting processes.
        calls = []

        class Recorder:
            def __init__(self, max_workers):
                calls.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(simgen, "ProcessPoolExecutor", Recorder)
        serial = run_trials(small_config(trials=3))
        for cpus in (64, 2):
            monkeypatch.setattr(simgen.os, "cpu_count", lambda: cpus)
            capped = run_trials(small_config(trials=3, jobs=5000))
            assert capped.metrics == serial.metrics
        assert calls == [3, 2]

    def test_unknown_method_raises_config_error(self):
        # A config error would fail every trial; it is not a trial failure.
        with pytest.raises(ConfigError, match="unknown method 'bogus'"):
            run_trials(small_config(methods=("bogus",), trials=3))

    def test_metric_lookup_raises_for_missing_method(self):
        result = run_trials(small_config(trials=2))
        with pytest.raises(KeyError):
            result.metric("aipw")

    def test_collect_records(self):
        result = run_trials(small_config(trials=3), collect_records=True)
        assert len(result.records) == 6
        assert {r.method for r in result.records} == {"ipi", "complete_case"}

    def test_theta_star_exposed(self):
        result = run_trials(small_config(trials=2))
        assert result.theta_star == 0.0

    def test_coverage_is_sane_on_easy_problem(self):
        result = run_trials(small_config(trials=30))
        cc = result.metric("complete_case")
        assert cc.coverage > 0.6
        assert 0 <= cc.coverage_se < 0.2


class TestShiftExperiment:
    def test_null_and_alternative_records(self):
        cfg = small_config(trials=8, n_patterns=2)
        [null] = gen_shift_experiment(cfg, [0.0])
        assert len(null.records) == 8
        assert null.shifts.shape == (2,)
        p_null = null.p_values()
        assert p_null.size == 8
        assert ((0 <= p_null) & (p_null <= 1)).all()

    def test_shift_raises_rejections(self):
        cfg = small_config(trials=12, n_patterns=2, n_complete=80, ratio=3.0)
        null, shifted = gen_shift_experiment(cfg, [0.0, 1.0])
        assert shifted.rejection_rate(0.05) >= null.rejection_rate(0.05)
        assert shifted.rejection_rate(0.05) > 0.5

    def test_include_full_populates_second_test(self):
        cfg = small_config(trials=4, n_patterns=2)
        [out] = gen_shift_experiment(cfg, [0.0], include_full=True)
        assert out.p_values("full").size == 4

    def test_failed_trials_recorded_as_none(self):
        # One incomplete row leaves a pattern group too small to tune on.
        cfg = small_config(trials=3, n_patterns=2, ratio=0.02)
        [out] = gen_shift_experiment(cfg, [0.0])
        assert len(out.records) == 3
        assert out.p_values().size == 0
        assert np.isnan(out.rejection_rate(0.05))

    @pytest.mark.parametrize(
        "change, shifts, match",
        [
            # d=6 cannot supply 100 distinct patterns.
            ({"n_patterns": 100}, [0.0], "distinct nontrivial"),
            ({}, [[0.1, 0.2]], "3 values"),
            ({}, [0.0, [0.1, 0.2, 0.3, 0.4]], "3 values"),
            ({}, 0.0, "list of settings"),
            # each once ended in a numpy error or warnings
            ({"n_complete": -1}, [0.0], "n_complete must be positive"),
            (
                {"factor": FactorModelConfig(d=6, variance_explained=1e-320)},
                [0.0],
                "noise variance overflows",
            ),
        ],
    )
    def test_config_errors_raise(self, change, shifts, match):
        cfg = small_config(trials=3, **change)
        with pytest.raises(ConfigError, match=match):
            gen_shift_experiment(cfg, shifts)

    def test_settings_checked_before_any_trial(self, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simgen, "_shift_trial", no_trials)
        with pytest.raises(ConfigError):
            gen_shift_experiment(small_config(trials=3), [0.0, [0.1, 0.2]])

    @pytest.mark.parametrize("setting", [0.5, [0.5, 1.0]])
    def test_one_call_matches_separate_calls(self, setting):
        cfg = small_config(trials=5, n_patterns=2)
        together = gen_shift_experiment(cfg, [0.0, setting], include_full=True)
        for joint, single in zip(together, [0.0, setting]):
            [alone] = gen_shift_experiment(cfg, [single], include_full=True)
            assert joint.records == alone.records
            assert np.array_equal(joint.shifts, alone.shifts)

    def test_deterministic(self):
        cfg = small_config(trials=5, n_patterns=2)
        [a] = gen_shift_experiment(cfg, [0.5])
        [b] = gen_shift_experiment(cfg, [0.5])
        assert np.array_equal(a.p_values(), b.p_values())
