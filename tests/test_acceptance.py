"""Acceptance suite: twelve statistical and numerical criteria.

Each criterion is one test that prints a single PASS/FAIL line with the
measured quantities (visible under ``pytest -v -s`` and in captured
output). Monte Carlo criteria pin their seeds; the asserted bands leave
room for the binomial noise at the stated trial counts. The headline
coverage run (criteria 1-4) and the shift runs (criteria 8-9) are
session fixtures shared between their tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from ipinfer import baselines, estimators, imputers, losses, simgen
from ipinfer.patterns import build_dataset

from conftest import random_blockwise
from oracles import (
    finite_difference_gradient,
    finite_difference_jacobian,
    numeric_lambda_minimizer,
)

ALPHA = 0.1
COVERAGE_BAND = (0.865, 0.935)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def experiment_config(**overrides) -> simgen.ExperimentConfig:
    factor_kw = {
        "d": overrides.pop("d", 20),
        "n_factors": overrides.pop("n_factors", 2),
        "variance_explained": overrides.pop("variance_explained", 0.5),
        "seed": overrides.get("seed", 0),
    }
    base = dict(
        factor=simgen.FactorModelConfig(**factor_kw),
        n_complete=200,
        ratio=10.0,
        n_patterns=10,
        feature_mask_prob=0.2,
        loss_family=losses.LINEAR,
        response=2,
        covariates=(0, 1),
        mean_columns=None,
        intercept=False,
        imputer=imputers.GAUSSIAN_KIND,
        methods=("ipi",),
        trials=500,
        alpha=ALPHA,
        train_frac=0.1,
        k_folds=10,
        n_boot=50,
        objective="trace",
        target_coordinate=0,
        min_pattern_count=1,
        seed=0,
        jobs=1,
    )
    base.update(overrides)
    return simgen.ExperimentConfig(**base)


def metrics_by_method(result: simgen.ExperimentResult) -> dict:
    return {m.method: m for m in result.metrics}


# ---------------------------------------------------------------------------
# criteria 1-4: one shared 500-trial coverage run


@pytest.fixture(scope="session")
def headline_run():
    config = experiment_config(
        methods=("ipi", "complete_case", "naive", "single_pattern:best"),
        seed=10,
        jobs=2,
    )
    return simgen.run_trials(config, collect_records=True)


def test_criterion_01_tuned_ipi_coverage(headline_run):
    cov = metrics_by_method(headline_run)["ipi"].coverage
    lo, hi = COVERAGE_BAND
    report(1, lo <= cov <= hi, f"tuned IPI coverage {cov:.3f} in [{lo}, {hi}]")


def test_criterion_02_complete_case_coverage(headline_run):
    cov = metrics_by_method(headline_run)["complete_case"].coverage
    lo, hi = COVERAGE_BAND
    report(2, lo <= cov <= hi, f"complete-case coverage {cov:.3f} in [{lo}, {hi}]")


def test_criterion_03_naive_imputation_undercovers(headline_run):
    by = metrics_by_method(headline_run)
    naive, cc = by["naive"].coverage, by["complete_case"].coverage
    report(
        3,
        naive <= cc - 0.05,
        f"naive coverage {naive:.3f} <= complete-case {cc:.3f} - 0.05",
    )


def test_criterion_04_effective_sample_size_ordering(headline_run):
    """Tuned IPI beats n and the best single pattern by >= 2 MC SEs.

    Both methods ran on the same trials, so the second comparison uses
    the paired per-trial N_eff differences.
    """
    neff = {}
    for rec in headline_run.records:
        neff.setdefault(rec.method, []).append(rec.n_effective)
    ipi = np.asarray(neff["ipi"])
    best = np.asarray(neff["single_pattern:best"])
    n = 200
    t = ipi.size

    gain_n = ipi.mean() - n
    se_n = ipi.std(ddof=1) / np.sqrt(t)
    diff = ipi - best
    gain_best = diff.mean()
    se_best = diff.std(ddof=1) / np.sqrt(t)

    ok = gain_n >= 2 * se_n and gain_best >= 2 * se_best
    report(
        4,
        ok,
        f"N_eff(IPI)={ipi.mean():.0f} vs n={n} (margin {gain_n / se_n:.1f} SE), "
        f"vs best single pattern {best.mean():.0f} "
        f"(paired margin {gain_best / se_best:.1f} SE)",
    )


# ---------------------------------------------------------------------------
# criterion 5: zero-lambda reduction across losses and imputers


def _instance_matrix(rng, family):
    matrix = random_blockwise(rng, n_complete=25, per_pattern=10, d=4)
    if family == losses.LOGISTIC:
        matrix[:, 1] = (matrix[:, 1] > 0).astype(float)
    return matrix


def _instance_loss(family):
    if family == losses.MEAN:
        return losses.loss_for_columns(family, columns=(0, 2))
    return losses.loss_for_columns(family, response=1, covariates=(0, 2))


def test_criterion_05_zero_lambda_reduces_to_complete_case():
    rng = np.random.default_rng(20260814)
    families = (losses.MEAN, losses.LINEAR, losses.LOGISTIC)
    max_point = 0.0
    max_ci = 0.0
    count = 0
    for family in families:
        loss, target_dims = _instance_loss(family)
        for kind in imputers.KINDS:
            for _ in range(7):
                matrix = _instance_matrix(rng, family)
                ds = build_dataset(matrix, target_dims)
                model = imputers.fit(kind, ds.values)
                fit0 = estimators.ipi_fit(
                    ds, loss, model,
                    weights=np.zeros(ds.n_patterns),
                    alpha=ALPHA,
                )
                cc = baselines.complete_case_fit(ds, loss, alpha=ALPHA)
                max_point = max(
                    max_point, float(np.abs(fit0.theta_hat - cc.theta_hat).max())
                )
                max_ci = max(
                    max_ci,
                    float(np.abs(np.asarray(fit0.ci) - np.asarray(cc.ci)).max()),
                )
                count += 1
    ok = max_point <= 1e-12 and max_ci <= 1e-12
    report(
        5,
        ok,
        f"{count} instances (3 losses x {len(imputers.KINDS)} imputers): "
        f"max point gap {max_point:.2e}, max CI gap {max_ci:.2e} (tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# criterion 6: closed-form tuning matches a numeric oracle


def _factor_instance(i):
    """One random factor-model dataset with R = 1 + i mod 3 patterns."""
    big_r = 1 + i % 3
    population = simgen.build_population(
        simgen.FactorModelConfig(
            d=6, n_factors=2, variance_explained=0.5, seed=100 + i
        )
    )
    rng = np.random.default_rng((123, i))
    if i % 2 == 0:
        loss, target_dims = losses.loss_for_columns(losses.MEAN, columns=(1, 2))
    else:
        loss, target_dims = losses.loss_for_columns(
            losses.LINEAR, response=2, covariates=(0, 1)
        )
    matrix = population.sample(rng, 40 * (1 + big_r))
    mcfg = simgen.MissingnessConfig(
        n_complete=40,
        n_patterns=big_r,
        feature_mask_prob=0.3,
        min_pattern_count=1,
    )
    ds = simgen.gen_mcar_missingness(matrix, mcfg, target_dims, rng)
    model = imputers.fit(imputers.GAUSSIAN_KIND, ds.values)
    return ds, loss, model


def _plug_in_trace(tables):
    """Sandwiched plug-in variance trace, built from the raw score tables."""
    h_inv = np.linalg.inv(tables.h_complete)
    g_x = tables.g_complete
    n = tables.n_complete
    big_r = tables.n_patterns

    def objective(lam):
        resid = g_x - sum(
            lam[r] / big_r * tables.g_masked[r] for r in range(big_r)
        )
        v = np.atleast_2d(np.cov(resid, rowvar=False, ddof=1))
        for r in range(big_r):
            n_r = int(tables.counts[r])
            v = v + (lam[r] / big_r) ** 2 * (n / n_r) * np.atleast_2d(
                np.cov(tables.g_imputed[tables.pattern_imputed == r], rowvar=False, ddof=1)
            )
        return float(np.trace(h_inv @ v @ h_inv.T))

    return objective


def test_criterion_06_tuning_matches_numeric_minimizer():
    max_gap = 0.0
    for i in range(20):
        ds, loss, model = _factor_instance(i)
        theta_n = losses.solve_complete_case(ds, loss)
        tables = estimators.score_tables(ds, loss, model, theta_n)
        weights, comp = estimators.tune_lambda(tables)
        assert not weights.fallback

        numeric = numeric_lambda_minimizer(
            _plug_in_trace(tables), np.zeros(ds.n_patterns)
        )
        max_gap = max(max_gap, float(np.abs(weights.lam - numeric).max()))

        pooled, _ = estimators.resolve_weights(tables, "pooled")
        tuned_obj = comp.objective(weights.lam)
        assert tuned_obj <= comp.objective(np.zeros(ds.n_patterns)) + 1e-12
        assert tuned_obj <= comp.objective(pooled.lam) + 1e-12
    report(
        6,
        max_gap <= 1e-6,
        f"20 instances (R in 1..3): max |closed form - numeric| {max_gap:.2e} "
        f"(tol 1e-6); tuned objective <= zero and pooled on all",
    )


# ---------------------------------------------------------------------------
# criterion 7: estimated SE calibrated against the Monte Carlo SD


def test_criterion_07_variance_calibration():
    config = experiment_config(
        n_complete=2000,
        ratio=5.0,
        loss_family=losses.MEAN,
        response=None,
        covariates=None,
        mean_columns=(2,),
        trials=1000,
        seed=13,
        jobs=2,
    )
    result = simgen.run_trials(config, collect_records=True)
    z = stats.norm.ppf(1 - ALPHA / 2)
    estimates = np.asarray([r.estimate for r in result.records])
    ses = np.asarray([r.width for r in result.records]) / (2 * z)
    ratio = ses.mean() / estimates.std(ddof=1)
    report(
        7,
        0.90 <= ratio <= 1.10,
        f"mean SE / MC SD = {ratio:.4f} over {estimates.size} trials "
        f"in [0.90, 1.10]",
    )


# ---------------------------------------------------------------------------
# criteria 8-9: diagnostics under injected score shifts


def shift_config() -> simgen.ExperimentConfig:
    return experiment_config(
        n_complete=1000,
        ratio=9.0,
        loss_family=losses.MEAN,
        response=None,
        covariates=None,
        mean_columns=(2, 3, 4),
        seed=21,
        jobs=2,
    )


SHIFT_MAGNITUDES = (0.0, 0.01, 0.05, 0.10)


@pytest.fixture(scope="session")
def shift_runs():
    return simgen.gen_shift_experiment(shift_config(), SHIFT_MAGNITUDES)


def test_criterion_08_null_p_values_uniform(shift_runs):
    pvals = np.asarray(
        [
            r.p_value_weighted
            for r in shift_runs[0].records
            if r.p_value_weighted is not None
        ]
    )
    ks = stats.kstest(pvals, "uniform")
    report(
        8,
        ks.pvalue >= 0.01,
        f"KS p-value {ks.pvalue:.3f} >= 0.01 over {pvals.size} null trials",
    )


def test_criterion_09_power_monotone_in_shift(shift_runs):
    rates = [run.rejection_rate(0.05, "weighted") for run in shift_runs]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    margin = rates[-1] - rates[0]
    report(
        9,
        monotone and margin >= 0.30,
        f"rejection at 0.05 over c in (0, 0.01, 0.05, 0.10): "
        f"{[f'{r:.3f}' for r in rates]}, monotone={monotone}, "
        f"margin {margin:.3f} >= 0.30",
    )


# ---------------------------------------------------------------------------
# criterion 10: cross-fitted IPI with bootstrap variance


def test_criterion_10_cipi_bootstrap_coverage():
    config = experiment_config(
        d=8,
        n_complete=100,
        ratio=4.0,
        n_patterns=4,
        feature_mask_prob=0.25,
        loss_family=losses.MEAN,
        response=None,
        covariates=None,
        mean_columns=(2,),
        imputer=imputers.CHAINED_KIND,
        methods=("cipi",),
        trials=200,
        train_frac=0.0,
        seed=17,
        jobs=2,
    )
    result = simgen.run_trials(config)
    m = metrics_by_method(result)["cipi"]
    report(
        10,
        0.84 <= m.coverage <= 0.96 and m.failures == 0,
        f"CIPI coverage {m.coverage:.3f} in [0.84, 0.96] "
        f"(K=10, B=50, T={m.n_trials}, failures={m.failures})",
    )


# ---------------------------------------------------------------------------
# criterion 11: AIPW needs a large sample


def test_criterion_11_aipw_sample_size_trend():
    def cfg(n, methods):
        return experiment_config(
            d=10,
            n_complete=n,
            ratio=9.0,
            methods=methods,
            trials=300,
            seed=29,
        )

    small = metrics_by_method(simgen.run_trials(cfg(200, ("aipw", "ipi"))))
    large = metrics_by_method(simgen.run_trials(cfg(1000, ("aipw",))))
    aipw_small = small["aipw"].coverage
    aipw_large = large["aipw"].coverage
    ipi_small = small["ipi"].coverage
    ok = aipw_large > aipw_small and aipw_small < ipi_small
    report(
        11,
        ok,
        f"AIPW coverage {aipw_small:.3f}@n=200 < {aipw_large:.3f}@n=1000, "
        f"and below IPI {ipi_small:.3f}@n=200",
    )


# ---------------------------------------------------------------------------
# criterion 12: derivative correctness


def test_criterion_12_gradients_and_hessians():
    rng = np.random.default_rng(31)
    families = (losses.MEAN, losses.LINEAR, losses.LOGISTIC)
    max_grad = 0.0
    max_hess = 0.0
    for i in range(1000):
        family = families[i % 3]
        p = 2 + i % 3
        if family == losses.MEAN:
            loss = losses.mean_loss(p)
        elif family == losses.LINEAR:
            loss = losses.LossModel(losses.LINEAR, p, 0, tuple(range(1, p)))
        else:
            loss = losses.LossModel(losses.LOGISTIC, p, 0, tuple(range(1, p)))
        x = rng.standard_normal(p)
        if family == losses.LOGISTIC:
            x[0] = float(x[0] > 0)
        theta = 0.7 * rng.standard_normal(loss.param_dim)

        ana = losses.grad_matrix(loss, x, theta)[0]
        num = finite_difference_gradient(
            lambda t: losses.loss_value_matrix(loss, x, t)[0], theta
        )
        max_grad = max(
            max_grad,
            float(np.abs(ana - num).max() / (1.0 + np.abs(num).max())),
        )

        rows = x[None, :]
        ana_h = losses.mean_hessian(loss, rows, theta)
        num_h = finite_difference_jacobian(
            lambda t: losses.grad_matrix(loss, rows, t).mean(axis=0), theta
        )
        max_hess = max(
            max_hess,
            float(np.abs(ana_h - num_h).max() / (1.0 + np.abs(num_h).max())),
        )
    ok = max_grad <= 1e-6 and max_hess <= 1e-6
    report(
        12,
        ok,
        f"1000 draws: max relative gradient error {max_grad:.2e}, "
        f"Hessian {max_hess:.2e} (tol 1e-6)",
    )
