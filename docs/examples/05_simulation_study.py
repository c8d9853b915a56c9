#!/usr/bin/env python3
"""A small Monte Carlo study with the simulation harness.

Draws data from a low-rank factor population, applies random blockwise
masking, and reports interval coverage, width, and effective sample
size for several methods, then traces the diagnostics' rejection rate
as an injected score shift grows. Trial counts are kept small so the
script runs in seconds; raise them for stable numbers.

Usage:
    python 05_simulation_study.py
"""

from ipinfer import losses, simgen


def config(trials=40, seed=2):
    return simgen.ExperimentConfig(
        factor=simgen.FactorModelConfig(
            d=12, n_factors=2, variance_explained=0.6, seed=seed
        ),
        n_complete=150,
        ratio=6.0,
        n_patterns=5,
        feature_mask_prob=0.25,
        loss_family=losses.MEAN,
        response=None,
        covariates=None,
        mean_columns=(2, 3),
        intercept=False,
        imputer="gaussian_conditional",
        methods=("ipi", "ipi:pooled", "complete_case", "naive"),
        trials=trials,
        alpha=0.1,
        train_frac=0.1,
        k_folds=5,
        n_boot=30,
        objective="trace",
        target_coordinate=0,
        min_pattern_count=1,
        seed=seed,
        jobs=1,
    )


def main():
    result = simgen.run_trials(config())
    print(f"theta_star = {result.theta_star:+.4f}, 90% intervals, 40 trials")
    print(f"{'method':>14s} {'coverage':>9s} {'width':>8s} {'N_eff':>7s}")
    for m in result.metrics:
        print(
            f"{m.method:>14s} {m.coverage:9.3f} {m.mean_width:8.4f} "
            f"{m.mean_n_effective:7.0f}"
        )

    print("\ndiagnostic rejection rate at alpha=0.05 vs injected shift:")
    magnitudes = (0.0, 0.05, 0.10, 0.20)
    # One call builds each trial's tables once and tests every magnitude.
    shifts = simgen.gen_shift_experiment(config(trials=60), magnitudes)
    for magnitude, shift in zip(magnitudes, shifts):
        print(f"  c = {magnitude:.2f}: {shift.rejection_rate(0.05, 'weighted'):.3f}")


if __name__ == "__main__":
    main()
