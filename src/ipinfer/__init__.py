"""Imputation-powered inference for M-estimation under blockwise missing data.

Combine a complete-case M-estimator with black-box imputations of the
incomplete rows, debiased pattern by pattern, with per-pattern weights
tuned to minimize the asymptotic variance.  Includes cross-fitted variants
with bootstrap variance, transfer-gap diagnostics for the imputation
assumption, classical baselines, and a simulation harness.
"""

from .baselines import (
    aipw_fit,
    best_single_pattern,
    complete_case_fit,
    naive_single_impute_fit,
    single_pattern_ipi,
)
from .diagnostics import (
    DiagnosticReport,
    apply_gradient_shift,
    t_full_test,
    t_ipi_test,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    DimensionError,
    FitError,
    IpinferError,
    NumericError,
    RankDeficiencyError,
    UnusableDatasetError,
)
from .estimators import (
    IPIFit,
    FoldedImputers,
    ScoreTables,
    TuningComponents,
    TuningWeights,
    bootstrap_variance,
    cipi_fit,
    cross_fit,
    effective_sample_size,
    estimate_variance,
    fit_from_tables,
    full_ipi_hessian,
    ipi_fit,
    ipi_point_estimate,
    score_tables,
    split_train_inference,
    tune_lambda,
    tuning_components,
)
from .imputers import (
    CHAINED_KIND,
    GAUSSIAN_KIND,
    HOTDECK_KIND,
    KINDS,
    MEAN_KIND,
    ZERO_KIND,
    ImputationModel,
    fit as fit_imputer,
)
from .losses import (
    LossModel,
    loss_for_columns,
    solve_complete_case,
)
from .patterns import (
    PatternedDataset,
    build_dataset,
    load_csv,
    mask_matrix,
)
from .simgen import (
    ExperimentConfig,
    ExperimentResult,
    FactorModelConfig,
    MissingnessConfig,
    gen_mcar_missingness,
    gen_shift_experiment,
    run_trials,
)

__version__ = "0.1.0"

__all__ = [
    "CHAINED_KIND",
    "ConfigError",
    "ConvergenceError",
    "DataError",
    "DiagnosticReport",
    "DimensionError",
    "ExperimentConfig",
    "ExperimentResult",
    "FactorModelConfig",
    "FitError",
    "FoldedImputers",
    "GAUSSIAN_KIND",
    "HOTDECK_KIND",
    "IPIFit",
    "ImputationModel",
    "IpinferError",
    "KINDS",
    "LossModel",
    "MEAN_KIND",
    "MissingnessConfig",
    "NumericError",
    "PatternedDataset",
    "RankDeficiencyError",
    "ScoreTables",
    "TuningComponents",
    "TuningWeights",
    "UnusableDatasetError",
    "ZERO_KIND",
    "aipw_fit",
    "apply_gradient_shift",
    "best_single_pattern",
    "bootstrap_variance",
    "build_dataset",
    "cipi_fit",
    "complete_case_fit",
    "cross_fit",
    "effective_sample_size",
    "estimate_variance",
    "fit_from_tables",
    "fit_imputer",
    "full_ipi_hessian",
    "gen_mcar_missingness",
    "gen_shift_experiment",
    "ipi_fit",
    "ipi_point_estimate",
    "load_csv",
    "loss_for_columns",
    "mask_matrix",
    "naive_single_impute_fit",
    "run_trials",
    "score_tables",
    "single_pattern_ipi",
    "solve_complete_case",
    "split_train_inference",
    "t_full_test",
    "t_ipi_test",
    "tune_lambda",
    "tuning_components",
]
