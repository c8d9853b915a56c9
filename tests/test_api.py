"""Package-level export surface and module boundaries."""

import ast
import pathlib

import ipinfer

PACKAGE_DIR = pathlib.Path(ipinfer.__file__).resolve().parent

# Every addition to or removal from the public surface shows up here.
PUBLIC_NAMES = [
    "CHAINED_KIND",
    "ChainedRegressionImputer",
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
    "GaussianConditionalImputer",
    "HOTDECK_KIND",
    "HotDeckImputer",
    "IPIFit",
    "ImputationModel",
    "IpinferError",
    "KINDS",
    "LossModel",
    "MEAN_KIND",
    "MeanImputer",
    "MissingnessConfig",
    "NumericError",
    "Pattern",
    "PatternedDataset",
    "RankDeficiencyError",
    "ScoreTables",
    "TuningComponents",
    "TuningWeights",
    "UnusableDatasetError",
    "ZERO_KIND",
    "ZeroImputer",
    "aipw_fit",
    "apply_gradient_shift",
    "augmentation_dimension",
    "best_single_pattern",
    "bootstrap_variance",
    "build_dataset",
    "cipi_fit",
    "complete_case_fit",
    "confidence_interval",
    "cross_fit",
    "effective_sample_size",
    "estimate_variance",
    "fit_from_tables",
    "fit_imputer",
    "full_ipi_hessian",
    "gen_factor_data",
    "gen_mcar_missingness",
    "gen_shift_experiment",
    "ipi_fit",
    "ipi_grad",
    "ipi_point_estimate",
    "linear_regression_loss",
    "load_csv",
    "logistic_regression_loss",
    "loss_for_columns",
    "mask_matrix",
    "mean_loss",
    "monomial_features",
    "naive_single_impute_fit",
    "pooled_weights",
    "run_trials",
    "score_tables",
    "single_pattern_ipi",
    "solve_complete_case",
    "solve_mean_loss",
    "split_train_inference",
    "t_full_test",
    "t_ipi_test",
    "tune_lambda",
    "tuning_components",
    "zero_weights",
]


def test_public_surface_is_pinned():
    assert ipinfer.__all__ == PUBLIC_NAMES


def test_all_names_resolve():
    missing = [name for name in ipinfer.__all__ if not hasattr(ipinfer, name)]
    assert missing == []


def test_imputer_kinds_exported():
    assert ipinfer.KINDS == (
        ipinfer.MEAN_KIND,
        ipinfer.ZERO_KIND,
        ipinfer.HOTDECK_KIND,
        ipinfer.GAUSSIAN_KIND,
        ipinfer.CHAINED_KIND,
    )


def test_version_matches_metadata():
    assert ipinfer.__version__ == "0.1.0"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_uses(path: pathlib.Path) -> list[str]:
    """Underscore names this module imports from, or reads on, another
    ipinfer module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()  # local names bound to ipinfer modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "ipinfer"
            if not internal:
                continue
            for alias in node.names:
                if node.module in (None, "ipinfer"):
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ipinfer":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_private_names_cross_modules():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 5
    found = [use for path in sources for use in _cross_module_private_uses(path)]
    assert found == []
