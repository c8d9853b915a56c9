"""Package-level export surface and module boundaries."""

import ast
import inspect
import pathlib
import re

import ipinfer

PACKAGE_DIR = pathlib.Path(ipinfer.__file__).resolve().parent
REPO_DIR = pathlib.Path(__file__).resolve().parent.parent

# Every addition to or removal from the public surface shows up here: what
# the README, the examples and the CLI call, plus the types and errors those
# calls return or raise.
PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    assert ipinfer.__all__ == PUBLIC_NAMES


def test_public_functions_have_a_caller():
    # An exported function is one a user or the CLI calls: each is named,
    # other than on its own def line, in the README, an example script, the
    # CLI or the simulation harness.
    sources = [
        REPO_DIR / "README.md",
        *sorted((REPO_DIR / "docs" / "examples").glob("*.py")),
        PACKAGE_DIR / "cli.py",
        PACKAGE_DIR / "simgen.py",
    ]
    lines = [line for path in sources for line in path.read_text().splitlines()]
    functions = [
        name for name in ipinfer.__all__ if inspect.isfunction(getattr(ipinfer, name))
    ]
    assert len(functions) > 20
    uncalled = [
        name for name in functions
        if not any(
            re.search(rf"\b{name}\b", line) and not re.match(rf"\s*def {name}\b", line)
            for line in lines
        )
    ]
    assert uncalled == []


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


def _package_imports(path: pathlib.Path) -> set[str]:
    """ipinfer modules a source file imports, as dotted names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                base = "ipinfer." + node.module if node.module else "ipinfer"
            elif (node.module or "").split(".")[0] == "ipinfer":
                base = node.module
            else:
                continue
            if base == "ipinfer":
                found.update(f"ipinfer.{alias.name}" for alias in node.names)
            else:
                found.add(base)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name for alias in node.names
                if alias.name.split(".")[0] == "ipinfer"
            )
    return found


def test_imputers_depend_only_on_errors():
    # The imputer is a black box to the estimators: it fills matrices and
    # knows nothing of datasets, losses or estimands.
    assert _package_imports(PACKAGE_DIR / "imputers.py") == {"ipinfer.errors"}


def test_fits_are_built_in_one_function():
    # Every estimator reports through one builder, so the interval, the
    # estimand label and the effective sample size have one definition.
    builders = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "IPIFit"
                ):
                    builders.add(f"{path.name}:{func.name}")
    assert builders == {"estimators.py:summarize_fit"}


def _calls_packbits(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "packbits"
    )


def test_rows_are_grouped_by_mask_in_one_function():
    # Datasets and the imputers group rows by missingness mask through one
    # function, so every pattern numbering follows one first-appearance order.
    callers, n_calls = set(), 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        n_calls += sum(map(_calls_packbits, ast.walk(tree)))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_calls_packbits, ast.walk(func))
            ):
                callers.add(f"{path.name}:{func.name}")
    assert callers == {"imputers.py:pattern_groups"}
    assert n_calls == 1


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position) for every parameter with a default
    of every function in the module; position counts the arguments a call
    passes (so a method's self is not one), and is None for keyword-only."""
    found = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, isinstance(child, ast.ClassDef))
                continue
            args = child.args
            positional = args.posonlyargs + args.args
            bound = in_class and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list
            )
            for i in range(len(positional) - len(args.defaults), len(positional)):
                found.append((child.name, positional[i].arg, i - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((child.name, arg.arg, None))
            visit(child, False)

    visit(tree, False)
    return found


def _called_name(node) -> str | None:
    """f for a call of f or of x.f."""
    return getattr(node, "id", getattr(node, "attr", None))


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names) for every call; a
    functools.partial(f, ...) is a call of f, a starred argument counts as
    every position and a **mapping as every keyword (None)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if _called_name(func) == "partial" and args:
            func, args = args[0], args[1:]
        if _called_name(func) is not None:
            starred = any(isinstance(a, ast.Starred) for a in args)
            n_positional = float("inf") if starred else len(args)
            yield _called_name(func), n_positional, {k.arg for k in node.keywords}


def test_every_option_has_a_caller():
    # A parameter with a default is an option: some call in the package,
    # the tests, the examples or the benchmark sets it, by keyword or by
    # position.  An option no call sets is dead code.
    callers = [
        *sorted(PACKAGE_DIR.glob("*.py")),
        *sorted((REPO_DIR / "tests").glob("*.py")),
        *sorted((REPO_DIR / "docs" / "examples").glob("*.py")),
        *sorted((REPO_DIR / "perfbench").glob("*.py")),
    ]
    calls = {}
    for path in callers:
        for name, n_positional, keywords in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append((n_positional, keywords))
    options = [
        (path.name, *option)
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for option in _defaulted_parameters(ast.parse(path.read_text()))
    ]
    assert len(options) > 50
    unset = [
        f"{module}:{function}({parameter})"
        for module, function, parameter, position in options
        if not any(
            None in keywords or parameter in keywords
            or (position is not None and n_positional > position)
            for n_positional, keywords in calls.get(function, [])
        )
    ]
    assert unset == []
