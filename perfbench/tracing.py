"""Per-layer tracing by wrapping ipinfer's public names at run time.

The benchmark measures from outside the package: `install` replaces each
traced function with a timing wrapper in every ipinfer module that binds
it, so names imported with `from ... import` are caught as well as module
attributes.  `ImputationModel.fill` is wrapped on the base class, because
subclasses override only `_fill_missing`.

A wrapper records inclusive time (outer calls only, so recursion is not
counted twice), self time (inclusive time minus the time of wrapped calls
made inside it) and the call count.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

FILL = "imputers.fill"

# (metric, what is read, traced name): "inclusive" and "self" are seconds,
# "calls" counts calls, "counts" reads the counters the wrappers keep.
LAYER_METRICS = (
    ("imputers.fit_s", "inclusive", "imputers.fit"),
    ("imputers.fit_calls", "calls", "imputers.fit"),
    ("imputers.em_iters", "counts", "imputers.em_iters"),
    ("imputers.fill_s", "inclusive", FILL),
    ("imputers.fill_calls", "calls", FILL),
    ("imputers.fill_rows", "counts", "imputers.fill_rows"),
    ("estimators.score_tables_self_s", "self", "estimators.score_tables"),
    ("estimators.bootstrap_variance_self_s", "self", "estimators.bootstrap_variance"),
    ("estimators.cross_fit_self_s", "self", "estimators.cross_fit"),
    ("estimators.cipi_fit_self_s", "self", "estimators.cipi_fit"),
    ("estimators.tuning_components_s", "inclusive", "estimators.tuning_components"),
    ("estimators.ipi_fit_self_s", "self", "estimators.ipi_fit"),
    ("losses.solve_complete_case_s", "inclusive", "losses.solve_complete_case"),
    ("losses.grad_matrix_calls", "calls", "losses.grad_matrix"),
    ("baselines.complete_case_fit_s", "inclusive", "baselines.complete_case_fit"),
    ("baselines.naive_single_impute_fit_self_s", "self", "baselines.naive_single_impute_fit"),
    ("baselines.best_single_pattern_self_s", "self", "baselines.best_single_pattern"),
    ("diagnostics.t_ipi_test_self_s", "self", "diagnostics.t_ipi_test"),
    ("diagnostics.t_full_test_self_s", "self", "diagnostics.t_full_test"),
    ("patterns.load_csv_s", "inclusive", "patterns.load_csv"),
    ("patterns.build_dataset_s", "inclusive", "patterns.build_dataset"),
    ("simgen.gen_mcar_missingness_self_s", "self", "simgen.gen_mcar_missingness"),
    ("simgen.run_trials_self_s", "self", "simgen.run_trials"),
    ("cli.main_self_s", "self", "cli.main"),
)

# Module functions ("module.attribute") wrapped wherever they are bound.
TRACED_FUNCTIONS = tuple(dict.fromkeys(
    key for _, kind, key in LAYER_METRICS if kind != "counts" and key != FILL
))


class Tracer:
    """Accumulates per-name timings and counts across wrapped calls."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[list[float]] = []
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.bound_at: list[str] = []

    def reset(self) -> None:
        self.inclusive.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def wrap(self, name, fn, after=None):
        """Timing wrapper around fn; after(args, result) may add counts."""
        clock, stack = self._clock, self._stack
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls
        depth = [0]  # calls of fn in progress, so recursion counts once

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1][0] += elapsed
                if not depth[0]:
                    inclusive[name] += elapsed
                self_time[name] += elapsed - frame[0]
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_fit(self, args, model) -> None:
        # Only the gaussian EM model carries an iteration count.
        self.counts["imputers.em_iters"] += int(getattr(model, "n_iter", 0))

    def _after_fill(self, args, filled) -> None:
        self.counts["imputers.fill_rows"] += 1 if filled.ndim == 1 else filled.shape[0]

    def install(self) -> None:
        """Wrap every traced name in every loaded ipinfer module."""
        import ipinfer.cli  # noqa: F401  (loads every submodule)
        from ipinfer import imputers

        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "ipinfer" or key.startswith("ipinfer."))
        ]
        after = {"imputers.fit": self._after_fit}
        for name in TRACED_FUNCTIONS:
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"ipinfer.{module_name}"], attr)
            wrapper = self.wrap(name, original, after.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.bound_at.append(f"{module.__name__}.{key}")
        base = imputers.ImputationModel
        base.fill = self.wrap(FILL, base.fill, self._after_fill)
        self.bound_at.append("ipinfer.imputers.ImputationModel.fill")

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation averages of the per-layer metrics, with units."""
        tables = {"inclusive": self.inclusive, "self": self.self_time,
                  "calls": self.calls, "counts": self.counts}
        return {
            metric: (tables[kind][key] / n_ops, "s" if kind in ("inclusive", "self") else "count")
            for metric, kind, key in LAYER_METRICS
        }
