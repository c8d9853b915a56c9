"""The four benchmark workloads and the process that times one of them.

Run as a script, this module is the workload process that `run.py` starts:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --started T --workdir DIR [--setup-only]

It imports ipinfer from the checkout's `src`, builds the workload's inputs
from the seed, runs one untimed warm-up operation on inputs that are the
same for every seed, then runs a fixed list of seeded operations in order,
timing each one.  Garbage collection and output checks happen between
operations, outside the timed region; only what the run-level checks read
is kept.  The last line of its standard output is one JSON object with the
raw measurements; `run.py` turns them into metrics.

Every workload is a closed loop with one serial client.  Its length is a
fixed number of operations, `seconds * ops_per_second` of that workload,
so two commits always time the same work.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

import ipinfer  # noqa: E402
import ipinfer.cli  # noqa: E402
from ipinfer import estimators, imputers, losses, simgen  # noqa: E402

from tracing import Tracer  # noqa: E402

ALPHA = 0.1
# Coverage bands reject a run only when the binomial tail beyond the count
# is below this probability, so a correct program fails about once in
# 10^5 runs per check.
BAND_TAIL = 1e-5
# Run-level comparisons between methods need this many trials to have
# power; shorter runs (the self-test) skip them.
MIN_TRIALS_FOR_ORDERING = 20
# An estimate more than this many of its reported standard errors from
# the population value is wrong (about 6e-7 two-sided under normality).
SE_TOLERANCE = 5.0
# Each workload draws its data from one fixed population, the one its
# acceptance test uses; --seed selects the datasets.  Operation cost depends
# strongly on the population (EM iterations, chained sweeps), so letting the
# seed pick the population would make runs on different seeds disagree.
HEADLINE_POPULATION = 10
CRITERION_10_POPULATION = 17
# Operation -1 is the untimed warm-up.  Its inputs come from this seed, not
# from --seed, so that setup_s times the same work on every run.
WARMUP_OP = -1
WARMUP_SEED = 0
# On the CIPI workloads the missingness masks decide most of an operation's
# cost: a cipi_chained fit's time varies by 28 % between mask draws and by
# 11 % between data draws under the same masks.  So the masks of operation i
# come from this seed on every run, and --seed draws the data, the folds and
# the bootstrap.
MASK_SEED = 0


def op_seed(seed: int, i: int) -> int:
    """Seed of operation i of a run with the given --seed."""
    if i == WARMUP_OP:
        seed = WARMUP_SEED
    return int(np.random.SeedSequence((seed, i + 1)).generate_state(1)[0])


def binomial_band(n: int, p: float) -> tuple[int, int]:
    """Counts outside [lo, hi] have binomial(n, p) tail below BAND_TAIL."""
    lo = int(stats.binom.ppf(BAND_TAIL, n, p))
    hi = int(stats.binom.isf(BAND_TAIL, n, p))
    return lo, hi


def coverage_error(label: str, covered: int, n: int) -> list[str]:
    lo, hi = binomial_band(n, 1.0 - ALPHA)
    if lo <= covered <= hi:
        return []
    return [f"{label} covered {covered} of {n} trials, outside [{lo}, {hi}]"]


def headline_config(**overrides) -> simgen.ExperimentConfig:
    """The acceptance suite's headline coverage config (N = 2200, d = 20)."""
    base = dict(
        factor=simgen.FactorModelConfig(
            d=20, n_factors=2, variance_explained=0.5, seed=HEADLINE_POPULATION
        ),
        n_complete=200,
        ratio=10.0,
        n_patterns=10,
        feature_mask_prob=0.2,
        loss_family=losses.LINEAR,
        response=2,
        covariates=(0, 1),
        imputer=imputers.GAUSSIAN_KIND,
        trials=1,
        alpha=ALPHA,
        train_frac=0.1,
        k_folds=10,
        n_boot=50,
        objective="trace",
        target_coordinate=0,
        jobs=1,
    )
    base.update(overrides)
    return simgen.ExperimentConfig(**base)


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


# ---------------------------------------------------------------------------
# mc_coverage: one Monte Carlo trial of the headline study per operation


class McCoverage:
    """Headline coverage trials through simgen.run_trials; EM dominates."""

    name = "mc_coverage"
    ops_per_second = 7.5
    methods = ("ipi", "complete_case", "naive", "single_pattern:best")
    config = headline_config(methods=methods)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def op(self, i: int):
        config = replace(self.config, seed=op_seed(self.seed, i))
        return simgen.run_trials(config, collect_records=True)

    def check_op(self, result) -> list[str]:
        errors = []
        for m in result.metrics:
            if m.failures or m.n_trials != 1:
                errors.append(f"{m.method} returned no interval")
        for r in result.records:
            if not (_finite(r.estimate, r.lower, r.upper, r.n_effective) and r.lower < r.upper):
                errors.append(f"{r.method} interval [{r.lower}, {r.upper}] is not a finite interval")
        return errors

    def run_item(self, result):
        """What check_run reads of one operation: its per-method records."""
        return result.records

    def check_run(self, items) -> list[str]:
        records = {}
        for trial in items:
            for r in trial:
                records.setdefault(r.method, []).append(r)
        n = len(items)
        covered = {m: sum(r.covered for r in records.get(m, [])) for m in self.methods}
        errors = coverage_error("ipi", covered["ipi"], n)
        errors += coverage_error("complete_case", covered["complete_case"], n)
        if n >= MIN_TRIALS_FOR_ORDERING and covered["naive"] >= covered["complete_case"]:
            errors.append(
                f"naive covered {covered['naive']} trials, not fewer than "
                f"complete_case's {covered['complete_case']}"
            )
        n_eff = np.mean([r.n_effective for r in records.get("ipi", [])] or [0.0])
        if not n_eff > self.config.n_complete:
            errors.append(
                f"mean ipi n_effective {n_eff:.1f} does not exceed the "
                f"{self.config.n_complete} complete rows"
            )
        return errors


# ---------------------------------------------------------------------------
# cipi_chained and cipi_mean: one cross-fitted fit per operation


class CipiWorkload:
    """Simulate one dataset and run estimators.cipi_fit on it."""

    config: simgen.ExperimentConfig

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.population = simgen.build_population(self.config.factor)
        self.loss, self.target_dims = self.config.make_loss()
        self.theta_star = self.population.theta_star(self.loss, self.target_dims)
        self.missingness = simgen.MissingnessConfig(
            n_complete=self.config.n_complete,
            n_patterns=self.config.n_patterns,
            feature_mask_prob=self.config.feature_mask_prob,
        )

    def op(self, i: int):
        s = op_seed(self.seed, i)
        matrix = self.population.sample(np.random.default_rng(s), self.config.n_total())
        masks_rng = np.random.default_rng(op_seed(MASK_SEED, i))
        dataset = simgen.gen_mcar_missingness(matrix, self.missingness, self.target_dims, masks_rng)
        fit = estimators.cipi_fit(
            dataset, self.loss, self.config.imputer,
            k_folds=self.config.k_folds, n_boot=self.config.n_boot,
            alpha=ALPHA, objective=self.config.objective, seed=(s, 3),
        )
        return dataset.values, fit

    def own_complete_case(self, matrix: np.ndarray) -> np.ndarray:
        """Complete-case estimate computed here, not by the package."""
        complete = matrix[~np.isnan(matrix).any(axis=1)]
        if self.loss.family == losses.MEAN:
            return complete[:, list(self.config.mean_columns)].mean(axis=0)
        x = complete[:, list(self.config.covariates)]
        y = complete[:, self.config.response]
        return np.linalg.lstsq(x, y, rcond=None)[0]

    def check_op(self, output) -> list[str]:
        matrix, fit = output
        theta, se, ci = fit.theta_hat, fit.se, fit.ci
        if not _finite(theta, se, ci):
            return ["cipi fit is not finite"]
        errors = []
        if not (se > 0).all():
            errors.append(f"cipi se {se.tolist()} is not positive")
        if not ((ci[:, 0] <= theta) & (theta <= ci[:, 1])).all():
            errors.append("cipi theta_hat lies outside its interval")
        own = self.own_complete_case(matrix)
        if not np.allclose(fit.theta_complete, own, rtol=1e-8, atol=1e-10):
            errors.append(
                f"complete-case estimate {fit.theta_complete.tolist()} differs "
                f"from the direct fit {own.tolist()}"
            )
        return errors

    def run_item(self, output):
        """What check_run reads of one operation: the target coordinate's interval."""
        _, fit = output
        return tuple(fit.ci[self.config.target_coordinate])

    def check_run(self, items) -> list[str]:
        star = self.theta_star[self.config.target_coordinate]
        covered = sum(bool(lo <= star <= hi) for lo, hi in items)
        return coverage_error("cipi", covered, len(items))


class CipiChained(CipiWorkload):
    """Acceptance criterion 10's config; the 60 chained fits dominate."""

    name = "cipi_chained"
    ops_per_second = 1.2
    config = headline_config(
        factor=simgen.FactorModelConfig(
            d=8, n_factors=2, variance_explained=0.5, seed=CRITERION_10_POPULATION
        ),
        n_complete=100,
        ratio=4.0,
        n_patterns=4,
        feature_mask_prob=0.25,
        loss_family=losses.MEAN,
        response=None,
        covariates=None,
        mean_columns=(2,),
        imputer=imputers.CHAINED_KIND,
        train_frac=0.0,
    )


class CipiMean(CipiWorkload):
    """Headline size with the mean imputer; fold and bootstrap work dominates."""

    name = "cipi_mean"
    ops_per_second = 10.0
    config = headline_config(imputer=imputers.MEAN_KIND, train_frac=0.0)


# ---------------------------------------------------------------------------
# cli_analyze: `ipinfer analyze --diagnose --full` driven in-process


class FactorData:
    """The benchmark's own gaussian factor population and blockwise masking.

    Independent of simgen, so the population coefficients the CLI output is
    checked against come from the benchmark alone.
    """

    def __init__(self, population_seed: int, d: int = 20, n_factors: int = 2,
                 explained: float = 0.5):
        rng = np.random.default_rng(np.random.SeedSequence((population_seed, 7)))
        self.loadings = rng.standard_normal((d, n_factors))
        signal = float(np.sum(self.loadings**2))
        self.noise_sd = math.sqrt(signal * (1.0 - explained) / (explained * d))
        self.sigma = self.loadings @ self.loadings.T + self.noise_sd**2 * np.eye(d)

    def regression_theta(self, response: int, covariates) -> np.ndarray:
        cov = list(covariates)
        return np.linalg.solve(self.sigma[np.ix_(cov, cov)], self.sigma[cov, response])

    def sample(self, rng, n_rows: int, n_complete: int, n_patterns: int, mask_prob: float):
        """Rows past n_complete each lose the cells of one of n_patterns masks."""
        d = self.sigma.shape[0]
        z = rng.standard_normal((n_rows, self.loadings.shape[1]))
        x = z @ self.loadings.T + self.noise_sd * rng.standard_normal((n_rows, d))
        masks: list[bytes] = []
        while len(masks) < n_patterns:
            hide = rng.random(d) < mask_prob
            if hide.any() and not hide.all() and hide.tobytes() not in masks:
                masks.append(hide.tobytes())
        # Every pattern gets at least two rows so the diagnostics can run.
        assign = np.concatenate([
            np.repeat(np.arange(n_patterns), 2),
            rng.integers(0, n_patterns, n_rows - n_complete - 2 * n_patterns),
        ])
        rng.shuffle(assign)
        for r, key in enumerate(masks):
            rows = n_complete + np.flatnonzero(assign == r)
            x[np.ix_(rows, np.flatnonzero(np.frombuffer(key, dtype=bool)))] = np.nan
        return x


class CliAnalyze:
    """The analyst's path: CSV in, result JSON out; hotdeck fill and CSV
    parsing dominate."""

    name = "cli_analyze"
    ops_per_second = 3.2
    n_files = 4
    shape = dict(n_rows=2200, n_complete=200, n_patterns=10, mask_prob=0.2)
    response, covariates = 2, (0, 1)

    def __init__(self, seed: int, workdir: str):
        import jsonschema

        data = FactorData(HEADLINE_POPULATION)
        self.theta_star = data.regression_theta(self.response, self.covariates)
        self.validator = jsonschema.Draft202012Validator(
            json.loads(ipinfer.cli.schema_text("result-v1"))
        )
        d = data.sigma.shape[0]
        header = [f"x{j}" for j in range(d)]

        def write_csv(entropy: tuple, name: str) -> str:
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            x = data.sample(rng, **self.shape)
            path = os.path.join(workdir, f"{name}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in x:
                    writer.writerow(["" if np.isnan(v) else repr(float(v)) for v in row])
            return path

        self.files = [write_csv((seed, 8, k), f"data{k}") for k in range(self.n_files)]
        self.warmup_file = write_csv((WARMUP_SEED, 9), "warmup")
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump({
                "loss": {
                    "family": losses.LINEAR,
                    "response": header[self.response],
                    "covariates": [header[c] for c in self.covariates],
                },
                "method": "ipi",
                "imputer": imputers.HOTDECK_KIND,
                "train_frac": 0.1,
            }, fh)
        self.seed = seed

    def op(self, i: int):
        path = self.warmup_file if i == WARMUP_OP else self.files[i % self.n_files]
        argv = [
            "analyze", path, "--config", self.config_path,
            "--diagnose", "--full", "--seed", str(op_seed(self.seed, i)),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ipinfer.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check_op(self, output) -> list[str]:
        code, text, err = output
        if code != 0:
            return [f"exit code {code}: {err.strip()}"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        errors = [f"schema: {e.message}" for e in self.validator.iter_errors(payload)]
        if errors:
            return errors
        theta = np.asarray(payload["theta_hat"], dtype=float)
        se = np.asarray(payload["se"], dtype=float)
        # Complete-case standard errors follow from the reported effective
        # sample size: n_eff = n * (width_cc / width)^2.
        se_cc = se * np.sqrt(np.asarray(payload["n_effective"], dtype=float) / payload["n_complete"])
        for label, est, sd in (("theta_hat", theta, se), ("theta_complete", payload.get("theta_complete"), se_cc)):
            if est is None:
                errors.append(f"{label} missing")
                continue
            z = np.abs(np.asarray(est, dtype=float) - self.theta_star) / sd
            if not (z <= SE_TOLERANCE).all():
                errors.append(f"{label} is {z.max():.1f} standard errors from the population value")
        diag = payload["diagnostics"] or {}
        p = theta.size
        for test, df in (("weighted", p), ("full", p * payload["n_patterns"])):
            report = diag.get(test)
            if report is None:
                errors.append(f"{test} diagnostic missing")
                continue
            pv = report["p_value"]
            if pv is None or not 0.0 <= pv <= 1.0:
                errors.append(f"{test} p-value {pv} not in [0, 1]")
            if report["df"] != df:
                errors.append(f"{test} df {report['df']}, expected {df}")
        return errors

    def run_item(self, output):
        return None

    def check_run(self, items) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (McCoverage, CipiChained, CipiMean, CliAnalyze)}


def n_operations(workload, seconds: float) -> int:
    """Fixed run length: two operations at least."""
    return max(2, round(seconds * workload.ops_per_second))


# ---------------------------------------------------------------------------
# the timed process


def host_probe() -> float:
    """Time a fixed numpy-and-Python loop that never calls ipinfer."""
    start = time.perf_counter()
    a = np.random.default_rng(0).standard_normal((200, 200))
    for _ in range(200):
        a = np.tanh(a @ a.T / 200.0)
    total = 0
    for k in range(2_000_000):
        total += k % 7
    return time.perf_counter() - start


def attempt(workload, i: int):
    """Run operation i, then check it; only the operation itself is timed.

    Returns (seconds, output, errors); an operation that raises has no output.
    """
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception as exc:  # an operation that raises counts as failed
        out, errors = None, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    gc.enable()
    if out is not None:
        errors = workload.check_op(out)
    return elapsed, out, errors


def measure(name: str, seed: int, seconds: float, trace: bool, started: float,
            setup_only: bool, workdir: str) -> dict:
    """Set up, warm up and run one workload; return the raw figures."""
    cls = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    workload = cls(seed, workdir)
    # A failed warm-up makes the run incorrect; the timed operations still run.
    _, _, warm_errors = attempt(workload, WARMUP_OP)
    run_errors = [f"warm-up operation: {'; '.join(warm_errors)}"] if warm_errors else []
    gc.collect()
    # Move what set-up made out of the collector's reach, so that the
    # collection before each operation scans only that operation's objects
    # (a full collection here takes about 23 ms).
    gc.freeze()
    setup_s = time.monotonic() - started
    if setup_only:
        return {"setup_s": setup_s}
    if tracer is not None:
        tracer.reset()

    n_ops = n_operations(cls, seconds)
    probe_start = host_probe()
    latencies, ok, items, failures = [], [], [], []
    for i in range(n_ops):
        elapsed, out, errors = attempt(workload, i)
        latencies.append(elapsed)
        ok.append(not errors)
        if errors:
            failures.append(f"operation {i}: {'; '.join(errors)}")
        else:
            items.append(workload.run_item(out))
        del out
    probe_end = host_probe()
    run_errors += workload.check_run(items) if items else ["no operation succeeded"]
    result = {
        "workload": name,
        "attempted": n_ops,
        "failed": len(failures),
        "correct": not run_errors,
        "errors": failures[:5] + run_errors,
        "latencies_s": latencies,
        "ok": ok,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_probe_s": [probe_start, probe_end],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(n_ops)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, default=None,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True, help="scratch directory for input files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.abspath(ipinfer.__file__).startswith(SRC + os.sep):
        print(f"ipinfer was imported from {ipinfer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic() if args.started is None else args.started
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     started, args.setup_only, args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
