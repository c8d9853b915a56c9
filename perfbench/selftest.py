"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

1. Runs every workload through `run.py` for two operations, untraced and
   traced, and checks that the result line carries every metric named in
   BENCHMARK.json with its unit, and that no operation failed.
2. Runs two operations of every workload in this process, checks that the
   real outputs pass every correctness check, then corrupts them one check
   at a time and shows that the check rejects each corrupted output.  A
   workload whose every operation raises, the warm-up included, still
   yields a result, with `correct` false.
3. Checks that the tracer wraps the names bound by `from ... import` in
   every module that binds them.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 3
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


# ---------------------------------------------------------------------------
# 1. every metric printed with its unit


def check_result_lines(spec: dict) -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", w["name"], "--seed", str(SEED), "--seconds", "0.1",
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            label = f"{w['name']} trace={trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result keys {sorted(result)}")
            expect(result["attempted"] >= 2 and result["failed"] == 0 and result["correct"],
                   f"{label}: attempted {result['attempted']}, failed {result['failed']}, "
                   f"correct {result['correct']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: every metric printed with its unit")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and np.isfinite(v) for v in values),
                   f"{label}: every value is a finite number")


# ---------------------------------------------------------------------------
# 2. each correctness check rejects a corrupted output


def rejects(workload, label: str, outputs=None, run_outputs=None) -> None:
    """The corrupted op output (or run of outputs) must produce an error."""
    if outputs is not None:
        errors = workload.check_op(outputs)
    else:
        errors = workload.check_run(run_outputs)
    first = errors[0][:120] if errors else "accepted"
    expect(bool(errors), f"{workload.name}: rejects {label}: {first}")


def check_mc_coverage(w, outs) -> None:
    good = outs[0]

    def with_record(method, **changes):
        bad = copy.deepcopy(good)
        for r in bad.records:
            if r.method == method:
                for k, v in changes.items():
                    setattr(r, k, v)
        return bad

    bad = copy.deepcopy(good)
    bad.metrics[0].failures, bad.metrics[0].n_trials = 1, 0
    bad.records = [r for r in bad.records if r.method != bad.metrics[0].method]
    rejects(w, "a method with no interval", outputs=bad)
    rejects(w, "a non-finite interval", outputs=with_record("ipi", lower=float("nan")))

    # A synthetic 40-trial run with the paper's coverage pattern passes;
    # each corruption below breaks exactly one run-level check.
    def synthetic(ipi=36, cc=36, naive=24, n_eff=1000.0):
        run = []
        for k in range(40):
            records = copy.deepcopy(w.run_item(good))
            for r in records:
                r.covered = k < {"ipi": ipi, "complete_case": cc, "naive": naive}.get(r.method, 36)
                if r.method == "ipi":
                    r.n_effective = n_eff
            run.append(records)
        return run

    expect(w.check_run(synthetic()) == [], "mc_coverage: synthetic valid run passes")
    rejects(w, "ipi coverage far below 1 - alpha", run_outputs=synthetic(ipi=20))
    rejects(w, "complete_case coverage far below 1 - alpha", run_outputs=synthetic(cc=20))
    rejects(w, "naive covering as often as complete_case", run_outputs=synthetic(naive=36))
    rejects(w, "ipi n_effective below the complete rows", run_outputs=synthetic(n_eff=150.0))


def check_cipi(w, outs) -> None:
    values, fit = outs[0]

    def bad(**changes):
        return values, dataclasses.replace(fit, **changes)

    nan_theta = fit.theta_hat.copy()
    nan_theta[0] = np.nan
    rejects(w, "a non-finite estimate", outputs=bad(theta_hat=nan_theta))
    rejects(w, "a zero standard error", outputs=bad(se=np.zeros_like(fit.se)))
    rejects(w, "an estimate outside its interval",
            outputs=bad(ci=fit.ci + 10 * (fit.ci[:, 1:] - fit.ci[:, :1])))
    rejects(w, "a wrong complete-case estimate",
            outputs=bad(theta_complete=fit.theta_complete + 1e-3))

    j = w.config.target_coordinate
    half = fit.ci[j, 1] - fit.theta_hat[j]

    def synthetic(n_covering):
        run = []
        for k in range(40):
            center = w.theta_star[j] + (0.0 if k < n_covering else 10 * half)
            run.append((center - half, center + half))
        return run

    expect(w.check_run(synthetic(36)) == [], f"{w.name}: synthetic valid run passes")
    rejects(w, "coverage far below 1 - alpha", run_outputs=synthetic(20))


def check_cli(w, outs) -> None:
    code, text, err = outs[0]
    payload = json.loads(text)

    def bad(mutate):
        p = copy.deepcopy(payload)
        mutate(p)
        return 0, json.dumps(p), ""

    def shift(key, scale):
        def mutate(p):
            p[key] = [v + 10 * s for v, s in zip(p[key], scale)]
        return mutate

    se = np.asarray(payload["se"])
    se_cc = se * np.sqrt(np.asarray(payload["n_effective"]) / payload["n_complete"])
    rejects(w, "a non-zero exit code", outputs=(3, "", "ipinfer: data error: x"))
    rejects(w, "output that is not JSON", outputs=(0, text[:-3], ""))
    rejects(w, "output violating the result-v1 schema", outputs=bad(lambda p: p.pop("se")))
    rejects(w, "theta_hat far from the population value", outputs=bad(shift("theta_hat", se)))
    rejects(w, "theta_complete far from the population value",
            outputs=bad(shift("theta_complete", se_cc)))
    rejects(w, "a p-value above 1",
            outputs=bad(lambda p: p["diagnostics"]["weighted"].update(p_value=1.5)))
    rejects(w, "a missing p-value",
            outputs=bad(lambda p: p["diagnostics"]["full"].update(p_value=None)))
    rejects(w, "a wrong df for the full test",
            outputs=bad(lambda p: p["diagnostics"]["full"].update(df=2)))
    rejects(w, "a missing diagnostic", outputs=bad(lambda p: p["diagnostics"].update(full=None)))


def check_corruptions() -> None:
    checkers = {
        "mc_coverage": check_mc_coverage,
        "cipi_chained": check_cipi,
        "cipi_mean": check_cipi,
        "cli_analyze": check_cli,
    }
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-selftest-") as workdir:
            w = cls(SEED, workdir)
            outs = [w.op(i) for i in range(2)]
            expect(all(w.check_op(o) == [] for o in outs), f"{name}: real outputs pass")
            expect(w.check_run([w.run_item(o) for o in outs]) == [], f"{name}: real run passes")
            checkers[name](w, outs)


class BrokenCipiMean(workloads.CipiMean):
    """A program fault that makes every operation, the warm-up too, raise."""

    name = "broken_cipi_mean"

    def op(self, i):
        raise ValueError("every operation fails")


def check_broken_program() -> None:
    """A program that fails every operation yields a result with correct false."""
    workloads.WORKLOADS[BrokenCipiMean.name] = BrokenCipiMean
    try:
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-selftest-") as workdir:
            r = workloads.measure(BrokenCipiMean.name, SEED, 0.1, False, time.monotonic(),
                                  False, workdir)
    finally:
        del workloads.WORKLOADS[BrokenCipiMean.name]
    expect(not r["correct"] and r["attempted"] == r["failed"] == 2
           and any(e.startswith("warm-up operation") for e in r["errors"]),
           f"a broken program gives correct false: attempted {r['attempted']}, "
           f"failed {r['failed']}, errors {r['errors'][-2:]}")


# ---------------------------------------------------------------------------
# 3. names bound with `from ... import` are wrapped where they are bound


def check_tracer_bindings() -> None:
    tracer = Tracer()
    tracer.install()
    for site in (
        "ipinfer.estimators.fit_imputer",
        "ipinfer.simgen.solve_complete_case",
        "ipinfer.estimators.solve_complete_case",
        "ipinfer.baselines.solve_complete_case",
        "ipinfer.diagnostics.solve_complete_case",
        "ipinfer.diagnostics.score_tables",
        "ipinfer.baselines.score_tables",
        "ipinfer.estimators.grad_matrix",
        "ipinfer.baselines.grad_matrix",
        "ipinfer.simgen.build_dataset",
        "ipinfer.cli.build_dataset",
        "ipinfer.cli.load_csv",
        "ipinfer.imputers.ImputationModel.fill",
    ):
        expect(site in tracer.bound_at, f"tracer wraps {site}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_result_lines(spec)
    check_corruptions()
    check_broken_program()
    check_tracer_bindings()
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
