"""Run the ipinfer benchmark.

One workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from a traced run.

Every workload, untraced and then traced, with a summary table:

    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--out FILE]

This file uses only the standard library.  Each measurement runs in a
fresh workload process (`workloads.py`), which limits BLAS to one thread
and imports ipinfer from the checkout's `src`.  `setup_s` is the median
over SETUP_SAMPLES processes of the time from process start to the end of
the untimed warm-up.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_SCRIPT = os.path.join(HERE, "workloads.py")
WORKLOADS = ("mc_coverage", "cipi_chained", "cipi_mean", "cli_analyze")
SETUP_SAMPLES = 3
# A run must end within 180 s; leave room for interpreter shutdown.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """A workload process failed or produced no result."""


def _child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0")


def spawn(workload: str, seed: int, seconds: float, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    """Run one workload process and return its JSON result."""
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    started = time.monotonic()
    cmd = [
        sys.executable, WORKLOAD_SCRIPT, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
        "--started", repr(started), "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: workload process timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(run: dict, ops_per_s: float, setup_samples: list[float]) -> dict:
    latencies = run["latencies_s"]
    ok = [t for t, good in zip(latencies, run["ok"]) if good] or latencies
    metrics = {
        "latency_p50_s": (statistics.median(ok), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One run of one workload: its result line plus the raw figures."""
    run = spawn(workload, seed, seconds, trace, deadline)
    ops_per_s = (run["attempted"] - run["failed"]) / sum(run["latencies_s"])
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["layers"].items()}
    else:
        setup = [run["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(spawn(workload, seed, seconds, 0, deadline, setup_only=True)["setup_s"])
        metrics = end_to_end(run, ops_per_s, setup)
    return {
        "result": {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        },
        "errors": run["errors"],
        "host_probe_s": run["host_probe_s"],
        "ops_per_s": ops_per_s,
    }


def _report(workload: str, trace: int, m: dict) -> None:
    for err in m["errors"]:
        print(f"{workload}: {err}", file=sys.stderr)
    start, end = m["host_probe_s"]
    print(
        f"{workload} trace={trace}: host_probe_s start={start:.4f} end={end:.4f} "
        f"ops_per_s={m['ops_per_s']:.4f}"
    )


def run_all(seed: int, seconds: float, out: str | None) -> int:
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + DEADLINE_S
            m = measure(workload, seed, seconds, trace, deadline)
            _report(workload, trace, m)
            results.setdefault(workload, {})[f"trace{trace}"] = m
    print()
    for workload, both in results.items():
        r = both["trace0"]["result"]
        print(f"== {workload}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for trace in ("trace0", "trace1"):
            for name, v in both[trace]["result"]["metrics"].items():
                print(f"   {name:42s} {v['value']:14.6g} {v['unit']}")
        overhead = 1.0 - both["trace1"]["ops_per_s"] / both["trace0"]["ops_per_s"]
        print(f"   tracing overhead (drop in ops_per_s)       {overhead:14.2%}")
    if out:
        with open(out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
    ok = all(both[t]["result"]["correct"] for both in results.values() for t in both)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="with --workload all: write all results here")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "ipinfer", "__init__.py")):
        print(f"perfbench: no ipinfer sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.out)
        m = measure(args.workload, args.seed, args.seconds, args.trace,
                    time.monotonic() + DEADLINE_S)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, args.trace, m)
    print(json.dumps(m["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
