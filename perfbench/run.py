"""Benchmark entry point for gcstates.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 48 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts fresh interpreters with
BLAS/OpenMP threads pinned to one and drives one workload process at a time:

* ``--trace 0`` times five fresh set-ups, three before the workload runs
  untraced and two after it (``setup_s`` is their median), and reports
  the end-to-end metrics;
* ``--trace 1`` runs the workload with every gcstates public function
  wrapped in spans and reports the per-layer metrics.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with every op time, also goes
to ``perfbench/results/``.  ``--smoke`` runs each workload for one pass and
prints its end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# BENCHMARK.json gates verify and labels only; spectra stays runnable by name
# (see "Steadiness" in README.md for why it is outside the gate)
WORKLOADS = ("verify", "labels", "spectra")
# a run, set-up starts included, must end well inside three minutes
RUN_LIMIT_S = 170.0
SETUP_STARTS = 5  # fresh set-ups timed per run; setup_s is their median
# The machine's speed drifts over tens of seconds, so back-to-back starts
# share one speed; timing some before and some after the workload samples two.
SETUP_BEFORE = 3

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RunError(RuntimeError):
    pass


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = {**os.environ, **PINNED_ENV}
    env.pop("PYTHONPATH", None)  # gcstates must come from this checkout's src
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise RunError(f"worker {args} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_times(workload: str, seed: int, starts: int, deadline: float) -> list[float]:
    """Wall time of fresh interpreters that set the workload up and exit."""
    out = []
    for _ in range(starts):
        t0 = time.perf_counter()
        run_worker(
            ["--workload", workload, "--seed", str(seed), "--setup-only"],
            deadline - time.monotonic(),
        )
        out.append(time.perf_counter() - t0)
    return out


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_one(workload: str, seed: int, seconds: float, trace: int, starts: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{trace}"
    before = min(starts, SETUP_BEFORE)
    setups = [] if trace else setup_times(workload, seed, before, deadline)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", str(stem.with_suffix(".spans.json"))]
    proc = run_worker(args, deadline - time.monotonic())
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        setups += setup_times(workload, seed, starts - before, deadline)
    ops = res["op_s"]
    if not ops:
        raise RunError(f"{workload}: no op completed ({res['failures']})")
    if trace:
        values = {**res["layers"], "traced.op_p50_ms": 1e3 * statistics.median(ops)}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(ops) / sum(ops),
            "op_p50_ms": 1e3 * statistics.median(ops),
            "op_p90_ms": 1e3 * p90(ops),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared["per_layer" if trace else "end_to_end"]
    }
    summary = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = {**summary, "workload": workload, "seed": seed, "seconds": seconds,
              "setup_s_all": setups, **{k: res[k] for k in ("op_s", "problems", "failures")}}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))
    for line in res["problems"] + res["failures"]:
        print(f"{workload}: {line}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gcstates benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of every workload, one set-up start each")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gcstates" / "__init__.py").is_file():
        print(f"error: no gcstates sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        args.workload, args.seconds = "all", 0.0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            starts = 1 if args.smoke else SETUP_STARTS
            summary = run_one(name, args.seed, args.seconds, args.trace, starts)
            if len(names) > 1:
                print(f"# {name}: attempted {summary['attempted']}, failed "
                      f"{summary['failed']}, correct {summary['correct']}")
                for metric, m in summary["metrics"].items():
                    print(f"#   {metric} = {m['value']:.6g} {m['unit']}")
            print(json.dumps(summary))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
