"""One benchmark process: set up a workload, warm up, run timed passes.

Run by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads pinned to
one.  With ``--setup-only`` it stops after set-up, so that ``run.py`` can time
fresh starts.  Otherwise it

1. builds the seeded input list and makes the warm-up calls (untimed);
2. runs one untimed warm-up pass and checks its outputs against the
   benchmark's own references, then makes the workload's once-per-run checks;
3. with ``--trace 1``, wraps the gcstates public functions in spans;
4. runs whole passes over the inputs until ``--seconds`` have gone by (at
   least one pass), timing each op alone and comparing its output with the
   warm-up pass;

and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gcstates  # noqa: E402
from gcstates import cli, coherent, fockrep, measure, models, oracle, specfn, stats  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRACED_MODULES = (specfn, models, fockrep, coherent, stats, measure, oracle, cli)


def run_pass(workload, inputs, times, failures, tracer=None):
    """Run each input once; time completed ops, record failed ones."""
    outputs = []
    for item in inputs:
        if tracer is not None:
            tracer.op = len(times) + len(failures)
        t0 = time.perf_counter()
        try:
            out = workload.op(item)
        except Exception as exc:  # an op that raises counts as failed
            failures.append(f"{type(exc).__name__}: {exc}")
            outputs.append(exc)
            continue
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs


def layer_metrics(tracer: tracing.Tracer, ops: int) -> dict:
    """Per-op work counts and self times, plus self time per module."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    construct = ("coherent.construct.shallow", "coherent.construct.deep")
    out = {
        "coherent.construct.calls": sum(calls[k] for k in construct),
        "coherent.construct.shallow_self_s": self_s["coherent.construct.shallow"],
        "coherent.construct.deep_self_s": self_s["coherent.construct.deep"],
    }
    for name in (
        "specfn.bessel_k", "specfn.integrate_halfline", "measure.weight_tilde_log",
        "models.step", "specfn.hyp0f1", "specfn.hyp0f1_complex",
        "oracle.compare_spectrum", "models.energy", "models.remainder", "models.rho_log",
    ):
        out[name + ".calls"] = calls[name]
    for name in (
        "specfn.bessel_k", "specfn.integrate_halfline", "measure.verify_moments",
        "specfn.hyp0f1", "specfn.hyp0f1_complex", "stats.summary_series",
        "stats.summary_closed", "stats.match_mean_abs_z", "oracle.build_problem",
        "oracle.lowest_eigenvalues", "oracle.compare_spectrum", "models.energy",
        "models.remainder", "models.rho_log", "fockrep.build", "cli.main",
    ):
        out[name + ".self_s"] = self_s[name]
    out["specfn.bessel_k.evals"] = counts["specfn.bessel_k.quad_evals"]
    for name in (
        "specfn.integrate_halfline.evals", "coherent.construct.dim_total",
        "specfn.hyp0f1.terms", "specfn.hyp0f1_complex.terms",
        "oracle.compare_spectrum.points_total",
    ):
        out[name] = counts[name]
    for mod in TRACED_MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        out[short + ".self_s"] = sum(v for k, v in self_s.items() if k.startswith(short + "."))
    per_op = {k: v / ops for k, v in out.items()}
    solves = counts["oracle.compare_spectrum.solves"]
    per_op["oracle.compare_spectrum.useful_ratio"] = (
        counts["oracle.compare_spectrum.useful"] / solves if solves else 0.0
    )
    return per_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced run's raw spans")
    args = ap.parse_args(argv)

    if Path(gcstates.__file__).resolve().parent != ROOT / "src" / "gcstates":
        print(f"imported gcstates from {gcstates.__file__}, not this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    workload.warm_up(inputs)
    if args.setup_only:
        return 0

    failures: list[str] = []
    warm = run_pass(workload, inputs, [], failures)
    ok = [i for i, out in enumerate(warm) if not isinstance(out, Exception)]
    problems = workload.check([inputs[i] for i in ok], [warm[i] for i in ok])
    problems += workload.once()
    failures.clear()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, gcstates, TRACED_MODULES)

    times: list[float] = []
    attempted = changed = 0
    start = time.perf_counter()
    while True:
        outputs = run_pass(workload, inputs, times, failures, tracer)
        attempted += len(inputs)
        changed += sum(
            not isinstance(a, Exception) and a != b for a, b in zip(outputs, warm)
        )
        if time.perf_counter() - start >= args.seconds:
            break
    if changed:
        problems.append(f"{changed} op outputs differ from the warm-up pass")
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads at the end of the run")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "op_s": times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems[:20],
        "failures": sorted(set(failures))[:20],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, attempted)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
