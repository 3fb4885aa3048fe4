"""A/A steadiness study: two alternated sets of benchmark runs of one tree.

    python3 perfbench/aa.py --rounds 10 --seconds 48

Round i runs every workload once for set A (seed 100 + i) and then once for
set B (seed 200 + i), so slow drifts of the machine reach both sets alike.
For each set, workload and end-to-end metric it prints the median, the
quartiles and the spread (quartile distance over the median, from
``statistics.quantiles(values, n=4)``), and the shift of B's median against
A's.  The raw run summaries go to ``perfbench/results/aa.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = {"A": 100, "B": 200}


def run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=48.0)
    ap.add_argument("--workloads", default="verify,labels")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    runs = {(s, w): [] for s in SETS for w in workloads}
    for i in range(1, args.rounds + 1):
        for name, base in SETS.items():
            for w in workloads:
                res = run(w, base + i, args.seconds)
                runs[name, w].append(res)
                print(f"round {i} set {name} {w}: correct {res['correct']} attempted "
                      f"{res['attempted']} failed {res['failed']}", flush=True)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "aa.json").write_text(
        json.dumps({f"{s}/{w}": r for (s, w), r in runs.items()}, indent=1)
    )

    print(f"{'workload':8} {'metric':12} {'set':3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'B/A-1':>7}")
    for w in workloads:
        for metric in runs["A", w][0]["metrics"]:
            medians = {}
            for s in SETS:
                vals = [r["metrics"][metric]["value"] for r in runs[s, w]]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = medians[s] = statistics.median(vals)
                shift = f"{medians['B'] / medians['A'] - 1:+.4f}" if s == "B" else ""
                print(f"{w:8} {metric:12} {s:3} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                      f"{(q3 - q1) / med:7.4f} {shift:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
