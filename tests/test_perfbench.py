"""The benchmark's worker: one pass of each gated workload under --trace 1,
and untraced passes of ``labels`` at seeds 2, 3 and 4.

The tracer wraps every name in each gcstates module's ``__all__`` and
patches some by name, so a renamed or removed function breaks the traced
run; this catches it in the suite rather than in the benchmark.  The
``labels`` inputs change with the seed (the ``verify`` op ignores it), so a
label that fails only at another seed shows here too.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def worker_pass(workload, seed, trace):
    """Run one worker pass and check that it is correct and fails no op."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result["problems"]
    assert result["failed"] == 0, result["failures"]


@pytest.mark.parametrize("workload", ["verify", "labels"])
def test_traced_worker_pass(workload):
    worker_pass(workload, seed=1, trace=1)


@pytest.mark.parametrize("seed", [2, 3, 4])
def test_labels_pass_at_other_seeds(seed):
    worker_pass("labels", seed=seed, trace=0)
