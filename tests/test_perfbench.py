"""The benchmark's traced run: one pass of each gated workload under --trace 1.

The tracer wraps every name in each gcstates module's ``__all__`` and
patches some by name, so a renamed or removed function breaks the traced
run; this catches it in the suite rather than in the benchmark.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["verify", "labels"])
def test_traced_worker_pass(workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload,
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], result["problems"]
    assert result["failed"] == 0, result["failures"]
