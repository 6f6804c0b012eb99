"""Smoke run of the benchmark at its smallest size.

Runs one pass of the rfstar-posterior workload with tracing off and
checks that every answer matched bench/reference.json.  No timing is
asserted: wall-clock figures belong to the benchmark, not to the tests.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_rfstar_posterior_one_pass_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rfstar-posterior",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
