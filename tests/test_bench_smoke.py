"""Smoke runs of the benchmark at its smallest size.

Runs one pass of each workload with tracing off and checks that every
answer matched bench/reference.json.
No timing is asserted: wall-clock figures belong to the benchmark, not
to the tests.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _one_pass(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_rfstar_posterior_one_pass_is_correct():
    last = _one_pass("rfstar-posterior")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_rf_exact_one_pass_is_correct():
    # pins the three exact rf answers (26/3, 3 and 5) end to end
    last = _one_pass("rf-exact")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_errata_one_pass_is_correct():
    # pins the derived fixture text and verify-errata's 20 passing checks
    # end to end
    queries = json.loads((ROOT / "bench" / "reference.json").read_text())["workloads"]["errata"]
    fixture = ROOT / "src" / "randomfacet" / "data" / "errata-cube.instance"
    assert [q["expect"] for q in queries] == [
        fixture.read_text(encoding="utf-8"),
        "exit=0 checks=20 passed=20",
    ]
    last = _one_pass("errata")
    assert last["correct"] is True
    assert last["failed"] == 0


def test_simulate_one_pass_is_correct():
    # pins the seeded Monte Carlo estimates of both rules, on errata and
    # on an m=40 instance, end to end
    last = _one_pass("simulate")
    assert last["correct"] is True
    assert last["failed"] == 0
