"""The benchmark's own scripts run at their smallest size.

`bench/` builds and reads names of the package (`RoofCategory`,
`check_sigma_level`, `Report.records`, `fixtures.subset_model` and more), so
a change that drops one of them breaks the benchmark while every other test
passes.  Each script runs here as its docstring says, in a fresh
interpreter from the repository root, and its output is read: the baseline
table on two- and three-atom lattices, and one `fixtures` run of the
harness, whose ops are checked against the expected digests.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

LAYERS = ("`FiniteCategory.check_axioms`", "`verify_grothendieck` (structural)",
          "`verify_filtered` (probability)", "`verify_filtered` (operadic)",
          "`verify_roof_category`")


def run_script(*argv):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_the_baseline_table_has_one_row_per_layer():
    lines = run_script("bench/baseline.py", "--atoms", "2", "3", "--repeat", "1")
    assert lines[0].startswith("| Layer (power-set lattice, n atoms) | n=2 | n=3 |")
    for layer in LAYERS:
        [row] = [line for line in lines if line.startswith(f"| {layer} |")]
        assert row.count(" ms") == 2, row
    assert json.loads(lines[-1]).keys() == {"2", "3"}


def test_a_fixtures_run_of_the_harness_is_correct():
    lines = run_script("bench/run.py", "--workload", "fixtures", "--seed", "0",
                       "--seconds", "0.1")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
