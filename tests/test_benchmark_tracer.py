"""The benchmark's traced run still works against this tree.

`perfbench/child.py --trace` wraps package attributes by name (for example
`experiment.quantile`, `Environment.rho_full_row`, `seeding.mix64_array`), so
renaming or deleting one of them breaks the benchmark.  A tiny traced sweep
per engine path here makes that fail in the test suite instead: an annealed
dynamic sweep, and a quenched percolation sweep, which runs the skip BFS on
one keyed environment (`rho_pairs`, `rho_full_row`, `xi_block`).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# case -> (sweep arguments, the layer counts it must report)
_CASES = {
    "dynamic-annealed": (
        ["--engine", "dynamic"],
        # one stream per block of replications: one block at each of the two points
        {"dynamics.runs": 16, "experiment.no_spread_calls": 2, "seeding.stream_calls": 2}),
    "percolation-quenched": (
        ["--engine", "percolation", "--measure", "quenched"],
        # vertex 0's row feeds each point's references; no Monte Carlo no-spread
        {"percolation.runs": 16, "environment.rho_full_row_calls": 2,
         "environment.inits": 4, "seeding.stream_calls": 2,
         "experiment.no_spread_calls": 0}),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_traced_sweep_reports_layers(tmp_path, case):
    engine_args, expected = _CASES[case]
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--src", str(ROOT / "src"), "--result", str(result),
           "--trace", str(tmp_path / "spans.csv"), "--",
           "sweep", "--xi", "two_point:1:0.5:2", "--rho", "uniform:0:1",
           "--n-grid", "20", "--lambda-grid", "0.5,2", "--lambda-units", "lambda_c",
           "--reps", "8", *engine_args, "--seed", "1", "--jobs", "1",
           "--outdir", str(tmp_path / "out")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    assert {name: layers[name] for name in expected} == expected
