"""The benchmark's traced run still works against this tree.

`perfbench/child.py --trace` wraps package attributes by name (for example
`experiment.quantile`, `Environment.rho_full_row`, `seeding.mix64_array`), so
renaming or deleting one of them breaks the benchmark.  A tiny traced sweep
here makes that fail in the test suite instead.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_sweep_reports_layers(tmp_path):
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--src", str(ROOT / "src"), "--result", str(result),
           "--trace", str(tmp_path / "spans.csv"), "--",
           "sweep", "--xi", "two_point:1:0.5:2", "--rho", "uniform:0:1",
           "--n-grid", "20", "--lambda-grid", "0.5,2", "--lambda-units", "lambda_c",
           "--reps", "8", "--engine", "dynamic", "--seed", "1", "--jobs", "1",
           "--outdir", str(tmp_path / "out")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    assert layers["dynamics.runs"] == 16
    assert layers["experiment.no_spread_calls"] == 2
    # one stream per block of replications: one block at each of the two points
    assert layers["seeding.stream_calls"] == 2
