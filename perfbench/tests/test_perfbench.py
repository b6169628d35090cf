"""Tests of the sweep benchmark's own checks and of its workloads.

    python3 -m pytest perfbench/tests -q

The gate tests build a real sweep.json document in-process and break one
law at a time; the workload tests run a tiny version of every workload end
to end through fresh interpreters, as the benchmark does.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run as bench  # noqa: E402

from sirkn.experiment import config_from_dict, sweep, sweep_to_dict  # noqa: E402

TINY_REPS = 64  # the smallest batch that jobs > 1 splits over a pool


def sweep_doc(name: str, reps: int = 400):
    """sweep.json content for a workload's laws, computed in this process."""
    w = bench.WORKLOADS[name]
    config = config_from_dict({
        "xi_spec": w.xi, "rho_spec": w.rho, "n_grid": [100, 300],
        "lambda_grid": list(w.lambda_grid), "lambda_units": "lambda_c",
        "replications": reps, "engine": w.engine, "master_seed": 5,
    })
    doc = json.loads(json.dumps(sweep_to_dict(sweep(config, jobs=1))))
    return doc, dataclasses.replace(w, n_grid=(100, 300), reps=reps)


@pytest.fixture(scope="module")
def perc_doc():
    return sweep_doc("perc-subcritical")


@pytest.fixture(scope="module")
def dyn_doc():
    return sweep_doc("dyn-uniform", reps=200)


def test_gate_accepts_correct_sweeps(perc_doc, dyn_doc):
    for doc, w in (perc_doc, dyn_doc):
        assert bench.check_sweep(doc, w) == []


def test_gate_rejects_failed_replication(perc_doc):
    doc, w = copy.deepcopy(perc_doc[0]), perc_doc[1]
    doc["rows"][1]["failures"] = 1
    problems = bench.check_sweep(doc, w)
    assert len(problems) == 1
    assert problems[0].startswith("row 1 ") and "1 replications failed" in problems[0]


def test_gate_rejects_no_spread_far_from_reference(perc_doc):
    doc, w = copy.deepcopy(perc_doc[0]), perc_doc[1]
    row = doc["rows"][2]
    row["p_no_spread"] = min(1.0, row["no_spread_finite_n"] + 0.15)
    problems = bench.check_sweep(doc, w)
    assert len(problems) == 1
    assert problems[0].startswith("row 2 ") and "analytic_no_spread" in problems[0]


def test_gate_rejects_violated_subcritical_bound(perc_doc):
    doc, w = copy.deepcopy(perc_doc[0]), perc_doc[1]
    row = doc["rows"][3]
    bound = row["subcritical_mean_bound"]
    assert bound is not None
    half = row["mean_ci"][1] - row["mean_r_inf"]
    row["mean_r_inf"] = 2 * bound
    row["mean_ci"] = [2 * bound - half, 2 * bound + half]
    problems = bench.check_sweep(doc, w)
    assert len(problems) == 1
    assert problems[0].startswith("row 3 ") and "bound_eq34" in problems[0]


def test_gate_rejects_supercritical_row_without_exceedance(dyn_doc):
    doc, w = copy.deepcopy(dyn_doc[0]), dyn_doc[1]
    k = next(i for i, r in enumerate(doc["rows"]) if r["lambda_over_lambda_c"] > 1.5)
    doc["rows"][k]["exceed_ci"] = [0.0, 0.1]
    problems = bench.check_sweep(doc, w)
    assert len(problems) == 1 and problems[0].startswith(f"row {k} ")


def test_gate_rejects_missing_rows(perc_doc):
    doc, w = copy.deepcopy(perc_doc[0]), perc_doc[1]
    del doc["rows"][0]
    assert bench.check_sweep(doc, w)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_workload_end_to_end(name, tmp_path, monkeypatch):
    tiny = dataclasses.replace(bench.WORKLOADS[name], reps=TINY_REPS)
    monkeypatch.setitem(bench.WORKLOADS, name, tiny)
    timed = bench.run(name, seed=3, seconds=0, trace=False, workdir=tmp_path / "t")
    assert timed["problems"] == []
    result = timed["result"]
    assert result["correct"] is True and result["failed"] == 0
    cells = len(tiny.n_grid) * len(tiny.lambda_grid)
    assert result["attempted"] == 2 * cells * TINY_REPS  # one sweep and its repeat
    assert list(result["metrics"]) == list(bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = bench.run(name, seed=3, seconds=0, trace=True, workdir=tmp_path / "tr")
    assert traced["problems"] == []
    layers = {k: m["value"] for k, m in traced["result"]["metrics"].items()}
    assert list(layers) == list(bench.PER_LAYER)
    assert layers["experiment.pool_starts"] == (cells if tiny.jobs > 1 else 0)
    assert layers["environment.rho_at_calls"] == 0
    engine_runs = "dynamics.runs" if tiny.engine == "dynamic" else "percolation.runs"
    assert layers[engine_runs] == cells * TINY_REPS
    prov = traced["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "seed", "reps",
                "jobs", "src_sha256"):
        assert prov[key] is not None, key


def test_benchmark_json_matches_runner():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints
    no result."""
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "dyn-uniform", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no sirkn sources" in proc.stderr
