import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sirkn.cli import main


def run_cli(args, cwd):
    """Invoke main() in-process with a working directory."""
    import os
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


def test_simulate_byte_identical(tmp_path):
    args = ["simulate", "--n", "100", "--lambda", "2", "--xi", "constant:1",
            "--rho", "constant:1", "--seed", "7"]
    assert run_cli(args, tmp_path) == 0
    first = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*.json")}
    assert run_cli(args, tmp_path) == 0
    second = {p: p.read_bytes() for p in (tmp_path / "out").rglob("*.json")}
    assert first == second and first


def test_simulate_negative_lambda_names_constraint(tmp_path, capsys):
    code = run_cli(["simulate", "--n", "10", "--lambda", "-1"], tmp_path)
    captured = capsys.readouterr()
    assert code == 1
    assert "lambda >= 0" in captured.err


def test_simulate_bad_spec_names_constraint(tmp_path, capsys):
    code = run_cli(["simulate", "--n", "10", "--lambda", "1",
                    "--rho", "uniform:0.5:0.2"], tmp_path)
    captured = capsys.readouterr()
    assert code == 1
    assert "a < b" in captured.err


def test_simulate_trajectory_csv(tmp_path):
    args = ["simulate", "--n", "30", "--lambda", "2", "--seed", "3",
            "--trajectory", "--outdir", "run1"]
    assert run_cli(args, tmp_path) == 0
    csv = (tmp_path / "run1" / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "time,event,vertex,s_count,i_count,r_count"
    assert len(csv) >= 2
    run = json.loads((tmp_path / "run1" / "run.json").read_text())
    assert run["config"]["n"] == 30
    assert run["result"]["engine"] == "dynamic"
    # events = infections + recoveries = 2 r - 1
    assert len(csv) - 1 == run["result"]["events_executed"]


def test_percolate_run_json_schema_matches_dynamics(tmp_path):
    assert run_cli(["percolate", "--n", "50", "--lambda", "2", "--seed", "4",
                    "--outdir", "p"], tmp_path) == 0
    assert run_cli(["simulate", "--n", "50", "--lambda", "2", "--seed", "4",
                    "--outdir", "d"], tmp_path) == 0
    perc = json.loads((tmp_path / "p" / "run.json").read_text())["result"]
    dyn = json.loads((tmp_path / "d" / "run.json").read_text())["result"]
    assert set(perc.keys()) == set(dyn.keys())
    assert perc["engine"] == "percolation"
    assert dyn["engine"] == "dynamic"


def test_sweep_from_config_file(tmp_path):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(
        "xi_spec = constant:1\nrho_spec = constant:1\n"
        "n_grid = 10, 20\nlambda_grid = 0.5, 2.0\nreplications = 50\n"
        "master_seed = 5\n")
    assert run_cli(["sweep", "--config", "phase.cfg", "--outdir", "sw",
                    "--jobs", "1"], tmp_path) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + one row per (n, lambda)
    payload = json.loads((tmp_path / "sw" / "sweep.json").read_text())
    assert payload["config"]["replications"] == 50


def test_sweep_flag_overrides_config(tmp_path):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(
        "xi_spec = constant:1\nrho_spec = constant:1\n"
        "n_grid = 10\nlambda_grid = 1.0\nreplications = 50\nmaster_seed = 5\n")
    assert run_cli(["sweep", "--config", "phase.cfg", "--reps", "20",
                    "--outdir", "sw2", "--jobs", "1"], tmp_path) == 0
    payload = json.loads((tmp_path / "sw2" / "sweep.json").read_text())
    assert payload["config"]["replications"] == 20


@pytest.mark.parametrize("text,flags,field", [
    ("replications = abc\n", [], "replications"),
    ("replications = 50\n", ["--n-grid", "10,abc"], "n_grid"),
    ("", ["--reps", "abc"], "replications"),
    ("replications = 50\n", ["--epsilon", "x"], "epsilon"),
    ("replications = 50\n", ["--engine", "magic"], "engine"),
    ("replications = 50\n", ["--n-grid", "10,10"], "n_grid"),
], ids=["file", "flag", "flag-reps", "flag-epsilon", "flag-engine", "flag-repeated-grid"])
def test_sweep_malformed_number_names_field(tmp_path, capsys, text, flags, field):
    # flags are converted and checked as config-file fields are
    (tmp_path / "phase.cfg").write_text(
        "xi_spec = constant:1\nrho_spec = constant:1\n"
        "n_grid = 10\nlambda_grid = 1.0\n" + text)
    assert run_cli(["sweep", "--config", "phase.cfg", "--jobs", "1"] + flags,
                   tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{field} must" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["10,,20", "10,20,", " 10 , 20 "])
def test_sweep_grid_flag_parses_like_config_field(tmp_path, grid):
    base = "xi_spec = constant:1\nrho_spec = constant:1\nreplications = 20\n"
    (tmp_path / "file.cfg").write_text(base + f"n_grid = {grid}\nlambda_grid = {grid}\n")
    (tmp_path / "flag.cfg").write_text(base)
    assert run_cli(["sweep", "--config", "file.cfg", "--outdir", "file",
                    "--jobs", "1"], tmp_path) == 0
    assert run_cli(["sweep", "--config", "flag.cfg", "--n-grid", grid,
                    "--lambda-grid", grid, "--outdir", "flag", "--jobs", "1"],
                   tmp_path) == 0
    file_doc, flag_doc = (json.loads((tmp_path / d / "sweep.json").read_text())
                          for d in ("file", "flag"))
    assert file_doc["config"] == flag_doc["config"]
    assert flag_doc["config"]["n_grid"] == [10, 20]


@pytest.mark.parametrize("text,flags", [
    ("rho_spec = uniform:0:1\n", ["--reps", "5"]),
    ("rho_spec = uniform:2:3\nreplications = 5\n", ["--rho", "uniform:0:1"]),
], ids=["missing-replications", "invalid-rho"])
def test_sweep_flag_completes_or_replaces_config_field(tmp_path, text, flags):
    # Flags replace the file's field text before any field is converted, so
    # a field the file lacks or gets wrong is no error when a flag gives it.
    (tmp_path / "phase.cfg").write_text(
        "xi_spec = constant:1\nn_grid = 10\nlambda_grid = 1.0\n" + text)
    assert run_cli(["sweep", "--config", "phase.cfg", "--outdir", "sw",
                    "--jobs", "1"] + flags, tmp_path) == 0
    config = json.loads((tmp_path / "sw" / "sweep.json").read_text())["config"]
    assert config["replications"] == 5
    assert config["rho_spec"] == "uniform:0:1"


def test_sweep_jobs_invariant_bytes(tmp_path):
    base = ["sweep", "--xi", "constant:1", "--rho", "uniform:0:1",
            "--n-grid", "15", "--lambda-grid", "1.0,2.5", "--reps", "128",
            "--seed", "9"]
    assert run_cli(base + ["--jobs", "1", "--outdir", "j1"], tmp_path) == 0
    assert run_cli(base + ["--jobs", "2", "--outdir", "j2"], tmp_path) == 0
    assert (tmp_path / "j1" / "sweep.csv").read_bytes() == \
           (tmp_path / "j2" / "sweep.csv").read_bytes()
    assert (tmp_path / "j1" / "sweep.json").read_bytes() == \
           (tmp_path / "j2" / "sweep.json").read_bytes()


def test_meanfield_outputs(tmp_path):
    assert run_cli(["meanfield", "--lambda", "2", "--i0", "0.001",
                    "--outdir", "mf"], tmp_path) == 0
    lines = (tmp_path / "mf" / "meanfield.csv").read_text().splitlines()
    assert lines[0] == "t,s,i,r"
    payload = json.loads((tmp_path / "mf" / "meanfield.json").read_text())
    assert abs(payload["terminal"]["r"] - payload["fixed_point"]["value"]) < 1e-3


@pytest.mark.parametrize("start", [["--i0", "0.1"], ["--s0", "0.9", "--i0", "0.1"]])
def test_meanfield_starts_at_r_zero_when_s_and_i_fill_the_population(tmp_path, start):
    # 1 - 0.9 - 0.1 is -2.8e-17 in doubles; r must start at 0, not fail
    assert run_cli(["meanfield", "--lambda", "2", *start, "--outdir", "mf"], tmp_path) == 0
    first = (tmp_path / "mf" / "meanfield.csv").read_text().splitlines()[1]
    assert first.startswith("0.0,") and first.endswith(",0.0")


def test_meanfield_rejects_fractions_above_one(tmp_path, capsys):
    assert run_cli(["meanfield", "--lambda", "2", "--s0", "0.9", "--i0", "0.2"],
                   tmp_path) == 1
    assert "sum to 1" in capsys.readouterr().err


def test_er_subcommand(tmp_path):
    assert run_cli(["er", "--n", "10000", "--mu", "2", "--seed", "3",
                    "--outdir", "er"], tmp_path) == 0
    payload = json.loads((tmp_path / "er" / "er.json").read_text())
    assert 0.7 < payload["largest_component_fraction"] < 0.9


def test_no_spread_subcommand(tmp_path):
    assert run_cli(["no-spread", "--n", "10", "--lambda", "1", "--reps", "2000",
                    "--jobs", "1", "--outdir", "ns"], tmp_path) == 0
    payload = json.loads((tmp_path / "ns" / "no_spread.json").read_text())
    assert abs(payload["finite_n_analytic"] - payload["estimate"]) < 0.05
    assert payload["limit_analytic"] == pytest.approx(0.5)


def test_rerun_from_embedded_config_reproduces(tmp_path):
    args = ["simulate", "--n", "40", "--lambda", "1.5", "--xi",
            "two_point:1:0.5:2", "--rho", "uniform:0:1", "--seed", "12",
            "--outdir", "a"]
    assert run_cli(args, tmp_path) == 0
    cfg = json.loads((tmp_path / "a" / "run.json").read_text())["config"]
    rebuilt = ["simulate", "--n", str(cfg["n"]), "--lambda", str(cfg["lambda"]),
               "--xi", cfg["xi_spec"], "--rho", cfg["rho_spec"],
               "--seed", str(cfg["seed"]), "--outdir", "b"]
    assert run_cli(rebuilt, tmp_path) == 0
    assert (tmp_path / "a" / "run.json").read_bytes() == \
           (tmp_path / "b" / "run.json").read_bytes()


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("args", [
    ["percolate", "--n", "5", "--lambda", "1", "--bogus", "1"],
    ["percolate", "--n", "5", "--lambda", "1", "--mode", "scan"],
    ["percolate", "--lambda", "1"],
], ids=["unrecognized", "removed-mode", "missing-required"])
def test_usage_error_exits_one(tmp_path, capsys, args):
    assert run_cli(args, tmp_path) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["simulate", "--n", "0", "--lambda", "1"],
    ["percolate", "--n", "0", "--lambda", "1"],
    ["meanfield", "--lambda", "2", "--step", "0"],
    ["simulate", "--n", "5", "--lambda", "-1"],
    ["percolate", "--n", "5", "--lambda", "nan"],
    ["meanfield", "--lambda", "inf"],
    ["meanfield", "--lambda", "2", "--step", "nan"],
    ["meanfield", "--lambda", "2", "--step", "inf"],
    ["meanfield", "--lambda", "2", "--horizon", "nan"],
    ["meanfield", "--lambda", "2", "--horizon", "inf"],
    ["meanfield", "--lambda", "2", "--horizon", "1e308", "--step", "1e-10"],
    ["meanfield", "--lambda", "2", "--i0", "nan"],
    ["meanfield", "--lambda", "2", "--i0", "2"],
    ["meanfield", "--lambda", "2", "--s0", "0.9", "--i0", "0.2"],
    ["er", "--n", "10", "--mu", "nan"],
    ["er", "--n", "10", "--mu", "-1"],
    ["er", "--n", "0", "--mu", "1"],
    ["no-spread", "--n", "10", "--lambda", "nan", "--reps", "10", "--jobs", "1"],
    ["no-spread", "--n", "10", "--lambda", "1", "--xi", "constant:0", "--jobs", "1"],
], ids=["simulate", "percolate", "meanfield", "simulate-lambda", "percolate-lambda",
        "meanfield-lambda", "meanfield-step-nan", "meanfield-step-inf",
        "meanfield-horizon-nan", "meanfield-horizon-inf", "meanfield-step-overflow",
        "meanfield-i0-nan", "meanfield-i0-above-one", "meanfield-sum-above-one",
        "er-mu-nan", "er-mu-negative",
        "er-n", "no-spread-lambda", "no-spread-xi"])
def test_validation_error_leaves_no_output_directory(tmp_path, capsys, args):
    assert run_cli(args, tmp_path) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["sweep", "--n-grid", "10", "--lambda-grid", "1", "--reps", "10", "--jobs", "-1"],
    ["no-spread", "--n", "10", "--lambda", "1", "--reps", "10", "--jobs", "-4"],
], ids=["sweep", "no-spread"])
def test_negative_jobs_names_constraint(tmp_path, capsys, args):
    assert run_cli(args, tmp_path) == 1
    assert "jobs >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_jobs_zero_counts_usable_cpus(monkeypatch):
    # a process limited to one CPU (cpuset, taskset) starts one worker
    from sirkn import cli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._jobs(argparse.Namespace(jobs=0)) == 1
    assert cli._jobs(argparse.Namespace(jobs=3)) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._jobs(argparse.Namespace(jobs=0)) == 64


def test_module_entrypoint_subprocess(tmp_path):
    env_src = str(Path(__file__).resolve().parents[1] / "src")
    import os
    env = dict(os.environ, PYTHONPATH=env_src)
    proc = subprocess.run([sys.executable, "-m", "sirkn.cli", "er", "--n", "100",
                           "--mu", "1.0", "--seed", "1"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out").exists()


def test_import_loads_no_scipy():
    # scipy is a test and script dependency only; importing it cost about
    # a second of every `sirkn` start-up
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import sys, sirkn, sirkn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
