"""Every script under scripts/ starts: `--help` exits 0; the phase-sweep
script also runs end to end at a few replications.

The scripts import sirkn from `src/` at start-up, so a script that imports a
name the package no longer has fails here rather than when it is next run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_phase_sweep_script_writes_both_sweeps(tmp_path):
    # The script writes under out/ in its working directory.
    script = SCRIPT_DIR / "run_phase_sweep.py"
    proc = subprocess.run([sys.executable, str(script), "--reps", "20", "--jobs", "1"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("classic", "random-env"):
        assert list((tmp_path / "out").glob(f"{name}-*/sweep.csv")), name
    assert "witness:" in proc.stdout
