"""Every script under scripts/ starts: `--help` exits 0.

The scripts import sirkn from `src/` at start-up, so a script that imports a
name the package no longer has fails here rather than when it is next run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
