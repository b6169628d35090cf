"""Every ```python block of README.md runs.

The blocks show the package's API, so an example that calls a name the
package no longer has, or calls it the old way, fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (line of the block's first line of code, the code)
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line,code", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_python_block_runs(line, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})
