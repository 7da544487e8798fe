"""Every walkthrough in demos/, and every Python example in README.md, runs against the package in src/."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr



README = ROOT / "README.md"
_README_TEXT = README.read_text(encoding="utf-8")
# each python-fenced block of README.md: (line number of its first line, its code)
README_BLOCKS = [
    (_README_TEXT.count("\n", 0, m.start(1)) + 1, m[1])
    for m in re.finditer(r"^```python\n(.*?)^```", _README_TEXT, re.M | re.S)
]
# a statement whose last line ends in "# PanelError: <message>" must raise that error with that message
EXPECTED_ERROR = re.compile(r"#\s*(\w+Error): (.+)$")


def test_readme_examples_found():
    assert README_BLOCKS


@pytest.mark.parametrize("first_line, block", README_BLOCKS, ids=[f"line{n}" for n, _ in README_BLOCKS])
def test_readme_example_runs(first_line, block):
    """Run a README block statement by statement in one namespace, checking each commented error."""
    namespace = {}
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        expected = EXPECTED_ERROR.search(lines[stmt.end_lineno - 1])
        module = ast.increment_lineno(ast.Module([stmt], type_ignores=[]), first_line - 1)
        code = compile(module, str(README), "exec")  # tracebacks name the README's own lines
        if expected is None:
            exec(code, namespace)
            continue
        with pytest.raises(Exception) as info:
            exec(code, namespace)
        assert (type(info.value).__name__, str(info.value)) == (expected[1], expected[2])
