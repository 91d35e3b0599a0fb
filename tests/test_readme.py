"""The package as a fresh interpreter sees it: the README's Python examples run
as written, and importing it loads no scipy."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(code, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_python_blocks_run(tmp_path):
    # The blocks build on each other, so they run in order in one interpreter.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python blocks"
    result = run_python("\n".join(blocks), tmp_path)
    assert result.returncode == 0, result.stderr


def test_import_loads_no_scipy(tmp_path):
    # scipy is a test dependency only; importing it would about triple the
    # package's import time.
    result = run_python("import sys, fpqr; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
