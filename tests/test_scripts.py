"""The demo scripts run end to end on tiny arguments, and the README quickstart as printed."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("convergence_study.py", ["--levels", "2", "--coarsest", "50"]),
    ],
)
def test_script_runs(script, args):
    proc = _run_python(str(ROOT / "scripts" / script), *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quickstart_passes_the_battery():
    """The ``## Python quickstart`` block, cut out as CI cuts it, prints a full pass of the battery."""
    text = (ROOT / "README.md").read_text()
    block = re.search(re.escape("## Python quickstart") + r"\n+```python\n(.*?)```", text, re.S).group(1)
    proc = _run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    assert "ALL CHECKS PASSED (18/18)" in proc.stdout.splitlines()


def _run_python(*args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
