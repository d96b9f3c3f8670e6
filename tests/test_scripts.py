"""The experiment scripts import and parse their arguments with only the
library's source on the path, so a script that calls a deleted name or
imports from tests/ fails here rather than when someone next runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("run_*.py"))


def test_scripts_found():
    assert len(SCRIPTS) == 4


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_help_on_library_alone(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(script), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage:")
