"""The experiment scripts run with only the library's source on the path:
each parses its arguments, and each runs end to end with two trials, so a
script that calls a deleted name, passes a field the library no longer
takes or imports from tests/ fails here rather than when someone next
runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("run_*.py"))
RUNS = ([pytest.param(s, ["--help"], id=s.stem) for s in SCRIPTS]
        + [pytest.param(s, ["--trials", "2"], id=f"{s.stem}-trials2") for s in SCRIPTS])


def test_scripts_found():
    assert len(SCRIPTS) == 4


@pytest.mark.parametrize("script,argv", RUNS)
def test_script_help_on_library_alone(script, argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    if argv == ["--help"]:
        assert out.stdout.startswith("usage:")
    else:
        written = list(tmp_path.glob("*.csv"))
        assert len(written) == 1 and f"wrote {written[0].name}" in out.stdout
