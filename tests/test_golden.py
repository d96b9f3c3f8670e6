"""The golden panel: every output scripts/write_golden.py records is
recomputed and compared, bit for bit, with tests/golden.json."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _writer():
    spec = importlib.util.spec_from_file_location(
        "write_golden", ROOT / "scripts" / "write_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_equal_the_golden_panel(tmp_path):
    with open(ROOT / "tests" / "golden.json", encoding="utf-8") as fh:
        want = json.load(fh)
    got = _writer().panel(tmp_path)
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"{len(moved)} of {len(want)} outputs moved: {moved[:20]}"
