import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--skip-acceptance",
        action="store_true",
        default=False,
        help="skip the long-running acceptance criteria",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--skip-acceptance"):
        marker = pytest.mark.skip(reason="--skip-acceptance given")
        for item in items:
            if "acceptance" in item.nodeid:
                item.add_marker(marker)


@pytest.fixture
def traced_peak():
    """traced_peak(func) -> (func(), the peak bytes tracemalloc counted
    while func ran, over what was allocated when it started)."""

    def run(func):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = func()
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return run
