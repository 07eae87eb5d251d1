import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from worker import import_rblam  # noqa: E402


@pytest.fixture(scope="session")
def rb() -> types.SimpleNamespace:
    return import_rblam(ROOT)


@pytest.fixture
def bench(rb, tmp_path):
    from workloads import Bench

    return Bench(rb, str(tmp_path))
