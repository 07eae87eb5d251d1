import os
import pathlib
import subprocess
import sys

import pytest

import rblam
from rblam.lattice import NAT, TRIPLE
from rblam.typecheck import DeltaProfile

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def nat():
    return NAT


@pytest.fixture
def triple():
    return TRIPLE


@pytest.fixture
def nat_deltas():
    return DeltaProfile.default(NAT)


@pytest.fixture
def data_dir():
    return DATA


@pytest.fixture
def fresh_python():
    """Run code in a fresh interpreter that imports rblam from the tree under
    test, with `stdin` as its input; returns the finished process."""
    src = str(pathlib.Path(rblam.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(code: str, stdin: str = ""):
        return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)

    return run
