"""Shared fixtures."""

import os
import subprocess
import sys

import pytest

import gamarket

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(gamarket.__file__)))


@pytest.fixture
def cli_process():
    """Run `python -m gamarket.cli ARGS` in a fresh interpreter.

    The child imports the same package as the tests and gets a fixed
    PYTHONHASHSEED, so its string hashing differs from this process's
    (randomized by default).
    """

    def run(*args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="12345")
        return subprocess.run(
            [sys.executable, "-m", "gamarket.cli", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    return run
