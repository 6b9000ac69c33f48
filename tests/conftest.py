"""Shared fixtures."""

import importlib.util
import os
import subprocess
import sys

import pytest

import gamarket

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(gamarket.__file__)))
PERFBENCH = os.path.join(os.path.dirname(SRC_DIR), "perfbench")


def _python(args, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="12345")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture
def cli_process():
    """Run `python -m gamarket.cli ARGS` in a fresh interpreter.

    The child imports the same package as the tests and gets a fixed
    PYTHONHASHSEED, so its string hashing differs from this process's
    (randomized by default).  A child still running after `timeout`
    seconds is killed and the test fails with `TimeoutExpired`.
    """

    def run(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
        return _python(["-m", "gamarket.cli", *args], timeout)

    return run


@pytest.fixture
def python_process():
    """Run `python -c CODE` in a fresh interpreter, killed after `timeout` seconds."""

    def run(code: str, timeout: float) -> subprocess.CompletedProcess:
        return _python(["-c", code], timeout)

    return run


@pytest.fixture(scope="session")
def workloads():
    """perfbench's `workloads` module, loaded by file path (perfbench is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up here
    spec.loader.exec_module(module)
    return module
