"""Shared fixtures, and a session check that no test leaves a child process behind."""

import glob
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

import gamarket

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(gamarket.__file__)))
PERFBENCH = os.path.join(os.path.dirname(SRC_DIR), "perfbench")


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONHASHSEED="12345")


def _python(args, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_child_env(), capture_output=True, text=True, timeout=timeout
    )


def _child_pids(pid="self") -> list[int]:
    """The process ids of a process's children, alive or not yet reaped (Linux /proc)."""
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path) as handle:
            pids.extend(int(child) for child in handle.read().split())
    return pids


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if any child process of pytest is still there at its end."""
    left = _child_pids()
    if left:
        print(f"\nchild processes left running by the tests: {left}", file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


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
def cli_popen():
    """Start `python -m gamarket.cli ARGS` in a fresh interpreter and return its Popen.

    Its output is piped as text; a child still running at teardown is killed.
    """
    started = []

    def start(*args: str) -> subprocess.Popen:
        started.append(
            subprocess.Popen(
                [sys.executable, "-m", "gamarket.cli", *args],
                env=_child_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
        return started[-1]

    yield start
    for process in started:
        process.kill()
        process.communicate()


@pytest.fixture
def child_pids():
    """`child_pids(pid)`: the ids of a process's children, alive or not yet reaped."""
    return _child_pids


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


@pytest.fixture(scope="session")
def host_dependence():
    """What recorded output digests depend on besides the code, with this host's values."""
    return (
        "they were recorded with numpy 2.4.6, AVX-512 and the default OpenBLAS kernel "
        f"(this is numpy {np.__version__}, OPENBLAS_CORETYPE="
        f"{os.environ.get('OPENBLAS_CORETYPE', 'unset')}, NPY_DISABLE_CPU_FEATURES="
        f"{os.environ.get('NPY_DISABLE_CPU_FEATURES', 'unset')}); another numpy build, SIMD "
        "level (numpy's transcendentals) or OpenBLAS kernel (the matmuls) may change float results"
    )
