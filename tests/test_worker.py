"""The training worker process, seen from the command line."""

import os
import signal
import time

import pytest

from gamarket.data import DEFAULT_STOCKS, generate_series, write_prices_csv

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a run starts a worker only with 2 or more CPUs",
)

# 48 agents * window 50 * 200 epochs reaches neural.SPLIT_MIN_WORK, and the
# run has `days / 10` generations.
CONFIG = """\
seed = 4
input_path = {data}
players = 4
agents_per_stock = 4
window = 50
evolution_cadence = 10
days = {days}
epochs = 200
output_dir = {out}
"""

# Runs the CLI, then prints how many of the run's `train` calls it handed
# to its worker.  With a CPU given, the process first pins itself to that
# CPU alone.  A
# line left in stdout's buffer (a pipe, so block-buffered) and an
# `atexit` print are set up before the worker is forked; the new stdout is
# buffered whatever PYTHONUNBUFFERED says.
COUNTING_RUN = """\
import atexit, os, sys
cpu = {cpu}
if cpu is not None:
    os.sched_setaffinity(0, {{cpu}})
sys.stdout = open(1, "w", closefd=False)
atexit.register(print, "printed at exit")
print("buffered before the run")
from gamarket import simulation, worker
from gamarket.cli import main
trained, handed = [], []
train, submit = simulation.train, worker.TrainingWorker.submit
simulation.train = lambda *args: trained.append(1) or train(*args)
worker.TrainingWorker.submit = lambda self, *job: handed.append(1) or submit(self, *job)
code = main(["run", "--config", {config!r}])
print(f"handed off {{len(handed)}} of {{len(trained)}} calls")
sys.exit(code)
"""


def _config(tmp_path, name, days):
    data = tmp_path / "prices.csv"
    if not data.exists():
        write_prices_csv(data, DEFAULT_STOCKS, generate_series(50 + 400, seed=3))
    path = tmp_path / f"{name}.cfg"
    path.write_text(CONFIG.format(data=data, days=days, out=tmp_path / name))
    return path


def _snapshot(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


def _counting_run(python_process, config, cpu=None) -> str:
    """Run COUNTING_RUN; its stdout."""
    result = python_process(COUNTING_RUN.format(cpu=cpu, config=str(config)), timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _worker_of(run, child_pids) -> int:
    """The process id of a CLI run's worker, once it has one."""
    deadline = time.monotonic() + 60
    while not child_pids(run.pid):
        assert run.poll() is None and time.monotonic() < deadline, "no worker started"
        time.sleep(0.01)
    [worker] = child_pids(run.pid)
    return worker


def _state(pid):
    """A process's state letter from /proc (R, S, Z, ...), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return None


def test_one_cpu_and_two_cpus_write_the_same_bytes(tmp_path, python_process):
    outputs, stdout = {}, {}
    for name, cpu in (("pinned", min(os.sched_getaffinity(0))), ("unpinned", None)):
        stdout[name] = _counting_run(python_process, _config(tmp_path, name, days=200), cpu)
        outputs[name] = _snapshot(tmp_path / name)
    # 20 calls: the set-up's and one per evolution after it
    assert "handed off 0 of 20 calls" in stdout["pinned"], stdout["pinned"]
    assert "handed off 20 of 20 calls" in stdout["unpinned"], stdout["unpinned"]
    outputs["pinned"].pop("config.resolved")
    outputs["unpinned"].pop("config.resolved")  # it names its own output_dir
    assert outputs["pinned"] == outputs["unpinned"]


def test_the_forked_worker_runs_no_exit_handler_and_flushes_no_inherited_buffer(
    tmp_path, python_process
):
    stdout = _counting_run(python_process, _config(tmp_path, "out", days=20))
    assert "handed off 2 of 2 calls" in stdout, stdout
    assert stdout.count("buffered before the run") == 1, stdout
    assert stdout.count("printed at exit") == 1, stdout


def test_a_killed_run_leaves_no_worker_running(tmp_path, cli_popen, child_pids):
    # The run is stopped first, so its worker finishes any job and waits
    # for the next one: then only the end of the job pipe can end it.
    run = cli_popen("run", "--config", str(_config(tmp_path, "out", days=400)))
    worker = _worker_of(run, child_pids)
    os.kill(run.pid, signal.SIGSTOP)
    deadline = time.monotonic() + 30
    while _state(worker) != "S":
        assert time.monotonic() < deadline, f"the worker never waited (state {_state(worker)})"
        time.sleep(0.01)
    os.kill(run.pid, signal.SIGKILL)
    run.wait(timeout=10)
    deadline = time.monotonic() + 1  # an orphan is reaped later, so a zombie counts as ended
    while _state(worker) not in ("Z", None) and time.monotonic() < deadline:
        time.sleep(0.01)
    if _state(worker) not in ("Z", None):
        os.kill(worker, signal.SIGKILL)  # it holds the run's output pipes open
        pytest.fail("the worker outlived its killed run")


def test_a_killed_worker_stops_the_run_with_a_named_error(tmp_path, cli_popen, child_pids):
    run = cli_popen("run", "--config", str(_config(tmp_path, "out", days=400)))
    worker = _worker_of(run, child_pids)
    time.sleep(0.5)  # into the run's split calls
    os.kill(worker, signal.SIGKILL)
    _, stderr = run.communicate(timeout=60)
    assert run.returncode == 1, stderr
    assert "TrainingWorkerError: training worker stopped (exit status -9)" in stderr
    assert "Traceback" not in stderr
    assert not os.path.exists(f"/proc/{worker}")
    assert not (tmp_path / "out").exists()
