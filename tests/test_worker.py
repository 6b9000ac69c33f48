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

# Counts the `train` calls a run hands to its worker, then runs the CLI.
# With a CPU given, the process first pins itself to that CPU alone.
COUNTING_RUN = """\
import os, sys
cpu = {cpu}
if cpu is not None:
    os.sched_setaffinity(0, {{cpu}})
from gamarket import worker
from gamarket.cli import main
handed = []
submit = worker.TrainingWorker.submit
def counted(self, *job):
    handed.append(len(job[0]))
    submit(self, *job)
worker.TrainingWorker.submit = counted
code = main(["run", "--config", {config!r}])
print(f"handed off {{len(handed)}} calls")
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


def test_one_cpu_and_two_cpus_write_the_same_bytes(tmp_path, python_process):
    outputs, handed = {}, {}
    for name, cpu in (("pinned", min(os.sched_getaffinity(0))), ("unpinned", None)):
        config = _config(tmp_path, name, days=200)
        result = python_process(COUNTING_RUN.format(cpu=cpu, config=str(config)), timeout=120)
        assert result.returncode == 0, result.stderr
        handed[name] = int(result.stdout.split("handed off ")[1].split()[0])
        outputs[name] = _snapshot(tmp_path / name)
    assert handed["pinned"] == 0
    assert handed["unpinned"] >= 1
    outputs["pinned"].pop("config.resolved")
    outputs["unpinned"].pop("config.resolved")  # it names its own output_dir
    assert outputs["pinned"] == outputs["unpinned"]


def test_a_killed_worker_stops_the_run_with_a_named_error(tmp_path, cli_popen, child_pids):
    run = cli_popen("run", "--config", str(_config(tmp_path, "out", days=400)))
    deadline = time.monotonic() + 60
    while not child_pids(run.pid):
        assert run.poll() is None and time.monotonic() < deadline, "no worker started"
        time.sleep(0.01)
    [worker] = child_pids(run.pid)
    time.sleep(0.5)  # into the run's split calls
    os.kill(worker, signal.SIGKILL)
    _, stderr = run.communicate(timeout=60)
    assert run.returncode == 1, stderr
    assert "TrainingWorkerError: training worker stopped (exit status -9)" in stderr
    assert "Traceback" not in stderr
    assert not os.path.exists(f"/proc/{worker}")
    assert not (tmp_path / "out").exists()
