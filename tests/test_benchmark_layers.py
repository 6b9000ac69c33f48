"""The benchmark's traced run still finds every function it wraps by name.

perfbench wraps gamarket functions by their module attribute names (see
`perfbench/spans.py`).  A renamed or no longer called function silently
drops a per-layer metric, so this runs one traced A7-sized run and checks
that every per-layer metric `BENCHMARK.json` declares is present and > 0,
and that the kept-agent counters and the per-layer call counts read their
recorded values: a change to the simulation loop that alters what the
benchmark counts fails here, not only in a benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys

import gamarket
from gamarket.data import DEFAULT_STOCKS, generate_series, write_prices_csv

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(gamarket.__file__)))
REPO = os.path.dirname(SRC_DIR)
PERFBENCH = os.path.join(REPO, "perfbench")
# Measured by perfbench/run.py from the files in out/, not from spans.
OUTSIDE_SPANS = {"reports.bytes_written"}
# Recorded on the test's config: 40 days in four 10-day generations, one
# build_window per generation plus the start-up one, three evolutions.
RECORDED_CALLS = {
    "data.build_window_calls": 5,
    "neural.train_calls": 4,
    "neural.evaluate_error_calls": 4,
    "neural.forward_calls": 4,
    "players.committee_predict_calls": 4,
    "evolution.evolve_generation_calls": 3,
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", os.path.join(PERFBENCH, "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_declared_per_layer_metric(tmp_path):
    prices = generate_series(351, 7, start_prices=(95.0, 52.0, 31.0), volatility=0.012)
    write_prices_csv(tmp_path / "prices.csv", DEFAULT_STOCKS, prices)
    (tmp_path / "run.cfg").write_text(
        "seed = 3\ninput_path = prices.csv\nplayers = 4\nagents_per_stock = 2\n"
        "total_supply = 200000, 20000, 2000\nwindow = 50\nevolution_cadence = 10\n"
        "days = 40\ninitial_cash = 4e6\noutput_dir = out\n"
    )
    # A fresh interpreter: spans.install rebinds gamarket module attributes.
    run = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "inproc.py"), "result.json", "--trace", "--",
         "run", "--config", "run.cfg"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["absent"] == []
    assert result["broken"] == []
    # Recorded on this config; evolve_generation's result feeds these counters.
    assert result["counters"]["evolution.kept_agents"] == 57
    assert result["counters"]["evolution.agents"] == 72
    metrics = _load_spans().layer_metrics(result, result["absent"])
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        declared = [m["name"] for m in json.load(handle)["per_layer"]]
    missing = [name for name in declared if name not in OUTSIDE_SPANS and name not in metrics]
    assert missing == []
    not_positive = {
        name: metrics[name][0]
        for name in declared
        if name not in OUTSIDE_SPANS and not metrics[name][0] > 0
    }
    assert not_positive == {}
    assert {name: metrics[name][0] for name in RECORDED_CALLS} == RECORDED_CALLS
