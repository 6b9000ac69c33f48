"""Tests for the benchmark's own output checks and span wrapping.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import types

import pytest

import checks
import run
import spans
from workloads import OUT_DIR, PRICES_CSV, RUN_CFG, STOCKS, Workload, config_text, price_paths, write_prices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = Workload(
    name="tiny",
    players=8,
    agents_per_stock=1,
    window=10,
    days=30,
    evolution_cadence=5,
    epochs=1,
    learning_rate=0.05,
    initial_cash=4e4,
    total_supply=(1001, 500, 250),
    rows=45,
    start_prices=(95.0, 52.0, 31.0),
    run_seed=5,
    data_seed=7,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Outputs of one real `gamarket run` of the tiny workload, and its prices."""
    work = tmp_path_factory.mktemp("tiny")
    prices = write_prices(work / PRICES_CSV, price_paths(TINY))
    (work / RUN_CFG).write_text(config_text(TINY, 0, TINY.days))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "gamarket.cli", "run", "--config", RUN_CFG],
        cwd=work,
        env=env,
        check=True,
        capture_output=True,
    )
    return work / OUT_DIR, prices


def replay(out_dir, prices):
    return checks.replay_trades(
        out_dir,
        prices,
        stocks=STOCKS,
        supply=TINY.total_supply,
        players=TINY.players,
        initial_cash=TINY.initial_cash,
        first_day=TINY.window,
        days=TINY.days,
    )


def tampered_copy(tiny_run, tmp_path, extra_trade: str):
    out_dir, prices = tiny_run
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    with open(copy / "trades.csv", "a") as handle:
        handle.write(extra_trade + "\n")
    return copy, prices


def last_day_trade(prices, buyer: int, seller: int, quantity: int) -> str:
    day = TINY.window + TINY.days - 1
    return f"{day},1,{buyer},{seller},{STOCKS[0]},{quantity},{float(prices[day, 0])!r}"


def test_real_run_passes_every_check(tiny_run):
    out_dir, prices = tiny_run
    with open(out_dir / "trades.csv") as handle:
        assert len(handle.readlines()) > 10  # the replay has trades to check
    assert checks.check_manifest(out_dir) == []
    assert replay(out_dir, prices) == []


def test_oversell_is_flagged(tiny_run, tmp_path):
    _, prices = tiny_run
    copy, _ = tampered_copy(tiny_run, tmp_path, last_day_trade(prices, 0, 1, TINY.total_supply[0]))
    assert any("negative holdings" in p for p in replay(copy, prices))


def test_trade_that_breaks_a_share_total_is_flagged(tiny_run, tmp_path):
    _, prices = tiny_run
    copy, _ = tampered_copy(tiny_run, tmp_path, last_day_trade(prices, TINY.players, 0, 1))
    assert any("!= supply" in p for p in replay(copy, prices))


def test_trade_off_the_announced_price_is_flagged(tiny_run, tmp_path):
    _, prices = tiny_run
    row = last_day_trade(prices, 0, 1, 1).rsplit(",", 1)[0] + ",1.5"
    copy, _ = tampered_copy(tiny_run, tmp_path, row)
    assert any("is not day" in p for p in replay(copy, prices))


def test_wrong_manifest_count_is_flagged(tiny_run, tmp_path):
    copy, _ = tampered_copy(tiny_run, tmp_path, last_day_trade(tiny_run[1], 0, 1, 1))
    assert any("trades.csv" in p for p in checks.check_manifest(copy))


def test_differing_output_digests_are_flagged(tiny_run, tmp_path):
    out_dir, prices = tiny_run
    copy, _ = tampered_copy(tiny_run, tmp_path, last_day_trade(prices, 0, 1, 1))
    digests = [checks.output_digest(out_dir), checks.output_digest(out_dir), checks.output_digest(copy)]
    assert checks.digest_outliers(digests) == [2]
    assert checks.digest_outliers(digests[:2]) == []


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    recorder = spans.Recorder()
    targets = [
        ("fake_layer", "present", "neural.forward"),
        ("fake_layer", "gone", "neural.train"),
        ("no_such_module_anywhere", "f", "market.run_clearing"),
    ]
    absent = spans.install(recorder, targets)
    assert absent == ["neural.train", "market.run_clearing"]
    assert module.present(1) == 2

    metrics = spans.layer_metrics(recorder.to_json(), absent)
    assert metrics["neural.forward_calls"] == (1.0, "count")
    assert "neural.train_s" not in metrics
    assert "market.rounds" not in metrics


def test_self_times_partition_the_root_span():
    recorder = spans.Recorder()
    inner = recorder.wrap("neural.forward", lambda: sum(range(1000)))
    outer = recorder.wrap(spans.ROOT, lambda: [inner() for _ in range(3)])
    outer()
    self_s, calls, root_s = spans.self_times(recorder.to_json())
    assert calls == {spans.ROOT: 1, "neural.forward": 3}
    assert sum(self_s.values()) == pytest.approx(root_s, rel=1e-12)


def test_metrics_at_or_below_zero_are_not_reported():
    metrics = {
        "market.rounds": (500.0, "count", 3),
        "neural.train_calls": (0.0, "count", 3),
        "neural.train_s": (-1e-6, "s", 3),
        "market.trades": (36.0, "count", 3),
    }
    assert run.reportable(metrics) == {"market.rounds": (500.0, "count", 3)}
