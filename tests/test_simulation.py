"""End-to-end tests of the simulation loop at a small, fast scale."""

import dataclasses
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamarket.market
import gamarket.players
import gamarket.simulation
from gamarket import neural
from gamarket.config import SimulationConfig
from gamarket.data import generate_series, write_prices_csv
from gamarket.errors import ConfigError, ConservationError, InsufficientHistoryError
from gamarket.simulation import run_simulation

STOCKS = ("A", "B")
SUPPLY = (40, 60)


def _small_config(tmp_path, rows=16, days=6, **kwargs):
    path = tmp_path / "prices.csv"
    write_prices_csv(path, STOCKS, generate_series(rows, seed=11, start_prices=(50.0, 80.0)))
    base = dict(
        seed=5,
        input_path=str(path),
        players=2,
        agents_per_stock=2,
        stocks=STOCKS,
        total_supply=SUPPLY,
        window=8,
        evolution_cadence=3,
        days=days,
        epochs=4,
        initial_cash=1e5,
    )
    base.update(kwargs)
    return SimulationConfig(**base)


def test_run_shapes_and_conservation(tmp_path):
    config = _small_config(tmp_path)
    output = run_simulation(config)
    # One evolution event: day 3 (day 6 is the last day, so it skips).
    assert output.generations == 1
    # One (players,) array of net worths per traded day, in day order.
    recorded_days = [d for d, _ in output.metrics.networth_by_day]
    assert recorded_days == list(range(config.window, config.window + config.days))
    assert all(w.shape == (config.players,) for _, w in output.metrics.networth_by_day)
    assert len(output.metrics.hidden_rows) == 2 * config.players
    assert [g for g, _ in output.metrics.generation_error_rows] == [0, 1]
    gens_seen = {g for g, _, _ in output.metrics.complexity_rows}
    assert gens_seen == {0, 1}
    # Shares and cash only move between players.
    book = output.portfolios
    for m in range(len(STOCKS)):
        assert book.holdings[:, m].sum() == SUPPLY[m]
    total_cash = sum(book.cash.tolist())
    assert total_cash == pytest.approx(config.players * config.initial_cash, rel=1e-12)
    for trade in output.trades:
        assert config.window <= trade.day < config.window + config.days
        assert trade.quantity >= 1
    assert (book.cash >= 0).all()
    assert (book.holdings >= 0).all()


def _fingerprint(output):
    return (
        [(t.day, t.round, t.buyer, t.seller, t.stock, t.quantity, t.price) for t in output.trades],
        (output.portfolios.cash.tolist(), output.portfolios.holdings.tolist()),
        (
            output.population.stack.hidden.tolist(),
            output.population.stack.logistic.tolist(),
            [w.tobytes() for w in output.population.stack.weight_rows()],
        ),
        [(day, worths.tolist()) for day, worths in output.metrics.networth_by_day],
        output.metrics.hidden_rows,
        output.metrics.complexity_rows,
        output.metrics.generation_error_rows,
    )


def test_same_config_reruns_identically(tmp_path):
    config = _small_config(tmp_path)
    first = _fingerprint(run_simulation(config))
    second = _fingerprint(run_simulation(_small_config(tmp_path)))
    assert first == second


def test_different_seed_changes_the_run(tmp_path):
    a = _fingerprint(run_simulation(_small_config(tmp_path)))
    b = _fingerprint(run_simulation(_small_config(tmp_path, seed=6)))
    # Weights are drawn from the seed, so at minimum the agents differ.
    assert a[2] != b[2]


def test_run_rejects_short_input(tmp_path):
    config = _small_config(tmp_path, rows=12)
    with pytest.raises(InsufficientHistoryError):
        run_simulation(config)


def test_zero_days_trains_but_never_trades(tmp_path, monkeypatch):
    calls = []

    def counting(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    for name in ("build_window", "train", "evaluate_error"):
        monkeypatch.setattr(
            gamarket.simulation, name, counting(name, getattr(gamarket.simulation, name))
        )
    config = _small_config(tmp_path, days=0)
    output = run_simulation(config)
    # One window trains the initial population; no generation is scored.
    assert calls == ["build_window", "train"]
    assert output.trades == []
    assert output.generations == 0
    assert output.metrics.networth_by_day == []
    assert output.metrics.generation_error_rows == []
    # The initial population is still trained and recorded.
    assert len(output.metrics.hidden_rows) == config.players
    assert np.isfinite(output.population.stack.errors).all()


def test_evolution_cadence_counts_events(tmp_path):
    # Nine trading days with cadence 3: events after days 3 and 6; day 9 is
    # the final day and skips its event.
    config = _small_config(tmp_path, rows=20, days=9)
    output = run_simulation(config)
    assert output.generations == 2
    assert [g for g, _ in output.metrics.generation_error_rows] == [0, 1, 2]


def _mint_share(book, trade):
    book.holdings[trade.buyer, trade.stock] += 1


def _leak_cash(book, trade):
    book.cash[trade.buyer] -= 1.0


@pytest.mark.parametrize("corrupt, message", [(_mint_share, "shares of"), (_leak_cash, "cash")])
def test_run_stops_when_clearing_breaks_conservation(tmp_path, monkeypatch, corrupt, message):
    settle = gamarket.market.apply_trade

    def corrupted(book, trade):
        settle(book, trade)
        corrupt(book, trade)

    monkeypatch.setattr(gamarket.market, "apply_trade", corrupted)
    # Four players with 1-epoch training: a seed that trades (115 trades in 6 days).
    config = _small_config(
        tmp_path, seed=4, players=4, total_supply=(20_000, 2_000), initial_cash=4e6, epochs=1
    )
    with pytest.raises(ConservationError, match=message):
        run_simulation(config)


def test_a_run_stacks_the_population_once_per_generation(tmp_path, monkeypatch):
    # Building a Stack is the only step that sorts and stacks weights: a run
    # builds one at start-up and one per evolution (the children), while
    # each generation's one forward call for its trading days, its scoring
    # and every train call (which copies the sorted weights as they are)
    # run on the stack they get.  A crowd-shaped run: one-agent committees,
    # one-epoch retraining, frequent evolution.
    builds, where, calls, columns = [], [], [], []
    build = neural.Stack.__init__

    def counting_build(self, *args):
        builds.append(where[-1] if where else "start-up")
        build(self, *args)

    def inside(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            where.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()

        return call

    def counting_forward(stack, xs, **kwargs):
        columns.append(np.shape(xs)[1])
        return neural.forward(stack, xs, **kwargs)

    monkeypatch.setattr(neural.Stack, "__init__", counting_build)
    monkeypatch.setattr(gamarket.players, "forward", inside("forward", counting_forward))
    for name in ("build_window", "committee_predict", "decide", "run_clearing", "train",
                 "evaluate_error", "evolve_generation"):
        monkeypatch.setattr(
            gamarket.simulation, name, inside(name, getattr(gamarket.simulation, name))
        )
    config = _small_config(
        tmp_path, rows=40, days=30, players=6, agents_per_stock=1, evolution_cadence=5, epochs=1
    )
    output = run_simulation(config)
    assert output.generations == 5
    assert builds == ["start-up"] + ["evolve_generation"] * output.generations
    # Six 5-day generations, each predicted in one block of <= window days.
    assert calls.count("forward") == output.generations + 1
    assert calls.count("committee_predict") == calls.count("forward")
    # One decide call per generation for all its days; run_clearing only clears.
    assert calls.count("decide") == output.generations + 1
    assert calls.count("run_clearing") == config.days
    assert sum(columns) == config.days and max(columns) <= config.window
    # One window at start-up and one ending on each generation's last day.
    assert calls.count("build_window") == output.generations + 2
    assert calls.count("evaluate_error") == output.generations + 1
    assert calls.count("train") == output.generations + 1


def test_blocks_of_days_predict_like_one_call_per_day(tmp_path, monkeypatch):
    # A 20-day generation is longer than the 8-day window, so it is
    # predicted in blocks of at most 8 days; the run equals one that
    # predicts one day per call.  Four players with 1-epoch training trade.
    trading = dict(seed=4, players=4, total_supply=(20_000, 2_000), initial_cash=4e6, epochs=1)
    config = _small_config(tmp_path, rows=40, days=30, window=8, evolution_cadence=20, **trading)
    predict, blocks = gamarket.simulation.committee_predict, []

    def counting(population, normalized, params):
        blocks.append(len(normalized))
        return predict(population, normalized, params)

    def one_day_per_call(population, normalized, params):
        days = [predict(population, day[None], params)[0] for day in normalized]
        return np.array(days).reshape(len(normalized), config.players, len(STOCKS))

    monkeypatch.setattr(gamarket.simulation, "committee_predict", counting)
    output = run_simulation(config)
    assert output.generations == 1 and output.trades
    assert blocks == [8, 8, 4, 8, 2]
    monkeypatch.setattr(gamarket.simulation, "committee_predict", one_day_per_call)
    assert _fingerprint(run_simulation(config)) == _fingerprint(output)


def test_a_bad_prediction_stops_the_run_before_its_generation_trades(tmp_path, monkeypatch):
    # A generation's days are predicted before its first day trades, so a
    # NaN predicted for its last day stops the run with no day of it cleared.
    forward, run_clearing = gamarket.players.forward, gamarket.simulation.run_clearing
    cleared = []

    def nan_on_the_last_day(stack, xs, **kwargs):
        outs = forward(stack, xs, **kwargs)
        outs[:, -1] = np.nan
        return outs

    def clearing(*args, **kwargs):
        cleared.append(args[0])
        return run_clearing(*args, **kwargs)

    monkeypatch.setattr(gamarket.players, "forward", nan_on_the_last_day)
    monkeypatch.setattr(gamarket.simulation, "run_clearing", clearing)
    with pytest.raises(ConfigError, match="predictions must be finite and > 0"):
        run_simulation(_small_config(tmp_path))
    assert cleared == []


# Whole-run relations between two runs on one host, so they hold under any
# BLAS kernel or SIMD level.  The runs are crowd-like (many one-agent
# players, large supplies, volatile prices), so most runs trade.
RELATION_STOCKS = ("A", "B", "C")


def _relation_config(path, seed, players, days, cadence, cash=4e6):
    return SimulationConfig(
        seed=seed,
        input_path=str(path),
        players=players,
        agents_per_stock=1,
        stocks=RELATION_STOCKS,
        total_supply=(200_000, 20_000, 2_000),
        window=10,
        evolution_cadence=cadence,
        days=days,
        epochs=2,
        initial_cash=cash,
    )


def _write_exact_prices(path, prices):
    """A price file whose every cell parses back to exactly the float given."""
    lines = [f"{day}," + ",".join(repr(float(p)) for p in row) for day, row in enumerate(prices)]
    path.write_text("day," + ",".join(RELATION_STOCKS) + "\n" + "\n".join(lines) + "\n")


def _series(seed, rows):
    return generate_series(rows, seed=seed, start_prices=(50.0, 80.0, 20.0), volatility=0.03)


def _watching(run):
    """Run `run()`; return its output, every committee prediction and every decision."""
    predictions, decisions = [], []
    predict, decide = gamarket.simulation.committee_predict, gamarket.simulation.decide

    def watch(fn, seen):
        def call(*args):
            seen.append(fn(*args))
            return seen[-1]

        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gamarket.simulation, "committee_predict", watch(predict, predictions))
        patch.setattr(gamarket.simulation, "decide", watch(decide, decisions))
        output = run()
    return output, np.concatenate(predictions), [np.concatenate(d) for d in zip(*decisions)]


RUN_SHAPES = dict(
    seed=st.integers(0, 2**16),
    players=st.integers(2, 12),
    days=st.integers(1, 40),
    cadence=st.integers(1, 15),
)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-6, 10).filter(bool), **RUN_SHAPES)
def test_scaling_every_price_and_the_cash_by_a_power_of_two_scales_only_the_money(
    k, seed, players, days, cadence
):
    # Rounding to the nearest double commutes with a power-of-two scale, so
    # predictions scale exactly and decisions and order sizes stay the same.
    # The one absolute constant on the path is players.PRICE_FLOOR, which no
    # prediction may reach.  Prices stay inside [PRICE_MIN, PRICE_MAX].
    scale = 2.0**k
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for factor in (1.0, scale):
            path = pathlib.Path(tmp) / f"prices-{factor!r}.csv"
            _write_exact_prices(path, _series(seed, 10 + days) * factor)
            config = _relation_config(path, seed, players, days, cadence, cash=4e6 * factor)
            runs.append(_watching(lambda: run_simulation(config)))
    (base, base_predicted, base_decided), (scaled, scaled_predicted, scaled_decided) = runs
    assert base_predicted.min() > gamarket.players.PRICE_FLOOR
    assert np.array_equal(scaled_predicted, base_predicted * scale)
    for scaled_part, base_part in zip(scaled_decided, base_decided, strict=True):
        assert np.array_equal(scaled_part, base_part)  # sides, stocks and relative changes
    moves = [dataclasses.astuple(t)[:-1] for t in base.trades]
    assert [dataclasses.astuple(t)[:-1] for t in scaled.trades] == moves
    assert [t.price for t in scaled.trades] == [t.price * scale for t in base.trades]
    for (day, worths), (scaled_day, scaled_worths) in zip(
        base.metrics.networth_by_day, scaled.metrics.networth_by_day, strict=True
    ):
        assert scaled_day == day
        assert np.array_equal(scaled_worths, worths * scale)
    assert scaled.metrics.generation_error_rows == base.metrics.generation_error_rows
    assert np.array_equal(scaled.portfolios.holdings, base.portfolios.holdings)
    assert np.array_equal(scaled.portfolios.cash, base.portfolios.cash * scale)


@settings(max_examples=30, deadline=None)
@given(more=st.integers(1, 30), **RUN_SHAPES)
def test_a_run_trades_as_the_start_of_a_longer_run_and_without_later_prices(
    more, seed, players, days, cadence
):
    # A run of D days sees nothing past its last day: it equals the first D
    # days of a run of D + more days, and the same run on a price file cut
    # after its last day.  The one difference is the last generation's
    # score when D is not a multiple of the cadence: it is scored on the
    # window ending on its last day, the longer run on a later one.
    with tempfile.TemporaryDirectory() as tmp:
        prices = _series(seed, 10 + days + more)
        full, cut = pathlib.Path(tmp) / "full.csv", pathlib.Path(tmp) / "cut.csv"
        _write_exact_prices(full, prices)
        _write_exact_prices(cut, prices[: 10 + days])
        short = run_simulation(_relation_config(full, seed, players, days, cadence))
        alone = run_simulation(_relation_config(cut, seed, players, days, cadence))
        longer = run_simulation(_relation_config(full, seed, players, days + more, cadence))
    assert _fingerprint(alone) == _fingerprint(short)
    last = 10 + days
    assert [t for t in longer.trades if t.day < last] == short.trades
    assert all(
        day == other_day and np.array_equal(worths, other)
        for (day, worths), (other_day, other) in zip(
            short.metrics.networth_by_day, longer.metrics.networth_by_day[:days], strict=True
        )
    )
    rows = short.metrics.generation_error_rows
    same = len(rows) if days % cadence == 0 else len(rows) - 1
    assert longer.metrics.generation_error_rows[:same] == rows[:same]
    assert longer.metrics.hidden_rows[: len(short.metrics.hidden_rows)] == short.metrics.hidden_rows
