"""End-to-end tests of the simulation loop at a small, fast scale."""

import numpy as np
import pytest

import gamarket.market
import gamarket.players
import gamarket.simulation
from gamarket import neural
from gamarket.config import SimulationConfig
from gamarket.data import generate_series, write_prices_csv
from gamarket.errors import ConservationError, InsufficientHistoryError
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
    assert len(output.metrics.networth_rows) == config.days * config.players
    recorded_days = [d for d, _, _ in output.metrics.networth_rows]
    assert recorded_days[0] == config.window
    assert recorded_days[-1] == config.window + config.days - 1
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
        output.metrics.networth_rows,
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


def test_zero_days_trains_but_never_trades(tmp_path):
    config = _small_config(tmp_path, days=0)
    output = run_simulation(config)
    assert output.trades == []
    assert output.generations == 0
    assert output.metrics.networth_rows == []
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
    # each day's forward, each generation's scoring and every train call
    # (which copies the sorted weights as they are) run on the stack they
    # get.  A crowd-shaped run: one-agent committees, one-epoch retraining,
    # frequent evolution.
    builds, where, calls = [], [], []
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

    monkeypatch.setattr(neural.Stack, "__init__", counting_build)
    monkeypatch.setattr(gamarket.players, "forward", inside("forward", neural.forward))
    for name in ("train", "evaluate_error", "evolve_generation"):
        monkeypatch.setattr(
            gamarket.simulation, name, inside(name, getattr(gamarket.simulation, name))
        )
    config = _small_config(
        tmp_path, rows=40, days=30, players=6, agents_per_stock=1, evolution_cadence=5, epochs=1
    )
    output = run_simulation(config)
    assert output.generations == 5
    assert builds == ["start-up"] + ["evolve_generation"] * output.generations
    assert calls.count("forward") == config.days
    assert calls.count("evaluate_error") == output.generations + 1
    assert calls.count("train") == output.generations + 1
