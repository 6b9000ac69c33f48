"""Tests for committee prediction and the trading rules that act on it."""

import math

import numpy as np
import pytest

from gamarket.data import NormalizationParams, denormalize
from gamarket.errors import ConfigError
from gamarket.neural import ActivationKind, AgentSpec, forward, init_random, new_agent
from gamarket.market import decide, desired_quantity
from gamarket.players import PRICE_FLOOR, Player, committee_predict
from test_neural import reference_predict


def test_committee_predict_is_mean_then_denormalized():
    rng = np.random.default_rng(11)
    agents = [init_random(rng) for _ in range(8)]
    xs = [0.35, 0.62]
    params = [NormalizationParams(10.0, 20.0), NormalizationParams(5.0, 9.0)]
    [got] = committee_predict([Player(agents)], xs, params)
    for m in range(2):
        outs = [float(forward([agent], [[xs[m]]])[0, 0]) for agent in agents[m * 4 : (m + 1) * 4]]
        mean = sum(outs) / len(outs)
        p = params[m]
        expected = p.lo + (mean - 0.1) * (p.hi - p.lo) / 0.8
        assert got[m] == pytest.approx(expected, rel=1e-12)


def test_committee_predict_floors_negative_prices():
    # A linear agent rigged to output a large negative value would denormalize
    # below zero; the prediction is floored instead.
    spec = AgentSpec(hidden_units=1, activation=ActivationKind.LINEAR)
    agent = new_agent(spec, np.random.default_rng(0))
    agent.weights[:] = [0.0, 0.0, 0.0, -50.0]
    [got] = committee_predict([Player([agent])], [0.5], [NormalizationParams(10.0, 20.0)])
    assert got[0] == PRICE_FLOOR


def test_committee_predict_shape_checks():
    rng = np.random.default_rng(1)
    player = Player([init_random(rng)])
    with pytest.raises(ConfigError):
        committee_predict([player], [0.5, 0.6], [NormalizationParams(1.0, 2.0)] * 2)
    empty = Player([])
    with pytest.raises(ConfigError):
        committee_predict([empty], [0.5], [NormalizationParams(1.0, 2.0)])
    # 4 and 8 agents on 3 stocks are 12 in all, which would reshape to
    # (2, 3, 2) and pair agents with the wrong stocks.
    short = Player([init_random(rng) for _ in range(4)])
    long = Player([init_random(rng) for _ in range(8)])
    with pytest.raises(ConfigError, match=r"player 0 has 4 agents"):
        committee_predict([short, long], [0.5, 0.6, 0.7], [NormalizationParams(1.0, 2.0)] * 3)
    pair = Player([init_random(rng), init_random(rng)])
    with pytest.raises(ConfigError, match=r"player 1 has 2 agents"):
        committee_predict([player, pair], [0.5], [NormalizationParams(1.0, 2.0)])


def reference_committee_predict(players, xs, params):
    """The per-player loop that the population prediction replaced."""
    predictions = np.empty((len(players), len(xs)))
    for p, player in enumerate(players):
        k = len(player.agents) // len(xs)
        for m in range(len(xs)):
            group = player.agents[m * k : (m + 1) * k]
            outs = [reference_predict(a.spec, a.weights, np.array([xs[m]]))[0][0] for a in group]
            mean = sum(float(out) for out in outs) / len(group)
            predictions[p, m] = max(float(denormalize(mean, params[m])), PRICE_FLOOR)
    return predictions


@pytest.mark.parametrize("k", [1, 2, 8, 9, 16])
def test_committee_predict_equals_the_per_player_loop_bit_for_bit(k):
    # Committee means add members in committee order; numpy's sum or mean
    # along an axis adds in another order from k = 8 up, so these pin it.
    rng = np.random.default_rng(40 + k)
    players = [Player([init_random(rng) for _ in range(3 * k)]) for _ in range(5)]
    # Player 0's first committee is rigged far negative: that cell is floored.
    for agent in players[0].agents[:k]:
        agent.spec = AgentSpec(agent.spec.hidden_units, ActivationKind.LINEAR)
        agent.weights[-1] = -50.0
    xs = [0.35, 1.7, 0.5]
    # The third stock's window was constant (hi == lo).
    params = [NormalizationParams(10.0, 20.0), NormalizationParams(5.0, 9.0)]
    params.append(NormalizationParams(3.0, 3.0))
    got = committee_predict(players, xs, params)
    expected = reference_committee_predict(players, xs, params)
    assert got[0, 0] == PRICE_FLOOR
    assert np.all(got[:, 2] == 3.0)
    assert np.array_equal(got, expected), f"k = {k} under numpy {np.__version__}"


def test_decide_expects_the_relative_price_change():
    prices = np.array([100.0, 100.0])
    _, _, delta = decide(np.array([[110.0, 100.0], [100.0, 90.0]]), prices, [1, 1])
    assert delta[0] == pytest.approx(0.1)
    assert delta[1] == pytest.approx(-0.1)


def test_decide_scales_changes_by_supply():
    # +5% on a supply of 1000 (factor 50) beats -2% on 500 (factor -10).
    prices = np.array([100.0, 100.0])
    sells, stock, _ = decide(np.array([[105.0, 98.0]]), prices, [1000, 500])
    assert sells.tolist() == [False] and stock.tolist() == [0]
    # Swapping the supplies to 10 and 5000 makes the fall the stronger signal.
    sells, stock, _ = decide(np.array([[105.0, 98.0]]), prices, [10, 5000])
    assert sells.tolist() == [True] and stock.tolist() == [1]


def _side(factors):
    """decide on one player whose decision factors are `factors` (price 1, supply 1)."""
    sells, stock, _ = decide(np.array([factors]) + 1.0, np.ones(len(factors)), [1] * len(factors))
    return ("sell" if sells[0] else "buy"), int(stock[0])


def test_decide_side_cases():
    # Strongest signal is the large positive factor: buy it.
    assert _side([10.0, -3.0, 2.0]) == ("buy", 0)
    # Strongest signal is the large negative factor: sell it.
    assert _side([3.0, -10.0, 2.0]) == ("sell", 1)
    # Exact magnitude tie resolves to a buy.
    assert _side([5.0, -5.0]) == ("buy", 0)
    # Ties inside argmax/argmin take the lowest index.
    assert _side([7.0, 7.0, -1.0]) == ("buy", 0)
    assert _side([-7.0, 1.0, -7.0]) == ("sell", 0)
    # All zero: a degenerate buy of stock 0 (quantity sizing will zero it out).
    assert _side([0.0, 0.0]) == ("buy", 0)


def test_decide_rows_are_independent_players():
    factors = [[10.0, -3.0, 2.0], [3.0, -10.0, 2.0], [5.0, -5.0, 0.0], [-7.0, 1.0, -7.0]]
    sells, stock, delta = decide(np.array(factors) + 1.0, np.ones(3), [1, 1, 1])
    assert sells.tolist() == [False, True, False, True]
    assert stock.tolist() == [0, 1, 0, 0]
    assert delta.tolist() == [10.0, -10.0, 5.0, -7.0]


def test_desired_quantity_buy_caps():
    # want = floor(0.3 * 100) = 30, affordable = floor(250/10) = 25.
    quantity = desired_quantity(False, 0.3, 10.0, market_volume=100, cash=250.0, holding=0)
    assert quantity == desired_quantity(False, -0.3, 10.0, 100, cash=250.0, holding=0)
    assert quantity == 25
    # Market volume binds when it is the smallest cap.
    assert desired_quantity(False, 0.9, 10.0, market_volume=7, cash=250.0, holding=0) == 6
    # No cash means no buy.
    assert desired_quantity(False, 0.5, 10.0, 100, cash=0.0, holding=0) == 0


def test_desired_quantity_affordability_never_overspends():
    # Prices where cash/price rounds up across an integer boundary in floats.
    rng = np.random.default_rng(23)
    for _ in range(200):
        cash = float(rng.uniform(0.0, 1e4))
        price = float(rng.uniform(0.01, 50.0))
        quantity = desired_quantity(False, 1.0, price, market_volume=10**9, cash=cash, holding=0)
        assert quantity * price <= cash
        # Maximal: one more share would not be affordable.
        assert (quantity + 1) * price > cash


def test_desired_quantity_sell_cap_is_two_fifths_floor():
    # cap = 2*13 // 5 = 5; want = floor(0.9 * 100) = 90.
    assert desired_quantity(True, -0.9, 10.0, market_volume=100, cash=1000.0, holding=13) == 5
    # want binds when smaller than the cap.
    assert desired_quantity(True, -0.02, 10.0, market_volume=100, cash=1000.0, holding=13) == 2
    # No holdings means no sell.
    assert desired_quantity(True, -0.9, 10.0, 100, cash=1000.0, holding=0) == 0
    # Exact integer arithmetic on the cap, no float drift.
    for holding in range(0, 50):
        q = desired_quantity(True, -1.0, 10.0, 10**9, cash=1000.0, holding=holding)
        assert q == (2 * holding) // 5


def test_desired_quantity_validation():
    with pytest.raises(ValueError):
        desired_quantity(False, 0.1, announced_price=0.0, market_volume=10, cash=1000.0, holding=0)
    with pytest.raises(ValueError):
        desired_quantity(False, 0.1, announced_price=1.0, market_volume=-1, cash=1000.0, holding=0)


def test_player_agent_iteration():
    rng = np.random.default_rng(2)
    agents = [init_random(rng) for _ in range(6)]
    player = Player(agents)
    assert list(player.iter_agents()) == agents
