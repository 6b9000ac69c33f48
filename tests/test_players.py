"""Tests for committee prediction and the trading rules that act on it."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamarket.config import SimulationConfig
from gamarket.data import NORM_HI, NORM_LO, NormalizationParams
from gamarket.errors import ConfigError
from gamarket.evolution import GAParams, evolve_generation
from gamarket.neural import (
    Hyperparams,
    TrainingWindow,
    draw_population,
    forward,
    stack_agents,
    train,
)
from gamarket.market import decide, desired_quantity
from gamarket.players import PRICE_FLOOR, Population, committee_predict
from gamarket.rng import make_streams
from test_neural import agents, make_agent, reference_predict


def random_agents(size, rng):
    return draw_population(size, rng, 0.5)


def test_committee_predict_is_mean_then_denormalized():
    rng = np.random.default_rng(11)
    stack = random_agents(8, rng)
    xs = np.array([0.35, 0.62])
    params = NormalizationParams(lo=np.array([10.0, 5.0]), hi=np.array([20.0, 9.0]))
    [[got]] = committee_predict(Population(stack, players=1, stocks=2), xs[None], params)
    lone = [make_agent(h, logistic, w) for h, logistic, w, _ in agents(stack)]
    for m in range(2):
        outs = [float(forward(agent, [[xs[m]]])[0, 0]) for agent in lone[m * 4 : (m + 1) * 4]]
        mean = sum(outs) / len(outs)
        lo, hi = params.lo[m], params.hi[m]
        expected = lo + (mean - 0.1) * (hi - lo) / 0.8
        assert got[m] == pytest.approx(expected, rel=1e-12)


def test_committee_predict_floors_negative_prices():
    # A linear agent rigged to output a large negative value would denormalize
    # below zero; the prediction is floored instead.
    agent = make_agent(1, False, [0.0, 0.0, 0.0, -50.0])
    params = NormalizationParams(lo=np.array([10.0]), hi=np.array([20.0]))
    population = Population(agent, players=1, stocks=1)
    [[got]] = committee_predict(population, np.array([[0.5]]), params)
    assert got[0] == PRICE_FLOOR


@pytest.mark.parametrize("bias", [math.inf, math.nan])
def test_committee_predict_rejects_a_non_finite_prediction(bias):
    # The floor passes inf and NaN unchanged; the prediction is refused
    # where it is made, before any day of its block is decided or traded.
    agent = make_agent(1, False, [0.0, 0.0, 0.0, bias])
    params = NormalizationParams(lo=np.array([10.0]), hi=np.array([20.0]))
    population = Population(agent, players=1, stocks=1)
    with pytest.raises(ConfigError, match=r"predictions must be finite and > 0"):
        committee_predict(population, np.array([[0.5], [0.7]]), params)


def one_to_two(stocks):
    """Normalization of `stocks` prices whose windows spanned 1 to 2."""
    return NormalizationParams(lo=np.ones(stocks), hi=np.full(stocks, 2.0))


def test_committee_predict_shape_checks():
    # The layout committee_predict reshapes by is checked once, when the
    # Population is built: every player needs the same k >= 1 agents per stock.
    rng = np.random.default_rng(1)
    with pytest.raises(ConfigError):
        Population(random_agents(1, rng), players=1, stocks=2)
    with pytest.raises(ConfigError):
        Population(random_agents(0, rng), players=1, stocks=1)
    with pytest.raises(ConfigError, match=r"3 agents cannot be 2 players"):
        Population(random_agents(3, rng), players=2, stocks=1)
    with pytest.raises(ConfigError, match=r"each of the 3 prices"):
        Population(random_agents(8, rng), players=2, stocks=3)
    population = Population(random_agents(12, rng), players=2, stocks=3)
    # A (days, stocks) block gives one (players, stocks) row per day, each
    # with the bits of that day's own call.
    days = rng.uniform(-0.8, 2.7, size=(4, 3))
    block = committee_predict(population, days, one_to_two(3))
    assert block.shape == (4, 2, 3)
    for row, day in zip(block, days):
        assert np.array_equal(row, committee_predict(population, day[None], one_to_two(3))[0])
    # One day is a (1, stocks) block: a bare (stocks,) row is refused, and
    # a last axis other than stocks is refused, not regrouped into days.
    for shape in ((3,), (6,), (3, 2), (2, 6), (1, 2, 3)):
        with pytest.raises(ConfigError, match=r"needs \(days, 3\) normalized prices"):
            committee_predict(population, np.full(shape, 0.5), one_to_two(3))


def test_population_maps_each_agent_to_its_stock():
    rng = np.random.default_rng(3)
    population = Population(random_agents(12, rng), players=2, stocks=3)
    assert population.k == 2
    assert population.rows.tolist() == [0, 0, 1, 1, 2, 2] * 2
    window = TrainingWindow(np.arange(6.0).reshape(3, 2), np.arange(6.0, 12.0).reshape(3, 2))
    rows = population.windows(window)
    assert rows.inputs.tolist() == [window.inputs[m].tolist() for m in population.rows]
    assert rows.targets.tolist() == [window.targets[m].tolist() for m in population.rows]


def reference_committee_predict(players, xs, params):
    """The per-player loop that the population prediction replaced.

    `players` holds one list per player of its agents' (hidden, logistic, weights).
    """
    predictions = np.empty((len(players), len(xs)))
    for p, player in enumerate(players):
        k = len(player) // len(xs)
        for m in range(len(xs)):
            group = player[m * k : (m + 1) * k]
            outs = [reference_predict(*agent, np.array([xs[m]]))[0][0] for agent in group]
            mean = sum(float(out) for out in outs) / len(group)
            lo, hi = float(params.lo[m]), float(params.hi[m])
            price = lo if hi == lo else lo + (mean - NORM_LO) * (hi - lo) / (NORM_HI - NORM_LO)
            predictions[p, m] = max(price, PRICE_FLOOR)
    return predictions


@pytest.mark.parametrize("k", [1, 2, 8, 9, 16])
def test_committee_predict_equals_the_per_player_loop_bit_for_bit(k):
    # Committee means add members in committee order; numpy's sum or mean
    # along an axis adds in another order from k = 8 up, so these pin it.
    rng = np.random.default_rng(40 + k)
    players = [[a[:3] for a in agents(random_agents(3 * k, rng))] for _ in range(5)]
    # Player 0's first committee is rigged far negative: that cell is floored.
    for j, (hidden, _, weights) in enumerate(players[0][:k]):
        weights[-1] = -50.0
        players[0][j] = (hidden, False, weights)
    xs = np.array([0.35, 1.7, 0.5])
    # The third stock's window was constant (hi == lo).
    params = NormalizationParams(lo=np.array([10.0, 5.0, 3.0]), hi=np.array([20.0, 9.0, 3.0]))
    flat = [agent for player in players for agent in player]
    stack = stack_agents(*zip(*flat), [np.nan] * len(flat))
    population = Population(stack, players=5, stocks=3)
    [got] = committee_predict(population, xs[None], params)
    expected = reference_committee_predict(players, xs, params)
    assert got[0, 0] == PRICE_FLOOR
    assert np.all(got[:, 2] == 3.0)
    assert np.array_equal(got, expected), f"k = {k} under numpy {np.__version__}"


def as_lists(stack):
    """A 2-player stack's agents as one (hidden, logistic, weights) list per player."""
    flat = [agent[:3] for agent in agents(stack)]
    return [flat[: len(flat) // 2], flat[len(flat) // 2 :]]


def test_committee_predict_follows_the_agents_the_population_holds():
    # A trained population predicts from train's Stack; once its stack is
    # replaced by an evolved one, predictions must come from the new weights.
    rng = np.random.default_rng(43)
    population = Population(random_agents(12, rng), players=2, stocks=3)
    window = TrainingWindow(rng.uniform(0.1, 0.9, (3, 20)), rng.uniform(0.1, 0.9, (3, 20)))
    population.stack = train(population.stack, population.windows(window), Hyperparams(epochs=3))
    xs, params = np.array([0.35, 0.62, 0.5]), one_to_two(3)
    [before] = committee_predict(population, xs[None], params)
    expected = reference_committee_predict(as_lists(population.stack), xs, params)
    assert np.array_equal(before, expected)
    errors = rng.uniform(0.01, 0.2, 12).tolist()
    evolved = evolve_generation(population, errors, GAParams(0.9, 0.5), make_streams(2))
    population.stack = evolved.stack
    [after] = committee_predict(population, xs[None], params)
    expected = reference_committee_predict(as_lists(evolved.stack), xs, params)
    assert np.array_equal(after, expected)
    assert not np.array_equal(after, before)


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


@st.composite
def _decision_blocks(draw):
    days = draw(st.integers(1, SimulationConfig.window))
    players, stocks = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def array(elements, *shape):
        n = math.prod(shape)
        return np.array(draw(st.lists(elements, min_size=n, max_size=n))).reshape(shape)

    # Few distinct prices, steps and supplies make argmax/argmin ties and
    # |max| == |min| ties common; subnormal prices overflow the change to inf.
    price = st.sampled_from((1.0, 2.0, 5e-324, 1e-310)) | st.floats(1e-300, 1e6)
    step = st.sampled_from((-0.5, 0.0, 0.5, 1.0)) | st.floats(-0.99, 10.0)
    prices = array(price, days, stocks)
    predictions = prices[:, None] * (1 + array(step, days, players, stocks))
    # A prediction of 1 on a subnormal price is an overflowing change.
    predictions[draw(st.integers(0, days - 1)), 0, -1] = 1.0
    supply = array(st.sampled_from((1, 2, 100)) | st.integers(1, 10**6), stocks).tolist()
    return predictions, prices, supply


@settings(max_examples=200, deadline=None)
@given(case=_decision_blocks())
def test_decide_on_a_block_of_days_equals_one_call_per_day_bit_for_bit(case):
    predictions, prices, supply = case
    block = decide(predictions, prices[:, None], supply)
    for t in range(len(prices)):
        for got, want in zip(block, decide(predictions[t], prices[t], supply)):
            assert got[t].dtype == want.dtype and got[t].tobytes() == want.tobytes()


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


def reference_desired_quantity(sells, delta_p, announced_price, market_volume, cash, holding):
    """The sizing whose back-off started from every share `cash` affords."""
    want = math.floor(abs(delta_p) * market_volume)
    if sells:
        return max(min(want, 2 * holding // 5), 0)
    affordable = int(cash // announced_price)
    while affordable > 0 and affordable * announced_price > cash:
        affordable -= 1
    return max(min(want, affordable, market_volume), 0)


@settings(max_examples=500, deadline=None)
@given(
    sells=st.booleans(),
    delta_p=st.floats(-1.0, 1e3, exclude_min=True),
    announced_price=st.floats(1e-3, 1e6),
    market_volume=st.integers(0, 10**7),
    cash=st.floats(0.0, 1e9),
    holding=st.integers(0, 10**7),
)
def test_desired_quantity_equals_the_unbounded_back_off(
    sells, delta_p, announced_price, market_volume, cash, holding
):
    # A prediction is > 0, so a relative change is > -1; a sell's is also
    # < 0, since decide sells only when the lowest factor outweighs the
    # highest.  Normal-range prices and cash keep the reference loop short.
    assume(not sells or delta_p <= 0)
    args = (sells, delta_p, announced_price, market_volume, cash, holding)
    assert desired_quantity(*args) == reference_desired_quantity(*args)


def test_desired_quantity_returns_at_once_on_a_thousand_bit_share_count(python_process):
    # cash // price is a 1,010-bit integer here, and taking one share off
    # it does not change the float product: a back-off from it never ends.
    result = python_process(
        "from gamarket.market import desired_quantity\n"
        "print(desired_quantity(False, 0.01, 9.136280215049445e-298, 20000, 6692891.674401907, 0))",
        timeout=10,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "200\n", "")


def test_desired_quantity_caps_an_overflowed_change_at_the_volume():
    # A subnormal price makes the relative change overflow to inf.
    assert desired_quantity(False, math.inf, 5e-323, 2000, 4e6, 0) == 2000


def test_population_agent_iteration():
    # iter_agents is what perfbench's `_count_kept` reads of evolve_generation's
    # result: every agent in population order, with its architecture and
    # weights, and a last training error that is None exactly for the
    # children whose architecture differs from their parent's.
    rng = np.random.default_rng(2)
    stack = random_agents(6, rng)
    records = list(Population(stack, players=2, stocks=3).iter_agents())
    assert len(records) == 6
    for record, (hidden, logistic, weights, _) in zip(records, agents(stack)):
        assert (record.hidden, record.logistic) == (hidden, logistic)
        assert type(record.hidden) is int and type(record.logistic) is bool
        assert np.array_equal(record.weights, weights)
        assert record.last_training_error is None
    population = Population(random_agents(24, rng), players=2, stocks=4)
    window = TrainingWindow(rng.uniform(0.1, 0.9, (4, 20)), rng.uniform(0.1, 0.9, (4, 20)))
    population.stack = train(population.stack, population.windows(window), Hyperparams(epochs=3))
    parents = list(population.iter_agents())
    assert [p.last_training_error for p in parents] == population.stack.errors.tolist()
    errors = rng.uniform(0.01, 0.2, 24).tolist()
    streams = make_streams(5)
    init_before = streams.init.bit_generator.state
    evolved = evolve_generation(population, errors, GAParams(0.9, 0.5), streams)
    children = list(evolved.iter_agents())
    by_weights = {p.weights.tobytes(): p for p in parents}
    changed = kept = 0
    for child in children:
        parent = by_weights.get(child.weights.tobytes())
        if child.last_training_error is None:
            # A changed architecture: fresh weights, no parent's.
            assert parent is None
            changed += 1
        else:
            assert (child.hidden, child.logistic) == (parent.hidden, parent.logistic)
            assert child.last_training_error == parent.last_training_error
            kept += 1
    assert changed > 0 and kept > 0
    # Each changed child drew its fresh weights from `init`, one after another.
    replay = np.random.default_rng()
    replay.bit_generator.state = init_before
    for child in children:
        if child.last_training_error is None:
            assert np.array_equal(child.weights, replay.uniform(-0.5, 0.5, 3 * child.hidden + 1))
