"""Tests for portfolios, settlement, and the clearing loop."""

import copy
import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamarket.data import DEFAULT_STOCKS, generate_series, load_prices, write_prices_csv
from gamarket.errors import ConfigError, DataError, TradeRejectedError
from gamarket.market import (
    DEFAULT_ROUND_CAP,
    ClearingReport,
    Portfolios,
    Termination,
    Trade,
    apply_trade,
    decide,
    desired_quantity,
    run_clearing,
    split_endowment,
    trade_threshold,
)


class FixedOrder:
    """Stand-in rng whose permutation is always the same order."""

    def __init__(self, order):
        self.order = list(order)

    def permutation(self, n):
        assert n == len(self.order)
        return np.array(self.order)


def _traders(cash=1000.0, holdings=(50, 50), stocks=2):
    return Portfolios(
        cash=np.full(len(holdings), cash),
        holdings=np.array([[h] * stocks for h in holdings], dtype=np.int64),
    )


def test_announced_prices_match_the_csv(tmp_path):
    # Day t's announced prices are row t of the loaded history.
    path = tmp_path / "prices.csv"
    write_prices_csv(path, DEFAULT_STOCKS, generate_series(days=60, seed=13))
    prices_by_day = load_prices(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    for t in (0, 1, 2, 30, 59):
        expected = [float(cell) for cell in rows[t][1:]]
        np.testing.assert_allclose(prices_by_day[t], expected, rtol=1e-12)


def test_market_validation():
    # A day's price row needs one price per stock in the supply.
    book, rng = _traders(stocks=1), np.random.default_rng(0)
    with pytest.raises(ConfigError, match="one price per stock"):
        run_clearing(0, (1.0, 1.0), (10,), book, [[1.0], [1.0]], rng)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_market_rejects_a_non_positive_or_non_finite_price(tmp_path, bad):
    # The market trades only at loaded prices, and load_prices is where a
    # price is checked: the error names the file and line.
    path = tmp_path / "prices.csv"
    rows = [["day", "A", "B"], [0, 1.0, 1.0], [1, 1.0, 1.0], [2, 1.0, bad]]
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")
    with pytest.raises(DataError, match=rf"prices.csv:4: price {bad} for B is outside \["):
        load_prices(path, expected_stocks=("A", "B"))


def test_split_endowment_exact():
    assert split_endowment(10, 4) == [3, 3, 2, 2]
    assert split_endowment(7, 3) == [3, 2, 2]
    assert split_endowment(6, 3) == [2, 2, 2]
    assert split_endowment(2, 5) == [1, 1, 0, 0, 0]
    for supply in (1, 17, 1000):
        for n in (1, 2, 7):
            shares = split_endowment(supply, n)
            assert sum(shares) == supply
            assert max(shares) - min(shares) <= 1
    with pytest.raises(ConfigError):
        split_endowment(10, 0)


def test_endow_splits_every_stock_and_gives_equal_cash():
    book = Portfolios.endow(4, [10, 7], 250.0)
    assert book.holdings.dtype == np.int64 and book.cash.dtype == np.float64
    assert book.holdings.tolist() == [[3, 2], [3, 2], [2, 2], [2, 1]]
    assert book.cash.tolist() == [250.0] * 4


def test_net_worth_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(20):
        holdings = rng.integers(0, 100, size=(2, 3))
        cash = rng.uniform(0, 1e5, size=2)
        prices = rng.uniform(1.0, 500.0, size=3)
        book = Portfolios(cash=cash, holdings=holdings)
        for p in range(2):
            expected = cash[p] + sum(h * q for h, q in zip(holdings[p], prices))
            assert book.net_worth(prices)[p] == pytest.approx(expected, rel=1e-12)


def test_net_worth_equals_per_player_dot_bit_for_bit():
    # networth.csv holds these floats; a numpy or BLAS change that alters
    # the summation order fails here before it changes the file.
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        book = Portfolios(
            cash=rng.uniform(0.0, 1e7, size=64),
            holdings=rng.integers(0, 20_000, size=(64, 3)),
        )
        prices = rng.uniform(1.0, 500.0, size=3)
        expected = [book.cash[p] + np.dot(book.holdings[p], prices) for p in range(64)]
        assert np.array_equal(book.net_worth(prices), expected)


def test_apply_trade_settles_exactly():
    book = _traders()
    apply_trade(book, Trade(day=0, round=1, buyer=0, seller=1, stock=0, quantity=8, price=12.5))
    assert book.holdings.tolist() == [[58, 50], [42, 50]]
    assert book.cash[0] == 1000.0 - 100.0
    assert book.cash[1] == 1000.0 + 100.0


def test_apply_trade_rejects_without_touching_state():
    book = _traders(cash=50.0)
    before = copy.deepcopy(book)
    # Seller lacks the shares.
    with pytest.raises(TradeRejectedError):
        apply_trade(book, Trade(0, 1, buyer=0, seller=1, stock=0, quantity=51, price=1.0))
    # Buyer lacks the cash.
    with pytest.raises(TradeRejectedError):
        apply_trade(book, Trade(0, 1, buyer=0, seller=1, stock=0, quantity=10, price=10.0))
    assert book.cash.tolist() == before.cash.tolist()
    assert book.holdings.tolist() == before.holdings.tolist()
    with pytest.raises(ValueError):
        apply_trade(book, Trade(0, 1, buyer=0, seller=0, stock=0, quantity=1, price=1.0))
    with pytest.raises(ValueError):
        apply_trade(book, Trade(0, 1, buyer=0, seller=1, stock=0, quantity=0, price=1.0))


# Day 0 of a two-stock market: A trades at 10, B at 20, 100 shares each.
PRICES = (10.0, 20.0)
SUPPLY = (100, 100)


def test_clearing_consensus_when_nobody_wants_to_trade():
    # Predictions equal to the announced price size every intent at zero.
    book = _traders()
    preds = [[10.0, 20.0], [10.0, 20.0]]
    report = run_clearing(0, PRICES, SUPPLY, book, preds, np.random.default_rng(0))
    assert report.trades == []
    assert report.rounds == 1
    assert report.terminated_by is Termination.NO_MORE_TRADES


def test_single_stock_pessimist_still_bids():
    # With one stock the max and min decision factor coincide, and the tie
    # rule resolves to a buy, so a lone pessimist never reaches the sell
    # side and two bids just rest: no trades.
    book = _traders(stocks=1)
    report = run_clearing(0, (10.0,), (100,), book, [[11.0], [9.0]], np.random.default_rng(0))
    assert report.trades == []
    assert report.terminated_by is Termination.NO_MORE_TRADES


def test_clearing_buyer_first_frozen_scenario():
    # On stock A player 0 expects +10% and player 1 expects -10%; both are
    # flat on B.  Player 0 acts first each round: it rests a bid of 10 and
    # the seller fills it, capped at 40% of its shrinking holding, so the
    # fills run 10,10,10 then 8,4,3,2,1 and round 9 reaches consensus.
    book = _traders()
    preds = [[11.0, 20.0], [9.0, 20.0]]
    report = run_clearing(0, PRICES, SUPPLY, book, preds, FixedOrder([0, 1]))
    assert [t.quantity for t in report.trades] == [10, 10, 10, 8, 4, 3, 2, 1]
    assert report.rounds == 9
    assert report.terminated_by is Termination.NO_MORE_TRADES
    assert all(
        t.buyer == 0 and t.seller == 1 and t.stock == 0 and t.price == 10.0
        for t in report.trades
    )
    assert book.holdings.tolist() == [[98, 50], [2, 50]]
    assert book.cash[0] == 1000.0 - 480.0
    assert book.cash[1] == 1000.0 + 480.0


def test_clearing_seller_first_uses_resting_volume_and_round_cap():
    # With the seller acting first, its resting ask of 10 becomes the market
    # volume, so the buyer's 10% sizing buys exactly one share per round.
    # A cap of 7 rounds cuts the session short.
    book = _traders()
    preds = [[11.0, 20.0], [9.0, 20.0]]
    report = run_clearing(0, PRICES, SUPPLY, book, preds, FixedOrder([1, 0]), round_cap=7)
    assert [t.quantity for t in report.trades] == [1] * 7
    assert report.rounds == 7
    assert report.terminated_by is Termination.ROUND_CAP
    assert book.holdings.tolist() == [[57, 50], [43, 50]]
    assert book.cash[0] == 1000.0 - 70.0
    assert book.cash[1] == 1000.0 + 70.0


def test_clearing_sizes_each_buy_from_the_asks_still_resting():
    # Player 0 sells A (-50%), players 1 and 2 buy it (+50%), in that order.
    # Round 1: the seller rests 20 (40% of 50); the first buyer takes half
    # of those 20, and the second half of the 10 still resting.  Each
    # later round repeats this on the seller's shrinking holding.
    book = Portfolios(cash=np.full(3, 1e6), holdings=np.array([[50, 0], [0, 0], [0, 0]]))
    preds = [[5.0, 20.0], [15.0, 20.0], [15.0, 20.0]]
    report = run_clearing(0, PRICES, SUPPLY, book, preds, FixedOrder([0, 1, 2]))
    assert [(t.buyer, t.quantity) for t in report.trades] == [
        (1, 10), (2, 5), (1, 7), (2, 3), (1, 5), (2, 2), (1, 3), (2, 2),
        (1, 2), (2, 1), (1, 2), (2, 1), (1, 1), (1, 1), (1, 1),
    ]
    assert report.rounds == 10
    assert book.holdings.tolist() == [[4, 0], [32, 0], [14, 0]]


def test_clearing_conserves_shares_and_cash():
    rng = np.random.default_rng(71)
    prices = generate_series(days=5, seed=2)[0]
    supply = [120, 90, 61]
    book = Portfolios.endow(5, supply, 1e7)
    predictions = [[float(p * rng.uniform(0.9, 1.1)) for p in prices] for _ in range(5)]
    pristine = copy.deepcopy(book)
    report = run_clearing(0, prices, supply, book, predictions, np.random.default_rng(5))
    assert report.trades, "scenario should produce at least one trade"
    for m in range(3):
        assert book.holdings[:, m].sum() == supply[m]
    assert sum(book.cash.tolist()) == pytest.approx(5e7, rel=1e-12)
    for trade in report.trades:
        assert trade.quantity >= 1
        assert trade.buyer != trade.seller
        assert trade.price == prices[trade.stock]
        assert trade.day == 0
    # Replaying the log from the initial portfolios reproduces the outcome.
    for trade in report.trades:
        apply_trade(pristine, trade)
    assert book.holdings.tolist() == pristine.holdings.tolist()
    for got, want in zip(book.cash.tolist(), pristine.cash.tolist()):
        assert got == pytest.approx(want, rel=1e-12)
    # Holdings never go negative mid-stream either; replay would have raised.


@st.composite
def _clearing_cases(draw):
    n_players = draw(st.integers(2, 6))
    n_stocks = draw(st.integers(1, 3))
    positive = st.floats(0.01, 1e4, allow_nan=False, allow_infinity=False)
    prices = draw(st.lists(positive, min_size=n_stocks, max_size=n_stocks))
    book = Portfolios(
        cash=np.array([draw(st.floats(0.0, 1e7)) for _ in range(n_players)]),
        holdings=np.array(
            [
                draw(st.lists(st.integers(0, 500), min_size=n_stocks, max_size=n_stocks))
                for _ in range(n_players)
            ],
            dtype=np.int64,
        ),
    )
    predictions = [
        draw(st.lists(positive, min_size=n_stocks, max_size=n_stocks)) for _ in range(n_players)
    ]
    return prices, book, predictions, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(case=_clearing_cases())
def test_clearing_conserves_and_never_goes_negative(case):
    prices, book, predictions, seed = case
    # Every stock needs a supply of at least one share.
    book.holdings[0] += 1
    supply = book.holdings.sum(axis=0).tolist()
    cash = math.fsum(book.cash)
    run_clearing(0, prices, supply, book, predictions, np.random.default_rng(seed))
    assert book.holdings.sum(axis=0).tolist() == supply
    assert math.fsum(book.cash) == pytest.approx(cash, rel=1e-12, abs=1e-6)
    assert (book.cash >= 0).all() and (book.holdings >= 0).all()


def test_clearing_same_seed_is_identical():
    def run(seed):
        book = _traders(cash=5e4, holdings=(250, 250))
        preds = [[10.7, 20.0], [9.4, 20.0]]
        report = run_clearing(0, PRICES, (500, 500), book, preds, np.random.default_rng(seed))
        return [
            (t.round, t.buyer, t.seller, t.stock, t.quantity, t.price) for t in report.trades
        ], (book.cash.tolist(), book.holdings.tolist())

    assert run(123) == run(123)


def test_run_clearing_validation():
    book = _traders()
    rng = np.random.default_rng(0)
    # One row per player and one column per stock.
    with pytest.raises(ConfigError):
        run_clearing(0, PRICES, SUPPLY, book, np.array([[10.0, 20.0]]), rng)
    with pytest.raises(ConfigError):
        run_clearing(0, PRICES, SUPPLY, book, np.array([[10.0], [10.0]]), rng)
    with pytest.raises(ConfigError):
        run_clearing(0, PRICES, SUPPLY, book, np.array([[10.0, 20.0], [-1.0, 20.0]]), rng)
    with pytest.raises(ConfigError):
        run_clearing(0, PRICES, SUPPLY, book, np.array([[10.0, 20.0], [float("nan"), 20.0]]), rng)
    with pytest.raises(ConfigError):
        run_clearing(0, PRICES, SUPPLY, book, np.array([[10.0, 20.0]] * 2), rng, round_cap=0)
    # A day price that is not finite and > 0 is refused before anything
    # computes with it, without a numpy warning.
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="prices must be finite and > 0"):
                run_clearing(0, (10.0, bad), SUPPLY, book, [[10.0, 20.0]] * 2, rng)


def test_default_round_cap_value():
    assert DEFAULT_ROUND_CAP == 100
    assert ClearingReport().terminated_by is Termination.NO_MORE_TRADES


def reference_run_clearing(day, prices, supply, book, predictions, rng, round_cap):
    """The clearing loop that sized every player's order in every round."""
    prices = np.asarray(prices, dtype=float)
    n_players, m_stocks = len(book.cash), len(supply)
    predictions = np.asarray(predictions, dtype=float)
    sells, stocks, deltas = (a.tolist() for a in decide(predictions, prices, supply))
    prices = prices.tolist()
    report = ClearingReport()
    for round_no in range(1, round_cap + 1):
        report.rounds = round_no
        books = [[[] for _ in range(m_stocks)] for _ in range(2)]
        offered = [0] * m_stocks
        traded_before = len(report.trades)
        for pid in rng.permutation(n_players).tolist():
            sell, stock, price = sells[pid], stocks[pid], prices[stocks[pid]]
            volume = offered[stock] or supply[stock]
            cash, holding = float(book.cash[pid]), int(book.holdings[pid, stock])
            remaining = desired_quantity(sell, deltas[pid], price, volume, cash, holding)
            if remaining == 0:
                continue
            book_across = books[not sell][stock]
            for entry in book_across:
                if remaining == 0:
                    break
                fill = min(remaining, entry[1])
                buyer, seller = (entry[0], pid) if sell else (pid, entry[0])
                trade = Trade(day, round_no, buyer, seller, stock, fill, price)
                apply_trade(book, trade)
                report.trades.append(trade)
                entry[1] -= fill
                remaining -= fill
                if not sell:
                    offered[stock] -= fill
            book_across[:] = [entry for entry in book_across if entry[1] > 0]
            if remaining > 0:
                books[sell][stock].append([pid, remaining])
                if sell:
                    offered[stock] += remaining
        if len(report.trades) == traded_before:
            report.terminated_by = Termination.NO_MORE_TRADES
            return report
    report.terminated_by = Termination.ROUND_CAP
    return report


@st.composite
def _oracle_cases(draw):
    prices, book, _, seed = draw(_clearing_cases())
    n_players, n_stocks = book.holdings.shape
    # Each player expects one stock, most often stock 0, to move by 1-50%
    # and the others to stay put, so it trades that stock; players take
    # turns buying and selling (selling needs two stocks: a tie buys).  Add
    # broke players, holdings too small to sell a share, and stocks where
    # every player leans the same way.
    leans = [draw(st.sampled_from((0, 0, 0, 1, -1))) for _ in range(n_stocks)]
    predictions = np.tile(np.asarray(prices, dtype=float), (n_players, 1))
    for p in range(n_players):
        m = draw(st.sampled_from((0, 0, *range(n_stocks))))
        sign = leans[m] or (1, -1)[p % 2]
        predictions[p, m] *= 1 + sign * draw(st.integers(1, 50)) / 100
        broke, small = (draw(st.integers(0, 3)) == 0 for _ in range(2))
        book.cash[p] = 0.0 if broke else draw(st.floats(1e5, 1e7))
        book.holdings[p] = book.holdings[p] % 3 if small else book.holdings[p] + 3
    book.holdings[0] += 1
    return prices, book, predictions, seed, draw(st.sampled_from((1, 2, 3, DEFAULT_ROUND_CAP)))


@settings(max_examples=200, deadline=None)
@given(case=_oracle_cases())
def test_clearing_equals_the_loop_over_every_player(case):
    prices, book, predictions, seed, round_cap = case
    supply = book.holdings.sum(axis=0).tolist()
    runs = []
    for clear in (run_clearing, reference_run_clearing):
        copied, rng = copy.deepcopy(book), np.random.default_rng(seed)
        report = clear(0, prices, supply, copied, predictions, rng, round_cap=round_cap)
        state = (copied.cash.tolist(), copied.holdings.tolist(), rng.bit_generator.state)
        runs.append((report, *state))
    (got, *got_state), (want, *want_state) = runs
    assert got.trades == want.trades
    assert (got.rounds, got.terminated_by) == (want.rounds, want.terminated_by)
    assert got_state == want_state


@st.composite
def _sizing_cases(draw):
    supply = draw(st.integers(1, 300))
    # Relative changes anywhere, and at the one-share boundary k / supply.
    delta_p = draw(st.floats(-1.0, math.inf) | st.integers(-2, 2).map(lambda k: k / supply))
    price = draw(st.floats(5e-324, 1e6))
    cash = draw(st.floats(0.0, 1e9) | st.sampled_from((0.0, price, math.nextafter(price, 0))))
    holding = draw(st.integers(0, 3) | st.integers(0, 300))
    return draw(st.booleans()), delta_p, price, supply, cash, holding


@settings(max_examples=200, deadline=None)
@given(case=_sizing_cases())
def test_a_player_who_cannot_size_at_full_supply_cannot_size_at_all(case):
    # run_clearing skips a player below its threshold; that is exact only if
    # no volume up to the supply would size an order.
    sells, delta_p, price, supply, cash, holding = case
    threshold = trade_threshold(*(np.array([a]) for a in (sells, delta_p, price, supply)))[0]
    able = bool((holding if sells else cash) >= threshold)
    sizes = [desired_quantity(sells, delta_p, price, v, cash, holding) for v in range(supply + 1)]
    assert able == (sizes[supply] > 0)
    if not able:
        assert not any(sizes)


class CountingRng:
    """A seeded rng that counts its permutation draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def permutation(self, n):
        self.draws += 1
        return self.rng.permutation(n)


def test_a_day_with_only_one_sided_stocks_ends_after_one_round(monkeypatch):
    # Players 0 and 1 buy A and players 2 and 3 sell B, all with cash and
    # shares to spare: every order could be sized, but none could fill, so
    # nobody is sized and the first round ends the day.
    sized = []
    monkeypatch.setattr("gamarket.market.desired_quantity", lambda *args: sized.append(args))
    book, rng = _traders(holdings=(50, 50, 50, 50)), CountingRng(0)
    preds = [[11.0, 20.0], [12.0, 20.0], [10.0, 18.0], [10.0, 19.0]]
    report = run_clearing(0, PRICES, SUPPLY, book, preds, rng)
    assert report.trades == [] and sized == []
    assert report.rounds == 1 and report.terminated_by is Termination.NO_MORE_TRADES
    assert rng.draws == 1
