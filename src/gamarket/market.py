"""Portfolios, the trading rules, settlement and the daily clearing.

Each trading day the players trade among themselves at that day's
historical closing prices, one row of the `load_prices` array, until a
full round passes with no trade (consensus) or a round cap is hit.  The
prices were checked when they were loaded.  All cash and shares live in
one `Portfolios` pair of arrays, row p for player p; every trade just
moves shares between rows against cash at the day's price, so each
stock's share total never changes.  `decide` fixes every player's stock
and side at once, once per day; `desired_quantity` sizes each order, and
only order sizes change between rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, TradeRejectedError

DEFAULT_ROUND_CAP = 100

# A sell order may offer at most 40% of the current holding.
SELL_CAP_NUM = 2
SELL_CAP_DEN = 5


class Termination(Enum):
    NO_MORE_TRADES = "no_more_trades"
    ROUND_CAP = "round_cap"


@dataclass(frozen=True)
class Trade:
    day: int
    round: int
    buyer: int
    seller: int
    stock: int
    quantity: int
    price: float


@dataclass
class ClearingReport:
    trades: list[Trade] = field(default_factory=list)
    rounds: int = 0
    terminated_by: Termination = Termination.NO_MORE_TRADES


def split_endowment(supply: int, n_players: int) -> list[int]:
    """Divide one stock's shares equally; leftovers go to the lowest ids."""
    if n_players < 1:
        raise ConfigError(f"need at least one player, got {n_players}")
    base, remainder = divmod(supply, n_players)
    return [base + (1 if i < remainder else 0) for i in range(n_players)]


@dataclass
class Portfolios:
    """Every player's cash and shares; row p belongs to player p."""

    cash: np.ndarray  # (players,) float64
    holdings: np.ndarray  # (players, stocks) int64

    @classmethod
    def endow(cls, n_players: int, supply, initial_cash: float) -> "Portfolios":
        """Equal cash for everyone; share remainders go to the lowest ids."""
        shares = [split_endowment(q, n_players) for q in supply]
        return cls(
            cash=np.full(n_players, float(initial_cash)),
            holdings=np.column_stack(shares).astype(np.int64),
        )

    def net_worth(self, prices) -> np.ndarray:
        """Cash plus holdings valued at the given prices, one per player.

        The stacked per-row product adds in the same order as a per-player
        `np.dot`; a 2-D `holdings @ prices` does not, and changes the bits.
        """
        prices = np.asarray(prices, dtype=float)
        return self.cash + (self.holdings[:, None, :] @ prices[:, None])[:, 0, 0]


def apply_trade(book: Portfolios, trade: Trade) -> None:
    """Settle one trade atomically, or reject it without touching state."""
    if trade.buyer == trade.seller:
        raise ValueError("buyer and seller must differ")
    if trade.quantity < 1:
        raise ValueError(f"trade quantity must be >= 1, got {trade.quantity}")
    held = book.holdings[trade.seller, trade.stock]
    if held < trade.quantity:
        raise TradeRejectedError(
            f"player {trade.seller} holds {held} of stock {trade.stock}, "
            f"cannot sell {trade.quantity}"
        )
    value = trade.quantity * trade.price
    if book.cash[trade.buyer] < value:
        raise TradeRejectedError(
            f"player {trade.buyer} has {book.cash[trade.buyer]:.2f} cash, cannot pay {value:.2f}"
        )
    book.holdings[trade.seller, trade.stock] -= trade.quantity
    book.holdings[trade.buyer, trade.stock] += trade.quantity
    book.cash[trade.buyer] -= value
    book.cash[trade.seller] += value


def decide(predictions, prices, supply) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every player's side, stock and expected relative change for the day.

    A player's decision factors are its relative changes
    (predicted - current) / current, one per stock, times each stock's
    supply.  It sells the argmin stock when |min| beats |max|, otherwise
    buys the argmax stock.  An exact tie between the two magnitudes
    resolves to a buy; ties inside argmax/argmin resolve to the lowest
    stock index.  Returns (sells, stock, delta), one entry per player.
    """
    deltas = (predictions - prices) / prices
    factors = deltas * np.asarray(supply)
    rows = np.arange(len(factors))
    imax, imin = factors.argmax(axis=1), factors.argmin(axis=1)
    sells = np.abs(factors[rows, imax]) < np.abs(factors[rows, imin])
    stock = np.where(sells, imin, imax)
    return sells, stock, deltas[rows, stock]


def desired_quantity(
    sells: bool,
    delta_p: float,
    announced_price: float,
    market_volume: int,
    cash: float,
    holding: int,
) -> int:
    """Size an order: a |delta_p| share of the market volume, then capped.

    Buys are limited by the shares `cash` affords and the market volume
    itself; sells by 40% of `holding`.  Zero means the player sits out.
    """
    if not announced_price > 0:
        raise ValueError(f"announced price must be > 0, got {announced_price}")
    if market_volume < 0:
        raise ValueError(f"market volume must be >= 0, got {market_volume}")
    want = math.floor(abs(delta_p) * market_volume)
    if sells:
        return max(min(want, SELL_CAP_NUM * holding // SELL_CAP_DEN), 0)
    affordable = int(cash // announced_price)
    # Float division can round up across an integer boundary; back off.
    while affordable > 0 and affordable * announced_price > cash:
        affordable -= 1
    return max(min(want, affordable, market_volume), 0)


def run_clearing(
    day: int,
    prices,
    supply,
    book: Portfolios,
    predictions,
    rng: np.random.Generator,
    round_cap: int = DEFAULT_ROUND_CAP,
) -> ClearingReport:
    """Trade at day `day`'s prices until consensus or the round cap.

    `prices` holds the day's price per stock and `supply` each stock's
    fixed share total; `predictions` is a (players, stocks) array of
    predicted prices.  Each player's stock and side depend only on its
    predictions and the day's prices, so `decide` fixes them for every
    player once per day.  Every round the players act once each, in a
    freshly shuffled order: a player sizes an order from its current cash
    or holding, and the order is matched earliest-first against resting
    opposite-side orders from the same round; any remainder rests in the
    book.  A round with zero executed trades ends the day's clearing.
    """
    if round_cap < 1:
        raise ConfigError(f"round cap must be >= 1, got {round_cap}")
    prices = np.asarray(prices, dtype=float)
    if len(prices) != len(supply):
        raise ConfigError(f"need one price per stock: {len(prices)} prices, {len(supply)} stocks")
    n_players, m_stocks = len(book.cash), len(supply)
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (n_players, m_stocks):
        raise ConfigError(f"predictions must be ({n_players}, {m_stocks}), got {predictions.shape}")
    if not np.all((predictions > 0) & np.isfinite(predictions)):
        raise ConfigError("predictions must be finite and > 0")

    sells, stocks, deltas = (a.tolist() for a in decide(predictions, prices, supply))
    prices = prices.tolist()
    report = ClearingReport()
    for round_no in range(1, round_cap + 1):
        report.rounds = round_no
        # books[sells][stock]: resting [player, remaining] orders, bids then asks.
        books = [[[] for _ in range(m_stocks)] for _ in range(2)]
        offered = [0] * m_stocks  # running total of each stock's resting asks
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
