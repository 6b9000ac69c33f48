"""Portfolios, the trading rules, settlement and the daily clearing.

Each trading day the players trade among themselves at that day's
closing prices until a full round passes with no trade (consensus) or a
round cap is hit.  All cash and shares live in one `Portfolios` pair of
arrays, row p for player p; every trade moves shares between rows
against cash at the day's price, so each stock's share total never
changes.  `decide` fixes every player's stock and side for each day of
a generation at once; `desired_quantity` sizes each order.  A round
skips each player who cannot fill: (a) its cash and holding at its turn
are the round-start ones, and (b) its size at full supply bounds all its
sizes.  Resting orders fill oldest-first, one deque per book.
"""

from __future__ import annotations

import math
from collections import deque
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
    """Every player's side, stock and expected relative change, per day.

    A player's decision factors are its relative changes
    (predicted - current) / current, one per stock, times each stock's
    supply.  It sells the argmin stock when |min| beats |max|, otherwise
    buys the argmax stock.  An exact tie between the two magnitudes
    resolves to a buy; ties inside argmax/argmin resolve to the lowest
    stock index.  Returns (sells, stock, delta), one entry per player;
    (days, players, stocks) predictions with (days, 1, stocks) prices
    give one per day and player, each day's as a one-day call would.
    """
    with np.errstate(over="ignore"):  # subnormal prices overflow to inf; sizing caps it
        deltas = np.subtract(predictions, prices) / prices
        factors = deltas * np.asarray(supply)
    sells = np.abs(factors.max(axis=-1)) < np.abs(factors.min(axis=-1))
    stock = np.where(sells, factors.argmin(axis=-1), factors.argmax(axis=-1))
    return sells, stock, np.take_along_axis(deltas, stock[..., None], -1)[..., 0]


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
    # |delta_p| > 1 would want more than the volume: an overflowed (inf)
    # relative change of a subnormal price wants the whole volume, not a crash.
    want = math.floor(min(abs(delta_p), 1.0) * market_volume)
    if sells:
        return max(min(want, SELL_CAP_NUM * holding // SELL_CAP_DEN), 0)
    # Float division can round up across an integer boundary; back off.  The
    # start is at most the volume (< 2**63), so the back-off stays short even
    # when cash // price is a thousand-bit integer.
    affordable = int(min(cash // announced_price, want, market_volume))
    while affordable > 0 and affordable * announced_price > cash:
        affordable -= 1
    return max(affordable, 0)


def trade_threshold(sells, delta_p, price, supply) -> np.ndarray:
    """The least cash (buy) or holding (sell) that sizes each order above 0.

    Exact at a volume of `supply` (inf: never; a sell needs 3 shares, as
    40% of 2 floors to 0); sizes never grow as the volume shrinks.
    """
    wants = np.minimum(np.abs(delta_p), 1.0) * supply >= 1  # floor(x) >= 1 iff x >= 1
    return np.where(wants, np.where(sells, -(-SELL_CAP_DEN // SELL_CAP_NUM), price), np.inf)


def run_clearing(
    day: int,
    prices,
    supply,
    book: Portfolios,
    decisions,
    rng: np.random.Generator,
    round_cap: int = DEFAULT_ROUND_CAP,
) -> ClearingReport:
    """Trade at day `day`'s prices until consensus or the round cap.

    `prices` holds the day's price per stock and `supply` each stock's
    fixed share total; `decisions` is the day's (sells, stock, delta)
    rows from `decide`, one entry per player.  Every round the players
    act once each, in a freshly shuffled order: a player sizes an order
    from its cash or holding, matches it oldest-first against the same
    round's resting opposite-side orders (a deque per side and stock) and
    rests any remainder.  A round with zero executed trades ends the
    day's clearing.

    Only players who can fill act, which changes no outcome: (a) cash and
    holding at a player's turn are its round-start ones, as the books
    start empty and nobody matches a player before it places an order;
    (b) the volume it sees never exceeds the supply (a resting ask is at
    most 40% of its seller's holding), so `trade_threshold` bounds every
    size.  A stock needs an able buyer and an able seller to fill at all.
    """
    if round_cap < 1:
        raise ConfigError(f"round cap must be >= 1, got {round_cap}")
    prices = np.asarray(prices, dtype=float)
    if len(prices) != len(supply):
        raise ConfigError(f"need one price per stock: {len(prices)} prices, {len(supply)} stocks")
    if not np.all((prices > 0) & np.isfinite(prices)):
        raise ConfigError(f"prices must be finite and > 0, got {prices.tolist()}")
    n_players, m_stocks = len(book.cash), len(supply)
    sells, stocks, deltas = decisions
    in_range = np.all((stocks >= 0) & (stocks < m_stocks))
    if {len(sells), len(stocks), len(deltas)} != {n_players} or not in_range:
        raise ConfigError(f"need one decision per player, each naming a stock in 0..{m_stocks - 1}")

    threshold = trade_threshold(sells, deltas, prices[stocks], np.asarray(supply)[stocks])
    cells, books_of = np.arange(n_players) * m_stocks + stocks, 2 * stocks + sells
    sell_of, stock_of, delta_of, prices = (a.tolist() for a in (sells, stocks, deltas, prices))
    report = ClearingReport()
    for round_no in range(1, round_cap + 1):
        report.rounds = round_no
        order = rng.permutation(n_players)
        held = book.holdings.take(cells)
        able = np.where(sells, held, book.cash) >= threshold
        per_book = np.bincount(books_of, able, minlength=2 * m_stocks).reshape(m_stocks, 2)
        able &= per_book.all(axis=1)[stocks]  # an able buyer and an able seller
        cash, held = book.cash.tolist(), held.tolist()
        # books[sells][stock]: resting [player, remaining] orders, oldest first.
        books = [[deque() for _ in range(m_stocks)] for _ in range(2)]
        offered = [0] * m_stocks  # running total of each stock's resting asks
        traded_before = len(report.trades)
        for pid in order[able[order]].tolist():
            sell, stock = sell_of[pid], stock_of[pid]
            price, volume = prices[stock], offered[stock] or supply[stock]
            remaining = desired_quantity(sell, delta_of[pid], price, volume, cash[pid], held[pid])
            book_across = books[not sell][stock]
            while remaining and book_across:
                entry = book_across[0]
                fill = min(remaining, entry[1])
                buyer, seller = (entry[0], pid) if sell else (pid, entry[0])
                trade = Trade(day, round_no, buyer, seller, stock, fill, price)
                apply_trade(book, trade)
                report.trades.append(trade)
                entry[1] -= fill
                remaining -= fill
                if not sell:
                    offered[stock] -= fill
                if entry[1] == 0:
                    book_across.popleft()
            if remaining > 0:
                books[sell][stock].append([pid, remaining])
                if sell:
                    offered[stock] += remaining
        if len(report.trades) == traded_before:
            report.terminated_by = Termination.NO_MORE_TRADES
            return report
    report.terminated_by = Termination.ROUND_CAP
    return report
