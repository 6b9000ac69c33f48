"""Market state, price announcement, settlement and the clearing loop.

Each trading day the market announces the historical closing price and
players trade among themselves at that price until a full round passes
with no trade (consensus) or a round cap is hit.  The total number of
shares per stock never changes: every trade just moves shares between
players against cash at the announced price.  A player picks its stock
and side once per day; only the size of its order changes between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import PriceSeries
from .errors import ConfigError, EndOfDataError, TradeRejectedError
from .players import Player, Side, choose_trade_side, decision_factor, desired_quantity, price_change

DEFAULT_ROUND_CAP = 100


class Termination(Enum):
    NO_MORE_TRADES = "no_more_trades"
    ROUND_CAP = "round_cap"


@dataclass
class Market:
    stock_names: list[str]
    supply: list[int]  # fixed total shares per stock
    prices: np.ndarray  # (days, stocks) closing prices
    t: int = 0

    def __post_init__(self) -> None:
        if len(self.stock_names) != len(self.supply):
            raise ConfigError("one supply figure is required per stock")
        if any(q < 1 for q in self.supply):
            raise ConfigError("every stock supply must be >= 1")
        if self.prices.ndim != 2 or self.prices.shape[1] != len(self.stock_names):
            raise ConfigError("price matrix must have one column per stock")

    @classmethod
    def from_series(cls, series: list[PriceSeries], supply: list[int], t: int = 0) -> "Market":
        matrix = np.column_stack([s.prices for s in series])
        return cls(stock_names=[s.name for s in series], supply=list(supply), prices=matrix, t=t)

    @property
    def stock_count(self) -> int:
        return len(self.stock_names)


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


def announce_price(market: Market) -> np.ndarray:
    """Today's official prices; every trade settles at these."""
    if not 0 <= market.t < len(market.prices):
        raise EndOfDataError(f"no price row for day {market.t}")
    return market.prices[market.t].copy()


def advance_day(market: Market) -> None:
    market.t += 1


def split_endowment(supply: int, n_players: int) -> list[int]:
    """Divide one stock's shares equally; leftovers go to the lowest ids."""
    if n_players < 1:
        raise ConfigError(f"need at least one player, got {n_players}")
    base, remainder = divmod(supply, n_players)
    return [base + (1 if i < remainder else 0) for i in range(n_players)]


def apply_trade(players: list[Player], trade: Trade) -> None:
    """Settle one trade atomically, or reject it without touching state."""
    if trade.buyer == trade.seller:
        raise ValueError("buyer and seller must differ")
    if trade.quantity < 1:
        raise ValueError(f"trade quantity must be >= 1, got {trade.quantity}")
    buyer = players[trade.buyer]
    seller = players[trade.seller]
    if seller.holdings[trade.stock] < trade.quantity:
        raise TradeRejectedError(
            f"player {trade.seller} holds {seller.holdings[trade.stock]} of stock "
            f"{trade.stock}, cannot sell {trade.quantity}"
        )
    value = trade.quantity * trade.price
    if buyer.cash < value:
        raise TradeRejectedError(
            f"player {trade.buyer} has {buyer.cash:.2f} cash, cannot pay {value:.2f}"
        )
    seller.holdings[trade.stock] -= trade.quantity
    buyer.holdings[trade.stock] += trade.quantity
    buyer.cash -= value
    seller.cash += value


def run_clearing(
    market: Market,
    players: list[Player],
    predictions: list[list[float]],
    rng: np.random.Generator,
    round_cap: int = DEFAULT_ROUND_CAP,
) -> ClearingReport:
    """Trade at today's announced prices until consensus or the round cap.

    Each player's decision factors, and so its one stock and side, depend
    only on its predictions and today's prices, so they are fixed once per
    day.  Every round the players act once each, in a freshly shuffled
    order: a player sizes an intent from its current cash or holding, and
    the intent is matched earliest-first against resting opposite-side
    intents from the same round; any remainder rests in the book.  A round
    with zero executed trades ends the day's clearing.
    """
    if round_cap < 1:
        raise ConfigError(f"round cap must be >= 1, got {round_cap}")
    if len(predictions) != len(players):
        raise ConfigError("one prediction set is required per player")
    prices = announce_price(market)
    m_stocks = market.stock_count
    for pid, pset in enumerate(predictions):
        if len(pset) != m_stocks:
            raise ConfigError(f"player {pid} predictions must cover {m_stocks} stocks")
        if any(not np.isfinite(v) or v <= 0 for v in pset):
            raise ConfigError(f"player {pid} predictions must be finite and > 0")

    # (side, stock, expected change) per player: fixed for the whole day.
    decisions = []
    for pset in predictions:
        deltas = [price_change(pset[m], float(prices[m])) for m in range(m_stocks)]
        side, stock = choose_trade_side(
            [decision_factor(deltas[m], market.supply[m]) for m in range(m_stocks)]
        )
        decisions.append((side, stock, deltas[stock]))

    report = ClearingReport()
    for round_no in range(1, round_cap + 1):
        report.rounds = round_no
        order = [int(i) for i in rng.permutation(len(players))]
        bids: list[list[list[int]]] = [[] for _ in range(m_stocks)]  # [player, remaining]
        asks: list[list[list[int]]] = [[] for _ in range(m_stocks)]
        executed = 0
        for pid in order:
            side, stock, delta = decisions[pid]
            offered = sum(entry[1] for entry in asks[stock])
            market_volume = offered if offered > 0 else market.supply[stock]
            intent = desired_quantity(
                players[pid], stock, side, delta, float(prices[stock]), market_volume
            )
            remaining = intent.quantity
            if remaining == 0:
                continue
            book_across = asks[stock] if side is Side.BUY else bids[stock]
            for entry in book_across:
                if remaining == 0:
                    break
                fill = min(remaining, entry[1])
                if fill == 0:
                    continue
                buyer_id, seller_id = (pid, entry[0]) if side is Side.BUY else (entry[0], pid)
                trade = Trade(
                    day=market.t,
                    round=round_no,
                    buyer=buyer_id,
                    seller=seller_id,
                    stock=stock,
                    quantity=fill,
                    price=float(prices[stock]),
                )
                apply_trade(players, trade)
                report.trades.append(trade)
                executed += 1
                entry[1] -= fill
                remaining -= fill
            book_across[:] = [entry for entry in book_across if entry[1] > 0]
            if remaining > 0:
                own_book = bids[stock] if side is Side.BUY else asks[stock]
                own_book.append([pid, remaining])
        if executed == 0:
            report.terminated_by = Termination.NO_MORE_TRADES
            return report
    report.terminated_by = Termination.ROUND_CAP
    return report
