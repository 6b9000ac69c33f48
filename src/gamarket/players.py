"""Players: committees of agents, and the trading rules.

A player keeps one committee of k agents per stock (its cash and shares are
a row of `market.Portfolios`).  Its prediction for a stock is the mean of
that committee's outputs.  `decide` turns a (players, stocks) prediction
array into decision factors, relative price changes scaled by each stock's
supply, and picks every player's strongest stock and whether it `sells`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NormalizationParams, denormalize
from .errors import ConfigError
from .neural import Agent, forward

# A sell order may offer at most 40% of the current holding.
SELL_CAP_NUM = 2
SELL_CAP_DEN = 5

# Denormalized committee predictions are floored here so downstream ratios
# stay defined even if a linear output drifts below zero.
PRICE_FLOOR = 1e-9


@dataclass
class Player:
    """One market participant: one committee of agents per stock."""

    id: int
    committees: list[list[Agent]]  # committees[m] predicts stock m

    def iter_agents(self):
        for group in self.committees:
            yield from group


def committee_predict(
    player: Player,
    normalized_prices,
    norm_params: list[NormalizationParams],
) -> list[float]:
    """Predicted next price per stock, in price units.

    Each committee's outputs are averaged in normalized space and mapped
    back through that stock's normalization parameters.
    """
    if len(normalized_prices) != len(player.committees):
        raise ConfigError(
            f"player {player.id} has {len(player.committees)} committees, "
            f"got {len(normalized_prices)} prices"
        )
    predictions = []
    for group, x, params in zip(player.committees, normalized_prices, norm_params):
        if not group:
            raise ConfigError(f"player {player.id} has an empty committee")
        mean_out = sum(forward(agent, x) for agent in group) / len(group)
        price = float(denormalize(mean_out, params))
        if not math.isfinite(price):
            raise ValueError(f"non-finite prediction for player {player.id}")
        predictions.append(max(price, PRICE_FLOOR))
    return predictions


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
