"""Players: committees of agents and their price predictions.

A player keeps one committee of k agents per stock (its cash and shares are
a row of `market.Portfolios`).  Its prediction for a stock is the mean of
that committee's outputs.  The trading rules that turn predictions into
orders live in `market`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NormalizationParams, denormalize
from .errors import ConfigError
from .neural import Agent, forward

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
    players: list[Player], normalized_prices, norm_params: list[NormalizationParams]
) -> np.ndarray:
    """Every player's predicted next price per stock: a (players, stocks) array.

    One `forward` call runs every agent on its stock's normalized price.
    A committee's outputs are added in committee order from 0, then divided
    by k (numpy's `sum` or `mean` along an axis adds in another order from
    k = 8 up, changing the last bits), and denormalized per stock.
    """
    stocks = len(normalized_prices)
    sizes = [[len(group) for group in player.committees] for player in players]
    k = sizes[0][0] if sizes[0] else 0
    for player, row in zip(players, sizes):
        if row != [k] * stocks or k < 1:
            raise ConfigError(
                f"player {player.id} has committees of sizes {row}; every player needs "
                f"{stocks} committees (one per price) of the same k >= 1 agents"
            )
    agents = [agent for player in players for agent in player.iter_agents()]
    xs = np.tile(np.repeat(normalized_prices, k), len(players))
    outs = forward(agents, xs[:, None]).reshape(len(players), stocks, k)
    mean = sum(outs[:, :, j] for j in range(k)) / k
    for m, params in zip(range(stocks), norm_params, strict=True):
        mean[:, m] = denormalize(mean[:, m], params)
    # NaN and inf pass the floor unchanged; run_clearing rejects them.
    return np.maximum(mean, PRICE_FLOOR)
