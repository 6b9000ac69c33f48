"""Players: committees of agents and their price predictions.

A player is one committee of agents held as one flat list, stock-major:
with k agents per stock, `agents[m*k:(m+1)*k]` predict stock m (its cash
and shares are a row of `market.Portfolios`).  Its prediction for a stock
is the mean of those k agents' outputs.  The trading rules that turn
predictions into orders live in `market`.
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
    """One market participant: k agents per stock, stock-major."""

    agents: list[Agent]

    def iter_agents(self):
        # Kept only for perfbench's `_count_kept`, which reads evolve_generation's result.
        return iter(self.agents)


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
    k = len(players[0].agents) // max(stocks, 1)
    for pid, player in enumerate(players):
        if len(player.agents) != stocks * k or k < 1:
            raise ConfigError(
                f"player {pid} has {len(player.agents)} agents; every player needs the same "
                f"k >= 1 agents for each of the {stocks} prices"
            )
    agents = [agent for player in players for agent in player.agents]
    xs = np.tile(np.repeat(normalized_prices, k), len(players))
    outs = forward(agents, xs[:, None]).reshape(len(players), stocks, k)
    mean = sum(outs[:, :, j] for j in range(k)) / k
    for m, params in zip(range(stocks), norm_params, strict=True):
        mean[:, m] = denormalize(mean[:, m], params)
    # NaN and inf pass the floor unchanged; run_clearing rejects them.
    return np.maximum(mean, PRICE_FLOOR)
