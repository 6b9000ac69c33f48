"""Players: committees of agents and their price predictions.

A player is one committee of agents held as one flat list, stock-major:
with k agents per stock, `agents[m*k:(m+1)*k]` predict stock m (its cash
and shares are a row of `market.Portfolios`).  Its prediction for a stock
is the mean of those k agents' outputs.  `population` maps every agent
to its stock for prediction, training and scoring.  The trading rules
that turn predictions into orders live in `market`.
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


def population(players: list[Player], stocks: int) -> tuple[list[Agent], np.ndarray]:
    """Every agent, player by player, and the (A,) index of the stock each predicts.

    Every player needs the same k >= 1 agents per stock: two players of 4
    and 8 agents on 3 stocks would otherwise pair agents with wrong stocks.
    """
    k = len(players[0].agents) // max(stocks, 1)
    for pid, player in enumerate(players):
        if len(player.agents) != stocks * k or k < 1:
            raise ConfigError(
                f"player {pid} has {len(player.agents)} agents; every player needs the same "
                f"k >= 1 agents for each of the {stocks} prices"
            )
    agents = [agent for player in players for agent in player.agents]
    return agents, np.tile(np.repeat(np.arange(stocks), k), len(players))


def committee_predict(
    players: list[Player], normalized_prices, norm_params: NormalizationParams
) -> np.ndarray:
    """Every player's predicted next price per stock: a (players, stocks) array.

    One `forward` call runs every agent on its stock's normalized price.
    A committee's outputs are added in committee order from 0, then divided
    by k (numpy's `sum` or `mean` along an axis adds in another order from
    k = 8 up, changing the last bits), and denormalized.
    """
    stocks = len(normalized_prices)
    agents, rows = population(players, stocks)
    k = len(agents) // (len(players) * stocks)
    outs = forward(agents, normalized_prices[rows, None]).reshape(len(players), stocks, k)
    mean = sum(outs[:, :, j] for j in range(k)) / k
    # NaN and inf pass the floor unchanged; run_clearing rejects them.
    return np.maximum(denormalize(mean, norm_params), PRICE_FLOOR)
