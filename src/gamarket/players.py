"""Players: committees of agents and their price predictions.

The whole market's agents are one `Population`: one flat list, player-major,
then stock-major, then member.  With s stocks and k agents per stock, the
committee `agents[(p*s+m)*k : (p*s+m+1)*k]` predicts stock m for player p
(whose cash and shares are row p of `market.Portfolios`), and the player's
prediction is the mean of those k agents' outputs.  The trading rules that
turn predictions into orders live in `market`.

After training, `agents` is the `neural.Stack` that `train` returned: the
generation's weights already sorted and stacked, so each day's one
`forward` call runs on them as they are.  Evolution replaces the list
wholesale (a new Population) and the next `train` stacks it again.
Per-player figures come from (players, stocks * k) reshapes of the
population's arrays, never from per-player slices of the list.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .data import NormalizationParams, denormalize
from .errors import ConfigError
from .neural import Agent, TrainingWindow, forward

# Denormalized committee predictions are floored here so downstream ratios
# stay defined even if a linear output drifts below zero.
PRICE_FLOOR = 1e-9


class Population:
    """Every player's agents in one flat list, k >= 1 agents per player and stock.

    `k` is the committee size and `rows` the (A,) index of the stock each
    agent predicts.  `agents` may be replaced by a list of the same length
    (a retrained population, the `Stack` that `train` returns).
    """

    def __init__(self, agents: Sequence[Agent], players: int, stocks: int):
        self.k = len(agents) // max(players * stocks, 1)
        if self.k < 1 or len(agents) != players * stocks * self.k:
            raise ConfigError(
                f"{len(agents)} agents cannot be {players} players with the same "
                f"k >= 1 agents for each of the {stocks} prices"
            )
        self.agents, self.players, self.stocks = agents, players, stocks
        self.rows = np.tile(np.repeat(np.arange(stocks), self.k), players)

    def architectures(self) -> tuple[np.ndarray, np.ndarray]:
        """Every agent's hidden count and logistic flag, as (A,) int and bool arrays."""
        hidden = np.array([agent.hidden for agent in self.agents], dtype=int)
        return hidden, np.array([agent.logistic for agent in self.agents], dtype=bool)

    def windows(self, window: TrainingWindow) -> TrainingWindow:
        """The (A, n) window whose row i is agent i's stock's row of the (stocks, n) window."""
        return TrainingWindow(window.inputs[self.rows], window.targets[self.rows])

    def iter_agents(self):
        # Kept only for perfbench's `_count_kept`, which reads evolve_generation's result.
        return iter(self.agents)


def committee_predict(
    population: Population, normalized_prices, norm_params: NormalizationParams
) -> np.ndarray:
    """Every player's predicted next price per stock: a (players, stocks) array.

    One `forward` call runs every agent on its stock's normalized price.
    A committee's outputs are added in committee order from 0, then divided
    by k (numpy's `sum` or `mean` along an axis adds in another order from
    k = 8 up, changing the last bits), and denormalized.
    """
    p, k = population, population.k
    outs = forward(p.agents, normalized_prices[p.rows, None]).reshape(p.players, p.stocks, k)
    mean = sum(outs[:, :, j] for j in range(k)) / k
    # NaN and inf pass the floor unchanged; run_clearing rejects them.
    return np.maximum(denormalize(mean, norm_params), PRICE_FLOOR)
