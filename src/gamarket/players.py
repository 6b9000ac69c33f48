"""Players: committees of agents and their price predictions.

The whole market's agents are one `Population` over one `neural.Stack`:
`(A,)` arrays of hidden counts, logistic flags and training errors and
one sorted weight array, in one layout: player-major, then stock-major,
then member.  With s stocks and k agents per stock, the committee of
agents (p*s+m)*k to (p*s+m+1)*k - 1 predicts stock m for player p (whose
cash and shares are row p of `market.Portfolios`), and the player's
prediction is the mean of those k agents' outputs.  The trading rules
that turn predictions into orders live in `market`.

The simulation replaces `stack` with its trained copy after each `train`,
so `committee_predict` predicts a (d, stocks) block of a generation's days
in one `forward` call on its weights as they are, and evolution replaces
the whole Population.
Per-player figures come from (players, stocks * k) reshapes of the
stack's arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .data import NormalizationParams, denormalize
from .errors import ConfigError
from .neural import Stack, TrainingWindow, forward

# Denormalized committee predictions are floored here so downstream ratios
# stay defined even if a linear output drifts below zero.  Loaded prices are
# at least `data.PRICE_MIN`, 1e5 times this, so a floored prediction is a fall.
PRICE_FLOOR = 1e-9


# One agent read back from a stack; last_training_error is None until it is trained.
Agent = namedtuple("Agent", "hidden logistic weights last_training_error")


class Population:
    """Every player's agents as one Stack, k >= 1 agents per player and stock.

    `k` is the committee size and `rows` the (A,) index of the stock each
    agent predicts.  `stack` may be replaced by a stack of the same agents
    (the trained copy that `train` returns).
    """

    def __init__(self, stack: Stack, players: int, stocks: int):
        self.k = len(stack) // max(players * stocks, 1)
        if self.k < 1 or len(stack) != players * stocks * self.k:
            raise ConfigError(
                f"{len(stack)} agents cannot be {players} players with the same "
                f"k >= 1 agents for each of the {stocks} prices"
            )
        self.stack, self.players, self.stocks = stack, players, stocks
        self.rows = np.tile(np.repeat(np.arange(stocks), self.k), players)

    def windows(self, window: TrainingWindow) -> TrainingWindow:
        """The (A, n) window whose row i is agent i's stock's row of the (stocks, n) window."""
        return TrainingWindow(window.inputs[self.rows], window.targets[self.rows])

    def iter_agents(self):
        """Every agent as an `Agent`, in population order.

        Kept only for perfbench's `_count_kept`, which reads `evolve_generation`'s result.
        """
        s = self.stack
        for hidden, logistic, weights, error in zip(
            s.hidden.tolist(), s.logistic.tolist(), s.weight_rows(), s.errors.tolist()
        ):
            yield Agent(hidden, logistic, weights, None if math.isnan(error) else error)


def committee_predict(
    population: Population, normalized_prices, norm_params: NormalizationParams
) -> np.ndarray:
    """Every player's predicted next price per stock, for a block of days.

    Normalized prices of shape (d, stocks), one row per day, give a
    (d, players, stocks) array; one day is a (1, stocks) block.  One
    `forward` call runs every agent on its stock's normalized price of each
    day, and each day's outputs equal those of a call for that day alone.
    A committee's outputs are added in committee order from 0, then
    divided by k (numpy's `sum` or `mean` along an axis adds in another
    order from k = 8 up, changing the last bits), and denormalized.  A
    NaN or infinite prediction raises `ConfigError` here, before its
    generation's first day trades.
    """
    p, k = population, population.k
    xs = np.asarray(normalized_prices, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != p.stocks:
        raise ConfigError(
            f"committee_predict needs (days, {p.stocks}) normalized prices, got shape {xs.shape}"
        )
    outs = forward(p.stack, xs.T[p.rows], days=True).T.reshape(-1, p.players, p.stocks, k)
    mean = sum(outs[..., j] for j in range(k)) / k
    predicted = np.maximum(denormalize(mean, norm_params), PRICE_FLOOR)
    if not np.isfinite(predicted).all():  # NaN and inf pass the floor unchanged
        raise ConfigError("predictions must be finite and > 0")
    return predicted
