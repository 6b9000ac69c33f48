"""Players: committees of agents and their price predictions.

A player keeps one committee of k agents per stock (its cash and shares are
a row of `market.Portfolios`).  Its prediction for a stock is the mean of
that committee's outputs.  The trading rules that turn predictions into
orders live in `market`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # NaN and inf pass the floor unchanged; run_clearing rejects them.
        predictions.append(max(float(denormalize(mean_out, params)), PRICE_FLOOR))
    return predictions
