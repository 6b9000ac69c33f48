"""End-to-end simulation loop: train, predict, clear, record, evolve.

The price history is the `(days, stocks)` array from `load_prices`, which
has already checked every price.  Trading starts once a full training
window of history exists, so the first traded day has index `window` in
the price file; one day index `t` runs over the traded days, and row
`prices_by_day[t]` is the prices everyone trades at that day.
Architectures evolve every `evolution_cadence` trading days, after which
every agent is retrained on the window ending that day.

The population has one layout: player-major, then stock-major, then
member, so each player's `agents[m*k:(m+1)*k]` predict stock m.  One
`build_window` call gives every stock's (stocks, n) window rows, and
`population` hands each agent its stock's row: training and scoring run
the whole population in one call and cut the result back per player.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimulationConfig
from .data import build_window, load_prices, normalize
from .errors import ConservationError, InsufficientHistoryError, TrainingDivergedError
from .evolution import evolve_generation
from .market import Portfolios, Trade, run_clearing
from .metrics import RunMetrics, record_generation, record_networth
from .neural import TrainingWindow, evaluate_error, init_random, train
from .players import Player, committee_predict, population
from .rng import RandomStreams, make_streams


@dataclass
class RunOutput:
    config: SimulationConfig
    metrics: RunMetrics
    trades: list[Trade] = field(default_factory=list)
    players: list[Player] = field(default_factory=list)
    generations: int = 0
    portfolios: Portfolios | None = None


def _build_players(config: SimulationConfig, streams: RandomStreams) -> list[Player]:
    per_player = len(config.stocks) * config.agents_per_stock
    return [
        Player([init_random(streams.init, config.weight_init_scale) for _ in range(per_player)])
        for _ in range(config.players)
    ]


def _per_player(players: list[Player], flat: list) -> list[list]:
    """Cut a population-long list back into one slice per player."""
    n = len(players[0].agents)
    return [flat[i * n : (i + 1) * n] for i in range(len(players))]


def _agent_rows(players: list[Player], window: TrainingWindow):
    """Every agent, population order, and the (A, n) window of its stock's rows."""
    agents, rows = population(players, len(window.inputs))
    return agents, TrainingWindow(window.inputs[rows], window.targets[rows])


def _train_population(
    players: list[Player], window: TrainingWindow, config: SimulationConfig
) -> None:
    """Retrain every agent on its stock's window row in one `train` call, in place."""
    trained = train(*_agent_rows(players, window), config.hyperparams())
    for player, agents in zip(players, _per_player(players, trained)):
        player.agents = agents


def _score_population(
    players: list[Player], window: TrainingWindow, metrics: RunMetrics, generation: int
) -> list[list[float]]:
    """Validation MSE per agent, one list per player in its agents' order.

    The population mean is appended to `metrics.generation_error_rows`.
    Targets lie in [0.1, 0.9], so a mean above 1.0 means the agents did
    not learn, and the run stops with `TrainingDivergedError`.
    """
    flat = evaluate_error(*_agent_rows(players, window))
    mean = float(np.mean(flat))
    if mean > 1.0:
        raise TrainingDivergedError(
            f"generation {generation}: mean validation MSE {mean:.3g} is above 1.0; "
            "the agents did not learn (try a smaller learning_rate)"
        )
    metrics.generation_error_rows.append((generation, mean))
    return _per_player(players, flat)


def _check_conservation(book: Portfolios, config: SimulationConfig, t: int) -> None:
    """Shares and cash only change hands: totals stay at their day-0 values."""
    held = book.holdings.sum(axis=0).tolist()
    for m, supply in enumerate(config.total_supply):
        if held[m] != supply:
            raise ConservationError(
                f"day {t}: {held[m]} shares of {config.stocks[m]} held, supply is {supply}"
            )
    cash, expected = math.fsum(book.cash.tolist()), config.players * config.initial_cash
    if not math.isclose(cash, expected, rel_tol=1e-9):
        raise ConservationError(f"day {t}: total cash {cash!r}, expected {expected!r}")


def run_simulation(config: SimulationConfig) -> RunOutput:
    """Run the whole market simulation described by `config`."""
    config.validate()
    prices_by_day = load_prices(config.input_path, config.stocks)
    needed = config.window + max(config.days, 1)
    if len(prices_by_day) < needed:
        raise InsufficientHistoryError(
            f"{config.input_path}: {len(prices_by_day)} rows cannot cover window "
            f"{config.window} plus {config.days} trading days (need >= {needed})"
        )
    end = config.window + config.days  # one past the last traded day
    streams = make_streams(config.seed)
    players = _build_players(config, streams)
    book = Portfolios.endow(config.players, config.total_supply, config.initial_cash)
    metrics = RunMetrics()
    output = RunOutput(config=config, metrics=metrics, players=players, portfolios=book)

    window, norm_params = build_window(prices_by_day, config.window, config.window)
    _train_population(players, window, config)
    record_generation(metrics, 0, players)

    for t in range(config.window, end):
        prices = prices_by_day[t]
        predictions = committee_predict(players, normalize(prices, norm_params), norm_params)
        report = run_clearing(t, prices, config.total_supply, book, predictions, streams.shuffle)
        output.trades.extend(report.trades)
        _check_conservation(book, config, t)
        record_networth(metrics, book, prices, t)

        if (t + 1 - config.window) % config.evolution_cadence == 0 and t + 1 < end:
            window, norm_params = build_window(prices_by_day, t, config.window)
            errors = _score_population(players, window, metrics, output.generations)
            for pid in range(len(players)):
                players[pid] = evolve_generation(
                    players[pid],
                    errors[pid],
                    config.ga_params(),
                    streams,
                    config.weight_init_scale,
                )
            output.generations += 1
            _train_population(players, window, config)
            record_generation(metrics, output.generations, players)

    if config.days >= 1:
        # Score the final population on the last traded day's window.
        window, _ = build_window(prices_by_day, end - 1, config.window)
        _score_population(players, window, metrics, output.generations)
    return output
