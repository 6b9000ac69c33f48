"""End-to-end simulation loop: train, predict, clear, record, evolve.

The price history is the `(days, stocks)` array from `load_prices`, which
has already checked every price.  Trading starts once a full training
window of history exists, so the first traded day has index `window` in
the price file; one day index `t` runs over the traded days, and row
`prices_by_day[t]` is the prices everyone trades at that day.
Architectures evolve every `evolution_cadence` trading days, after which
every agent is retrained on the window ending that day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimulationConfig
from .data import NormalizationParams, build_window, load_prices, normalize
from .errors import ConservationError, InsufficientHistoryError, TrainingDivergedError
from .evolution import evolve_generation
from .market import Portfolios, Trade, run_clearing
from .metrics import RunMetrics, record_generation, record_networth
from .neural import TrainingWindow, evaluate_error, init_random, train
from .players import Player, committee_predict
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
    return [
        Player(
            id=pid,
            committees=[
                [
                    init_random(streams.init, config.weight_init_scale)
                    for _ in range(config.agents_per_stock)
                ]
                for _ in config.stocks
            ],
        )
        for pid in range(config.players)
    ]


def _flatten(players: list[Player], windows: list[TrainingWindow]):
    """Every agent, player by player in committee order, and its stock's window."""
    agents = [agent for player in players for agent in player.iter_agents()]
    agent_windows = [
        windows[m] for player in players for m, group in enumerate(player.committees) for _ in group
    ]
    return agents, agent_windows


def _train_population(
    players: list[Player], windows: list[TrainingWindow], config: SimulationConfig
) -> None:
    """Retrain every agent on its stock's window in one `train` call, in place."""
    trained = iter(train(*_flatten(players, windows), config.hyperparams()))
    for player in players:
        player.committees = [[next(trained) for _ in group] for group in player.committees]


def _build_windows(
    prices_by_day: np.ndarray, t: int, window: int
) -> tuple[list[TrainingWindow], list[NormalizationParams]]:
    """Each stock's training window ending at day t, and its normalization."""
    pairs = [build_window(column, t, window) for column in prices_by_day.T]
    return [w for w, _ in pairs], [p for _, p in pairs]


def _score_population(
    players: list[Player], windows: list[TrainingWindow], metrics: RunMetrics, generation: int
) -> list[list[float]]:
    """Validation MSE per agent, committee order, one list per player.

    The population mean is appended to `metrics.generation_error_rows`.
    Targets lie in [0.1, 0.9], so a mean above 1.0 means the agents did
    not learn, and the run stops with `TrainingDivergedError`.
    """
    flat = evaluate_error(*_flatten(players, windows))
    mean = float(np.mean(flat))
    if mean > 1.0:
        raise TrainingDivergedError(
            f"generation {generation}: mean validation MSE {mean:.3g} is above 1.0; "
            "the agents did not learn (try a smaller learning_rate)"
        )
    metrics.generation_error_rows.append((generation, mean))
    rest = iter(flat)
    return [[next(rest) for _ in player.iter_agents()] for player in players]


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

    windows, norm_params = _build_windows(prices_by_day, config.window, config.window)
    _train_population(players, windows, config)
    record_generation(metrics, 0, players)

    for t in range(config.window, end):
        prices = prices_by_day[t]
        scaled = [normalize(float(price), params) for price, params in zip(prices, norm_params)]
        predictions = committee_predict(players, scaled, norm_params)
        report = run_clearing(t, prices, config.total_supply, book, predictions, streams.shuffle)
        output.trades.extend(report.trades)
        _check_conservation(book, config, t)
        record_networth(metrics, book, prices, t)

        if (t + 1 - config.window) % config.evolution_cadence == 0 and t + 1 < end:
            windows, norm_params = _build_windows(prices_by_day, t, config.window)
            errors = _score_population(players, windows, metrics, output.generations)
            for pid in range(len(players)):
                players[pid] = evolve_generation(
                    players[pid],
                    errors[pid],
                    config.ga_params(),
                    streams,
                    config.weight_init_scale,
                )
            output.generations += 1
            _train_population(players, windows, config)
            record_generation(metrics, output.generations, players)

    if config.days >= 1:
        # Score the final population on the last traded day's window.
        windows, _ = _build_windows(prices_by_day, end - 1, config.window)
        _score_population(players, windows, metrics, output.generations)
    return output
