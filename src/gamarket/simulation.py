"""End-to-end simulation loop: train, predict, clear, record, evolve.

Trading starts once a full training window of history exists, so the
first traded day has index `window` in the price file.  Architectures
evolve every `evolution_cadence` trading days, after which every agent is
retrained on the window ending that day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimulationConfig
from .data import NormalizationParams, PriceSeries, build_window, load_prices, normalize
from .errors import ConservationError, InsufficientHistoryError, TrainingDivergedError
from .evolution import evolve_generation
from .market import Market, Portfolios, Trade, advance_day, announce_price, run_clearing
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
                    init_random((1, 10), streams.init, config.weight_init_scale)
                    for _ in range(config.agents_per_stock)
                ]
                for _ in config.stocks
            ],
        )
        for pid in range(config.players)
    ]


def _train_population(
    players: list[Player], windows: list[TrainingWindow], config: SimulationConfig
) -> None:
    """Retrain every agent on its stock's window, in place."""
    hp = config.hyperparams()
    for player in players:
        player.committees = [
            [train(agent, windows[m], hp) for agent in group]
            for m, group in enumerate(player.committees)
        ]


def _build_windows(
    series: list[PriceSeries], t: int, window: int
) -> tuple[list[TrainingWindow], list[NormalizationParams]]:
    windows = []
    params = []
    for s in series:
        w, p = build_window(s, t, window)
        windows.append(w)
        params.append(p)
    return windows, params


def _score_population(
    players: list[Player], windows: list[TrainingWindow], metrics: RunMetrics, generation: int
) -> list[list[float]]:
    """Validation MSE per agent, committee order, one list per player.

    The population mean is appended to `metrics.generation_error_rows`.
    Targets lie in [0.1, 0.9], so a mean above 1.0 means the agents did
    not learn, and the run stops with `TrainingDivergedError`.
    """
    errors = [
        [
            evaluate_error(agent, windows[m])
            for m, group in enumerate(player.committees)
            for agent in group
        ]
        for player in players
    ]
    mean = float(np.mean([e for per_player in errors for e in per_player]))
    if mean > 1.0:
        raise TrainingDivergedError(
            f"generation {generation}: mean validation MSE {mean:.3g} is above 1.0; "
            "the agents did not learn (try a smaller learning_rate)"
        )
    metrics.generation_error_rows.append((generation, mean))
    return errors


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
    series = load_prices(config.input_path, config.stocks, config.window)
    needed = config.window + max(config.days, 1)
    if len(series[0]) < needed:
        raise InsufficientHistoryError(
            f"{config.input_path}: {len(series[0])} rows cannot cover window "
            f"{config.window} plus {config.days} trading days (need >= {needed})"
        )
    streams = make_streams(config.seed)
    market = Market.from_series(series, list(config.total_supply), t=config.window)
    players = _build_players(config, streams)
    book = Portfolios.endow(config.players, config.total_supply, config.initial_cash)
    metrics = RunMetrics()
    output = RunOutput(config=config, metrics=metrics, players=players, portfolios=book)

    windows, norm_params = _build_windows(series, market.t, config.window)
    _train_population(players, windows, config)
    record_generation(metrics, 0, players)

    for day in range(1, config.days + 1):
        prices = announce_price(market)
        scaled = [normalize(float(prices[m]), norm_params[m]) for m in range(len(series))]
        predictions = [committee_predict(player, scaled, norm_params) for player in players]
        report = run_clearing(market, book, predictions, streams.shuffle)
        output.trades.extend(report.trades)
        _check_conservation(book, config, market.t)
        record_networth(metrics, book, prices, market.t)

        if day % config.evolution_cadence == 0 and day < config.days:
            windows, norm_params = _build_windows(series, market.t, config.window)
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
        advance_day(market)

    if config.days >= 1:
        # Score the final population on the last completed day's window.
        windows, _ = _build_windows(series, market.t - 1, config.window)
        _score_population(players, windows, metrics, output.generations)
    return output
