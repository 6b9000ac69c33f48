"""End-to-end simulation loop, one generation at a time: evolve, train, predict, trade, score.

The price history is the `(days, stocks)` array from `load_prices`, which
has already checked every price against `data`'s price range, so no price
overflows a net worth or a normalization here.  Trading starts once a
full training window of history exists, so the first traded day has index
`window` in the price file, and row `prices_by_day[t]` is the prices
everyone trades at on day t.  Each generation trades `evolution_cadence`
days (the last one may trade fewer) and is then scored on the window
ending on its last day.  That score is the next generation's fitness, or
the final score; the next generation evolves on it, is retrained on the
same window, and normalizes its prices with that window's min/max.

The whole market is one `players.Population` over one `neural.Stack`,
laid out player-major, then stock-major, then member.  One `build_window`
call gives every stock's (stocks, n) window rows, and `Population.windows`
hands each agent its stock's row: training, scoring and evolution each
take the whole population in one call.  The population is stacked at
start-up and by each evolution; the predictions and the scoring run on
`train`'s trained copy as it is.

Trading never moves a price: day t trades at its historical close.  So a
generation's decisions are known once it is trained: `committee_predict`
predicts its days in blocks of at most `window` days, so no hidden-layer
buffer outgrows the one that scoring uses, and one `decide` call fixes
every day's sides and stocks.  Each day's prediction and decision keep
the bits of a call for that day alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .data import NormalizationParams, build_window, load_prices, normalize
from .errors import ConservationError, InsufficientHistoryError, TrainingDivergedError
from .evolution import evolve_generation
from .market import Portfolios, Trade, decide, run_clearing
from .metrics import RunMetrics, record_generation, record_networth
from .neural import Stack, TrainingWindow, draw_population, evaluate_error, train
from .players import Population, committee_predict
from .rng import make_streams


@dataclass
class RunOutput:
    config: SimulationConfig
    metrics: RunMetrics
    trades: list[Trade]
    population: Population
    generations: int
    portfolios: Portfolios


def _score_population(
    stack: Stack, window: TrainingWindow, metrics: RunMetrics, generation: int
) -> list[float]:
    """Validation MSE of agent i over row i of the (A, n) window, population order.

    The population mean is appended to `metrics.generation_error_rows`.
    Targets lie in [0.1, 0.9], so a mean above 1.0 means the agents did
    not learn, and the run stops with `TrainingDivergedError`.
    """
    errors = evaluate_error(stack, window)
    mean = float(np.mean(errors))
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


def _predict_generation(
    population: Population, prices: np.ndarray, norm_params: NormalizationParams, most: int
) -> np.ndarray:
    """The (days, players, stocks) predictions of a generation's days, `most` days per call."""
    days = normalize(prices, norm_params)
    blocks = [days[first : first + most] for first in range(0, len(days), most)]
    return np.concatenate([committee_predict(population, b, norm_params) for b in blocks])


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
    stocks = len(config.stocks)
    size = config.players * stocks * config.agents_per_stock
    stack = draw_population(size, streams.init, config.weight_init_scale)
    population = Population(stack, config.players, stocks)
    book = Portfolios.endow(config.players, config.total_supply, config.initial_cash)
    metrics = RunMetrics()
    trades: list[Trade] = []

    window, norm_params = build_window(prices_by_day, config.window, config.window)
    population.stack = train(population.stack, population.windows(window), config.hyperparams())
    record_generation(metrics, 0, population)

    starts = range(config.window, end, config.evolution_cadence)
    for generation, start in enumerate(starts):
        if generation:
            population = evolve_generation(
                population, errors, config.ga_params(), streams, config.weight_init_scale
            )
            population.stack = train(population.stack, rows, config.hyperparams())
            record_generation(metrics, generation, population)
        stop = min(start + config.evolution_cadence, end)
        traded = prices_by_day[start:stop]
        predictions = _predict_generation(population, traded, norm_params, config.window)
        decisions = decide(predictions, traded[:, None], config.total_supply)
        for t, prices, *today in zip(range(start, stop), traded, *decisions):
            report = run_clearing(t, prices, config.total_supply, book, today, streams.shuffle)
            trades.extend(report.trades)
            _check_conservation(book, config, t)
            record_networth(metrics, book.net_worth(prices), t)
        # The next evolution's fitness, or the final score.
        window, norm_params = build_window(prices_by_day, stop - 1, config.window)
        rows = population.windows(window)
        errors = _score_population(population.stack, rows, metrics, generation)
    return RunOutput(config, metrics, trades, population, max(len(starts) - 1, 0), book)
