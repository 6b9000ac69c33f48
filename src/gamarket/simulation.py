"""End-to-end simulation loop: train, predict, clear, record, evolve.

The price history is the `(days, stocks)` array from `load_prices`, which
has already checked every price.  Trading starts once a full training
window of history exists, so the first traded day has index `window` in
the price file; one day index `t` runs over the traded days, and row
`prices_by_day[t]` is the prices everyone trades at that day.
Architectures evolve every `evolution_cadence` trading days, after which
every agent is retrained on the window ending that day.

The whole market is one `players.Population` over one `neural.Stack`,
laid out player-major, then stock-major, then member.  One `build_window`
call gives every stock's (stocks, n) window rows, and `Population.windows`
hands each agent its stock's row: training, scoring and evolution each
take the whole population in one call.  The population is stacked at
start-up and by each evolution; the daily predictions and the next
scoring run on `train`'s trained copy as it is.  Net worths are checked
each day: a price that values a holding beyond the float range is a
`DataError`, not an `inf` in `networth.csv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimulationConfig
from .data import build_window, load_prices, normalize
from .errors import ConservationError, DataError, InsufficientHistoryError, TrainingDivergedError
from .evolution import evolve_generation
from .market import Portfolios, Trade, run_clearing
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


def _net_worths(book: Portfolios, prices: np.ndarray, config: SimulationConfig, t: int):
    """Every player's net worth at day t's prices; one beyond the float range is a DataError."""
    with np.errstate(over="ignore"):
        worths = book.net_worth(prices)
        if np.isfinite(worths).all():
            return worths
        pid = int(np.argmin(np.isfinite(worths)))
        m = int(np.argmax(book.holdings[pid] * prices))  # the holding that overflows
    raise DataError(
        f"day {t}: {config.stocks[m]} price {prices[m]} values player {pid}'s "
        f"{book.holdings[pid, m]} shares beyond the float range"
    )


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
    generations = 0

    window, norm_params = build_window(prices_by_day, config.window, config.window)
    population.stack = train(population.stack, population.windows(window), config.hyperparams())
    record_generation(metrics, 0, population)

    for t in range(config.window, end):
        prices = prices_by_day[t]
        with np.errstate(over="ignore"):  # a price far outside a near-flat window gives inf
            normalized = normalize(prices, norm_params)
        if not np.isfinite(normalized).all():
            m = int(np.argmin(np.isfinite(normalized)))
            raise DataError(
                f"day {t}: {config.stocks[m]} price {prices[m]} does not normalize to a finite "
                f"value against its window's [{norm_params.lo[m]}, {norm_params.hi[m]}]"
            )
        predictions = committee_predict(population, normalized, norm_params)
        report = run_clearing(t, prices, config.total_supply, book, predictions, streams.shuffle)
        trades.extend(report.trades)
        _check_conservation(book, config, t)
        record_networth(metrics, _net_worths(book, prices, config, t), t)

        if (t + 1 - config.window) % config.evolution_cadence == 0 and t + 1 < end:
            window, norm_params = build_window(prices_by_day, t, config.window)
            rows = population.windows(window)
            errors = _score_population(population.stack, rows, metrics, generations)
            population = evolve_generation(
                population, errors, config.ga_params(), streams, config.weight_init_scale
            )
            generations += 1
            population.stack = train(population.stack, rows, config.hyperparams())
            record_generation(metrics, generations, population)

    if config.days >= 1:
        # Score the final population on the last traded day's window.
        window, _ = build_window(prices_by_day, end - 1, config.window)
        _score_population(population.stack, population.windows(window), metrics, generations)
    return RunOutput(config, metrics, trades, population, generations, book)
