"""Price history: CSV loading, training windows, normalization, synthetic data.

The on-disk format is a single CSV with a `day` column followed by one
closing-price column per stock, e.g. `day,DJIA,NASDAQ,SP500`.  In memory
the history is one `(days, stocks)` float64 array: row t holds day t's
closing prices, column m stock m's series.  `load_prices` is the only
place prices are checked: day indices must be consecutive integers and
every price finite and strictly positive, and a bad row is a `DataError`
naming the file and line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InsufficientHistoryError
from .neural import TrainingWindow

DEFAULT_STOCKS = ("DJIA", "NASDAQ", "SP500")
DEFAULT_START_PRICES = (10600.0, 2050.0, 1220.0)

# Normalized prices live on [NORM_LO, NORM_HI] so that tanh/logistic units
# never have to reach their asymptotes to represent a window extreme.
NORM_LO = 0.1
NORM_HI = 0.9


@dataclass(frozen=True)
class NormalizationParams:
    """Min/max of the source window that was mapped onto [NORM_LO, NORM_HI]."""

    lo: float
    hi: float


def normalize(price, params: NormalizationParams):
    """Map a price (scalar or array) onto the normalized interval."""
    if params.hi == params.lo:
        # Degenerate window (constant prices): everything maps to the midpoint.
        if isinstance(price, np.ndarray):
            return np.full(price.shape, 0.5)
        return 0.5
    return NORM_LO + (NORM_HI - NORM_LO) * (price - params.lo) / (params.hi - params.lo)


def denormalize(value, params: NormalizationParams):
    """Inverse of normalize; a degenerate window maps back to its constant."""
    if params.hi == params.lo:
        if isinstance(value, np.ndarray):
            return np.full(value.shape, params.lo)
        return params.lo
    return params.lo + (value - NORM_LO) * (params.hi - params.lo) / (NORM_HI - NORM_LO)


def build_window(prices: np.ndarray, t: int, n: int) -> tuple[TrainingWindow, NormalizationParams]:
    """Training window of the n day-to-day price pairs ending at day t.

    `prices` is one stock's daily closing prices, a `load_prices` column.
    Pairs are (p[t-n+i], p[t-n+i+1]) for i in 0..n-1, normalized with the
    min/max of the prices the window touches.  Returns the window together
    with the normalization parameters so predictions can be denormalized.
    """
    if n < 1:
        raise DataError(f"window size must be >= 1, got {n}")
    if t < n:
        raise InsufficientHistoryError(
            f"day {t} has only {t} prior prices, window needs {n}"
        )
    if t >= len(prices):
        raise DataError(f"day {t} is beyond the end of the {len(prices)}-day price history")
    chunk = prices[t - n : t + 1]
    params = NormalizationParams(lo=float(chunk.min()), hi=float(chunk.max()))
    scaled = normalize(chunk, params)
    return TrainingWindow(inputs=scaled[:-1], targets=scaled[1:]), params


def load_prices(path, expected_stocks=DEFAULT_STOCKS, window: int = 50) -> np.ndarray:
    """Load the price history from a CSV file as a (days, stocks) array.

    The header must be exactly `day` followed by the expected stock names.
    Raises a DataError naming the offending line for a malformed row, a
    day gap, or a price that is not finite and > 0, and
    InsufficientHistoryError when fewer than window + 2 rows are present.
    """
    expected_stocks = tuple(expected_stocks)
    try:
        handle = open(path, newline="")
    except FileNotFoundError:
        raise DataError(f"price file not found: {path}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        wanted = ["day", *expected_stocks]
        if [h.strip() for h in header] != wanted:
            raise DataError(f"{path}: header {header!r} does not match {wanted!r}")
        days: list[int] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(wanted):
                raise DataError(f"{path}:{lineno}: expected {len(wanted)} fields, got {len(row)}")
            try:
                day = int(row[0])
                values = [float(cell) for cell in row[1:]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row {row!r}") from None
            if days and day != days[-1] + 1:
                raise DataError(
                    f"{path}:{lineno}: day {day} does not follow {days[-1]} (no gaps allowed)"
                )
            for name, value in zip(expected_stocks, values):
                if not (math.isfinite(value) and value > 0):
                    raise DataError(
                        f"{path}:{lineno}: price {value} for {name} is not finite and > 0"
                    )
            days.append(day)
            rows.append(values)
    if len(days) < window + 2:
        raise InsufficientHistoryError(
            f"{path}: {len(days)} rows is too short for window {window} (need >= {window + 2})"
        )
    return np.array(rows, dtype=float)


def generate_series(
    days: int,
    seed: int,
    start_prices=DEFAULT_START_PRICES,
    drift: float = 2e-4,
    volatility: float = 0.012,
) -> np.ndarray:
    """Synthetic (days, stocks) closing prices: a geometric random walk per stock."""
    if days < 1:
        raise DataError(f"days must be >= 1, got {days}")
    rng = np.random.default_rng(seed)
    paths = []
    for p0 in start_prices:
        steps = rng.normal(loc=drift, scale=volatility, size=days - 1)
        paths.append(float(p0) * np.exp(np.concatenate([[0.0], np.cumsum(steps)])))
    return np.column_stack(paths)


def write_prices_csv(path, names, prices: np.ndarray) -> None:
    """Write a (days, stocks) price array in the loadable CSV format."""
    if prices.ndim != 2 or prices.shape[1] != len(names):
        raise DataError(f"prices of shape {prices.shape} need one column per name in {names}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["day", *names])
        for day, row in enumerate(prices):
            writer.writerow([day] + [f"{price:.4f}" for price in row])
