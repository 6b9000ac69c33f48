"""Price history: CSV loading, training windows, normalization, synthetic data.

The on-disk format is a single CSV with a `day` column followed by one
closing-price column per stock, e.g. `day,DJIA,NASDAQ,SP500`.  In memory
the history is one `(days, stocks)` float64 array: row t holds day t's
closing prices, column m stock m's series.  `load_prices` is the only
place prices are checked: data row t must be day t, counting from 0, and
every price must lie in [PRICE_MIN, PRICE_MAX], and a bad row is a
`DataError` naming the file and line.  Inside that range no holding's
value and no normalized price can leave the float range, so nothing
downstream checks for overflow.  How many rows a run needs is
`run_simulation`'s check.
"""

from __future__ import annotations

import csv
import io
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

# The prices `load_prices` accepts, and `write_prices_csv` writes:
# - PRICE_MIN is the smallest price written at 4 decimals (0.0001), and
#   1e5 times `players.PRICE_FLOOR`, so a floored prediction reads as a fall;
# - PRICE_MAX * (2**63 - 1) is about 9.2e30, so no holding of 64-bit shares
#   is worth more than a float holds;
# - PRICE_MAX / np.spacing(PRICE_MIN) is about 7.4e31, so no window, however
#   flat, normalizes a price to a value beyond the float range.
PRICE_MIN = 1e-4
PRICE_MAX = 1e12


@dataclass(frozen=True)
class NormalizationParams:
    """Per-stock min/max, (stocks,) arrays, of the window mapped onto [NORM_LO, NORM_HI]."""

    lo: np.ndarray
    hi: np.ndarray


def normalize(prices, params: NormalizationParams) -> np.ndarray:
    """Map prices, stock on the last axis, onto [NORM_LO, NORM_HI]; a flat window maps to 0.5."""
    span = params.hi - params.lo
    scaled = NORM_LO + (NORM_HI - NORM_LO) * (prices - params.lo) / np.where(span == 0, 1.0, span)
    return np.where(span == 0, 0.5, scaled)


def denormalize(values, params: NormalizationParams) -> np.ndarray:
    """Inverse of normalize; a constant window maps back to its constant."""
    span = params.hi - params.lo
    unscaled = params.lo + (values - NORM_LO) * span / (NORM_HI - NORM_LO)
    return np.where(span == 0, params.lo, unscaled)


def build_window(
    prices_by_day: np.ndarray, t: int, n: int
) -> tuple[TrainingWindow, NormalizationParams]:
    """Every stock's window of the n day-to-day price pairs ending at day t.

    Row m of the (stocks, n) inputs and targets holds stock m's pairs
    (p[t-n+i], p[t-n+i+1]) of the (days, stocks) `prices_by_day`, i in 0..n-1,
    normalized with the min/max of the prices they touch.  Returns the
    window with those (stocks,) min/max arrays, to denormalize predictions.
    """
    if n < 1:
        raise DataError(f"window size must be >= 1, got {n}")
    if t < n:
        raise InsufficientHistoryError(
            f"day {t} has only {t} prior prices, window needs {n}"
        )
    if t >= len(prices_by_day):
        raise DataError(f"day {t} is beyond the end of the {len(prices_by_day)}-day price history")
    chunk = prices_by_day[t - n : t + 1]
    params = NormalizationParams(lo=chunk.min(axis=0), hi=chunk.max(axis=0))
    scaled = normalize(chunk, params).T
    return TrainingWindow(inputs=scaled[:, :-1].copy(), targets=scaled[:, 1:].copy()), params


def load_prices(path, expected_stocks=DEFAULT_STOCKS) -> np.ndarray:
    """Load the price history from a CSV file as a (days, stocks) array.

    The header must be exactly `day` followed by the expected stock names.
    Raises a DataError naming the offending line for a malformed row, a
    day that is not its data row's index, or a price outside
    [PRICE_MIN, PRICE_MAX] (NaN included).
    """
    expected_stocks = tuple(expected_stocks)
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise DataError(f"price file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    wanted = ["day", *expected_stocks]
    if [h.strip() for h in header] != wanted:
        raise DataError(f"{path}: header {header!r} does not match {wanted!r}")
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(wanted):
            raise DataError(f"{path}:{lineno}: expected {len(wanted)} fields, got {len(row)}")
        try:
            day = int(row[0])
            values = [float(cell) for cell in row[1:]]
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed row {row!r}") from None
        if day != len(rows):
            raise DataError(
                f"{path}:{lineno}: day {day} should be {len(rows)} (day t is row t, from 0)"
            )
        for name, value in zip(expected_stocks, values):
            if not PRICE_MIN <= value <= PRICE_MAX:  # false for nan too
                raise DataError(
                    f"{path}:{lineno}: price {value} for {name} is outside "
                    f"[{PRICE_MIN:g}, {PRICE_MAX:g}]"
                )
        rows.append(values)
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
    if not (math.isfinite(drift) and math.isfinite(volatility) and volatility >= 0):
        raise DataError(
            f"drift and volatility must be finite and volatility >= 0, got {drift}, {volatility}"
        )
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    paths = []
    for p0 in start_prices:
        steps = rng.normal(loc=drift, scale=volatility, size=days - 1)
        with np.errstate(over="ignore"):  # an overflowing walk is refused when written
            paths.append(float(p0) * np.exp(np.concatenate([[0.0], np.cumsum(steps)])))
    return np.column_stack(paths)


def write_prices_csv(path, names, prices: np.ndarray) -> None:
    """Write a (days, stocks) price array in the loadable CSV format.

    Prices are written to 4 decimals.  A price that would not load (one
    whose written value lies outside [PRICE_MIN, PRICE_MAX]) is a
    `DataError`, and no file is written.
    """
    if prices.ndim != 2 or prices.shape[1] != len(names):
        raise DataError(f"prices of shape {prices.shape} need one column per name in {names}")
    rows = [[f"{price:.4f}" for price in row] for row in prices]
    for day, row in enumerate(rows):
        for m, cell in enumerate(row):
            if not PRICE_MIN <= float(cell) <= PRICE_MAX:  # false for nan too
                raise DataError(
                    f"day {day}: {names[m]} would be written as {cell} (price "
                    f"{float(prices[day, m])!r}), which is outside [{PRICE_MIN:g}, {PRICE_MAX:g}]"
                )
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["day", *names])
        for day, row in enumerate(rows):
            writer.writerow([day, *row])
