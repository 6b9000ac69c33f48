"""Tests for price loading, windowing, and normalization."""

import numpy as np
import pytest

from gamarket.data import (
    NORM_HI,
    NORM_LO,
    NormalizationParams,
    build_window,
    denormalize,
    generate_series,
    load_prices,
    normalize,
    write_prices_csv,
)
from gamarket.errors import DataError, InsufficientHistoryError


def test_ramp_window_frozen_oracle():
    # Prices 1..5 with a 4-pair window ending at day 4 span the window exactly,
    # so the normalized chunk is an even ramp from NORM_LO to NORM_HI.
    prices = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    window, params = build_window(prices, t=4, n=4)
    assert params == NormalizationParams(lo=1.0, hi=5.0)
    np.testing.assert_allclose(window.inputs, [0.1, 0.3, 0.5, 0.7], atol=1e-12)
    np.testing.assert_allclose(window.targets, [0.3, 0.5, 0.7, 0.9], atol=1e-12)


def test_window_ignores_prices_outside_it():
    # The spike at day 0 is outside the window ending at day 5 and must not
    # influence the normalization bounds.
    prices = np.array([10.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    _, params = build_window(prices, t=5, n=4)
    assert params == NormalizationParams(lo=1.0, hi=5.0)


def test_normalize_denormalize_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lo = float(rng.uniform(1.0, 100.0))
        hi = lo + float(rng.uniform(0.5, 100.0))
        params = NormalizationParams(lo=lo, hi=hi)
        prices = rng.uniform(lo, hi, size=20)
        scaled = normalize(prices, params)
        assert scaled.min() >= NORM_LO - 1e-12
        assert scaled.max() <= NORM_HI + 1e-12
        np.testing.assert_allclose(denormalize(scaled, params), prices, rtol=1e-12)
    # Scalars take the same path.
    params = NormalizationParams(lo=2.0, hi=4.0)
    assert normalize(2.0, params) == pytest.approx(NORM_LO)
    assert normalize(4.0, params) == pytest.approx(NORM_HI)
    assert denormalize(0.5, params) == pytest.approx(3.0)


def test_degenerate_window_maps_to_midpoint():
    window, params = build_window(np.full(6, 7.25), t=5, n=4)
    assert params.lo == params.hi == 7.25
    assert np.all(window.inputs == 0.5)
    assert np.all(window.targets == 0.5)
    # Denormalizing anything from a flat window recovers the constant price.
    assert denormalize(0.9, params) == 7.25
    np.testing.assert_array_equal(denormalize(np.array([0.1, 0.5]), params), [7.25, 7.25])


def test_build_window_bounds_checks():
    prices = np.arange(1.0, 11.0)
    with pytest.raises(DataError):
        build_window(prices, t=4, n=0)
    with pytest.raises(InsufficientHistoryError):
        build_window(prices, t=3, n=4)
    with pytest.raises(DataError):
        build_window(prices, t=10, n=4)


def test_generate_series_deterministic():
    a = generate_series(days=40, seed=9)
    b = generate_series(days=40, seed=9)
    c = generate_series(days=40, seed=10)
    np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a[:, m], c[:, m]) for m in range(3))
    assert a.shape == (40, 3) and a.dtype == np.float64
    assert np.all(a > 0)
    assert a[0, 0] == 10600.0


def test_generate_series_validation(tmp_path):
    with pytest.raises(DataError):
        generate_series(days=0, seed=1)
    # Two names for a one-stock history.
    one_stock = generate_series(10, 1, start_prices=(1.0,))
    with pytest.raises(DataError):
        write_prices_csv(tmp_path / "unused.csv", ("A", "B"), one_stock)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "prices.csv"
    prices = generate_series(days=60, seed=3)
    write_prices_csv(path, ("DJIA", "NASDAQ", "SP500"), prices)
    loaded = load_prices(path, window=50)
    assert loaded.shape == prices.shape and loaded.dtype == np.float64
    # Written with four decimal places, so absolute error is at most 5e-5.
    np.testing.assert_allclose(loaded, prices, atol=1e-4)


def test_write_prices_csv_rejects_ragged_series(tmp_path):
    # A flat array has no (days, stocks) rows to write.
    with pytest.raises(DataError):
        write_prices_csv(tmp_path / "unused.csv", ("A", "B"), np.ones(5))


def _write_rows(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows) + "\n")


def test_load_prices_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_prices(tmp_path / "nope.csv")


def test_load_prices_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_prices(path)


def test_load_prices_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [["day", "DJIA", "NASDAQ"], [0, 1.0, 2.0]])
    with pytest.raises(DataError, match="header"):
        load_prices(path)


def test_load_prices_row_width(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [["day", "A", "B"], [0, 1.0, 2.0], [1, 3.0]])
    with pytest.raises(DataError, match=":3:"):
        load_prices(path, expected_stocks=("A", "B"))


def test_load_prices_malformed_cell(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [["day", "A"], [0, 1.0], [1, "oops"]])
    with pytest.raises(DataError, match=":3:.*malformed"):
        load_prices(path, expected_stocks=("A",))


def test_load_prices_day_gap(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [["day", "A"], [0, 1.0], [2, 2.0]])
    with pytest.raises(DataError, match="does not follow"):
        load_prices(path, expected_stocks=("A",))


def test_load_prices_nonpositive_price(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [["day", "A"], [0, 1.0], [1, -2.0]])
    with pytest.raises(DataError, match=r":3: price -2.0 for A is not finite and > 0"):
        load_prices(path, expected_stocks=("A",))


def test_load_prices_too_short_for_window(tmp_path):
    path = tmp_path / "short.csv"
    _write_rows(path, [["day", "A"]] + [[d, 1.0 + d] for d in range(10)])
    with pytest.raises(InsufficientHistoryError):
        load_prices(path, expected_stocks=("A",), window=50)
    # Exactly window + 2 rows is accepted.
    loaded = load_prices(path, expected_stocks=("A",), window=8)
    assert loaded.shape == (10, 1)
