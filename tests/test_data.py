"""Tests for price loading, windowing, and normalization."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gamarket.data import (
    NORM_HI,
    NORM_LO,
    PRICE_MAX,
    PRICE_MIN,
    NormalizationParams,
    build_window,
    denormalize,
    generate_series,
    load_prices,
    normalize,
    write_prices_csv,
)
from gamarket.config import SimulationConfig
from gamarket.errors import DataError, InsufficientHistoryError
from gamarket.simulation import run_simulation


def test_ramp_window_frozen_oracle():
    # Prices 1..5 with a 4-pair window ending at day 4 span the window exactly,
    # so the normalized chunk is an even ramp from NORM_LO to NORM_HI.
    prices = np.array([[1.0], [2.0], [3.0], [4.0], [5.0]])
    window, params = build_window(prices, t=4, n=4)
    assert (params.lo.tolist(), params.hi.tolist()) == ([1.0], [5.0])
    np.testing.assert_allclose(window.inputs, [[0.1, 0.3, 0.5, 0.7]], atol=1e-12)
    np.testing.assert_allclose(window.targets, [[0.3, 0.5, 0.7, 0.9]], atol=1e-12)


def test_window_ignores_prices_outside_it():
    # The spike at day 0 is outside the window ending at day 5 and must not
    # influence the normalization bounds.
    prices = np.array([10.0, 1.0, 2.0, 3.0, 4.0, 5.0])[:, None]
    _, params = build_window(prices, t=5, n=4)
    assert (params.lo.tolist(), params.hi.tolist()) == ([1.0], [5.0])


def test_normalize_denormalize_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lo = float(rng.uniform(1.0, 100.0))
        hi = lo + float(rng.uniform(0.5, 100.0))
        params = NormalizationParams(lo=np.array([lo]), hi=np.array([hi]))
        prices = rng.uniform(lo, hi, size=(20, 1))
        scaled = normalize(prices, params)
        assert scaled.min() >= NORM_LO - 1e-12
        assert scaled.max() <= NORM_HI + 1e-12
        np.testing.assert_allclose(denormalize(scaled, params), prices, rtol=1e-12)
    # A day's prices, one per stock, take the same path.
    params = NormalizationParams(lo=np.array([2.0, 2.0]), hi=np.array([4.0, 4.0]))
    np.testing.assert_allclose(normalize(np.array([2.0, 4.0]), params), [NORM_LO, NORM_HI])
    np.testing.assert_allclose(denormalize(np.array([0.5, 0.5]), params), [3.0, 3.0])


def test_degenerate_window_maps_to_midpoint():
    window, params = build_window(np.full((6, 1), 7.25), t=5, n=4)
    assert params.lo.tolist() == params.hi.tolist() == [7.25]
    assert np.all(window.inputs == 0.5)
    assert np.all(window.targets == 0.5)
    # Denormalizing anything from a flat window recovers the constant price.
    assert denormalize(np.array([0.9]), params).tolist() == [7.25]
    np.testing.assert_array_equal(denormalize(np.array([[0.1], [0.5]]), params), [[7.25], [7.25]])


def test_build_window_bounds_checks():
    prices = np.arange(1.0, 11.0)[:, None]
    with pytest.raises(DataError):
        build_window(prices, t=4, n=0)
    with pytest.raises(InsufficientHistoryError):
        build_window(prices, t=3, n=4)
    with pytest.raises(DataError):
        build_window(prices, t=10, n=4)


def reference_window(column, t, n):
    """One stock's scalar window: (inputs, targets, lo, hi), as before windows were arrays."""
    chunk = column[t - n : t + 1]
    lo, hi = float(chunk.min()), float(chunk.max())
    if hi == lo:
        scaled = np.full(chunk.shape, 0.5)
    else:
        scaled = NORM_LO + (NORM_HI - NORM_LO) * (chunk - lo) / (hi - lo)
    return scaled[:-1], scaled[1:], lo, hi


def reference_normalize(price, lo, hi):
    return 0.5 if hi == lo else NORM_LO + (NORM_HI - NORM_LO) * (price - lo) / (hi - lo)


def reference_denormalize(value, lo, hi):
    return lo if hi == lo else lo + (value - NORM_LO) * (hi - lo) / (NORM_HI - NORM_LO)


def test_build_window_equals_the_per_stock_scalar_window_bit_for_bit():
    # Three stocks, the middle one constant over the window (hi == lo).
    prices = generate_series(60, seed=12)
    prices[:, 1] = 7.25
    window, params = build_window(prices, t=40, n=20)
    assert window.inputs.shape == window.targets.shape == (3, 20)
    assert params.lo.shape == params.hi.shape == (3,)
    day = prices[41]
    values = np.random.default_rng(12).uniform(-0.8, 2.7, size=(5, 3))
    for m in range(3):
        inputs, targets, lo, hi = reference_window(prices[:, m], t=40, n=20)
        assert np.array_equal(window.inputs[m], inputs)
        assert np.array_equal(window.targets[m], targets)
        assert (params.lo[m], params.hi[m]) == (lo, hi)
        assert normalize(day, params)[m] == reference_normalize(float(day[m]), lo, hi)
        unscaled = [reference_denormalize(float(v), lo, hi) for v in values[:, m]]
        assert np.array_equal(denormalize(values, params)[:, m], unscaled)
    assert np.all(window.inputs[1] == 0.5) and np.all(denormalize(values, params)[:, 1] == 7.25)


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
    loaded = load_prices(path)
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
    with pytest.raises(DataError, match=r":3: day 2 should be 1"):
        load_prices(path, expected_stocks=("A",))
    # Day t is row t, so a file numbered from 1000 is refused rather than
    # having its outputs labelled with row indices instead of its own days.
    _write_rows(path, [["day", "A"]] + [[1000 + d, 1.0 + d] for d in range(5)])
    with pytest.raises(DataError, match=r"bad.csv:2: day 1000 should be 0"):
        load_prices(path, expected_stocks=("A",))


def test_load_prices_nonpositive_price(tmp_path):
    path = tmp_path / "bad.csv"
    _write_rows(path, [["day", "A"], [0, 1.0], [1, -2.0]])
    with pytest.raises(DataError, match=r":3: price -2.0 for A is outside \[0.0001, 1e\+12\]"):
        load_prices(path, expected_stocks=("A",))


# Each bound and its neighbours, and the floats a price must never be.
_EDGES = [
    float(price)
    for bound in (PRICE_MIN, PRICE_MAX)
    for price in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf))
] + [0.0, -0.0, 5e-324, 2.2e-308, -1.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308]


# The fixture's directory is reused by every example; each overwrites the file.
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    price=st.one_of(
        st.floats(),  # the whole range: subnormals, -0.0 and 0.0, infinities, nan
        st.sampled_from(_EDGES),
        st.floats(PRICE_MIN / 4, PRICE_MIN * 4),
        st.floats(PRICE_MAX / 4, PRICE_MAX * 4),
    )
)
def test_load_prices_takes_a_price_exactly_when_it_is_in_range(tmp_path, price):
    path = tmp_path / "prices.csv"
    _write_rows(path, [["day", "A"], [0, 1.0], [1, repr(price)]])
    if PRICE_MIN <= price <= PRICE_MAX:
        assert load_prices(path, expected_stocks=("A",))[1, 0] == price
    else:
        with pytest.raises(DataError, match=r"prices.csv:3: price .* for A is outside"):
            load_prices(path, expected_stocks=("A",))


def test_write_prices_csv_refuses_a_price_written_below_the_range(tmp_path):
    # 4e-5 rounds to 0.0000 at 4 decimals; 6e-5 rounds to 0.0001, PRICE_MIN.
    path = tmp_path / "prices.csv"
    with pytest.raises(DataError, match=r"day 1: A would be written as 0.0000 \(price 4e-05\)"):
        write_prices_csv(path, ("A",), np.array([[1.0], [4e-5]]))
    assert not path.exists()
    write_prices_csv(path, ("A",), np.array([[1.0], [6e-5]]))
    assert path.read_text().splitlines()[2] == "1,0.0001"
    assert load_prices(path, expected_stocks=("A",))[1, 0] == PRICE_MIN


def test_load_prices_too_short_for_window(tmp_path):
    # load_prices reads any length; run_simulation's window + days is the
    # only history-length rule.
    def run(rows):
        path = tmp_path / "short.csv"
        _write_rows(path, [["day", "A"]] + [[d, 1.0 + d] for d in range(rows)])
        config = SimulationConfig(
            seed=1, input_path=str(path), players=2, agents_per_stock=2, stocks=("A",),
            total_supply=(10,), window=8, days=2, evolution_cadence=2, epochs=1,
        )
        return run_simulation(config)

    with pytest.raises(InsufficientHistoryError, match="need >= 10"):
        run(9)
    # Exactly window + days rows is accepted.
    assert [len(worths) for _, worths in run(10).metrics.networth_by_day] == [2, 2]
