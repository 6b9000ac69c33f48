"""Tests for the analysis metrics and the least-squares helper."""

import math

import numpy as np
import pytest

from gamarket.metrics import (
    LinearFit,
    RunMetrics,
    complexity,
    linear_fit,
    record_generation,
    record_networth,
)
from gamarket.market import Portfolios
from gamarket.players import Population
from test_neural import new_stack


def test_complexity_matches_two_pass_oracle():
    # Population standard deviation computed longhand per species.
    counts = {"linear": [2, 7, 4, 4], "logistic": [1, 9]}
    hidden = [h for hs in counts.values() for h in hs]
    logistic = [kind == "logistic" for kind, hs in counts.items() for _ in hs]
    got = complexity(np.array(hidden), np.array(logistic))
    for kind, hs in counts.items():
        mean = sum(hs) / len(hs)
        var = sum((h - mean) ** 2 for h in hs) / len(hs)
        assert got[kind] == pytest.approx(math.sqrt(var), rel=1e-12)


def test_complexity_omits_empty_species():
    got = complexity(np.array([3, 6]), np.array([False, False]))
    assert set(got) == {"linear"}
    assert got["linear"] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        complexity(np.array([], dtype=int), np.array([], dtype=bool))


def test_complexity_lists_species_in_first_occurrence_order():
    # complexity.csv writes one row per species in this order.
    hidden, logistic = np.array([4, 2]), np.array([True, False])
    assert list(complexity(hidden, logistic)) == ["logistic", "linear"]
    assert list(complexity(hidden[::-1], logistic[::-1])) == ["linear", "logistic"]


def test_linear_fit_recovers_exact_line():
    xs = np.array([1.0, 2.0, 5.0, 9.0])
    fit = linear_fit(xs, 3.5 * xs - 2.0)
    assert fit.slope == pytest.approx(3.5, abs=1e-12)
    assert fit.intercept == pytest.approx(-2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_linear_fit_against_polyfit():
    rng = np.random.default_rng(77)
    xs = rng.uniform(0, 10, 40)
    ys = 2.0 * xs + 1.0 + rng.normal(0, 0.5, 40)
    fit = linear_fit(xs, ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9)
    assert 0.9 < fit.r_squared <= 1.0


def test_linear_fit_degenerate_inputs():
    assert linear_fit([1.0], [2.0]) is None
    assert linear_fit([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]) is None
    # A flat target is a perfect fit by convention.
    fit = linear_fit([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    assert fit == LinearFit(slope=0.0, intercept=5.0, r_squared=1.0)
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0])


def test_record_networth_rows():
    metrics = RunMetrics()
    book = Portfolios(cash=np.array([100.0, 50.0]), holdings=np.array([[3], [10]]))
    worths = book.net_worth([2.0])
    record_networth(metrics, worths, day=7)
    record_networth(metrics, book.net_worth([3.0]), day=8)
    # The (players,) array as net_worth returned it; emit_reports makes the rows.
    [(day, kept), _] = metrics.networth_by_day
    assert day == 7 and kept is worths
    assert [(d, w.tolist()) for d, w in metrics.networth_by_day] == [
        (7, [106.0, 70.0]), (8, [109.0, 80.0])
    ]


def test_record_generation_rows():
    metrics = RunMetrics()
    stack = new_stack([(2, False), (4, False), (6, True), (6, True)], np.random.default_rng(0))
    record_generation(metrics, generation=3, population=Population(stack, players=2, stocks=1))
    assert metrics.hidden_rows == [(3, 0, 3.0), (3, 1, 6.0)]
    by_species = dict(
        (kind, sigma) for gen, kind, sigma in metrics.complexity_rows if gen == 3
    )
    assert by_species["linear"] == pytest.approx(1.0)
    assert by_species["logistic"] == pytest.approx(0.0)
