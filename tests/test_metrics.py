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
from gamarket.neural import ActivationKind, AgentSpec, new_agent
from gamarket.players import Player


def _agent(hidden, kind):
    return new_agent(AgentSpec(hidden, kind), np.random.default_rng(hidden))


def test_complexity_matches_two_pass_oracle():
    # Population standard deviation computed longhand per species.
    counts = {ActivationKind.LINEAR: [2, 7, 4, 4], ActivationKind.LOGISTIC: [1, 9]}
    agents = [_agent(h, kind) for kind, hs in counts.items() for h in hs]
    got = complexity(agents)
    for kind, hs in counts.items():
        mean = sum(hs) / len(hs)
        var = sum((h - mean) ** 2 for h in hs) / len(hs)
        assert got[kind] == pytest.approx(math.sqrt(var), rel=1e-12)


def test_complexity_omits_empty_species():
    agents = [_agent(3, ActivationKind.LINEAR), _agent(6, ActivationKind.LINEAR)]
    got = complexity(agents)
    assert set(got) == {ActivationKind.LINEAR}
    assert got[ActivationKind.LINEAR] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        complexity([])


def test_complexity_lists_species_in_first_occurrence_order():
    # complexity.csv writes one row per species in this order.
    agents = [_agent(4, ActivationKind.LOGISTIC), _agent(2, ActivationKind.LINEAR)]
    assert list(complexity(agents)) == [ActivationKind.LOGISTIC, ActivationKind.LINEAR]
    assert list(complexity(agents[::-1])) == [ActivationKind.LINEAR, ActivationKind.LOGISTIC]


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
    record_networth(metrics, book, prices=[2.0], day=7)
    assert metrics.networth_rows == [(7, 0, 106.0), (7, 1, 70.0)]
    # Plain floats, so the report writes them as Python reprs.
    assert all(type(worth) is float for _, _, worth in metrics.networth_rows)


def test_record_generation_rows():
    metrics = RunMetrics()
    players = [
        Player([_agent(2, ActivationKind.LINEAR), _agent(4, ActivationKind.LINEAR)]),
        Player([_agent(6, ActivationKind.LOGISTIC), _agent(6, ActivationKind.LOGISTIC)]),
    ]
    record_generation(metrics, generation=3, players=players)
    assert metrics.hidden_rows == [(3, 0, 3.0), (3, 1, 6.0)]
    by_species = dict(
        (kind, sigma) for gen, kind, sigma in metrics.complexity_rows if gen == 3
    )
    assert by_species["linear"] == pytest.approx(1.0)
    assert by_species["logistic"] == pytest.approx(0.0)
