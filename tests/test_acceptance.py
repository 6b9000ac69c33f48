"""Acceptance suite: end-to-end checks of the package's headline guarantees.

One test per numbered claim, each printing a PASS/FAIL line with the
measured values.  Run `pytest tests/test_acceptance.py -v -rA` to see
both the per-test verdicts and the measurement lines.  The suite takes
40-60 s on a 2-vCPU host; A1 (the scaling sweep, three timed laps per
point) takes 23-35 s and A6 (ten 500-day runs) about 11 s.
"""

import hashlib
import itertools
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from gamarket.bench import scaling_benchmark
from gamarket.cli import main as cli_main
from gamarket.config import SimulationConfig
from gamarket.data import (
    DEFAULT_STOCKS,
    build_window,
    generate_series,
    load_prices,
    write_prices_csv,
)
from gamarket.evolution import (
    CHROMOSOME_BITS,
    crossover_one_point,
    decode,
    encode,
    gray,
    mutate_bit,
    roulette_select,
)
from gamarket.market import Portfolios, apply_trade
from gamarket.neural import (
    HIDDEN_MAX,
    HIDDEN_MIN,
    Hyperparams,
    Stack,
    TrainingWindow,
    draw_weights,
    evaluate_error,
    mse_gradient,
    train,
)
from gamarket.simulation import run_simulation

START_PRICES = (95.0, 52.0, 31.0)
DATA_SEED = 7


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def price_file(tmp_path_factory):
    """Synthetic price CSVs keyed by row count, shared across the module."""
    root = tmp_path_factory.mktemp("accept-data")
    cache = {}

    def build(rows: int) -> str:
        if rows not in cache:
            path = root / f"prices-{rows}.csv"
            prices = generate_series(rows, DATA_SEED, start_prices=START_PRICES, volatility=0.012)
            write_prices_csv(path, DEFAULT_STOCKS, prices)
            cache[rows] = str(path)
        return cache[rows]

    return build


def test_a1_scaling_is_linear_in_players_and_committee_size():
    started = time.perf_counter()
    result = scaling_benchmark(
        player_grid=[2, 4, 8, 16, 32],
        agent_grid=[2, 4, 8, 16],
        base_players=4,
        base_agents=4,
        days=120,
        seed=1,
        reps=3,
    )
    elapsed = time.perf_counter() - started
    fits = {f.sweep: f.fit for f in result.fits}
    r2_players = fits["players"].r_squared
    r2_agents = fits["agents"].r_squared
    _report(
        "A1 scaling linearity",
        r2_players >= 0.95 and r2_agents >= 0.95 and elapsed < 300.0,
        f"R^2 players={r2_players:.5f}, agents={r2_agents:.5f}, {elapsed:.1f}s",
    )


CONSERVATION_CONFIG = dict(
    seed=3,
    players=4,
    agents_per_stock=2,
    total_supply=(200_000, 20_000, 2_000),
    window=50,
    evolution_cadence=10,
    days=300,
    initial_cash=4e6,
)


def test_a2_conservation_over_a_long_seeded_run(price_file):
    config = SimulationConfig(input_path=price_file(351), **CONSERVATION_CONFIG)
    output = run_simulation(config)
    supply = config.total_supply
    prices_by_day = load_prices(config.input_path, config.stocks)

    # Replay the trade log from the initial endowment, checking the share
    # totals after every single trade and the net-worth total around every
    # day's clearing session.
    replay = Portfolios.endow(config.players, supply, config.initial_cash)
    worth_drift = 0.0
    for day, day_trades in itertools.groupby(output.trades, key=lambda t: t.day):
        prices = prices_by_day[day].tolist()
        before = sum(replay.net_worth(prices).tolist())
        for trade in day_trades:
            apply_trade(replay, trade)
            for m in range(len(supply)):
                total = int(replay.holdings[:, m].sum())
                assert total == supply[m], (
                    f"stock {m} totals {total} != {supply[m]} after trade {trade}"
                )
        after = sum(replay.net_worth(prices).tolist())
        worth_drift = max(worth_drift, abs(after - before) / before)
    assert worth_drift <= 1e-9

    # The replayed portfolios must land exactly where the engine did.
    assert replay.holdings.tolist() == output.portfolios.holdings.tolist()
    for got, want in zip(replay.cash.tolist(), output.portfolios.cash.tolist()):
        assert math.isclose(got, want, rel_tol=1e-12)

    _report(
        "A2 conservation",
        len(output.trades) >= 2000 and worth_drift <= 1e-9,
        f"{len(output.trades)} trades, max per-day net-worth drift {worth_drift:.2e}",
    )


def test_a3_genetic_operator_statistics():
    # Gray round trip over the legal architecture range.
    for h in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        for logistic in (False, True):
            assert decode(encode(h, logistic)) == (h, logistic)
    # Adjacency: consecutive codes differ in exactly one bit, exhaustively.
    for value in range(255):
        diff = (gray(value) ^ gray(value + 1)).bit_count()
        assert diff == 1, f"codes {value} and {value + 1} differ in {diff} bits"
    # Crossover preserves the pair's bit multiset at every interior cut.
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a, b = (int(x) for x in rng.integers(0, 1 << CHROMOSOME_BITS, 2))
        for cut in range(1, CHROMOSOME_BITS):
            ca, cb = crossover_one_point(a, b, cut)
            assert ca & cb == a & b and ca | cb == a | b
    # Roulette frequencies track fitness shares over 400,000 draws.
    draws = 400_000
    roulette_rng = np.random.default_rng(515)
    picks = roulette_select([1.0, 2.0, 5.0], roulette_rng.random(draws))
    counts = np.bincount(picks, minlength=3)
    expected_share = np.array([1.0, 2.0, 5.0]) / 8.0
    max_gap = float(np.max(np.abs(counts / draws - expected_share)))
    assert max_gap <= 0.005
    chi = scipy.stats.chisquare(counts, expected_share * draws)
    assert chi.pvalue > 0.01
    # Forced mutation flips exactly one bit.
    for _ in range(10_000):
        base = int(rng.integers(0, 1 << CHROMOSOME_BITS))
        assert (mutate_bit(base, 1.0, rng) ^ base).bit_count() == 1
    _report(
        "A3 genetic operators",
        True,
        f"roulette max gap {max_gap:.4f} (<=0.005), chi-square p={chi.pvalue:.3f} (>0.01)",
    )


def _one_agent(hidden, logistic, weights):
    """A one-agent, untrained stack."""
    return Stack([hidden], [logistic], [weights], [math.nan])


def _new_agent(hidden, logistic, rng):
    return _one_agent(hidden, logistic, draw_weights(hidden, rng, 0.5))


def _central_difference(agent, window, step=1e-5):
    [hidden], [logistic] = agent.hidden.tolist(), agent.logistic.tolist()
    grad = np.zeros_like(agent.weights)
    for i in range(len(agent.weights)):
        up = agent.weights.copy()
        down = agent.weights.copy()
        up[i] += step
        down[i] -= step
        [e_up] = evaluate_error(_one_agent(hidden, logistic, up), window)
        [e_down] = evaluate_error(_one_agent(hidden, logistic, down), window)
        grad[i] = (e_up - e_down) / (2 * step)
    return grad


def test_a4_gradients_match_finite_differences_and_training_learns():
    rng = np.random.default_rng(909)
    specs = [(h, logistic) for h in range(HIDDEN_MIN, HIDDEN_MAX + 1) for logistic in (False, True)]
    worst = 0.0
    for i in range(100):
        agent = _new_agent(*specs[i % len(specs)], rng)
        inputs = rng.uniform(0.05, 0.95, size=30)
        targets = rng.uniform(0.1, 0.9, size=30)
        window = TrainingWindow(inputs=inputs[None], targets=targets[None])
        analytic = mse_gradient(agent, window)
        numeric = _central_difference(agent, window)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    assert worst < 1e-4

    # A noiseless linear ramp: 200 epochs halve the population's mean error.
    xs = np.linspace(0.1, 0.9, 50)
    ramp = TrainingWindow(inputs=xs[None], targets=xs[None])
    befores = []
    afters = []
    for i in range(100):
        agent = _new_agent(*specs[i % len(specs)], rng)
        befores.extend(evaluate_error(agent, ramp))
        [after] = train(agent, ramp, Hyperparams(epochs=200, learning_rate=0.05)).errors
        afters.append(after)
        assert after < befores[-1]
    ratio = float(np.mean(afters) / np.mean(befores))
    _report(
        "A4 neural suite",
        worst < 1e-4 and ratio <= 0.5,
        f"max gradient rel err {worst:.2e} (<1e-4), mean MSE ratio {ratio:.3f} (<=0.5)",
    )


def test_a5_selection_pressure_reduces_population_error(price_file):
    config = SimulationConfig(
        seed=11,
        input_path=price_file(252),
        players=4,
        agents_per_stock=2,
        total_supply=(100_000, 10_000, 1_000),
        window=50,
        evolution_cadence=20,
        days=201,
        initial_cash=4e6,
    )
    output = run_simulation(config)
    assert output.generations == 10
    rows = output.metrics.generation_error_rows
    assert [g for g, _ in rows] == list(range(11))
    first, last = rows[0][1], rows[-1][1]
    for hidden in output.population.stack.hidden.tolist():
        assert HIDDEN_MIN <= hidden <= HIDDEN_MAX
    _report(
        "A5 selection pressure",
        output.generations == 10 and last <= first,
        f"10 evolution events, mean error gen0={first:.5f} -> final={last:.5f}",
    )


def test_a6_leadership_depends_on_seed_not_structure(price_file):
    path = price_file(551)
    leaders = []
    for seed in range(101, 111):
        config = SimulationConfig(
            seed=seed,
            input_path=path,
            players=8,
            agents_per_stock=2,
            total_supply=(100_000, 10_000, 1_000),  # all divisible by 8
            window=50,
            evolution_cadence=50,
            days=500,
            initial_cash=4e6,
        )
        output = run_simulation(config)
        _, worths = output.metrics.networth_by_day[-1]  # the last traded day
        assert output.trades, f"seed {seed} produced no trades"
        leaders.append(int(np.argmax(worths)))  # the lowest id among equal worths
    _report(
        "A6 no structural monopoly",
        len(set(leaders)) > 1,
        f"final-day leaders across 10 seeds: {leaders}",
    )


def test_a7_reruns_are_byte_identical_across_processes(price_file, tmp_path, cli_process):
    out = tmp_path / "out"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "\n".join(
            [
                "seed = 3",
                f"input_path = {price_file(351)}",
                "players = 4",
                "agents_per_stock = 2",
                "total_supply = 200000, 20000, 2000",
                "window = 50",
                "evolution_cadence = 10",
                "days = 40",
                "initial_cash = 4e6",
                f"output_dir = {out}",
            ]
        )
        + "\n"
    )

    def snapshot():
        return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}

    assert cli_main(["run", "--config", str(config_path)]) == 0
    first = snapshot()
    assert cli_main(["run", "--config", str(config_path)]) == 0
    second = snapshot()
    fresh = cli_process("run", "--config", str(config_path))
    assert fresh.returncode == 0, fresh.stderr
    third = snapshot()
    _report(
        "A7 determinism",
        first == second == third,
        f"{len(first)} output files byte-identical over two reruns and a fresh process",
    )


# sha256 of every file the A7 config writes, recorded with numpy 2.4.6.
A7_DIGESTS = {
    "complexity.csv": "f09a95369232670f381997ebecdac8c3140216b42c210fa6996399be64f9dab9",
    "config.resolved": "dbaf6fbd1f4d9eb4d61e7d7868ed16a786e1da1cf8e7c93cb941d10f42fbc924",
    "generations.csv": "8050a90c8cd3ab5a62485e5889271f1ff794ea886bde585d0385dce14b3a6b3b",
    "hidden_units.csv": "178ba14fcdf9a91091755e160daa311ed24218434a5577ebc127d7027328767a",
    "manifest": "7985bc87b12c46aae07fa31c9c5fff9501045f97e037f730bb4baaf17bf79414",
    "networth.csv": "b62cfaafcf4a80909aa2267adca63595fdd846e2e4f17cf33268a6620a99ab1b",
    "trades.csv": "43255195dc4273d87a264075173fe6072264963355f694bb2c64265cf4208f6a",
}


def test_a7_output_bytes_match_recorded_digests(tmp_path, monkeypatch, host_dependence):
    # Relative paths keep `config.resolved` independent of the directory.
    monkeypatch.chdir(tmp_path)
    prices = generate_series(351, DATA_SEED, start_prices=START_PRICES, volatility=0.012)
    write_prices_csv("prices.csv", DEFAULT_STOCKS, prices)
    with open("run.cfg", "w") as handle:
        handle.write(
            "seed = 3\ninput_path = prices.csv\nplayers = 4\nagents_per_stock = 2\n"
            "total_supply = 200000, 20000, 2000\nwindow = 50\nevolution_cadence = 10\n"
            "days = 40\ninitial_cash = 4e6\noutput_dir = out\n"
        )
    assert cli_main(["run", "--config", "run.cfg"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir("out"))
    }
    assert digests == A7_DIGESTS, "output bytes differ from the recorded digests; " + host_dependence
