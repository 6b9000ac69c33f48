"""Benchmark workloads: fixed settings, seeded price files and full config files.

Everything a run reads is generated here, so the
program under test cannot change a workload: prices come from this
module's own geometric random walk, and every config key is written out
instead of relying on the program's defaults.

The price history is a fixed per-workload dataset (its own `data_seed`);
the benchmark seed n selects the run seed `run_seed + n`, which drives
weight initialisation, clearing order and the genetic algorithm.  Seed 0
is each workload's documented default run.  Varying the price path with
the seed as well would spread `final_val_mse` by 65% (interquartile range
over median, data seeds 0-9 on `reference`), hiding any regression.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

STOCKS = ("DJIA", "NASDAQ", "SP500")
# Price walk and genetic settings shared by every workload.
DRIFT = 2e-4
VOLATILITY = 0.012
P_CROSS = 0.6
P_MUT = 0.03
WEIGHT_INIT_SCALE = 0.5
# Generated files, relative to the work dir where the program runs, so every
# run of one config writes a byte-identical `config.resolved`.
PRICES_CSV = "prices.csv"
RUN_CFG = "run.cfg"  # the workload's full run
SETUP_CFG = "setup.cfg"  # the same run with days = 0
OUT_DIR = "out"


@dataclass(frozen=True)
class Workload:
    name: str
    players: int
    agents_per_stock: int
    window: int
    days: int
    evolution_cadence: int
    epochs: int
    learning_rate: float
    initial_cash: float
    total_supply: tuple[int, ...]
    rows: int
    start_prices: tuple[float, ...]
    run_seed: int
    data_seed: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reference",
            players=8,
            agents_per_stock=4,
            window=50,
            days=500,
            evolution_cadence=50,
            epochs=200,
            learning_rate=0.05,
            initial_cash=1e6,
            total_supply=(10_000, 10_000, 10_000),
            rows=700,
            start_prices=(10600.0, 2050.0, 1220.0),
            run_seed=3,
            data_seed=1,
        ),
        Workload(
            name="crowd",
            players=64,
            agents_per_stock=1,
            window=50,
            days=600,
            evolution_cadence=10,
            epochs=1,
            learning_rate=0.05,
            initial_cash=4e6,
            total_supply=(200_000, 20_000, 2_000),
            rows=650,
            start_prices=(95.0, 52.0, 31.0),
            run_seed=5,
            data_seed=7,
        ),
    )
}


def price_paths(workload: Workload) -> np.ndarray:
    """(rows, stocks) closing prices: one geometric random walk per stock."""
    rng = np.random.default_rng(workload.data_seed)
    columns = []
    for p0 in workload.start_prices:
        steps = rng.normal(loc=DRIFT, scale=VOLATILITY, size=workload.rows - 1)
        columns.append(p0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)])))
    return np.column_stack(columns)


def write_prices(path, prices: np.ndarray) -> np.ndarray:
    """Write the price CSV; return the prices exactly as the program reads them."""
    cells = [[f"{p:.4f}" for p in row] for row in prices]
    lines = ["day," + ",".join(STOCKS)]
    lines.extend(f"{day}," + ",".join(row) for day, row in enumerate(cells))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return np.array([[float(c) for c in row] for row in cells])


def config_text(workload: Workload, seed: int, days: int) -> str:
    """Every config key, spelled out, so no program default enters the run."""
    values = {
        "seed": workload.run_seed + seed,
        "input_path": PRICES_CSV,
        "players": workload.players,
        "agents_per_stock": workload.agents_per_stock,
        "stocks": ", ".join(STOCKS),
        "total_supply": ", ".join(str(q) for q in workload.total_supply),
        "window": workload.window,
        "evolution_cadence": workload.evolution_cadence,
        "days": days,
        "p_cross": repr(P_CROSS),
        "p_mut": repr(P_MUT),
        "epochs": workload.epochs,
        "learning_rate": repr(workload.learning_rate),
        "weight_init_scale": repr(WEIGHT_INIT_SCALE),
        "initial_cash": repr(workload.initial_cash),
        "output_dir": OUT_DIR,
    }
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def make_inputs(workload: Workload, seed: int, work_dir: str) -> np.ndarray:
    """Write the price CSV and both config files under work_dir.

    Returns the prices exactly as the program reads them, for the checks.
    """
    os.makedirs(work_dir, exist_ok=True)
    prices = write_prices(os.path.join(work_dir, PRICES_CSV), price_paths(workload))
    for name, days in ((RUN_CFG, workload.days), (SETUP_CFG, 0)):
        with open(os.path.join(work_dir, name), "w") as handle:
            handle.write(config_text(workload, seed, days))
    return prices
