"""Runtime scaling benchmark over player and committee counts.

Each grid point runs the full simulation on shared synthetic data, with
one discarded warm-up run, and reports the median wall-clock time over
the requested repetitions; each repetition times every point of a sweep
in turn.  Two sweeps are produced: player count with the committee size
held at a base value, and committee size with the player count held at a
base value; each sweep gets a least-squares line.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from .config import SimulationConfig
from .data import DEFAULT_STOCKS, generate_series, write_prices_csv
from .errors import ConfigError
from .metrics import LinearFit, linear_fit
from .simulation import run_simulation

PLAYER_SWEEP = "players"
AGENT_SWEEP = "agents"


@dataclass(frozen=True)
class BenchmarkSample:
    sweep: str
    x: int
    seconds: float


@dataclass(frozen=True)
class SweepFit:
    sweep: str
    fit: LinearFit | None
    samples: int


@dataclass
class BenchmarkResult:
    samples: list[BenchmarkSample] = field(default_factory=list)
    fits: list[SweepFit] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def scaling_benchmark(
    player_grid: list[int],
    agent_grid: list[int],
    base_players: int = 4,
    base_agents: int = 4,
    days: int = 120,
    window: int = 50,
    seed: int = 1,
    reps: int = 1,
) -> BenchmarkResult:
    """Time full runs across both sweeps on one synthetic data set."""
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if days < 1:
        raise ConfigError(f"days must be >= 1, got {days}")
    result = BenchmarkResult()
    rows = window + days + 2
    with tempfile.TemporaryDirectory(prefix="gamarket-bench-") as tmp:
        csv_path = os.path.join(tmp, "prices.csv")
        write_prices_csv(csv_path, DEFAULT_STOCKS, generate_series(rows, seed))

        def lap(config: SimulationConfig) -> float:
            started = time.perf_counter()
            run_simulation(config)
            return time.perf_counter() - started

        for sweep, grid in ((PLAYER_SWEEP, player_grid), (AGENT_SWEEP, agent_grid)):
            xs, configs = [], []
            for x in grid:
                n_players = x if sweep == PLAYER_SWEEP else base_players
                n_agents = base_agents if sweep == PLAYER_SWEEP else x
                if n_players < 2 or n_agents < 1:
                    result.warnings.append(f"skipped infeasible point {sweep}={x}")
                    continue
                config = SimulationConfig(
                    seed=seed,
                    input_path=csv_path,
                    players=n_players,
                    agents_per_stock=n_agents,
                    stocks=DEFAULT_STOCKS,
                    total_supply=(10_000,) * len(DEFAULT_STOCKS),
                    window=window,
                    days=days,
                )
                run_simulation(config)  # warm-up, discarded
                xs.append(x)
                configs.append(config)
            # Each repetition laps the whole grid, so a few slow seconds on the
            # host land on one lap of several points, which their medians drop.
            laps = [[lap(config) for config in configs] for _ in range(reps)]
            ys = [statistics.median(times) for times in zip(*laps)]
            result.samples.extend(BenchmarkSample(sweep, x, seconds) for x, seconds in zip(xs, ys))
            result.fits.append(SweepFit(sweep=sweep, fit=linear_fit(xs, ys), samples=len(xs)))
    return result
