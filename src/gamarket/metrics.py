"""Analysis outputs: species complexity, committee sizes, net-worth tracking.

"Species" here means the output activation of an agent, "linear" or
"logistic", the names `complexity.csv` writes.  Complexity is
reported per species as the population standard deviation of hidden-unit
counts; the components are never summed into a single scalar because the
per-species spread is the quantity of interest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .players import Population


def complexity(agents) -> dict[str, float]:
    """Per-species population standard deviation of hidden-unit counts.

    Uses the population estimator (divide by the species count).  Species
    appear in the order their first agent does; empty species are absent
    from the result, not reported as zero.
    """
    counts: dict[str, list[int]] = {}
    for agent in agents:
        counts.setdefault("logistic" if agent.logistic else "linear", []).append(agent.hidden)
    if not counts:
        raise ValueError("complexity needs at least one agent")
    return {kind: float(np.std(hs)) for kind, hs in counts.items()}


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def linear_fit(xs, ys) -> LinearFit | None:
    """Ordinary least squares through (xs, ys); None when underdetermined."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        return None
    x_mean = xs.mean()
    y_mean = ys.mean()
    var_x = float(np.sum((xs - x_mean) ** 2))
    if var_x == 0.0:
        return None
    slope = float(np.sum((xs - x_mean) * (ys - y_mean)) / var_x)
    intercept = float(y_mean - slope * x_mean)
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - y_mean) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


@dataclass
class RunMetrics:
    """Row-oriented records accumulated over one simulation run."""

    networth_rows: list[tuple[int, int, float]] = field(default_factory=list)
    hidden_rows: list[tuple[int, int, float]] = field(default_factory=list)
    complexity_rows: list[tuple[int, str, float]] = field(default_factory=list)
    # (generation, mean validation MSE over every agent in the population)
    generation_error_rows: list[tuple[int, float]] = field(default_factory=list)


def record_networth(metrics: RunMetrics, worths: np.ndarray, day: int) -> None:
    """Append one (day, player, net worth) row per player from the (players,) worths."""
    metrics.networth_rows.extend((day, pid, worth) for pid, worth in enumerate(worths.tolist()))


def record_generation(metrics: RunMetrics, generation: int, population: Population) -> None:
    """Snapshot architecture statistics for the whole population."""
    # Sums of small ints are exact in float64, so these are the per-player np.mean.
    hidden, _ = population.architectures()
    means = hidden.reshape(population.players, -1).mean(axis=1).tolist()
    metrics.hidden_rows.extend((generation, pid, mean) for pid, mean in enumerate(means))
    for kind, sigma in complexity(population.agents).items():
        metrics.complexity_rows.append((generation, kind, sigma))
