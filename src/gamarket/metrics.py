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


def complexity(hidden: np.ndarray, logistic: np.ndarray) -> dict[str, float]:
    """Per-species population standard deviation of the (A,) hidden-unit counts.

    Uses the population estimator (divide by the species count).  Species
    appear in the order their first agent does; empty species are absent
    from the result, not reported as zero.
    """
    if len(hidden) == 0:
        raise ValueError("complexity needs at least one agent")
    return {
        "logistic" if kind else "linear": float(np.std(hidden[logistic == kind]))
        for kind in dict.fromkeys(logistic.tolist())
    }


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
    """Records accumulated over one simulation run."""

    networth_by_day: list[tuple[int, np.ndarray]] = field(default_factory=list)
    hidden_rows: list[tuple[int, int, float]] = field(default_factory=list)
    complexity_rows: list[tuple[int, str, float]] = field(default_factory=list)
    # (generation, mean validation MSE over every agent in the population)
    generation_error_rows: list[tuple[int, float]] = field(default_factory=list)


def record_networth(metrics: RunMetrics, worths: np.ndarray, day: int) -> None:
    """Keep the day's (players,) net worths as they are; reports make the rows."""
    metrics.networth_by_day.append((day, worths))


def record_generation(metrics: RunMetrics, generation: int, population: Population) -> None:
    """Snapshot architecture statistics for the whole population."""
    # Sums of small ints are exact in float64, so these are the per-player np.mean.
    stack = population.stack
    means = stack.hidden.reshape(population.players, -1).mean(axis=1).tolist()
    metrics.hidden_rows.extend((generation, pid, mean) for pid, mean in enumerate(means))
    for kind, sigma in complexity(stack.hidden, stack.logistic).items():
        metrics.complexity_rows.append((generation, kind, sigma))
