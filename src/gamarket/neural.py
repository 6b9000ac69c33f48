"""Predictive agents: one-hidden-layer feed-forward networks, run in stacks.

Each agent maps one normalized price to one normalized next-price estimate.
The hidden layer uses tanh units; the output unit is either linear or
logistic.  Weights are stored flat in a fixed layout:

    [input->hidden (h), hidden biases (h), hidden->output (h), output bias]

which is 3*h + 1 values for h hidden units.  Training is plain full-batch
gradient descent on mean squared error, the loss `evaluate_error` reports.
A `TrainingWindow` is a pair of aligned `(rows, n)` arrays, n >= 1: `train`
and `evaluate_error` take one whose row i is agent i's series (a
simulation takes each agent's stock row of a `(stocks, n)` window).

There is one forward kernel, `_stack_predict`, and each caller hands it
the whole population: `train` every epoch, `forward` for a day's
predictions (one input per agent) and `evaluate_error` for a generation's
scores.  `_stack` sorts the agents by hidden count, so the agents of one
count h are one slice of rows with one `(rows, 3h+1)` weight array;
inputs, targets, outputs and errors are `(A, n)` arrays, one row per
agent, and a boolean row mask picks the logistic output.  The work shaped
by h runs once per group; every reduction is a batched `@` or a per-row
sum, which numpy runs as the same BLAS call or loop for each row that a
lone agent gets, so a stacked agent computes the same bits as it would
alone.  Grouping by hidden count only, across players, stocks and
activations, gives at most 10 groups for any population, so the per-group
Python overhead stays nearly constant and run time stays linear in the
number of agents (acceptance test A1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError

# Architecture search space for evolved committees.
HIDDEN_MIN = 1
HIDDEN_MAX = 10

_SIGMOID_LO = float(np.finfo(float).tiny)
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))


class ActivationKind(Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class AgentSpec:
    """Architecture of one agent: hidden-unit count plus output activation."""

    hidden_units: int
    activation: ActivationKind

    def __post_init__(self) -> None:
        if not isinstance(self.hidden_units, int):
            raise ConfigError(f"hidden_units must be an int, got {self.hidden_units!r}")
        if not HIDDEN_MIN <= self.hidden_units <= HIDDEN_MAX:
            raise ConfigError(
                f"hidden_units must lie in [{HIDDEN_MIN}, {HIDDEN_MAX}], got {self.hidden_units}"
            )

    def weight_count(self) -> int:
        return 3 * self.hidden_units + 1


@dataclass
class Agent:
    """A weight vector attached to an architecture spec.

    last_training_error is None until the agent has been trained once,
    afterwards it holds the final MSE on the most recent training window.
    """

    spec: AgentSpec
    weights: np.ndarray
    last_training_error: float | None = None


@dataclass(frozen=True)
class TrainingWindow:
    """Aligned (input, target) pairs of normalized prices: (rows, n) arrays, n >= 1."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.inputs)
        if len(shape) != 2 or shape != np.shape(self.targets):
            raise DataError(
                "window inputs/targets must be aligned (rows, n) arrays, "
                f"got shapes {shape} and {np.shape(self.targets)}"
            )
        if shape[1] == 0:
            raise DataError("a training window needs at least one (input, target) pair")


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 200
    learning_rate: float = 0.05

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # Stable two-sided form (exp never overflows); clipped so the output is
    # strictly inside (0, 1) even when the pre-activation saturates in floats.
    e = np.exp(-np.abs(u))
    return np.clip(np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e)), _SIGMOID_LO, _SIGMOID_HI)


def new_agent(spec: AgentSpec, rng: np.random.Generator, weight_init_scale: float = 0.5) -> Agent:
    """Create an agent with the given architecture and fresh uniform weights."""
    if not weight_init_scale > 0:
        raise ConfigError(f"weight_init_scale must be > 0, got {weight_init_scale}")
    weights = rng.uniform(-weight_init_scale, weight_init_scale, spec.weight_count())
    return Agent(spec=spec, weights=weights)


def init_random(rng: np.random.Generator, weight_init_scale: float = 0.5) -> Agent:
    """Draw a random architecture and initialise its weights.

    Hidden-unit count is uniform on [HIDDEN_MIN, HIDDEN_MAX], activation is
    a fair coin between linear and logistic.
    """
    hidden = int(rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1))
    kind = ActivationKind.LINEAR if rng.integers(2) == 0 else ActivationKind.LOGISTIC
    return new_agent(AgentSpec(hidden, kind), rng, weight_init_scale)


def _mse(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The loss: mean squared error along the last axis (one value per row)."""
    return np.mean((preds - targets) ** 2, axis=-1)


def _stack(agents: list[Agent]):
    """Sort the agents by hidden count and stack their weights, one row each.

    Returns (order, groups, logistic): row r holds agents[order[r]], logistic
    is the (A,) row mask of logistic outputs, and each group is (rows, h,
    weights), the slice of rows with h hidden units and their (rows, 3h+1) weights.
    """
    order = sorted(range(len(agents)), key=lambda i: agents[i].spec.hidden_units)
    groups, start = [], 0
    for h, run in itertools.groupby(agents[i].spec.hidden_units for i in order):
        rows = slice(start, start + len(list(run)))
        groups.append((rows, h, np.array([agents[i].weights for i in order[rows]], dtype=float)))
        start = rows.stop
    logistic = np.array([agents[i].spec.activation is ActivationKind.LOGISTIC for i in order])
    return order, groups, logistic


def _check_rows(agents: list[Agent], window: TrainingWindow, caller: str) -> None:
    if len(agents) != len(window.inputs):
        raise DataError(f"{caller} got {len(agents)} agents but {len(window.inputs)} window rows")


def forward(agents: list[Agent], xs) -> np.ndarray:
    """Outputs (A, n) in list order: row i of the (A, n) inputs goes through agents[i]."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or len(xs) != len(agents) or not np.isfinite(xs).all():
        raise ValueError(f"forward needs finite ({len(agents)}, n) inputs, got {xs!r}")
    order, groups, logistic = _stack(agents)
    preds = np.empty_like(xs)
    preds[order] = _stack_predict(groups, xs[order], logistic)[0]
    return preds


def evaluate_error(agents: list[Agent], window: TrainingWindow) -> list[float]:
    """Mean squared error of agent i over window row i, in list order."""
    _check_rows(agents, window, "evaluate_error")
    return _mse(forward(agents, window.inputs), window.targets).tolist() if agents else []


def mse_gradient(agent: Agent, window: TrainingWindow) -> np.ndarray:
    """Gradient of a one-row window's MSE for every weight, laid out as Agent.weights."""
    _check_rows([agent], window, "mse_gradient")
    _, groups, logistic = _stack([agent])
    return _gradient(groups, window.inputs, window.targets, logistic)[0][0]


def _stack_predict(groups, xs: np.ndarray, logistic: np.ndarray):
    """Forward pass; returns (predictions (A, n), each group's hidden (rows, n, h))."""
    u = np.empty_like(xs)
    hiddens = []
    for rows, h, w in groups:
        hidden = np.tanh(xs[rows, :, None] * w[:, None, :h] + w[:, None, h : 2 * h])
        u[rows] = (hidden @ w[:, 2 * h : 3 * h, None])[:, :, 0] + w[:, 3 * h :]
        hiddens.append(hidden)
    return np.where(logistic[:, None], _sigmoid(u), u), hiddens


def _gradient(groups, xs: np.ndarray, ys: np.ndarray, logistic: np.ndarray) -> list[np.ndarray]:
    """Gradient of each row's MSE: one (rows, 3h+1) array per group, flat layout."""
    preds, hiddens = _stack_predict(groups, xs, logistic)
    delta = (2.0 / xs.shape[1]) * (preds - ys)
    delta = np.where(logistic[:, None], delta * preds * (1.0 - preds), delta)
    # delta is dMSE/du for the output pre-activation u of each sample.
    grad_b_out = delta.sum(axis=1, keepdims=True)
    grads = []
    for (rows, h, w), hidden in zip(groups, hiddens):
        d = delta[rows]
        back = d[:, :, None] * w[:, None, 2 * h : 3 * h] * (1.0 - hidden**2)  # (rows, n, h)
        grad_w_in = (xs[rows, None, :] @ back)[:, 0, :]
        grad_w_out = (hidden.transpose(0, 2, 1) @ d[:, :, None])[:, :, 0]
        grads.append(
            np.concatenate([grad_w_in, back.sum(axis=1), grad_w_out, grad_b_out[rows]], axis=1)
        )
    return grads


def train(agents: list[Agent], window: TrainingWindow, hp: Hyperparams) -> list[Agent]:
    """Full-batch gradient descent for hp.epochs passes, agent i on window row i.

    Returns new Agents in the order given; the inputs are left untouched.
    Each returned agent keeps its architecture and records its final
    training MSE.  Raises TrainingDivergedError naming the first agent, in
    list order, whose final MSE is not finite.
    """
    hp.validate()
    _check_rows(agents, window, "train")
    if not agents:
        return []
    order, groups, logistic = _stack(agents)
    xs, ys = window.inputs[order], window.targets[order]
    # A diverging row overflows; the check below reports it instead of numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            for (_, _, weights), grad in zip(groups, _gradient(groups, xs, ys, logistic)):
                weights -= hp.learning_rate * grad
        final_mse = _mse(_stack_predict(groups, xs, logistic)[0], ys).tolist()
    rows = [row for _, _, weights in groups for row in weights]
    trained = [Agent(a.spec, rows[r], final_mse[r]) for a, r in zip(agents, np.argsort(order))]
    for agent in trained:
        if not math.isfinite(agent.last_training_error):
            raise TrainingDivergedError(
                f"training diverged for {agent.spec.hidden_units}-unit "
                f"{agent.spec.activation.value} agent: final MSE {agent.last_training_error} "
                f"after {hp.epochs} epochs at learning rate {hp.learning_rate}"
            )
    return trained
