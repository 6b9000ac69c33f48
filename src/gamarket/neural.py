"""Single predictive agent: a one-hidden-layer feed-forward network.

Each agent maps one normalized price to one normalized next-price estimate.
The hidden layer uses tanh units; the output unit is either linear or
logistic.  Weights are stored flat in a fixed layout:

    [input->hidden (h), hidden biases (h), hidden->output (h), output bias]

which is 3*h + 1 values for h hidden units.  Training is plain full-batch
gradient descent on mean squared error.
"""

from __future__ import annotations

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
    """Aligned (input, target) pairs of normalized prices."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.targets):
            raise DataError(
                f"window inputs/targets misaligned: {len(self.inputs)} vs {len(self.targets)}"
            )

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 200
    learning_rate: float = 0.05

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def _split(spec: AgentSpec, weights: np.ndarray):
    h = spec.hidden_units
    return weights[:h], weights[h : 2 * h], weights[2 * h : 3 * h], weights[3 * h]


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # Stable piecewise form; clipped so the output is strictly inside (0, 1)
    # even when the pre-activation saturates in float arithmetic.
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI)


def _predict(spec: AgentSpec, weights: np.ndarray, xs: np.ndarray):
    """Batch forward pass; returns (predictions, hidden activations)."""
    w_in, b_in, w_out, b_out = _split(spec, weights)
    hidden = np.tanh(np.outer(xs, w_in) + b_in)  # (n, h)
    u = hidden @ w_out + b_out
    if spec.activation is ActivationKind.LOGISTIC:
        return _sigmoid(u), hidden
    return u, hidden


def new_agent(spec: AgentSpec, rng: np.random.Generator, weight_init_scale: float = 0.5) -> Agent:
    """Create an agent with the given architecture and fresh uniform weights."""
    if not weight_init_scale > 0:
        raise ConfigError(f"weight_init_scale must be > 0, got {weight_init_scale}")
    weights = rng.uniform(-weight_init_scale, weight_init_scale, spec.weight_count())
    return Agent(spec=spec, weights=weights)


def init_random(
    bounds: tuple[int, int], rng: np.random.Generator, weight_init_scale: float = 0.5
) -> Agent:
    """Draw a random architecture within `bounds` and initialise its weights.

    Hidden-unit count is uniform on the closed interval, activation is a
    fair coin between linear and logistic.
    """
    lo, hi = bounds
    if not (HIDDEN_MIN <= lo <= hi <= HIDDEN_MAX):
        raise ConfigError(f"hidden-unit bounds must satisfy {HIDDEN_MIN} <= lo <= hi <= {HIDDEN_MAX}")
    hidden = int(rng.integers(lo, hi + 1))
    kind = ActivationKind.LINEAR if rng.integers(2) == 0 else ActivationKind.LOGISTIC
    return new_agent(AgentSpec(hidden, kind), rng, weight_init_scale)


def forward(agent: Agent, x: float) -> float:
    """Evaluate the network on a single normalized input."""
    if not math.isfinite(x):
        raise ValueError(f"forward input must be finite, got {x!r}")
    preds, _ = _predict(agent.spec, agent.weights, np.asarray([float(x)]))
    return float(preds[0])


def evaluate_error(agent: Agent, window: TrainingWindow) -> float:
    """Mean squared error of the agent over a window."""
    if len(window) == 0:
        raise DataError("cannot evaluate on an empty window")
    preds, _ = _predict(agent.spec, agent.weights, window.inputs)
    return float(np.mean((preds - window.targets) ** 2))


def mse_gradient(agent: Agent, window: TrainingWindow) -> np.ndarray:
    """Analytic gradient of the window MSE with respect to every weight.

    Returned in the same flat layout as Agent.weights.
    """
    if len(window) == 0:
        raise DataError("cannot take a gradient over an empty window")
    return _gradient(agent.spec, agent.weights, window.inputs, window.targets)


def _gradient(spec: AgentSpec, weights: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    w_in, b_in, w_out, b_out = _split(spec, weights)
    n = len(xs)
    preds, hidden = _predict(spec, weights, xs)
    delta = (2.0 / n) * (preds - ys)
    if spec.activation is ActivationKind.LOGISTIC:
        delta = delta * preds * (1.0 - preds)
    # delta is dMSE/du for the output pre-activation u of each sample.
    grad_w_out = hidden.T @ delta
    grad_b_out = float(np.sum(delta))
    back = np.outer(delta, w_out) * (1.0 - hidden**2)  # (n, h)
    grad_w_in = xs @ back
    grad_b_in = back.sum(axis=0)
    return np.concatenate([grad_w_in, grad_b_in, grad_w_out, [grad_b_out]])


def train(agent: Agent, window: TrainingWindow, hp: Hyperparams) -> Agent:
    """Full-batch gradient descent for hp.epochs passes.

    Returns a new Agent; the input agent is left untouched.  The returned
    agent keeps the same architecture and records its final training MSE.
    Raises TrainingDivergedError if that MSE is not finite.
    """
    hp.validate()
    if len(window) == 0:
        raise DataError("cannot train on an empty window")
    weights = agent.weights.astype(float, copy=True)
    # A diverging run overflows; the check below reports it instead of numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            weights -= hp.learning_rate * _gradient(
                agent.spec, weights, window.inputs, window.targets
            )
        preds, _ = _predict(agent.spec, weights, window.inputs)
        final_mse = float(np.mean((preds - window.targets) ** 2))
    if not math.isfinite(final_mse):
        raise TrainingDivergedError(
            f"training diverged for {agent.spec.hidden_units}-unit "
            f"{agent.spec.activation.value} agent: final MSE {final_mse} after "
            f"{hp.epochs} epochs at learning rate {hp.learning_rate}"
        )
    return Agent(spec=agent.spec, weights=weights, last_training_error=final_mse)
