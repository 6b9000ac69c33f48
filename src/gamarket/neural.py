"""Predictive agents: one-hidden-layer feed-forward networks, run in stacks.

Each agent maps one normalized price to one normalized next-price estimate.
The hidden layer uses tanh units; the output unit is either linear or
logistic.  An `Agent` carries this architecture as two plain fields,
`hidden` (1 to 10 units) and `logistic`.  Weights are stored flat in a
fixed layout:

    [input->hidden (h), hidden biases (h), hidden->output (h), output bias]

which is 3*h + 1 values for h hidden units.  Training is plain full-batch
gradient descent on mean squared error, the loss `evaluate_error` reports.
A `TrainingWindow` is a pair of aligned `(rows, n)` arrays, n >= 1: `train`
and `evaluate_error` take one whose row i is agent i's series (a
simulation takes each agent's stock row of a `(stocks, n)` window).

There is one forward kernel, `_predict`, and one gradient, `_gradients`,
and both run on a `Stack`: a population sorted by hidden count, so the
agents of one count h are one `_Group`, a slice of rows with one
`(rows, 3h+1)` weight array.  Inputs, targets, outputs and errors are
`(A, n)` arrays, one row per agent, and a boolean row mask picks the
logistic rows, the only ones that go through the sigmoid and its
derivative.  The work shaped by h runs once per group; every reduction
is a batched `@` or a per-row sum, which numpy runs as the same BLAS call
or loop for each row that a lone agent gets, so a stacked agent computes
the same bits as it would alone.  Grouping by hidden count only, across
players, stocks and activations, gives at most 10 groups for any
population, so the per-group Python overhead stays nearly constant and
run time stays linear in the number of agents (acceptance test A1).

`train` builds the one stack of a generation.  It copies every agent's
weights, end to end in sorted order, into one flat array and returns the
trained agents as that `Stack`: a tuple of new Agents whose weights are
row views of the array.  The stack lives as long as that tuple, which a
simulation keeps as its population's agents until evolution replaces
them, so each day's `forward` and the next generation's `evaluate_error`
run on it without sorting or copying anything; given any other list,
`forward` stacks it for that call.  Nothing rebinds an agent's `weights`,
so the views and the stack always agree.  Each group keeps one
`(rows, n, h)` hidden-layer buffer, allocated again only when n changes
(n = 1 for a day's predictions, n = window to train and score).

Training adds a gradient array of the same size as the weights and, per
group, a `_Gradient` with views of its block and two more `(rows, n, h)`
buffers, all dropped when `train` returns.  Every epoch writes into these
with `out=` and updates all weights in place with one
`grad *= lr; weights -= grad`, so no epoch allocates `h`-shaped memory.
The two outer products (inputs times input weights,
output error times output weights) are `einsum('rn,rh->rnh')`: one
product per element, the bits of a broadcast multiply, but faster on an
inner axis of h <= 10.  The hidden-bias gradient sums the `(rows, n, h)`
back-propagated error over n with `einsum('rnh->rh')`, which adds the n
terms in sequence, as `sum(axis=1)` does, when h >= 2.  At h = 1 that
axis is contiguous, numpy sums it pairwise and einsum does not, so h = 1
keeps `sum(axis=1)`.  The three `@` calls get contiguous operands: BLAS
`gemv` on a strided view differs in the last bits from the contiguous
matrix when h <= 3, so padding every group to 10 units, or slicing the
groups out of one padded buffer, would not be bit-exact.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError

# Architecture search space for evolved committees.
HIDDEN_MIN = 1
HIDDEN_MAX = 10

_SIGMOID_LO = float(np.finfo(float).tiny)
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))


@dataclass
class Agent:
    """One network: its hidden-unit count, whether its output is logistic, its weights.

    last_training_error is None until the agent has been trained once,
    afterwards it holds the final MSE on the most recent training window.
    """

    hidden: int
    logistic: bool
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
    d = 1.0 + e
    return np.clip(np.where(u >= 0, 1.0 / d, e / d), _SIGMOID_LO, _SIGMOID_HI)


def new_agent(
    hidden: int, logistic: bool, rng: np.random.Generator, weight_init_scale: float = 0.5
) -> Agent:
    """Create an agent with the given architecture and fresh uniform weights."""
    if not HIDDEN_MIN <= hidden <= HIDDEN_MAX:
        raise ConfigError(f"hidden units must lie in [{HIDDEN_MIN}, {HIDDEN_MAX}], got {hidden}")
    if not weight_init_scale > 0:
        raise ConfigError(f"weight_init_scale must be > 0, got {weight_init_scale}")
    weights = rng.uniform(-weight_init_scale, weight_init_scale, 3 * hidden + 1)
    return Agent(hidden, logistic, weights)


def init_random(rng: np.random.Generator, weight_init_scale: float = 0.5) -> Agent:
    """Draw a random architecture and initialise its weights.

    Hidden-unit count is uniform on [HIDDEN_MIN, HIDDEN_MAX], activation is
    a fair coin between linear and logistic.
    """
    hidden = int(rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1))
    return new_agent(hidden, bool(rng.integers(2) == 1), rng, weight_init_scale)


def _mse(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The loss: mean squared error along the last axis (one value per row)."""
    return np.mean((preds - targets) ** 2, axis=-1)


class _Group:
    """The agents of one hidden count h: a slice of rows of the sorted population.

    Holds its (rows, 3h+1) block of the stack's weights, views of that
    block, and the (rows, n, h) hidden-layer buffer that `predict` fills,
    allocated again only when n changes.
    """

    def __init__(self, rows: slice, block: slice, h: int, weights: np.ndarray):
        self.rows, self.block, self.h, self.weights = rows, block, h, weights
        self.w_in, self.b_h = weights[:, :h], weights[:, None, h : 2 * h]
        self.w_out, self.b_out = weights[:, 2 * h : 3 * h], weights[:, 3 * h :]
        self.w_out_col = self.w_out[:, :, None]
        self.hidden = np.empty((len(weights), 0, h))

    def predict(self, xs: np.ndarray, u: np.ndarray) -> None:
        """Fill the hidden buffer and the group's rows of u, the output pre-activation."""
        if self.hidden.shape[1] != xs.shape[1]:
            self.hidden = np.empty((len(self.weights), xs.shape[1], self.h))
        hidden, u_rows = self.hidden, u[self.rows]
        np.einsum("rn,rh->rnh", xs[self.rows], self.w_in, out=hidden)
        hidden += self.b_h
        np.tanh(hidden, out=hidden)
        np.matmul(hidden, self.w_out_col, out=u_rows[:, :, None])
        u_rows += self.b_out


class _Gradient:
    """A group's training-only state: views of its gradient block and two (rows, n, h) buffers."""

    def __init__(self, group: _Group, grad: np.ndarray, n: int):
        h = group.h
        self.group = group
        self.back, self.tmp = np.empty((2, len(grad), n, h))
        self.g_in, self.g_bh = grad[:, None, :h], grad[:, h : 2 * h]
        self.g_out, self.g_bout = grad[:, 2 * h : 3 * h, None], grad[:, 3 * h :]

    def backward(self, xs: np.ndarray, delta: np.ndarray) -> None:
        """Fill grad from delta = dMSE/du (A, n), after predict on the same weights."""
        group, back, tmp = self.group, self.back, self.tmp
        hidden, d = group.hidden, delta[group.rows]
        np.einsum("rn,rh->rnh", d, group.w_out, out=back)
        np.multiply(hidden, hidden, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        back *= tmp
        np.matmul(xs[group.rows, None, :], back, out=self.g_in)
        if group.h == 1:  # a contiguous axis: numpy sums it pairwise, einsum would not
            back.sum(axis=1, out=self.g_bh)
        else:
            np.einsum("rnh->rh", back, out=self.g_bh)
        np.matmul(hidden.transpose(0, 2, 1), d[:, :, None], out=self.g_out)
        d.sum(axis=1, keepdims=True, out=self.g_bout)


class Stack(tuple):
    """Agents, in the order given, whose weights are rows of one array sorted by hidden count.

    Building one copies every agent's weights, end to end in stable
    hidden-count order, into the flat array `weights`, and holds new
    Agents (same architecture and last training error) whose `weights` are
    row views of it.  Row r of the sorted population is agent `order[r]`;
    `groups` holds one _Group per hidden count, and `logistic` is the (A,)
    row mask of logistic outputs.
    """

    def __new__(cls, agents: Sequence[Agent]):
        agents = list(agents)
        order = sorted(range(len(agents)), key=lambda i: agents[i].hidden)
        sorted_weights = [agents[i].weights for i in order]
        weights = np.concatenate(sorted_weights, dtype=float) if agents else np.empty(0)
        groups, start, offset = [], 0, 0
        for h, run in itertools.groupby(agents[i].hidden for i in order):
            count = len(list(run))
            rows, block = slice(start, start + count), slice(offset, offset + count * (3 * h + 1))
            groups.append(_Group(rows, block, h, weights[block].reshape(count, 3 * h + 1)))
            start, offset = rows.stop, block.stop
        views = [row for group in groups for row in group.weights]
        positions = np.argsort(order).tolist()
        stack = super().__new__(
            cls,
            (
                Agent(a.hidden, a.logistic, views[r], a.last_training_error)
                for a, r in zip(agents, positions)
            ),
        )
        stack.order = np.array(order, dtype=np.intp)
        stack.weights, stack.groups = weights, groups
        stack.logistic = np.array([agents[i].logistic for i in order], dtype=bool)
        return stack


def _check_rows(agents: Sequence[Agent], window: TrainingWindow, caller: str) -> None:
    if len(agents) != len(window.inputs):
        raise DataError(f"{caller} got {len(agents)} agents but {len(window.inputs)} window rows")


def forward(agents: Sequence[Agent], xs) -> np.ndarray:
    """Outputs (A, n) in list order: row i of the (A, n) inputs goes through agents[i].

    A Stack runs on its own weights; any other list is stacked for this call.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or len(xs) != len(agents) or not np.isfinite(xs).all():
        raise ValueError(
            f"forward needs finite ({len(agents)}, n) inputs, got shape {xs.shape} "
            f"with {xs.size - np.isfinite(xs).sum()} non-finite values"
        )
    stack = agents if isinstance(agents, Stack) else Stack(agents)
    preds = np.empty_like(xs)
    preds[stack.order] = _predict(stack, xs[stack.order])
    return preds


def evaluate_error(agents: Sequence[Agent], window: TrainingWindow) -> list[float]:
    """Mean squared error of agent i over window row i, in list order."""
    _check_rows(agents, window, "evaluate_error")
    return _mse(forward(agents, window.inputs), window.targets).tolist() if agents else []


def mse_gradient(agent: Agent, window: TrainingWindow) -> np.ndarray:
    """Gradient of a one-row window's MSE for every weight, laid out as Agent.weights."""
    _check_rows([agent], window, "mse_gradient")
    stack = Stack([agent])
    grad, gradients = _gradient_buffers(stack, window.inputs.shape[1])
    _gradients(stack, gradients, window.inputs, window.targets)
    return grad


def _predict(stack: Stack, xs: np.ndarray) -> np.ndarray:
    """Predictions (A, n) of the sorted rows; leaves each group's hidden buffer filled."""
    u = np.empty_like(xs)
    for group in stack.groups:
        group.predict(xs, u)
    u[stack.logistic] = _sigmoid(u[stack.logistic])
    return u


def _gradient_buffers(stack: Stack, n: int) -> tuple[np.ndarray, list[_Gradient]]:
    """A flat gradient array shaped like stack.weights, and a _Gradient per group viewing it."""
    grad = np.empty_like(stack.weights)
    blocks = [grad[group.block].reshape(group.weights.shape) for group in stack.groups]
    return grad, [_Gradient(group, block, n) for group, block in zip(stack.groups, blocks)]


def _gradients(stack: Stack, gradients: list[_Gradient], xs: np.ndarray, ys: np.ndarray):
    """Fill the gradient of each sorted row's MSE."""
    preds = _predict(stack, xs)
    delta = (2.0 / xs.shape[1]) * (preds - ys)
    logistic = stack.logistic
    p = preds[logistic]
    delta[logistic] = delta[logistic] * p * (1.0 - p)
    # delta is dMSE/du for the output pre-activation u of each sample.
    for gradient in gradients:
        gradient.backward(xs, delta)


def train(agents: Sequence[Agent], window: TrainingWindow, hp: Hyperparams) -> Stack:
    """Full-batch gradient descent for hp.epochs passes, agent i on window row i.

    Returns a Stack of new Agents in the order given; the inputs are left
    untouched.  Each returned agent keeps its architecture and records its
    final training MSE.  Raises TrainingDivergedError naming the first
    agent, in list order, whose final MSE is not finite.
    """
    hp.validate()
    _check_rows(agents, window, "train")
    stack = Stack(agents)
    xs, ys = window.inputs[stack.order], window.targets[stack.order]
    grad, gradients = _gradient_buffers(stack, xs.shape[1])
    # A diverging row overflows; the check below reports it instead of numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            _gradients(stack, gradients, xs, ys)
            grad *= hp.learning_rate
            stack.weights -= grad
        final_mse = np.empty(len(stack))
        final_mse[stack.order] = _mse(_predict(stack, xs), ys)
    for agent, error in zip(stack, final_mse.tolist()):
        agent.last_training_error = error
        if not math.isfinite(error):
            kind = "logistic" if agent.logistic else "linear"
            raise TrainingDivergedError(
                f"training diverged for {agent.hidden}-unit {kind} agent: final MSE "
                f"{error} after {hp.epochs} epochs at learning rate {hp.learning_rate}"
            )
    return stack
