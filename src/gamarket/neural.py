"""Predictive agents: one-hidden-layer feed-forward networks, held as arrays.

Each agent maps one normalized price to one normalized next-price estimate.
The hidden layer uses tanh units; the output unit is either linear or
logistic.  An agent's architecture is two plain values, its hidden-unit
count (1 to 10) and whether its output is logistic.  Its weights are
stored flat in a fixed layout:

    [input->hidden (h), hidden biases (h), hidden->output (h), output bias]

which is 3*h + 1 values for h hidden units.  Training is plain full-batch
gradient descent on mean squared error, the loss `evaluate_error` reports.
A `TrainingWindow` is a pair of aligned `(rows, n)` arrays, n >= 1: `train`
and `evaluate_error` take one whose row i is agent i's series (a
simulation takes each agent's stock row of a `(stocks, n)` window).

A population of A agents is one `Stack`: `(A,)` arrays of hidden counts,
logistic flags and last training errors in population order, and every
agent's weights in one flat array sorted, stably, by hidden count, so the
agents of one count h are one `_Group`, a slice of rows with one
`(rows, 3h+1)` weight array.  `draw_population` draws a stack; `train`
returns a trained copy; `forward`, `evaluate_error` and `mse_gradient`
run on one.  There is one forward kernel, `_predict`, and one gradient,
`_gradients`, both over the sorted rows.  Inputs, targets, outputs and
errors are `(A, n)` arrays, one row per agent, and a boolean row mask
picks the logistic rows, the only ones that go through the sigmoid and
its derivative.  The work shaped by h runs once per group; every
reduction is a batched `@` or a per-row sum, which numpy runs as the same
BLAS call or loop for each row that a lone agent gets, so a stacked agent
computes the same bits as it would alone.  Grouping by hidden count only,
across players, stocks and activations, gives at most 10 groups for any
population, so the per-group Python overhead stays nearly constant and
run time stays linear in the number of agents (acceptance test A1).

Only building a `Stack` sorts weights; `train` copies the sorted array as
it is, and nothing else copies or sorts.  A stack holds a gradient array
`grad` shaped like its weights; each group views its blocks of both and
keeps, for the stack's lifetime, two `(rows, n, h)` buffers, the hidden
layer and the back-propagated error, allocated again only when n changes.

The output unit's product of the hidden layer and the output weights has
two forms.  Training and scoring take a window of n samples per row, and
`forward` runs each group's `(n, h) @ (h, 1)` product as one `@`, which
BLAS computes as a matrix-vector product (gemv).  `forward(days=True)`
takes n days of predictions per row instead, and runs one `(1, h) @ (h, 1)`
product per row and day, which numpy computes as a dot.  For h >= 2 gemv
and dot add the h terms in different orders, so their last bits differ;
the day form keeps every column equal, bit for bit, to a one-day call.

Each epoch of `train` runs every group's `predict` and `backward`, which
write into the group buffers and `grad` with `out=`, then updates all
weights in place with one `grad *= lr; weights -= grad`, so no epoch
allocates `h`-shaped memory.  `backward` takes the output-weight gradient
from the hidden layer first, then overwrites the hidden buffer with
tanh's derivative.  The two outer products (inputs times input weights,
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

import copy
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TrainingDivergedError

# Architecture search space for evolved committees.
HIDDEN_MIN = 1
HIDDEN_MAX = 10

_SIGMOID_LO = float(np.finfo(float).tiny)
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))


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


def draw_weights(hidden: int, rng: np.random.Generator, weight_init_scale: float) -> np.ndarray:
    """Fresh weights for an agent of `hidden` units, uniform on [-scale, scale)."""
    return rng.uniform(-weight_init_scale, weight_init_scale, 3 * hidden + 1)


def draw_population(size: int, rng: np.random.Generator, weight_init_scale: float) -> Stack:
    """`size` untrained agents of random architecture, drawn one after another.

    Each agent draws its hidden-unit count, uniform on [HIDDEN_MIN,
    HIDDEN_MAX], then its activation, a fair coin between linear and
    logistic, then its weights.
    """
    hidden, logistic, weights = [], [], []
    for _ in range(size):
        hidden.append(int(rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1)))
        logistic.append(rng.integers(2) == 1)
        weights.append(draw_weights(hidden[-1], rng, weight_init_scale))
    return Stack(hidden, logistic, weights, np.full(size, np.nan))


def _mse(preds: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The loss: mean squared error along the last axis (one value per row)."""
    return np.mean((preds - targets) ** 2, axis=-1)


class _Group:
    """The agents of one hidden count h: a slice of rows of the sorted population.

    Holds views of its (rows, 3h+1) blocks of the stack's weights and grad,
    and two (rows, n, h) buffers, `hidden` and `back`, that `predict` and
    `backward` fill, each allocated again only when n changes.
    """

    def __init__(self, rows: slice, h: int, weights: np.ndarray, grad: np.ndarray):
        self.rows, self.h, self.weights = rows, h, weights
        self.w_in, self.b_h = weights[:, :h], weights[:, None, h : 2 * h]
        self.w_out, self.b_out = weights[:, 2 * h : 3 * h], weights[:, 3 * h :]
        self.w_out_col = self.w_out[:, :, None]
        self.g_in, self.g_bh = grad[:, None, :h], grad[:, h : 2 * h]
        self.g_out, self.g_bout = grad[:, 2 * h : 3 * h, None], grad[:, 3 * h :]
        self.hidden = self.back = np.empty((len(weights), 0, h))

    def predict(self, xs: np.ndarray, u: np.ndarray, days: bool) -> None:
        """Fill the hidden buffer and the group's rows of u, the output pre-activation.

        With `days`, the output product is one dot per row and column.
        """
        if self.hidden.shape[1] != xs.shape[1]:
            self.hidden = np.empty((len(self.weights), xs.shape[1], self.h))
        hidden, u_rows = self.hidden, u[self.rows]
        np.einsum("rn,rh->rnh", xs[self.rows], self.w_in, out=hidden)
        hidden += self.b_h
        np.tanh(hidden, out=hidden)
        if days:
            np.matmul(hidden[:, :, None, :], self.w_out_col[:, None], out=u_rows[:, :, None, None])
        else:
            np.matmul(hidden, self.w_out_col, out=u_rows[:, :, None])
        u_rows += self.b_out

    def backward(self, xs: np.ndarray, delta: np.ndarray) -> None:
        """Fill the gradient from delta = dMSE/du (A, n), right after predict on xs.

        Overwrites the hidden buffer with 1 - hidden**2, tanh's derivative.
        """
        hidden, d = self.hidden, delta[self.rows]
        if self.back.shape[1] != xs.shape[1]:
            self.back = np.empty_like(hidden)
        back = self.back
        np.matmul(hidden.transpose(0, 2, 1), d[:, :, None], out=self.g_out)
        np.einsum("rn,rh->rnh", d, self.w_out, out=back)
        np.multiply(hidden, hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        back *= hidden
        np.matmul(xs[self.rows, None, :], back, out=self.g_in)
        if self.h == 1:  # a contiguous axis: numpy sums it pairwise, einsum would not
            back.sum(axis=1, out=self.g_bh)
        else:
            np.einsum("rnh->rh", back, out=self.g_bh)
        d.sum(axis=1, keepdims=True, out=self.g_bout)


class Stack:
    """A population of agents as arrays, its weights sorted by hidden count.

    Built from (A,) hidden counts, (A,) logistic flags, A flat weight
    vectors and (A,) errors, all in population order, which `hidden`,
    `logistic` and `errors` keep; errors[i] is agent i's final MSE on its
    last training window, NaN until it is trained.  The weights are copied,
    in stable hidden-count order, into the flat array `weights`, beside a
    gradient array `grad` of the same layout: sorted row r is agent
    `order[r]`, `groups` holds one _Group per hidden count, and
    `sorted_logistic` is the (A,) row mask of logistic outputs.
    """

    def __init__(self, hidden, logistic, weights: Sequence[np.ndarray], errors):
        self.hidden = np.array(hidden, dtype=int)
        self.logistic = np.array(logistic, dtype=bool)
        self.errors = np.array(errors, dtype=float)
        outside = self.hidden[(self.hidden < HIDDEN_MIN) | (self.hidden > HIDDEN_MAX)]
        if len(outside):
            raise ConfigError(
                f"hidden units must lie in [{HIDDEN_MIN}, {HIDDEN_MAX}], got {outside[0]}"
            )
        if [len(w) for w in weights] != (3 * self.hidden + 1).tolist():
            raise ValueError("a stack needs one vector of 3 * hidden[i] + 1 weights per agent")
        self.order = np.argsort(self.hidden, kind="stable")
        self.sorted_logistic = self.logistic[self.order]
        sorted_weights = [weights[i] for i in self.order.tolist()]
        self._cut(np.concatenate(sorted_weights, dtype=float) if sorted_weights else np.empty(0))

    def _cut(self, weights: np.ndarray) -> None:
        """Hold `weights`, the flat sorted array, a `grad` like it, and a _Group per h."""
        self.weights, self.grad = weights, np.empty_like(weights)
        self.groups, start, offset = [], 0, 0
        for h, run in itertools.groupby(self.hidden[self.order].tolist()):
            count = len(list(run))
            rows, block = slice(start, start + count), slice(offset, offset + count * (3 * h + 1))
            views = (a[block].reshape(count, 3 * h + 1) for a in (weights, self.grad))
            self.groups.append(_Group(rows, h, *views))
            start, offset = rows.stop, block.stop

    def __len__(self) -> int:
        return len(self.hidden)

    def weight_rows(self) -> list[np.ndarray]:
        """Every agent's weights in population order, as views of `weights`."""
        rows = [row for group in self.groups for row in group.weights]
        return [rows[r] for r in np.argsort(self.order).tolist()]


def _check_rows(stack: Stack, window: TrainingWindow, caller: str) -> None:
    if len(stack) != len(window.inputs):
        raise DataError(f"{caller} got {len(stack)} agents but {len(window.inputs)} window rows")


def forward(stack: Stack, xs, days: bool = False) -> np.ndarray:
    """Outputs (A, n) in population order: row i of the (A, n) inputs goes through agent i.

    By default the n columns are one window (the gemv product); with
    `days` each column is one day, and its outputs equal, bit for bit,
    those of a call on that column alone.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or len(xs) != len(stack) or not np.isfinite(xs).all():
        raise ValueError(
            f"forward needs finite ({len(stack)}, n) inputs, got shape {xs.shape} "
            f"with {xs.size - np.isfinite(xs).sum()} non-finite values"
        )
    preds = np.empty_like(xs)
    preds[stack.order] = _predict(stack, xs[stack.order], days)
    return preds


def evaluate_error(stack: Stack, window: TrainingWindow) -> list[float]:
    """Mean squared error of agent i over window row i, in population order."""
    _check_rows(stack, window, "evaluate_error")
    return _mse(forward(stack, window.inputs), window.targets).tolist()


def mse_gradient(stack: Stack, window: TrainingWindow) -> np.ndarray:
    """Gradient of each agent's MSE over its window row, laid out as `stack.weights`.

    For a one-agent stack that is the layout of the agent's own weights.
    """
    _check_rows(stack, window, "mse_gradient")
    _gradients(stack, window.inputs[stack.order], window.targets[stack.order])
    return stack.grad.copy()


def _predict(stack: Stack, xs: np.ndarray, days: bool = False) -> np.ndarray:
    """Predictions (A, n) of the sorted rows; leaves each group's hidden buffer filled."""
    u = np.empty_like(xs)
    for group in stack.groups:
        group.predict(xs, u, days)
    u[stack.sorted_logistic] = _sigmoid(u[stack.sorted_logistic])
    return u


def _gradients(stack: Stack, xs: np.ndarray, ys: np.ndarray):
    """Fill stack.grad with the gradient of each sorted row's MSE."""
    preds = _predict(stack, xs)
    delta = (2.0 / xs.shape[1]) * (preds - ys)
    logistic = stack.sorted_logistic
    p = preds[logistic]
    delta[logistic] = delta[logistic] * p * (1.0 - p)
    # delta is dMSE/du for the output pre-activation u of each sample.
    for group in stack.groups:
        group.backward(xs, delta)


def train(stack: Stack, window: TrainingWindow, hp: Hyperparams) -> Stack:
    """Full-batch gradient descent for hp.epochs passes, agent i on window row i.

    Returns a new Stack of the same agents, its sorted weights copied from
    `stack` without re-sorting, trained, and its errors holding each
    agent's final training MSE; `stack` is left untouched.  Raises
    TrainingDivergedError naming the first agent, in population order,
    whose final MSE is not finite.
    """
    hp.validate()
    _check_rows(stack, window, "train")
    trained = copy.copy(stack)
    trained._cut(stack.weights.copy())
    xs, ys = window.inputs[stack.order], window.targets[stack.order]
    # A diverging row overflows; the check below reports it instead of numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            _gradients(trained, xs, ys)
            trained.grad *= hp.learning_rate
            trained.weights -= trained.grad
        trained.errors = np.empty(len(stack))
        trained.errors[stack.order] = _mse(_predict(trained, xs), ys)
    diverged = np.flatnonzero(~np.isfinite(trained.errors))
    if len(diverged):
        i = diverged[0]
        kind = "logistic" if stack.logistic[i] else "linear"
        raise TrainingDivergedError(
            f"training diverged for {stack.hidden[i]}-unit {kind} agent: final MSE "
            f"{trained.errors[i]} after {hp.epochs} epochs at learning rate {hp.learning_rate}"
        )
    return trained
