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

Only `stack_agents` sorts weights: it concatenates per-agent vectors,
given in population order, in stable hidden-count order.  A `Stack`
holds the flat sorted array it is given, checked against its hidden
counts; `train` builds its result over a copy of its input's array and
each worker job over the array it carries, so nothing else sorts or
copies.  A stack holds a gradient array `grad` shaped like its weights;
each group views its blocks of both and keeps, for the stack's lifetime,
two `(rows, n, h)` buffers, the hidden layer and the back-propagated
error, allocated again only when n changes.

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

Given a `worker.TrainingWorker` and more than one row, `train` splits
the call across two processes with one cut at a sorted row r.  This
process trains rows < r, the worker trains rows >= r with the same epoch
loop (`train_rows`) and returns their flat weights and final errors;
rows < r are a prefix of the sorted weights, so the worker's weights are
the suffix.  The divergence check then runs on the joined errors, so it
names the same agent.  Rows never mix in any product or sum, so a row
computes the same bits on either side of any cut, at any r, inside a
group or not.  `_balanced_cut` picks r so that the two sides cost about
the same, by a model fitted to single-process `train` timings at n = 50
(one BLAS thread, 2-vCPU AVX-512 host): an epoch costs a side about
18 us for each hidden-count group it touches, plus
(0.026 + 0.0057 * h) us per window sample of each row of h units.

`simulation.run_simulation` forks one worker for the whole run when the
process may use at least 2 CPUs (`os.sched_getaffinity`) and
agents * window * epochs, the work of each of its `train` calls, reaches
SPLIT_MIN_WORK = 150,000.  On the host above, one split call of 96
agents at n = 50 takes 1.16-1.28 times as long as an unsplit one at
4,800-24,000 units of work (pickling, the pipes and waking the worker
cost about 1 ms), so split calls lose below about 25,000; it takes
0.6-0.7 times from about 48,000 up and about 0.55 times at 960,000.
Whole runs of 10 generations (500 days, 2 players, 200 epochs, n = 50;
medians of 8 alternating pairs) gain with the worker from 60,000 on:
227 -> 194 ms at 60,000, 317 -> 250 ms at 120,000, 364 -> 288 ms at
180,000 and 429 -> 343 ms at 240,000.  The threshold lies above that
break-even: `reference` (960,000 units per call) and the A1 grid
(240,000-3,840,000) split, and `crowd` (9,600) does not.
"""

from __future__ import annotations

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

# `_balanced_cut`'s cost of one epoch of one side of a split `train` call,
# in microseconds: _GROUP_US for each hidden-count group the side touches,
# plus _ROW_US + _ROW_H_US * h per window sample of each row of h units.
_GROUP_US = 18.0
_ROW_US = 0.026
_ROW_H_US = 0.0057
# The least agents * window * epochs of its `train` calls for which a run
# starts a worker process; the module docstring derives it.
SPLIT_MIN_WORK = 150_000


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
    return stack_agents(hidden, logistic, weights, np.full(size, np.nan))


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


def _hidden_counts(hidden) -> np.ndarray:
    """`hidden` as an int array; a count outside [HIDDEN_MIN, HIDDEN_MAX] is a ConfigError."""
    hidden = np.array(hidden, dtype=int)
    outside = hidden[(hidden < HIDDEN_MIN) | (hidden > HIDDEN_MAX)]
    if len(outside):
        raise ConfigError(
            f"hidden units must lie in [{HIDDEN_MIN}, {HIDDEN_MAX}], got {outside[0]}"
        )
    return hidden


class Stack:
    """A population of agents as arrays, its weights sorted by hidden count.

    Built from (A,) hidden counts, (A,) logistic flags and (A,) errors in
    population order, which `hidden`, `logistic` and `errors` keep, and
    the flat array `weights` of every agent's weights in stable
    hidden-count order, held as given; errors[i] is agent i's final MSE on
    its last training window, NaN until it is trained.  Beside `weights`
    lies a gradient array `grad` of the same layout: sorted row r is agent
    `order[r]`, `groups` holds one _Group per hidden count, and
    `sorted_logistic` is the (A,) row mask of logistic outputs.
    """

    def __init__(self, hidden, logistic, weights: np.ndarray, errors):
        self.hidden = _hidden_counts(hidden)
        self.logistic = np.array(logistic, dtype=bool)
        self.errors = np.array(errors, dtype=float)
        self.order = np.argsort(self.hidden, kind="stable")
        self.sorted_logistic = self.logistic[self.order]
        self.weights, size = np.asarray(weights, dtype=float), int(np.sum(3 * self.hidden + 1))
        if self.weights.shape != (size,):
            raise ValueError(
                f"a stack needs {size} flat weights, 3 * hidden[i] + 1 per agent, "
                f"got shape {self.weights.shape}"
            )
        self.grad = np.empty_like(self.weights)
        self.groups, start, offset = [], 0, 0
        for h, run in itertools.groupby(self.hidden[self.order].tolist()):
            count = len(list(run))
            rows, block = slice(start, start + count), slice(offset, offset + count * (3 * h + 1))
            views = (a[block].reshape(count, 3 * h + 1) for a in (self.weights, self.grad))
            self.groups.append(_Group(rows, h, *views))
            start, offset = rows.stop, block.stop

    def __len__(self) -> int:
        return len(self.hidden)

    def weight_rows(self) -> list[np.ndarray]:
        """Every agent's weights in population order, as views of `weights`."""
        rows = [row for group in self.groups for row in group.weights]
        return [rows[r] for r in np.argsort(self.order).tolist()]


def stack_agents(hidden, logistic, weights: Sequence[np.ndarray], errors) -> Stack:
    """A stack of agents given in population order, weights[i] agent i's own vector."""
    hidden = _hidden_counts(hidden)
    if [len(w) for w in weights] != (3 * hidden + 1).tolist():
        raise ValueError("a stack needs one vector of 3 * hidden[i] + 1 weights per agent")
    ordered = [weights[i] for i in np.argsort(hidden, kind="stable").tolist()]
    flat = np.concatenate(ordered, dtype=float) if ordered else np.empty(0)
    return Stack(hidden, logistic, flat, errors)


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


def _fit(stack: Stack, xs: np.ndarray, ys: np.ndarray, epochs: int, lr: float) -> np.ndarray:
    """Run `epochs` epochs of gradient descent on the sorted rows, in place; their final MSE."""
    # A diverging row overflows; `train` reports it instead of numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            _gradients(stack, xs, ys)
            stack.grad *= lr
            stack.weights -= stack.grad
        return _mse(_predict(stack, xs), ys)


def train_rows(hidden, logistic, weights, xs, ys, epochs: int, lr: float):
    """Train sorted rows given as arrays: `train`'s epoch loop on one side of its cut.

    `hidden` is ascending and `weights` holds the rows' flat weights in
    that order; they are checked as `Stack` checks them and trained in
    place.  Returns (weights, final MSE per row).
    """
    stack = Stack(hidden, logistic, weights, np.full(len(hidden), np.nan))
    return stack.weights, _fit(stack, xs, ys, epochs, lr)


def _balanced_cut(hidden: np.ndarray, n: int) -> int:
    """The row r in [1, len(hidden) - 1] of sorted rows that best balances the two sides.

    A side costs _GROUP_US for each hidden-count group it touches plus
    n * (_ROW_US + _ROW_H_US * h) for each row; r minimizes the larger side.
    """
    rows, starts = n * (_ROW_US + _ROW_H_US * hidden), np.r_[True, hidden[1:] != hidden[:-1]]
    cost, groups = np.cumsum(rows), np.cumsum(starts)
    head = cost[:-1] + _GROUP_US * groups[:-1]
    tail = cost[-1] - cost[:-1] + _GROUP_US * (1 + groups[-1] - groups[1:])
    return int(np.argmin(np.maximum(head, tail))) + 1


def train(stack: Stack, window: TrainingWindow, hp: Hyperparams, worker=None) -> Stack:
    """Full-batch gradient descent for hp.epochs passes, agent i on window row i.

    Returns a new Stack of the same agents over a copy of `stack.weights`,
    trained, its errors holding each agent's final training MSE; `stack`
    is left untouched.  Given a `worker.TrainingWorker` and more than one
    row, the worker trains the sorted rows from `_balanced_cut` on and
    this process trains the rest, with the same bits.  Raises
    TrainingDivergedError naming the first agent, in population order,
    whose final MSE is not finite.
    """
    hp.validate()
    _check_rows(stack, window, "train")
    trained = Stack(stack.hidden, stack.logistic, stack.weights.copy(), stack.errors)
    xs, ys = window.inputs[stack.order], window.targets[stack.order]
    epochs, lr = hp.epochs, hp.learning_rate
    if worker is not None and len(stack) > 1:
        hidden, logistic = stack.hidden[stack.order], stack.sorted_logistic
        cut = _balanced_cut(hidden, xs.shape[1])
        head, tail = np.split(trained.weights, [np.sum(3 * hidden[:cut] + 1)])
        worker.submit(hidden[cut:], logistic[cut:], tail, xs[cut:], ys[cut:], epochs, lr)
        _, errors = train_rows(hidden[:cut], logistic[:cut], head, xs[:cut], ys[:cut], epochs, lr)
        tail[:], tail_errors = worker.result()
        errors = np.concatenate([errors, tail_errors])
    else:
        errors = _fit(trained, xs, ys, epochs, lr)
    trained.errors[stack.order] = errors
    diverged = np.flatnonzero(~np.isfinite(trained.errors))
    if len(diverged):
        i = diverged[0]
        kind = "logistic" if stack.logistic[i] else "linear"
        raise TrainingDivergedError(
            f"training diverged for {stack.hidden[i]}-unit {kind} agent: final MSE "
            f"{trained.errors[i]} after {hp.epochs} epochs at learning rate {hp.learning_rate}"
        )
    return trained
