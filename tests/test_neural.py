"""Stack construction, forward pass, gradients and training."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamarket import neural
from gamarket.errors import ConfigError, DataError, TrainingDivergedError, TrainingWorkerError
from gamarket.neural import (
    HIDDEN_MAX,
    HIDDEN_MIN,
    Hyperparams,
    Stack,
    TrainingWindow,
    _sigmoid,
    draw_population,
    draw_weights,
    evaluate_error,
    forward,
    mse_gradient,
    stack_agents,
    train,
    train_rows,
)
from gamarket.worker import TrainingWorker


def make_agent(hidden, logistic, weights):
    """A one-agent, untrained stack."""
    return Stack([hidden], [logistic], weights, [math.nan])


def new_stack(specs, rng):
    """An untrained stack of the (hidden, logistic) specs, weights drawn in list order."""
    weights = [draw_weights(h, rng, 0.5) for h, _ in specs]
    hidden, logistic = [h for h, _ in specs], [g for _, g in specs]
    return stack_agents(hidden, logistic, weights, [math.nan] * len(specs))


def agents(stack):
    """Every agent of a stack as (hidden, logistic, weights, error), in population order."""
    columns = stack.hidden.tolist(), stack.logistic.tolist(), stack.weight_rows()
    return list(zip(*columns, stack.errors.tolist()))


def arch(stack):
    """A one-agent stack's architecture: (hidden units, logistic output)."""
    [(hidden, logistic, _, _)] = agents(stack)
    return hidden, logistic


def forward_one(agent, x):
    """A one-agent stack on one input, through the population forward pass."""
    return float(forward(agent, [[x]])[0, 0])


def one_row(xs, ys):
    """A one-row window of the pairs (xs[i], ys[i])."""
    return TrainingWindow(inputs=np.asarray(xs)[None], targets=np.asarray(ys)[None])


def error_one(agent, window):
    """A one-agent stack's MSE over a one-row window, through the population scorer."""
    [error] = evaluate_error(agent, window)
    return error


def reference_forward(hidden, logistic, weights, x):
    """Independent scalar re-implementation using math, not numpy."""
    h = hidden
    w_in, b_in, w_out = weights[:h], weights[h : 2 * h], weights[2 * h : 3 * h]
    b_out = weights[3 * h]
    u = b_out + sum(w_out[j] * math.tanh(w_in[j] * x + b_in[j]) for j in range(h))
    if logistic:
        return 1.0 / (1.0 + math.exp(-u))
    return u


def test_forward_matches_hand_computation():
    # h=2 linear network evaluated by hand:
    # u = 0.3*tanh(0.5*0.3 + 0.1) + 0.4*tanh(-0.25*0.3 + 0.2) + 0.05
    weights = [0.5, -0.25, 0.1, 0.2, 0.3, 0.4, 0.05]
    agent = make_agent(2, False, weights)
    expected = 0.3 * math.tanh(0.25) + 0.4 * math.tanh(0.125) + 0.05
    assert forward_one(agent, 0.3) == pytest.approx(expected, abs=1e-12)

    logistic = make_agent(2, True, weights)
    assert forward_one(logistic, 0.3) == pytest.approx(
        1.0 / (1.0 + math.exp(-expected)), abs=1e-12
    )


def test_forward_matches_reference_on_random_agents():
    rng = np.random.default_rng(11)
    for _ in range(50):
        agent = draw_population(1, rng, 0.5)
        x = float(rng.uniform(-2, 2))
        expected = reference_forward(*arch(agent), agent.weights, x)
        assert forward_one(agent, x) == pytest.approx(expected, rel=1e-12)


def test_forward_is_pure():
    rng = np.random.default_rng(5)
    agent = draw_population(1, rng, 0.5)
    before = agent.weights.copy()
    first = forward_one(agent, 0.4)
    second = forward_one(agent, 0.4)
    assert first == second
    assert np.array_equal(agent.weights, before)


def test_forward_rejects_non_finite_input():
    agent = make_agent(1, False, [0.1, 0.2, 0.3, 0.4])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            forward(agent, [[bad]])
    # The message gives the shape and the count, not the whole array.
    xs = np.full((1, 1000), 0.5)
    xs[0, [3, 500]] = math.inf
    with pytest.raises(ValueError, match=r"got shape \(1, 1000\) with 2 non-finite values$"):
        forward(agent, xs)


def test_logistic_output_strictly_inside_unit_interval():
    # Extreme weights drive the pre-activation far into saturation.
    for scale in (1.0, 100.0, 1e6):
        for sign in (1.0, -1.0):
            weights = [1.0, 0.0, sign * scale, sign * scale]
            agent = make_agent(1, True, weights)
            value = forward_one(agent, 1.0)
            assert 0.0 < value < 1.0


def masked_sigmoid(u):
    """The masked two-branch logistic that `_sigmoid` replaced."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, np.finfo(float).tiny, np.nextafter(1.0, 0.0))


def test_sigmoid_equals_the_masked_two_branch_form_bit_for_bit():
    rng = np.random.default_rng(15)
    cases = [np.array([v]) for v in (0.0, -0.0, 800.0, -800.0)]
    cases.append(np.array([0.0, -0.0, 800.0, -800.0, 36.8, -36.8, 745.2, -745.2]))
    for size in (1, 50):
        for scale in (0.1, 1.0, 40.0, 800.0):
            cases.extend(rng.normal(scale=scale, size=size) for _ in range(25))
    for u in cases:
        assert np.array_equal(_sigmoid(u), masked_sigmoid(u))


def test_weight_count_is_three_h_plus_one():
    rng = np.random.default_rng(0)
    for h in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        for logistic in (False, True):
            agent = make_agent(h, logistic, draw_weights(h, rng, 0.5))
            assert arch(agent) == (h, logistic)
            assert len(agent.weights) == 3 * h + 1


def test_stack_rejects_out_of_range_hidden_units():
    for bad in (0, 11, -1):
        for logistic in (False, True):
            with pytest.raises(ConfigError, match=rf"must lie in \[1, 10\], got {bad}$"):
                make_agent(bad, logistic, np.zeros(4))
    # Every agent needs a flag, an error and 3h + 1 weights, given flat or one vector each.
    with pytest.raises(ValueError, match="3 \\* hidden"):
        make_agent(2, False, np.zeros(4))
    with pytest.raises(ValueError, match="3 \\* hidden"):
        Stack([1, 2], [False, True], np.zeros(4), [math.nan, math.nan])
    with pytest.raises(ValueError, match="3 \\* hidden"):
        stack_agents([1, 2], [False, True], [np.zeros(4)], [math.nan, math.nan])
    # The range is checked first, before the per-agent lengths.
    with pytest.raises(ConfigError, match=r"got 11$"):
        stack_agents([1, 11], [False, True], [np.zeros(4)], [math.nan, math.nan])


def test_draw_population_respects_bounds_and_seed():
    stack = draw_population(300, np.random.default_rng(42), 0.5)
    twin = draw_population(300, np.random.default_rng(42), 0.5)
    assert len(stack) == 300
    assert np.all((HIDDEN_MIN <= stack.hidden) & (stack.hidden <= HIDDEN_MAX))
    assert stack.logistic.dtype == bool
    assert np.all(np.abs(stack.weights) <= 0.5)
    assert np.all(np.isnan(stack.errors))
    assert np.array_equal(stack.hidden, twin.hidden)
    assert np.array_equal(stack.logistic, twin.logistic)
    assert stack.weights.tobytes() == twin.weights.tobytes()
    assert set(stack.hidden.tolist()) == set(range(HIDDEN_MIN, HIDDEN_MAX + 1))
    assert set(stack.logistic.tolist()) == {False, True}
    # Each agent draws its hidden count, then its activation, then its weights.
    rng = np.random.default_rng(42)
    for hidden, logistic, weights, _ in agents(stack)[:20]:
        assert hidden == rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1)
        assert logistic == (rng.integers(2) == 1)
        assert np.array_equal(weights, rng.uniform(-0.5, 0.5, 3 * hidden + 1))


def test_evaluate_error_matches_loop_oracle():
    rng = np.random.default_rng(9)
    agent = draw_population(1, rng, 0.5)
    xs = rng.uniform(0.1, 0.9, 20)
    ys = rng.uniform(0.1, 0.9, 20)
    window = one_row(xs, ys)
    total = 0.0
    for x, y in zip(xs, ys):
        pred = reference_forward(*arch(agent), agent.weights, x)
        total += (pred - y) ** 2
    assert error_one(agent, window) == pytest.approx(total / 20, rel=1e-12)


def test_evaluate_error_rejects_empty_window():
    # An empty window cannot be built, so no loss or gradient ever sees one.
    with pytest.raises(DataError, match="at least one"):
        TrainingWindow(inputs=np.empty((1, 0)), targets=np.empty((1, 0)))


def central_difference(agent, window, step=1e-5):
    numeric = np.empty_like(agent.weights)
    for i in range(len(agent.weights)):
        bumped = agent.weights.copy()
        bumped[i] += step
        up = error_one(make_agent(*arch(agent), bumped), window)
        bumped[i] -= 2 * step
        down = error_one(make_agent(*arch(agent), bumped), window)
        numeric[i] = (up - down) / (2 * step)
    return numeric


def gradient_check(agent, window):
    analytic = mse_gradient(agent, window)
    numeric = central_difference(agent, window)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_gradient_matches_central_differences_every_size_and_kind():
    rng = np.random.default_rng(21)
    xs = rng.uniform(0.1, 0.9, 30)
    ys = rng.uniform(0.1, 0.9, 30)
    window = one_row(xs, ys)
    for h in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        for logistic in (False, True):
            agent = new_stack([(h, logistic)], rng)
            assert gradient_check(agent, window) < 1e-4


def test_train_returns_new_agent_and_preserves_architecture():
    rng = np.random.default_rng(3)
    agent = draw_population(1, rng, 0.5)
    original = agent.weights.copy()
    xs = np.linspace(0.1, 0.9, 50)
    window = one_row(xs, xs)
    trained = train(agent, window, Hyperparams(epochs=20))
    assert trained is not agent
    assert arch(trained) == arch(agent)
    assert np.array_equal(agent.weights, original)  # input untouched
    assert np.isnan(agent.errors[0])
    [error] = trained.errors
    assert error >= 0
    assert error == pytest.approx(error_one(trained, window), rel=1e-12)


def test_train_reduces_error_on_linear_series():
    # Every agent improves; linear agents halve their error outright, and the
    # population as a whole halves its mean error (logistic updates are damped
    # by the output derivative, so their individual 200-epoch drop is smaller).
    rng = np.random.default_rng(17)
    xs = np.linspace(0.1, 0.9, 50)
    window = one_row(xs, xs)
    befores, afters = [], []
    linear_befores, linear_afters = [], []
    for logistic in (False, True):
        for trial in range(10):
            agent = new_stack([(int(rng.integers(1, 11)), logistic)], rng)
            before = error_one(agent, window)
            [after] = train(agent, window, Hyperparams(epochs=200, learning_rate=0.05)).errors
            assert after < before
            if not logistic:
                linear_befores.append(before)
                linear_afters.append(after)
            befores.append(before)
            afters.append(after)
    assert np.mean(linear_afters) <= 0.5 * np.mean(linear_befores)
    assert np.mean(afters) <= 0.5 * np.mean(befores)


def test_train_is_bit_reproducible():
    xs = np.linspace(0.1, 0.9, 50)
    window = one_row(xs, xs**2)
    hp = Hyperparams(epochs=50)
    first = train(draw_population(1, np.random.default_rng(8), 0.5), window, hp)
    second = train(draw_population(1, np.random.default_rng(8), 0.5), window, hp)
    assert arch(first) == arch(second)
    assert first.weights.tobytes() == second.weights.tobytes()


def test_divergent_training_raises_a_named_error():
    # A learning rate of 1000 blows every linear agent up on a ramp; the
    # error names the architecture, epochs and learning rate.
    rng = np.random.default_rng(4)
    xs = np.linspace(0.1, 0.9, 50)
    window = one_row(xs, xs)
    for hidden in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        agent = new_stack([(hidden, False)], rng)
        # Numpy's overflow warnings are silenced inside train; any that
        # escaped would fail here as errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as info:
                train(agent, window, Hyperparams(epochs=200, learning_rate=1000.0))
        message = str(info.value)
        assert f"{hidden}-unit linear" in message
        assert "200 epochs" in message
        assert "learning rate 1000.0" in message


def test_zero_epochs_is_a_config_error():
    agent = make_agent(1, False, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ConfigError):
        train(agent, one_row([0.5], [0.5]), Hyperparams(epochs=0))


def test_misaligned_window_is_rejected():
    with pytest.raises(DataError):
        TrainingWindow(inputs=np.array([[0.1, 0.2]]), targets=np.array([[0.3]]))


def test_window_rows_must_be_two_dimensional():
    # A lone series is a one-row window; a flat array is refused.
    xs = np.array([0.1, 0.2])
    with pytest.raises(DataError, match=r"\(rows, n\) arrays, got shapes \(2,\)"):
        TrainingWindow(inputs=xs, targets=xs)


def reference_predict(hidden, logistic, weights, xs):
    """The per-agent forward pass that the stacked one replaced."""
    h = hidden
    hidden = np.tanh(np.outer(xs, weights[:h]) + weights[h : 2 * h])
    u = hidden @ weights[2 * h : 3 * h] + weights[3 * h]
    if logistic:
        return _sigmoid(u), hidden
    return u, hidden


def reference_gradient(hidden, logistic, weights, xs, ys):
    """The per-agent gradient that stacked training replaced."""
    h = hidden
    w_out = weights[2 * h : 3 * h]
    preds, hidden = reference_predict(h, logistic, weights, xs)
    delta = (2.0 / len(xs)) * (preds - ys)
    if logistic:
        delta = delta * preds * (1.0 - preds)
    grad_w_out = hidden.T @ delta
    grad_b_out = float(np.sum(delta))
    back = np.outer(delta, w_out) * (1.0 - hidden**2)
    grad_w_in = xs @ back
    grad_b_in = back.sum(axis=0)
    return np.concatenate([grad_w_in, grad_b_in, grad_w_out, [grad_b_out]])


def reference_train(hidden, logistic, weights, xs, ys, hp):
    """One agent at a time on one series; returns (weights, final MSE)."""
    weights = weights.astype(float, copy=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            weights -= hp.learning_rate * reference_gradient(hidden, logistic, weights, xs, ys)
        preds, _ = reference_predict(hidden, logistic, weights, xs)
        final_mse = float(np.mean((preds - ys) ** 2))
    return weights, final_mse


def mixed_population(rng):
    """Every hidden count with both activations, interleaved over three series.

    Returns the stack and its window: row i is agent i's series.
    """
    xs = np.linspace(0.1, 0.9, 50)
    series = [(xs, xs), (xs, xs**2), (rng.uniform(0.1, 0.9, 50), rng.uniform(0.1, 0.9, 50))]
    specs = [(h, logistic) for h in range(HIDDEN_MIN, HIDDEN_MAX + 1) for logistic in (False, True)]
    specs = [specs[i] for i in rng.permutation(len(specs))] * 2
    stack = new_stack(specs, rng)
    rows = [series[i % len(series)] for i in range(len(stack))]
    return stack, TrainingWindow(np.array([x for x, _ in rows]), np.array([y for _, y in rows]))


def assert_trains_like_the_per_agent_loop(stack, window, hp):
    # Bit-equality holds because each row of a stack goes through the same
    # numpy/BLAS calls as a lone agent; a numpy or BLAS change may break it.
    trained = train(stack, window, hp)
    assert len(trained) == len(stack)
    rows = zip(agents(stack), window.inputs, window.targets, agents(trained))
    for k, ((hidden, logistic, weights, _), xs, ys, got) in enumerate(rows):
        want_weights, final_mse = reference_train(hidden, logistic, weights, xs, ys, hp)
        where = f"agent {k} {(hidden, logistic)} under numpy {np.__version__}"
        assert got[:2] == (hidden, logistic)
        assert np.array_equal(got[2], want_weights), f"weights differ for {where}"
        assert got[3] == final_mse, f"final MSE differs for {where}"


def test_stacked_training_equals_the_per_agent_loop_bit_for_bit():
    stack, window = mixed_population(np.random.default_rng(31))
    assert_trains_like_the_per_agent_loop(stack, window, Hyperparams(epochs=200))


def random_window(rng, rows, n):
    return TrainingWindow(rng.uniform(0.1, 0.9, (rows, n)), rng.uniform(0.1, 0.9, (rows, n)))


LINEAR, LOGISTIC = False, True
ONE_ROW_GROUPS = [(4, LINEAR), (7, LOGISTIC), (4, LOGISTIC), (1, LINEAR)]


@pytest.mark.parametrize(
    ("specs", "n", "epochs"),
    [
        pytest.param(None, 1, 200, id="one-pair window"),
        pytest.param(None, 2, 200, id="two-pair window"),
        pytest.param(ONE_ROW_GROUPS, 50, 200, id="one-row groups"),
        pytest.param([(1, LINEAR), (1, LOGISTIC)] * 3, 50, 200, id="only h=1"),
        pytest.param(None, 50, 1, id="one epoch"),
    ],
)
def test_training_special_shapes_equal_the_per_agent_loop_bit_for_bit(specs, n, epochs):
    # The shapes the stacked kernel treats apart: windows of one or two
    # pairs, groups of a single row, h = 1 (whose hidden-bias gradient is a
    # pairwise `sum`, not einsum) and a single epoch.  None is every spec.
    rng = np.random.default_rng(39)
    if specs is None:
        stack, _ = mixed_population(rng)
    else:
        stack = new_stack(specs, rng)
    window = random_window(rng, len(stack), n)
    assert_trains_like_the_per_agent_loop(stack, window, Hyperparams(epochs=epochs))


def test_einsum_adds_over_n_in_the_order_of_sum_axis_1():
    # The hidden-bias gradient sums a (rows, n, h) array over n with einsum
    # for h >= 2 and must equal sum(axis=1) bit for bit.  Magnitudes spread
    # over 16 decades make any other order of additions show.
    rng = np.random.default_rng(41)
    for h in range(2, HIDDEN_MAX + 1):
        for n in (1, 2, 3, 8, 50):
            b = rng.normal(size=(3, n, h)) * 10.0 ** rng.uniform(-8, 8, size=(3, n, h))
            assert np.array_equal(np.einsum("rnh->rh", b), b.sum(axis=1)), (
                f"einsum('rnh->rh') no longer adds in the order of sum(axis=1) "
                f"at h={h}, n={n} under numpy {np.__version__}"
            )


def test_training_again_leaves_earlier_results_untouched():
    # train updates its weight array in place.  It trains a copy, so
    # neither the stack passed in nor an earlier result may change, in
    # groups of one row or of many.
    rng = np.random.default_rng(40)
    hp = Hyperparams(epochs=20)
    for stack in (mixed_population(rng)[0], new_stack(ONE_ROW_GROUPS, rng)):
        window = random_window(rng, len(stack), 50)
        untrained = stack.weights.copy()
        first = train(stack, window, hp)
        second = train(stack, window, hp)
        assert np.array_equal(stack.weights, untrained)
        assert np.all(np.isnan(stack.errors))
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.errors, second.errors)
        kept, kept_errors = first.weights.copy(), first.errors.copy()
        again = train(first, window, hp)
        assert np.array_equal(first.weights, kept)
        assert np.array_equal(first.errors, kept_errors)
        for weights, retrained in zip(first.weight_rows(), again.weight_rows()):
            assert not np.array_equal(retrained, weights)


def test_mse_gradient_equals_the_per_agent_gradient_bit_for_bit():
    stack, window = mixed_population(np.random.default_rng(32))
    for (hidden, logistic, weights, _), xs, ys in zip(agents(stack), window.inputs, window.targets):
        expected = reference_gradient(hidden, logistic, weights, xs, ys)
        got = mse_gradient(make_agent(hidden, logistic, weights), one_row(xs, ys))
        assert np.array_equal(got, expected), f"{(hidden, logistic)} under numpy {np.__version__}"


def test_forward_equals_the_per_agent_forward_pass_bit_for_bit():
    # One input per agent (a day's prediction, inputs spread past the
    # training range) and a whole window per agent (scoring).
    rng = np.random.default_rng(35)
    stack, window = mixed_population(rng)
    for xs in (rng.uniform(-0.8, 2.7, size=(len(stack), 1)), window.inputs):
        got = forward(stack, xs)
        assert got.shape == np.shape(xs)
        for (hidden, logistic, weights, _), row, out in zip(agents(stack), xs, got):
            expected, _ = reference_predict(hidden, logistic, weights, row)
            where = f"{(hidden, logistic)} under numpy {np.__version__}"
            assert np.array_equal(out, expected), where


def test_one_trained_stack_serves_every_window_length_bit_for_bit():
    # train's Stack keeps one hidden buffer per group, sized for one n at a
    # time: a day's predictions (n = 1), scoring (n = window) and a day
    # again all run on it and equal the per-agent forward pass.
    rng = np.random.default_rng(42)
    stack, window = mixed_population(rng)
    stack = train(stack, window, Hyperparams(epochs=5))
    day = rng.uniform(-0.8, 2.7, size=(len(stack), 1))
    for xs in (day, window.inputs, day):
        got = forward(stack, xs)
        for (hidden, logistic, weights, _), row, out in zip(agents(stack), xs, got):
            expected, _ = reference_predict(hidden, logistic, weights, row)
            assert np.array_equal(out, expected), f"{(hidden, logistic)} at n = {len(row)}"
    errors = evaluate_error(stack, window)
    for (hidden, logistic, weights, _), xs, ys, error in zip(
        agents(stack), window.inputs, window.targets, errors
    ):
        preds, _ = reference_predict(hidden, logistic, weights, xs)
        assert error == np.mean((preds - ys) ** 2), f"{(hidden, logistic)}"
    restacked = stack_agents(stack.hidden, stack.logistic, stack.weight_rows(), stack.errors)
    assert np.array_equal(forward(stack, day), forward(restacked, day))


def test_one_stack_gives_a_fresh_stacks_bits_at_every_call_and_length():
    # A stack keeps its gradient and group buffers between calls, sized for
    # one n at a time.  Each call, after others at other lengths, must give
    # the bits of the same call on a freshly built stack, and no call may
    # overwrite an array an earlier call returned.
    rng = np.random.default_rng(43)
    stack, _ = mixed_population(rng)
    hp = Hyperparams(epochs=3)

    def trained(s, window):
        result = train(s, window, hp)
        return np.concatenate((result.weights, result.errors))

    calls = [
        ("forward", 3, lambda s, window: forward(s, window.inputs)),
        ("mse_gradient", 7, mse_gradient),
        ("forward(days=True)", 2, lambda s, window: forward(s, window.inputs, days=True)),
        ("train", 5, trained),
        ("mse_gradient", 3, mse_gradient),
    ]
    returned = []
    for name, n, call in calls:
        window = random_window(rng, len(stack), n)
        fresh = stack_agents(stack.hidden, stack.logistic, stack.weight_rows(), stack.errors)
        got = call(stack, window)
        assert np.array_equal(got, call(fresh, window)), f"{name} at n = {n}"
        returned.append((name, got, got.copy()))
    for name, got, kept in returned:
        assert np.array_equal(got, kept), f"a later call overwrote the result of {name}"


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.integers(HIDDEN_MIN, HIDDEN_MAX), st.booleans()), min_size=1, max_size=24
    ),
    days=st.integers(1, 50),
    trained=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_block_of_days_equals_one_forward_call_per_day_bit_for_bit(specs, days, trained, seed):
    # forward(days=True) runs one dot per agent and day, where a window's
    # (n, h) @ (h, 1) product is a gemv whose last bits differ for h >= 2.
    # A trained stack serves a block, a window (which reallocates its
    # hidden buffers) and the block again.
    rng = np.random.default_rng(seed)
    stack = new_stack(specs, rng)
    window = random_window(rng, len(stack), 50)
    if trained:
        stack = train(stack, window, Hyperparams(epochs=5))
    block = rng.uniform(-0.8, 2.7, size=(len(stack), days))
    for _ in range(2):
        got = forward(stack, block, days=True)
        assert got.shape == block.shape
        for j in range(days):
            assert np.array_equal(got[:, [j]], forward(stack, block[:, [j]])), (
                f"day {j} of {days} under numpy {np.__version__}"
            )
        forward(stack, window.inputs)


def test_forward_rejects_inputs_of_the_wrong_shape():
    stack, _ = mixed_population(np.random.default_rng(36))
    for shape in ((len(stack),), (len(stack) - 1, 1), (len(stack) + 1, 1)):
        with pytest.raises(ValueError, match="inputs"):
            forward(stack, np.full(shape, 0.5))


def test_evaluate_error_equals_the_per_agent_mse_bit_for_bit():
    stack, window = mixed_population(np.random.default_rng(37))
    errors = evaluate_error(stack, window)
    assert len(errors) == len(stack)
    for (hidden, logistic, weights, _), xs, ys, error in zip(
        agents(stack), window.inputs, window.targets, errors
    ):
        preds, _ = reference_predict(hidden, logistic, weights, xs)
        assert error == np.mean((preds - ys) ** 2), f"{(hidden, logistic)}"


def drop_last_row(window):
    return TrainingWindow(window.inputs[:-1], window.targets[:-1])


NO_ROWS = TrainingWindow(np.empty((0, 50)), np.empty((0, 50)))
NO_AGENTS = Stack([], [], [], [])


def test_forward_of_no_agents_is_an_empty_array():
    assert forward(NO_AGENTS, np.empty((0, 1))).shape == (0, 1)


def test_evaluate_error_shares_the_window_checks_of_train():
    stack, window = mixed_population(np.random.default_rng(38))
    with pytest.raises(DataError, match="40 agents but 39 window rows"):
        evaluate_error(stack, drop_last_row(window))
    assert evaluate_error(NO_AGENTS, NO_ROWS) == []


def test_train_rejects_unequal_agent_and_window_counts():
    stack, window = mixed_population(np.random.default_rng(33))
    with pytest.raises(DataError, match="40 agents but 39 window rows"):
        train(stack, drop_last_row(window), Hyperparams(epochs=1))


def test_train_of_no_agents_returns_an_empty_list():
    # The result is an empty Stack.
    assert len(train(NO_AGENTS, NO_ROWS, Hyperparams(epochs=1))) == 0


def test_divergence_inside_a_mixed_stack_names_the_first_diverged_agent():
    # Linear agents blow up at a learning rate of 1000 among logistic agents
    # of the same and other hidden counts.  The logistic output and factor
    # run on the logistic rows only, beside the overflowing linear rows;
    # none of numpy's warnings may escape.  Both linear agents diverge, so
    # the error must name the first in population order, the 3-unit agent,
    # the one the per-agent loop stops at.
    rng = np.random.default_rng(34)
    xs = np.linspace(0.1, 0.9, 50)
    specs = [(7, LOGISTIC), (5, LOGISTIC), (3, LINEAR), (3, LOGISTIC), (7, LINEAR)]
    stack = new_stack(specs, rng)
    hp = Hyperparams(epochs=200, learning_rate=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError) as info:
            train(stack, TrainingWindow(np.tile(xs, (5, 1)), np.tile(xs, (5, 1))), hp)
        first = next(
            (hidden, logistic)
            for hidden, logistic, weights, _ in agents(stack)
            if not math.isfinite(reference_train(hidden, logistic, weights, xs, xs, hp)[1])
        )
    assert first == (3, False)
    message = str(info.value)
    assert "3-unit linear" in message
    assert "200 epochs" in message
    assert "learning rate 1000.0" in message


class InlineWorker:
    """A worker that trains pickled copies of the rows handed to it in this process."""

    def __init__(self):
        self.jobs = 0

    def submit(self, *job):
        self.jobs += 1
        self.reply = train_rows(*pickle.loads(pickle.dumps(job)))

    def result(self):
        return self.reply


def divergence_message(stack, window, hp, worker=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError) as info:
            train(stack, window, hp, worker)
    return str(info.value)


def test_a_split_call_equals_one_process_bit_for_bit_at_every_cut(monkeypatch):
    # Every cut of the sorted rows: inside groups and between them, with
    # one-row groups and a one-row side at either end.
    rng = np.random.default_rng(42)
    hp = Hyperparams(epochs=30)
    for stack in (mixed_population(rng)[0], new_stack(ONE_ROW_GROUPS, rng)):
        window = random_window(rng, len(stack), 50)
        whole = train(stack, window, hp)
        for cut in range(1, len(stack)):
            monkeypatch.setattr(neural, "_balanced_cut", lambda hidden, n: cut)
            worker = InlineWorker()
            split = train(stack, window, hp, worker)
            assert worker.jobs == 1
            assert np.array_equal(split.weights, whole.weights), f"weights differ at cut {cut}"
            assert np.array_equal(split.errors, whole.errors), f"errors differ at cut {cut}"
            assert np.all(np.isnan(stack.errors))


def test_a_diverging_row_on_either_side_of_the_cut_names_the_same_agent(monkeypatch):
    # Both linear agents diverge.  The first in population order, the
    # 7-unit one, sorts last, so every cut leaves it on the worker's side
    # and the 3-unit one on this process's side.
    rng = np.random.default_rng(43)
    xs = np.linspace(0.1, 0.9, 50)
    stack = new_stack([(7, LINEAR), (5, LOGISTIC), (3, LINEAR), (3, LOGISTIC)], rng)
    window = TrainingWindow(np.tile(xs, (4, 1)), np.tile(xs, (4, 1)))
    hp = Hyperparams(epochs=200, learning_rate=1000.0)
    whole = divergence_message(stack, window, hp)
    assert "7-unit linear" in whole
    for cut in range(1, len(stack)):
        monkeypatch.setattr(neural, "_balanced_cut", lambda hidden, n: cut)
        assert divergence_message(stack, window, hp, InlineWorker()) == whole, f"cut {cut}"


def test_every_train_rows_job_is_checked_as_a_stack_is():
    # A job for a 17-weight stack of 2 and 3 units with 3 weights too many,
    # 1 too few, or a hidden count outside [1, 10] raises the error that
    # building the Stack raises, in this process and through the worker.
    rng = np.random.default_rng(45)
    logistic, weights = np.array([False, True]), rng.uniform(-0.5, 0.5, 17)
    xs, ys = rng.uniform(0.0, 1.0, (2, 5)), rng.uniform(0.0, 1.0, (2, 5))
    jobs = [
        ([2, 3], np.r_[weights, 0.0, 0.0, 0.0]),
        ([2, 3], weights[:-1]),
        ([0, 3], weights),
        ([2, 11], weights),
    ]
    with TrainingWorker() as worker:
        for hidden, flat in jobs:
            with pytest.raises((ConfigError, ValueError)) as built:
                Stack(hidden, logistic, flat, [math.nan, math.nan])
            error = f"{type(built.value).__name__}: {built.value}"
            with pytest.raises(type(built.value)) as trained:
                train_rows(hidden, logistic, flat, xs, ys, 1, 0.05)
            assert f"{type(trained.value).__name__}: {trained.value}" == error
            worker.submit(hidden, logistic, flat, xs, ys, 1, 0.05)
            with pytest.raises(TrainingWorkerError) as failed:
                worker.result()
            assert str(failed.value) == f"training worker failed: {error}"


def test_the_balanced_cut_splits_a_uniform_population_near_its_middle():
    hidden = np.repeat(np.arange(HIDDEN_MIN, HIDDEN_MAX + 1), 10)
    cut = neural._balanced_cut(hidden, 50)
    assert 40 <= cut <= 60
    assert neural._balanced_cut(np.array([3, 3]), 50) == 1


def test_a_split_through_the_worker_process_equals_one_process_bit_for_bit(monkeypatch):
    # After the split call, a job the worker cannot run comes back as a
    # named error.
    rng = np.random.default_rng(44)
    stack, _ = mixed_population(rng)
    window = random_window(rng, len(stack), 50)
    hp = Hyperparams(epochs=30)
    with TrainingWorker() as worker:
        jobs = []
        submit = worker.submit
        monkeypatch.setattr(worker, "submit", lambda *job: jobs.append(job) or submit(*job))
        split = train(stack, window, hp, worker)
        worker.submit("not", "a", "job")
        with pytest.raises(TrainingWorkerError, match="training worker failed: TypeError"):
            worker.result()
    whole = train(stack, window, hp)
    assert len(jobs) == 2
    assert np.array_equal(split.weights, whole.weights)
    assert np.array_equal(split.errors, whole.errors)
