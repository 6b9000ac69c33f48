"""Agent construction, forward pass, gradients and training."""

import math
import warnings

import numpy as np
import pytest

from gamarket.errors import ConfigError, DataError, TrainingDivergedError
from gamarket.neural import (
    HIDDEN_MAX,
    HIDDEN_MIN,
    Agent,
    Hyperparams,
    TrainingWindow,
    _sigmoid,
    evaluate_error,
    forward,
    init_random,
    mse_gradient,
    new_agent,
    train,
)


def make_agent(hidden, logistic, weights):
    return Agent(hidden, logistic, np.asarray(weights, dtype=float))


def arch(agent):
    """An agent's architecture: (hidden units, logistic output)."""
    return agent.hidden, agent.logistic


def forward_one(agent, x):
    """One agent on one input, through the population forward pass."""
    return float(forward([agent], [[x]])[0, 0])


def one_row(xs, ys):
    """A one-row window of the pairs (xs[i], ys[i])."""
    return TrainingWindow(inputs=np.asarray(xs)[None], targets=np.asarray(ys)[None])


def error_one(agent, window):
    """One agent's MSE over a one-row window, through the population scorer."""
    [error] = evaluate_error([agent], window)
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
        agent = init_random(rng)
        x = float(rng.uniform(-2, 2))
        expected = reference_forward(agent.hidden, agent.logistic, agent.weights, x)
        assert forward_one(agent, x) == pytest.approx(expected, rel=1e-12)


def test_forward_is_pure():
    rng = np.random.default_rng(5)
    agent = init_random(rng)
    before = agent.weights.copy()
    first = forward_one(agent, 0.4)
    second = forward_one(agent, 0.4)
    assert first == second
    assert np.array_equal(agent.weights, before)


def test_forward_rejects_non_finite_input():
    agent = make_agent(1, False, [0.1, 0.2, 0.3, 0.4])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            forward([agent], [[bad]])
    # The message gives the shape and the count, not the whole array.
    xs = np.full((1, 1000), 0.5)
    xs[0, [3, 500]] = math.inf
    with pytest.raises(ValueError, match=r"got shape \(1, 1000\) with 2 non-finite values$"):
        forward([agent], xs)


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
            agent = new_agent(h, logistic, rng)
            assert arch(agent) == (h, logistic)
            assert len(agent.weights) == 3 * h + 1


def test_new_agent_rejects_out_of_range_hidden_units():
    rng = np.random.default_rng(0)
    for bad in (0, 11, -1):
        for logistic in (False, True):
            with pytest.raises(ConfigError, match=rf"must lie in \[1, 10\], got {bad}$"):
                new_agent(bad, logistic, rng)


def test_init_random_respects_bounds_and_seed():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    seen_hidden = set()
    seen_kinds = set()
    for _ in range(300):
        agent = init_random(rng_a)
        twin = init_random(rng_b)
        assert HIDDEN_MIN <= agent.hidden <= HIDDEN_MAX
        assert type(agent.logistic) is bool
        assert np.all(np.abs(agent.weights) <= 0.5)
        assert arch(agent) == arch(twin)
        assert np.array_equal(agent.weights, twin.weights)
        seen_hidden.add(agent.hidden)
        seen_kinds.add(agent.logistic)
    assert seen_hidden == set(range(HIDDEN_MIN, HIDDEN_MAX + 1))
    assert seen_kinds == {False, True}


def test_evaluate_error_matches_loop_oracle():
    rng = np.random.default_rng(9)
    agent = init_random(rng)
    xs = rng.uniform(0.1, 0.9, 20)
    ys = rng.uniform(0.1, 0.9, 20)
    window = one_row(xs, ys)
    total = 0.0
    for x, y in zip(xs, ys):
        pred = reference_forward(agent.hidden, agent.logistic, agent.weights, x)
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
        up = error_one(Agent(agent.hidden, agent.logistic, bumped), window)
        bumped[i] -= 2 * step
        down = error_one(Agent(agent.hidden, agent.logistic, bumped), window)
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
            agent = new_agent(h, logistic, rng)
            assert gradient_check(agent, window) < 1e-4


def test_train_returns_new_agent_and_preserves_architecture():
    rng = np.random.default_rng(3)
    agent = init_random(rng)
    original = agent.weights.copy()
    xs = np.linspace(0.1, 0.9, 50)
    window = one_row(xs, xs)
    [trained] = train([agent], window, Hyperparams(epochs=20))
    assert trained is not agent
    assert arch(trained) == arch(agent)
    assert np.array_equal(agent.weights, original)  # input untouched
    assert trained.last_training_error is not None
    assert trained.last_training_error >= 0
    assert trained.last_training_error == pytest.approx(error_one(trained, window), rel=1e-12)


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
            agent = new_agent(int(rng.integers(1, 11)), logistic, rng)
            before = error_one(agent, window)
            [trained] = train([agent], window, Hyperparams(epochs=200, learning_rate=0.05))
            assert trained.last_training_error < before
            if not logistic:
                linear_befores.append(before)
                linear_afters.append(trained.last_training_error)
            befores.append(before)
            afters.append(trained.last_training_error)
    assert np.mean(linear_afters) <= 0.5 * np.mean(linear_befores)
    assert np.mean(afters) <= 0.5 * np.mean(befores)


def test_train_is_bit_reproducible():
    xs = np.linspace(0.1, 0.9, 50)
    window = one_row(xs, xs**2)
    [first] = train([init_random(np.random.default_rng(8))], window, Hyperparams(epochs=50))
    [second] = train([init_random(np.random.default_rng(8))], window, Hyperparams(epochs=50))
    assert arch(first) == arch(second)
    assert first.weights.tobytes() == second.weights.tobytes()


def test_divergent_training_raises_a_named_error():
    # A learning rate of 1000 blows every linear agent up on a ramp; the
    # error names the architecture, epochs and learning rate.
    rng = np.random.default_rng(4)
    xs = np.linspace(0.1, 0.9, 50)
    window = one_row(xs, xs)
    for hidden in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        agent = new_agent(hidden, False, rng)
        # Numpy's overflow warnings are silenced inside train; any that
        # escaped would fail here as errors.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as info:
                train([agent], window, Hyperparams(epochs=200, learning_rate=1000.0))
        message = str(info.value)
        assert f"{hidden}-unit linear" in message
        assert "200 epochs" in message
        assert "learning rate 1000.0" in message


def test_zero_epochs_is_a_config_error():
    agent = make_agent(1, False, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ConfigError):
        train([agent], one_row([0.5], [0.5]), Hyperparams(epochs=0))


def test_misaligned_window_is_rejected():
    with pytest.raises(DataError):
        TrainingWindow(inputs=np.array([[0.1, 0.2]]), targets=np.array([[0.3]]))


def test_window_rows_must_be_two_dimensional():
    # A lone series is a one-row window; a flat array is refused.
    xs = np.array([0.1, 0.2])
    with pytest.raises(DataError, match=r"\(rows, n\) arrays, got shapes \(2,\)"):
        TrainingWindow(inputs=xs, targets=xs)


def reference_predict(agent, weights, xs):
    """The per-agent forward pass that the stacked one replaced, on agent's architecture."""
    h = agent.hidden
    hidden = np.tanh(np.outer(xs, weights[:h]) + weights[h : 2 * h])
    u = hidden @ weights[2 * h : 3 * h] + weights[3 * h]
    if agent.logistic:
        return _sigmoid(u), hidden
    return u, hidden


def reference_gradient(agent, weights, xs, ys):
    """The per-agent gradient that stacked training replaced, on agent's architecture."""
    h = agent.hidden
    w_out = weights[2 * h : 3 * h]
    preds, hidden = reference_predict(agent, weights, xs)
    delta = (2.0 / len(xs)) * (preds - ys)
    if agent.logistic:
        delta = delta * preds * (1.0 - preds)
    grad_w_out = hidden.T @ delta
    grad_b_out = float(np.sum(delta))
    back = np.outer(delta, w_out) * (1.0 - hidden**2)
    grad_w_in = xs @ back
    grad_b_in = back.sum(axis=0)
    return np.concatenate([grad_w_in, grad_b_in, grad_w_out, [grad_b_out]])


def reference_train(agent, xs, ys, hp):
    """One agent at a time on one series; returns (weights, final MSE)."""
    weights = agent.weights.astype(float, copy=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(hp.epochs):
            weights -= hp.learning_rate * reference_gradient(agent, weights, xs, ys)
        preds, _ = reference_predict(agent, weights, xs)
        final_mse = float(np.mean((preds - ys) ** 2))
    return weights, final_mse


def mixed_population(rng):
    """Every hidden count with both activations, interleaved over three series.

    Returns the agents and their window: row i is agent i's series.
    """
    xs = np.linspace(0.1, 0.9, 50)
    series = [(xs, xs), (xs, xs**2), (rng.uniform(0.1, 0.9, 50), rng.uniform(0.1, 0.9, 50))]
    specs = [(h, logistic) for h in range(HIDDEN_MIN, HIDDEN_MAX + 1) for logistic in (False, True)]
    specs = [specs[i] for i in rng.permutation(len(specs))] * 2
    agents = [new_agent(h, logistic, rng) for h, logistic in specs]
    rows = [series[i % len(series)] for i in range(len(agents))]
    return agents, TrainingWindow(np.array([x for x, _ in rows]), np.array([y for _, y in rows]))


def assert_trains_like_the_per_agent_loop(agents, window, hp):
    # Bit-equality holds because each row of a stack goes through the same
    # numpy/BLAS calls as a lone agent; a numpy or BLAS change may break it.
    trained = train(agents, window, hp)
    assert len(trained) == len(agents)
    rows = zip(agents, window.inputs, window.targets, trained)
    for k, (agent, xs, ys, got) in enumerate(rows):
        weights, final_mse = reference_train(agent, xs, ys, hp)
        where = f"agent {k} {arch(agent)} under numpy {np.__version__}"
        assert arch(got) == arch(agent)
        assert np.array_equal(got.weights, weights), f"weights differ for {where}"
        assert got.last_training_error == final_mse, f"final MSE differs for {where}"


def test_stacked_training_equals_the_per_agent_loop_bit_for_bit():
    agents, window = mixed_population(np.random.default_rng(31))
    assert_trains_like_the_per_agent_loop(agents, window, Hyperparams(epochs=200))


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
        agents, _ = mixed_population(rng)
    else:
        agents = [new_agent(h, logistic, rng) for h, logistic in specs]
    window = random_window(rng, len(agents), n)
    assert_trains_like_the_per_agent_loop(agents, window, Hyperparams(epochs=epochs))


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
    # train updates its weight stacks in place.  The stacks are copies, so
    # neither the agents passed in nor an earlier result may change, in
    # groups of one row or of many.
    rng = np.random.default_rng(40)
    hp = Hyperparams(epochs=20)
    for agents in (
        mixed_population(rng)[0],
        [new_agent(h, logistic, rng) for h, logistic in ONE_ROW_GROUPS],
    ):
        window = random_window(rng, len(agents), 50)
        first = train(agents, window, hp)
        second = train(agents, window, hp)
        for a, b in zip(first, second):
            assert np.array_equal(a.weights, b.weights)
            assert a.last_training_error == b.last_training_error
        kept = [agent.weights.copy() for agent in first]
        again = train(first, window, hp)
        for agent, weights, retrained in zip(first, kept, again):
            assert np.array_equal(agent.weights, weights)
            assert not np.array_equal(retrained.weights, weights)


def test_mse_gradient_equals_the_per_agent_gradient_bit_for_bit():
    agents, window = mixed_population(np.random.default_rng(32))
    for agent, xs, ys in zip(agents, window.inputs, window.targets):
        expected = reference_gradient(agent, agent.weights, xs, ys)
        assert np.array_equal(mse_gradient(agent, one_row(xs, ys)), expected), (
            f"{arch(agent)} under numpy {np.__version__}"
        )


def test_forward_equals_the_per_agent_forward_pass_bit_for_bit():
    # One input per agent (a day's prediction, inputs spread past the
    # training range) and a whole window per agent (scoring).
    rng = np.random.default_rng(35)
    agents, window = mixed_population(rng)
    for xs in (rng.uniform(-0.8, 2.7, size=(len(agents), 1)), window.inputs):
        got = forward(agents, xs)
        assert got.shape == np.shape(xs)
        for agent, row, out in zip(agents, xs, got):
            expected, _ = reference_predict(agent, agent.weights, row)
            assert np.array_equal(out, expected), f"{arch(agent)} under numpy {np.__version__}"


def test_one_trained_stack_serves_every_window_length_bit_for_bit():
    # train's Stack keeps one hidden buffer per group, sized for one n at a
    # time: a day's predictions (n = 1), scoring (n = window) and a day
    # again all run on it and equal the per-agent forward pass.
    rng = np.random.default_rng(42)
    agents, window = mixed_population(rng)
    stack = train(agents, window, Hyperparams(epochs=5))
    day = rng.uniform(-0.8, 2.7, size=(len(agents), 1))
    for xs in (day, window.inputs, day):
        got = forward(stack, xs)
        for agent, row, out in zip(stack, xs, got):
            expected, _ = reference_predict(agent, agent.weights, row)
            assert np.array_equal(out, expected), f"{arch(agent)} at n = {len(row)}"
    errors = evaluate_error(stack, window)
    for agent, xs, ys, error in zip(stack, window.inputs, window.targets, errors):
        preds, _ = reference_predict(agent, agent.weights, xs)
        assert error == np.mean((preds - ys) ** 2), f"{arch(agent)}"
    assert np.array_equal(forward(stack, day), forward(list(stack), day))


def test_forward_rejects_inputs_of_the_wrong_shape():
    agents, _ = mixed_population(np.random.default_rng(36))
    for shape in ((len(agents),), (len(agents) - 1, 1), (len(agents) + 1, 1)):
        with pytest.raises(ValueError, match="inputs"):
            forward(agents, np.full(shape, 0.5))


def test_evaluate_error_equals_the_per_agent_mse_bit_for_bit():
    agents, window = mixed_population(np.random.default_rng(37))
    errors = evaluate_error(agents, window)
    assert len(errors) == len(agents)
    for agent, xs, ys, error in zip(agents, window.inputs, window.targets, errors):
        preds, _ = reference_predict(agent, agent.weights, xs)
        assert error == np.mean((preds - ys) ** 2), f"{arch(agent)}"


def drop_last_row(window):
    return TrainingWindow(window.inputs[:-1], window.targets[:-1])


NO_ROWS = TrainingWindow(np.empty((0, 50)), np.empty((0, 50)))


def test_forward_of_no_agents_is_an_empty_array():
    assert forward([], np.empty((0, 1))).shape == (0, 1)


def test_evaluate_error_shares_the_window_checks_of_train():
    agents, window = mixed_population(np.random.default_rng(38))
    with pytest.raises(DataError, match="40 agents but 39 window rows"):
        evaluate_error(agents, drop_last_row(window))
    assert evaluate_error([], NO_ROWS) == []


def test_train_rejects_unequal_agent_and_window_counts():
    agents, window = mixed_population(np.random.default_rng(33))
    with pytest.raises(DataError, match="40 agents but 39 window rows"):
        train(agents, drop_last_row(window), Hyperparams(epochs=1))


def test_train_of_no_agents_returns_an_empty_list():
    # The result is an empty Stack, a tuple.
    assert len(train([], NO_ROWS, Hyperparams(epochs=1))) == 0


def test_divergence_inside_a_mixed_stack_names_the_first_diverged_agent():
    # Linear agents blow up at a learning rate of 1000 among logistic agents
    # of the same and other hidden counts.  The logistic output and factor
    # run on the logistic rows only, beside the overflowing linear rows;
    # none of numpy's warnings may escape.  The 7-unit stack is built first, so the
    # error must name the 3-unit agent, the one the per-agent loop stops at.
    rng = np.random.default_rng(34)
    xs = np.linspace(0.1, 0.9, 50)
    specs = [(7, LOGISTIC), (5, LOGISTIC), (3, LINEAR), (3, LOGISTIC), (7, LINEAR)]
    agents = [new_agent(h, logistic, rng) for h, logistic in specs]
    hp = Hyperparams(epochs=200, learning_rate=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError) as info:
            train(agents, TrainingWindow(np.tile(xs, (5, 1)), np.tile(xs, (5, 1))), hp)
        first = next(
            agent for agent in agents if not math.isfinite(reference_train(agent, xs, xs, hp)[1])
        )
    assert arch(first) == (3, False)
    message = str(info.value)
    assert "3-unit linear" in message
    assert "200 epochs" in message
    assert "learning rate 1000.0" in message
