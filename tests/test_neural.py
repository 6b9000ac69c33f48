"""Agent construction, forward pass, gradients and training."""

import math
import warnings

import numpy as np
import pytest

from gamarket.errors import ConfigError, DataError, TrainingDivergedError
from gamarket.neural import (
    HIDDEN_MAX,
    HIDDEN_MIN,
    ActivationKind,
    Agent,
    AgentSpec,
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


def make_agent(hidden, kind, weights):
    return Agent(spec=AgentSpec(hidden, kind), weights=np.asarray(weights, dtype=float))


def reference_forward(hidden, kind, weights, x):
    """Independent scalar re-implementation using math, not numpy."""
    h = hidden
    w_in, b_in, w_out = weights[:h], weights[h : 2 * h], weights[2 * h : 3 * h]
    b_out = weights[3 * h]
    u = b_out + sum(w_out[j] * math.tanh(w_in[j] * x + b_in[j]) for j in range(h))
    if kind is ActivationKind.LOGISTIC:
        return 1.0 / (1.0 + math.exp(-u))
    return u


def test_forward_matches_hand_computation():
    # h=2 linear network evaluated by hand:
    # u = 0.3*tanh(0.5*0.3 + 0.1) + 0.4*tanh(-0.25*0.3 + 0.2) + 0.05
    weights = [0.5, -0.25, 0.1, 0.2, 0.3, 0.4, 0.05]
    agent = make_agent(2, ActivationKind.LINEAR, weights)
    expected = 0.3 * math.tanh(0.25) + 0.4 * math.tanh(0.125) + 0.05
    assert forward(agent, 0.3) == pytest.approx(expected, abs=1e-12)

    logistic = make_agent(2, ActivationKind.LOGISTIC, weights)
    assert forward(logistic, 0.3) == pytest.approx(
        1.0 / (1.0 + math.exp(-expected)), abs=1e-12
    )


def test_forward_matches_reference_on_random_agents():
    rng = np.random.default_rng(11)
    for _ in range(50):
        agent = init_random(rng)
        x = float(rng.uniform(-2, 2))
        expected = reference_forward(
            agent.spec.hidden_units, agent.spec.activation, agent.weights, x
        )
        assert forward(agent, x) == pytest.approx(expected, rel=1e-12)


def test_forward_is_pure():
    rng = np.random.default_rng(5)
    agent = init_random(rng)
    before = agent.weights.copy()
    first = forward(agent, 0.4)
    second = forward(agent, 0.4)
    assert first == second
    assert np.array_equal(agent.weights, before)


def test_forward_rejects_non_finite_input():
    agent = make_agent(1, ActivationKind.LINEAR, [0.1, 0.2, 0.3, 0.4])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            forward(agent, bad)


def test_logistic_output_strictly_inside_unit_interval():
    # Extreme weights drive the pre-activation far into saturation.
    for scale in (1.0, 100.0, 1e6):
        for sign in (1.0, -1.0):
            weights = [1.0, 0.0, sign * scale, sign * scale]
            agent = make_agent(1, ActivationKind.LOGISTIC, weights)
            value = forward(agent, 1.0)
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
        agent = new_agent(AgentSpec(h, ActivationKind.LINEAR), rng)
        assert len(agent.weights) == 3 * h + 1
        assert agent.spec.weight_count() == 3 * h + 1


def test_spec_rejects_out_of_range_hidden_units():
    for bad in (0, 11, -1):
        with pytest.raises(ConfigError):
            AgentSpec(bad, ActivationKind.LINEAR)


def test_init_random_respects_bounds_and_seed():
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    seen_hidden = set()
    seen_kinds = set()
    for _ in range(300):
        agent = init_random(rng_a)
        twin = init_random(rng_b)
        assert HIDDEN_MIN <= agent.spec.hidden_units <= HIDDEN_MAX
        assert np.all(np.abs(agent.weights) <= 0.5)
        assert agent.spec == twin.spec
        assert np.array_equal(agent.weights, twin.weights)
        seen_hidden.add(agent.spec.hidden_units)
        seen_kinds.add(agent.spec.activation)
    assert seen_hidden == set(range(HIDDEN_MIN, HIDDEN_MAX + 1))
    assert seen_kinds == {ActivationKind.LINEAR, ActivationKind.LOGISTIC}


def test_evaluate_error_matches_loop_oracle():
    rng = np.random.default_rng(9)
    agent = init_random(rng)
    xs = rng.uniform(0.1, 0.9, 20)
    ys = rng.uniform(0.1, 0.9, 20)
    window = TrainingWindow(inputs=xs, targets=ys)
    total = 0.0
    for x, y in zip(xs, ys):
        pred = reference_forward(agent.spec.hidden_units, agent.spec.activation, agent.weights, x)
        total += (pred - y) ** 2
    assert evaluate_error(agent, window) == pytest.approx(total / 20, rel=1e-12)


def test_evaluate_error_rejects_empty_window():
    # An empty window cannot be built, so no loss or gradient ever sees one.
    with pytest.raises(DataError, match="at least one"):
        TrainingWindow(inputs=np.array([]), targets=np.array([]))


def central_difference(agent, window, step=1e-5):
    numeric = np.empty_like(agent.weights)
    for i in range(len(agent.weights)):
        bumped = agent.weights.copy()
        bumped[i] += step
        up = evaluate_error(Agent(agent.spec, bumped), window)
        bumped[i] -= 2 * step
        down = evaluate_error(Agent(agent.spec, bumped), window)
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
    window = TrainingWindow(inputs=xs, targets=ys)
    for h in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        for kind in ActivationKind:
            agent = new_agent(AgentSpec(h, kind), rng)
            assert gradient_check(agent, window) < 1e-4


def test_train_returns_new_agent_and_preserves_architecture():
    rng = np.random.default_rng(3)
    agent = init_random(rng)
    original = agent.weights.copy()
    xs = np.linspace(0.1, 0.9, 50)
    window = TrainingWindow(inputs=xs, targets=xs)
    trained = train(agent, window, Hyperparams(epochs=20))
    assert trained is not agent
    assert trained.spec == agent.spec
    assert np.array_equal(agent.weights, original)  # input untouched
    assert trained.last_training_error is not None
    assert trained.last_training_error >= 0
    assert trained.last_training_error == pytest.approx(evaluate_error(trained, window), rel=1e-12)


def test_train_reduces_error_on_linear_series():
    # Every agent improves; linear agents halve their error outright, and the
    # population as a whole halves its mean error (logistic updates are damped
    # by the output derivative, so their individual 200-epoch drop is smaller).
    rng = np.random.default_rng(17)
    xs = np.linspace(0.1, 0.9, 50)
    window = TrainingWindow(inputs=xs, targets=xs)
    befores, afters = [], []
    linear_befores, linear_afters = [], []
    for kind in ActivationKind:
        for trial in range(10):
            agent = new_agent(AgentSpec(int(rng.integers(1, 11)), kind), rng)
            before = evaluate_error(agent, window)
            trained = train(agent, window, Hyperparams(epochs=200, learning_rate=0.05))
            assert trained.last_training_error < before
            if kind is ActivationKind.LINEAR:
                linear_befores.append(before)
                linear_afters.append(trained.last_training_error)
            befores.append(before)
            afters.append(trained.last_training_error)
    assert np.mean(linear_afters) <= 0.5 * np.mean(linear_befores)
    assert np.mean(afters) <= 0.5 * np.mean(befores)


def test_train_is_bit_reproducible():
    xs = np.linspace(0.1, 0.9, 50)
    window = TrainingWindow(inputs=xs, targets=xs**2)
    first = train(
        init_random(np.random.default_rng(8)), window, Hyperparams(epochs=50)
    )
    second = train(
        init_random(np.random.default_rng(8)), window, Hyperparams(epochs=50)
    )
    assert first.spec == second.spec
    assert first.weights.tobytes() == second.weights.tobytes()


def test_divergent_training_raises_a_named_error():
    # A learning rate of 1000 blows every linear agent up on a ramp; the
    # error names the architecture, epochs and learning rate.
    rng = np.random.default_rng(4)
    xs = np.linspace(0.1, 0.9, 50)
    window = TrainingWindow(inputs=xs, targets=xs)
    for hidden in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        agent = new_agent(AgentSpec(hidden, ActivationKind.LINEAR), rng)
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
    agent = make_agent(1, ActivationKind.LINEAR, [0.1, 0.2, 0.3, 0.4])
    window = TrainingWindow(inputs=np.array([0.5]), targets=np.array([0.5]))
    with pytest.raises(ConfigError):
        train(agent, window, Hyperparams(epochs=0))


def test_misaligned_window_is_rejected():
    with pytest.raises(DataError):
        TrainingWindow(inputs=np.array([0.1, 0.2]), targets=np.array([0.3]))
