"""Tests for the genetic operators and generation turnover."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gamarket.errors import ConfigError
from gamarket.evolution import (
    CHROMOSOME_BITS,
    FITNESS_EPS,
    GAParams,
    crossover_one_point,
    decode,
    encode,
    error_fitness,
    evolve_generation,
    gray,
    mutate_bit,
    roulette_select,
)
from gamarket.neural import HIDDEN_MAX, HIDDEN_MIN, draw_weights, stack_agents
from gamarket.players import Population
from gamarket.rng import make_streams
from test_neural import agents, make_agent


def test_gray_round_trip_all_byte_values():
    # decode inverts the Gray block of every byte, then clamps it.
    for value in range(256):
        hidden = min(max(value, HIDDEN_MIN), HIDDEN_MAX)
        assert decode(gray(value) << 1) == (hidden, False)


def test_gray_adjacent_values_differ_in_one_bit():
    # The defining property of the reflected code.
    for value in range(255):
        assert (gray(value) ^ gray(value + 1)).bit_count() == 1


def test_gray_frozen_examples():
    # 5 -> binary 00000101 -> gray 00000111.
    assert gray(5) == 0b00000111
    # 10 -> binary 00001010 -> gray 00001111; the gene sits below it.
    assert encode(10, False) == 0b00001111_0
    assert encode(10, True) == 0b00001111_1
    assert decode(0b00000111_1) == (5, True)
    # All-ones decodes to 170 and clamps to the architecture ceiling.
    assert decode(0b11111111_0) == (HIDDEN_MAX, False)
    # All-zeros decodes to 0 and clamps to the floor.
    assert decode(0) == (HIDDEN_MIN, False)


def test_chromosome_spec_round_trip():
    for h in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        for logistic in (False, True):
            assert decode(encode(h, logistic)) == (h, logistic)


def test_crossover_frozen_example():
    child_a, child_b = crossover_one_point(0b000000000, 0b111111111, cut=4)
    assert child_a == 0b000011111
    assert child_b == 0b111100000


def test_crossover_preserves_bit_multiset_at_every_cut():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        a, b = (int(x) for x in rng.integers(0, 1 << CHROMOSOME_BITS, 2))
        for cut in range(1, CHROMOSOME_BITS):
            ca, cb = crossover_one_point(a, b, cut)
            # Position-wise, the children keep exactly the parents' bits.
            assert ca & cb == a & b
            assert ca | cb == a | b
            # The top `cut` bits stay with their parent.
            shift = CHROMOSOME_BITS - cut
            assert (ca >> shift, cb >> shift) == (a >> shift, b >> shift)
    with pytest.raises(ValueError):
        crossover_one_point(a, b, cut=0)
    with pytest.raises(ValueError):
        crossover_one_point(a, b, cut=CHROMOSOME_BITS)


def test_mutation_probability_extremes():
    rng = np.random.default_rng(43)
    base = 0b010101010
    # p_mut = 0 never mutates.
    for _ in range(100):
        assert mutate_bit(base, 0.0, rng) == base
    # p_mut = 1 always flips exactly one bit.
    for _ in range(500):
        assert (mutate_bit(base, 1.0, rng) ^ base).bit_count() == 1
    with pytest.raises(ValueError):
        mutate_bit(base, 1.5, rng)


class _FixedIndex:
    """Stand-in rng: always mutates, always at the given index."""

    def __init__(self, index):
        self.index = index

    def random(self):
        return 0.0

    def integers(self, high):
        assert high == CHROMOSOME_BITS
        return self.index


def test_mutation_hits_every_position():
    rng = np.random.default_rng(44)
    seen = {mutate_bit(0, 1.0, rng).bit_length() - 1 for _ in range(2000)}
    assert seen == set(range(CHROMOSOME_BITS))
    # Index 0 is the Gray block's most significant bit, index 8 the gene.
    assert mutate_bit(0, 1.0, _FixedIndex(0)) == 1 << 8
    assert mutate_bit(0, 1.0, _FixedIndex(8)) == 1


def test_fitness_is_inverse_error():
    assert error_fitness([0.25])[0] == pytest.approx(1.0 / (1e-6 + 0.25))
    # Zero error stays finite thanks to the epsilon.
    assert error_fitness([0.0])[0] == pytest.approx(1e6)
    with pytest.raises(ValueError):
        error_fitness([0.1, -0.1])


def test_roulette_matches_fitness_proportions():
    rng = np.random.default_rng(47)
    draws = 200_000
    picks = roulette_select([1.0, 2.0, 5.0], rng.random(draws))
    freqs = np.bincount(picks, minlength=3) / draws
    np.testing.assert_allclose(freqs, [1 / 8, 2 / 8, 5 / 8], atol=0.005)


def test_roulette_pool_matches_one_draw_at_a_time():
    # Selecting every row's pool at once equals selecting each draw of each
    # row on its own.
    fitness = error_fitness([[0.05, 0.3, 0.01, 0.2, 0.12], [0.2, 0.2, 0.0, 0.4, 0.2]])
    draws = np.random.default_rng(9).random((2, 1000))
    pooled = roulette_select(fitness, draws)
    assert pooled.shape == (2, 1000)
    for row, row_draws, picks in zip(fitness, draws, pooled):
        assert picks.tolist() == [roulette_select(row, [u])[0] for u in row_draws]


def test_roulette_counts_like_searchsorted_right_on_every_boundary():
    # A draw whose target lands exactly on a cumulative entry counts that
    # entry, as searchsorted(side="right") does; the top is capped at n - 1.
    fitness = np.array([[1.0, 2.0, 1.0, 4.0], [2.0, 2.0, 2.0, 2.0]])
    cumulative = np.cumsum(fitness, axis=1)
    draws = np.array([[0.0, 1 / 8, 3 / 8, 4 / 8, 0.5 - 2**-54, 1 - 2**-53]] * 2)
    draws[1, 1:4] = [1 / 4, 2 / 4, 3 / 4]
    targets = draws * cumulative[:, -1:]
    assert set(targets[0, 1:4]) <= set(cumulative[0]) and set(targets[1, 1:4]) <= set(cumulative[1])
    expected = [
        np.minimum(np.searchsorted(c, t, side="right"), 3) for c, t in zip(cumulative, targets)
    ]
    assert roulette_select(fitness, draws).tolist() == np.array(expected).tolist()
    assert roulette_select(fitness, draws)[0].tolist() == [0, 1, 2, 3, 2, 3]


def test_roulette_validation():
    with pytest.raises(ValueError):
        roulette_select([], [0.5])
    with pytest.raises(ValueError):
        roulette_select([0.0], [0.5])
    with pytest.raises(ValueError):
        roulette_select([float("inf")], [0.5])
    with pytest.raises(ValueError):
        roulette_select(error_fitness([float("nan"), 0.1]), [0.5])


def test_ga_params_validation():
    GAParams().validate()
    with pytest.raises(ConfigError):
        GAParams(p_cross=1.2, p_mut=0.03).validate()
    with pytest.raises(ConfigError):
        GAParams(p_cross=0.6, p_mut=-0.1).validate()
    # Mutation must stay rarer than crossover.
    with pytest.raises(ConfigError):
        GAParams(p_cross=0.1, p_mut=0.5).validate()


def _mixed_agents(seed, size):
    """`size` random (hidden, logistic, weights, error) agents, untrained."""
    rng = np.random.default_rng(seed)
    mixed = []
    for _ in range(size):
        h = int(rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1))
        logistic = bool(rng.integers(2) == 1)
        mixed.append((h, logistic, draw_weights(h, rng, 0.5), math.nan))
    return mixed


def _population(mixed, players, stocks):
    """A population over a stack of (hidden, logistic, weights, error) agents."""
    return Population(stack_agents(*zip(*mixed)), players=players, stocks=stocks)


def _mixed_player(seed=0, stocks=2, per_stock=4):
    """A one-player population of random architectures."""
    return _population(_mixed_agents(seed, stocks * per_stock), players=1, stocks=stocks)


def _architectures(population):
    return list(zip(population.stack.hidden.tolist(), population.stack.logistic.tolist()))


def test_evolve_generation_shape_and_legality():
    player = _mixed_player()
    n = len(player.stack)
    errors = list(np.random.default_rng(7).uniform(0.01, 0.2, n))
    child = evolve_generation(player, errors, GAParams(), make_streams(99))
    assert len(child.stack) == len(player.stack)
    for hidden, _, weights, _ in agents(child.stack):
        assert HIDDEN_MIN <= hidden <= HIDDEN_MAX
        assert len(weights) == 3 * hidden + 1


def test_evolve_generation_keeps_parent_weights_when_spec_survives():
    # With mutation off and crossover vanishingly rare, children are parent copies.
    player = _mixed_player(seed=3)
    n = len(player.stack)
    errors = [0.1] * n
    params = GAParams(p_cross=1e-12, p_mut=0.0)
    child = evolve_generation(player, errors, params, make_streams(5))
    by_key = {(h, logistic, w.tobytes()) for h, logistic, w, _ in agents(player.stack)}
    for hidden, logistic, weights, _ in agents(child.stack):
        assert (hidden, logistic, weights.tobytes()) in by_key
    # Copies, not aliases: changing a child's weights cannot corrupt the parent.
    assert not np.shares_memory(child.stack.weights, player.stack.weights)


def test_evolve_generation_concentrates_on_fit_parent():
    # One agent vastly fitter than the rest should dominate the mating pool.
    player = _mixed_player(seed=8, stocks=1, per_stock=8)
    errors = [1e-9] + [10.0] * 7
    star = _architectures(player)[0]
    hits = 0
    trials = 200
    for seed in range(trials):
        child = evolve_generation(
            player, errors, GAParams(p_cross=1e-12, p_mut=0.0), make_streams(seed)
        )
        hits += sum(arch == star for arch in _architectures(child))
    assert hits / (trials * 8) > 0.99


def test_evolve_generation_is_deterministic_per_seed():
    player = _mixed_player(seed=21)
    n = len(player.stack)
    errors = list(np.random.default_rng(2).uniform(0.01, 0.5, n))
    a = evolve_generation(player, errors, GAParams(), make_streams(123))
    b = evolve_generation(_mixed_player(seed=21), errors, GAParams(), make_streams(123))
    assert _architectures(a) == _architectures(b)
    for (_, _, x, _), (_, _, y, _) in zip(agents(a.stack), agents(b.stack)):
        assert x.tobytes() == y.tobytes()


def test_evolve_generation_validation():
    player = _mixed_player()
    streams = make_streams(1)
    with pytest.raises(ConfigError):
        evolve_generation(player, [0.1], GAParams(), streams)
    n = len(player.stack)
    with pytest.raises(ValueError):
        evolve_generation(player, [-0.1] + [0.1] * (n - 1), GAParams(), streams)
    with pytest.raises(ValueError):
        evolve_generation(player, [float("nan")] + [0.1] * (n - 1), GAParams(), streams)
    single = Population(make_agent(2, False, np.zeros(7)), players=1, stocks=1)
    with pytest.raises(ConfigError):
        evolve_generation(single, [0.1], GAParams(), streams)


def test_evolve_generation_pins_the_draw_order():
    # Values recorded from the tuple-based implementation: any change to
    # which stream a draw comes from, or to how many draws each stream
    # makes, changes the children or the streams' next values.
    player = _mixed_player(seed=21)
    errors = [0.05, 0.3, 0.01, 0.2, 0.12, 0.07, 0.4, 0.02]
    streams = make_streams(123)
    child = evolve_generation(player, errors, GAParams(p_cross=0.9, p_mut=0.5), streams)
    L, G = False, True
    assert _architectures(child) == [
        (10, L), (6, L), (4, G), (5, L), (6, L), (5, L), (9, G), (3, L)
    ]
    parent_weights = {w.tobytes() for w in player.stack.weight_rows()}
    kept = [w.tobytes() in parent_weights for w in child.stack.weight_rows()]
    assert kept == [False, True, True, False, True, False, False, False]
    assert streams.ga.random() == 0.557870569619728
    assert streams.mutation.random() == 0.6298292058975088
    assert streams.init.random() == 0.4261701960319463


def _key(agent):
    hidden, logistic, weights, error = agent
    return hidden, logistic, weights.tobytes(), None if math.isnan(error) else error


def test_evolving_every_player_in_one_call_equals_one_call_per_player():
    players = [_mixed_agents(30 + p, 8) for p in range(3)]
    errors = np.random.default_rng(4).uniform(0.01, 0.5, 3 * 8).tolist()
    params = GAParams(p_cross=0.9, p_mut=0.5)
    together_streams, alone_streams = make_streams(77), make_streams(77)
    population = _population([a for mixed in players for a in mixed], players=3, stocks=2)
    together = evolve_generation(population, errors, params, together_streams)
    alone = []
    for p, mixed in enumerate(players):
        one = _population(mixed, players=1, stocks=2)
        evolved = evolve_generation(one, errors[p * 8 : (p + 1) * 8], params, alone_streams)
        alone += agents(evolved.stack)
    assert (together.players, together.stocks, together.k) == (3, 2, 4)
    assert [_key(a) for a in agents(together.stack)] == [_key(a) for a in alone]
    for name in ("ga", "mutation", "init"):
        assert getattr(together_streams, name).random() == getattr(alone_streams, name).random()


def reference_evolve(population, errors, params, streams, weight_init_scale):
    """The per-player body that the array evolution replaced, on a flat agent list.

    Agents are (hidden, logistic, weights, error) tuples, error NaN when untrained.
    """
    n = population.stocks * population.k
    flat = agents(population.stack)
    next_agents = []
    for pid in range(population.players):
        own = flat[pid * n : (pid + 1) * n]
        fitness = 1.0 / (FITNESS_EPS + np.asarray(errors[pid * n : (pid + 1) * n], dtype=float))
        cumulative = np.cumsum(fitness)
        picks = np.searchsorted(cumulative, streams.ga.random(n) * cumulative[-1], side="right")
        parents = np.minimum(picks, n - 1).tolist()
        chromosomes = [encode(own[p][0], own[p][1]) for p in parents]
        for j in range(0, n - 1, 2):
            if streams.ga.random() < params.p_cross:
                cut = int(streams.ga.integers(1, CHROMOSOME_BITS))
                chromosomes[j], chromosomes[j + 1] = crossover_one_point(
                    chromosomes[j], chromosomes[j + 1], cut
                )
        for parent_index, chromosome in zip(parents, chromosomes):
            hidden, logistic = decode(mutate_bit(chromosome, params.p_mut, streams.mutation))
            parent = own[parent_index]
            if (hidden, logistic) == parent[:2]:
                next_agents.append(parent)
            else:
                scale = weight_init_scale
                weights = streams.init.uniform(-scale, scale, 3 * hidden + 1)
                next_agents.append((hidden, logistic, weights, math.nan))
    return next_agents


# p_cross = 0 is no valid GAParams (p_mut must be smaller), so the smallest
# positive float stands in: random() < 5e-324 only on a draw of exactly 0.0.
NO_CROSSOVER = 5e-324


@settings(max_examples=150, deadline=None)
@given(
    players=st.integers(1, 5),
    stocks=st.integers(1, 3),
    k=st.integers(1, 3),
    p_cross=st.sampled_from([NO_CROSSOVER, 0.6, 1.0]),
    p_mut=st.sampled_from([0.0, 0.03, 0.5]),
    scale=st.sampled_from([0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_array_evolution_equals_the_per_player_loop(
    players, stocks, k, p_cross, p_mut, scale, seed, data
):
    assume(stocks * k >= 2 and p_mut < p_cross)
    size = players * stocks * k
    # Exact ties and 0.0 are drawn often, beside arbitrary errors.
    error = st.one_of(st.sampled_from([0.0, 0.05, 0.25]), st.floats(0.0, 2.0))
    errors = data.draw(st.lists(error, min_size=size, max_size=size))
    rng = np.random.default_rng(seed)
    mixed = []
    for i in range(size):
        h = int(rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1))
        logistic = bool(rng.integers(2))
        weights = draw_weights(h, rng, 0.5)
        mixed.append((h, logistic, weights, float(rng.random()) if i % 3 else math.nan))
    population = _population(mixed, players, stocks)
    params = GAParams(p_cross=p_cross, p_mut=p_mut)
    got_streams, want_streams = make_streams(seed), make_streams(seed)
    children = evolve_generation(population, errors, params, got_streams, scale).stack
    got = agents(children)
    want = reference_evolve(population, errors, params, want_streams, scale)
    assert children.hidden.dtype == int and children.logistic.dtype == bool
    assert [a[:2] for a in got] == [a[:2] for a in want]
    assert [a[2].tobytes() for a in got] == [a[2].tobytes() for a in want]
    assert [_key(a)[3] for a in got] == [_key(a)[3] for a in want]
    for name in ("ga", "mutation", "init"):
        assert getattr(got_streams, name).random() == getattr(want_streams, name).random()
