"""Tests for the genetic operators and generation turnover."""

import numpy as np
import pytest

from gamarket.errors import ConfigError
from gamarket.evolution import (
    CHROMOSOME_BITS,
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
from gamarket.neural import HIDDEN_MAX, HIDDEN_MIN, ActivationKind, AgentSpec, new_agent
from gamarket.players import Player
from gamarket.rng import make_streams


def test_gray_round_trip_all_byte_values():
    # decode inverts the Gray block of every byte, then clamps it.
    for value in range(256):
        hidden = min(max(value, HIDDEN_MIN), HIDDEN_MAX)
        assert decode(gray(value) << 1).hidden_units == hidden


def test_gray_adjacent_values_differ_in_one_bit():
    # The defining property of the reflected code.
    for value in range(255):
        assert (gray(value) ^ gray(value + 1)).bit_count() == 1


def test_gray_frozen_examples():
    # 5 -> binary 00000101 -> gray 00000111.
    assert gray(5) == 0b00000111
    # 10 -> binary 00001010 -> gray 00001111; the gene sits below it.
    assert encode(AgentSpec(10, ActivationKind.LINEAR)) == 0b00001111_0
    assert encode(AgentSpec(10, ActivationKind.LOGISTIC)) == 0b00001111_1
    assert decode(0b00000111_1) == AgentSpec(5, ActivationKind.LOGISTIC)
    # All-ones decodes to 170 and clamps to the architecture ceiling.
    assert decode(0b11111111_0).hidden_units == HIDDEN_MAX
    # All-zeros decodes to 0 and clamps to the floor.
    assert decode(0) == AgentSpec(HIDDEN_MIN, ActivationKind.LINEAR)


def test_chromosome_spec_round_trip():
    for h in range(HIDDEN_MIN, HIDDEN_MAX + 1):
        for kind in ActivationKind:
            spec = AgentSpec(hidden_units=h, activation=kind)
            assert decode(encode(spec)) == spec


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
    freqs = np.bincount(roulette_select([1.0, 2.0, 5.0], draws, rng), minlength=3) / draws
    np.testing.assert_allclose(freqs, [1 / 8, 2 / 8, 5 / 8], atol=0.005)


def test_roulette_pool_matches_one_draw_at_a_time():
    # Drawing the pool at once consumes the stream like n single draws.
    fitness = error_fitness([0.05, 0.3, 0.01, 0.2, 0.12])
    pooled = roulette_select(fitness, 1000, np.random.default_rng(9))
    single_rng = np.random.default_rng(9)
    assert pooled == [roulette_select(fitness, 1, single_rng)[0] for _ in range(1000)]


def test_roulette_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        roulette_select([], 1, rng)
    with pytest.raises(ValueError):
        roulette_select([0.0], 1, rng)
    with pytest.raises(ValueError):
        roulette_select([float("inf")], 1, rng)
    with pytest.raises(ValueError):
        roulette_select(error_fitness([float("nan"), 0.1]), 1, rng)


def test_ga_params_validation():
    GAParams().validate()
    with pytest.raises(ConfigError):
        GAParams(p_cross=1.2, p_mut=0.03).validate()
    with pytest.raises(ConfigError):
        GAParams(p_cross=0.6, p_mut=-0.1).validate()
    # Mutation must stay rarer than crossover.
    with pytest.raises(ConfigError):
        GAParams(p_cross=0.1, p_mut=0.5).validate()


def _mixed_player(seed=0, stocks=2, per_stock=4):
    rng = np.random.default_rng(seed)
    agents = []
    for _ in range(stocks * per_stock):
        h = int(rng.integers(HIDDEN_MIN, HIDDEN_MAX + 1))
        kind = ActivationKind.LINEAR if rng.integers(2) == 0 else ActivationKind.LOGISTIC
        agents.append(new_agent(AgentSpec(h, kind), rng))
    return Player(agents)


def test_evolve_generation_shape_and_legality():
    player = _mixed_player()
    n = len(player.agents)
    errors = list(np.random.default_rng(7).uniform(0.01, 0.2, n))
    child = evolve_generation(player, errors, GAParams(), make_streams(99))
    assert len(child.agents) == len(player.agents)
    for agent in child.agents:
        assert HIDDEN_MIN <= agent.spec.hidden_units <= HIDDEN_MAX
        assert len(agent.weights) == agent.spec.weight_count()


def test_evolve_generation_keeps_parent_weights_when_spec_survives():
    # With mutation off and crossover vanishingly rare, children are parent copies.
    player = _mixed_player(seed=3)
    n = len(player.agents)
    errors = [0.1] * n
    params = GAParams(p_cross=1e-12, p_mut=0.0)
    child = evolve_generation(player, errors, params, make_streams(5))
    parents = player.agents
    by_key = {(a.spec, a.weights.tobytes()) for a in parents}
    for agent in child.agents:
        assert (agent.spec, agent.weights.tobytes()) in by_key
        # Copies, not aliases: mutating a child cannot corrupt the parent.
        assert all(agent.weights is not p.weights for p in parents)


def test_evolve_generation_concentrates_on_fit_parent():
    # One agent vastly fitter than the rest should dominate the mating pool.
    player = _mixed_player(seed=8, stocks=1, per_stock=8)
    errors = [1e-9] + [10.0] * 7
    star_spec = player.agents[0].spec
    hits = 0
    trials = 200
    for seed in range(trials):
        child = evolve_generation(
            player, errors, GAParams(p_cross=1e-12, p_mut=0.0), make_streams(seed)
        )
        hits += sum(agent.spec == star_spec for agent in child.agents)
    assert hits / (trials * 8) > 0.99


def test_evolve_generation_is_deterministic_per_seed():
    player = _mixed_player(seed=21)
    n = len(player.agents)
    errors = list(np.random.default_rng(2).uniform(0.01, 0.5, n))
    a = evolve_generation(player, errors, GAParams(), make_streams(123))
    b = evolve_generation(_mixed_player(seed=21), errors, GAParams(), make_streams(123))
    for x, y in zip(a.agents, b.agents):
        assert x.spec == y.spec
        assert x.weights.tobytes() == y.weights.tobytes()


def test_evolve_generation_validation():
    player = _mixed_player()
    streams = make_streams(1)
    with pytest.raises(ConfigError):
        evolve_generation(player, [0.1], GAParams(), streams)
    n = len(player.agents)
    with pytest.raises(ValueError):
        evolve_generation(player, [-0.1] + [0.1] * (n - 1), GAParams(), streams)
    with pytest.raises(ValueError):
        evolve_generation(player, [float("nan")] + [0.1] * (n - 1), GAParams(), streams)
    single = Player([new_agent(AgentSpec(2, ActivationKind.LINEAR), np.random.default_rng(0))])
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
    L, G = ActivationKind.LINEAR, ActivationKind.LOGISTIC
    assert [a.spec for a in child.agents] == [
        AgentSpec(h, kind)
        for h, kind in [(10, L), (6, L), (4, G), (5, L), (6, L), (5, L), (9, G), (3, L)]
    ]
    parent_weights = {a.weights.tobytes() for a in player.agents}
    kept = [a.weights.tobytes() in parent_weights for a in child.agents]
    assert kept == [False, True, True, False, True, False, False, False]
    assert streams.ga.random() == 0.557870569619728
    assert streams.mutation.random() == 0.6298292058975088
    assert streams.init.random() == 0.4261701960319463
