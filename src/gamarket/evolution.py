"""Architecture evolution for a player's agents, one flat stock-major list.

Every agent's architecture is a 9-bit chromosome held as a plain int,
`gray(h) << 1 | gene`: the hidden-unit count h Gray-coded into the high
8 bits (bit 8 down to bit 1) and the activation gene in bit 0 (0 = linear,
1 = logistic).  Generations are produced by fitness-proportional (roulette)
reproduction, one-point crossover and single-bit mutation; decoded hidden
counts are clamped back into the legal range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .neural import HIDDEN_MAX, HIDDEN_MIN, ActivationKind, AgentSpec, new_agent
from .players import Player
from .rng import RandomStreams

CHROMOSOME_BITS = 9  # 8 Gray-coded hidden-count bits, then the activation gene
FITNESS_EPS = 1e-6


def gray(value: int) -> int:
    """Reflected binary Gray code of a nonnegative integer."""
    return value ^ (value >> 1)


def encode(spec: AgentSpec) -> int:
    return gray(spec.hidden_units) << 1 | (spec.activation is ActivationKind.LOGISTIC)


def decode(chromosome: int) -> AgentSpec:
    """Invert `encode`, clamping the hidden count into [HIDDEN_MIN, HIDDEN_MAX]."""
    hidden = chromosome >> 1
    for shift in (1, 2, 4):  # prefix XOR undoes the Gray code of an 8-bit value
        hidden ^= hidden >> shift
    kind = ActivationKind.LOGISTIC if chromosome & 1 else ActivationKind.LINEAR
    return AgentSpec(hidden_units=min(max(hidden, HIDDEN_MIN), HIDDEN_MAX), activation=kind)


def crossover_one_point(a: int, b: int, cut: int) -> tuple[int, int]:
    """Keep each parent's top `cut` bits and swap the rest (cut in 1..8)."""
    if not 1 <= cut <= CHROMOSOME_BITS - 1:
        raise ValueError(f"cut must lie in [1, {CHROMOSOME_BITS - 1}], got {cut}")
    swap = (a ^ b) & ((1 << (CHROMOSOME_BITS - cut)) - 1)
    return a ^ swap, b ^ swap


def mutate_bit(chromosome: int, p_mut: float, rng: np.random.Generator) -> int:
    """With probability p_mut, flip exactly one uniformly chosen bit.

    Index i counts from the most significant bit, so i = 8 is the gene.
    """
    if not 0 <= p_mut <= 1:
        raise ValueError(f"p_mut must lie in [0, 1], got {p_mut}")
    if rng.random() >= p_mut:
        return chromosome
    return chromosome ^ (1 << (CHROMOSOME_BITS - 1 - int(rng.integers(CHROMOSOME_BITS))))


def error_fitness(errors) -> np.ndarray:
    """Inverse validation error; FITNESS_EPS keeps a perfect agent finite."""
    errors = np.asarray(errors, dtype=float)
    if np.any(errors < 0):
        raise ValueError(f"errors must be >= 0, got {errors.min()}")
    return 1.0 / (FITNESS_EPS + errors)


def roulette_select(fitness, n: int, rng: np.random.Generator) -> list[int]:
    """Draw n indices, each with probability proportional to its fitness."""
    fitness = np.asarray(fitness, dtype=float)
    if fitness.size == 0:
        raise ValueError("cannot select from an empty fitness list")
    if np.any(fitness <= 0) or not np.all(np.isfinite(fitness)):
        raise ValueError("all fitness values must be finite and > 0")
    cumulative = np.cumsum(fitness)
    picks = np.searchsorted(cumulative, rng.random(n) * cumulative[-1], side="right")
    return np.minimum(picks, fitness.size - 1).tolist()


@dataclass(frozen=True)
class GAParams:
    p_cross: float = 0.6
    p_mut: float = 0.03

    def validate(self) -> None:
        if not 0 <= self.p_cross <= 1:
            raise ConfigError(f"p_cross must lie in [0, 1], got {self.p_cross}")
        if not 0 <= self.p_mut <= 1:
            raise ConfigError(f"p_mut must lie in [0, 1], got {self.p_mut}")
        if not self.p_mut < self.p_cross:
            raise ConfigError(
                f"p_mut ({self.p_mut}) must be smaller than p_cross ({self.p_cross})"
            )


def evolve_generation(
    player: Player,
    errors: list[float],
    params: GAParams,
    streams: RandomStreams,
    weight_init_scale: float = 0.5,
) -> Player:
    """Produce the next generation of one player's agents.

    errors[i] is the validation MSE of `player.agents[i]`.  Selection draws
    a same-size mating pool by roulette, pool neighbours are crossed with
    probability p_cross at a uniform interior cut, every chromosome faces
    single-bit mutation, and the i-th decoded spec becomes agent i of the
    next list (its slot, not its parent, fixes which stock it predicts).
    An agent whose decoded spec matches its selected parent keeps that
    parent's weights; any changed architecture gets fresh random weights.
    """
    params.validate()
    agents = player.agents
    n = len(agents)
    if n != len(errors):
        raise ConfigError(f"got {len(errors)} errors for {n} agents")
    if n < 2:
        raise ConfigError(f"evolution needs at least 2 agents, got {n}")

    parents = roulette_select(error_fitness(errors), n, streams.ga)
    chromosomes = [encode(agents[p].spec) for p in parents]
    for j in range(0, n - 1, 2):
        if streams.ga.random() < params.p_cross:
            cut = int(streams.ga.integers(1, CHROMOSOME_BITS))
            chromosomes[j], chromosomes[j + 1] = crossover_one_point(
                chromosomes[j], chromosomes[j + 1], cut
            )

    next_agents = []
    for parent_index, chromosome in zip(parents, chromosomes):
        spec = decode(mutate_bit(chromosome, params.p_mut, streams.mutation))
        parent = agents[parent_index]
        if spec == parent.spec:
            next_agents.append(replace(parent, weights=parent.weights.copy()))
        else:
            next_agents.append(new_agent(spec, streams.init, weight_init_scale))
    return Player(next_agents)
