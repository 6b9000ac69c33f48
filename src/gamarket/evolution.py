"""Architecture evolution for every player's agents, as (players, n) arrays.

An agent's architecture is two plain fields, `hidden` and `logistic`;
only this module encodes them, as a 9-bit chromosome held as an int,
`gray(h) << 1 | gene`: the hidden-unit count h Gray-coded into the high
8 bits (bit 8 down to bit 1) and the activation gene in bit 0 (0 = linear,
1 = logistic).  Generations are produced by fitness-proportional (roulette)
reproduction, one-point crossover and single-bit mutation; decoded hidden
counts are clamped back into the legal range.

`evolve_generation` runs each step once over the whole population, one
row of n agents per player: fitness and its row-wise cumulative sum,
selection by counting cumulative entries, crossover and mutation as XOR
masks, decoding through a 512-entry table and a keep mask that compares
each child with its parent.  Only the random draws loop per player (and
per chromosome for mutation), because the `ga` stream interleaves each
player's pool draws with its crossover draws; every stream sees the same
draws, in the same order, as a per-player loop would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .neural import HIDDEN_MAX, HIDDEN_MIN, Agent, new_agent
from .players import Population
from .rng import RandomStreams

CHROMOSOME_BITS = 9  # 8 Gray-coded hidden-count bits, then the activation gene
FITNESS_EPS = 1e-6


def gray(value: int) -> int:
    """Reflected binary Gray code of a nonnegative integer."""
    return value ^ (value >> 1)


def encode(hidden, logistic):
    """The chromosome of (hidden, logistic), elementwise on ints or on arrays."""
    return gray(hidden) << 1 | logistic


def decode(chromosome: int) -> tuple[int, bool]:
    """Invert `encode` to (hidden, logistic), clamping hidden into [HIDDEN_MIN, HIDDEN_MAX]."""
    hidden = chromosome >> 1
    for shift in (1, 2, 4):  # prefix XOR undoes the Gray code of an 8-bit value
        hidden ^= hidden >> shift
    return min(max(hidden, HIDDEN_MIN), HIDDEN_MAX), bool(chromosome & 1)


def crossover_one_point(a, b, cut):
    """Keep each parent's top `cut` bits and swap the rest (cut in 1..8).

    Works elementwise on ints or on int arrays of pairs and their cuts.
    """
    cuts = np.asarray(cut)
    if np.any((cuts < 1) | (cuts > CHROMOSOME_BITS - 1)):
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


# decode's hidden count of every chromosome, indexed by the chromosome.
_DECODED_HIDDEN = np.array([decode(c)[0] for c in range(1 << CHROMOSOME_BITS)])


def error_fitness(errors) -> np.ndarray:
    """Inverse validation error, elementwise; FITNESS_EPS keeps a perfect agent finite."""
    errors = np.asarray(errors, dtype=float)
    if np.any(errors < 0):
        raise ValueError(f"errors must be >= 0, got {errors.min()}")
    return 1.0 / (FITNESS_EPS + errors)


def roulette_select(fitness, draws) -> np.ndarray:
    """Row-wise roulette: each of row i's draws picks an index of row i's fitness.

    A draw u, uniform on [0, 1), picks index j with probability
    proportional to fitness[j]: the count of cumulative fitness entries
    <= u times the row's total, capped at the last index, which is
    `searchsorted(cumulative, u * total, side="right")`.  Rows are the last
    axis of `fitness` and of `draws`; a 1-D fitness is one row.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.size == 0:
        raise ValueError("cannot select from an empty fitness list")
    if np.any(fitness <= 0) or not np.all(np.isfinite(fitness)):
        raise ValueError("all fitness values must be finite and > 0")
    cumulative = np.cumsum(fitness, axis=-1)
    targets = np.asarray(draws) * cumulative[..., -1:]
    picks = np.count_nonzero(cumulative[..., None, :] <= targets[..., :, None], axis=-1)
    return np.minimum(picks, fitness.shape[-1] - 1)


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
    population: Population,
    errors: list[float],
    params: GAParams,
    streams: RandomStreams,
    weight_init_scale: float = 0.5,
) -> Population:
    """Produce the next generation of every player's agents at once.

    errors[i] is the validation MSE of `population.agents[i]`.  Each player
    evolves on its own n agents, one row of the (players, n) arrays that
    hold fitness, parents and chromosomes.  Selection draws a same-size
    mating pool by roulette, pool neighbours are crossed with probability
    p_cross at a uniform interior cut, every chromosome faces single-bit
    mutation, and the i-th decoded (hidden, logistic) pair becomes the
    player's agent i of the next list (its slot, not its parent, fixes
    which stock it predicts).  An agent whose decoded pair equals its
    selected parent's keeps that parent's weights and last training error;
    any changed architecture gets fresh random weights, drawn in pool
    order.  Only the random draws loop over players, so every stream sees
    the draws of one player after another: `ga` each player's pool draws
    and then its crossover draws, `mutation` one draw or two per
    chromosome.
    """
    params.validate()
    agents = population.agents
    if len(agents) != len(errors):
        raise ConfigError(f"got {len(errors)} errors for {len(agents)} agents")
    players, n = population.players, population.stocks * population.k  # n agents per player
    if n < 2:
        raise ConfigError(f"evolution needs at least 2 agents per player, got {n}")
    fitness = error_fitness(np.reshape(errors, (players, n)))
    draws, cuts = np.empty((players, n)), np.zeros((players, n // 2), dtype=int)
    for pool_draws, pair_cuts in zip(draws, cuts):
        pool_draws[:] = streams.ga.random(n)
        for j in range(n // 2):
            if streams.ga.random() < params.p_cross:
                pair_cuts[j] = streams.ga.integers(1, CHROMOSOME_BITS)
    parents = (roulette_select(fitness, draws) + n * np.arange(players)[:, None]).ravel()
    hidden, logistic = population.architectures()
    chromosomes = encode(hidden[parents], logistic[parents])
    pool = chromosomes.reshape(players, n)  # a view; pool neighbours are slots 2j and 2j + 1
    firsts, seconds = pool[:, 0 : n - 1 : 2], pool[:, 1::2]
    crossed = cuts > 0
    firsts[crossed], seconds[crossed] = crossover_one_point(
        firsts[crossed], seconds[crossed], cuts[crossed]
    )
    # mutate_bit of 0 is a chromosome's flip mask; the masks are drawn in pool order.
    chromosomes ^= [mutate_bit(0, params.p_mut, streams.mutation) for _ in chromosomes]
    child_hidden, child_logistic = _DECODED_HIDDEN[chromosomes], (chromosomes & 1) == 1
    kept = (child_hidden == hidden[parents]) & (child_logistic == logistic[parents])
    next_agents = []
    for parent, h, is_logistic, keep in zip(
        parents.tolist(), child_hidden.tolist(), child_logistic.tolist(), kept.tolist()
    ):
        if keep:
            weights, error = agents[parent].weights.copy(), agents[parent].last_training_error
            next_agents.append(Agent(h, is_logistic, weights, error))
        else:
            next_agents.append(new_agent(h, is_logistic, streams.init, weight_init_scale))
    return Population(next_agents, players, population.stocks)
