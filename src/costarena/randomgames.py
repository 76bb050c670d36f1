"""Seeded random games for the property suites.

Three cost families, all non-decreasing with C(empty) = 0, built so class
membership holds by construction rather than by rejection sampling:

* arbitrary: random non-negative increments layered over the subset
  lattice (each set costs at least the max of its one-smaller subsets).
* submodular: weighted coverage functions, or anonymous costs with
  non-increasing marginals.
* supermodular: non-negative singleton rates plus pairwise surcharges, or
  anonymous costs with non-decreasing marginals.

Every drawn value is p/q with q <= 4, so the generator works in integers,
numerators over ``SCALE``, and hands them to ``SetCostFunction`` in its
integer form. Everything is driven by ``random.Random`` seeds, so corpora
are reproducible across runs and platforms.
"""

from __future__ import annotations

import itertools
import random

from .core import (
    MAX_PLAYERS, SUBMODULAR, SUPERMODULAR, CapExceededError, GameModel, SetCostFunction,
    ValidationError, full_mask, mask_members, read_int)

ARBITRARY = "arbitrary"
COST_CLASSES = (ARBITRARY, SUBMODULAR, SUPERMODULAR)

SCALE = 12  # lcm(1, 2, 3, 4)

CORPUS_CAP = 10 ** 5  # games in one corpus; as many default-size games take about 200 MB


def _small_fraction(rng: random.Random, num_max: int) -> int:
    """A random p/q with p <= num_max and q <= 4, as a numerator over SCALE."""
    return rng.randint(0, num_max) * (SCALE // rng.randint(1, 4))


def _cost(n: int, nums: list[int], *, anonymous: bool = False) -> SetCostFunction:
    return SetCostFunction(n, nums, anonymous=anonymous, denominators=[SCALE] * len(nums))


def _monotone_lattice_cost(rng: random.Random, n: int) -> SetCostFunction:
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        floor = 0
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            floor = max(floor, table[mask ^ bit])
        bump = _small_fraction(rng, 6) if rng.random() < 0.75 else 0
        table[mask] = floor + bump
    return _cost(n, table)


def _coverage_cost(rng: random.Random, n: int) -> SetCostFunction:
    groups = [(rng.randint(1, full_mask(n)), _small_fraction(rng, 8))
              for _ in range(rng.randint(1, 4))]
    return _cost(n, [sum(w for gmask, w in groups if mask & gmask) for mask in range(1 << n)])


def _anonymous_cost(rng: random.Random, n: int, shape: str) -> SetCostFunction:
    """Anonymous cost whose marginals are sorted ("concave", "convex") or "shuffled"."""
    marginals = [_small_fraction(rng, 8) for _ in range(n)]
    if shape == "shuffled":
        rng.shuffle(marginals)
    else:
        marginals.sort(reverse=(shape == "concave"))
    return _cost(n, list(itertools.accumulate(marginals, initial=0)), anonymous=True)


def _pairwise_cost(rng: random.Random, n: int) -> SetCostFunction:
    rates = [_small_fraction(rng, 6) for _ in range(n)]
    surcharges = {pair: _small_fraction(rng, 4)
                  for pair in itertools.combinations(range(n), 2)}
    return _cost(n, [sum(rates[i] for i in members)
                     + sum(surcharges[pair] for pair in itertools.combinations(members, 2))
                     for members in map(mask_members, range(1 << n))])


def random_cost(rng: random.Random, n: int, cost_class: str = ARBITRARY) -> SetCostFunction:
    if cost_class == ARBITRARY:
        if rng.random() < 0.25:
            return _anonymous_cost(rng, n, "shuffled")
        return _monotone_lattice_cost(rng, n)
    if cost_class == SUBMODULAR:
        if rng.random() < 0.5:
            return _coverage_cost(rng, n)
        return _anonymous_cost(rng, n, "concave")
    if cost_class == SUPERMODULAR:
        if rng.random() < 0.5:
            return _pairwise_cost(rng, n)
        return _anonymous_cost(rng, n, "convex")
    raise ValidationError(f"unknown cost class {cost_class!r}")


def random_game(rng: random.Random, cost_class: str = ARBITRARY, *,
                max_players: int = 4, max_resources: int = 4,
                max_strategies: int = 4) -> GameModel:
    """One random game, its sizes read before the first draw; small chance
    of empty strategies to exercise opt-out behaviour."""
    read_int(max_players, "max_players", 1, MAX_PLAYERS)
    read_int(max_resources, "max_resources", 1)
    read_int(max_strategies, "max_strategies", 1)
    n = rng.randint(1, max_players)
    n_res = rng.randint(1, max_resources)
    resources = tuple(f"r{j}" for j in range(n_res))
    strategy_sets = []
    for _ in range(n):
        count = rng.randint(1, max_strategies)
        seen: dict[frozenset[str], None] = {}
        for _ in range(count):
            if rng.random() < 0.08:
                strat: frozenset[str] = frozenset()
            else:
                size = rng.randint(1, n_res)
                strat = frozenset(rng.sample(resources, size))
            seen.setdefault(strat)
        strategy_sets.append(tuple(seen))
    cost_fns = tuple(random_cost(rng, n, cost_class) for _ in range(n_res))
    return GameModel(n=n, resources=resources,
                     strategy_sets=tuple(strategy_sets), cost_fns=cost_fns)


def corpus(seed: int, count: int, cost_class: str = ARBITRARY, *,
           max_players: int = 4, max_resources: int = 4,
           max_strategies: int = 4) -> list[GameModel]:
    """Deterministic list of ``count`` (at most CORPUS_CAP) random games for one int seed."""
    if cost_class not in COST_CLASSES:
        raise ValidationError(f"unknown cost class {cost_class!r}")
    if read_int(count, "game count") > CORPUS_CAP:
        raise CapExceededError(f"{count} games asked for, cap is {CORPUS_CAP}")
    rng = random.Random(read_int(seed, "seed", None))
    return [random_game(rng, cost_class, max_players=max_players, max_resources=max_resources,
                        max_strategies=max_strategies) for _ in range(count)]
