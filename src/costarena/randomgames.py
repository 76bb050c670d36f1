"""Seeded random games for the property suites.

Three cost families, all non-decreasing with C(empty) = 0, built so class
membership holds by construction rather than by rejection sampling:

* arbitrary: random non-negative increments layered over the subset
  lattice (each set costs at least the max of its one-smaller subsets).
* submodular: weighted coverage functions, or anonymous costs with
  non-increasing marginals.
* supermodular: non-negative singleton rates plus pairwise surcharges, or
  anonymous costs with non-decreasing marginals.

Everything is driven by ``random.Random`` seeds, so corpora are
reproducible across runs and platforms.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .core import GameModel, SetCostFunction, ValidationError, full_mask, mask_members

ARBITRARY = "arbitrary"
SUBMODULAR_CLASS = "submodular"
SUPERMODULAR_CLASS = "supermodular"
COST_CLASSES = (ARBITRARY, SUBMODULAR_CLASS, SUPERMODULAR_CLASS)


def _small_fraction(rng: random.Random, num_max: int = 12, den_max: int = 4) -> Fraction:
    return Fraction(rng.randint(0, num_max), rng.randint(1, den_max))


def _monotone_lattice_cost(rng: random.Random, n: int) -> SetCostFunction:
    table = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        floor = Fraction(0)
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            floor = max(floor, table[mask ^ bit])
        bump = _small_fraction(rng, 6) if rng.random() < 0.75 else Fraction(0)
        table[mask] = floor + bump
    return SetCostFunction(n, table)


def _coverage_cost(rng: random.Random, n: int) -> SetCostFunction:
    groups = [(rng.randint(1, full_mask(n)), _small_fraction(rng, 8))
              for _ in range(rng.randint(1, 4))]
    table = []
    for mask in range(1 << n):
        total = Fraction(0)
        for gmask, w in groups:
            if mask & gmask:
                total += w
        table.append(total)
    return SetCostFunction(n, table)


def _anonymous_cost(rng: random.Random, n: int, shape: str) -> SetCostFunction:
    marginals = sorted((_small_fraction(rng, 8) for _ in range(n)),
                       reverse=(shape == "concave"))
    values = [Fraction(0)]
    for m in marginals:
        values.append(values[-1] + m)
    return SetCostFunction.anonymous(values)


def _pairwise_cost(rng: random.Random, n: int) -> SetCostFunction:
    rates = [_small_fraction(rng, 6) for _ in range(n)]
    surcharges = {pair: _small_fraction(rng, 4)
                  for pair in itertools.combinations(range(n), 2)}
    table = []
    for mask in range(1 << n):
        members = mask_members(mask)
        total = sum((rates[i] for i in members), Fraction(0))
        for pair in itertools.combinations(members, 2):
            total += surcharges[pair]
        table.append(total)
    return SetCostFunction(n, table)


def random_cost(rng: random.Random, n: int, cost_class: str = ARBITRARY) -> SetCostFunction:
    if cost_class == ARBITRARY:
        if rng.random() < 0.25:
            marginals = [_small_fraction(rng, 8) for _ in range(n)]
            rng.shuffle(marginals)
            values = [Fraction(0)]
            for m in marginals:
                values.append(values[-1] + m)
            return SetCostFunction.anonymous(values)
        return _monotone_lattice_cost(rng, n)
    if cost_class == SUBMODULAR_CLASS:
        if rng.random() < 0.5:
            return _coverage_cost(rng, n)
        return _anonymous_cost(rng, n, "concave")
    if cost_class == SUPERMODULAR_CLASS:
        if rng.random() < 0.5:
            return _pairwise_cost(rng, n)
        return _anonymous_cost(rng, n, "convex")
    raise ValueError(f"unknown cost class {cost_class!r}")


def random_game(rng: random.Random, cost_class: str = ARBITRARY, *,
                max_players: int = 4, max_resources: int = 4,
                max_strategies: int = 4) -> GameModel:
    """One random game; small chance of empty strategies to exercise
    opt-out behaviour."""
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


def corpus(seed: int, count: int, cost_class: str = ARBITRARY, **kwargs) -> list[GameModel]:
    """Deterministic list of ``count`` random games for one seed."""
    if count < 0:
        raise ValidationError(f"game count {count} is negative")
    rng = random.Random(seed)
    return [random_game(rng, cost_class, **kwargs) for _ in range(count)]
