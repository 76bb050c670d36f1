"""Metamorphic relations: answers that must not move when a game is restated.

The ``Fraction`` oracle in ``oracle.py`` reads the same game as the kernel,
so it cannot notice a game that the kernel assembles wrongly, say a cost
paired with the wrong resource. A restated game can: shuffling the
resources and renaming them changes nothing about the game, so the
``analyze`` report and the ``best_response_dynamics`` trace must come out
equal, under Shapley, a generalized weighted Shapley system of one to three
blocks and a share table with unvalidated entries on some of the game's
cost functions.
"""

import random
from fractions import Fraction

import pytest

from costarena.core import GameModel, mask_members
from costarena.equilibrium import analyze, best_response_dynamics
from costarena.gadgets import build_pos_linear, build_pos_nharmonic
from costarena.network import to_game
from costarena.protocols import (
    GeneralizedWeightedShapley, ShapleyProtocol, TableProtocol, WeightSystem)
from costarena.randomgames import COST_CLASSES, corpus

#: The games that the golden ``shares`` and ``dynamics`` digests sample:
#: every 20th game of ``corpus(2026, 500, cost_class)`` (data/record_golden.py).
GOLDEN_SEED, GOLDEN_COUNT, GOLDEN_STRIDE = 2026, 500, 20
MAX_STEPS = 60


def restated(model: GameModel, rng: random.Random) -> GameModel:
    """``model`` with its resources in a shuffled order under new names that
    sort in yet another order; strategy indices stay as they were."""
    order = list(range(len(model.resources)))
    rng.shuffle(order)
    names = rng.sample(range(10 ** 6), len(order))
    rename = {r: f"e{x}" for r, x in zip(model.resources, names)}
    return GameModel(model.n, tuple(rename[model.resources[j]] for j in order),
                     tuple(tuple(frozenset(map(rename.get, s)) for s in sset)
                           for sset in model.strategy_sets),
                     tuple(model.cost_fns[j] for j in order))


def gws(rng: random.Random, n: int) -> GeneralizedWeightedShapley:
    """Positive weights over an ordered partition of the players into one
    to three blocks."""
    players = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), min(rng.randint(1, 3), n) - 1))
    blocks = tuple(tuple(players[a:b]) for a, b in zip([0, *cuts], [*cuts, n]))
    weights = tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
    return GeneralizedWeightedShapley(WeightSystem(weights, blocks))


def rigged_table(rng: random.Random, model: GameModel) -> TableProtocol:
    """A Shapley-fallback table with unvalidated entries, which need not
    balance, on about half of the game's cost functions."""
    table = TableProtocol()
    for f in model.cost_fns:
        if rng.random() < 0.5:
            for users in rng.sample(range(1, 1 << model.n), min(3, (1 << model.n) - 1)):
                table.set_entry(f, users, {i: Fraction(rng.randint(0, 9), rng.randint(1, 4))
                                           for i in mask_members(users)}, validate=False)
    return table


PROTOCOLS = {
    "shapley": lambda rng, model: ShapleyProtocol(),
    "gws": lambda rng, model: gws(rng, model.n),
    "table": rigged_table,
}


def answers(model: GameModel, protocol, start) -> tuple:
    """The ``analyze`` report, and the dynamics from the all-zero profile in
    index order and from ``start`` in a seeded random order."""
    return (analyze(model, protocol),
            best_response_dynamics(model, protocol, (0,) * model.n, MAX_STEPS),
            best_response_dynamics(model, protocol, start, MAX_STEPS, schedule="random",
                                   seed=7))


def games(cost_class: str) -> list:
    """A seeded corpus of up to five players and six resources, and the
    golden sample of the class."""
    return (corpus(38, 12, cost_class, max_players=5, max_resources=6)
            + corpus(GOLDEN_SEED, GOLDEN_COUNT, cost_class)[::GOLDEN_STRIDE])


GADGETS = [to_game(build_pos_linear(3, Fraction(1, 4))),
           to_game(build_pos_nharmonic(4, Fraction(1, 4), WeightSystem.plain(4)))]


@pytest.mark.parametrize("label", list(PROTOCOLS))
@pytest.mark.parametrize("cost_class", [*COST_CLASSES, "gadgets"])
def test_resource_order_and_names_change_no_answer(cost_class, label):
    rng = random.Random(f"{cost_class}/{label}")
    for model in GADGETS if cost_class == "gadgets" else games(cost_class):
        other = restated(model, rng)
        seed = rng.random()
        start = tuple(rng.randrange(len(s)) for s in model.strategy_sets)
        # two equal protocols, built from one seed over the first game's
        # costs in its order: no memo is shared
        before = answers(model, PROTOCOLS[label](random.Random(seed), model), start)
        after = answers(other, PROTOCOLS[label](random.Random(seed), model), start)
        assert before == after, (model, other)
