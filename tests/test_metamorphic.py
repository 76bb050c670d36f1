"""Metamorphic relations: answers that must not move when a game is restated.

The ``Fraction`` oracle in ``oracle.py`` reads the same game as the kernel,
so it cannot notice a game that the kernel assembles wrongly, say a cost
paired with the wrong resource. A restated game can:

* shuffling the resources and renaming them changes nothing about the
  game, so the ``analyze`` report and the ``best_response_dynamics`` trace
  must come out equal, under Shapley, a generalized weighted Shapley system
  of one to three blocks and a share table with unvalidated entries on some
  of the game's cost functions;
* adding a resource that costs nothing to every strategy changes nothing
  either, under the same three protocols;
* relabeling the players, with each table cost and each share-table entry
  relabeled to match, maps every answer to the relabeled players: the
  equilibria with their costs and potentials, the optimum cost and both
  ratios, and each player's payment and best response, under Shapley and a
  share table;
* scaling every cost by a positive rational c keeps every choice: the
  equilibria, the optimum, both ratios and every move of the dynamics stay
  as they were, and every cost and potential is c times what it was, under
  Shapley and a generalized weighted Shapley system (a share table's entries
  are keyed by cost function, so it is left out).

Each relation also runs on games of 10 to 12 players (``wide_games``), which
the oracle cannot reach.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from costarena.core import GameModel, SetCostFunction, mask_members
from costarena.equilibrium import (
    analyze, best_response, best_response_dynamics, private_costs, social_cost)
from costarena.gadgets import build_pos_linear, build_pos_nharmonic
from costarena.network import to_game
from costarena.protocols import (
    GeneralizedWeightedShapley, ShapleyProtocol, TableProtocol, WeightSystem)
from costarena.randomgames import COST_CLASSES, corpus, random_cost

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
    balance, on about half of the game's cost functions that are not zero
    everywhere: an entry on a zero cost would charge for a resource that
    costs nothing."""
    table = TableProtocol()
    for f in model.cost_fns:
        if rng.random() < 0.5 and any(f.scaled_table() or f.scaled_counts()):
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


def cost_of_kind(rng: random.Random, n: int, cost_class: str, table: bool) -> SetCostFunction:
    """A cost of the class, drawn until it is a full table (``table``) or an
    anonymous cost."""
    while True:
        f = random_cost(rng, n, cost_class)
        if (f.anonymous_values is None) == table:
            return f


def wide_games() -> list:
    """Games of 10, 11 and 12 players with 216, 324 and 324 profiles: over
    six resources, a full table of each cost class and three anonymous costs,
    and distinct strategies of one to three resources."""
    rng = random.Random("wide")
    resources = tuple(f"r{j}" for j in range(6))
    bundles = [frozenset(c) for k in (1, 2, 3) for c in combinations(resources, k)]
    models = []
    for counts in ((3, 3, 3, 2, 2, 2, 1, 1, 1, 1), (3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1),
                   (3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1)):
        n = len(counts)
        fns = [cost_of_kind(rng, n, cost_class, table) for table in (True, False)
               for cost_class in COST_CLASSES]
        rng.shuffle(fns)
        models.append(GameModel(n, resources, tuple(tuple(rng.sample(bundles, k)) for k in counts),
                                tuple(fns)))
    return models


#: The games a relation runs on in place of a corpus, by label
NAMED = {"gadgets": GADGETS, "wide": wide_games()}


@pytest.mark.parametrize("label", list(PROTOCOLS))
@pytest.mark.parametrize("cost_class", [*COST_CLASSES, "gadgets", "wide"])
def test_resource_order_and_names_change_no_answer(cost_class, label):
    rng = random.Random(f"{cost_class}/{label}")
    for model in NAMED.get(cost_class) or games(cost_class):
        other = restated(model, rng)
        seed = rng.random()
        start = tuple(rng.randrange(len(s)) for s in model.strategy_sets)
        # two equal protocols, built from one seed over the first game's
        # costs in its order: no memo is shared
        before = answers(model, PROTOCOLS[label](random.Random(seed), model), start)
        after = answers(other, PROTOCOLS[label](random.Random(seed), model), start)
        assert before == after, (model, other)


def with_free_resource(model: GameModel) -> GameModel:
    """``model`` with one more resource, of zero cost, in every strategy."""
    free = "free" + "_" * max(map(len, model.resources), default=0)
    return GameModel(model.n, model.resources + (free,),
                     tuple(tuple(s | {free} for s in sset) for sset in model.strategy_sets),
                     model.cost_fns + (SetCostFunction.anonymous([0] * (model.n + 1)),))


@pytest.mark.parametrize("label", list(PROTOCOLS))
@pytest.mark.parametrize("cost_class", [*COST_CLASSES, "gadgets", "wide"])
def test_a_free_resource_in_every_strategy_changes_no_answer(cost_class, label):
    rng = random.Random(f"free/{cost_class}/{label}")
    for model in NAMED.get(cost_class) or corpus(39, 12, cost_class, max_players=5,
                                                 max_resources=6):
        seed = rng.random()
        start = tuple(rng.randrange(len(s)) for s in model.strategy_sets)
        before = answers(model, PROTOCOLS[label](random.Random(seed), model), start)
        after = answers(with_free_resource(model),
                        PROTOCOLS[label](random.Random(seed), model), start)
        assert before == after, model


def relabeled_mask(users: int, order: list) -> int:
    """``users`` with player i renamed ``order[i]``."""
    return sum(1 << order[i] for i in mask_members(users))


def relabeled_profile(profile: tuple, order: list) -> tuple:
    """``profile`` with player i's strategy played by player ``order[i]``."""
    out = [0] * len(order)
    for i, s in enumerate(profile):
        out[order[i]] = s
    return tuple(out)


def relabeled(model: GameModel, order: list, protocol):
    """``model`` and ``protocol`` with player i renamed ``order[i]``: player
    ``order[i]`` has i's strategies, each table cost is restated over the new
    names, and a share table's entries are moved to the new names and user
    sets."""
    inverse = sorted(range(model.n), key=order.__getitem__)  # new name -> old
    costs = {}
    for f in model.cost_fns:
        if f not in costs:
            costs[f] = f if f.scaled_table() is None else SetCostFunction(
                f.n, [f.value(relabeled_mask(m, inverse)) for m in range(1 << f.n)])
    sets = [None] * model.n
    for i, sset in enumerate(model.strategy_sets):
        sets[order[i]] = sset
    other = GameModel(model.n, model.resources, tuple(sets), tuple(map(costs.get, model.cost_fns)))
    if isinstance(protocol, TableProtocol):
        table = TableProtocol()
        for (f, users), shares in protocol.entries.items():
            table.set_entry(costs[f], relabeled_mask(users, order),
                            {order[i]: v for i, v in shares.items()}, validate=False)
        protocol = table
    return other, protocol


@pytest.mark.parametrize("label", ["shapley", "table"])
@pytest.mark.parametrize("cost_class", [*COST_CLASSES, "gadgets", "wide"])
def test_relabeled_players_map_every_answer_back(cost_class, label):
    rng = random.Random(f"relabel/{cost_class}/{label}")
    for model in NAMED.get(cost_class) or corpus(40, 12, cost_class, max_players=5,
                                                 max_resources=6):
        order = rng.sample(range(model.n), model.n)
        protocol = PROTOCOLS[label](rng, model)
        other, moved = relabeled(model, order, protocol)
        report, mapped = analyze(model, protocol), analyze(other, moved)
        assert {relabeled_profile(p, order): (c, phi) for p, c, phi in zip(
            report.pne, report.pne_costs, report.potentials or [None] * len(report.pne))} == {
            p: (c, phi) for p, c, phi in zip(
                mapped.pne, mapped.pne_costs, mapped.potentials or [None] * len(mapped.pne))}
        assert (report.optimum_cost, report.poa, report.pos) == (
            mapped.optimum_cost, mapped.poa, mapped.pos)
        assert social_cost(other, relabeled_profile(report.optimum, order)) == report.optimum_cost
        for _ in range(3):
            profile = tuple(rng.randrange(len(s)) for s in model.strategy_sets)
            there = relabeled_profile(profile, order)
            paid = private_costs(other, moved, there)
            assert private_costs(model, protocol, profile) == tuple(paid[j] for j in order)
            assert [best_response(model, protocol, profile, i) for i in range(model.n)] == [
                best_response(other, moved, there, j) for j in order]


def scaled(model: GameModel, c: Fraction) -> GameModel:
    """``model`` with every cost times c."""
    def times(f: SetCostFunction) -> SetCostFunction:
        if f.anonymous_values is not None:
            return SetCostFunction.anonymous([c * v for v in f.anonymous_values])
        return SetCostFunction(f.n, [c * f.value(m) for m in range(1 << f.n)])
    return GameModel(model.n, model.resources, model.strategy_sets,
                     tuple(map(times, model.cost_fns)))


def scaled_answers(c: Fraction, report, *runs) -> tuple:
    """``answers`` with every cost and potential times c and all else as it
    was: the equilibria, the optimum, both ratios and every move."""
    def times(v):
        return None if v is None else c * v
    report = replace(report, pne_costs=tuple(map(times, report.pne_costs)),
                     optimum_cost=c * report.optimum_cost,
                     potentials=report.potentials and tuple(map(times, report.potentials)))
    return (report, *(replace(run, social_cost=c * run.social_cost, trace=tuple(
        replace(step, phi=times(step.phi), cost_before=c * step.cost_before,
                cost_after=c * step.cost_after) for step in run.trace)) for run in runs))


@pytest.mark.parametrize("label", ["shapley", "gws"])
@pytest.mark.parametrize("cost_class", [*COST_CLASSES, "gadgets", "wide"])
def test_scaled_costs_scale_every_cost_and_keep_every_choice(cost_class, label):
    rng = random.Random(f"scale/{cost_class}/{label}")
    for model in NAMED.get(cost_class) or corpus(41, 12, cost_class, max_players=5,
                                                 max_resources=6):
        seed = rng.random()
        start = tuple(rng.randrange(len(s)) for s in model.strategy_sets)
        before = answers(model, PROTOCOLS[label](random.Random(seed), model), start)
        for c in (Fraction(3), Fraction(1, 2), Fraction(5, 7)):
            after = answers(scaled(model, c), PROTOCOLS[label](random.Random(seed), model), start)
            assert after == scaled_answers(c, *before), (model, c)
