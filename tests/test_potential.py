import itertools
import random
from fractions import Fraction

import pytest

from oracle import (
    alpha,
    alpha_table,
    potential_by_permutation,
    reference_private_cost,
    resource_potential,
)

from costarena import harmonic, potential, social_cost
from costarena.core import (
    GameModel,
    SetCostFunction,
    ValidationError,
    full_mask,
)
from costarena.protocols import ShapleyProtocol
from costarena.randomgames import COST_CLASSES, corpus, random_game

F = Fraction


def test_alpha_values():
    assert alpha(1, 1) == 1
    assert alpha(2, 1) == F(1, 2)
    assert alpha(2, 2) == F(1, 2)
    assert alpha(3, 2) == F(1, 6)
    assert alpha(5, 5) == F(1, 5)
    assert alpha(4, 0) == 0


def test_alpha_range_checks():
    with pytest.raises(ValidationError):
        alpha(0, 0)
    with pytest.raises(ValidationError):
        alpha(2, 3)
    with pytest.raises(ValidationError):
        alpha(3, -1)


def test_alpha_table_matches_scalar():
    for k in range(1, 9):
        tab = alpha_table(k)
        assert len(tab) == k + 1
        assert all(tab[t] == alpha(k, t) for t in range(k + 1))


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(2) == F(3, 2)
    assert harmonic(3) == F(11, 6)
    assert harmonic(10) == sum(F(1, j) for j in range(1, 11))
    with pytest.raises(ValidationError):
        harmonic(-1)
    for k in (1.5, 2.0, True):
        with pytest.raises(ValidationError) as caught:
            harmonic(k)
        assert str(caught.value) == f"harmonic number index {k!r} is not an int"


def test_alpha_weights_sum_to_harmonic():
    # the subset expansion of a constant cost collapses to c * H_k
    from math import comb
    for k in range(1, 13):
        total = sum(comb(k, t) * alpha(k, t) for t in range(1, k + 1))
        assert total == harmonic(k)


def test_resource_potential_constant_cost():
    for k in range(1, 7):
        f = SetCostFunction.anonymous([0] + [F(5)] * k)
        assert resource_potential(f, full_mask(k)) == 5 * harmonic(k)


def test_resource_potential_empty_users():
    f = SetCostFunction.anonymous([0, 1, 3])
    assert resource_potential(f, 0) == 0


def test_resource_potential_small_table():
    f = SetCostFunction.from_table(2, {(0,): 1, (1,): 3, (0, 1): 4})
    # alpha(2,1)*(C{0}+C{1}) + alpha(2,2)*C{0,1} = (1+3)/2 + 4/2
    assert resource_potential(f, 0b11) == 4


def shared_pair_game():
    f = SetCostFunction.from_table(2, {(0,): 1, (1,): 3, (0, 1): 4})
    return GameModel(2, ("r",),
                     ((frozenset({"r"}),), (frozenset({"r"}),)), (f,))


def shapley_potential(protocol, f, users):
    """One resource's Shapley potential of ``users`` as a Fraction."""
    return F(protocol.scaled_potential(f, users), protocol.share_scale(f))


def test_potential_sums_resources():
    g = shared_pair_game()
    assert potential(g, (0, 0)) == 4
    f, protocol = g.cost_fns[0], ShapleyProtocol()
    assert [shapley_potential(protocol, f, live) for live in (0b01, 0b10, 0, 0b11)] == [1, 3, 0, 4]


def test_potential_matches_alpha_formula_for_every_live_mask():
    # per resource: the potential of every live subset of a user set is the
    # subset expansion
    rng = random.Random(141)
    protocol = ShapleyProtocol()
    for cost_class in COST_CLASSES:
        for g in corpus(142, 30, cost_class, max_players=5):
            for _ in range(2):
                profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
                for f, users in zip(g.cost_fns, g.usage_masks(profile)):
                    for live in range(1 << g.n):
                        assert (shapley_potential(protocol, f, users & live)
                                == resource_potential(f, users & live))


def test_potential_insertion_chain():
    # per resource, adding one live player raises the potential by exactly
    # its share, so the potential is the sum of the entry shares
    rng = random.Random(140)
    protocol = ShapleyProtocol()
    for _ in range(30):
        g = random_game(rng, "arbitrary")
        profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        order = list(range(g.n))
        rng.shuffle(order)
        for f, users in zip(g.cost_fns, g.usage_masks(profile)):
            live, entered = 0, F(0)
            for i in order:
                live |= 1 << i
                entered += protocol.share(f, users & live, i)
                assert shapley_potential(protocol, f, users & live) == entered


def test_exact_potential_identity_random_games():
    rng = random.Random(2718)
    protocol = ShapleyProtocol()
    for _ in range(40):
        g = random_game(rng, "arbitrary")
        for profile in itertools.product(*(range(len(s)) for s in g.strategy_sets)):
            phi = potential(g, profile)
            for i in range(g.n):
                for alt in range(len(g.strategy_sets[i])):
                    if alt == profile[i]:
                        continue
                    moved = profile[:i] + (alt,) + profile[i + 1:]
                    lhs = potential(g, moved) - phi
                    rhs = (reference_private_cost(g, protocol, moved, i)
                           - reference_private_cost(g, protocol, profile, i))
                    assert lhs == rhs


def test_potential_sandwich_bounds():
    rng = random.Random(31337)
    for _ in range(40):
        g = random_game(rng, "arbitrary")
        profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        c = social_cost(g, profile)
        phi = potential(g, profile)
        assert c <= g.n * phi
        assert phi <= harmonic(g.n) * c


def test_permutation_build_up_matches_closed_form():
    rng = random.Random(909)
    for _ in range(12):
        g = random_game(rng, "arbitrary", max_players=4, max_resources=3)
        profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        want = potential(g, profile)
        for order in itertools.permutations(range(g.n)):
            assert potential_by_permutation(g, profile, order) == want


def test_permutation_build_up_rejects_non_permutations():
    g = shared_pair_game()
    with pytest.raises(ValidationError):
        potential_by_permutation(g, (0, 0), (0, 0))
    with pytest.raises(ValidationError):
        potential_by_permutation(g, (0, 0), (0,))
    with pytest.raises(ValidationError):
        potential_by_permutation(g, (0, 0), (0, 2))


def test_potential_zero_game():
    g = GameModel(2, ("r",), ((frozenset({"r"}),), (frozenset({"r"}),)),
                  (SetCostFunction.zero(2),))
    assert potential(g, (0, 0)) == 0
    assert potential_by_permutation(g, (0, 0), (1, 0)) == 0
