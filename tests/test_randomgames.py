import random

import pytest

from costarena.core import ValidationError, classify
from costarena.gamefile import game_to_json
from costarena.randomgames import COST_CLASSES, corpus, random_cost, random_game


def test_corpus_is_deterministic():
    a = corpus(99, 20, "arbitrary")
    b = corpus(99, 20, "arbitrary")
    assert [game_to_json(g) for g in a] == [game_to_json(g) for g in b]
    c = corpus(100, 20, "arbitrary")
    assert [game_to_json(g) for g in a] != [game_to_json(g) for g in c]


def test_corpus_count_is_not_negative():
    assert corpus(99, 0) == []
    with pytest.raises(ValidationError, match="count -3"):
        corpus(99, -3)


def test_cost_class_guarantees():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        assert classify(random_cost(rng, n, "submodular")) in ("submodular", "modular")
        assert classify(random_cost(rng, n, "supermodular")) in ("supermodular", "modular")
        random_cost(rng, n, "arbitrary")  # construction already validates


def test_game_shape_limits():
    rng = random.Random(11)
    for _ in range(40):
        g = random_game(rng, "arbitrary", max_players=3, max_resources=2,
                        max_strategies=3)
        assert 1 <= g.n <= 3
        assert 1 <= len(g.resources) <= 2
        assert all(1 <= len(s) <= 3 for s in g.strategy_sets)
        assert all(len(set(s)) == len(s) for s in g.strategy_sets)


def test_class_list_is_exhaustive():
    assert set(COST_CLASSES) == {"arbitrary", "submodular", "supermodular"}
    rng = random.Random(1)
    for cls in COST_CLASSES:
        g = random_game(rng, cls)
        assert g.profile_space_size() >= 1


def test_empty_strategy_appears_sometimes():
    rng = random.Random(5)
    saw_empty = False
    for _ in range(80):
        g = random_game(rng, "arbitrary")
        if any(frozenset() in s for s in g.strategy_sets):
            saw_empty = True
            break
    assert saw_empty
