import random

import pytest

from costarena.core import CapExceededError, ValidationError, classify
from costarena.gamefile import game_to_json
from costarena.randomgames import CORPUS_CAP, COST_CLASSES, corpus, random_cost, random_game


@pytest.mark.parametrize("sizes, message", [
    ({"max_players": 2.5}, "max_players 2.5 is not an int"),
    ({"max_players": True}, "max_players True is not an int"),
    ({"max_players": 0}, "max_players 0 out of range 1..16"),
    ({"max_players": 17}, "max_players 17 out of range 1..16"),
    ({"max_resources": True}, "max_resources True is not an int"),
    ({"max_resources": 0}, "max_resources 0 out of range 1.."),
    ({"max_strategies": 0}, "max_strategies 0 out of range 1.."),
    ({"max_strategies": "4"}, "max_strategies '4' is not an int"),
])
def test_generator_sizes_are_read_before_the_first_draw(sizes, message):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValidationError) as caught:
        random_game(rng, **sizes)
    assert str(caught.value) == message
    assert rng.getstate() == state
    with pytest.raises(ValidationError) as caught:
        corpus(1, 3, **sizes)
    assert str(caught.value) == message


@pytest.mark.parametrize("seed", [1.5, True, "1", None])
def test_corpus_seed_is_an_int(seed):
    # random.Random would seed from each of these, None from the clock
    with pytest.raises(ValidationError) as caught:
        corpus(seed, 2)
    assert str(caught.value) == f"seed {seed!r} is not an int"
    assert len(corpus(-1, 2)) == 2


def test_corpus_refuses_an_unknown_size_keyword_itself():
    with pytest.raises(TypeError, match=r"^corpus\(\) got an unexpected keyword argument "
                                        r"'max_player'"):
        corpus(1, 2, max_player=3)


def test_generator_takes_its_largest_sizes():
    rng = random.Random(3)
    games = [random_game(rng, max_players=16, max_resources=1, max_strategies=1)
             for _ in range(10)]
    assert max(g.n for g in games) > 12
    assert all(len(g.resources) == 1 for g in games)
    assert all(len(s) == 1 for g in games for s in g.strategy_sets)


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


@pytest.mark.parametrize("count, cost_class, message", [
    (3, "bogus", "unknown cost class 'bogus'"),
    (0, "bogus", "unknown cost class 'bogus'"),
    (2.0, "arbitrary", "game count 2.0 is not an int"),
    (True, "arbitrary", "game count True is not an int"),
    ("3", "arbitrary", "game count '3' is not an int"),
])
def test_corpus_checks_its_arguments_before_the_first_game(monkeypatch, count, cost_class,
                                                           message):
    drawn = []
    monkeypatch.setattr("costarena.randomgames.random_game", lambda *a, **k: drawn.append(a))
    with pytest.raises(ValidationError) as caught:
        corpus(99, count, cost_class)
    assert str(caught.value) == message
    assert drawn == []


def test_corpus_cap_acts_before_the_first_game(monkeypatch):
    drawn = []
    monkeypatch.setattr("costarena.randomgames.random_game", lambda *a, **k: drawn.append(a))
    with pytest.raises(CapExceededError) as caught:
        corpus(99, CORPUS_CAP + 1)
    assert str(caught.value) == f"{CORPUS_CAP + 1} games asked for, cap is {CORPUS_CAP}"
    assert drawn == []
    assert len(corpus(99, CORPUS_CAP)) == CORPUS_CAP == len(drawn)


def test_cost_class_guarantees():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 5)
        assert classify(random_cost(rng, n, "submodular")) in ("submodular", "modular")
        assert classify(random_cost(rng, n, "supermodular")) in ("supermodular", "modular")
        random_cost(rng, n, "arbitrary")  # construction already validates
    with pytest.raises(ValidationError) as caught:
        random_cost(rng, 2, "bogus")
    assert str(caught.value) == "unknown cost class 'bogus'"


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
