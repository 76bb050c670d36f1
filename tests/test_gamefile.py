import json
import random
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from costarena.cli import main
from costarena.core import (
    MAX_SCALE_BITS,
    GameModel,
    SetCostFunction,
    ValidationError,
    parse_fraction,
    parse_fractions,
    player_mask,
)
from costarena.equilibrium import best_response, private_cost
from costarena.gadgets import (
    POS_LINEAR, POS_NHARMONIC, GadgetSpec, build_poa_unbounded, build_pos_linear,
    verify_gadget)
from costarena.gamefile import (
    cost_from_json,
    cost_to_json,
    fraction_to_str,
    game_from_json,
    game_to_json,
    load_game,
    load_table_protocol,
    load_weight_system,
    network_from_json,
    network_to_json,
    table_protocol_from_json,
    weight_system_from_json,
    weight_system_to_json,
)
from costarena.network import Edge, NetworkModel, to_game
from costarena.protocols import (
    GeneralizedWeightedShapley,
    ProtocolError,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
)
from costarena.randomgames import corpus

F = Fraction


# ---------------------------------------------------------------------------
# rationals on the wire
# ---------------------------------------------------------------------------

def test_fraction_to_str_always_writes_denominator():
    assert fraction_to_str(F(3, 2)) == "3/2"
    assert fraction_to_str(F(2)) == "2/1"
    assert fraction_to_str(F(0)) == "0/1"
    assert fraction_to_str(F(-5, 4)) == "-5/4"


def test_parse_fraction_accepted_forms():
    assert parse_fraction("3/2") == F(3, 2)
    assert parse_fraction("7") == 7
    assert parse_fraction(7) == 7
    assert parse_fraction(" 1/3 ") == F(1, 3)
    assert parse_fraction("-2/5") == F(-2, 5)
    # decimal strings parse exactly; only float objects are banned
    assert parse_fraction("1.5") == F(3, 2)
    assert parse_fraction("1e3") == 1000
    assert parse_fraction("9" * 4300) == 10 ** 4300 - 1


def test_parse_fraction_rejected_forms():
    # past MAX_DIGITS digits, or an exponent that would make one (checked
    # before the power is computed)
    for bad in (1.5, True, False, None, "x", "1e", "1/0", [1], 10 ** 4300, "1e5000",
                "1e-99999999", "1e4301", "99e4299", "1/" + "9" * 4301):
        with pytest.raises(ValidationError):
            parse_fraction(bad)


#: Every public entry point that takes a rational, as a call on one value.
RATIONAL_ENTRY_POINTS = {
    "SetCostFunction": lambda v: SetCostFunction(1, [0, v]),
    "from_table": lambda v: SetCostFunction.from_table(1, {(0,): v}),
    "anonymous": lambda v: SetCostFunction.anonymous([0, v, 2]),
    "weight": lambda v: WeightSystem((v, 1), ((0, 1),)),
    "set_entry": lambda v: TableProtocol().set_entry(
        SetCostFunction.anonymous([0, 1]), 0b1, {0: v}, validate=False),
    "table": lambda v: TableProtocol({(SetCostFunction.anonymous([0, 1]), 0b1): {0: v}}),
    "eps": lambda v: GadgetSpec("pos_linear", n=2, eps=v),
    "a": lambda v: build_poa_unbounded(v, ShapleyProtocol()),
    "expected": lambda v: verify_gadget(build_pos_linear(2, F(1, 4)), v, "pos_linear"),
}


@pytest.mark.parametrize("value", [0.5, True, "x", "1e5000"])
@pytest.mark.parametrize("entry", list(RATIONAL_ENTRY_POINTS))
def test_every_rational_entry_point_reads_through_parse_fraction(entry, value):
    with pytest.raises(ValidationError):
        RATIONAL_ENTRY_POINTS[entry](value)


SHARED = GameModel(2, ("r",), ((frozenset({"r"}),), (frozenset({"r"}),)),
                   (SetCostFunction.anonymous([0, 1, 2]),))
TABLE_COST = SetCostFunction.from_table(2, {(0,): 1, (1,): 2, (0, 1): 2})

#: Every public entry point that takes outside player ids, as a call on one
#: id at n = 2, with the collection of ids that reaches ``player_mask``.
PLAYER_ID_ENTRY_POINTS = {
    "from_table": (lambda v: SetCostFunction.from_table(2, {(0, v): 1}), lambda v: (0, v)),
    "block": (lambda v: WeightSystem((1, 1), ((0, v), (1,))), lambda v: (0, v)),
    "set_entry": (lambda v: TableProtocol().set_entry(
        SetCostFunction.anonymous([0, 1, 2]), 0b1, {v: 1}, validate=False), lambda v: [v]),
    "validated set_entry": (lambda v: TableProtocol().set_entry(
        SetCostFunction.anonymous([0, 1, 2]), 0b1, {0: 1, v: 0}), lambda v: [0, v]),
    "table": (lambda v: TableProtocol({(SetCostFunction.anonymous([0, 1, 2]), 0b1): {v: 1}}),
              lambda v: [v]),
    "table set": (lambda v: cost_from_json(2, {"table": [{"set": [1, v], "cost": "1/1"}]}),
                  lambda v: [1, v]),
    "share users": (lambda v: table_protocol_from_json(table_doc_with_users([0, v])),
                    lambda v: [0, v]),
    "best_response": (lambda v: best_response(SHARED, ShapleyProtocol(), (0, 0), v),
                      lambda v: (v,)),
    "private_cost": (lambda v: private_cost(SHARED, ShapleyProtocol(), (0, 0), v),
                     lambda v: (v,)),
    "shapley share": (lambda v: ShapleyProtocol().share(SHARED.cost_fns[0], 0b11, v),
                      lambda v: (v,)),
    "gws share": (lambda v: GeneralizedWeightedShapley(WeightSystem.plain(2)).share(
        TABLE_COST, 0b11, v), lambda v: (v,)),
    "table share": (lambda v: TableProtocol().share(TABLE_COST, 0b11, v), lambda v: (v,)),
}


@pytest.mark.parametrize("value", [2, -1, True, 1.0])
@pytest.mark.parametrize("entry", list(PLAYER_ID_ENTRY_POINTS))
def test_every_player_id_entry_point_reads_through_player_mask(entry, value):
    # every id, an int out of range, a bool or a float, gets player_mask's
    # own message, from a file as from a library call
    call, ids = PLAYER_ID_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError) as caught:
        call(value)
    with pytest.raises(ValidationError) as expected:
        player_mask(ids(value), 2)
    assert str(caught.value) == str(expected.value)


#: Every public entry point that takes a player count, as a call on one count.
PLAYER_COUNT_ENTRY_POINTS = {
    "GameModel": lambda n: GameModel(n, SHARED.resources, SHARED.strategy_sets,
                                     SHARED.cost_fns),
    "SetCostFunction": lambda n: SetCostFunction(n, [0, 1, 1, 2]),
    "from_table": lambda n: SetCostFunction.from_table(n, {}),
    "zero": lambda n: SetCostFunction.zero(n),
    "plain": lambda n: WeightSystem.plain(n),
    "pos_linear spec": lambda n: GadgetSpec(POS_LINEAR, n=n, eps=F(1, 4)),
    "pos_nharmonic spec": lambda n: GadgetSpec(POS_NHARMONIC, n=n, eps=F(1, 4)),
    "build_pos_linear": lambda n: build_pos_linear(n, F(1, 4)),
    "table players": lambda n: TableProtocol(players=n),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
@pytest.mark.parametrize("entry", list(PLAYER_COUNT_ENTRY_POINTS))
def test_every_player_count_entry_point_is_an_int(entry, value):
    # a float, even a whole one, a bool or a string is refused before the
    # count sizes or compares anything; the int 2 is taken everywhere
    call = PLAYER_COUNT_ENTRY_POINTS[entry]
    call(2)
    with pytest.raises(ValidationError) as caught:
        call(value)
    assert str(caught.value) == f"player count {value!r} is not an int"


def game_doc_with_players(n):
    doc = game_to_json(GameModel(2, ("a", "t"), ((frozenset({"a"}),), (frozenset({"t"}),)),
                                 (SHARED.cost_fns[0], TABLE_COST)))
    doc["players"] = n
    return doc


def weight_doc_with_block(block):
    return {"lambda": ["1/1", "1/1"], "blocks": [block, [1]]}


#: Every file site of a count or an id, as (the file read, the library call
#: that reads the same value, the value that it is handed).
FILE_VALUE_SITES = {
    "game players": (lambda v: game_from_json(game_doc_with_players(v)),
                     PLAYER_COUNT_ENTRY_POINTS["GameModel"], lambda v: v),
    "share table players": (lambda v: table_protocol_from_json({**table_doc(), "players": v}),
                            PLAYER_COUNT_ENTRY_POINTS["table players"], lambda v: v),
    "table set": (lambda v: cost_from_json(2, {"table": [{"set": [1, v], "cost": "1/1"}]}),
                  lambda ids: player_mask(ids, 2), lambda v: [1, v]),
    "block": (lambda v: weight_system_from_json(weight_doc_with_block([v])),
              lambda ids: player_mask(ids, 2), lambda v: [v]),
    "share users": (lambda v: table_protocol_from_json(table_doc_with_users([0, v])),
                    lambda ids: player_mask(ids, 2), lambda v: [0, v]),
    "block collection": (lambda v: weight_system_from_json(weight_doc_with_block(v)),
                         lambda blocks: WeightSystem((1, 1), blocks), lambda v: [v, [1]]),
}


def site_values(site):
    """A value that ``site`` reads, and values that it refuses."""
    if "players" in site:
        return 2, (2.5, True, "2")
    if site == "block collection":
        return [0], (5, "0", {"0": 1})
    return 0, (True, 0.0, "0", 2)


@pytest.mark.parametrize("site, value", [
    (site, value) for site in FILE_VALUE_SITES for value in site_values(site)[1]])
def test_every_file_value_reads_like_its_library_call(site, value):
    # the file layer checks structure only: a count, an id or a collection
    # in a file gets the message of the core reader that reads it from a
    # library call
    read, call, argument = FILE_VALUE_SITES[site]
    read(site_values(site)[0])
    with pytest.raises(ValidationError) as expected:
        call(argument(value))
    with pytest.raises(ValidationError) as caught:
        read(value)
    assert str(caught.value) == str(expected.value)


def game_doc_with_strategies(sset):
    doc = game_to_json(SHARED)
    doc["strategies"][0] = sset
    return doc


def network_doc_with(key, value):
    doc = network_to_json(NetworkModel(("s", "t"), (NETWORK_EDGE,), (("s", "t"),) * 2))
    doc["network"][key] = value
    return doc


NETWORK_EDGE = Edge("e", "s", "t", SetCostFunction.anonymous([0, 1, 2]))

#: Every entry point that takes an outside collection, as a call on one
#: collection, with the name and kind (ordered or not) that it is read as.
COLLECTION_ENTRY_POINTS = {
    "profile": (lambda v: SHARED.usage_masks(v), "profile", True),
    "player_mask": (lambda v: player_mask(v, 2), "player set", False),
    "resources": (lambda v: GameModel(2, v, SHARED.strategy_sets, SHARED.cost_fns),
                  "resources", True),
    "cost functions": (lambda v: GameModel(2, SHARED.resources, SHARED.strategy_sets, v),
                       "cost functions", True),
    "strategy sets": (lambda v: GameModel(2, SHARED.resources, v, SHARED.cost_fns),
                      "strategy sets", True),
    "strategies": (lambda v: GameModel(2, SHARED.resources, (SHARED.strategy_sets[0], v),
                                       SHARED.cost_fns), "player 1: strategies", True),
    "strategy": (lambda v: GameModel(2, SHARED.resources, ((v,), SHARED.strategy_sets[1]),
                                     SHARED.cost_fns), "player 0: strategy", False),
    "vertices": (lambda v: NetworkModel(v, (NETWORK_EDGE,), (("s", "t"),) * 2),
                 "vertices", True),
    "edges": (lambda v: NetworkModel(("s", "t"), v, (("s", "t"),) * 2), "edges", True),
    "terminals": (lambda v: NetworkModel(("s", "t"), (NETWORK_EDGE,), v), "terminals", True),
    "terminal pair": (lambda v: NetworkModel(("s", "t"), (NETWORK_EDGE,), (v, ("s", "t"))),
                      "terminal pair", True),
    "weights": (lambda v: WeightSystem(v, ((0, 1),)), "weights", True),
    "blocks": (lambda v: WeightSystem((1, 1), v), "blocks", True),
    "block": (lambda v: WeightSystem((1, 1), (v, (1,))), "player set", False),
    "anonymous cost": (SetCostFunction.anonymous, "anonymous cost", True),
    "cost values": (lambda v: SetCostFunction(1, v), "cost values", True),
    "file anonymous cost": (lambda v: cost_from_json(2, {"anonymous": v}), "anonymous cost",
                            True),
    "file table cost": (lambda v: cost_from_json(2, {"table": v}), "table cost", True),
    "file strategies": (lambda v: game_from_json(game_doc_with_strategies(v)),
                        "player 0: strategies", True),
    "file strategy": (lambda v: game_from_json(game_doc_with_strategies([v])),
                      "player 0: strategy", False),
    "file vertices": (lambda v: network_from_json(network_doc_with("vertices", v)), "vertices",
                      True),
    "file terminal pair": (lambda v: network_from_json(network_doc_with("terminals", [v])),
                           "terminal pair", True),
    "file lambda": (lambda v: weight_system_from_json({"lambda": v, "blocks": [[0, 1]]}),
                    "weights", True),
    "file blocks": (lambda v: weight_system_from_json({"lambda": ["1/1", "1/1"], "blocks": v}),
                    "blocks", True),
    "file block": (lambda v: weight_system_from_json(weight_doc_with_block(v)), "player set",
                   False),
}


NOT_COLLECTIONS = {"str": "01", "bytes": b"\x00\x01", "dict": {0: 1, 1: 1}, "set": {"s", "t"}}


@pytest.mark.parametrize("entry, kind", [
    (entry, kind) for entry, (_, _, ordered) in COLLECTION_ENTRY_POINTS.items()
    for kind in NOT_COLLECTIONS
    # a set is read where its order cannot matter; an object of weights is
    # read by its keys, which name the players
    if (kind != "set" or ordered) and (kind != "dict" or entry != "file lambda")])
def test_every_collection_entry_point_reads_through_read_items(entry, kind):
    # a str is not split into characters, bytes not read as ids, a dict not
    # by its keys, and a set not where its order would choose the answer
    call, what, ordered = COLLECTION_ENTRY_POINTS[entry]
    value = NOT_COLLECTIONS[kind]
    kinds = "tuple or list" if ordered else "tuple, list, set or frozenset"
    with pytest.raises(ValidationError) as caught:
        call(value)
    assert str(caught.value) == f"{what} {value!r} is not a {kinds}"


def test_a_model_takes_lists_and_keeps_a_frozen_strategy():
    # a str resource is one resource; a frozenset strategy is not copied
    c1, c2 = SetCostFunction.anonymous([0, 1, 2]), SetCostFunction.anonymous([0, 5, 10])
    frozen = frozenset({"ab"})
    game = GameModel(2, ["ab", "a", "b"], [[["a", "b"]], [{"ab"}, frozen]], [c1, c1, c2])
    assert game.strategy_sets == ((frozenset({"a", "b"}),), (frozen, frozen))
    assert game.strategy_sets[1][1] is frozen


@pytest.mark.parametrize("pair", [("s",), ("s", "t", "t")])
def test_a_terminal_pair_names_two_vertices(pair):
    # the file names the pair as a list, the library call as it is given
    with pytest.raises(ValidationError) as caught:
        one_edge_network((pair,))
    assert str(caught.value) == f"terminal pair {pair!r} must name two vertices"
    doc = network_to_json(one_edge_network((("s", "t"),)))
    doc["network"]["terminals"] = [list(pair)]
    with pytest.raises(ValidationError) as caught:
        network_from_json(doc)
    assert str(caught.value) == f"terminal pair {list(pair)!r} must name two vertices"


def test_a_file_value_exits_2_with_the_library_message(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_doc_with_players(2.5)))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["error: player count 2.5 is not an int"]


def test_a_file_strategy_exits_2_with_the_library_message(tmp_path, capsys):
    # a strategy written as one string is not read as its characters
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_doc_with_strategies(["r"])))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    with pytest.raises(ValidationError) as caught:
        GameModel(2, SHARED.resources, (("r",), SHARED.strategy_sets[1]), SHARED.cost_fns)
    assert err.strip().splitlines() == [f"error: {caught.value}"]
    assert str(caught.value) == "player 0: strategy 'r' is not a tuple, list, set or frozenset"


def test_a_share_table_file_names_its_player_count():
    # TableProtocol(players=None) ties a table to no count; a file's table has one
    with pytest.raises(ValidationError) as caught:
        table_protocol_from_json({**table_doc(), "players": None, "entries": []})
    assert str(caught.value) == "player count None is not an int"


PLAYER_KEYED_READERS = {
    "shares": lambda keyed: table_protocol_from_json(table_doc_with_shares(keyed)),
    "lambda": lambda keyed: weight_system_from_json({"lambda": keyed, "blocks": [[0, 1]]}),
}


@pytest.mark.parametrize("key", [" 0", "+0", "00", "1_0", "\u0661", "2"])
@pytest.mark.parametrize("what", list(PLAYER_KEYED_READERS))
def test_every_player_keyed_object_reads_through_one_key_rule(what, key):
    # a key is exactly one of "0".."n-1"; int(key) would read each of these
    # but "2" as a player of a 2-player file
    with pytest.raises(ValidationError) as caught:
        PLAYER_KEYED_READERS[what]({"0": "1/1", key: "1/1"})
    assert str(caught.value) == f"bad player id {key!r} in {what}"


def test_player_keys_name_no_other_player():
    # with 11 players int("1_0") would name player 10
    keyed = {str(i): "1/1" for i in range(10)}
    with pytest.raises(ValidationError) as caught:
        weight_system_from_json({"lambda": {**keyed, "1_0": "2/1"}, "blocks": [list(range(11))]})
    assert str(caught.value) == "bad player id '1_0' in lambda"
    w = weight_system_from_json({"lambda": {**keyed, "10": "2/1"}, "blocks": [list(range(11))]})
    assert w.weights == (1,) * 10 + (2,)
    with pytest.raises(ValidationError) as caught:
        weight_system_from_json({"lambda": {str(i): "1/1" for i in range(17)}, "blocks": []})
    assert str(caught.value) == "player count 17 out of range 1..16"


EDGE_STRINGS = (
    "3/4", " 3/4 ", "-3/4", "+3/4", "03/004", "1_000/3", "3 / 4", "3/0", "0/0",
    "0/5", "2/4", "7", "", "/", "3/", "/4", "1/2/3", "x/4", "3/4x",
    "\u0663/\u0664", "\uff13/\uff14", "\u00b2/3", "1.5", "1e3", "1E-2", "e3",
    "9" * 4300 + "/1", "1/" + "9" * 4300, "9" * 4301 + "/1", "1e4300", "1e4301",
)


def test_fast_rational_path_matches_fraction():
    # parse_fractions reads each string, alone or in a column of "p/q"
    # strings, to the value that parse_fraction (Fraction(str)) gives, or
    # fails with its message, and so does an anonymous cost list
    for text in EDGE_STRINGS:
        try:
            expected = parse_fraction(text)
        except ValidationError as exc:
            for column in ([text], ["1/2", text, "1/0"]):
                with pytest.raises(ValidationError) as caught:
                    parse_fractions(column)
                assert str(caught.value) == str(exc), text
            with pytest.raises(ValidationError) as caught:
                cost_from_json(1, {"anonymous": ["0/1", text]})
            assert str(caught.value) == str(exc), text
            continue
        for column in ([text], ["1/2", text], [text, 3]):
            nums, dens = parse_fractions(column)
            assert min(dens) > 0 and list(map(F, nums, dens)) == list(map(parse_fraction, column))
        if len(text) < 50:
            assert expected == F(text.strip())
        try:
            built = SetCostFunction.anonymous([0, expected])
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                cost_from_json(1, {"anonymous": ["0/1", text]})
            assert str(caught.value) == str(exc), text
            continue
        assert cost_from_json(1, {"anonymous": ["0/1", text]}) == built, text
    assert parse_fractions(["03/004", "5/1"]) == ([3, 5], [4, 1])  # not reduced
    assert parse_fractions((5, F(2, 4))) == ([5, 1], [1, 2])
    assert parse_fractions([]) == ([], [])


def test_loaded_cost_equals_fraction_built():
    table = cost_from_json(2, {"table": [{"set": [0], "cost": "2/4"},
                                         {"set": [1], "cost": "3/6"},
                                         {"set": [0, 1], "cost": "10/6"}]})
    built = SetCostFunction.from_table(2, {(0,): F(1, 2), (1,): F(1, 2), (0, 1): F(5, 3)})
    anon = cost_from_json(2, {"anonymous": ["0/3", "4/8", "20/12"]})
    for f in (table, anon):
        assert f == built and built == f
        assert hash(f) == hash(built)
        assert f.denominator == built.denominator == 6
        assert [f.value(m) for m in range(4)] == [built.value(m) for m in range(4)]
        assert [f.scaled(m) for m in range(4)] == [0, 3, 3, 10]
    assert anon.anonymous_values == (0, F(1, 2), F(5, 3))
    assert anon.anonymous_values == SetCostFunction.anonymous([0, F(1, 2), F(5, 3)]).anonymous_values
    assert table.anonymous_values is None
    # a common factor of every numerator and the denominator is divided out
    assert cost_from_json(1, {"anonymous": ["0/1", "4/2"]}).denominator == 1
    assert cost_from_json(2, {"table": []}).denominator == 1
    other = cost_from_json(2, {"table": [{"set": [0], "cost": "1/2"},
                                         {"set": [1], "cost": "1/3"},
                                         {"set": [0, 1], "cost": "5/3"}]})
    assert other != built and other != anon


MALFORMED_COSTS = [
    (2, {"table": [{"set": [], "cost": "1/2"}]},
     "cost of the empty set is 1/2, must be 0"),
    (2, {"table": [{"set": [0], "cost": "2/4"}, {"set": [0, 1], "cost": "1/3"}]},
     "cost not monotone: C(0b11) < C(0b1)"),
    (3, {"table": [{"set": [2], "cost": "5/1"}, {"set": [1, 2], "cost": "9/2"}]},
     "cost not monotone: C(0b101) < C(0b100)"),
    (2, {"table": [{"set": [1], "cost": "0/1"}, {"set": [1], "cost": "1/1"}]},
     "duplicate table entry for set [1]"),
    (2, {"table": [{"set": [0, 2], "cost": "1/1"}]},
     "player id 2 in [0, 2] out of range 0..1"),
    (2, {"table": [{"set": [-1], "cost": "1/1"}]},
     "player id -1 in [-1] out of range 0..1"),
    (2, {"table": [{"set": [0], "cost": "3/0"}]}, "bad rational '3/0'"),
    (2, {"table": [{"set": [0], "cost": True}]}, "not an exact rational: True"),
    (2, {"anonymous": ["1/2", "1/1", "2/1"]}, "cost of the empty set is 1/2, must be 0"),
    (2, {"anonymous": ["0/1", "6/4", "1/1"]},
     "anonymous cost decreases from size 1 to 2: 3/2 > 1"),
    (0, {"anonymous": ["0/1"]}, "anonymous cost needs at least 2 entries (n >= 1)"),
    (17, {"anonymous": ["0/1"] * 18}, "player count 17 out of range 1..16"),
    (0, {"table": []}, "player count 0 out of range 1..16"),
    (1, {"anonymous": ["0/1", "5/1"], "table": [{"set": [0], "cost": "7/1"}]},
     "cost has both an 'anonymous' and a 'table' key"),
]


@pytest.mark.parametrize("n, doc, message", MALFORMED_COSTS)
def test_malformed_cost_messages(n, doc, message):
    with pytest.raises(ValidationError) as caught:
        cost_from_json(n, doc)
    assert str(caught.value) == message


TABLE = [{"set": [0], "cost": "1/2"}, {"set": [1], "cost": "2/3"},
         {"set": [0, 1], "cost": "2/1"}]


def table_with(at, entry):
    return [entry if k == at else dict(e) for k, e in enumerate(TABLE)]


def reference_table(n, entries):
    """The table cost built without the listed-entry reader: the rational
    constructor over a dense list of ``parse_fraction`` of each written
    cost, at the mask of its set, and 0 at every set not written."""
    dense = {}
    for e in entries:
        mask = sum(1 << i for i in set(e["set"]))
        assert mask not in dense, e
        dense[mask] = parse_fraction(e["cost"])
    return SetCostFunction(n, [dense.get(mask, 0) for mask in range(1 << n)])


def assert_same_cost(f, g):
    assert f == g and f.denominator == g.denominator
    assert [f.scaled(m) for m in range(1 << f.n)] == [g.scaled(m) for m in range(1 << g.n)]


# accepted inputs, several of which leave the reader's passes for its
# per-entry paths
ACCEPTED_TABLES = {
    "unsorted set": table_with(2, {"set": [1, 0], "cost": "2/1"}),
    "duplicate member": table_with(0, {"set": [0, 0], "cost": "1/2"}),
    "extra key": table_with(1, {"set": [1], "cost": "2/3", "note": [None]}),
    "leading zeros": table_with(0, {"set": [0], "cost": "03/004"}),
    "plus sign": table_with(0, {"set": [0], "cost": "+1/2"}),
    "space": table_with(0, {"set": [0], "cost": " 1/2"}),
    "4300-digit parts": table_with(2, {"set": [0, 1], "cost": "9" * 4300 + "/" + "7" * 4300}),
    "empty set": TABLE + [{"set": [], "cost": "0/1"}],
    "Arabic-Indic digits": table_with(0, {"set": [0], "cost": "\u0661/\u0662"}),
    "no entries": [],
    "unreduced": table_with(2, {"set": [0, 1], "cost": "14/7"}),
}


@pytest.mark.parametrize("entries", ACCEPTED_TABLES.values(), ids=ACCEPTED_TABLES)
def test_bulk_table_reader_equals_checked_loop(entries):
    assert_same_cost(cost_from_json(2, {"table": entries}), reference_table(2, entries))


class ListKeyed(Mapping):
    """A mapping over (key, value) pairs, whose keys may be lists, as a dict's cannot."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return next(v for k, v in self.pairs if k == key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


KEY_FORMS = ("ascending", "shuffled", "frozenset", "mask", "mixed")


def written_key(mask, n, form, rng):
    """The set ``mask`` of n players as a ``from_table`` key of ``form``."""
    members = [i for i in range(n) if mask >> i & 1]
    if form == "mixed":
        form = rng.choice(KEY_FORMS[:-1])
    if form == "ascending":
        return tuple(members)
    if form == "shuffled":  # a list, out of order, with members repeated
        rng.shuffle(members)
        return members + rng.sample(members, min(len(members), rng.randint(0, 2)))
    return frozenset(members) if form == "frozenset" else mask


def test_from_table_reads_every_key_form_as_a_dense_reference():
    rng = random.Random(35)
    for n in range(1, 9):
        for form in KEY_FORMS:
            dense = [F(0)] * (1 << n)
            for m in range(1, 1 << n):
                dense[m] = max(dense[m & ~(1 << k)] for k in range(n) if m >> k & 1)
                dense[m] += F(rng.randrange(3), rng.randint(1, 6))
            listed = [m for m in range(1 << n) if dense[m] or rng.random() < 0.3]
            rng.shuffle(listed)
            pairs = [(written_key(m, n, form, rng), dense[m]) for m in listed]
            entries = ListKeyed(pairs) if form in ("shuffled", "mixed") else dict(pairs)
            assert_same_cost(SetCostFunction.from_table(n, entries), SetCostFunction(n, dense))
    # from_table and a file name each fault alike: a bad id, a set written
    # twice, a bad rational and a dip
    for written, message in [
            ([([0], "1/1"), ([0, 2], "2/1")], "player id 2 in [0, 2] out of range 0..1"),
            ([([1], "1/1"), ([1, 1], "2/1")], "duplicate table entry for set [1, 1]"),
            ([([0], "1/1"), ([1], "x")], "bad rational 'x'"),
            ([([0], "3/1"), ([0, 1], "2/1")], "cost not monotone: C(0b11) < C(0b1)")]:
        doc = {"table": [{"set": s, "cost": c} for s, c in written]}
        for build in (lambda: SetCostFunction.from_table(2, ListKeyed(written)),
                      lambda: cost_from_json(2, doc)):
            with pytest.raises(ValidationError) as caught:
                build()
            assert str(caught.value) == message


def test_bulk_table_reader_reads_written_tables():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        f = SetCostFunction(n, [0] + sorted(
            F(rng.randint(0, 10 ** rng.randint(1, 30)), rng.randint(1, 12))
            for _ in range((1 << n) - 1)))
        doc = cost_to_json(f)
        if "table" in doc:
            rng.shuffle(doc["table"])
            assert_same_cost(cost_from_json(n, doc), f)
            assert_same_cost(cost_from_json(n, doc), reference_table(n, doc["table"]))


def test_unsorted_sets_among_sorted_ones_load_like_the_reference():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 5)
        entries = cost_to_json(SetCostFunction(n, [0] + sorted(
            F(rng.randint(1, 99), rng.randint(1, 9)) for _ in range((1 << n) - 1))))["table"]
        for e in rng.sample(entries, 2):
            e["set"] = e["set"][::-1] if len(e["set"]) > 1 else e["set"] * 2
        assert_same_cost(cost_from_json(n, {"table": entries}), reference_table(n, entries))
    with pytest.raises(ValidationError) as caught:
        cost_from_json(2, {"table": TABLE + [{"set": [2, 0, 2], "cost": "3/1"}]})
    assert str(caught.value) == "player id 2 in [2, 0, 2] out of range 0..1"


def test_mixed_rational_column_loads_like_the_reference():
    entries = [{"set": [0], "cost": 1}, {"set": [1], "cost": "2/3"},
               {"set": [0, 1], "cost": "7"}]
    assert parse_fractions(["2/3", 1, "7"]) == ([2, 1, 7], [3, 1, 1])
    assert_same_cost(cost_from_json(2, {"table": entries}), reference_table(2, entries))
    assert_same_cost(cost_from_json(2, {"anonymous": ["0/1", 1, "7"]}),
                     SetCostFunction.anonymous([0, 1, 7]))


def test_bit_budget_applies_to_reduced_values():
    """Each entry is |S| written over its own prime, "|S|p/p": the written
    denominators take more than MAX_SCALE_BITS bits together, but the
    values are integers, so L is 1 and the table loads."""
    n = 9
    sieve = bytearray([1]) * 4000
    for p in range(2, 64):
        sieve[p * p::p] = bytes(len(range(p * p, 4000, p)))
    primes = [p for p in range(2, 4000) if sieve[p]][:(1 << n) - 1]
    assert len(primes) == (1 << n) - 1 and prod(primes).bit_length() > MAX_SCALE_BITS
    entries = [{"set": [i for i in range(n) if mask >> i & 1],
                "cost": f"{mask.bit_count() * p}/{p}"}
               for mask, p in zip(range(1, 1 << n), primes)]
    expected = SetCostFunction(n, [mask.bit_count() for mask in range(1 << n)])
    f = cost_from_json(n, {"table": entries})
    assert f == expected and f.denominator == 1
    assert_same_cost(f, reference_table(n, entries))


def test_each_listed_entry_is_reduced_before_the_lcm():
    """Every nonempty set of 8 players at "p/p", each over its own prime
    above 2^20: the written denominators' lcm has 5101 bits, past
    MAX_SCALE_BITS, but every value is 1, so L is 1 and the table loads."""
    n = 8
    primes = [p for p in range((1 << 20) + 1, (1 << 20) + 5000, 2)
              if all(p % d for d in range(3, isqrt(p) + 1, 2))][:(1 << n) - 1]
    assert len(primes) == (1 << n) - 1 and prod(primes).bit_length() == 5101 > MAX_SCALE_BITS
    entries = [{"set": [i for i in range(n) if mask >> i & 1], "cost": f"{p}/{p}"}
               for mask, p in zip(range(1, 1 << n), primes)]
    f = cost_from_json(n, {"table": entries})
    assert f == SetCostFunction(n, [0] + [1] * ((1 << n) - 1)) and f.denominator == 1
    assert_same_cost(f, reference_table(n, entries))


@pytest.mark.parametrize("leading_zeros", [False, True], ids=["plain", "leading zeros"])
@pytest.mark.parametrize("n", [7, 8])
def test_unreduced_and_zero_entries_load_like_the_reference(n, leading_zeros):
    # values written unreduced ("6/4"), as zero over any denominator ("0/7")
    # and, in one column of each size, with leading zeros ("03/004"), which
    # JSON's int reader refuses
    rng = random.Random(f"{n}:{leading_zeros}")
    values = sorted(F(max(0, rng.randint(-20, 99)), rng.randint(1, 9))
                    for _ in range((1 << n) - 1))
    forms = ["{a}/{b}", "{ka}/{kb}"] + ["0{a}/00{b}"] * leading_zeros
    entries = []
    for mask, x in zip(range(1, 1 << n), values):
        k = rng.randint(2, 5)
        form = rng.choice(forms) if x else f"0/{rng.randint(1, 9)}"
        entries.append({"set": [i for i in range(n) if mask >> i & 1],
                        "cost": form.format(a=x.numerator, b=x.denominator,
                                            ka=k * x.numerator, kb=k * x.denominator)})
    rng.shuffle(entries)
    costs = [e["cost"] for e in entries]
    parts = [tuple(map(int, c.split("/"))) for c in costs]
    assert any(p == 0 for p, _ in parts) and any(p and gcd(p, q) > 1 for p, q in parts)
    assert any(c[0] == "0" and c[1] != "/" for c in costs) == leading_zeros
    f = cost_from_json(n, {"table": entries})
    assert_same_cost(f, reference_table(n, entries))
    assert_same_cost(f, SetCostFunction(n, [0] + values))


REJECTED_TABLES = [
    ("bool member", table_with(0, {"set": [True], "cost": "1/2"}),
     "player id True is not an int"),
    ("float member", table_with(0, {"set": [0.0], "cost": "1/2"}),
     "player id 0.0 is not an int"),
    ("set not a list", table_with(0, {"set": "0", "cost": "1/2"}),
     "table entry: key 'set' has wrong type"),
    ("out of range", table_with(1, {"set": [2], "cost": "1/2"}),
     "player id 2 in [2] out of range 0..1"),
    ("duplicate set", table_with(1, {"set": [0], "cost": "1/2"}),
     "duplicate table entry for set [0]"),
    ("zero denominator", table_with(0, {"set": [0], "cost": "1/0"}), "bad rational '1/0'"),
    ("two slashes", table_with(0, {"set": [0], "cost": "1/2/3"}), "bad rational '1/2/3'"),
    ("superscript digit", table_with(0, {"set": [0], "cost": "\u00b2/1"}),
     "bad rational '\u00b2/1'"),
    ("4301-digit part", table_with(2, {"set": [0, 1], "cost": "1/" + "7" * 4301}),
     f"bad rational '1/{'7' * 4301}'"),
    ("not a dict", table_with(1, ["set", [1]]), "table entry: missing key 'set'"),
    ("missing set", table_with(1, {"cost": "1/2"}), "table entry: missing key 'set'"),
    ("missing cost", table_with(1, {"set": [1]}), "table entry: missing key 'cost'"),
    ("not monotone", table_with(2, {"set": [0, 1], "cost": "1/3"}),
     "cost not monotone: C(0b11) < C(0b1)"),
]


@pytest.mark.parametrize("entries, message", [case[1:] for case in REJECTED_TABLES],
                         ids=[case[0] for case in REJECTED_TABLES])
def test_bulk_table_reader_keeps_messages(entries, message):
    with pytest.raises(ValidationError) as caught:
        cost_from_json(2, {"table": entries})
    assert str(caught.value) == message


def test_table_faults_are_named_structure_ids_duplicates_rationals(tmp_path, capsys):
    # a table with several faults names the first of the first kind, in
    # the order: structure, member id, duplicate set, rational
    bad_id, no_cost = {"set": [5], "cost": "1/1"}, {"set": [1]}
    dup, bad_cost = {"set": [0], "cost": "1/1"}, {"set": [0], "cost": "x"}
    for entries, message in [
            ([bad_id, no_cost], "table entry: missing key 'cost'"),
            ([bad_cost, dup, bad_id], "player id 5 in [5] out of range 0..1"),
            ([bad_cost, dup], "duplicate table entry for set [0]")]:
        with pytest.raises(ValidationError) as caught:
            cost_from_json(2, {"table": entries})
        assert str(caught.value) == message
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"players": 2, "strategies": [[["r"]], [["r"]]], "resources": [
        {"id": "r", "cost": {"table": [bad_id, no_cost]}}]}))
    assert main(["analyze", str(path)]) == 2
    assert "table entry: missing key 'cost'" in capsys.readouterr().err


def test_fraction_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        x = F(rng.randint(-40, 40), rng.randint(1, 12))
        assert parse_fraction(fraction_to_str(x)) == x


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

def test_anonymous_cost_round_trip():
    f = SetCostFunction.anonymous([0, F(1, 2), F(3, 2)])
    doc = cost_to_json(f)
    assert doc == {"anonymous": ["0/1", "1/2", "3/2"]}
    assert cost_from_json(2, doc) == f


def test_table_cost_round_trip_drops_zero_sets():
    f = SetCostFunction.from_table(2, {(0,): 0, (1,): 1, (0, 1): 3})
    doc = cost_to_json(f)
    assert doc == {"table": [{"set": [1], "cost": "1/1"},
                             {"set": [0, 1], "cost": "3/1"}]}
    assert cost_from_json(2, doc) == f


def test_cost_from_json_validation():
    with pytest.raises(ValidationError):
        cost_from_json(2, {"anonymous": ["0/1", "1/1"]})  # wrong length
    with pytest.raises(ValidationError):
        cost_from_json(2, {"table": [{"set": [0, 2], "cost": "1/1"}]})
    with pytest.raises(ValidationError):
        cost_from_json(2, {"table": [{"set": [0], "cost": "1/1"},
                                     {"set": [0], "cost": "2/1"}]})
    with pytest.raises(ValidationError):  # written superset dips below subset
        cost_from_json(2, {"table": [{"set": [0], "cost": "2/1"},
                                     {"set": [0, 1], "cost": "1/1"}]})
    with pytest.raises(ValidationError):
        cost_from_json(2, {})
    with pytest.raises(ValidationError):  # JSON true is not player 1
        cost_from_json(2, {"table": [{"set": [True], "cost": "0/1"}]})


def test_omitted_sets_default_to_zero():
    f = cost_from_json(2, {"table": [{"set": [0, 1], "cost": "4/1"}]})
    assert f.value(0b01) == 0
    assert f.value(0b11) == 4


# ---------------------------------------------------------------------------
# whole games
# ---------------------------------------------------------------------------

def test_game_round_trip_explicit():
    f = SetCostFunction.anonymous([0, 0, F(3, 2)])
    g = GameModel(2, ("e1", "e2"),
                  ((frozenset({"e1"}),),
                   (frozenset({"e1"}), frozenset({"e2"}))),
                  (f, SetCostFunction.anonymous([0, 1, 2])))
    doc = game_to_json(g)
    back = game_from_json(doc)
    assert back == g
    assert json.dumps(doc)  # plain JSON types only


def test_game_round_trip_random_corpus():
    for g in corpus(2026, 30, "arbitrary"):
        assert game_from_json(game_to_json(g)) == g


def test_game_from_json_requires_keys():
    with pytest.raises(ValidationError):
        game_from_json({"players": 1})
    with pytest.raises(ValidationError):
        game_from_json({"players": "2", "resources": [], "strategies": []})
    with pytest.raises(ValidationError):  # checked before sizing a 2^n table
        game_from_json({"players": -1, "strategies": [],
                        "resources": [{"id": "r", "cost": {"table": []}}]})


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

def test_network_round_trip():
    nm = build_pos_linear(3, F(1, 2))
    doc = network_to_json(nm)
    back = network_from_json(doc)
    assert back.vertices == nm.vertices
    assert back.terminals == nm.terminals
    assert [e.id for e in back.edges] == [e.id for e in nm.edges]
    assert to_game(back) == to_game(nm)
    assert json.dumps(doc)


def test_network_from_json_validation():
    nm = build_pos_linear(2, F(1, 2))
    doc = network_to_json(nm)
    assert "forced" not in doc["network"]
    # a file that restricted routes must not silently widen to every path
    for forced in ([None, [["e1", "e4"]]], [None, None], [], 5):
        doc["network"]["forced"] = forced
        with pytest.raises(ValidationError) as err:
            network_from_json(doc)
        assert str(err.value) == ("network forced routes are not supported; "
                                  "write a restricted strategy set as a flat game")
    doc["network"]["forced"] = None  # "no restriction" still loads
    assert to_game(network_from_json(doc)) == to_game(nm)
    doc["network"]["vertices"][0] = [doc["network"]["vertices"][0]]
    with pytest.raises(ValidationError):
        network_from_json(doc)


def test_load_game_dispatches_on_shape(tmp_path):
    nm = build_pos_linear(2, F(1, 2))
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(network_to_json(nm)))
    game, net = load_game(str(net_file))
    assert net is not None
    assert game == to_game(nm)

    flat_file = tmp_path / "flat.json"
    flat_file.write_text(json.dumps(game_to_json(game)))
    game2, net2 = load_game(str(flat_file))
    assert net2 is None
    assert game2 == game


def test_load_game_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    # the second nests too deep to decode; the third is an integer literal
    # of more than MAX_DIGITS digits
    for text in ("{not json", "[" * 100000, "[1" + "0" * 5000 + "]"):
        p.write_text(text)
        with pytest.raises(ValidationError):
            load_game(str(p))


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------

def test_weight_system_round_trip():
    w = WeightSystem((F(1), F(2), F(1, 2)), ((1,), (0, 2)))
    doc = weight_system_to_json(w)
    assert doc == {"lambda": ["1/1", "2/1", "1/2"], "blocks": [[1], [0, 2]]}
    assert weight_system_from_json(doc) == w


def test_weight_system_lambda_as_mapping():
    w = weight_system_from_json(
        {"lambda": {"0": "1/1", "1": "3/2"}, "blocks": [[0, 1]]})
    assert w.weights == (F(1), F(3, 2))


def test_weight_system_bad_mapping_keys():
    with pytest.raises(ValidationError):
        weight_system_from_json({"lambda": {"0": "1/1", "2": "1/1"},
                                 "blocks": [[0, 1]]})
    with pytest.raises(ValidationError):
        weight_system_from_json({"lambda": {"zero": "1/1"}, "blocks": [[0]]})
    for blocks in ([["0"]], [[True]], [0]):
        with pytest.raises(ValidationError):
            weight_system_from_json({"lambda": ["1/1"], "blocks": blocks})


def test_load_weight_system(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"lambda": ["1/1", "1/1"], "blocks": [[0, 1]]}))
    assert load_weight_system(str(p)) == WeightSystem.plain(2)


# ---------------------------------------------------------------------------
# share tables
# ---------------------------------------------------------------------------

def table_doc():
    return {
        "players": 2,
        "fallback": "shapley",
        "entries": [{
            "cost": {"anonymous": ["0/1", "1/1", "2/1"]},
            "users": [0, 1],
            "shares": {"0": "0/1", "1": "2/1"},
        }],
    }


def test_table_protocol_from_json():
    t = table_protocol_from_json(table_doc())
    f = SetCostFunction.anonymous([0, 1, 2])
    assert t.shares(f, 0b11) == (F(0), F(2))
    assert t.share(f, 0b01, 0) == 1  # fallback


def test_table_protocol_entries_loaded_verbatim():
    doc = table_doc()
    doc["entries"][0]["shares"] = {"0": "5/1"}  # not budget balanced
    t = table_protocol_from_json(doc)
    f = SetCostFunction.anonymous([0, 1, 2])
    assert t.shares(f, 0b11) == (F(5), F(0))


def test_table_protocol_null_fallback():
    doc = table_doc()
    doc["fallback"] = None
    t = table_protocol_from_json(doc)
    f = SetCostFunction.anonymous([0, 1, 2])
    assert t.share(f, 0b11, 0) == 0
    with pytest.raises(ProtocolError):
        t.share(f, 0b01, 0)


def test_table_protocol_rejects_unknown_fallback():
    doc = table_doc()
    doc["fallback"] = "uniform"
    with pytest.raises(ValidationError):
        table_protocol_from_json(doc)


def test_load_table_protocol(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps(table_doc()))
    t = load_table_protocol(str(p))
    f = SetCostFunction.anonymous([0, 1, 2])
    assert t.share(f, 0b11, 1) == 2


# ---------------------------------------------------------------------------
# rejection messages
# ---------------------------------------------------------------------------

def table_doc_with_users(users):
    doc = table_doc()
    doc["entries"][0]["users"] = users
    return doc


def table_doc_with_shares(shares):
    doc = table_doc()
    doc["entries"][0]["shares"] = shares
    return doc


def one_edge_network(terminals):
    edge = Edge("e", "s", "t", SetCostFunction.anonymous([0, 1]))
    return NetworkModel(("s", "t"), (edge,), terminals)


@pytest.mark.parametrize("build, message", [
    (lambda: SetCostFunction.from_table(2, {(0, 2): 1}),
     "player id 2 in (0, 2) out of range 0..1"),
    (lambda: SetCostFunction.from_table(2, {(-1,): 1}),
     "player id -1 in (-1,) out of range 0..1"),
    (lambda: SetCostFunction.from_table(2, {("a",): 1}), "player id 'a' is not an int"),
    (lambda: SetCostFunction.from_table(2, {(1.0,): 1}), "player id 1.0 is not an int"),
    (lambda: SetCostFunction.from_table(2, {(True,): 1}), "player id True is not an int"),
    (lambda: GameModel(2, ("r",), ((frozenset({"r"}),),),
                       (SetCostFunction.anonymous([0, 1, 2]),)),
     "one strategy set per player required"),
    (lambda: cost_from_json(2, ["0/1"]), "cost must be an object"),
    (lambda: table_protocol_from_json(table_doc_with_users([0, 5])),
     "player id 5 in [0, 5] out of range 0..1"),
    (lambda: NetworkModel(("s", "t"), (), ()), "at least one player (terminal pair) required"),
    (lambda: one_edge_network((("s", "x"),)), "player 0 terminals ('s', 'x') unknown"),
    (lambda: WeightSystem((1, 1), ((2, 0),)), "player id 2 in (2, 0) out of range 0..1"),
    (lambda: WeightSystem((1, 1), (("a",), (1,))), "player id 'a' is not an int"),
    (lambda: WeightSystem((1, 1), ((0.0,), (1,))), "player id 0.0 is not an int"),
    (lambda: WeightSystem((1, 1), ((True,), (0,))), "player id True is not an int"),
    (lambda: TableProtocol().set_entry(SetCostFunction.anonymous([0, 1]), 0b1, {"a": 1},
                                       validate=False), "player id 'a' is not an int"),
    (lambda: table_protocol_from_json(table_doc_with_shares(
        {"0": "0/1", " 0": "1/1", "1": "1/1"})), "bad player id ' 0' in shares"),
    (lambda: weight_system_from_json({"lambda": {"0": "1/1", " 0": "2/1", "1": "1/1"},
                                      "blocks": [[0, 1]]}), "bad player id ' 0' in lambda"),
    (lambda: TableProtocol().set_entry(SetCostFunction.anonymous([0, 1, 2]), 0b1, {5: 1},
                                       validate=False), "player id 5 in [5] out of range 0..1"),
    (lambda: WeightSystem((1, 1), ((0, 0), (1,))), "player 0 appears twice in partition"),
    (lambda: WeightSystem((1, 1), ((1,), (0, 1))), "player 1 appears twice in partition"),
    (lambda: WeightSystem((1, 1, 1), ((2, 0),)), "ordered partition must cover every player"),
    (lambda: WeightSystem((1, 1), ((0, 1), ())), "empty block in ordered partition"),
    (lambda: SetCostFunction.from_table(2, [((0,), 1)]), "table [((0,), 1)] is not a mapping"),
    (lambda: SetCostFunction(1, 5, denominators=[1]), "cost numerators 5 is not a tuple or list"),
    (lambda: SetCostFunction(1, {0: 0, 1: 1}, denominators=[1, 1]),
     "cost numerators {0: 0, 1: 1} is not a tuple or list"),
    (lambda: SetCostFunction(1, [0, 1], denominators={1, 2}),
     "cost denominators {1, 2} is not a tuple or list"),
    (lambda: GameModel(1, ("r",), ((frozenset({"r"}),),), (5,)),
     "cost function of 'r' is not a SetCostFunction: 5"),
    (lambda: NetworkModel(("s", "t"), (Edge("e", "s", "t", 5),), (("s", "t"),)),
     "edge 'e' cost 5 is not a SetCostFunction"),
])
def test_rejections_name_the_fault(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message
