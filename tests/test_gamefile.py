import json
import random
from fractions import Fraction
from math import prod

import pytest

from costarena.core import MAX_SCALE_BITS, GameModel, SetCostFunction, ValidationError
from costarena.gadgets import build_pos_linear
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
    _fractions_in_bulk,
    _table_checked,
    _table_in_bulk,
    parse_fraction,
    table_protocol_from_json,
    weight_system_from_json,
    weight_system_to_json,
)
from costarena.network import Edge, NetworkModel, to_game
from costarena.protocols import ProtocolError, WeightSystem
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
    for bad in (1.5, True, False, None, "x", "1/0", [1], 10 ** 4300, "1e5000",
                "1e-99999999", "1e4301", "99e4299", "1/" + "9" * 4301):
        with pytest.raises(ValidationError):
            parse_fraction(bad)


EDGE_STRINGS = (
    "3/4", " 3/4 ", "-3/4", "+3/4", "03/004", "1_000/3", "3 / 4", "3/0", "0/0",
    "0/5", "2/4", "7", "", "/", "3/", "/4", "1/2/3", "x/4", "3/4x",
    "\u0663/\u0664", "\uff13/\uff14", "\u00b2/3", "1.5", "1e3", "1E-2", "e3",
    "9" * 4300 + "/1", "1/" + "9" * 4300, "9" * 4301 + "/1", "1e4300", "1e4301",
)


def test_fast_rational_path_matches_fraction():
    # the reader's bulk "p/q" column parser and parse_fraction
    # (Fraction(str)) agree on every string: the bulk parser gives the same
    # value or leaves the string to parse_fraction, and an anonymous list
    # loads to the value, or fails with the message, that parse_fraction gives
    for text in EDGE_STRINGS:
        try:
            expected = parse_fraction(text)
        except ValidationError as exc:
            assert _fractions_in_bulk([text]) is None, text
            with pytest.raises(ValidationError) as caught:
                cost_from_json(1, {"anonymous": ["0/1", text]})
            assert str(caught.value) == str(exc), text
            continue
        column = _fractions_in_bulk([text])
        if column is not None:
            [p], [q] = column
            assert q > 0 and F(p, q) == expected, text
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
    assert _fractions_in_bulk(["03/004", "5/1"]) == ([3, 5], [4, 1])  # not reduced
    assert _fractions_in_bulk([5]) is None


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
     "bad player ids in table entry [0, 2]"),
    (2, {"table": [{"set": [-1], "cost": "1/1"}]},
     "bad player ids in table entry [-1]"),
    (2, {"table": [{"set": [0], "cost": "3/0"}]}, "bad rational '3/0'"),
    (2, {"table": [{"set": [0], "cost": True}]}, "not an exact rational: True"),
    (2, {"anonymous": ["1/2", "1/1", "2/1"]}, "cost of the empty set is 1/2, must be 0"),
    (2, {"anonymous": ["0/1", "6/4", "1/1"]},
     "anonymous cost decreases from size 1 to 2: 3/2 > 1"),
    (0, {"anonymous": ["0/1"]}, "anonymous cost needs at least 2 entries (n >= 1)"),
    (17, {"anonymous": ["0/1"] * 18}, "player count 17 out of range 1..16"),
    (0, {"table": []}, "player count 0 out of range 1..16"),
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


# accepted inputs, most of which the bulk reader leaves to the checked loop
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
def test_bulk_table_reader_equals_checked_loop(entries, monkeypatch):
    read = cost_from_json(2, {"table": entries})
    monkeypatch.setattr("costarena.gamefile._table_in_bulk", lambda n, entries: None)
    checked = cost_from_json(2, {"table": entries})
    assert read == checked and read.denominator == checked.denominator
    assert [read.scaled(m) for m in range(4)] == [checked.scaled(m) for m in range(4)]


def test_bulk_table_reader_reads_written_tables():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        doc = cost_to_json(SetCostFunction(n, [0] + sorted(
            F(rng.randint(0, 10 ** rng.randint(1, 30)), rng.randint(1, 12))
            for _ in range((1 << n) - 1))))
        if "table" in doc:
            entries = doc["table"]
            rng.shuffle(entries)
            bulk = _table_in_bulk(n, entries)
            assert bulk is not None and bulk == _table_checked(n, entries)


def test_bit_budget_applies_to_reduced_values(monkeypatch):
    """Each entry is |S| written over its own prime, "|S|p/p": the written
    denominators take more than MAX_SCALE_BITS bits together, but the
    values are integers, so L is 1 and both readers load the table."""
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
    for _ in range(2):
        f = cost_from_json(n, {"table": entries})
        assert f == expected and f.denominator == 1
        monkeypatch.setattr("costarena.gamefile._table_in_bulk", lambda n, entries: None)


REJECTED_TABLES = [
    ("bool member", table_with(0, {"set": [True], "cost": "1/2"}),
     "table entry set: expected a list of integers"),
    ("float member", table_with(0, {"set": [0.0], "cost": "1/2"}),
     "table entry set: expected a list of integers"),
    ("set not a list", table_with(0, {"set": "0", "cost": "1/2"}),
     "table entry set: expected a list of integers"),
    ("out of range", table_with(1, {"set": [2], "cost": "1/2"}),
     "bad player ids in table entry [2]"),
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
def test_bulk_table_reader_keeps_messages(entries, message, monkeypatch):
    for _ in range(2):
        with pytest.raises(ValidationError) as caught:
            cost_from_json(2, {"table": entries})
        assert str(caught.value) == message
        monkeypatch.setattr("costarena.gamefile._table_in_bulk", lambda n, entries: None)


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

def test_network_round_trip_with_forced_routes():
    nm = build_pos_linear(3, F(1, 2))
    doc = network_to_json(nm)
    back = network_from_json(doc)
    assert back.vertices == nm.vertices
    assert back.terminals == nm.terminals
    assert back.forced == nm.forced
    assert [e.id for e in back.edges] == [e.id for e in nm.edges]
    assert to_game(back) == to_game(nm)
    assert json.dumps(doc)


def test_network_from_json_validation():
    nm = build_pos_linear(2, F(1, 2))
    doc = network_to_json(nm)
    doc["network"]["forced"] = [None]  # wrong length
    with pytest.raises(ValidationError):
        network_from_json(doc)
    doc["network"]["forced"] = [5, None]
    with pytest.raises(ValidationError):
        network_from_json(doc)
    doc["network"]["forced"] = None
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


def one_edge_network(terminals, forced=None):
    edge = Edge("e", "s", "t", SetCostFunction.anonymous([0, 1]))
    return NetworkModel(("s", "t"), (edge,), terminals, forced)


@pytest.mark.parametrize("build, message", [
    (lambda: SetCostFunction.from_table(2, {(0, 2): 1}), "user set (0, 2) outside 0..1"),
    (lambda: GameModel(2, ("r",), ((frozenset({"r"}),),),
                       (SetCostFunction.anonymous([0, 1, 2]),)),
     "one strategy set per player required"),
    (lambda: cost_from_json(2, ["0/1"]), "cost must be an object"),
    (lambda: table_protocol_from_json(table_doc_with_users([0, 5])),
     "bad user id 5 in share entry"),
    (lambda: NetworkModel(("s", "t"), (), ()), "at least one player (terminal pair) required"),
    (lambda: one_edge_network((("s", "x"),)), "player 0 terminals ('s', 'x') unknown"),
    (lambda: one_edge_network((("s", "t"),), forced=()),
     "forced list must have one entry per player"),
    (lambda: WeightSystem((1, 1), ((0, 2),)), "player 2 out of range in partition"),
])
def test_rejections_name_the_fault(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message
