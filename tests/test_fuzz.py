"""Seeded mutation fuzzing of the three input file kinds through the CLI.

Valid game (flat and network), weight-system and share-table files are
mutated one to three times each: a key or list item deleted or
duplicated (a duplicated object key is written twice, with another
value), a value swapped for one of another type, or for a huge, negative
or boolean number. Every mutant must make the CLI exit 0, 2 or 3 with a
message and no traceback; exit 1 would claim a failed bound check.

Table cost entries get their own mutations, in the shapes that leave the
table reader's passes for its per-entry paths; each such mutant must load
to the cost that the rational constructor builds from a dense list of the
entries over ``parse_fraction``, or fail where that reference fails.
"""

from __future__ import annotations

import copy
import json
import random

from costarena.cli import main
from costarena.core import SetCostFunction, ValidationError, parse_fraction
from costarena.gamefile import load_game


class Raw(str):
    """JSON text written as it is (an integer literal too long for ``str(int)``)."""


class Twice(dict):
    """A JSON object with one key written a second time, ``extra`` being
    (index among the items, key, value) of the second writing."""

    extra = None


SWAPS = (
    Raw("1" + "0" * 5000), "1e5000", "1e-99999999", "9" * 4300 + "/1", 2 ** 64,
    -1, -7, "-7/3", "0/1", True, False, 0, 3, None, 1.5, float("inf"), "", "x",
    "1/0", [], {}, [0, 1], ["r0"], {"0": "1/1"},
)


def dumps(node) -> str:
    if isinstance(node, Raw):
        return node
    if isinstance(node, dict):
        items = [f"{json.dumps(k)}: {dumps(v)}" for k, v in node.items()]
        if isinstance(node, Twice) and node.extra is not None:
            at, key, value = node.extra
            items.insert(at, f"{json.dumps(key)}: {dumps(value)}")
        return "{" + ", ".join(items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(dumps(v) for v in node) + "]"
    return json.dumps(node)


def slots(node):
    """Every (container, key or index) pair in the document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in list(items):
        yield node, key
        yield from slots(child)


def type_swap(value, rng):
    if isinstance(value, str):
        return rng.choice([len(value), [value], {value: value}])
    if isinstance(value, bool) or isinstance(value, int):
        return rng.choice([str(value), [value], not value])
    if isinstance(value, list):
        return rng.choice([dict(enumerate(value)), value[0] if value else None, "[]"])
    if isinstance(value, dict):
        return rng.choice([list(value.values()), list(value), "{}"])
    return rng.choice(SWAPS)


def mutate(doc, rng):
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        where = list(slots(doc))
        if not where:
            break
        parent, key = rng.choice(where)
        action = rng.randrange(4)
        if action == 0:
            del parent[key]
        elif action == 1 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif action == 1:
            # the decoder keeps whichever writing of the key comes last
            twice = Twice(parent)
            twice.extra = (rng.randint(0, len(parent)), key, rng.choice(SWAPS))
            if parent is doc:
                doc = twice
            else:
                for grand, k in slots(doc):
                    if grand[k] is parent:
                        grand[k] = twice
                        break
        elif action == 2:
            parent[key] = type_swap(parent[key], rng)
        else:
            parent[key] = rng.choice(SWAPS)
    return doc


FLAT_GAME = {
    "players": 2,
    "resources": [
        {"id": "r0", "cost": {"anonymous": ["0/1", "1/1", "3/2"]}},
        {"id": "r1", "cost": {"table": [{"set": [0], "cost": "1/2"},
                                        {"set": [1], "cost": "2/3"},
                                        {"set": [0, 1], "cost": "2/1"}]}},
    ],
    "strategies": [[["r0"], ["r1"]], [["r0", "r1"], ["r1"]]],
}

NETWORK_GAME = {"network": {
    "vertices": ["s", "a", "t"],
    "edges": [
        {"id": "e1", "from": "s", "to": "a", "cost": {"anonymous": ["0/1", "1/1", "1/1"]}},
        {"id": "e2", "from": "a", "to": "t", "cost": {"table": [{"set": [1], "cost": "1/3"},
                                                               {"set": [0, 1], "cost": "1/2"}]}},
        {"id": "e3", "from": "s", "to": "t", "cost": {"anonymous": ["0/1", "2/1", "4/1"]}},
    ],
    "terminals": [["s", "t"], ["s", "t"]],
}}

WEIGHTS = {"lambda": {"0": "1/1", "1": "5/2"}, "blocks": [[1], [0]]}

SHARE_TABLE = {
    "players": 2,
    "fallback": "shapley",
    "entries": [{"cost": {"anonymous": ["0/1", "1/1", "3/2"]},
                 "users": [0, 1],
                 "shares": {"0": "1/1", "1": "1/2"}}],
}


def test_mutated_files_exit_0_2_or_3(tmp_path, capsys):
    rng = random.Random(20260418)
    game = tmp_path / "game.json"
    game.write_text(json.dumps(FLAT_GAME))
    mutant = tmp_path / "mutant.json"
    cases = [(FLAT_GAME, ("analyze", "@"))] * 70 + \
        [(FLAT_GAME, ("dynamics", "@", "--max-steps", "4"))] * 20 + \
        [(NETWORK_GAME, ("analyze", "@"))] * 70 + \
        [(WEIGHTS, ("analyze", str(game), "--protocol", "gws:@"))] * 60 + \
        [(SHARE_TABLE, ("analyze", str(game), "--protocol", "table:@"))] * 80
    codes = set()
    for doc, argv in cases:
        text = dumps(mutate(doc, rng))
        mutant.write_text(text)
        argv = [a.replace("@", str(mutant)) for a in argv]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 2, 3) and "Traceback" not in err, (rc, err, text[:500])
        codes.add(rc)
    assert codes == {0, 2}  # the mutants reach past validation too


TABLE_GAME = {
    "players": 3,
    "resources": [{"id": "r", "cost": {"table": [
        {"set": [i for i in range(3) if mask >> i & 1], "cost": f"{mask.bit_count() * 6}/5"}
        for mask in range(1, 8)]}}],
    "strategies": [[["r"], []]] * 3,
}

ENTRY_MUTATIONS = (
    lambda e, rng: {**e, "set": e["set"][::-1]},
    lambda e, rng: {**e, "set": e["set"] + e["set"][:1]},
    lambda e, rng: {**e, "set": e["set"] + [rng.choice([3, -1, True, 1.0])]},
    lambda e, rng: {**e, "set": []},
    lambda e, rng: {**e, "note": [None]},
    lambda e, rng: {k: v for k, v in e.items() if k != rng.choice(["set", "cost"])},
    lambda e, rng: list(e.items()),
    lambda e, rng: {**e, "cost": rng.choice([
        "03/004", "+1/2", " 1/2", "1/0", "1/2/3", "7", "\u0661/\u0662", "\u00b2/1", "/2", "2/",
        "9" * 4300 + "/1", "1/" + "7" * 4300, "1/" + "7" * 4301])},
    # diverse denominators: the entries' primes differ from one another
    lambda e, rng: {**e, "cost": f"{rng.randint(20, 60)}/{rng.choice([7, 11, 13, 17, 19, 23])}"},
)


def reference_cost(n, entries):
    """The table cost that the rational constructor builds over a dense
    list of ``parse_fraction`` of each written cost, at the mask of its set,
    or None where an entry is malformed, names an id outside 0..n-1 or
    writes a set twice."""
    table = {}
    for e in entries:
        if (type(e) is not dict or not {"set", "cost"} <= e.keys() or type(e["set"]) is not list
                or not all(type(i) is int and 0 <= i < n for i in e["set"])):
            return None
        mask = sum(1 << i for i in set(e["set"]))
        if mask in table:
            return None
        table[mask] = e["cost"]
    try:
        return SetCostFunction(
            n, [parse_fraction(table[mask]) if mask in table else 0 for mask in range(1 << n)])
    except ValidationError:
        return None


def test_mutated_table_entries_read_alike_in_bulk(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "table.json"
    codes = set()
    for _ in range(120):
        doc = copy.deepcopy(TABLE_GAME)
        entries = doc["resources"][0]["cost"]["table"]
        for _ in range(rng.randint(1, 3)):
            k = rng.choice([k for k, e in enumerate(entries) if type(e) is dict] or [0])
            if rng.random() < 0.1 or type(entries[k]) is not dict:
                entries.insert(k, copy.deepcopy(entries[k]))  # a set written twice
            else:
                entries[k] = rng.choice(ENTRY_MUTATIONS)(entries[k], rng)
        rng.shuffle(entries)
        path.write_text(dumps(doc))
        rc = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert rc in (0, 2) and "Traceback" not in captured.err, (rc, captured.err)
        expected = reference_cost(3, entries)
        assert (rc == 0) == (expected is not None), (rc, captured.err)
        if expected is not None:
            [loaded] = load_game(str(path))[0].cost_fns
            assert loaded == expected and loaded.denominator == expected.denominator
        codes.add(rc)
    assert codes == {0, 2}
