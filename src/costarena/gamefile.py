"""JSON game files, weight-system files, and share-table files.

Every rational crosses the wire as a "p/q" string (denominator always
written), so parse/serialize round-trips are exact and no float ever
appears in a file. Player ids are 0-based everywhere: an id in a list (a
table set, a share entry's ``users``, a block) is read by
``core.player_mask``, and ``_by_player`` reads every object keyed by
player id (``shares``, ``lambda``), whose keys must be "0".."n-1" exactly.

A game file is either flat::

    {"players": 2,
     "resources": [{"id": "r0", "cost": {"anonymous": ["0/1", "1/1", "3/1"]}},
                   {"id": "r1", "cost": {"table": [{"set": [0], "cost": "1/2"},
                                                   {"set": [0, 1], "cost": "2/1"}]}}],
     "strategies": [[["r0"], ["r1"]], [["r0", "r1"]]]}

or a network, whose players take every simple s-t path (a restricted
strategy set is written in the flat form)::

    {"network": {"vertices": [...],
                 "edges": [{"id": "e1", "from": "s", "to": "t", "cost": {...}}],
                 "terminals": [["s", "t"], ["s", "t"]]}}

Table cost entries omit zero-cost sets; anything omitted is 0, which the
cost-function validator then accepts or rejects against monotonicity.

This module only parses the structure: objects, lists, keys and strings.
Every value goes to the ``core`` reader of library calls: ``players`` to
the constructor that it is handed to, which reads it with
``core.check_player_count``, every id to ``core.player_mask``, and every
rational to ``core.parse_fraction``, a cost column through
``core.parse_fractions``, which reads "p/q" columns in bulk.
``SetCostFunction`` reduces the numerators and denominators, checks the
bit budget and scales them to one canonical denominator.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from operator import itemgetter

from .core import (
    MAX_DIGITS,
    GameModel,
    SetCostFunction,
    ValidationError,
    check_player_count,
    parse_fractions,
    player_mask,
)
from .network import Edge, NetworkModel, to_game
from .protocols import Protocol, ShapleyProtocol, TableProtocol, WeightSystem


def fraction_to_str(x: Fraction) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # over the interpreter's int-to-string digit limit
        raise ValidationError(
            f"a result has more than {MAX_DIGITS} digits and cannot be written") from None


def _require(obj, key, kind, where):
    """``obj[key]``, an instance of ``kind`` unless ``kind`` is None."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ValidationError(f"{where}: key {key!r} has wrong type")
    return value


def _strings(value, where) -> list:
    """``value`` if it is a JSON list of strings."""
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise ValidationError(f"{where}: expected a list of strings")
    return value


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
        # literals of more than MAX_DIGITS digits; the decoder recurses once
        # per nesting level
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------

def cost_to_json(f: SetCostFunction) -> dict:
    values = f.anonymous_values
    if values is not None:
        return {"anonymous": list(map(fraction_to_str, values))}
    entries = []
    for mask in range(1, 1 << f.n):
        v = f.scaled(mask)
        if v:
            entries.append({"set": [i for i in range(f.n) if (mask >> i) & 1],
                            "cost": fraction_to_str(Fraction(v, f.denominator))})
    return {"table": entries}


def cost_from_json(n: int, obj) -> SetCostFunction:
    if not isinstance(obj, dict):
        raise ValidationError("cost must be an object")
    if "anonymous" in obj:
        values = obj["anonymous"]
        if not isinstance(values, list):
            raise ValidationError("anonymous cost must be a list")
        return SetCostFunction(n, values, anonymous=True)
    if "table" in obj:
        entries = obj["table"]
        if not isinstance(entries, list):
            raise ValidationError("table cost must be a list")
        check_player_count(n)  # before sizing the table by it
        masks, nums, dens = _table(n, entries)
        table, denominators = [0] * (1 << n), [1] * (1 << n)  # omitted sets cost 0/1
        deque(map(table.__setitem__, masks, nums), 0)
        deque(map(denominators.__setitem__, masks, dens), 0)
        return SetCostFunction(n, table, denominators=denominators)
    raise ValidationError("cost needs an 'anonymous' or 'table' key")


def _table(n: int, entries: list) -> tuple[list, list, list]:
    """The user masks, numerators and denominators of the table entries.
    Each field is read and type-checked in one pass that runs in C; a set
    not written as distinct ids in ascending order is read on its own.
    Faults are looked for kind by kind: an entry's structure, a member id,
    a duplicate set, a rational; the first entry with the first kind
    found is named."""
    try:
        sets = list(map(itemgetter("set"), entries))
        costs = list(map(itemgetter("cost"), entries))
        typed = (set(map(type, entries)) <= {dict} and set(map(type, sets)) <= {list}
                 and set(map(type, chain.from_iterable(sets))) <= {int})
    except (KeyError, TypeError):
        typed = False
    if not typed:  # name the first malformed entry
        sets, costs = [], []
        for e in entries:
            sets.append(_require(e, "set", list, "table entry"))
            costs.append(_require(e, "cost", None, "table entry"))
    # only int members are looked up: the index would take True for 1
    masks = list(map(_member_index(n).get, map(tuple, sets))) if typed else [None] * len(sets)
    if None in masks:  # untyped, or written out of order or with a member twice
        masks = [player_mask(members, n) if mask is None else mask
                 for mask, members in zip(masks, sets)]
    if len(set(masks)) != len(masks):
        seen = set()
        for mask, members in zip(masks, sets):
            if mask in seen:
                raise ValidationError(f"duplicate table entry for set {members!r}")
            seen.add(mask)
    return (masks, *parse_fractions(costs))


@cache
def _member_index(n: int) -> dict:
    """Ascending member tuple -> user mask, for every subset of n players."""
    members = [()]
    for i in range(n):
        members += [m + (i,) for m in members]
    return dict(zip(members, range(1 << n)))


@cache
def _id_keys(n: int) -> dict:
    """"0".."n-1" -> player id: the one way to write each id as a key."""
    check_player_count(n)
    return {str(i): i for i in range(n)}


def _by_player(obj: dict, n: int, what: str) -> dict:
    """``obj``, an object keyed by player id, as {id: value}. Each key must
    be exactly one of "0".."n-1", so no two keys name one player."""
    ids = _id_keys(n)
    try:
        return {ids[k]: v for k, v in obj.items()}
    except KeyError as exc:
        raise ValidationError(f"bad player id {exc.args[0]!r} in {what}") from None


# ---------------------------------------------------------------------------
# Games and networks
# ---------------------------------------------------------------------------

def game_to_json(model: GameModel) -> dict:
    return {
        "players": model.n,
        "resources": [{"id": rid, "cost": cost_to_json(f)}
                      for rid, f in zip(model.resources, model.cost_fns)],
        "strategies": [[sorted(strat) for strat in sset]
                       for sset in model.strategy_sets],
    }


def game_from_json(obj) -> GameModel:
    n = _require(obj, "players", None, "game")  # read by the first cost or GameModel
    res = _require(obj, "resources", list, "game")
    ids = []
    fns = []
    for r in res:
        ids.append(_require(r, "id", str, "resource"))
        fns.append(cost_from_json(n, _require(r, "cost", dict, "resource")))
    strategies = _require(obj, "strategies", list, "game")
    ssets = []
    for sset in strategies:
        if not isinstance(sset, list):
            raise ValidationError("each player's strategy list must be a list")
        ssets.append(tuple(frozenset(_strings(strat, "strategy")) for strat in sset))
    return GameModel(n=n, resources=tuple(ids), strategy_sets=tuple(ssets),
                     cost_fns=tuple(fns))


def network_to_json(nm: NetworkModel) -> dict:
    doc = {
        "vertices": list(nm.vertices),
        "edges": [{"id": e.id, "from": e.tail, "to": e.head,
                   "cost": cost_to_json(e.cost)} for e in nm.edges],
        "terminals": [list(t) for t in nm.terminals],
    }
    return {"network": doc}


def network_from_json(obj) -> NetworkModel:
    net = _require(obj, "network", dict, "file")
    terminals = _require(net, "terminals", list, "network")
    for t in terminals:
        if len(_strings(t, "terminal pair")) != 2:
            raise ValidationError(f"terminal pair {t!r} must name two vertices")
    n = len(terminals)
    edges = []
    for e in _require(net, "edges", list, "network"):
        edges.append(Edge(
            _require(e, "id", str, "edge"),
            _require(e, "from", str, "edge"),
            _require(e, "to", str, "edge"),
            cost_from_json(n, _require(e, "cost", dict, "edge")),
        ))
    if net.get("forced") is not None:
        raise ValidationError("network forced routes are not supported; "
                              "write a restricted strategy set as a flat game")
    return NetworkModel(
        vertices=tuple(_strings(_require(net, "vertices", None, "network"), "vertices")),
        edges=tuple(edges),
        terminals=tuple((t[0], t[1]) for t in terminals),
    )


def load_game(path: str) -> tuple[GameModel, NetworkModel | None]:
    """Read a game file; returns the flattened game plus the network form
    when the file used one."""
    obj = _read_json(path)
    if isinstance(obj, dict) and "network" in obj:
        nm = network_from_json(obj)
        return to_game(nm), nm
    return game_from_json(obj), None


# ---------------------------------------------------------------------------
# Protocol files
# ---------------------------------------------------------------------------

def weight_system_to_json(w: WeightSystem) -> dict:
    return {"lambda": [fraction_to_str(x) for x in w.weights],
            "blocks": [list(b) for b in w.blocks]}


def weight_system_from_json(obj) -> WeightSystem:
    raw = _require(obj, "lambda", None, "weight system")
    if isinstance(raw, dict):  # n keys, each naming one of n players: a cover
        weights = [v for _, v in sorted(_by_player(raw, len(raw), "lambda").items())]
    elif isinstance(raw, list):
        weights = raw
    else:
        raise ValidationError("lambda must be a list or an object")
    blocks = _require(obj, "blocks", list, "weight system")
    if not all(map(isinstance, blocks, repeat(list))):
        raise ValidationError("weight system: each block must be a list")
    return WeightSystem(weights, blocks)  # its block_masks reads the ids


def load_weight_system(path: str) -> WeightSystem:
    return weight_system_from_json(_read_json(path))


def table_protocol_from_json(obj) -> TableProtocol:
    """Share-table file: {"players": n, "fallback": "shapley"|null,
    "entries": [{"cost": {...}, "users": [ids], "shares": {"id": "p/q"}}]}.

    Entries are taken as-is (no budget-balance validation) so files can
    describe defective protocols on purpose.
    """
    n = _require(obj, "players", None, "share table")
    check_player_count(n)  # a file's table has a count: TableProtocol takes None as none
    fallback_name = obj.get("fallback", "shapley")
    if fallback_name is None:
        fallback: Protocol | None = None
    elif fallback_name == "shapley":
        fallback = ShapleyProtocol()
    else:
        raise ValidationError(f"unknown fallback {fallback_name!r}")
    protocol = TableProtocol(fallback=fallback, players=n)
    for entry in _require(obj, "entries", list, "share table"):
        f = cost_from_json(n, _require(entry, "cost", dict, "share entry"))
        users = player_mask(_require(entry, "users", list, "share entry"), n)
        shares = _by_player(_require(entry, "shares", dict, "share entry"), n, "shares")
        protocol.set_entry(f, users, shares, validate=False)
    return protocol


def load_table_protocol(path: str) -> TableProtocol:
    return table_protocol_from_json(_read_json(path))
