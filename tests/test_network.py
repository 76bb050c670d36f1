import random
from fractions import Fraction

import pytest

from costarena.core import (
    CapExceededError,
    SetCostFunction,
    ValidationError,
    social_cost,
    users_of,
)
from costarena.equilibrium import analyze
from costarena.network import Edge, NetworkModel, to_game
from costarena.protocols import ShapleyProtocol, private_costs

F = Fraction


def per_player(n, rate):
    return SetCostFunction.anonymous([rate * k for k in range(n + 1)])


def diamond(n=2):
    zero = SetCostFunction.zero(n)
    one = per_player(n, F(1))
    return NetworkModel(
        vertices=("s", "a", "b", "t"),
        edges=(
            Edge("sa", "s", "a", zero),
            Edge("sb", "s", "b", one),
            Edge("at", "a", "t", one),
            Edge("bt", "b", "t", zero),
        ),
        terminals=(("s", "t"),) * n,
    )


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_validation_errors():
    zero = SetCostFunction.zero(1)
    with pytest.raises(ValidationError):  # endpoint not declared
        NetworkModel(("s",), (Edge("e", "s", "t", zero),), (("s", "t"),))
    with pytest.raises(ValidationError):  # duplicate edge ids
        NetworkModel(("s", "t"),
                     (Edge("e", "s", "t", zero), Edge("e", "s", "t", zero)),
                     (("s", "t"),))
    with pytest.raises(ValidationError):  # player cannot route
        NetworkModel(("s", "t"), (Edge("e", "t", "s", zero),), (("s", "t"),))
    with pytest.raises(ValidationError):  # arity mismatch
        NetworkModel(("s", "t"),
                     (Edge("e", "s", "t", SetCostFunction.zero(2)),),
                     (("s", "t"),))


def test_forced_routes_are_not_an_option():
    nm = diamond()
    # a restricted strategy set is a flat game, not a network option
    with pytest.raises(TypeError):
        NetworkModel(nm.vertices, nm.edges, nm.terminals,
                     forced=((frozenset({"sa", "at"}),), None))


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------

def test_parallel_edges_are_distinct_paths():
    zero = SetCostFunction.zero(1)
    nm = NetworkModel(("s", "t"),
                      (Edge("hi", "s", "t", zero), Edge("lo", "s", "t", zero)),
                      (("s", "t"),))
    assert sorted(nm.paths("s", "t")) == [("hi",), ("lo",)]


def test_diamond_has_two_paths():
    nm = diamond()
    assert nm.paths("s", "t") == [("sa", "at"), ("sb", "bt")]


def test_cycles_do_not_trap_enumeration():
    zero = SetCostFunction.zero(1)
    nm = NetworkModel(
        ("s", "a", "b", "t"),
        (Edge("sa", "s", "a", zero), Edge("ab", "a", "b", zero),
         Edge("ba", "b", "a", zero), Edge("at", "a", "t", zero)),
        (("s", "t"),),
    )
    assert nm.paths("s", "t") == [("sa", "at")]


def test_long_simple_path_needs_no_recursion():
    zero = SetCostFunction.zero(1)
    vertices = tuple(f"v{k}" for k in range(1500))
    edges = tuple(Edge(f"e{k}", vertices[k], vertices[k + 1], zero)
                  for k in range(1499))
    nm = NetworkModel(vertices, edges, ((vertices[0], vertices[-1]),))
    assert nm.paths(vertices[0], vertices[-1]) == [tuple(e.id for e in edges)]
    assert nm.paths(vertices[0], vertices[0]) == [()]


def test_no_route_gives_empty_list():
    nm = diamond()
    assert nm.paths("t", "s") == []
    with pytest.raises(ValidationError):
        nm.paths("s", "nowhere")


def test_four_route_two_stage_mesh():
    # s -> v1 -> v2 -> t with shortcuts both ways plus a direct edge
    zero = SetCostFunction.zero(2)
    nm = NetworkModel(
        ("s", "v1", "v2", "t"),
        (Edge("e1", "s", "v1", zero),
         Edge("mid", "v1", "v2", zero),
         Edge("e2", "v2", "t", zero),
         Edge("skip_in", "s", "v2", zero),
         Edge("skip_out", "v1", "t", zero),
         Edge("direct", "s", "t", zero)),
        (("s", "t"), ("s", "t")),
    )
    got = nm.paths("s", "t")
    assert len(got) == 4
    assert set(got) == {("direct",), ("e1", "skip_out"),
                        ("e1", "mid", "e2"), ("skip_in", "e2")}


def test_path_cap_guard():
    # 17 two-edge stages in series: 2^17 routes, past the enumeration cap
    stages = 17
    vertices = tuple(f"c{k}" for k in range(stages + 1))
    edges = []
    zero = SetCostFunction.zero(1)
    for k in range(stages):
        edges.append(Edge(f"up{k}", f"c{k}", f"c{k + 1}", zero))
        edges.append(Edge(f"dn{k}", f"c{k}", f"c{k + 1}", zero))
    with pytest.raises(CapExceededError):
        NetworkModel(vertices, tuple(edges), ((vertices[0], vertices[-1]),))


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def test_to_game_strategies_follow_paths():
    nm = diamond()
    g = to_game(nm)
    assert g.n == 2
    assert g.resources == ("sa", "sb", "at", "bt")
    for i in range(2):
        assert set(g.strategy_sets[i]) == {frozenset({"sa", "at"}),
                                           frozenset({"sb", "bt"})}


def test_to_game_usage_matches_edge_loads():
    nm = diamond()
    g = to_game(nm)
    # both players on the upper route
    profile = tuple(g.strategy_sets[i].index(frozenset({"sa", "at"}))
                    for i in range(2))
    assert users_of(g, profile, "sa") == 0b11
    assert users_of(g, profile, "sb") == 0
    assert social_cost(g, profile) == 2


def test_flattened_diamond_analysis():
    g = to_game(diamond())
    report = analyze(g, ShapleyProtocol())
    # both routes are modular rate 1, so every profile costs 2 and is stable
    assert report.optimum_cost == 2
    assert len(report.pne) == 4
    assert report.poa == report.pos == 1


def test_single_edge_network_private_costs():
    n = 3
    nm = NetworkModel(("s", "t"),
                      (Edge("e", "s", "t", per_player(n, F(2))),),
                      (("s", "t"),) * n)
    g = to_game(nm)
    assert private_costs(g, ShapleyProtocol(), (0, 0, 0)) == (F(2),) * 3


def _count_path_calls(monkeypatch):
    calls = []
    enumerate_paths = NetworkModel.paths

    def counted(self, s, t):
        calls.append((s, t))
        return enumerate_paths(self, s, t)

    monkeypatch.setattr(NetworkModel, "paths", counted)
    return calls


def test_paths_enumerated_once_per_network(monkeypatch):
    from costarena.gadgets import build_pos_linear
    calls = _count_path_calls(monkeypatch)
    g = to_game(build_pos_linear(4, F(1, 2)))
    assert len(calls) <= 4
    assert len(calls) == len(set(calls))
    assert g.n == 4


def test_players_sharing_terminals_share_one_enumeration(monkeypatch):
    calls = _count_path_calls(monkeypatch)
    nm = diamond(3)
    g = to_game(nm)
    assert calls == [("s", "t")]
    assert nm.player_paths(2) == [("sa", "at"), ("sb", "bt")]
    assert all(sset == g.strategy_sets[0] for sset in g.strategy_sets)
