"""Network form: directed graphs whose edges are priced resources and whose
strategies are simple s-t paths.

Multi-edges and self-contained free edges are allowed; an edge is a
(id, tail, head, cost function) record and paths are reported as tuples of
edge ids in walk order. Path enumeration is DFS on an explicit stack, so
path length is not bounded by Python's recursion limit, with adjacency
sorted by (head vertex, edge id), so path order is deterministic; it is
capped at 10^5 paths per terminal pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import CapExceededError, GameModel, SetCostFunction, ValidationError, read_items

PATH_CAP = 10 ** 5


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    cost: SetCostFunction


@dataclass(frozen=True)
class NetworkModel:
    """Directed network with one terminal pair per player.

    A player's strategies are exactly its simple s-t paths; a restricted
    strategy set is written as a flat ``GameModel``. ``read_items`` reads
    each collection, and a terminal pair must name two vertices.
    Construction enumerates every player's paths once, one enumeration per
    distinct terminal pair, and fails if any player has none.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    terminals: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", read_items(self.vertices, "vertices"))
        object.__setattr__(self, "edges", read_items(self.edges, "edges"))
        terminals = read_items(self.terminals, "terminals")
        for t in terminals:
            if len(read_items(t, "terminal pair")) != 2:
                raise ValidationError(f"terminal pair {t!r} must name two vertices")
        object.__setattr__(self, "terminals", tuple(map(tuple, terminals)))
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        vset = set(self.vertices)
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate edge ids")
        n = len(self.terminals)
        if not n:
            raise ValidationError("at least one player (terminal pair) required")
        for e in self.edges:
            if e.tail not in vset or e.head not in vset:
                raise ValidationError(f"edge {e.id!r} touches unknown vertices")
            if not isinstance(e.cost, SetCostFunction):
                raise ValidationError(f"edge {e.id!r} cost {e.cost!r} is not a SetCostFunction")
            if e.cost.n != n:
                raise ValidationError(
                    f"edge {e.id!r} cost arity {e.cost.n}, game has {n} players")
        for i, (s, t) in enumerate(self.terminals):
            if s not in vset or t not in vset:
                raise ValidationError(f"player {i} terminals ({s!r}, {t!r}) unknown")
        # eager path check: every player must be routable; players with the
        # same terminal pair share one enumeration
        by_pair: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}
        for i, (s, t) in enumerate(self.terminals):
            if (s, t) not in by_pair:
                by_pair[s, t] = tuple(self.paths(s, t))
            if not by_pair[s, t]:
                raise ValidationError(f"player {i} has no {s!r} -> {t!r} path")
        object.__setattr__(self, "_routes",
                           tuple(by_pair[st] for st in self.terminals))

    @property
    def n(self) -> int:
        return len(self.terminals)

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        adj: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e)
        return {v: tuple(sorted(es, key=lambda e: (e.head, e.id)))
                for v, es in adj.items()}

    def paths(self, s: str, t: str) -> list[tuple[str, ...]]:
        """All simple directed s-t paths as edge-id tuples in walk order."""
        if s not in self._out or t not in self._out:
            raise ValidationError(f"unknown terminal {s!r} or {t!r}")
        out = self._out
        if s == t:
            return [()]
        found: list[tuple[str, ...]] = []
        trail: list[Edge] = []      # edges of the current path
        visited = {s}
        pending = [iter(out[s])]    # per vertex on the path, its untried edges
        while pending:
            e = next(pending[-1], None)
            if e is None:
                pending.pop()
                if trail:
                    visited.discard(trail.pop().head)
            elif e.head == t:
                found.append(tuple(x.id for x in trail) + (e.id,))
                if len(found) > PATH_CAP:
                    raise CapExceededError(
                        f"more than {PATH_CAP} simple {s!r} -> {t!r} paths")
            elif e.head not in visited:
                visited.add(e.head)
                trail.append(e)
                pending.append(iter(out[e.head]))
        return found

    def player_paths(self, i: int) -> list[tuple[str, ...]]:
        """Player i's strategies: every simple path between its terminals."""
        return list(self._routes[i])


def to_game(nm: NetworkModel) -> GameModel:
    """Flatten the network into resource/strategy form.

    Edges become resources in declaration order; each player's strategy
    set is its enumerated path list, each path read as the set of edge ids
    it uses.
    """
    strategy_sets = tuple(tuple(frozenset(p) for p in nm.player_paths(i))
                          for i in range(nm.n))
    return GameModel(
        n=nm.n,
        resources=tuple(e.id for e in nm.edges),
        strategy_sets=strategy_sets,
        cost_fns=tuple(e.cost for e in nm.edges),
    )
