"""Seeded inputs for the four benchmark workloads.

``build(workload, seed)`` returns an :class:`Inputs`: the files to write
(name -> text), the CLI ops to run against them, and the facts the input
manifest records. Games come from ``costarena.randomgames`` and
networks from ``costarena.network``, serialised with ``costarena.gamefile``,
so a change to any of those shows up as changed input digests. The same
seed always gives byte-identical files and the same op list.

costarena is imported inside the builders, not at module level, so the
benchmark can time a fresh import as part of each set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("walk", "wide", "certify", "dynamics")

# Every workload fixes the shape of its games (player counts, strategy
# counts, which resources hold full tables, network layout) from a constant
# seed, and draws the cost values, weights, starts and (outside certify) eps
# from the workload seed. With random shapes, ops_per_s and op_p50_ms of walk
# spread by 0.2-0.3 of their median across ten seeds.

WALK_RESOURCES = 6
# Strategy counts of the 7 players; profile spaces step by about 10% from
# 192 to 576. Each analyze then takes 15-50 ms, and the list is short, so
# every op repeats about a hundred times in a 50-second run: on a noisy host
# an op's best time is only steady with that many repeats. With 24 such
# games (45 repeats each) op_p50_ms spread by 0.26 of its median across ten
# seeds; ops of a second or more, such as the 30000-profile ROADMAP
# reference game, moved by up to 20% from run to run.
WALK_SHAPES = (
    (3, 2, 2, 2, 2, 2, 2),      # 192 profiles
    (3, 3, 3, 2, 2, 2, 1),      # 216
    (3, 3, 3, 3, 3, 1, 1),      # 243
    (5, 3, 3, 3, 2, 1, 1),      # 270
    (5, 5, 3, 2, 2, 1, 1),      # 300
    (3, 3, 3, 3, 2, 2, 1),      # 324
    (4, 3, 2, 2, 2, 2, 2),      # 384
    (5, 3, 3, 3, 3, 1, 1),      # 405
    (5, 5, 3, 3, 2, 1, 1),      # 450
    (3, 3, 3, 3, 3, 2, 1),      # 486
    (4, 4, 2, 2, 2, 2, 2),      # 512
    (4, 3, 3, 2, 2, 2, 2),      # 576
)

WIDE_SHAPES = {                 # players -> strategy counts (profile space)
    10: (3, 3, 3, 2, 2, 2, 1, 1, 1, 1),           # 216
    11: (3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1),        # 324
    12: (3, 3, 3, 3, 2, 2, 1, 1, 1, 1, 1, 1),     # 324
}
WIDE_RESOURCES = 6              # three full tables plus three anonymous costs

GRID = 6                        # dynamics: GRID x GRID vertices
DYN_NETWORKS = 4
DYN_STARTS = 2                  # dynamics runs per network
DYN_TABLE_EDGES = 2
# (down, right) span of each player's terminals: 35..252 monotone grid paths
DYN_SPANS = ((3, 4), (4, 3), (4, 4), (3, 5), (5, 3), (4, 5),
             (5, 4), (5, 5), (4, 4), (3, 5), (5, 3), (4, 4))

EPS_CHOICES = (Fraction(1, 5), Fraction(1, 4), Fraction(1, 3))


@dataclass
class Inputs:
    files: dict[str, str] = field(default_factory=dict)
    ops: list[list[str]] = field(default_factory=list)   # argv; "@name" is a file
    players: list[int] = field(default_factory=list)     # per generated game
    profile_space: int = 0                               # summed over games


def build(workload: str, seed: int) -> Inputs:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _note_game(inp: Inputs, model) -> None:
    inp.players.append(model.n)
    inp.profile_space += model.profile_space_size()


def _add_game(inp: Inputs, name: str, model) -> None:
    from costarena.gamefile import game_to_json
    inp.files[name] = _dump(game_to_json(model))
    _note_game(inp, model)


def _class_cost(rng: random.Random, n: int, cost_class: str, table: bool = True):
    """A cost of the class from ``randomgames``: with ``table`` a full
    subset table, lattice (arbitrary), coverage (submodular) or pairwise
    (supermodular), else an anonymous cost. Draws of the other kind are
    skipped."""
    from costarena.randomgames import random_cost
    while True:
        f = random_cost(rng, n, cost_class)
        if (f.anonymous_values is None) == table:
            return f


def _anonymous_cost(rng: random.Random, n: int):
    from costarena.core import SetCostFunction
    marginals = sorted((Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)),
                       reverse=rng.random() < 0.5)
    values = [Fraction(0)]
    for m in marginals:
        values.append(values[-1] + m)
    return SetCostFunction.anonymous(values)


def _weight_system(rng: random.Random, n: int, blocks: int):
    """Random positive weights over a random ordered partition."""
    from costarena.protocols import WeightSystem
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    parts = [tuple(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    weights = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n))
    return WeightSystem(weights, tuple(parts))


def _weights_file(w) -> str:
    from costarena.gamefile import weight_system_to_json
    return _dump(weight_system_to_json(w))


# ---------------------------------------------------------------------------
# walk: exhaustive Shapley analyze on n <= 7 games
# ---------------------------------------------------------------------------

def _strategy_sets(rng: random.Random, resources: tuple, counts, max_size: int):
    """Distinct random resource bundles, ``counts[i]`` of them for player i."""
    sets = []
    for count in counts:
        seen: dict = {}
        while len(seen) < count:
            seen.setdefault(frozenset(rng.sample(resources, rng.randint(1, max_size))))
        sets.append(tuple(seen))
    return tuple(sets)


def build_walk(rng: random.Random) -> Inputs:
    from costarena.core import GameModel
    from costarena.randomgames import COST_CLASSES, random_cost
    inp = Inputs()
    resources = tuple(f"r{j}" for j in range(WALK_RESOURCES))
    names = []
    for k, counts in enumerate(WALK_SHAPES):
        shape = random.Random(f"walk-shape:{k}")
        strategies = _strategy_sets(shape, resources, counts, WALK_RESOURCES)
        cost_class = COST_CLASSES[k % len(COST_CLASSES)]
        # which resources hold full tables is shape too: the kind of a draw
        # made from the shape seed, so the class's mix of kinds is kept
        tables = [random_cost(shape, len(counts), cost_class).anonymous_values is None
                  for _ in resources]
        fns = tuple(_class_cost(rng, len(counts), cost_class, table) for table in tables)
        name = f"{cost_class}-{k}.json"
        _add_game(inp, name, GameModel(len(counts), resources, strategies, fns))
        names.append(name)
    # a fixed interleaving of small and large games, so any stretch of the
    # op list has about the same mix
    random.Random("walk-order").shuffle(names)
    inp.ops = [["analyze", "@" + name] for name in names]
    return inp


# ---------------------------------------------------------------------------
# wide: 10-12 players, full subset tables, shapley and multi-block gws
# ---------------------------------------------------------------------------

def build_wide(rng: random.Random) -> Inputs:
    from costarena.core import GameModel
    inp = Inputs()
    resources = tuple(f"r{j}" for j in range(WIDE_RESOURCES))
    ops_by_game = []
    for n, counts in WIDE_SHAPES.items():
        shape = random.Random(f"wide-shape:{n}")
        kinds = ["arbitrary", "submodular", "supermodular"]
        kinds += [None] * (WIDE_RESOURCES - len(kinds))
        shape.shuffle(kinds)
        counts = list(counts)
        shape.shuffle(counts)
        strategies = _strategy_sets(shape, resources, counts, 3)
        profile = ",".join(str(shape.randrange(c)) for c in counts)
        fns = tuple(_anonymous_cost(rng, n) if kind is None else _class_cost(rng, n, kind)
                    for kind in kinds)
        game, weights = f"wide-{n}.json", f"weights-{n}.json"
        _add_game(inp, game, GameModel(n, resources, strategies, fns))
        inp.files[weights] = _weights_file(_weight_system(rng, n, 3))
        gws = ["--protocol", "gws:@" + weights]
        ops_by_game.append([
            ["analyze", "@" + game],
            ["analyze", "@" + game] + gws,
            ["shares", "@" + game, "--profile", profile],
            ["shares", "@" + game, "--profile", profile] + gws,
        ])
    for k in range(4):
        inp.ops += [ops[k] for ops in ops_by_game]
    for n in (10, 12):
        eps = rng.choice(EPS_CHOICES)
        inp.ops.append(["gadget", "pos_nharmonic", "--n", str(n), "--eps", _frac(eps),
                        "--protocol", f"gws:@weights-{n}.json"])
    return inp


# ---------------------------------------------------------------------------
# certify: many short verify-bounds, gadget and dynamics jobs
# ---------------------------------------------------------------------------

# Two verify-bounds runs per class keep the 17 cheapest gadget jobs (1-3 ms
# each) a majority of the 31 ops, so op_p50_ms sits inside that cluster
# instead of on the edge between clusters.
VERIFY_SEEDS = 2          # verify-bounds runs per cost class
VERIFY_COUNT = 20         # games per verify-bounds run
# Best-response dynamics on small grid networks (4 players on a 4x4 grid,
# 6-20 monotone paths each, one 4-player table edge, 12000 profiles): 4-6 ms
# a run, so paths, best responses and the per-step potential are measured
# on a listed workload too.
SMALL_GRID = 4
SMALL_GRIDS = 4
SMALL_SPANS = ((2, 2), (2, 3), (3, 2), (3, 3))
POA_TARGETS = (2, 5, 10)
PROBE_DOUBLINGS = 25      # covers the probe grid q = 2 .. 2^20 * max(POA_TARGETS)


def _rigged_table(rng: random.Random) -> str:
    """Share table pinning one player's pair share at 1 for every probed
    pair value, so ``poa_unbounded`` takes its bounded-share branch."""
    low = rng.randrange(2)
    qs = [Fraction(2) ** k for k in range(1, PROBE_DOUBLINGS + 1)]
    qs += [Fraction(2 * a) for a in POA_TARGETS]          # the emitted pair values
    entries = []
    for q in sorted(set(qs)):
        entries.append({
            "cost": {"anonymous": ["0/1", "1/1", _frac(q)]},
            "users": [0, 1],
            "shares": {str(low): "1/1", str(1 - low): _frac(q - 1)},
        })
    return _dump({"players": 2, "fallback": "shapley", "entries": entries})


def build_certify(rng: random.Random) -> Inputs:
    """The games these jobs analyse are made inside the CLI; they are built
    here too, only so the manifest records their players and profiles."""
    from costarena.gadgets import build_poa_unbounded, build_pos_linear, build_pos_nharmonic
    from costarena.gamefile import table_protocol_from_json
    from costarena.network import to_game
    from costarena.protocols import ShapleyProtocol, WeightSystem
    from costarena.randomgames import COST_CLASSES, corpus
    inp = Inputs()
    verify = []
    for _ in range(VERIFY_SEEDS):
        for cost_class in COST_CLASSES:
            seed = rng.randrange(10 ** 6)
            verify.append(["verify-bounds", "--class", cost_class,
                           "--count", str(VERIFY_COUNT), "--seed", str(seed)])
            for model in corpus(seed, VERIFY_COUNT, cost_class):
                _note_game(inp, model)
    # eps is fixed per op: drawn from the workload seed, it moved the time of
    # pos_nharmonic n=8, the tail of this workload, by a quarter between seeds
    shape = random.Random("certify-eps")
    gadgets = []
    for n in range(2, 9):
        eps = shape.choice(EPS_CHOICES)
        gadgets.append(["gadget", "pos_linear", "--n", str(n), "--eps", _frac(eps)])
        _note_game(inp, to_game(build_pos_linear(n, eps)))
    for n in range(2, 9, 2):
        for kind, w in (("plain", WeightSystem.plain(n)),
                        ("weighted", _weight_system(rng, n, min(3, n)))):
            eps = shape.choice(EPS_CHOICES)
            inp.files[f"{kind}-{n}.json"] = _weights_file(w)
            gadgets.append(["gadget", "pos_nharmonic", "--n", str(n), "--eps", _frac(eps),
                            "--protocol", f"gws:@{kind}-{n}.json"])
            _note_game(inp, to_game(build_pos_nharmonic(n, eps, w)))
    inp.files["rigged.json"] = _rigged_table(rng)
    rigged = table_protocol_from_json(json.loads(inp.files["rigged.json"]))
    for a in POA_TARGETS:
        gadgets.append(["gadget", "poa_unbounded", "--a", str(a)])
        gadgets.append(["gadget", "poa_unbounded", "--a", str(a),
                        "--protocol", "table:@rigged.json"])
        for protocol in (ShapleyProtocol(), rigged):
            _note_game(inp, to_game(build_poa_unbounded(a, protocol)[0]))
    for k in range(SMALL_GRIDS):
        nm = _grid_network(rng, random.Random(f"certify-grid:{k}"), SMALL_GRID, SMALL_SPANS, 1)
        name = f"grid-{k}.json"
        _add_network(inp, name, nm)
        gadgets.append(_dynamics_op(rng, name))
    # spread the heavier verify-bounds jobs evenly through the gadget jobs
    stride = len(gadgets) // len(verify) + 1
    for k, op in enumerate(gadgets):
        if k % stride == 0 and verify:
            inp.ops.append(verify.pop(0))
        inp.ops.append(op)
    inp.ops += verify
    return inp


# ---------------------------------------------------------------------------
# dynamics: best-response dynamics on grid path-choice networks
# ---------------------------------------------------------------------------

def _grid_network(rng: random.Random, shape: random.Random, grid: int, spans,
                  table_edges: int):
    """``grid`` x ``grid`` network with one player per (down, right) span in
    ``spans``, whose layout (terminals, table-cost edges) comes from
    ``shape`` and whose cost values come from ``rng``."""
    from costarena.network import Edge, NetworkModel
    n = len(spans)
    vertices = tuple(f"v{r}{c}" for r in range(grid) for c in range(grid))
    arcs = []
    for r in range(grid):
        for c in range(grid):
            if c + 1 < grid:
                arcs.append((f"h{r}{c}", f"v{r}{c}", f"v{r}{c + 1}"))
            if r + 1 < grid:
                arcs.append((f"d{r}{c}", f"v{r}{c}", f"v{r + 1}{c}"))
    tables = shape.sample(range(len(arcs)), table_edges)
    terminals = []
    for dr, dc in spans:
        r0, c0 = shape.randint(0, grid - 1 - dr), shape.randint(0, grid - 1 - dc)
        terminals.append((f"v{r0}{c0}", f"v{r0 + dr}{c0 + dc}"))
    classes = ("arbitrary", "submodular", "supermodular")
    edges = []
    for j, (eid, tail, head) in enumerate(arcs):
        if j in tables:
            cost = _class_cost(rng, n, classes[tables.index(j) % len(classes)])
        else:
            cost = _anonymous_cost(rng, n)
        edges.append(Edge(eid, tail, head, cost))
    return NetworkModel(vertices=vertices, edges=tuple(edges), terminals=tuple(terminals))


def _add_network(inp: Inputs, name: str, nm) -> None:
    from costarena.gamefile import network_to_json
    from costarena.network import to_game
    inp.files[name] = _dump(network_to_json(nm))
    _note_game(inp, to_game(nm))


def _dynamics_op(rng: random.Random, name: str) -> list[str]:
    return ["dynamics", "@" + name, "--schedule", "random",
            "--start", f"random:{rng.randrange(10 ** 6)}", "--seed", str(rng.randrange(10 ** 6))]


def build_dynamics(rng: random.Random) -> Inputs:
    inp = Inputs()
    runs = []
    for k in range(DYN_NETWORKS):
        nm = _grid_network(rng, random.Random(f"dynamics-shape:{k}"), GRID, DYN_SPANS,
                           DYN_TABLE_EDGES)
        name = f"grid-{k}.json"
        _add_network(inp, name, nm)
        runs.append([_dynamics_op(rng, name) for _ in range(DYN_STARTS)])
    for j in range(DYN_STARTS):
        inp.ops += [r[j] for r in runs]
    return inp


BUILDERS = {
    "walk": build_walk,
    "wide": build_wide,
    "certify": build_certify,
    "dynamics": build_dynamics,
}
