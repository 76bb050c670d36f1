"""Generators for the three worst-case network families, parameterized the
way their optimality arguments need them, plus a verifier that measures the
generated game and compares against the closed-form target.

Kinds:

* ``pos_linear``: price of stability approaches the player count. One
  bottleneck edge is free until all n players pile on, then costs n - eps;
  the lone flexible player's opt-out edge costs its user count.
* ``pos_nharmonic``: price of stability ((n/2+1) * H_{n/2}) / (1+eps) for a
  chosen generalized weighted Shapley protocol. A spine of threshold edges
  shared with detour players, against one constant-cost bypass edge.
* ``poa_unbounded``: for any target ratio a >= 1 and any budget-balanced
  protocol, a two-player network with anonymous convex costs whose price
  of anarchy is at least a. Which of two networks gets emitted depends on
  how the protocol splits a supermodular pair cost as the pair value q
  grows, probed on the doubling grid q in {2, 4, ..., 2^PROBE_DOUBLINGS * a}.

Every probe compares the protocol's integer ``scaled_share``s of one cost
function, which share one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import SetCostFunction, ValidationError, check_player_count, parse_fraction, player_mask
from .equilibrium import analyze
from .network import Edge, NetworkModel, to_game
from .potential import harmonic
from .protocols import GeneralizedWeightedShapley, Protocol, ShapleyProtocol, WeightSystem

POS_LINEAR = "pos_linear"
POS_NHARMONIC = "pos_nharmonic"
POA_UNBOUNDED = "poa_unbounded"
KINDS = (POS_LINEAR, POS_NHARMONIC, POA_UNBOUNDED)

BOTH = 0b11  # two-player full user set

#: ``poa_unbounded`` probes pair values q up to 2^PROBE_DOUBLINGS * a.
PROBE_DOUBLINGS = 20


@dataclass(frozen=True)
class GadgetSpec:
    """Validated parameter bundle for one gadget build."""

    kind: str
    n: int | None = None
    eps: Fraction | None = None
    a: Fraction | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown gadget kind {self.kind!r}")
        if self.eps is not None:
            object.__setattr__(self, "eps", parse_fraction(self.eps))
        if self.a is not None:
            object.__setattr__(self, "a", parse_fraction(self.a))
        if self.kind != POA_UNBOUNDED and self.n is not None:
            check_player_count(self.n)  # before n is compared or sizes anything
        if self.kind == POS_LINEAR:
            if self.n is None or self.n < 2:
                raise ValidationError("pos_linear needs n >= 2")
            if self.eps is None or not 0 < self.eps < 1:
                raise ValidationError("pos_linear needs eps in (0,1)")
        elif self.kind == POS_NHARMONIC:
            if self.n is None or self.n < 2 or self.n % 2:
                raise ValidationError("pos_nharmonic needs even n >= 2")
            if self.eps is None or not 0 < self.eps < Fraction(1, 2):
                raise ValidationError("pos_nharmonic needs eps in (0,1/2)")
        else:
            if self.a is None or self.a < 1:
                raise ValidationError("poa_unbounded needs a >= 1")

    def expected_ratio(self, case: int | None = None):
        """The ratio the built game is certified against."""
        if self.kind == POS_LINEAR:
            return self.n - self.eps
        if self.kind == POS_NHARMONIC:
            half = self.n // 2
            return (half + 1) * harmonic(half) / (1 + self.eps)
        return Fraction(4 * self.a + 2, 4) if case == 1 else self.a


def _per_player(n: int, rate) -> SetCostFunction:
    """Anonymous cost ``rate`` per user: C(S) = rate * |S|."""
    return SetCostFunction.anonymous([rate * k for k in range(n + 1)])


def build_pos_linear(n: int, eps) -> NetworkModel:
    """Bottleneck-vs-escape network with stability ratio n - eps.

    Players 0..n-2 start at s, whose one path is the bottleneck e4, e1;
    player n-1 picks between joining them (free until it completes the
    full house, then n - eps total) and a private edge costing 1 alone.
    The good outcome needs the flexible player on the private edge, but
    the shared edge is individually cheaper once everyone else sits on it.
    """
    spec = GadgetSpec(POS_LINEAR, n=n, eps=eps)
    n, eps = spec.n, spec.eps
    threshold = SetCostFunction.anonymous([0] * n + [n - eps])
    zero = SetCostFunction.zero(n)
    edges = (
        Edge("e1", "m", "t", threshold),
        Edge("e2", "si", "t", _per_player(n, 1)),
        Edge("e3", "si", "m", zero),
        Edge("e4", "s", "m", zero),
    )
    return NetworkModel(
        vertices=("s", "si", "m", "t"),
        edges=edges,
        terminals=tuple([("s", "t")] * (n - 1) + [("si", "t")]),
    )


def build_pos_nharmonic(n: int, eps, w: WeightSystem) -> NetworkModel:
    """Spine-and-bypass network with stability ratio ((n/2+1)H_{n/2})/(1+eps).

    Half the players (picked by weight-system priority: earlier block
    first, larger weight first) traverse the whole spine; each remaining
    player j either crosses spine edge e_j or takes the shared bypass
    edge. Spine edge e_j is free until all spine players plus the detour
    player meet on it, then costs (n/2+1)/j; the bypass costs a flat
    1 + eps. Detour players are matched to spine slots by repeatedly
    peeling whoever the protocol charges most on the bypass (ties to the
    lowest player index), which is what makes the bypass unattractive in
    every equilibrium. No bypass share rises when a user joins: i in R, the
    users of the latest block present, pays (1 + eps) * a_i / A(R), the
    rest 0, so a joiner shrinks, zeroes or keeps each share.
    """
    spec = GadgetSpec(POS_NHARMONIC, n=n, eps=eps)
    n, eps = spec.n, spec.eps
    if w.n != n:
        raise ValidationError(f"weight system covers {w.n} players, gadget has {n}")
    half = n // 2
    protocol = GeneralizedWeightedShapley(w)

    order = sorted(range(n), key=lambda p: (w.block_of(p), -w.weights[p], p))
    spine_players = order[:half]
    detour_players = order[half:]

    constant = SetCostFunction.anonymous([0] + [1 + eps] * n)
    # peel largest bypass share first; last peeled lands on slot 1
    slot_of: dict[int, int] = {}
    remaining = list(detour_players)
    for slot in range(half, 0, -1):
        users = player_mask(remaining, n)
        chosen = max(remaining,
                     key=lambda b: (protocol.scaled_share(constant, users, b), -b))
        slot_of[chosen] = slot
        remaining.remove(chosen)

    zero = SetCostFunction.zero(n)
    vertices = ["sA", "tA", "bot", "top"]
    edges = [Edge("sA-u1", "sA", "u1", zero), Edge("e%d" % (half + 1), "bot", "top", constant)]
    for j in range(1, half + 1):
        vertices += [f"u{j}", f"v{j}", f"sB{j}", f"tB{j}"]
        tail = [0] * (half + 1)
        head = [Fraction(half + 1, j)] * (n - half)
        edges.append(Edge(f"e{j}", f"u{j}", f"v{j}",
                          SetCostFunction.anonymous(tail + head)))
        edges.append(Edge(f"v{j}-u{j + 1}" if j < half else f"v{j}-tA",
                          f"v{j}", f"u{j + 1}" if j < half else "tA", zero))
        edges.append(Edge(f"sB{j}-u{j}", f"sB{j}", f"u{j}", zero))
        edges.append(Edge(f"v{j}-tB{j}", f"v{j}", f"tB{j}", zero))
        edges.append(Edge(f"sB{j}-bot", f"sB{j}", "bot", zero))
        edges.append(Edge(f"top-tB{j}", "top", f"tB{j}", zero))

    terminals: list[tuple[str, str]] = [("", "")] * n
    for p in spine_players:
        terminals[p] = ("sA", "tA")
    for p, slot in slot_of.items():
        terminals[p] = (f"sB{slot}", f"tB{slot}")
    return NetworkModel(vertices=tuple(vertices), edges=tuple(edges),
                        terminals=tuple(terminals))


def _pair_cost(q) -> SetCostFunction:
    """Two-player anonymous supermodular cost: singletons 1, pair q >= 2."""
    return SetCostFunction.anonymous([0, 1, q])


def min_pair_share(protocol: Protocol, q) -> Fraction:
    """Smallest share any of the two players pays when both sit on the
    supermodular pair cost with pair value q."""
    f = _pair_cost(q)
    share = protocol.scaled_share
    return Fraction(min(share(f, BOTH, 0), share(f, BOTH, 1)), protocol.share_scale(f))


def build_poa_unbounded(a, protocol: Protocol) -> tuple[NetworkModel, int]:
    """Two-player network whose price of anarchy reaches the target ``a``.

    Probes how the protocol splits the supermodular pair cost (1, 1, q)
    over the doubling grid q in {2, 4, ..., 2^PROBE_DOUBLINGS * a}.
    If both players' shares ever reach 4a, that q yields a diamond network
    (case 1) where one player squatting on a per-player-4a direct arc and
    the other zigzagging through both supermodular edges is an equilibrium
    of cost 4a + 2 against an optimum of 4. Otherwise the minimum share
    stays bounded by some integer z over the whole grid, and a two-terminal
    network (case 2) charges the low-share player z on its direct arc while
    the pair cost is pumped to max(a(z+1), 2): sharing the supermodular
    edge is then an equilibrium of cost q against an optimum of z + 1.

    The grid is finite, so case selection is a sound-but-incomplete probe;
    ``verify_gadget`` certifies whatever game comes out.
    """
    spec = GadgetSpec(POA_UNBOUNDED, a=a)
    a = spec.a
    observed = []
    q = 2
    case1_q = None
    while q <= (1 << PROBE_DOUBLINGS) * a:
        m = min_pair_share(protocol, q)
        observed.append(m)
        if m >= 4 * a:
            case1_q = q
            break
        q *= 2

    if case1_q is not None:
        zero = SetCostFunction.zero(2)
        pair = _pair_cost(case1_q)
        edges = (
            Edge("direct", "s", "t", _per_player(2, 4 * a)),
            Edge("e1", "s", "v1", pair),
            Edge("mid", "v1", "v2", zero),
            Edge("v1-t", "v1", "t", _per_player(2, 1)),
            Edge("s-v2", "s", "v2", _per_player(2, 1)),
            Edge("e2", "v2", "t", pair),
        )
        nm = NetworkModel(vertices=("s", "v1", "v2", "t"), edges=edges,
                          terminals=(("s", "t"), ("s", "t")))
        return nm, 1

    z = max(0, max(math.ceil(m) for m in observed))
    q_emit = max(a * (z + 1), Fraction(2))
    pair = _pair_cost(q_emit)
    # the player the protocol charges less on the shared pair gets the choice
    share = protocol.scaled_share
    chooser = 0 if share(pair, BOTH, 0) <= share(pair, BOTH, 1) else 1
    terminals = [None, None]
    terminals[chooser] = ("s1", "t")
    terminals[1 - chooser] = ("s2", "t")
    edges = (
        Edge("e1", "s2", "t", pair),
        Edge("s1-s2", "s1", "s2", SetCostFunction.zero(2)),
        Edge("direct", "s1", "t", _per_player(2, z)),
    )
    nm = NetworkModel(vertices=("s1", "s2", "t"), edges=edges,
                      terminals=tuple(terminals))
    return nm, 2


@dataclass(frozen=True)
class GadgetReport:
    """Outcome of measuring a generated game against its target ratio."""

    kind: str
    expected: Fraction
    measured: object
    ok: bool
    pne: tuple
    pne_costs: tuple
    optimum: tuple
    optimum_cost: Fraction


def verify_gadget(nm: NetworkModel, expected, kind: str,
                  protocol: Protocol | None = None) -> GadgetReport:
    """Enumerate the generated game and compare the measured ratio.

    Stability kinds must match ``expected`` exactly; the anarchy kind only
    has to reach it. The protocol defaults to Shapley and must be the one
    the gadget was built for, otherwise the measurement is meaningless.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown gadget kind {kind!r}")
    expected = parse_fraction(expected)
    if protocol is None:
        protocol = ShapleyProtocol()
    report = analyze(to_game(nm), protocol)
    if kind == POA_UNBOUNDED:
        measured = report.poa
        ok = measured is not None and measured >= expected
    else:
        measured = report.pos
        ok = measured is not None and measured == expected
    return GadgetReport(kind, expected, measured, ok, report.pne,
                        report.pne_costs, report.optimum, report.optimum_cost)
