"""Cost-sharing protocols: how a resource's cost is split among its users.

A protocol maps (cost function, user set, player) to the player's share.
There is no module-level share function: shares are asked of a protocol
instance, which memoizes per cost function, so reuse one instance. Non-users
pay 0, and the shares of the members of a user set sum to the full resource
cost (budget balance); ``check_budget_balance`` verifies both clauses
exhaustively.

Every protocol gives integer shares: ``scaled_share(f, S, i)`` is the
share times the positive integer ``share_scale(f)``. The equilibrium kernel
reads only these, and scales a whole game by the lcm of the share scales,
so its walk adds and compares Python ints only; ``share`` is their
``Fraction`` view on the base class (a player's payment is the kernel's:
``equilibrium.private_cost``). Shapley and GWS give ``scaled_share``
as the integer potential differences below; ``TableProtocol`` scales its
entries and its fallback's integer shares to its own scale.

The Shapley share of player i in user set S is i's marginal cost averaged
over all orderings of S. The production implementation computes it from
the Hart--Mas-Colell potential, kept as an integer at scale
D_f = share_scale(f) and memoized per cost function:

    Q(empty) = 0,   Q(S) = (D_f * C(S) + sum over i in S of Q(S - i)) / |S|

where every division is exact, and scaled_share(i, S) = Q(S) - Q(S - i).
This is ``_hmc_memo`` below with unit weights, a ``core.Memo`` per cost
function, and Q is also the protocol's ``scaled_potential``. Anonymous
costs take the closed form D_f * C(|S|) / |S|, exact because |S| divides
D_f / f.denominator = lcm(1, ..., n).

Generalized weighted Shapley shares come from the same recursion,
``_hmc_memo``, with integer weights a_j (the weights over their common
denominator; A(R) is their sum over R). For i in block B of user set S, let
R = S & B and U = the members of S in later blocks; let L = f.denominator
(so f.scaled = L * C) and W = share_scale(f) / L, the lcm of A over the
nonempty subsets of each block:

    Q_U(empty) = 0,
    A(R) * Q_U(R) = W * (f.scaled(R | U) - f.scaled(U)) + sum over j in R of a_j * Q_U(R - j)

and scaled_share(i, S) = a_i * (Q_U(R) - Q_U(R - i)). Each division
is exact: Q_U(R) is the sum over nonempty T within R of the game's integer
dividend L * d(T) times W / A(T), and A(T) divides W.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .core import (
    MAX_PLAYERS,
    Memo,
    SetCostFunction,
    ValidationError,
    check_player_count,
    full_mask,
    iter_submasks,
    mask_members,
    parse_fraction,
    player_mask,
    read_int,
    scale_lcm,
)

ZERO = Fraction(0)

#: lcm(1, ..., n) for every player count n: the Shapley share scale per unit
_UNIT_SCALES = tuple(lcm(*range(1, n + 1)) for n in range(MAX_PLAYERS + 1))


class ProtocolError(ValueError):
    """A protocol cannot price the requested (cost function, user set)."""


class Protocol:
    """Interface: ``scaled_share(f, users, i)`` and ``share_scale(f)``.

    A subclass defines both: ``scaled_share`` is the share times the
    positive integer ``share_scale(f)``, zero whenever i is not a user. An
    even split, for example, has share_scale(f) = f.denominator * lcm(1..n)
    and scaled_share(f, S, i) = f.scaled(S) * lcm(1..n) // |S| for i in S.

    ``scaled_potential(f, users)`` is the protocol's exact potential hook:
    an integer with scaled_potential(f, S) - scaled_potential(f, S - i) =
    scaled_share(f, S, i) for every i in S and 0 at the empty set. Divided
    by ``share_scale(f)`` and summed over the resources, it changes by
    exactly a deviator's cost change, so the equilibrium kernel reads it
    for potentials. It is None here: a protocol has a potential only if it
    defines one, and only Shapley does.
    """

    name = "abstract"
    scaled_potential = None

    def share(self, f: SetCostFunction, users: int, i: int) -> Fraction:
        """``scaled_share(f, users, i) / share_scale(f)``, for a player
        i in 0..f.n-1."""
        _check_arity(f, users)
        player_mask((i,), f.n)
        return Fraction(self.scaled_share(f, users, i), self.share_scale(f))

    def shares(self, f: SetCostFunction, users: int) -> tuple:
        """Every player's share as a length-n vector (zeros off ``users``)."""
        return tuple(self.share(f, users, i) for i in range(f.n))

    def share_scale(self, f: SetCostFunction) -> int:
        """A positive integer that turns every share of ``f`` into an integer."""
        raise NotImplementedError(f"protocol {self.name!r} defines no share_scale")

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        """``share(f, users, i) * share_scale(f)``, an integer."""
        raise NotImplementedError(f"protocol {self.name!r} defines no scaled_share")


def _check_arity(f: SetCostFunction, users: int) -> int:
    """``users``, a mask of ``f``'s players: an int, not a bool, in 0..2^n-1."""
    if read_int(users, "user set", None) >> f.n:
        raise ProtocolError(f"user set {users:#b} outside arity {f.n}")
    return users


# ---------------------------------------------------------------------------
# Shapley
# ---------------------------------------------------------------------------

class ShapleyProtocol(Protocol):
    """Split each resource's cost by the Shapley value of its user set.

    Shares are differences of the integer Hart--Mas-Colell potential Q
    (see the module docstring), memoized per cost function on the
    instance; cost functions hash by semantic value, so structurally
    equal functions on different resources share one memo.
    """

    name = "shapley"

    def __init__(self):
        self._potentials = Memo(lambda f: _hmc_memo(
            lambda mask, c=f.scaled, k=_UNIT_SCALES[f.n]: k * c(mask), (1,) * f.n))

    def share_scale(self, f: SetCostFunction) -> int:
        return f.denominator * _UNIT_SCALES[f.n]

    def scaled_potential(self, f: SetCostFunction, users: int) -> int:
        """Q(users): ``share_scale(f)`` times the potential of ``users``."""
        if f._anon:
            per_unit = _UNIT_SCALES[f.n]  # share_scale(f) // f.denominator
            # Q(S) = D_f * (C(1)/1 + C(2)/2 + ... + C(|S|)/|S|)
            return sum(per_unit * f.scaled((1 << k) - 1) // k
                       for k in range(1, users.bit_count() + 1))
        return self._potentials[f][users]

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        if users >> f.n:  # _check_arity, inlined: this fills every share row
            raise ProtocolError(f"user set {users:#b} outside arity {f.n}")
        if not (users >> i) & 1:
            return 0
        if f._anon:
            return _UNIT_SCALES[f.n] * f.scaled(users) // users.bit_count()
        q = self._potentials[f]
        return q[users] - q[users ^ (1 << i)]


def _hmc_memo(value, weights: tuple) -> Memo:
    """The integer weighted Hart--Mas-Colell potential Q of the game
    ``value``, as a memo over user masks: Q(0) = 0 and A(R) * Q(R) =
    value(R) + sum over j in R of a_j * Q(R - j), where a = ``weights`` and
    A(R) is their sum over R. Callers scale ``value`` so that each division
    is exact. The fill reads the memo through a weak proxy: no reference cycle."""
    def fill(users: int) -> int:
        total = value(users)
        size = 0
        rest = users
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = weights[bit.bit_length() - 1]
            total += a * q[users ^ bit]
            size += a
        return total // size

    memo = Memo(fill)
    memo[0] = 0
    q = weakref.proxy(memo)
    return memo


# ---------------------------------------------------------------------------
# Generalized weighted Shapley
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSystem:
    """Positive per-player weights plus an ordered partition of the players.

    ``blocks[0]`` has the highest priority: within any user set, the cost
    dividends of a coalition T go to the members of T drawn from the
    earliest block that T touches, in proportion to their weights.
    """

    weights: tuple
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(map(parse_fraction, self.weights)))
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        n = len(self.weights)
        check_player_count(n)  # each block's subset sums are enumerated
        if any(w <= 0 for w in self.weights):
            raise ValidationError("weights must be positive")
        seen = 0
        for block, mask in zip(self.blocks, self.block_masks()):
            if not mask:
                raise ValidationError("empty block in ordered partition")
            if mask & seen or mask.bit_count() < len(block):
                twice = next(p for p in block if block.count(p) > 1 or seen >> p & 1)
                raise ValidationError(f"player {twice} appears twice in partition")
            seen |= mask
        if seen != full_mask(n):
            raise ValidationError("ordered partition must cover every player")

    @property
    def n(self) -> int:
        return len(self.weights)

    @classmethod
    def plain(cls, n: int) -> "WeightSystem":
        """Unit weights, single block: reduces to the Shapley value."""
        check_player_count(n)  # before sizing the weights by it
        return cls((Fraction(1),) * n, (tuple(range(n)),))

    def block_masks(self) -> tuple[int, ...]:
        return tuple(player_mask(b, self.n) for b in self.blocks)

    def block_of(self, i: int) -> int:
        for k, block in enumerate(self.blocks):
            if i in block:
                return k
        raise ValidationError(f"player {i} not in any block")


class GeneralizedWeightedShapley(Protocol):
    """Weighted Shapley value driven by a weight system.

    The cost dividends that reach i in block B are those of the coalitions
    T containing i that touch no earlier block. Summed over T's part in
    later blocks, they are the dividends of the game R -> C(R | U) - C(U)
    on B, where U is the users in later blocks, so i's share is that
    game's weighted Shapley value (Kalai--Samet): a difference of its
    weighted potential Q_U (module docstring), memoized per (cost
    function, U) on the instance. One block with unit weights is Shapley.
    """

    name = "gws"

    def __init__(self, system: WeightSystem):
        self._system = system
        common = scale_lcm({w.denominator for w in system.weights},
                           "common denominator of the weights")
        self._weights = a = tuple(w.numerator * (common // w.denominator)
                                  for w in system.weights)
        sums = set()
        for block in system.blocks:
            subset = [0]  # A(B) for every B within the block, one player at a time
            for j in block:
                subset += [x + a[j] for x in subset]
            sums.update(subset[1:])
        self._weight_scale = scale = scale_lcm(sums, "weight scale")
        masks = system.block_masks()
        # player -> (its block's mask, the union of the later, disjoint blocks)
        self._masks = {j: (own, sum(masks[k + 1:]))
                       for k, own in enumerate(masks) for j in system.blocks[k]}

        def potential(key: tuple) -> Memo:  # holds no self: no reference cycle
            f, later = key  # Q_U of the game R -> C(R | U) - C(U), times W * L
            base = f.scaled(later)
            return _hmc_memo(lambda mask: scale * (f.scaled(mask | later) - base), a)

        self._potentials = Memo(potential)  # (f, U) -> Q_U

    @property
    def system(self) -> WeightSystem:
        """The weight system, read-only: the weights and masks above are its."""
        return self._system

    def share_scale(self, f: SetCostFunction) -> int:
        return f.denominator * self._weight_scale

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        _check_arity(f, users)
        if len(self._weights) != f.n:
            raise ProtocolError(
                f"weight system covers {len(self._weights)} players, cost function {f.n}")
        if not (users >> i) & 1:
            return 0
        own, after = self._masks[i]
        q = self._potentials[f, users & after]
        mine = users & own
        return self._weights[i] * (q[mine] - q[mine ^ (1 << i)])


# ---------------------------------------------------------------------------
# Explicit share tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableProtocol(Protocol):
    """Shares looked up from explicit (cost function, user set) entries.

    Missing entries defer to ``fallback`` (default Shapley), so a table
    only needs to pin down the user sets it cares about. ``set_entry``
    validates budget balance unless told not to; unvalidated entries may
    deliberately break it (or pay absent players) to model defective
    protocols in negative tests; the constructor copies its entries in as
    unvalidated ones. Pricing and ``share_scale`` read one store, of which
    ``entries`` and each entry's shares are read-only views, so only
    ``set_entry`` adds an entry, and it drops that function's kept share
    scale. A scaled share is an entry's value or the fallback's scaled
    share, times the ratio of the scales. A cost function whose arity is
    not ``players`` (when set, as a file sets it) raises. The fields are
    read-only once validated.
    """

    name = "table"
    entries: Mapping = field(default_factory=dict)
    fallback: Protocol | None = field(default_factory=ShapleyProtocol)
    players: int | None = None

    def __post_init__(self):
        if self.players is not None:
            check_player_count(self.players)
        given = self.entries
        entries, fallback = {}, self.fallback  # entries: (f, users) -> shares, the one store

        def scale(f: SetCostFunction) -> int:  # holds no self: no reference cycle
            scales = {v.denominator for users in range(1 << f.n)
                      for v in entries.get((f, users), {}).values()}
            if fallback is not None:
                scales.add(fallback.share_scale(f))
            return scale_lcm(scales, "common denominator of the share table")

        object.__setattr__(self, "_scales", Memo(scale))  # set past the frozen fields
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "entries", MappingProxyType(entries))
        for (f, users), shares in given.items():
            self.set_entry(f, users, shares, validate=False)

    def set_entry(self, f: SetCostFunction, users: int, shares: dict[int, Fraction],
                  *, validate: bool = True) -> None:
        shares = {i: parse_fraction(v) for i, v in shares.items()}
        members = player_mask(list(shares), f.n)
        if validate:
            if members != users:
                raise ValidationError(
                    f"share entry keys {sorted(shares)} do not match user set {users:#b}")
            if sum(shares.values(), ZERO) != f.value(users):
                raise ValidationError(
                    f"shares for {users:#b} sum to {sum(shares.values())}, "
                    f"cost is {f.value(users)}")
        self._entries[(f, users)] = MappingProxyType(shares)
        self._scales.pop(f, None)  # share_scale(f) reads f's entries

    def share_scale(self, f: SetCostFunction) -> int:
        """The lcm of the denominators in ``f``'s own entries and of the
        fallback's scale; entries for other cost functions do not count, and
        only ``f``'s 2^n keys are looked up."""
        return self._scales[f]

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        _check_arity(f, users)
        if self.players is not None and f.n != self.players:
            raise ProtocolError(
                f"share table covers {self.players} players, cost function {f.n}")
        entry = self._entries.get((f, users))
        if entry is not None:
            value = entry.get(i, ZERO)
            return value.numerator * (self.share_scale(f) // value.denominator)
        if not (users >> i) & 1:
            return 0
        if (fallback := self.fallback) is None:
            raise ProtocolError(f"no share entry for user set {users:#b}")
        factor = self.share_scale(f) // fallback.share_scale(f)
        return fallback.scaled_share(f, users, i) * factor


# ---------------------------------------------------------------------------
# Protocol-level checks
# ---------------------------------------------------------------------------

def check_budget_balance(protocol: Protocol, f: SetCostFunction) -> bool:
    """True iff for every user set S the members' shares sum to C(S) and
    every non-member pays exactly 0."""
    for users in range(1 << f.n):
        vec = protocol.shares(f, users)
        if sum(vec, ZERO) != f.value(users):
            return False
        for i in range(f.n):
            if not (users >> i) & 1 and vec[i] != 0:
                return False
    return True


def find_share_monotonicity_violation(protocol: Protocol, f: SetCostFunction,
                                      within: int | None = None):
    """Search for i in S subset of S' with share(i, S) < share(i, S').

    ``within`` restricts both sets to subsets of the given mask. Returns
    (i, smaller set, larger set) for the first violation, or None. Shapley
    and every generalized weighted Shapley protocol find none on a constant
    cost function.
    """
    scope = full_mask(f.n) if within is None else _check_arity(f, within)
    share = protocol.scaled_share  # one cost function, so one scale
    for users in iter_submasks(scope):
        if users == 0:
            continue
        for extra in iter_submasks(scope & ~users):
            if extra == 0:
                continue
            bigger = users | extra
            for i in mask_members(users):
                if share(f, users, i) < share(f, bigger, i):
                    return (i, users, bigger)
    return None

