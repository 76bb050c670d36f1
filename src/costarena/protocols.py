"""Cost-sharing protocols: how a resource's cost is split among its users.

A protocol maps (cost function, user set, player) to the player's share.
It reads the user set by ``core.read_mask`` and the player as
``core.player_mask`` does; ``ProtocolError`` means only that it cannot
price a well-formed input. Shares are asked of an instance, which
memoizes per cost function, so reuse one. Non-users pay 0, and the
members' shares of a user set sum to its cost (budget balance);
``check_budget_balance`` verifies both clauses exhaustively.

Every protocol gives integer shares: ``scaled_share(f, S, i)`` is the
share times the positive integer ``share_scale(f)``. The equilibrium kernel
reads these, or a Shapley potential (below), and scales a whole game by the
lcm of the share scales, so its walk adds and compares Python ints only;
``share`` is their ``Fraction`` view on the base class (a player's payment
is the kernel's: ``equilibrium.private_cost``). Shapley and GWS give
``scaled_share`` as the integer potential differences below;
``TableProtocol`` scales its entries and its fallback's integer shares to
its own scale.

Shapley and generalized weighted Shapley (GWS) shares are differences of
one integer potential (Hart & Mas-Colell 1989; Kalai & Samet 1987). GWS
gives player j an integer weight a_j (the weights over their common
denominator; A(R) is their sum over R) in a block of an ordered partition.
For the block B with later blocks L, let R = S & B and W = share_scale(f)
/ f.denominator, the lcm of A over the nonempty subsets of each block. B's
potential P over user sets S within B | L is P(S) = 0 when R is empty, else

    A(R) * P(S) = W * (f.scaled(S) - f.scaled(S & L)) + sum over j in R of a_j * P(S - j)

and scaled_share(f, S, i) = a_i * (P(S') - P(S' - i)) for i in B, where
S' = S & (B | L). Each division is exact: P(S) is the sum over T within S
that meet B of f.denominator * d(T) * W / A(T & B), where d is the cost's
dividend, and A(T & B) divides W. ``_potential`` fills P lazily, a
``core.Memo`` of the masks read and the subsets they recurse into;
``_potential_row`` fills every mask in one ascending pass.

Shapley is one block of unit weights: W = lcm(1, ..., n), A(R) = |R|, and
P is its ``scaled_potential`` Q. It keeps one store of Q per cost function:
for an anonymous cost a list by user count, the running sum Q(k) = Q(k -
1) + W * f.scaled(k users) / k, exact as k divides W; for a table the memo,
until ``scaled_potentials(f)`` replaces it with the whole row, which the
equilibrium kernel reads for a walk over at least 2^n profiles; any other
kernel reads the store as it is (``scaled_potentials(f, whole=False)``).
GWS keeps one memo per (cost function, block). A protocol has one
potential or none: ``_prices_by_potential`` decides which.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
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
    members_by_mask,
    parse_fraction,
    player_mask,
    read_items,
    read_mask,
    scale_lcm,
)

ZERO = Fraction(0)

#: lcm(1, ..., n) for every player count n: the Shapley share scale per unit
_UNIT_SCALES = tuple(lcm(*range(1, n + 1)) for n in range(MAX_PLAYERS + 1))


class ProtocolError(ValueError):
    """A protocol cannot price a well-formed input: a cost function of another
    arity, or a user set with no share entry and no fallback."""


class Protocol:
    """Interface: ``scaled_share(f, users, i)`` and ``share_scale(f)``.

    A subclass defines both: ``scaled_share`` is the share times the
    positive integer ``share_scale(f)``, zero whenever i is not a user. An
    even split, for example, has share_scale(f) = f.denominator * lcm(1..n)
    and scaled_share(f, S, i) = f.scaled(S) * lcm(1..n) // |S| for i in S.

    The equilibrium kernel prices a custom protocol by ``scaled_share``
    and reports no potential for it (``_prices_by_potential``).
    """

    name = "abstract"

    def share(self, f: SetCostFunction, users: int, i: int) -> Fraction:
        """``scaled_share(f, users, i) / share_scale(f)``, for a player
        i in 0..f.n-1."""
        users, i = read_mask(users, f.n), _player(i, f.n)
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


def _player(i, n: int) -> int:
    """``i``, read by ``player_mask`` unless it is an int in 0..n-1."""
    if type(i) is not int or not 0 <= i < n:
        player_mask((i,), n)
    return i


# ---------------------------------------------------------------------------
# Shapley
# ---------------------------------------------------------------------------

class ShapleyProtocol(Protocol):
    """Split each resource's cost by the Shapley value of its user set.

    Shares are differences of the integer Hart--Mas-Colell potential Q, one
    block of unit weights in the module docstring, kept per cost function on
    the instance in one store; cost functions hash by semantic value, so
    structurally equal functions on different resources share one store. A
    subclass keeps Q as its potential only while ``_prices_by_potential`` holds.
    """

    name = "shapley"

    def __init__(self):
        # Q per cost function: by user count for an anonymous cost, by mask
        # for a table, so an anonymous cost and an equal table get one each
        self._by_count = Memo(_running_potential)
        self._by_mask = Memo(lambda f: _potential(
            lambda users, t=f.scaled_table(), k=_UNIT_SCALES[f.n]: k * t[users],
            (1,) * f.n, full_mask(f.n)))

    def share_scale(self, f: SetCostFunction) -> int:
        return f.denominator * _UNIT_SCALES[f.n]

    def scaled_potential(self, f: SetCostFunction, users: int) -> int:
        """Q(users): ``share_scale(f)`` times the potential of ``users``."""
        read_mask(users, f.n)
        if f._anon:
            return self._by_count[f][users.bit_count()]
        return self._by_mask[f][users]

    def scaled_potentials(self, f: SetCostFunction, whole: bool = True) -> list | Memo:
        """Q of every user set of ``f``, the instance's own store, indexed as
        ``f`` keeps its own values (``scaled_counts``, ``scaled_table``): by
        user count for an anonymous cost, else by mask. With ``whole``, a
        table's 2^n entries are filled by ``_potential_row`` on the first
        call and kept in place of its memo; without, the store is returned
        as it is, and no read of it checks its mask."""
        if f._anon:
            return self._by_count[f]
        if not whole:
            return self._by_mask[f]
        q = self._by_mask.get(f)
        if type(q) is not list:
            q = self._by_mask[f] = _potential_row(list(map(
                _UNIT_SCALES[f.n].__mul__, f.scaled_table())), (1,) * f.n, full_mask(f.n))
        return q

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        """Q(users) - Q(users - i), read through ``scaled_potential``."""
        if not (read_mask(users, f.n) >> _player(i, f.n)) & 1:
            return 0
        q = self.scaled_potential
        return q(f, users) - q(f, users ^ (1 << i))


def _prices_by_potential(protocol: Protocol) -> bool:
    """Whether ``protocol`` has a potential: whether its shares are, by
    construction, the differences of ``scaled_potential``, so that the
    equilibrium kernel prices them by it and reports it. Only a
    ``ShapleyProtocol`` whose class keeps the package's ``scaled_share``,
    ``scaled_potential`` and ``scaled_potentials`` does; a ``share_scale``
    override rescales shares and potential alike. Any other protocol is
    priced by its shares and has no potential."""
    kind, own = type(protocol), ShapleyProtocol
    return (isinstance(protocol, own) and kind.scaled_share is own.scaled_share
            and kind.scaled_potential is own.scaled_potential
            and kind.scaled_potentials is own.scaled_potentials)


def _running_potential(f: SetCostFunction) -> list:
    """Q of an anonymous cost by user count: the running sum of D_f * C(k) / k."""
    unit = _UNIT_SCALES[f.n]  # share_scale(f) // f.denominator
    return list(accumulate((unit * c // k for k, c in enumerate(f.scaled_counts()[1:], 1)),
                           initial=0))


def _potential(value, weights: tuple, own: int) -> Memo:
    """P of the block ``own`` under ``weights`` as a memo over user masks
    (module docstring), where value(S) = W * (f.scaled(S) - f.scaled(S & L)).
    The fill reads the memo through a weak proxy: no reference cycle."""
    def fill(users: int) -> int:
        rest = users & own
        if not rest:
            return 0
        total, size = value(users), 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = weights[bit.bit_length() - 1]
            total += a * q[users ^ bit]
            size += a
        return total // size

    memo = Memo(fill)
    q = weakref.proxy(memo)
    return memo


def _potential_row(values: list, weights: tuple, own: int) -> list:
    """``_potential``'s P at every mask S, for ``values[S]`` = value(S),
    filled in groups by S's highest bit h: A(S & own) and h's term are read
    from S - h, and the other members from ``core.members_by_mask``."""
    members = members_by_mask(len(weights))
    q, sizes = [0] * len(values), [0] * len(values)  # P(S), A(S & own)
    for top in range(len(weights)):
        high, a = 1 << top, weights[top] * (own >> top & 1)  # a_h if h is in the block
        for low in range(high):
            users = high | low
            size = sizes[users] = sizes[low] + a
            if size:
                total = values[users] + a * q[low]
                for j in members[low & own]:
                    total += weights[j] * q[users ^ (1 << j)]
                q[users] = total // size
    return q


# ---------------------------------------------------------------------------
# Generalized weighted Shapley
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSystem:
    """Positive per-player weights plus an ordered partition of the players.

    ``blocks[0]`` has the highest priority: within any user set, the cost
    dividends of a coalition T go to the members of T drawn from the
    earliest block that T touches, in proportion to their weights. Each
    block is read as written by ``player_mask``, then stored as a tuple.
    """

    weights: tuple
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           tuple(map(parse_fraction, read_items(self.weights, "weights"))))
        n = len(self.weights)
        check_player_count(n)  # each block's subset sums are enumerated
        masks = [player_mask(b, n) for b in read_items(self.blocks, "blocks")]
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))
        if any(w <= 0 for w in self.weights):
            raise ValidationError("weights must be positive")
        seen = 0
        for block, mask in zip(self.blocks, masks):
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
        """The index of player i's block; ``player_mask`` reads ``i``."""
        player_mask((i,), self.n)
        return next(k for k, block in enumerate(self.blocks) if i in block)


class GeneralizedWeightedShapley(Protocol):
    """Weighted Shapley value driven by a weight system.

    The cost dividends that reach i in block B are those of the coalitions
    T containing i that touch no earlier block. Summed over T's part in
    later blocks, they are the dividends of the game R -> C(R | U) - C(U)
    on B, where U is the users in later blocks, so i's share is that
    game's weighted Shapley value (Kalai--Samet): a difference of B's
    potential P (module docstring), memoized per (cost function, block)
    on the instance. One block with unit weights is Shapley.
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
        # each block's mask and the union of the later, disjoint blocks
        blocks = [(own, sum(masks[k + 1:])) for k, own in enumerate(masks)]
        # player -> (its block's index, the block's mask with the later ones)
        self._blocks = {j: (k, own | later) for k, (own, later) in enumerate(blocks)
                        for j in system.blocks[k]}

        def potentials(f: SetCostFunction) -> list:  # holds no self: no reference cycle
            return [_potential(lambda users, later=later: scale * (
                f.scaled(users) - f.scaled(users & later)), a, own) for own, later in blocks]

        self._potentials = Memo(potentials)  # f -> P of each block

    @property
    def system(self) -> WeightSystem:
        """The weight system, read-only: the weights and masks above are its."""
        return self._system

    def share_scale(self, f: SetCostFunction) -> int:
        return f.denominator * self._weight_scale

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        member = (read_mask(users, f.n) >> _player(i, f.n)) & 1
        if len(self._weights) != f.n:
            raise ProtocolError(
                f"weight system covers {len(self._weights)} players, cost function {f.n}")
        if not member:
            return 0
        k, scope = self._blocks[i]
        q = self._potentials[f][k]
        users &= scope
        return self._weights[i] * (q[users] - q[users ^ (1 << i)])


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
    not ``players`` (when set, as a file sets it) raises. Every entry's user
    set is read as a mask of its cost function's players, validated or
    not, and each key must be a (cost function, user set) pair. The fields
    are read-only once validated.
    """

    name = "table"
    entries: Mapping = field(default_factory=dict)
    fallback: Protocol | None = field(default_factory=ShapleyProtocol)
    players: int | None = None

    def __post_init__(self):
        if self.players is not None:
            check_player_count(self.players)
        if not isinstance(given := self.entries, Mapping):
            raise ValidationError(f"share entries {given!r} is not a mapping")
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
        for key, shares in given.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValidationError(
                    f"share entry key {key!r} is not a (cost function, user set) pair")
            self.set_entry(*key, shares, validate=False)

    def set_entry(self, f: SetCostFunction, users: int, shares: dict[int, Fraction],
                  *, validate: bool = True) -> None:
        if not isinstance(f, SetCostFunction):
            raise ValidationError(
                f"share entry key {(f, users)!r} is not a (cost function, user set) pair")
        read_mask(users, f.n)
        if not isinstance(shares, Mapping):
            raise ValidationError(f"shares {shares!r} is not a mapping")
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
        member = (read_mask(users, f.n) >> _player(i, f.n)) & 1
        if self.players is not None and f.n != self.players:
            raise ProtocolError(
                f"share table covers {self.players} players, cost function {f.n}")
        entry = self._entries.get((f, users))
        if entry is not None:
            value = entry.get(i, ZERO)
            return value.numerator * (self.share_scale(f) // value.denominator)
        if not member:
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
        if sum(vec, ZERO) != f.value(users) or any(vec[i] for i in range(f.n) if ~users >> i & 1):
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
    scope = full_mask(f.n) if within is None else read_mask(within, f.n)
    share = protocol.scaled_share  # one cost function, so one scale
    for users in iter_submasks(scope):  # an empty set or extra finds none
        for extra in iter_submasks(scope & ~users):
            bigger = users | extra
            for i in mask_members(users):
                if share(f, users, i) < share(f, bigger, i):
                    return (i, users, bigger)
    return None

