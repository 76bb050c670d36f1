"""Cost-sharing protocols: how a resource's cost is split among its users.

A protocol maps (cost function, user set, player) to the player's share.
There is no module-level share function: shares are asked of a protocol
instance, which memoizes per cost function, so reuse one instance. Non-users
pay 0, and the shares of the members of a user set sum to the full resource
cost (budget balance); ``check_budget_balance`` verifies both clauses
exhaustively.

Every protocol also names a share scale, ``share_scale(f)``: a positive
integer with ``share_scale(f) * share(f, S, i)`` an integer for every S
and i. That integer is ``scaled_share(f, S, i)``, which the equilibrium
kernel reads: it scales a whole game by the lcm of the share scales, so
its walk adds and compares Python ints only. A subclass defines ``share``
only; the base class derives ``scaled_share`` from it and raises
ProtocolError when ``share_scale(f)`` does not clear the share's
denominator. Shapley and GWS override ``scaled_share`` with the integer
potential differences below and build their ``Fraction`` shares from it;
``TableProtocol`` keeps the derivation.

The Shapley share of player i in user set S is i's marginal cost averaged
over all orderings of S. The production implementation computes it from
the Hart--Mas-Colell potential, kept as an integer at scale
D_f = share_scale(f) and memoized per cost function:

    Q(empty) = 0,   Q(S) = (D_f * C(S) + sum over i in S of Q(S - i)) / |S|

where every division is exact, and scaled_share(i, S) = Q(S) - Q(S - i).
This is ``_hmc_potential`` below with unit weights, and Q is also the
protocol's ``scaled_potential``. Anonymous costs take
the closed form D_f * C(|S|) / |S|, exact because |S| divides
D_f / f.denominator = lcm(1, ..., n).

Generalized weighted Shapley shares come from the same recursion,
``_hmc_potential``, with integer weights a_j (the weights over their common
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

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .core import (
    MAX_PLAYERS,
    SetCostFunction,
    ValidationError,
    _as_fraction,
    check_player_count,
    full_mask,
    iter_submasks,
    mask_members,
    player_mask,
    scale_lcm,
)

ZERO = Fraction(0)

#: lcm(1, ..., n) for every player count n: the Shapley share scale per unit
_UNIT_SCALES = tuple(lcm(*range(1, n + 1)) for n in range(MAX_PLAYERS + 1))


class ProtocolError(ValueError):
    """A protocol cannot price the requested (cost function, user set)."""


class Protocol:
    """Interface: ``share(f, users, i)``, zero whenever i is not a user.

    A subclass defines ``share`` and may give ``share_scale`` and
    ``scaled_share`` closed forms; the defaults derive both from ``share``.

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
        raise NotImplementedError

    def shares(self, f: SetCostFunction, users: int) -> tuple:
        """Every player's share as a length-n vector (zeros off ``users``)."""
        return tuple(self.share(f, users, i) for i in range(f.n))

    def share_scale(self, f: SetCostFunction) -> int:
        """A positive integer that turns every share of ``f`` into an
        integer. This default is exact for any protocol, at the price of
        evaluating every share once; subclasses give closed forms."""
        return scale_lcm({self.share(f, users, i).denominator
                          for users in range(1 << f.n) for i in range(f.n)},
                         f"common denominator of the {self.name!r} shares")

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        """``share(f, users, i) * share_scale(f)``, an integer. A share
        that ``share_scale(f)`` does not clear means that scale is wrong.
        ``share_scale(f)`` is asked for once per cost function and kept on
        the instance (``TableProtocol.set_entry`` drops it)."""
        value = self.share(f, users, i)
        known = vars(self).setdefault("_share_scales", {})
        scale = known.get(f)
        if scale is None:
            scale = known[f] = self.share_scale(f)
        factor, rest = divmod(scale, value.denominator)
        if rest:
            raise ProtocolError(f"protocol {self.name!r} gave share {value}, which is "
                                f"not a multiple of 1/{scale}: its share_scale is wrong")
        return value.numerator * factor


def _check_arity(f: SetCostFunction, users: int) -> None:
    if users >> f.n:
        raise ProtocolError(f"user set {users:#b} outside arity {f.n}")


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
        self._potentials: dict = {}

    def share_scale(self, f: SetCostFunction) -> int:
        return f.denominator * _UNIT_SCALES[f.n]

    def scaled_potential(self, f: SetCostFunction, users: int) -> int:
        """Q(users): ``share_scale(f)`` times the potential of ``users``."""
        per_unit = _UNIT_SCALES[f.n]  # share_scale(f) // f.denominator
        if f._anon:
            # Q(S) = D_f * (C(1)/1 + C(2)/2 + ... + C(|S|)/|S|)
            return sum(per_unit * f.scaled((1 << k) - 1) // k
                       for k in range(1, users.bit_count() + 1))
        return _hmc_potential(lambda mask: per_unit * f.scaled(mask), (1,) * f.n,
                              users, self._potentials.setdefault(f, {0: 0}))

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        _check_arity(f, users)
        if not (users >> i) & 1:
            return 0
        if f._anon:
            return _UNIT_SCALES[f.n] * f.scaled(users) // users.bit_count()
        return self.scaled_potential(f, users) - self.scaled_potential(f, users ^ (1 << i))

    def share(self, f: SetCostFunction, users: int, i: int) -> Fraction:
        return Fraction(self.scaled_share(f, users, i), self.share_scale(f))


def _hmc_potential(value, weights: tuple, users: int, memo: dict) -> int:
    """The integer weighted Hart--Mas-Colell potential Q of the game
    ``value`` at ``users``: A(R) * Q(R) = value(R) + sum over j in R of
    a_j * Q(R - j), where a = ``weights`` and A(R) is their sum over R.
    ``memo`` holds Q(0) = 0 and every Q computed so far for this game;
    callers scale ``value`` so that each division is exact."""
    q = memo.get(users)
    if q is None:
        total = value(users)
        size = 0
        rest = users
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = weights[bit.bit_length() - 1]
            total += a * _hmc_potential(value, weights, users ^ bit, memo)
            size += a
        q = memo[users] = total // size
    return q


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
        object.__setattr__(self, "weights",
                           tuple(_as_fraction(w, "weight") for w in self.weights))
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        n = len(self.weights)
        check_player_count(n)  # each block's subset sums are enumerated
        if any(w <= 0 for w in self.weights):
            raise ValidationError("weights must be positive")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValidationError("empty block in ordered partition")
            for p in block:
                if not 0 <= p < n:
                    raise ValidationError(f"player {p} out of range in partition")
                if p in seen:
                    raise ValidationError(f"player {p} appears twice in partition")
                seen.add(p)
        if len(seen) != n:
            raise ValidationError("ordered partition must cover every player")

    @property
    def n(self) -> int:
        return len(self.weights)

    @classmethod
    def plain(cls, n: int) -> "WeightSystem":
        """Unit weights, single block: reduces to the Shapley value."""
        return cls((Fraction(1),) * n, (tuple(range(n)),))

    def block_masks(self) -> tuple[int, ...]:
        return tuple(player_mask(b) for b in self.blocks)

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
        self.system = system
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
        self._weight_scale = scale_lcm(sums, "weight scale")
        masks = system.block_masks()
        # player -> (its block's mask, the union of the later, disjoint blocks)
        self._masks = {j: (own, sum(masks[k + 1:]))
                       for k, own in enumerate(masks) for j in system.blocks[k]}
        self._potentials: dict = {}

    def share_scale(self, f: SetCostFunction) -> int:
        return f.denominator * self._weight_scale

    def scaled_share(self, f: SetCostFunction, users: int, i: int) -> int:
        _check_arity(f, users)
        if len(self.system.weights) != f.n:
            raise ProtocolError(
                f"weight system covers {self.system.n} players, cost function {f.n}")
        if not (users >> i) & 1:
            return 0
        own, after = self._masks[i]
        later = users & after
        memo = self._potentials.setdefault((f, later), {0: 0})
        scale, base = self._weight_scale, f.scaled(later)

        def value(mask: int) -> int:  # the game R -> C(R | U) - C(U), times W * L
            return scale * (f.scaled(mask | later) - base)

        mine = users & own
        q = (_hmc_potential(value, self._weights, mine, memo)
             - _hmc_potential(value, self._weights, mine ^ (1 << i), memo))
        return self._weights[i] * q

    def share(self, f: SetCostFunction, users: int, i: int) -> Fraction:
        return Fraction(self.scaled_share(f, users, i), self.share_scale(f))


# ---------------------------------------------------------------------------
# Explicit share tables
# ---------------------------------------------------------------------------

@dataclass
class TableProtocol(Protocol):
    """Shares looked up from explicit (cost function, user set) entries.

    Missing entries defer to ``fallback`` (default Shapley), so a table
    only needs to pin down the user sets it cares about. ``set_entry``
    validates budget balance unless told not to; unvalidated entries may
    deliberately break it (or pay absent players) to model defective
    protocols in negative tests. Add entries through ``set_entry``: it
    also drops the share scales that ``scaled_share`` keeps.
    """

    name = "table"
    entries: dict = field(default_factory=dict)
    fallback: Protocol | None = field(default_factory=ShapleyProtocol)

    def set_entry(self, f: SetCostFunction, users: int, shares: dict[int, Fraction],
                  *, validate: bool = True) -> None:
        shares = {i: _as_fraction(v, "share") for i, v in shares.items()}
        if validate:
            if player_mask(shares) != users:
                raise ValidationError(
                    f"share entry keys {sorted(shares)} do not match user set {users:#b}")
            if sum(shares.values(), ZERO) != f.value(users):
                raise ValidationError(
                    f"shares for {users:#b} sum to {sum(shares.values())}, "
                    f"cost is {f.value(users)}")
        self.entries[(f, users)] = shares
        vars(self).pop("_share_scales", None)  # the memo of scaled_share

    def share_scale(self, f: SetCostFunction) -> int:
        scales = {v.denominator for entry in self.entries.values()
                  for v in entry.values()}
        if self.fallback is not None:
            scales.add(self.fallback.share_scale(f))
        return scale_lcm(scales, "common denominator of the share table")

    def share(self, f: SetCostFunction, users: int, i: int) -> Fraction:
        _check_arity(f, users)
        entry = self.entries.get((f, users))
        if entry is not None:
            return entry.get(i, ZERO)
        if not (users >> i) & 1:
            return ZERO
        if self.fallback is None:
            raise ProtocolError(f"no share entry for user set {users:#b}")
        return self.fallback.share(f, users, i)


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
    (i, smaller set, larger set) for the first violation, or None. For
    constant cost functions every budget-balanced uniform protocol
    satisfies this; assembled constructions that lean on it assert it
    here instead of assuming it.
    """
    scope = full_mask(f.n) if within is None else within
    for users in iter_submasks(scope):
        if users == 0:
            continue
        for extra in iter_submasks(scope & ~users):
            if extra == 0:
                continue
            bigger = users | extra
            for i in mask_members(users):
                if protocol.share(f, users, i) < protocol.share(f, bigger, i):
                    return (i, users, bigger)
    return None


def private_cost(model, protocol: Protocol, profile, i: int) -> Fraction:
    """Player i's total payment: the sum of i's shares over the resources
    in i's chosen strategy."""
    usage = model.usage_masks(profile)
    bit = 1 << i
    total = ZERO
    for f, users in zip(model.cost_fns, usage):
        if users & bit:
            total += protocol.share(f, users, i)
    return total


def private_costs(model, protocol: Protocol, profile) -> tuple:
    """All players' payments; sums to the social cost for budget-balanced
    protocols."""
    return tuple(private_cost(model, protocol, profile, i) for i in range(model.n))
