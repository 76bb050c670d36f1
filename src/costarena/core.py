"""Domain types for resource allocation games with set-dependent costs.

Players are indexed 0..n-1 and player sets are encoded as bitmasks (bit i
set means player i is a member), which keeps set algebra exact and gives a
deterministic iteration order (ascending mask value). All cost values are
``fractions.Fraction``; nothing in this package touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator

MAX_PLAYERS = 16

#: A strategy profile: one strategy index per player.
Profile = tuple[int, ...]


class ValidationError(ValueError):
    """A model, cost function, profile or input file is malformed."""


class CapExceededError(RuntimeError):
    """An enumeration exceeded its configured size cap."""


# ---------------------------------------------------------------------------
# Player-set bitmask helpers
# ---------------------------------------------------------------------------

def player_mask(players: Iterable[int]) -> int:
    """Bitmask for a collection of 0-based player indices."""
    mask = 0
    for p in players:
        mask |= 1 << p
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """Players in ``mask``, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def iter_submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask`` (including 0 and mask itself), ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def full_mask(n: int) -> int:
    return (1 << n) - 1


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------

def _check_player_count(n: int) -> None:
    if not 1 <= n <= MAX_PLAYERS:
        raise ValidationError(f"player count {n} out of range 1..{MAX_PLAYERS}")


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:  # already parsed, e.g. by the file reader
        return value
    if isinstance(value, float):
        raise ValidationError(f"float cost {value!r} rejected; use Fraction, int or 'p/q'")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational: {value!r}") from exc


class SetCostFunction:
    """Non-decreasing set function C: 2^N -> Q>=0 with C(empty) = 0.

    Stored either as an explicit table over all 2^n subsets or, for
    anonymous costs, as a vector v[0..n] with C(S) = v[|S|]. Both
    representations answer ``value(mask)`` through the same interface, and
    equality/hash are semantic: two functions are equal iff they agree on
    every subset, regardless of representation.
    """

    __slots__ = ("n", "_table", "_anon", "_hash", "_expanded", "_denominator")

    def __init__(self, n: int, table: Iterable, *, _anon=None):
        _check_player_count(n)
        self.n = n
        self._anon = _anon
        self._hash = None
        self._expanded = None
        self._denominator = None
        if _anon is not None:
            self._table = None
            self._validate_anonymous()
        else:
            self._table = tuple(_as_fraction(v) for v in table)
            if len(self._table) != 1 << n:
                raise ValidationError(
                    f"table has {len(self._table)} entries, expected {1 << n}")
            self._validate_table()

    @classmethod
    def from_table(cls, n: int, entries) -> "SetCostFunction":
        """Build from a mapping of user sets to costs.

        Keys are bitmasks or iterables of player indices; omitted sets
        default to cost 0 (rejected afterwards if that breaks monotonicity).
        """
        _check_player_count(n)  # before sizing the table by it
        table = [Fraction(0)] * (1 << n)
        for key, value in entries.items():
            mask = key if isinstance(key, int) else player_mask(key)
            if mask >> n:
                raise ValidationError(f"user set {key!r} outside 0..{n - 1}")
            table[mask] = _as_fraction(value)
        return cls(n, table)

    @classmethod
    def anonymous(cls, values) -> "SetCostFunction":
        """Cost depending only on how many players use the resource.

        ``values[k]`` is the cost for any user set of size k; needs n+1
        entries for an n-player function.
        """
        anon = tuple(_as_fraction(v) for v in values)
        if len(anon) < 2:
            raise ValidationError("anonymous cost needs at least 2 entries (n >= 1)")
        return cls(len(anon) - 1, (), _anon=anon)

    @classmethod
    def zero(cls, n: int) -> "SetCostFunction":
        """The identically-zero (free) cost function."""
        return cls.anonymous([0] * (n + 1))

    def _validate_anonymous(self):
        v = self._anon
        if v[0] != 0:
            raise ValidationError(f"cost of the empty set is {v[0]}, must be 0")
        for k in range(len(v) - 1):
            if v[k] > v[k + 1]:
                raise ValidationError(
                    f"anonymous cost decreases from size {k} to {k + 1}: {v[k]} > {v[k + 1]}")

    def _validate_table(self):
        if self._table[0] != 0:
            raise ValidationError(f"cost of the empty set is {self._table[0]}, must be 0")
        # compare integers over one denominator instead of Fractions
        scale = self.denominator
        table = [v.numerator * (scale // v.denominator) for v in self._table]
        top = full_mask(self.n)
        for mask in range(1 << self.n):
            absent = top & ~mask
            base = table[mask]
            while absent:
                bit = absent & -absent
                if base > table[mask | bit]:
                    raise ValidationError(
                        f"cost not monotone: C({mask | bit:#b}) < C({mask:#b})")
                absent ^= bit

    @property
    def anonymous_values(self):
        """The size-indexed vector if built anonymously, else None."""
        return self._anon

    @property
    def denominator(self) -> int:
        """The least L > 0 with L * C(S) an integer for every S: the lcm of
        all value denominators."""
        if self._denominator is None:
            values = self._anon if self._anon is not None else self._table
            self._denominator = lcm(*(v.denominator for v in values))
        return self._denominator

    def value(self, users: int) -> Fraction:
        if users >> self.n:
            raise ValidationError(f"user mask {users:#b} outside arity {self.n}")
        if self._anon is not None:
            return self._anon[users.bit_count()]
        return self._table[users]

    __call__ = value

    def _full_table(self) -> tuple:
        if self._table is not None:
            return self._table
        if self._expanded is None:
            anon = self._anon
            self._expanded = tuple(anon[m.bit_count()] for m in range(1 << self.n))
        return self._expanded

    def __eq__(self, other):
        if not isinstance(other, SetCostFunction):
            return NotImplemented
        if self.n != other.n:
            return False
        if self._anon is not None and other._anon is not None:
            return self._anon == other._anon
        return self._full_table() == other._full_table()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self._full_table()))
        return self._hash

    def __repr__(self):
        if self._anon is not None:
            return f"SetCostFunction.anonymous({list(self._anon)!r})"
        return f"SetCostFunction(n={self.n}, ...)"


SUBMODULAR = "submodular"
SUPERMODULAR = "supermodular"
MODULAR = "modular"
NEITHER = "neither"


def classify(f: SetCostFunction) -> str:
    """Classify marginal-cost behaviour over nested user sets.

    Checks C(X+i) - C(X) against C(Y+i) - C(Y) for every X subseteq Y and
    i outside Y: non-increasing marginals give "submodular", non-decreasing
    give "supermodular", both give "modular", neither gives "neither".
    """
    sub = sup = True
    top = full_mask(f.n)
    for y in range(1 << f.n):
        fy = f.value(y)
        outside = top & ~y
        for x in iter_submasks(y):
            fx = f.value(x)
            rest = outside
            while rest:
                bit = rest & -rest
                rest ^= bit
                mx = f.value(x | bit) - fx
                my = f.value(y | bit) - fy
                if mx < my:
                    sub = False
                elif mx > my:
                    sup = False
                if not (sub or sup):
                    return NEITHER
    if sub and sup:
        return MODULAR
    return SUBMODULAR if sub else SUPERMODULAR


def is_anonymous(f: SetCostFunction) -> bool:
    """True iff the cost depends only on the number of users."""
    if f.anonymous_values is not None:
        return True
    by_size: dict[int, Fraction] = {}
    for mask in range(1 << f.n):
        k = mask.bit_count()
        v = f.value(mask)
        if by_size.setdefault(k, v) != v:
            return False
    return True


# ---------------------------------------------------------------------------
# Game model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameModel:
    """Players, resources, per-player strategy sets, per-resource costs.

    Each strategy is a subset of the declared resources (a frozenset of
    resource ids); ``cost_fns[j]`` prices ``resources[j]`` and must have
    arity n.
    """

    n: int
    resources: tuple[str, ...]
    strategy_sets: tuple[tuple[frozenset[str], ...], ...]
    cost_fns: tuple

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "strategy_sets",
                           tuple(tuple(frozenset(s) for s in sset)
                                 for sset in self.strategy_sets))
        object.__setattr__(self, "cost_fns", tuple(self.cost_fns))
        _check_player_count(self.n)
        if len(set(self.resources)) != len(self.resources):
            raise ValidationError("duplicate resource ids")
        if len(self.cost_fns) != len(self.resources):
            raise ValidationError("one cost function per resource required")
        for rid, f in zip(self.resources, self.cost_fns):
            if f.n != self.n:
                raise ValidationError(f"cost function of {rid!r} has arity {f.n}, game has {self.n}")
        if len(self.strategy_sets) != self.n:
            raise ValidationError("one strategy set per player required")
        declared = set(self.resources)
        for i, sset in enumerate(self.strategy_sets):
            if not sset:
                raise ValidationError(f"player {i} has an empty strategy set")
            for strat in sset:
                unknown = strat - declared
                if unknown:
                    raise ValidationError(
                        f"strategy of player {i} uses undeclared resources {sorted(unknown)}")

    @cached_property
    def _r_index(self) -> dict[str, int]:
        return {rid: j for j, rid in enumerate(self.resources)}

    @cached_property
    def _strategy_ridx(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        # resource indices per (player, strategy), sorted for determinism
        idx = self._r_index
        return tuple(tuple(tuple(sorted(idx[r] for r in strat)) for strat in sset)
                     for sset in self.strategy_sets)

    def resource_index(self, r: str) -> int:
        try:
            return self._r_index[r]
        except KeyError:
            raise ValidationError(f"unknown resource id {r!r}") from None

    def strategy_counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategy_sets)

    def profile_space_size(self) -> int:
        size = 1
        for s in self.strategy_sets:
            size *= len(s)
        return size

    def validate_profile(self, profile: Profile) -> None:
        if len(profile) != self.n:
            raise ValidationError(f"profile has {len(profile)} entries, game has {self.n} players")
        for i, si in enumerate(profile):
            if not 0 <= si < len(self.strategy_sets[i]):
                raise ValidationError(f"player {i}: strategy index {si} out of range")

    def usage_masks(self, profile: Profile) -> list[int]:
        """Per resource (in declaration order), the bitmask of its users."""
        self.validate_profile(profile)
        usage = [0] * len(self.resources)
        for i, si in enumerate(profile):
            bit = 1 << i
            for r in self._strategy_ridx[i][si]:
                usage[r] |= bit
        return usage


def users_of(model: GameModel, profile: Profile, r: str) -> int:
    """Bitmask of players whose chosen strategy contains resource ``r``."""
    model.validate_profile(profile)
    j = model.resource_index(r)
    mask = 0
    for i, si in enumerate(profile):
        if j in model._strategy_ridx[i][si]:
            mask |= 1 << i
    return mask


def social_cost(model: GameModel, profile: Profile) -> Fraction:
    """Total cost over resources: sum of C^r applied to r's user set."""
    usage = model.usage_masks(profile)
    return sum((f.value(u) for f, u in zip(model.cost_fns, usage)), Fraction(0))
