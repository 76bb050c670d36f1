"""Domain types for resource allocation games with set-dependent costs.

Players are indexed 0..n-1 and player sets are encoded as bitmasks (bit i
set means player i is a member), which keeps set algebra exact and gives a
deterministic iteration order (ascending mask value). A cost function is
stored in integers, as numerators over one canonical denominator, and
shows its values as ``fractions.Fraction`` only at the API; nothing in
this package touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import gt
from typing import Iterable, Iterator

MAX_PLAYERS = 16

#: Most bits that a common denominator may have: a cost function's L, a
#: weight system's weight scale W and a game's scale D. Each grows as the lcm
#: of the denominators in its input, so a small file can ask for numbers of
#: hundreds of thousands of bits; every recorded output needs under 50.
MAX_SCALE_BITS = 4096

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

def check_player_count(n: int) -> None:
    if not 1 <= n <= MAX_PLAYERS:
        raise ValidationError(f"player count {n} out of range 1..{MAX_PLAYERS}")


def scale_lcm(values: Iterable[int], what: str) -> int:
    """The lcm of ``values``, grown one value at a time; raises
    ValidationError as soon as it passes ``MAX_SCALE_BITS`` bits."""
    out = 1
    for v in values:
        out = lcm(out, v)
        if out.bit_length() > MAX_SCALE_BITS:
            raise ValidationError(f"{what} has more than {MAX_SCALE_BITS} bits")
    return out


def _as_fraction(value, what: str = "cost") -> Fraction:
    if type(value) is Fraction:  # kept as given
        return value
    if isinstance(value, float):
        raise ValidationError(f"float {what} {value!r} rejected; use Fraction, int or 'p/q'")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational: {value!r}") from exc


def _monotone(table: tuple, n: int) -> bool:
    """True iff ``table[mask] <= table[mask | bit]`` for every mask and bit.
    Per bit, compares the slices of masks without and with it: strided
    through the whole table for a low bit, block by block for a high one,
    so that each of the about 2 * 2^(n/2) passes runs in C."""
    size = 1 << n
    for b in range(n):
        half = 1 << b
        step = half << 1
        if half * half <= size // 2:
            pairs = ((table[o::step], table[o + half::step]) for o in range(half))
        else:
            pairs = ((table[s:s + half], table[s + half:s + step])
                     for s in range(0, size, step))
        if any(any(map(gt, low, high)) for low, high in pairs):
            return False
    return True


class SetCostFunction:
    """Non-decreasing set function C: 2^N -> Q>=0 with C(empty) = 0.

    Stored in integers: one canonical denominator L (``denominator``, the
    lcm of the reduced denominators of all values) and the numerators
    L * C(S), either over all 2^n subsets (a table) or, for anonymous
    costs, as a vector over sizes 0..n with C(S) = v[|S|]. ``scaled(mask)``
    reads a numerator; ``value(mask)`` and ``anonymous_values`` are
    ``Fraction`` views built on first use (or the ``Fraction`` objects the
    caller passed, kept as given). Validation, equality and hashing run on
    the integers, and are semantic: two functions are equal iff they agree
    on every subset, regardless of representation.
    """

    __slots__ = ("n", "denominator", "_scaled", "_anon", "_views", "_expanded", "_hash")

    def __init__(self, n: int, values: Iterable, *, anonymous: bool = False,
                 denominator: int | None = None):
        """``values`` are the 2^n table entries, or the n+1 size-indexed
        entries when ``anonymous``: rationals (``Fraction``, int or
        string), or, when ``denominator`` is given, integer numerators
        over it."""
        if denominator is None:
            views = tuple(_as_fraction(v) for v in values)
            denominator = scale_lcm({v.denominator for v in views},
                                    "common denominator of a cost function")
            scaled = [v.numerator * (denominator // v.denominator) for v in views]
        else:
            views = None
            scaled = values
        if anonymous and len(scaled) < 2:
            raise ValidationError("anonymous cost needs at least 2 entries (n >= 1)")
        check_player_count(n)
        size = n + 1 if anonymous else 1 << n
        if len(scaled) != size:
            raise ValidationError(
                f"{'anonymous cost' if anonymous else 'table'} has {len(scaled)} "
                f"entries, expected {size}")
        # canonical L: the lcm of the reduced denominators
        common = gcd(denominator, *scaled)
        if common > 1:
            denominator //= common
            scaled = [v // common for v in scaled]
        self.n = n
        self.denominator = denominator
        self._scaled = tuple(scaled)
        self._anon = anonymous
        self._views = views
        self._expanded = None
        self._hash = None
        self._validate()

    @classmethod
    def from_table(cls, n: int, entries) -> "SetCostFunction":
        """Build from a mapping of user sets to costs.

        Keys are bitmasks or iterables of player indices; omitted sets
        default to cost 0 (rejected afterwards if that breaks monotonicity).
        """
        check_player_count(n)  # before sizing the table by it
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
        values = tuple(values)
        return cls(len(values) - 1, values, anonymous=True)

    @classmethod
    def zero(cls, n: int) -> "SetCostFunction":
        """The identically-zero (free) cost function."""
        return cls(n, [0] * (n + 1), anonymous=True, denominator=1)

    def _fraction(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.denominator)

    def _validate(self):
        v = self._scaled
        if v[0] != 0:
            raise ValidationError(
                f"cost of the empty set is {self._fraction(v[0])}, must be 0")
        if self._anon:
            for k in range(self.n):
                if v[k] > v[k + 1]:
                    raise ValidationError(
                        f"anonymous cost decreases from size {k} to {k + 1}: "
                        f"{self._fraction(v[k])} > {self._fraction(v[k + 1])}")
            return
        if _monotone(v, self.n):
            return
        top = full_mask(self.n)  # find the first violation, for the message
        for mask in range(1 << self.n):
            absent = top & ~mask
            base = v[mask]
            while absent:
                bit = absent & -absent
                if base > v[mask | bit]:
                    raise ValidationError(
                        f"cost not monotone: C({mask | bit:#b}) < C({mask:#b})")
                absent ^= bit

    def _fractions(self) -> tuple:
        if self._views is None:
            self._views = tuple(map(self._fraction, self._scaled))
        return self._views

    @property
    def anonymous_values(self):
        """The size-indexed vector (of ``Fraction``) if anonymous, else None."""
        return self._fractions() if self._anon else None

    def scaled(self, users: int) -> int:
        """``denominator * value(users)``, an integer."""
        if users >> self.n:
            raise ValidationError(f"user mask {users:#b} outside arity {self.n}")
        return self._scaled[users.bit_count() if self._anon else users]

    def value(self, users: int) -> Fraction:
        if users >> self.n:
            raise ValidationError(f"user mask {users:#b} outside arity {self.n}")
        return self._fractions()[users.bit_count() if self._anon else users]

    __call__ = value

    def _full_table(self) -> tuple:
        """The numerators over all 2^n subsets."""
        if not self._anon:
            return self._scaled
        if self._expanded is None:
            v = self._scaled
            self._expanded = tuple(v[m.bit_count()] for m in range(1 << self.n))
        return self._expanded

    def __eq__(self, other):
        if not isinstance(other, SetCostFunction):
            return NotImplemented
        if self.n != other.n or self.denominator != other.denominator:
            return False
        if self._anon and other._anon:
            return self._scaled == other._scaled
        return self._full_table() == other._full_table()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.denominator, self._full_table()))
        return self._hash

    def __repr__(self):
        if self._anon:
            return f"SetCostFunction.anonymous({list(self.anonymous_values)!r})"
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
        check_player_count(self.n)
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
    return model.usage_masks(profile)[model.resource_index(r)]


def social_cost(model: GameModel, profile: Profile) -> Fraction:
    """Total cost over resources: sum of C^r applied to r's user set."""
    usage = model.usage_masks(profile)
    return sum((f.value(u) for f, u in zip(model.cost_fns, usage)), Fraction(0))
