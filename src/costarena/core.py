"""Domain types for resource allocation games with set-dependent costs.

Players are indexed 0..n-1 and player sets are encoded as bitmasks (bit i
set means player i is a member), which keeps set algebra exact and gives a
deterministic iteration order (ascending mask value). A cost function is
stored in integers, as numerators over one canonical denominator, and
shows its values as ``fractions.Fraction`` only at the API; nothing in
this package touches floating point. Every rational from outside, whether
from a file, a CLI argument or a library call, is read by
``parse_fraction``, or a column at a time by ``parse_fractions``; every
player id from outside is read by ``player_mask``, and every other outside
integer, a count, a size, an index or a seed, by ``read_int``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import floordiv, gt, mul
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
    """An enumeration exceeded its size cap."""


class Memo(dict):
    """A dict whose missing entries ``fill(key)`` computes on first read and keeps."""

    __slots__ = ("fill", "__weakref__")

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def read_int(value, what: str, low: int | None = 0, high: int | None = None) -> int:
    """The one reader of an outside integer: ``value`` itself if it is an
    int, not a bool, in ``low..high`` (no bound where a bound is None).
    Otherwise raises ValidationError: "{what} {value!r} is not an int", or
    "{what} {value} out of range {low}..{high}", with ``high`` left blank
    when there is no upper bound."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} {value!r} is not an int")
    if (low is not None and value < low) or (high is not None and value > high):
        raise ValidationError(
            f"{what} {value} out of range {low}..{'' if high is None else high}")
    return value


# ---------------------------------------------------------------------------
# Player-set bitmask helpers
# ---------------------------------------------------------------------------

def player_mask(players: Iterable[int], n: int) -> int:
    """The one reader of outside player ids: the bitmask of the collection
    ``players``, each an int, not a bool, in 0..n-1; a repeated id counts
    once. A bad id raises ValidationError naming it (and the collection and
    the range, when it is an int)."""
    mask = 0
    for p in players:
        if not 0 <= read_int(p, "player id", None) < n:
            raise ValidationError(f"player id {p} in {players!r} out of range 0..{n - 1}")
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
    """Every player count reads through here: an int, not a bool, in
    1..MAX_PLAYERS."""
    read_int(n, "player count", 1, MAX_PLAYERS)


def scale_lcm(values: Iterable[int], what: str) -> int:
    """The lcm of ``values``, grown one value at a time; raises
    ValidationError as soon as it passes ``MAX_SCALE_BITS`` bits."""
    out = 1
    for v in values:
        out = lcm(out, v)
        if out.bit_length() > MAX_SCALE_BITS:
            raise ValidationError(f"{what} has more than {MAX_SCALE_BITS} bits")
    return out


#: Largest number of decimal digits in a numerator, a denominator or a
#: decimal exponent that a rational may have; Python converts ints of up to
#: this many digits to and from strings by default.
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS


def parse_fraction(value) -> Fraction:
    """The one reader of an outside rational, from a file, an argument or a
    library call: a ``Fraction`` as it is, an int, or a string in
    ``fractions.Fraction``'s grammar ("p/q", "7", "1.5", "1e3"). Anything
    else, a bool or a float included, raises ValidationError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(f"not an exact rational: {value!r}")
    if isinstance(value, int):
        x = Fraction(value)
    elif isinstance(value, str):
        text = value.strip()
        # checked before Fraction computes 10 ** exponent
        if abs(_exponent(text)) > MAX_DIGITS:
            raise ValidationError(f"bad rational {value!r}")
        try:
            x = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational {value!r}") from exc
    else:
        raise ValidationError(f"bad rational {value!r}")
    if max(abs(x.numerator), x.denominator) >= _TOO_LONG:
        raise ValidationError(f"bad rational: more than {MAX_DIGITS} digits")
    return x


def parse_fractions(values: Iterable) -> tuple[list, list]:
    """The numerators and denominators, not necessarily reduced, of
    ``values`` as ``parse_fraction`` reads them. A column of ASCII "p/q"
    strings of at most MAX_DIGITS characters with q > 0, the form that
    files are written in, is read in passes that run in C; any other
    column is read by ``parse_fraction`` item by item, so an error names
    the first value that it refuses."""
    values = list(values)
    if (set(map(type, values)) == {str} and set(map(str.count, values, repeat("/"))) == {1}
            and max(map(len, values)) <= MAX_DIGITS):
        text = "/".join(values)
        parts = text.split("/")
        if text.isascii() and "".join(parts).isdigit() and "" not in parts:
            dens = list(map(int, parts[1::2]))
            if 0 not in dens:
                return list(map(int, parts[::2])), dens
    fractions = list(map(parse_fraction, values))
    return [x.numerator for x in fractions], [x.denominator for x in fractions]


def _exponent(text: str) -> int:
    """The decimal exponent written at the end of ``text``, else 0."""
    _, e, tail = text.replace("E", "e").rpartition("e")
    try:
        return int(tail) if e else 0
    except ValueError:  # no exponent; Fraction rejects such a string itself
        return 0


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
    reads a numerator; ``value(mask)`` and ``anonymous_values`` build one
    ``Fraction`` per value asked for. Validation, equality and hashing run
    on the integers, and are semantic: two functions are equal iff they
    agree on every subset, regardless of representation.
    """

    __slots__ = ("n", "denominator", "_scaled", "_anon", "_hash")

    def __init__(self, n: int, values: Iterable, *, anonymous: bool = False,
                 denominators: Iterable[int] | None = None):
        """``values`` are the 2^n table entries, or the n+1 size-indexed
        entries when ``anonymous``: rationals, read by ``parse_fractions``,
        or ints, not bools, with ``values[k] / denominators[k]`` the k-th
        entry, not necessarily reduced. Only here is each entry reduced, L
        taken as the lcm of the reduced denominators and every numerator
        scaled to it."""
        if denominators is None:
            nums, dens = parse_fractions(values)
        else:
            nums, dens = list(values), list(denominators)
            if len(nums) != len(dens):
                raise ValidationError(
                    f"cost function has {len(nums)} numerators and {len(dens)} denominators")
            if not set(map(type, chain(nums, dens))) <= {int}:  # name the first bad entry
                for x in nums:
                    read_int(x, "cost numerator", None)
                for x in dens:
                    read_int(x, "cost denominator", None)
            if min(dens, default=1) <= 0:
                raise ValidationError(f"cost denominator {min(dens)} is not positive")
        factors = list(map(gcd, nums, dens))
        if max(factors, default=1) > 1:  # values are mostly reduced already
            nums = list(map(floordiv, nums, factors))
            dens = list(map(floordiv, dens, factors))
        denominator = scale_lcm(set(dens), "common denominator of a cost function")
        if anonymous and len(nums) < 2:
            raise ValidationError("anonymous cost needs at least 2 entries (n >= 1)")
        check_player_count(n)
        size = n + 1 if anonymous else 1 << n
        if len(nums) != size:
            raise ValidationError(
                f"{'anonymous cost' if anonymous else 'table'} has {len(nums)} "
                f"entries, expected {size}")
        self.n = n
        self.denominator = denominator
        self._scaled = tuple(map(mul, nums, map(floordiv, repeat(denominator), dens)))
        self._anon = anonymous
        self._hash = None
        self._validate()

    @classmethod
    def from_table(cls, n: int, entries) -> "SetCostFunction":
        """Build from a mapping of user sets to costs.

        Keys are masks in 0..2^n-1 or iterables of player ids; omitted sets
        default to cost 0 (rejected afterwards if that breaks monotonicity).
        """
        check_player_count(n)  # before sizing the table by it
        table = [0] * (1 << n)
        for key, value in entries.items():
            table[player_mask(key, n) if isinstance(key, Iterable)
                  else read_int(key, "user set", 0, full_mask(n))] = value
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
        check_player_count(n)  # before sizing the list by it
        return cls(n, [0] * (n + 1), anonymous=True)

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

    @property
    def anonymous_values(self):
        """The size-indexed vector (of ``Fraction``) if anonymous, else None."""
        return tuple(map(self._fraction, self._scaled)) if self._anon else None

    def scaled(self, users: int) -> int:
        """``denominator * value(users)``, an integer."""
        if users >> self.n:
            raise ValidationError(f"user mask {users:#b} outside arity {self.n}")
        return self._scaled[users.bit_count() if self._anon else users]

    def scaled_table(self) -> tuple[int, ...] | None:
        """Every ``scaled(mask)``, in mask order, for a cost stored as a
        table of 2^n entries; None for an anonymous cost."""
        return None if self._anon else self._scaled

    def value(self, users: int) -> Fraction:
        return Fraction(self.scaled(read_int(users, "user mask", None)), self.denominator)

    def _by_size(self) -> tuple | None:
        """The numerators indexed by the number of users if the cost depends
        on that number only, else None. An anonymous cost and a table are
        equal iff both give the same tuple here, so neither equality nor
        hashing expands an anonymous cost to 2^n entries."""
        v = self._scaled
        if self._anon:
            return v
        sizes = tuple(v[(1 << k) - 1] for k in range(self.n + 1))
        if all(x == sizes[m.bit_count()] for m, x in enumerate(v)):
            return sizes
        return None

    def __eq__(self, other):
        if not isinstance(other, SetCostFunction):
            return NotImplemented
        if self.n != other.n or self.denominator != other.denominator:
            return False
        if self._anon == other._anon:
            return self._scaled == other._scaled
        return self._by_size() == other._by_size()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.denominator, self._by_size() or self._scaled))
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
    # every value shares the denominator, so numerators compare as values
    c = f.scaled
    sub = sup = True
    top = full_mask(f.n)
    for y in range(1 << f.n):
        fy = c(y)
        outside = top & ~y
        for x in iter_submasks(y):
            fx = c(x)
            rest = outside
            while rest:
                bit = rest & -rest
                rest ^= bit
                mx = c(x | bit) - fx
                my = c(y | bit) - fy
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
    return f._by_size() is not None


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
        if not isinstance(profile, (tuple, list)):
            raise ValidationError(f"profile {profile!r} is not a tuple or list")
        if len(profile) != self.n:
            raise ValidationError(f"profile has {len(profile)} entries, game has {self.n} players")
        for i, si in enumerate(profile):
            read_int(si, f"player {i}: strategy index", 0, len(self.strategy_sets[i]) - 1)

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

