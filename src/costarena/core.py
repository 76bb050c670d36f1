"""Domain types for resource allocation games with set-dependent costs.

Players are indexed 0..n-1 and player sets are encoded as bitmasks (bit i
set means player i is a member), which keeps set algebra exact and gives a
deterministic iteration order (ascending mask value). A cost function is
stored in integers, as numerators over one canonical denominator, and
shows its values as ``fractions.Fraction`` only at the API; nothing in
this package touches floating point. Every rational from outside, whether
from a file, a CLI argument or a library call, is read by
``parse_fraction``, or a column at a time by ``parse_fractions``; every
player id by ``player_mask``, every user set by ``read_mask``, every
collection by ``read_items``, and every other outside integer, a count, a
size, an index or a seed, by ``read_int``. A table cost's listed (set,
cost) entries, from ``from_table`` or a file, are read by one classmethod.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import attrgetter, floordiv, gt, itemgetter, mul, sub
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


def read_items(items, what: str, ordered: bool = True) -> tuple:
    """The one reader of an outside collection: a tuple or list, or a set or
    frozenset unless ``ordered``, as a tuple. Anything else, a str, bytes or
    dict included, raises ValidationError naming ``what`` and the kinds."""
    if isinstance(items, (tuple, list)) or not ordered and isinstance(items, (set, frozenset)):
        return tuple(items)
    kinds = "tuple or list" if ordered else "tuple, list, set or frozenset"
    raise ValidationError(f"{what} {items!r} is not a {kinds}")


# ---------------------------------------------------------------------------
# Player-set bitmask helpers
# ---------------------------------------------------------------------------

def player_mask(players, n: int) -> int:
    """The one reader of outside player ids: the bitmask of ``players``, an
    unordered "player set" for ``read_items`` of ints, not bools, in 0..n-1;
    a repeated id counts once. A bad id raises ValidationError naming it
    (and the collection and the range, when it is an int)."""
    mask = 0
    for p in read_items(players, "player set", ordered=False):
        if not 0 <= read_int(p, "player id", None) < n:
            raise ValidationError(f"player id {p} in {players!r} out of range 0..{n - 1}")
        mask |= 1 << p
    return mask


def read_mask(users, n: int) -> int:
    """The one reader of an outside user set: ``users`` itself if it is an
    int, not a bool, in 0..2^n-1; else ValidationError, as ``read_int``
    words a non-int or as "user set {users:#b} outside arity {n}"."""
    if type(users) is not int:  # read_int refuses a bool and every non-int
        read_int(users, "user set", None)
    if users >> n:
        raise ValidationError(f"user set {users:#b} outside arity {n}")
    return users


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


@cache
def members_by_mask(n: int) -> tuple[tuple[int, ...], ...]:
    """``mask_members(m)`` for every mask m of n players, indexed by m."""
    members = [()]
    for i in range(n):
        members += [m + (i,) for m in members]
    return tuple(members)


@cache
def _member_index(n: int) -> dict:
    """Ascending member tuple -> user mask, for every subset of n players."""
    return dict(zip(members_by_mask(n), range(1 << n)))


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
    else, a bool or a float included, and any value whose numerator or
    denominator has more than MAX_DIGITS digits, raises ValidationError."""
    if isinstance(value, Fraction):
        x = value
    elif isinstance(value, bool) or isinstance(value, float):
        raise ValidationError(f"not an exact rational: {value!r}")
    elif isinstance(value, int):
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


#: A column of "p/q" strings joined by commas, with a comma after the last;
#: ASCII digits only, since ``\d`` also matches the digits of other scripts.
_FILE_COLUMN = re.compile(f"(?:[0-9]{{1,{MAX_DIGITS}}}/[0-9]{{1,{MAX_DIGITS}}},)*")


def parse_fractions(values, what: str = "cost values") -> tuple[list, list]:
    """The numerators and denominators, not necessarily reduced, of the tuple
    or list ``values`` (``read_items`` reads it as ``what``) as
    ``parse_fraction`` reads them. Two kinds of column are checked and read
    in passes that run in C: "p/q" strings, the form of files, with at most
    MAX_DIGITS ASCII digits in each part and q > 0; and exact ``int`` and
    ``Fraction`` members (no bool), by ``numerator`` and ``denominator``
    under one digit bound. Any other column, or one that fails its check,
    is read item by item, so an error names the first value it refuses."""
    values = read_items(values, what)
    kinds = set(map(type, values))
    if kinds <= {int, Fraction}:
        nums = list(map(attrgetter("numerator"), values))
        dens = list(map(attrgetter("denominator"), values)) if Fraction in kinds else []
        if _short(nums, dens):  # an int's denominator is 1
            return nums, dens or [1] * len(nums)
    elif kinds == {str}:
        text = ",".join(values) + ","
        if _FILE_COLUMN.fullmatch(text):
            text = text.replace("/", ",") + "0"  # the 0 closes the last comma
            try:
                ints = json.loads(f"[{text}]")
            except ValueError:  # JSON refuses a leading zero
                try:
                    ints = list(map(int, text.split(",")))
                except ValueError:  # a part past the interpreter's digit limit
                    ints = ()
            # a value with a comma in it would add entries
            if len(ints) == 2 * len(values) + 1 and 0 not in (dens := ints[1::2]):
                return ints[:-1:2], dens
    fractions = list(map(parse_fraction, values))
    return [x.numerator for x in fractions], [x.denominator for x in fractions]


def _short(nums, dens) -> bool:
    """``parse_fraction``'s digit bound over whole columns (``dens`` > 0)."""
    return not nums or (max(nums) < _TOO_LONG and -min(nums) < _TOO_LONG
                        and (not dens or max(dens) < _TOO_LONG))


def _exponent(text: str) -> int:
    """The decimal exponent written at the end of ``text``, else 0."""
    _, e, tail = text.replace("E", "e").rpartition("e")
    try:
        return int(tail) if e else 0
    except ValueError:  # no exponent; Fraction rejects such a string itself
        return 0


def _over_common_denominator(nums: list, dens: list) -> tuple[int, list]:
    """L and the numerators over L of the values ``nums[k] / dens[k]``, with
    L the lcm of the reduced denominators, which ``scale_lcm`` holds to the
    bit budget. When all share one denominator d (ints over 1, ``randomgames``
    over ``SCALE``), L is d / g and each numerator is divided by g, for g =
    gcd(d, every numerator): the lcm of the divisors d / gcd(d, n_k) of d."""
    if dens and dens.count(d := dens[0]) == len(dens):
        g = gcd(d, *nums)
        return scale_lcm((d // g,), "common denominator of a cost function"), (
            nums if g == 1 else list(map(floordiv, nums, repeat(g))))
    factors = list(map(gcd, nums, dens))
    if max(factors, default=1) > 1:  # values are mostly reduced already
        nums = list(map(floordiv, nums, factors))
        dens = list(map(floordiv, dens, factors))
    denominator = scale_lcm(set(dens), "common denominator of a cost function")
    return denominator, list(map(mul, nums, map(floordiv, repeat(denominator), dens)))


def _monotone(table: tuple, n: int) -> bool:
    """True iff ``table[mask] <= table[mask | bit]`` for every mask and bit.
    Up to 5 players, compares all n * 2^(n-1) pairs in one pass. Past that,
    per bit, compares the slices of masks without and with it: strided
    through the whole table for a low bit, block by block for a high one,
    so that each of the about 2 * 2^(n/2) passes runs in C."""
    if 0 < n <= 5:
        without, with_ = _mask_pairs(n)
        return not any(map(gt, without(table), with_(table)))
    size = 1 << n
    for b in range(n):
        half = 1 << b
        step = half << 1
        if half * half <= size // 2:
            for o in range(half):
                if any(map(gt, table[o::step], table[o + half::step])):
                    return False
        else:
            for s in range(0, size, step):
                if any(map(gt, table[s:s + half], table[s + half:s + step])):
                    return False
    return True


@cache
def _mask_pairs(n: int) -> tuple:
    """Two itemgetters: of every mask of n players without a bit, and of
    the same mask with it, pair by pair, each led by mask 0 so it gives a tuple."""
    pairs = [(m, m | 1 << b) for b in range(n) for m in range(1 << n) if not m >> b & 1]
    return itemgetter(0, *(m for m, _ in pairs)), itemgetter(0, *(s for _, s in pairs))


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
        or, the integer form, two columns for ``read_items`` of ints, not
        bools, with ``values[k] / denominators[k]`` the k-th entry, not
        necessarily reduced, each part held to MAX_DIGITS digits.
        ``_over_common_denominator`` reduces the entries and scales them to
        one denominator L."""
        if denominators is None:
            nums, dens = parse_fractions(values)
        else:
            nums = read_items(values, "cost numerators")
            dens = read_items(denominators, "cost denominators")
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
            if not _short(nums, dens):
                raise ValidationError(f"bad rational: more than {MAX_DIGITS} digits")
        denominator, scaled = _over_common_denominator(nums, dens)
        if anonymous and len(scaled) < 2:
            raise ValidationError("anonymous cost needs at least 2 entries (n >= 1)")
        check_player_count(n)
        size = n + 1 if anonymous else 1 << n
        if len(scaled) != size:
            raise ValidationError(
                f"{'anonymous cost' if anonymous else 'table'} has {len(scaled)} "
                f"entries, expected {size}")
        self._store(n, denominator, scaled, anonymous)

    def _store(self, n: int, denominator: int, scaled: list, anonymous: bool) -> None:
        """The step that every construction ends in: keeps the numerators
        and validates them."""
        self.n = n
        self.denominator = denominator
        self._scaled = tuple(scaled)
        self._anon = anonymous
        self._hash = None
        self._validate()

    @classmethod
    def from_table(cls, n: int, entries) -> "SetCostFunction":
        """Build from a mapping of user sets to costs.

        A key is a tuple, list, set or frozenset of ids (``player_mask``),
        else a mask (``read_mask``); no two keys may name one set. Omitted
        sets cost 0 (rejected afterwards if that breaks monotonicity).
        """
        check_player_count(n)
        if not isinstance(entries, Mapping):
            raise ValidationError(f"table {entries!r} is not a mapping")
        return cls._listed(n, list(entries), list(entries.values()))

    @classmethod
    def _listed(cls, n: int, keys: list, values: list) -> "SetCostFunction":
        """The table cost of ``values[k]`` on the set ``keys[k]``, and of 0 on
        every set not listed: the one reader of listed entries, behind
        ``from_table`` and a file's ``table``. A key is read as
        ``from_table`` reads it, in one pass that runs in C when every key
        is a tuple or list of ints; any other key, or one not written as
        distinct ids in ascending order, is read on its own. Faults are
        looked for kind by kind: a key, a repeated set, a rational; the
        first entry with the first kind found is named. Only the listed
        values are parsed and reduced."""
        check_player_count(n)  # before sizing the index and the table by it
        # only int members are looked up: the index would take True for 1
        masks = (list(map(_member_index(n).get, map(tuple, keys)))
                 if set(map(type, keys)) <= {tuple, list}
                 and set(map(type, chain.from_iterable(keys))) <= {int}
                 else [None] * len(keys))
        if None in masks:
            masks = [mask if mask is not None
                     else player_mask(key, n) if isinstance(key, (tuple, list, set, frozenset))
                     else read_mask(key, n)
                     for mask, key in zip(masks, keys)]
        if len(set(masks)) != len(masks):
            seen = set()
            for mask, key in zip(masks, keys):
                if mask in seen:
                    raise ValidationError(f"duplicate table entry for set {key!r}")
                seen.add(mask)
        denominator, scaled = _over_common_denominator(*parse_fractions(values))
        table = [0] * (1 << n)  # omitted sets cost 0
        for mask, value in zip(masks, scaled):
            table[mask] = value
        f = cls.__new__(cls)
        f._store(n, denominator, table, False)
        return f

    @classmethod
    def anonymous(cls, values) -> "SetCostFunction":
        """Cost depending only on how many players use the resource.

        ``values[k]`` is the cost for any user set of size k; needs n+1
        entries for an n-player function.
        """
        values = read_items(values, "anonymous cost")
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
            if not any(map(gt, v, v[1:])):
                return
            for k in range(self.n):  # find the first decrease, for the message
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
        """``denominator * value(users)``, an integer; ``read_mask`` reads ``users``."""
        read_mask(users, self.n)
        return self._scaled[users.bit_count() if self._anon else users]

    def scaled_table(self) -> tuple[int, ...] | None:
        """Every ``scaled(mask)``, in mask order, for a cost stored as a
        table of 2^n entries; None for an anonymous cost."""
        return None if self._anon else self._scaled

    def scaled_counts(self) -> tuple[int, ...] | None:
        """``scaled`` of a user set of each size 0..n, for an anonymous cost;
        None for a cost stored as a table."""
        return self._scaled if self._anon else None

    def value(self, users: int) -> Fraction:
        return Fraction(self.scaled(users), self.denominator)

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

    By the local exchange condition: C(S+i) + C(S+j) >= C(S+i+j) + C(S) for
    every S and i != j outside S gives "submodular", <= "supermodular", both
    "modular", neither "neither". That is, each player's marginal table
    C(S+i) - C(S), over the sets S without i, is non-increasing (or
    non-decreasing) in S, as ``_monotone`` checks it.
    """
    # every value shares the denominator, so numerators compare as values
    c = f.scaled_table() or [f.scaled_counts()[m.bit_count()] for m in range(1 << f.n)]
    marginals = []
    for b in range(f.n):
        half = 1 << b
        m = []
        for s in range(0, 1 << f.n, 2 * half):
            m += map(sub, c[s + half:s + 2 * half], c[s:s + half])
        marginals.append(m)  # C(S+i) - C(S) for i = b, S without b in mask order
    rising = all(_monotone(m, f.n - 1) for m in marginals)
    falling = all(_monotone(m[::-1], f.n - 1) for m in marginals)
    if rising and falling:
        return MODULAR
    return SUPERMODULAR if rising else SUBMODULAR if falling else NEITHER


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
    arity n. ``read_items`` reads each collection, in order but for a strategy.
    """

    n: int
    resources: tuple[str, ...]
    strategy_sets: tuple[tuple[frozenset[str], ...], ...]
    cost_fns: tuple

    def __post_init__(self):
        object.__setattr__(self, "resources", read_items(self.resources, "resources"))
        object.__setattr__(self, "strategy_sets", tuple(
            tuple(s if type(s) is frozenset  # as a network's paths come: no copy
                  else frozenset(read_items(s, f"player {i}: strategy", ordered=False))
                  for s in read_items(sset, f"player {i}: strategies"))
            for i, sset in enumerate(read_items(self.strategy_sets, "strategy sets"))))
        object.__setattr__(self, "cost_fns", read_items(self.cost_fns, "cost functions"))
        check_player_count(self.n)
        if len(set(self.resources)) != len(self.resources):
            raise ValidationError("duplicate resource ids")
        if len(self.cost_fns) != len(self.resources):
            raise ValidationError("one cost function per resource required")
        for rid, f in zip(self.resources, self.cost_fns):
            if not isinstance(f, SetCostFunction):
                raise ValidationError(f"cost function of {rid!r} is not a SetCostFunction: {f!r}")
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
        profile = read_items(profile, "profile")
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

