"""Equilibrium computation: best-response dynamics, exhaustive pure Nash
enumeration, social optimum and the anarchy/stability price ratios.

Every question about one game runs on one compiled kernel, ``_Kernel``.
Compiling picks a single denominator D for the game, the lcm of every
cost denominator and of the protocol's ``share_scale`` of every cost
function, so each cost and each share is an integer multiple of 1/D. The
ints come from the layers below without a ``Fraction`` in between: a cost
row holds (D / f.denominator) * f.scaled(mask), and the protocol hands
over its own rows at D (below). Each of these scales must stay within
``core.MAX_SCALE_BITS``, and asking for every share scale refuses a
protocol sized for another player count before any share is read.
Strategies become tuples of resource indices. Cost functions compare by
value, so resources with equal costs read the same rows.

A player's payment on a resource is read from an entry (r, row, base):
player i pays row[S] - base[S - i] on r, where S is r's user set with i in
it. The protocol gives the pairs: the kernel asks ``protocol._rows(f, D,
...)`` once per distinct cost function for a (row, base) pair per player
and a potential row or None. A protocol has one potential, used for
everything or for nothing: Shapley gives the potential row Q as every
player's row and base, since its share is Q(S) - Q(S - i) (Hart &
Mas-Colell 1989), and these rows are also ``analyze``'s potentials and the
``phi`` of ``best_response_dynamics``. A share table with a fallback gives
the fallback's pairs with its listed entries laid over each player's row,
and no potential. Every other protocol, a Shapley subclass with its own
share or potential methods included, is priced by its own shares: row is a
``core.Memo`` of (D / share_scale(f)) * protocol.scaled_share(f, mask, i),
and base is one all-zero row, so an entry that charges a non-member is
never read. The kernel reports potentials when every cost function's rows
come with one.

A kernel compiled for a walk (``analyze``, ``social_optimum``) fills its
cost and potential rows whole, as lists of 2^n entries, when 2^n is at
most the number of profiles it walks: a table's cost row is its own
integers (``scaled_table``), times the factor; an anonymous cost's rows
are read by user count from n + 1 integers (``scaled_counts``, Shapley's
running sum); and a table's potential is the protocol's one-pass table
(``scaled_potentials``). Every other row, and every row of any other
kernel, fills one user-mask entry on first touch from the same stores, a
potential row from the protocol's own (``scaled_potentials(f,
whole=False)``, a table's lazy memo): it is that store itself for a table
at factor 1, else a ``core.Memo`` over it. No row checks its masks, which
are user sets by construction.

The walk visits profiles in reflected mixed-radix Gray order (Knuth,
TAOCP 4A, 7.2.1.1, Algorithm H): each step moves one player to the next
or the previous of its strategies. The fastest player sweeps its
strategies up, then down, and so on; at either end it stays for one step
while a slower player moves. So a step updates only the usage masks,
and the running total, of the resources in which the mover's two adjacent
strategies differ. The order in which players turn is free: the one whose
adjacent strategies differ in the fewest resources on average turns
fastest, and a player with one strategy never turns. A kernel compiled
with a protocol checks each profile's stability in the same loop: leaving
strategy c for s, a player pays on the resources of s - c and saves what
it pays on c - s, while the resources in both cancel, so only those two
sets are read (per player, up to ``DEVIATION_CAP`` such pairs are kept; a
player past it is checked by full sums). The walk yields only the
equilibria, each with its social cost, and keeps the least (cost, profile)
of all it visits for the optimum; all of it compares Python ints, and a
``Fraction`` over D is built only for a value that is reported. A best
response, in contrast, prices each resource the player can reach once and
then sums per strategy, since a network player's paths share most of their
edges.

``analyze`` takes the equilibria, their social costs and potentials, and
the optimum from one walk, and ``social_optimum`` the optimum from a walk
that checks no stability. Every minimizer of Shapley's potential is an
equilibrium, since a player's switch changes the potential by exactly its
change in cost (Monderer & Shapley 1996), so ``potential_minimizer`` reads
``analyze``'s equilibria. The visit order is the walk's own, and no report
shows it: ``analyze`` sorts the equilibria by profile, and every minimum
is the least (value, profile) pair, so ties break lexicographically and
reports are reproducible. The profile-space size is capped at
``PROFILE_CAP``.

Each number of one profile (``is_pne``, ``best_response``, ``potential``
under Shapley, ``private_cost(s)``, ``social_cost``) is a view of a kernel
compiled for the call, so a D past ``core.MAX_SCALE_BITS`` raises there too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle

from .core import (CapExceededError, GameModel, Profile, SetCostFunction, ValidationError,
                   player_mask, read_int, scale_lcm, scaled_row)
from .protocols import Protocol, ShapleyProtocol

#: Most profiles a walk may visit; a larger space raises CapExceededError.
PROFILE_CAP = 10 ** 7

#: Most changes best-response dynamics may make, and so store in its trace:
#: the default budget is at most this, and a larger ``max_steps`` is refused.
STEP_CAP = 10 ** 5

#: Most deviation pairs the walk keeps for one player: k(k - 1) for k
#: strategies. A player past it is checked by full sums instead, with the
#: same answers.
DEVIATION_CAP = 4096

#: Fewest times the walk must read each of a player's deviation rows, the
#: profile count over the player's strategy count, for them to be built:
#: building a row costs about as much as a few full-sum checks.
_ROW_READS = 8

#: Ratio value when the optimum costs 0 but some equilibrium does not.
INFINITE = math.inf


class _Kernel:
    """One game compiled for one protocol (or for none, when only costs
    are asked for).

    ``scale`` is the game's denominator D; ``costs[r][mask]`` is D times
    the cost of resource r under ``mask``; ``options[i][s]`` holds an
    entry (r, row, base) for each resource r of player i's strategy s,
    where i pays row[S] - base[S - i], times D, for a user set S that holds
    i; ``reach[i]``, built on i's first best response, holds one entry per
    resource that i can reach; ``potentials[r][mask]`` is D times the
    protocol's potential of ``mask`` under r's cost function, and every
    entry of r is (r, potentials[r], potentials[r]), for a protocol whose
    rows come with a potential; for any other protocol, or none,
    ``potentials`` is None, and with no protocol ``options`` is None too.
    Resources with equal cost functions point at the same rows. A game with
    no resources still compiles the zero cost function of its players under
    a protocol, so the protocol is sized to the game and says whether it
    has a potential, as for any other game. With ``whole``, cost and
    potential rows are filled whole when 2^n is at most the profile-space
    size (module docstring). ``profile`` is the current profile, a list of
    strategy indices, and ``usage`` holds its user masks: ``at``, ``move``
    and the walk change the two together, so they agree whenever a caller
    reads them.

    ``least`` is the least (total, profile) of the last finished walk. A
    walk under a protocol sets ``deviations``: ``deviations[i][c]``,
    built on first use, holds for each other strategy s of player i the
    pair (s - c, c - s) of entries, the resources that i adds and drops by
    leaving c for s. ``deviations[i]`` is None for a player with one
    strategy, who has nothing to check, and for a player with k strategies
    checked by full sums instead: where k(k - 1) passes
    ``DEVIATION_CAP``, or where the walk would read each row fewer than
    ``_ROW_READS`` times.
    """

    def __init__(self, model: GameModel, protocol: Protocol | None = None,
                 whole: bool = False):
        self.model = model
        distinct = {}  # cost function -> its index; equal ones share rows
        ids = [distinct.setdefault(f, len(distinct)) for f in model.cost_fns]
        if protocol is not None and not distinct:  # the protocol still sizes itself
            distinct[SetCostFunction.zero(model.n)] = 0
        own = [] if protocol is None else list(map(protocol.share_scale, distinct))
        self.scale = scale = scale_lcm({f.denominator for f in distinct} | set(own),
                                       "common denominator of the game")
        self.strategies = model._strategy_ridx
        counts = None
        if whole and 1 << model.n <= model.profile_space_size() <= PROFILE_CAP:
            counts = list(map(int.bit_count, range(1 << model.n)))
        costs = [scaled_row(f.scaled_table() or f.scaled_counts(), scale // f.denominator,
                            model.n, counts) for f in distinct]
        self.costs = [costs[j] for j in ids]
        self.profile: list[int] = []
        self.usage: list[int] = []
        self.potentials = self.options = None
        if protocol is None:
            return
        rows = [protocol._rows(f, scale, counts) for f in distinct]
        if all(q is not None for _, q in rows):
            self.potentials = [rows[j][1] for j in ids]
        entries = [[(r, *rows[j][0][i]) for r, j in enumerate(ids)] for i in range(model.n)]
        self.options = [[tuple(map(mine.__getitem__, strategy)) for strategy in sset]
                        for mine, sset in zip(entries, self.strategies)]
        self.reach = [None] * model.n

    def at(self, profile: Profile) -> "_Kernel":
        """Make ``profile`` (validated) the current one."""
        self.usage = self.model.usage_masks(profile)
        self.profile = list(profile)
        return self

    def walk(self):
        """Walk every profile once, in reflected Gray order (module
        docstring), and yield ``(profile, total)`` for each equilibrium,
        where ``total`` is the profile's scaled social cost: stability is
        checked when the kernel was compiled with a protocol, so a kernel
        without one yields nothing. Once exhausted, the walk leaves
        ``least``, the least ``(total, profile)`` of every profile, so ties
        break lexicographically. The kernel's current profile is the
        yielded one while the caller reads it, and the last one visited
        after the walk. Raises CapExceededError before the first profile if
        the space is larger than the cap."""
        size = self.model.profile_space_size()
        if size > PROFILE_CAP:
            raise CapExceededError(f"profile space has {size} profiles, cap is {PROFILE_CAP}")
        strategies, rows = self.strategies, self.costs
        self.at((0,) * len(strategies))
        usage, digits = self.usage, self.profile
        total = sum(row[mask] for row, mask in zip(rows, usage))
        best, kept = total + 1, None  # the lowest total and its profile
        # the players with a choice, (resources flipped per step on average,
        # player i, its bit, its turns), sorted so that the one that flips
        # the fewest turns fastest: it makes most of the steps. A turn is the
        # resources whose bit i flips and i's new strategy; i steps up to its
        # last strategy, down to its first and so on, and at either end
        # (None) it stays, and the next player turns instead
        wheel = []
        for i, sset in enumerate(strategies):
            k = len(sset)
            if k > 1:
                steps = [tuple(set(a).symmetric_difference(b)) for a, b in zip(sset, sset[1:])]
                turns = list(zip(steps, range(1, k)))
                turns.append(None)
                turns += zip(reversed(steps), range(k - 2, -1, -1))
                turns.append(None)
                wheel.append((sum(map(len, steps)) / (k - 1), i, 1 << i, cycle(turns)))
        wheel.sort()
        checked = []  # (player, bit, its deviation rows) per player with a table
        summed = []  # players checked by full sums
        stable = self.options is not None
        if stable:
            self.deviations = [None] * len(strategies)
            for i, k in enumerate(map(len, strategies)):
                if 1 < k and _ROW_READS * k <= size and k * (k - 1) <= DEVIATION_CAP:
                    table = self.deviations[i] = [None] * k
                    checked.append((i, 1 << i, table))
                elif k > 1:
                    summed.append(i)
        while True:
            calm = stable
            for entry in checked:
                i, bit, table = entry
                c = digits[i]
                pairs = table[c] or self._deviation_row(i, c)
                for pair in pairs:
                    adds, drops = pair
                    paid = 0  # row[S] - base[S - i] over s - c, less it over c - s
                    for r, row, base in adds:
                        mask = usage[r]
                        paid += row[mask | bit] - base[mask]
                    for r, row, base in drops:
                        mask = usage[r]
                        paid -= row[mask] - base[mask ^ bit]
                    if paid < 0:
                        calm = False
                        break
                if not calm:
                    # the player and the switch that improved go first from
                    # now on: the next profiles tend to fail on them too
                    if pair is not pairs[0]:
                        pairs.remove(pair)
                        pairs.insert(0, pair)
                    if entry is not checked[0]:
                        checked.remove(entry)
                        checked.insert(0, entry)
                    break
            if calm:
                for i in summed:
                    if self._improves(i):
                        calm = False
                        break
            if total < best or total == best and digits < kept:
                best, kept = total, digits.copy()
            if calm:
                yield tuple(digits), total
            for _, i, bit, turns in wheel:
                turn = next(turns)
                if turn:
                    flips, digits[i] = turn
                    for r in flips:
                        row = rows[r]
                        mask = usage[r]
                        total -= row[mask]
                        mask ^= bit
                        usage[r] = mask
                        total += row[mask]
                    break
            else:
                self.least = best, tuple(kept)
                return

    def _deviation_row(self, i: int, current: int) -> list:
        """Build and keep ``deviations[i][current]``."""
        options = self.options[i]
        mine = options[current]
        have = set(self.strategies[i][current])
        row = self.deviations[i][current] = []
        for s, other in enumerate(map(set, self.strategies[i])):
            if s != current:
                row.append(([e for e in options[s] if e[0] not in have],
                            [e for e in mine if e[0] not in other]))
        return row

    def _improves(self, i: int) -> bool:
        """Whether player i can strictly lower its cost by a unilateral
        switch, by the sums over its strategies' entries."""
        current = self.profile[i]
        usage = self.usage
        options = self.options[i]
        bit = 1 << i
        clear = ~bit
        now = 0
        for r, row, base in options[current]:
            mask = usage[r]
            now += row[mask | bit] - base[mask & clear]
        for s, option in enumerate(options):
            if s != current:
                cost = 0
                for r, row, base in option:
                    mask = usage[r]
                    cost += row[mask | bit] - base[mask & clear]
                if cost < now:
                    return True
        return False

    def stable(self) -> bool:
        """No player can strictly lower its cost by a unilateral switch."""
        return not any(self._improves(i) for i in range(len(self.profile)))

    def best_response(self, i: int) -> tuple[int, list[int]]:
        """i's best strategy and its scaled cost under each strategy; keeps
        i's current one on a tie, else takes the lowest-index minimizer.
        Each resource that i can reach is priced once, then summed per
        strategy: a resource lies on many of a network player's paths."""
        reach = self.reach[i]
        if reach is None:
            reach = self.reach[i] = list({e[0]: e for option in self.options[i]
                                          for e in option}.values())
        usage = self.usage
        bit = 1 << i
        clear = ~bit
        price = {}
        for r, row, base in reach:
            mask = usage[r]
            price[r] = row[mask | bit] - base[mask & clear]
        price = price.__getitem__
        costs = [sum(map(price, strategy)) for strategy in self.strategies[i]]
        best_c = min(costs)
        current = self.profile[i]
        best = current if costs[current] == best_c else costs.index(best_c)
        return best, costs

    def move(self, i: int, new: int) -> None:
        """Switch player i to strategy ``new``."""
        usage = self.usage
        bit = 1 << i
        for r in self.strategies[i][self.profile[i]]:
            usage[r] &= ~bit
        for r in self.strategies[i][new]:
            usage[r] |= bit
        self.profile[i] = new

    def potential(self) -> Fraction | None:
        """The protocol's potential of the current profile, or None when
        the protocol has none."""
        rows = self.potentials
        if rows is None:
            return None
        return Fraction(sum(row[mask] for row, mask in zip(rows, self.usage)), self.scale)

    def social_cost(self) -> Fraction:
        """The social cost of the current profile."""
        return Fraction(sum(row[mask] for row, mask in zip(self.costs, self.usage)),
                        self.scale)

    def private_costs(self) -> tuple[Fraction, ...]:
        """Each player's payment at the current profile: its shares summed
        over the resources of its strategy."""
        usage = self.usage
        return tuple(Fraction(sum(row[usage[r]] - base[usage[r] ^ (1 << i)]
                                  for r, row, base in options[s]), self.scale)
                     for i, (options, s) in enumerate(zip(self.options, self.profile)))


def best_response(model: GameModel, protocol: Protocol, profile: Profile,
                  i: int) -> int:
    """Strategy index minimizing i's cost with everyone else fixed.

    Keeps the current strategy when it ties the minimum; otherwise picks
    the lowest-index minimizer.
    """
    player_mask((i,), model.n)
    return _Kernel(model, protocol).at(profile).best_response(i)[0]


@dataclass(frozen=True)
class BrdStep:
    """One accepted change during best-response dynamics."""

    player: int
    old: int
    new: int
    phi: Fraction | None
    cost_before: Fraction
    cost_after: Fraction


@dataclass(frozen=True)
class BrdResult:
    """Where best-response dynamics stopped; ``social_cost`` is that
    profile's."""

    profile: Profile
    converged: bool
    trace: tuple[BrdStep, ...]
    sweeps: int
    social_cost: Fraction


def best_response_dynamics(model: GameModel, protocol: Protocol, start: Profile,
                           max_steps: int | None = None, *,
                           schedule: str = "round-robin",
                           seed: int = 0) -> BrdResult:
    """Iterate best responses in sweeps over all players.

    A sweep visits every player once, in index order, or with
    ``schedule="random"`` in the order ``random.Random(seed)`` shuffles;
    ``seed`` must be an int whatever the schedule. A
    run converges when a full sweep accepts no change; ``max_steps`` (an
    int in 0..STEP_CAP) bounds accepted changes, and a run stops short only
    to make one more (default 10x the profile-space size, above the number
    of distinct potential values, or STEP_CAP if that is smaller). Under a
    protocol that gives the kernel a potential (module docstring), each
    trace entry records that potential for the profile after the change;
    under any other, ``phi`` is None.
    """
    model.validate_profile(start)
    if max_steps is None:
        max_steps = min(10 * model.profile_space_size(), STEP_CAP)
    read_int(max_steps, "max_steps", 0, STEP_CAP)
    read_int(seed, "seed", None)
    if schedule not in ("round-robin", "random"):
        raise ValidationError(f"unknown schedule {schedule!r}")
    rng = random.Random(seed) if schedule == "random" else None
    kernel = _Kernel(model, protocol).at(start)
    scale = kernel.scale
    profile = kernel.profile
    trace: list[BrdStep] = []
    sweeps = 0
    while True:
        sweeps += 1
        dirty = False
        players = list(range(model.n))
        if rng is not None:
            rng.shuffle(players)
        for i in players:
            current = profile[i]
            best_s, costs = kernel.best_response(i)
            if best_s != current:
                if len(trace) >= max_steps:
                    return BrdResult(tuple(profile), False, tuple(trace), sweeps,
                                     kernel.social_cost())
                kernel.move(i, best_s)
                dirty = True
                trace.append(BrdStep(i, current, best_s, kernel.potential(),
                                     Fraction(costs[current], scale),
                                     Fraction(costs[best_s], scale)))
        if not dirty:
            return BrdResult(tuple(profile), True, tuple(trace), sweeps,
                             kernel.social_cost())


def is_pne(model: GameModel, protocol: Protocol, profile: Profile) -> bool:
    """No player can strictly lower its cost by a unilateral switch."""
    return _Kernel(model, protocol).at(profile).stable()


def potential(model: GameModel, profile: Profile) -> Fraction:
    """The Shapley potential of ``profile``: the sum over resources of the
    Hart--Mas-Colell potential of each resource's user set."""
    return _Kernel(model, ShapleyProtocol()).at(profile).potential()


def private_costs(model: GameModel, protocol: Protocol, profile: Profile) -> tuple:
    """All players' payments; they sum to the social cost under budget balance."""
    return _Kernel(model, protocol).at(profile).private_costs()


def private_cost(model: GameModel, protocol: Protocol, profile: Profile,
                 i: int) -> Fraction:
    """Player i's total payment: its shares over its strategy's resources."""
    player_mask((i,), model.n)
    return private_costs(model, protocol, profile)[i]


def social_cost(model: GameModel, profile: Profile) -> Fraction:
    """Total cost over resources: sum of C^r applied to r's user set."""
    return _Kernel(model).at(profile).social_cost()


def social_optimum(model: GameModel) -> tuple[Profile, Fraction]:
    """Profile of minimum social cost; lexicographically first on ties:
    the least profile of a walk that checks no stability."""
    kernel = _Kernel(model, whole=True)
    for _ in kernel.walk():
        pass
    cost, profile = kernel.least
    return profile, Fraction(cost, kernel.scale)


def potential_minimizer(model: GameModel) -> Profile:
    """Profile of minimum Shapley potential; lexicographically first on
    ties. Every minimizer is an equilibrium, since a player's switch changes
    the potential by exactly its change in cost (Monderer & Shapley 1996),
    so this is the least (potential, profile) of ``analyze``'s equilibria."""
    report = analyze(model, ShapleyProtocol())
    return min(zip(report.potentials, report.pne))[1]


def _ratio(target: int, opt: int):
    """target / opt, two costs over one scale."""
    if opt == 0:
        return Fraction(1) if target == 0 else INFINITE
    return Fraction(target, opt)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the exhaustive analysis of one game produces.

    ``poa`` and ``pos`` are the worst and best equilibrium cost over the
    optimum cost: None when no pure Nash equilibrium exists, 1 when both
    costs are 0, infinite when only the optimum is 0. ``potentials`` holds
    each equilibrium's potential, the one that prices the protocol's
    shares, or is None when the protocol is not priced by a potential
    (module docstring).
    """

    protocol: str
    pne: tuple[Profile, ...]
    pne_costs: tuple[Fraction, ...]
    optimum: Profile
    optimum_cost: Fraction
    poa: object
    pos: object
    potentials: tuple[Fraction, ...] | None = None


def analyze(model: GameModel, protocol: Protocol) -> AnalysisReport:
    """Equilibria, their costs and potentials, the optimum and both ratios
    in one walk: the equilibria it yields and the least profile it keeps;
    ``potentials`` is None for a protocol without one (``AnalysisReport``)."""
    kernel = _Kernel(model, protocol, whole=True)
    pne = [(p, c, kernel.potential()) for p, c in kernel.walk()]
    pne.sort()  # by profile, since no two are equal; the walk's order is its own
    opt_cost, optimum = kernel.least
    costs = tuple(Fraction(cost, kernel.scale) for _, cost, _ in pne)
    if pne:
        poa = _ratio(max(cost for _, cost, _ in pne), opt_cost)
        pos = _ratio(min(cost for _, cost, _ in pne), opt_cost)
    else:
        poa = pos = None
    return AnalysisReport(protocol.name, tuple(profile for profile, _, _ in pne), costs,
                          optimum, Fraction(opt_cost, kernel.scale), poa, pos,
                          None if kernel.potentials is None else tuple(phi for _, _, phi in pne))
