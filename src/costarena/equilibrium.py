"""Equilibrium computation: best-response dynamics, exhaustive pure Nash
enumeration, social optimum and the anarchy/stability price ratios.

Every question about one game runs on one compiled kernel, ``_Kernel``.
Compiling picks a single denominator D for the game, the lcm of every
cost denominator and of the protocol's ``share_scale`` of every cost
function, so each cost and each share is an integer multiple of 1/D. The
ints come from the layers below without a ``Fraction`` in between: a cost
row holds (D / f.denominator) * f.scaled(mask), a share row (D /
share_scale(f)) * protocol.scaled_share(f, mask, i), and a potential row
(D / share_scale(f)) * protocol.scaled_potential(f, mask) when the
protocol has that hook (only Shapley does; ``potential_minimizer`` always
compiles for Shapley). Each of these scales must stay within
``core.MAX_SCALE_BITS``. Strategies become tuples of resource indices.
There is one cost row and one potential row per distinct cost function,
and one share row per (cost function, player): cost functions compare by
value, so resources with equal costs read the same rows. Each row is a
``core.Memo`` that fills one user-mask entry on first touch, not 2^n; a
table's cost row reads the table's own integers (``scaled_table``), and
is those integers when D / f.denominator is 1.

The walk visits profiles as an odometer, in the lexicographic order of
``itertools.product``, and on each step updates only the usage masks and
the running total of the players whose digit changed. When asked, it
checks each profile's stability in the same loop: leaving strategy c for
s, a player pays its shares on the resources of s - c and saves those on
c - s, while the resources in both cancel, so only those two sets are
read (per player, up to ``DEVIATION_CAP`` such pairs are kept; a player
past it is checked by full sums). The walk hands its callers only the
profiles they keep, each new minimum and each stable profile, and all of
it compares Python ints; a ``Fraction`` over D is built only for a value
that is reported.

``analyze`` takes the equilibria, their social costs and potentials, and
the optimum from one walk. Ties break lexicographically, so reports are
reproducible. The profile-space size is capped at ``PROFILE_CAP``.

Each number of one profile (``is_pne``, ``best_response``, ``potential``
under Shapley, ``private_cost(s)``, ``social_cost``) is a view of a kernel
compiled for the call, so a D past ``core.MAX_SCALE_BITS`` raises there too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CapExceededError, GameModel, Memo, Profile, ValidationError, player_mask, read_int, scale_lcm)
from .protocols import Protocol, ShapleyProtocol

#: Most profiles a walk may visit; a larger space raises CapExceededError.
PROFILE_CAP = 10 ** 7

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


def _cost_row(f, factor: int):
    """``factor * f.scaled(mask)`` by mask: a table's own integers when the
    factor is 1, else a ``Memo`` filled on first read, from the table's
    integers or, for an anonymous cost, through ``f.scaled``."""
    table = f.scaled_table()
    if table is None:
        return Memo(lambda m, c=f.scaled: factor * c(m))
    return table if factor == 1 else Memo(lambda m: factor * table[m])


class _Kernel:
    """One game compiled for one protocol (or for none, when only costs
    are asked for).

    ``scale`` is the game's denominator D; ``costs[r][mask]`` is D times
    the cost of resource r under ``mask``; ``options[i][s]`` pairs each
    resource of player i's strategy s with the row of i's shares of its
    cost function, also times D; ``potentials[r][mask]`` is D times the
    protocol's potential of ``mask`` under r's cost function, and
    ``potentials`` is None when the protocol has no ``scaled_potential``
    (or there is no protocol). Resources with equal cost functions point
    at the same rows. ``profile`` is the current profile, a list of strategy
    indices, and ``usage`` holds its user masks: ``at``, ``move`` and the
    walk change the two together, so they agree whenever a caller reads them.

    A walk that checks stability sets ``deviations``: ``deviations[i][c]``,
    built on first use, holds for each other strategy s of player i the
    pair (s - c, c - s) of (resource, share row) entries, the resources
    that i adds and drops by leaving c for s. ``deviations[i]`` is None for
    a player with one strategy, who has nothing to check, and for a player
    with k strategies checked by full sums instead: where k(k - 1) passes
    ``DEVIATION_CAP``, or where the walk would read each row fewer than
    ``_ROW_READS`` times.
    """

    def __init__(self, model: GameModel, protocol: Protocol | None = None):
        self.model = model
        fns = model.cost_fns
        distinct = dict.fromkeys(fns)
        own = {} if protocol is None else {f: protocol.share_scale(f) for f in distinct}
        self.scale = scale = scale_lcm({f.denominator for f in distinct} | set(own.values()),
                                       "common denominator of the game")
        self.strategies = model._strategy_ridx
        costs = {f: _cost_row(f, scale // f.denominator) for f in distinct}
        self.costs = [costs[f] for f in fns]
        self.profile: list[int] = []
        self.usage: list[int] = []
        self.potentials = None
        if protocol is None:
            return
        potential = protocol.scaled_potential
        if potential is not None:
            rows = Memo(lambda f: Memo(lambda m, f=f, k=scale // own[f]: k * potential(f, m)))
            self.potentials = [rows[f] for f in fns]
        share = protocol.scaled_share
        shares = {(f, i): Memo(lambda m, f=f, i=i, k=scale // own[f]: k * share(f, m, i))
                  for f in distinct for i in range(model.n)}
        self.options = [[tuple((r, shares[fns[r], i]) for r in strategy)
                         for strategy in sset]
                        for i, sset in enumerate(self.strategies)]

    def at(self, profile: Profile) -> "_Kernel":
        """Make ``profile`` (validated) the current one."""
        self.usage = self.model.usage_masks(profile)
        self.profile = list(profile)
        return self

    def walk(self, rows, stable: bool = False):
        """Walk every profile in lexicographic order and yield ``(profile,
        total, is_stable)`` for the ones the callers keep, where ``total``
        is the sum over resources r of ``rows[r][usage[r]]``: each profile
        whose total is below every earlier one, so the last of these is the
        lexicographically first minimum, and, when ``stable`` is asked
        for, each profile that no player can improve on (``is_stable`` is
        False when it is not asked for). The kernel's current profile is
        the yielded one while the caller reads it, and the first one again
        after the last. Raises CapExceededError before the first profile if
        the space is larger than the cap."""
        size = self.model.profile_space_size()
        if size > PROFILE_CAP:
            raise CapExceededError(f"profile space has {size} profiles, cap is {PROFILE_CAP}")
        strategies = self.strategies
        self.at((0,) * len(strategies))
        usage, digits = self.usage, self.profile
        total = sum(row[mask] for row, mask in zip(rows, usage))
        best = total + 1
        counts = [len(sset) for sset in strategies]
        # the digits that turn, fastest first: (player i, its bit, the
        # resources whose bit i flips as digit i steps from each a, count)
        wheel = [(i, 1 << i, [tuple(sorted(set(sset[a]) ^ set(sset[(a + 1) % k])))
                              for a in range(k)], k)
                 for i, (sset, k) in enumerate(zip(strategies, counts)) if k > 1][::-1]
        checked = []  # (player, bit, its deviation rows) per player with a table
        summed = []  # players checked by full sums
        if stable:
            self.deviations = [None] * len(strategies)
            for i, k in enumerate(counts):
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
                    paid = 0
                    for r, row in adds:
                        paid += row[usage[r] | bit]
                    saved = 0
                    for r, row in drops:
                        saved += row[usage[r]]
                    if paid < saved:
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
            if total < best or calm:
                if total < best:
                    best = total
                yield tuple(digits), total, calm
            for i, bit, steps, count in wheel:
                a = digits[i]
                for r in steps[a]:
                    row = rows[r]
                    mask = usage[r]
                    total -= row[mask]
                    mask ^= bit
                    usage[r] = mask
                    total += row[mask]
                a += 1
                if a < count:
                    digits[i] = a
                    break
                digits[i] = 0
            else:
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
        switch, by the full sums of its strategies."""
        current = self.profile[i]
        usage = self.usage
        options = self.options[i]
        bit = 1 << i
        now = 0
        for r, row in options[current]:
            now += row[usage[r]]
        for s, option in enumerate(options):
            if s != current:
                cost = 0
                for r, row in option:
                    cost += row[usage[r] | bit]
                if cost < now:
                    return True
        return False

    def stable(self) -> bool:
        """No player can strictly lower its cost by a unilateral switch."""
        return not any(self._improves(i) for i in range(len(self.profile)))

    def best_response(self, i: int) -> tuple[int, list[int]]:
        """i's best strategy and its scaled cost under each strategy; keeps
        i's current one on a tie, else takes the lowest-index minimizer."""
        current = self.profile[i]
        usage = self.usage
        bit = 1 << i
        costs = [sum(row[usage[r] | bit] for r, row in option)
                 for option in self.options[i]]
        best_c = min(costs)
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
        return tuple(Fraction(sum(row[usage[r]] for r, row in options[s]), self.scale)
                     for options, s in zip(self.options, self.profile))


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
    int, not negative) bounds accepted changes, and a run stops short only
    to make one more (default 10x the profile-space size, above the number
    of distinct potential values). When the protocol has a potential
    (``Protocol.scaled_potential``, only Shapley's), each trace entry
    records it for the profile after the change; otherwise ``phi`` is None.
    """
    model.validate_profile(start)
    if max_steps is None:
        max_steps = 10 * model.profile_space_size()
    read_int(max_steps, "max_steps")
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
    """Profile of minimum social cost; lexicographically first on ties."""
    kernel = _Kernel(model)
    for profile, cost, _ in kernel.walk(kernel.costs):
        pass  # the last profile reported is the first minimum
    return profile, Fraction(cost, kernel.scale)


def potential_minimizer(model: GameModel) -> Profile:
    """Profile of minimum potential; lexicographically first on ties."""
    kernel = _Kernel(model, ShapleyProtocol())
    for profile, _, _ in kernel.walk(kernel.potentials):
        pass  # the last profile reported is the first minimum
    return profile


def _ratio(target: Fraction, opt: Fraction):
    if opt == 0:
        return Fraction(1) if target == 0 else INFINITE
    return target / opt


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the exhaustive analysis of one game produces.

    ``poa`` and ``pos`` are the worst and best equilibrium cost over the
    optimum cost: None when no pure Nash equilibrium exists, 1 when both
    costs are 0, infinite when only the optimum is 0. ``potentials`` holds
    each equilibrium's potential under the protocol, or is None when the
    protocol has no potential (``Protocol.scaled_potential``).
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
    in one walk; ``potentials`` is None for a protocol without one."""
    kernel = _Kernel(model, protocol)
    pne, scaled, potentials = [], [], []
    opt_p = opt_c = None
    for profile, cost, stable in kernel.walk(kernel.costs, stable=True):
        if opt_c is None or cost < opt_c:
            opt_p, opt_c = profile, cost
        if stable:
            pne.append(profile)
            scaled.append(cost)
            potentials.append(kernel.potential())
    costs = tuple(Fraction(c, kernel.scale) for c in scaled)
    opt_cost = Fraction(opt_c, kernel.scale)
    if pne:
        poa = _ratio(max(costs), opt_cost)
        pos = _ratio(min(costs), opt_cost)
    else:
        poa = pos = None
    return AnalysisReport(protocol.name, tuple(pne), costs, opt_p, opt_cost, poa, pos,
                          None if kernel.potentials is None else tuple(potentials))
