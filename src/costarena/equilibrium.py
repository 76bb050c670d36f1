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
``core.Memo`` that fills one user-mask entry on first touch, not 2^n.
The walk visits profiles as an odometer, in the lexicographic order of
``itertools.product``, and on each step updates only the usage masks and
the running total of the players whose digit changed. Social costs,
deviation sums, the optimum and the early-exit stability test then
compare Python ints; a ``Fraction`` over D is built only for a value that
is reported.

``analyze`` takes the equilibria, their social costs and potentials, and
the optimum from one walk. Ties break lexicographically, so reports are
reproducible. The profile-space size is capped at ``PROFILE_CAP``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .core import (
    CapExceededError, GameModel, Memo, Profile, ValidationError, player_mask, scale_lcm)
from .protocols import Protocol, ShapleyProtocol

#: Most profiles a walk may visit; a larger space raises CapExceededError.
PROFILE_CAP = 10 ** 7

#: Ratio value when the optimum costs 0 but some equilibrium does not.
INFINITE = math.inf


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
    at the same rows. ``usage`` holds the user masks of the current profile.
    """

    def __init__(self, model: GameModel, protocol: Protocol | None = None):
        self.model = model
        fns = model.cost_fns
        distinct = dict.fromkeys(fns)
        own = {} if protocol is None else {f: protocol.share_scale(f) for f in distinct}
        self.scale = scale = scale_lcm({f.denominator for f in distinct} | set(own.values()),
                                       "common denominator of the game")
        self.strategies = model._strategy_ridx
        costs = Memo(lambda f: Memo(lambda m, c=f.scaled, k=scale // f.denominator: k * c(m)))
        self.costs = [costs[f] for f in fns]
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
        """Point ``usage`` at the masks of ``profile`` (validated)."""
        self.usage = self.model.usage_masks(profile)
        return self

    def walk(self, rows):
        """Yield ``(profile, total)`` for every profile in lexicographic
        order, where ``total`` is the sum over resources r of
        ``rows[r][usage[r]]`` and ``self.usage`` holds the profile's masks.
        Raises CapExceededError before the first profile if the space is
        larger than the cap."""
        size = self.model.profile_space_size()
        if size > PROFILE_CAP:
            raise CapExceededError(f"profile space has {size} profiles, cap is {PROFILE_CAP}")
        strategies = self.strategies
        usage = self.usage = [0] * len(rows)
        for i, sset in enumerate(strategies):
            for r in sset[0]:
                usage[r] |= 1 << i
        total = sum(row[mask] for row, mask in zip(rows, usage))
        counts = [len(sset) for sset in strategies]
        # moves[i][a]: resources whose bit i flips when digit i steps from a
        moves = [[tuple(sorted(set(sset[a]) ^ set(sset[(a + 1) % len(sset)])))
                  for a in range(len(sset))] for sset in strategies]
        digits = [0] * len(strategies)
        while True:
            yield tuple(digits), total
            i = len(digits) - 1
            while i >= 0:
                a = digits[i]
                bit = 1 << i
                for r in moves[i][a]:
                    row = rows[r]
                    mask = usage[r]
                    total -= row[mask]
                    mask ^= bit
                    usage[r] = mask
                    total += row[mask]
                a += 1
                if a < counts[i]:
                    digits[i] = a
                    break
                digits[i] = 0
                i -= 1
            else:
                return

    def stable(self, profile: Profile) -> bool:
        """No player can strictly lower its cost by a unilateral switch."""
        usage = self.usage
        for i, current in enumerate(profile):
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
                        return False
        return True

    def best_response(self, i: int, current: int) -> tuple[int, list[int]]:
        """i's best strategy and its scaled cost under each strategy; keeps
        ``current`` on a tie, else takes the lowest-index minimizer."""
        usage = self.usage
        bit = 1 << i
        costs = [sum(row[usage[r] | bit] for r, row in option)
                 for option in self.options[i]]
        best_c = min(costs)
        best = current if costs[current] == best_c else costs.index(best_c)
        return best, costs

    def move(self, i: int, old: int, new: int) -> None:
        """Switch player i from strategy ``old`` to ``new`` in ``usage``."""
        usage = self.usage
        bit = 1 << i
        for r in self.strategies[i][old]:
            usage[r] &= ~bit
        for r in self.strategies[i][new]:
            usage[r] |= bit

    def potential(self) -> Fraction | None:
        """The protocol's potential of the current profile, or None when
        the protocol has none."""
        rows = self.potentials
        if rows is None:
            return None
        return Fraction(sum(row[mask] for row, mask in zip(rows, self.usage)), self.scale)


def best_response(model: GameModel, protocol: Protocol, profile: Profile,
                  i: int) -> int:
    """Strategy index minimizing i's cost with everyone else fixed.

    Keeps the current strategy when it ties the minimum; otherwise picks
    the lowest-index minimizer.
    """
    player_mask((i,), model.n)
    return _Kernel(model, protocol).at(profile).best_response(i, profile[i])[0]


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
    profile: Profile
    converged: bool
    trace: tuple[BrdStep, ...]
    sweeps: int


def best_response_dynamics(model: GameModel, protocol: Protocol, start: Profile,
                           max_steps: int | None = None, *,
                           schedule: str = "round-robin",
                           seed: int = 0) -> BrdResult:
    """Iterate best responses in sweeps over all players.

    A sweep visits every player once, in index order, or with
    ``schedule="random"`` in the order ``random.Random(seed)`` shuffles. A
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
    elif not isinstance(max_steps, int) or isinstance(max_steps, bool):
        raise ValidationError(f"max_steps {max_steps!r} is not an int")
    elif max_steps < 0:
        raise ValidationError(f"max_steps {max_steps} is negative")
    if schedule not in ("round-robin", "random"):
        raise ValueError(f"unknown schedule {schedule!r}")
    rng = random.Random(seed) if schedule == "random" else None
    kernel = _Kernel(model, protocol).at(start)
    scale = kernel.scale

    profile = list(start)
    trace: list[BrdStep] = []
    sweeps = 0
    changes = 0
    while True:
        sweeps += 1
        dirty = False
        players = list(range(model.n))
        if rng is not None:
            rng.shuffle(players)
        for i in players:
            current = profile[i]
            best_s, costs = kernel.best_response(i, current)
            if best_s != current:
                if changes >= max_steps:
                    return BrdResult(tuple(profile), False, tuple(trace), sweeps)
                kernel.move(i, current, best_s)
                profile[i] = best_s
                changes += 1
                dirty = True
                trace.append(BrdStep(i, current, best_s, kernel.potential(),
                                     Fraction(costs[current], scale),
                                     Fraction(costs[best_s], scale)))
        if not dirty:
            return BrdResult(tuple(profile), True, tuple(trace), sweeps)


def is_pne(model: GameModel, protocol: Protocol, profile: Profile) -> bool:
    """No player can strictly lower its cost by a unilateral switch."""
    return _Kernel(model, protocol).at(profile).stable(profile)


def social_optimum(model: GameModel) -> tuple[Profile, Fraction]:
    """Profile of minimum social cost; lexicographically first on ties."""
    kernel = _Kernel(model)
    profile, cost = min(kernel.walk(kernel.costs), key=itemgetter(1))
    return profile, Fraction(cost, kernel.scale)


def potential_minimizer(model: GameModel) -> Profile:
    """Profile of minimum potential; lexicographically first on ties."""
    kernel = _Kernel(model, ShapleyProtocol())
    return min(kernel.walk(kernel.potentials), key=itemgetter(1))[0]


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
    for profile, cost in kernel.walk(kernel.costs):
        if opt_c is None or cost < opt_c:
            opt_p, opt_c = profile, cost
        if kernel.stable(profile):
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
