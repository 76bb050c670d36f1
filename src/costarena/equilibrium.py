"""Equilibrium computation: best-response dynamics, exhaustive pure Nash
enumeration, social optimum and the anarchy/stability price ratios.

Every exhaustive operation runs on one walk, ``_walk``, which visits the
profile space in lexicographic order of strategy indices together with
each profile's usage masks, and every stability question runs on one
deviation routine, ``_deviation_cost``. ``analyze`` takes the equilibria,
their social costs and the optimum from a single walk. Ties break
lexicographically, so reports are reproducible. The profile-space size is
capped (default 10^7, overridable through the ARENA_MAX_PROFILES
environment variable).
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .core import CapExceededError, GameModel, Profile, usage_cost
from .potential import potential
from .protocols import Protocol, ShapleyProtocol

ZERO = Fraction(0)
DEFAULT_PROFILE_CAP = 10 ** 7

#: Ratio value when the optimum costs 0 but some equilibrium does not.
INFINITE = math.inf


def profile_cap() -> int:
    """Enumeration cap; ARENA_MAX_PROFILES overrides the default."""
    raw = os.environ.get("ARENA_MAX_PROFILES")
    if raw is None:
        return DEFAULT_PROFILE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"ARENA_MAX_PROFILES={raw!r} is not an integer") from None
    if cap <= 0:
        raise ValueError("ARENA_MAX_PROFILES must be positive")
    return cap


def _walk(model: GameModel):
    """Yield ``(profile, usage masks)`` for every profile, in lexicographic
    order; raises CapExceededError before the first one if the space is
    larger than the cap."""
    size = model.profile_space_size()
    cap = profile_cap()
    if size > cap:
        raise CapExceededError(f"profile space has {size} profiles, cap is {cap}")
    for profile in itertools.product(*(range(len(s)) for s in model.strategy_sets)):
        yield profile, model.usage_masks(profile)


def _deviation_cost(model: GameModel, protocol: Protocol, usage, i: int,
                    strategy: int) -> Fraction:
    """Cost player i would pay after unilaterally switching to ``strategy``,
    given the usage masks of the current profile."""
    bit = 1 << i
    fns = model.cost_fns
    total = ZERO
    for r in model._strategy_ridx[i][strategy]:
        total += protocol.share(fns[r], usage[r] | bit, i)
    return total


def _stable(model: GameModel, protocol: Protocol, profile: Profile, usage) -> bool:
    """No player can strictly lower its cost by a unilateral switch."""
    for i, current in enumerate(profile):
        cost_now = _deviation_cost(model, protocol, usage, i, current)
        for s in range(len(model.strategy_sets[i])):
            if s != current and _deviation_cost(model, protocol, usage, i, s) < cost_now:
                return False
    return True


def _best_response(model: GameModel, protocol: Protocol, usage, i: int,
                   current: int) -> tuple[int, list[Fraction]]:
    """i's best strategy and its cost under each of its strategies."""
    costs = [_deviation_cost(model, protocol, usage, i, s)
             for s in range(len(model.strategy_sets[i]))]
    best_c = min(costs)
    best = current if costs[current] == best_c else costs.index(best_c)
    return best, costs


def best_response(model: GameModel, protocol: Protocol, profile: Profile,
                  i: int) -> int:
    """Strategy index minimizing i's cost with everyone else fixed.

    Keeps the current strategy when it ties the minimum; otherwise picks
    the lowest-index minimizer.
    """
    usage = model.usage_masks(profile)
    return _best_response(model, protocol, usage, i, profile[i])[0]


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
                           seed: int | None = None) -> BrdResult:
    """Iterate best responses in sweeps over all players.

    A sweep visits every player once, in index order, or in a seeded
    shuffled order with ``schedule="random"``. The run converges when a
    full sweep accepts no change; ``max_steps`` bounds accepted changes
    (default 10x the profile-space size, comfortably above the number of
    distinct potential values). Under the Shapley protocol each trace entry
    records the potential of the profile after the change; under any other
    protocol ``phi`` is None, since that potential is not one for it.
    """
    model.validate_profile(start)
    if max_steps is None:
        max_steps = 10 * model.profile_space_size()
    if schedule not in ("round-robin", "random"):
        raise ValueError(f"unknown schedule {schedule!r}")
    rng = random.Random(seed) if schedule == "random" else None
    shapley = isinstance(protocol, ShapleyProtocol)

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
            if changes >= max_steps:
                return BrdResult(tuple(profile), False, tuple(trace), sweeps)
            current = profile[i]
            usage = model.usage_masks(tuple(profile))
            best_s, costs = _best_response(model, protocol, usage, i, current)
            if best_s != current:
                profile[i] = best_s
                changes += 1
                dirty = True
                phi = potential(model, tuple(profile)) if shapley else None
                trace.append(BrdStep(i, current, best_s, phi,
                                     costs[current], costs[best_s]))
        if not dirty:
            return BrdResult(tuple(profile), True, tuple(trace), sweeps)


def is_pne(model: GameModel, protocol: Protocol, profile: Profile) -> bool:
    """No player can strictly lower its cost by a unilateral switch."""
    return _stable(model, protocol, profile, model.usage_masks(profile))


def enumerate_pne(model: GameModel, protocol: Protocol) -> list[Profile]:
    """All pure Nash equilibria, in lexicographic profile order."""
    return [p for p, usage in _walk(model) if _stable(model, protocol, p, usage)]


def social_optimum(model: GameModel) -> tuple[Profile, Fraction]:
    """Profile of minimum social cost; lexicographically first on ties."""
    return min(((p, usage_cost(model, usage)) for p, usage in _walk(model)),
               key=itemgetter(1))


def potential_minimizer(model: GameModel) -> Profile:
    """Profile of minimum potential; lexicographically first on ties."""
    return min((p for p, _ in _walk(model)), key=lambda p: potential(model, p))


def _ratio(target: Fraction, opt: Fraction):
    if opt == 0:
        return Fraction(1) if target == 0 else INFINITE
    return target / opt


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the exhaustive analysis of one game produces.

    ``poa`` and ``pos`` are the worst and best equilibrium cost over the
    optimum cost: None when no pure Nash equilibrium exists, 1 when both
    costs are 0, infinite when only the optimum is 0.
    """

    protocol: str
    pne: tuple[Profile, ...]
    pne_costs: tuple[Fraction, ...]
    optimum: Profile
    optimum_cost: Fraction
    poa: object
    pos: object
    potentials: tuple[Fraction, ...] | None = None


def analyze(model: GameModel, protocol: Protocol, *,
            with_potential: bool = False) -> AnalysisReport:
    """Equilibria, their costs, the optimum and both ratios in one walk."""
    pne, costs = [], []
    opt_p = opt_c = None
    for profile, usage in _walk(model):
        cost = usage_cost(model, usage)
        if opt_c is None or cost < opt_c:
            opt_p, opt_c = profile, cost
        if _stable(model, protocol, profile, usage):
            pne.append(profile)
            costs.append(cost)
    if pne:
        poa = _ratio(max(costs), opt_c)
        pos = _ratio(min(costs), opt_c)
    else:
        poa = pos = None
    potentials = tuple(potential(model, p) for p in pne) if with_potential else None
    return AnalysisReport(protocol.name, tuple(pne), tuple(costs), opt_p, opt_c,
                          poa, pos, potentials)
