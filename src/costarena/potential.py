"""Exact potential for Shapley-shared games.

For a profile P the potential is

    Phi(P) = sum over resources r, sum over nonempty T subseteq users(r) of
             alpha(|users(r)|, |T|) * C^r(T)

with alpha(k, t) = (t - 1)! (k - t)! / k!.  A unilateral deviation changes
Phi by exactly the deviator's private-cost change, which is what makes
best-response dynamics converge and bounds the stable outcomes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .core import GameModel, Profile, ValidationError, full_mask, iter_submasks
from .protocols import shapley_share_by_permutations

ZERO = Fraction(0)


def alpha(k: int, t: int) -> Fraction:
    """Coefficient of C(T) with |T| = t inside a user set of size k."""
    if k < 1 or not 0 <= t <= k:
        raise ValidationError(f"need k >= 1 and 0 <= t <= k, got t={t}, k={k}")
    if t == 0:
        return ZERO
    return Fraction(factorial(t - 1) * factorial(k - t), factorial(k))


@lru_cache(maxsize=None)
def alpha_table(k: int) -> tuple:
    """alpha(k, t) for t = 0..k as a tuple (index by subset size)."""
    return tuple(alpha(k, t) for t in range(k + 1))


def harmonic(k: int) -> Fraction:
    """H_k = 1 + 1/2 + ... + 1/k as an exact rational (H_0 = 0)."""
    if k < 0:
        raise ValidationError("harmonic number of a negative index")
    return _harmonic_range(1, k + 1)


def _harmonic_range(lo: int, hi: int) -> Fraction:
    # sum of 1/j for lo <= j < hi, split to keep intermediate terms small
    if hi - lo <= 8:
        total = ZERO
        for j in range(lo, hi):
            total += Fraction(1, j)
        return total
    mid = (lo + hi) // 2
    return _harmonic_range(lo, mid) + _harmonic_range(mid, hi)


def resource_potential(f, users: int) -> Fraction:
    """Potential contribution of one resource with user set ``users``."""
    if users == 0:
        return ZERO
    k = users.bit_count()
    coeff = alpha_table(k)
    if f.anonymous_values is not None:
        # all size-t subsets cost the same; there are comb(k, t) of them
        return sum((coeff[t] * comb(k, t) * f.anonymous_values[t]
                    for t in range(1, k + 1)), ZERO)
    total = ZERO
    for t_mask in iter_submasks(users):
        if t_mask:
            total += coeff[t_mask.bit_count()] * f.value(t_mask)
    return total


def potential(model: GameModel, profile: Profile, live: int | None = None) -> Fraction:
    """Phi(P) over the profile's user sets.

    ``live`` optionally restricts to a subset of players (bitmask):
    everyone outside it is treated as absent, which is how partial
    profiles with removed players are evaluated.
    """
    usage = model.usage_masks(profile)
    if live is None:
        live = full_mask(model.n)
    return sum((resource_potential(f, u & live)
                for f, u in zip(model.cost_fns, usage)), ZERO)


def potential_by_permutation(model: GameModel, profile: Profile,
                             order: tuple[int, ...]) -> Fraction:
    """Phi as the summed entry shares along a player order.

    Players join one at a time following ``order``; each entrant is
    charged its share, on every resource it uses, within the users that
    have joined so far. Shares come from the permutation evaluator, so
    this path is independent of both ``potential`` and the potential-based
    share code; the result does not depend on the chosen order.
    """
    model.validate_profile(profile)
    if sorted(order) != list(range(model.n)):
        raise ValidationError(
            f"order {order!r} is not a permutation of all {model.n} players")
    usage = model.usage_masks(profile)
    total = ZERO
    joined = 0
    for i in order:
        joined |= 1 << i
        for f, users in zip(model.cost_fns, usage):
            if (users >> i) & 1:
                total += shapley_share_by_permutations(f, users & joined, i)
    return total
