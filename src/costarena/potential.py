"""Exact potential for Shapley-shared games, and harmonic numbers.

The potential of a profile is the sum over resources of the
Hart--Mas-Colell potential of each resource's user set, which the Shapley
protocol already keeps as an integer for its shares
(``ShapleyProtocol.scaled_potential``). A unilateral deviation changes it
by exactly the deviator's private-cost change, which is what makes
best-response dynamics converge and bounds the stable outcomes.
"""

from __future__ import annotations

from fractions import Fraction

from .core import GameModel, Profile, ValidationError, full_mask
from .protocols import ShapleyProtocol

ZERO = Fraction(0)


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


def potential(model: GameModel, profile: Profile, live: int | None = None) -> Fraction:
    """Phi(P) over the profile's user sets.

    ``live`` optionally restricts to a subset of players (bitmask):
    everyone outside it is treated as absent, which is how partial
    profiles with removed players are evaluated.
    """
    usage = model.usage_masks(profile)
    if live is None:
        live = full_mask(model.n)
    shapley = ShapleyProtocol()
    return sum((Fraction(shapley.scaled_potential(f, u & live), shapley.share_scale(f))
                for f, u in zip(model.cost_fns, usage)), ZERO)
