"""Harmonic numbers.

The potential of a profile is ``equilibrium.potential``, a view of the
compiled kernel's potential rows; this module keeps only H_k, which the
gadget bounds and ``verify-bounds`` read. It stays a module of its own
while ``bench/tracing.py`` imports it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ValidationError


def harmonic(k: int) -> Fraction:
    """H_k = 1 + 1/2 + ... + 1/k as an exact rational (H_0 = 0)."""
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValidationError(f"harmonic number index {k!r} is not an int")
    if k < 0:
        raise ValidationError("harmonic number of a negative index")
    return sum((Fraction(1, j) for j in range(1, k + 1)), Fraction(0))
