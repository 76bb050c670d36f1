"""Reference formulas the tests check the package against.

These are the textbook definitions, written for clarity and kept apart
from the integer engines in ``costarena.protocols`` and
``costarena.equilibrium``:

* the Shapley share as the literal average of marginal costs over all
  orderings of the user set;
* the Shapley potential as the subset expansion

      Phi(P) = sum over resources r, sum over nonempty T subseteq users(r) of
               alpha(|users(r)|, |T|) * C^r(T)

  with alpha(k, t) = (t - 1)! (k - t)! / k!;
* the same potential built up from entry shares along a player order;
* a player's payment as ``Protocol.share`` summed, in ``Fraction``, over
  the resources it uses.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from costarena.core import (
    GameModel,
    Profile,
    SetCostFunction,
    ValidationError,
    iter_submasks,
    mask_members,
    read_mask,
)
from costarena.protocols import ProtocolError

ZERO = Fraction(0)


def shapley_share_by_permutations(f: SetCostFunction, users: int, i: int) -> Fraction:
    """Literal ordering average; exponential, capped at 8 users."""
    read_mask(users, f.n)
    if not (users >> i) & 1:
        return ZERO
    members = mask_members(users)
    if len(members) > 8:
        raise ProtocolError("permutation evaluation capped at 8 users")
    # every ordering counts; each distinct set of i's predecessors is priced once
    before: Counter = Counter()
    for order in itertools.permutations(members):
        seen = 0
        for p in order:
            if p == i:
                break
            seen |= 1 << p
        before[seen] += 1
    total = sum((count * (f.value(seen | (1 << i)) - f.value(seen))
                 for seen, count in before.items()), ZERO)
    return total / sum(before.values())


def shapley_shares_by_permutations(f: SetCostFunction, users: int) -> tuple:
    return tuple(shapley_share_by_permutations(f, users, i) for i in range(f.n))


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


def resource_potential(f, users: int) -> Fraction:
    """Potential contribution of one resource with user set ``users``."""
    if users == 0:
        return ZERO
    k = users.bit_count()
    coeff = alpha_table(k)
    values = f.anonymous_values
    if values is not None:
        # all size-t subsets cost the same; there are comb(k, t) of them
        return sum((coeff[t] * comb(k, t) * values[t] for t in range(1, k + 1)), ZERO)
    total = ZERO
    for t_mask in iter_submasks(users):
        if t_mask:
            total += coeff[t_mask.bit_count()] * f.value(t_mask)
    return total


def alpha_potential(model: GameModel, profile: Profile) -> Fraction:
    """Phi(P) over the profile's user sets, from ``resource_potential``."""
    usage = model.usage_masks(profile)
    return sum((resource_potential(f, u) for f, u in zip(model.cost_fns, usage)), ZERO)


def reference_private_cost(model: GameModel, protocol, profile: Profile, i: int) -> Fraction:
    """Player i's total payment: ``protocol.share`` summed over the
    resources in i's chosen strategy."""
    usage = model.usage_masks(profile)
    return sum((protocol.share(f, users, i)
                for f, users in zip(model.cost_fns, usage) if (users >> i) & 1), ZERO)


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
