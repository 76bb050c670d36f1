import random
from fractions import Fraction

import pytest

from oracle import (
    resource_potential,
    shapley_share_by_permutations,
    shapley_shares_by_permutations,
)

from costarena.core import (
    GameModel,
    SetCostFunction,
    ValidationError,
    full_mask,
    mask_members,
    player_mask,
)
from costarena.protocols import (
    GeneralizedWeightedShapley,
    Protocol,
    ProtocolError,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
    check_budget_balance,
    find_share_monotonicity_violation,
    private_cost,
    private_costs,
)

F = Fraction
SHAPLEY = ShapleyProtocol()


def random_monotone_cost(rng, n, num_max=8, den_max=3):
    table = [F(rng.randint(0, num_max), rng.randint(1, den_max))
             for _ in range(1 << n)]
    table[0] = F(0)
    for mask in range(1, 1 << n):
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            table[mask] = max(table[mask], table[mask ^ bit])
    return SetCostFunction(n, table)


# ---------------------------------------------------------------------------
# plain shapley
# ---------------------------------------------------------------------------

def test_singleton_share_is_full_cost():
    f = SetCostFunction.from_table(2, {(0,): 1, (1,): 3, (0, 1): 4})
    assert SHAPLEY.share(f, 0b01, 0) == 1
    assert SHAPLEY.share(f, 0b10, 1) == 3


def test_two_player_asymmetric_split():
    f = SetCostFunction.from_table(2, {(0,): 1, (1,): 3, (0, 1): 4})
    assert SHAPLEY.shares(f, 0b11) == (1, 3)


def test_anonymous_split_is_even():
    f = SetCostFunction.anonymous([0, 1, 3])
    assert SHAPLEY.shares(f, 0b11) == (F(3, 2), F(3, 2))


def test_threshold_edge_split():
    # free below 4 users, 7/2 once all four pile on
    f = SetCostFunction.anonymous([0, 0, 0, 0, F(7, 2)])
    assert SHAPLEY.share(f, 0b1111, 2) == F(7, 8)


def test_non_member_pays_nothing():
    f = SetCostFunction.anonymous([0, 1, 3])
    assert SHAPLEY.share(f, 0b01, 1) == 0
    assert SHAPLEY.shares(f, 0) == (F(0), F(0))
    assert SHAPLEY.shares(f, 0b10) == (F(0), F(1))


def test_shares_always_full_length():
    f = SetCostFunction.anonymous([0, 2, 2, 2])
    got = SHAPLEY.shares(f, 0b101)
    assert len(got) == 3
    assert got == (F(1), F(0), F(1))


def test_arity_mismatch_rejected():
    f = SetCostFunction.anonymous([0, 1])
    with pytest.raises(ProtocolError):
        SHAPLEY.share(f, 0b10, 1)


# ---------------------------------------------------------------------------
# permutation oracle
# ---------------------------------------------------------------------------

def test_permutation_average_symmetric_example():
    f = SetCostFunction.anonymous([0, 6, 6, 6])
    assert shapley_shares_by_permutations(f, 0b111) == (F(2), F(2), F(2))


def test_permutation_average_matches_subset_sum():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 5)
        f = random_monotone_cost(rng, n)
        for users in range(1 << n):
            fast = SHAPLEY.shares(f, users)
            slow = shapley_shares_by_permutations(f, users)
            assert fast == slow, (f, users)


def test_permutation_oracle_refuses_large_sets():
    f = SetCostFunction.zero(9)
    with pytest.raises(ProtocolError):
        shapley_share_by_permutations(f, full_mask(9), 0)


def test_permutation_oracle_non_member_zero():
    f = SetCostFunction.anonymous([0, 1, 3])
    assert shapley_share_by_permutations(f, 0b01, 1) == 0


def test_shares_sum_to_total_cost():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 6)
        f = random_monotone_cost(rng, n)
        users = rng.randrange(1 << n)
        assert sum(SHAPLEY.shares(f, users)) == f.value(users)


def test_dummy_player_pays_zero():
    # player 2 never changes the cost, so it rides free
    table = {}
    for mask in range(8):
        table[tuple(mask_members(mask))] = F((mask & 1) + ((mask >> 1) & 1) * 2)
    f = SetCostFunction.from_table(3, table)
    assert SHAPLEY.share(f, 0b111, 2) == 0
    assert SHAPLEY.shares(f, 0b111) == (F(1), F(2), F(0))


def test_shares_nonnegative_for_monotone_costs():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 5)
        f = random_monotone_cost(rng, n)
        users = rng.randrange(1 << n)
        assert all(s >= 0 for s in SHAPLEY.shares(f, users))


def test_protocol_object_caches_consistently():
    p = ShapleyProtocol()
    f = SetCostFunction.anonymous([0, 1, 3])
    first = p.share(f, 0b11, 0)
    assert p.share(f, 0b11, 0) == first == F(3, 2)
    assert p.shares(f, 0b11) == (F(3, 2), F(3, 2))


# ---------------------------------------------------------------------------
# weighted variant
# ---------------------------------------------------------------------------

def test_weight_system_validation():
    with pytest.raises(ValidationError):
        WeightSystem((F(0), F(1)), (frozenset({0, 1}),))  # zero weight
    with pytest.raises(ValidationError):
        WeightSystem((F(1), F(1)), (frozenset({0}),))  # block misses player 1
    with pytest.raises(ValidationError):
        WeightSystem((F(1), F(1)), (frozenset({0, 1}), frozenset({1}),))
    with pytest.raises(ValidationError, match="player count 17"):
        WeightSystem.plain(17)  # GWS enumerates the subset sums of each block
    w = WeightSystem.plain(3)
    assert w.n == 3
    assert w.block_of(2) == 0


def test_plain_weights_reduce_to_shapley():
    rng = random.Random(5150)
    for _ in range(25):
        n = rng.randint(1, 4)
        f = random_monotone_cost(rng, n)
        p = GeneralizedWeightedShapley(WeightSystem.plain(n))
        for users in range(1 << n):
            for i in range(n):
                assert p.share(f, users, i) == SHAPLEY.share(f, users, i)


def test_unequal_weights_single_block():
    # one block, weights 1 and 2: joint surplus splits 1:2
    f = SetCostFunction.from_table(2, {(0,): 1, (1,): 3, (0, 1): 6})
    w = WeightSystem((F(1), F(2)), (frozenset({0, 1}),))
    p = GeneralizedWeightedShapley(w)
    # dividends: d({0})=1, d({1})=3, d({0,1})=2
    assert p.share(f, 0b11, 0) == 1 + F(2) * F(1, 3)
    assert p.share(f, 0b11, 1) == 3 + F(2) * F(2, 3)


def test_ordered_blocks_charge_earliest_block():
    # the whole pair dividend lands on the first block's member
    f = SetCostFunction.from_table(2, {(0,): 1, (1,): 3, (0, 1): 6})
    w = WeightSystem((F(1), F(1)), (frozenset({0}), frozenset({1})))
    p = GeneralizedWeightedShapley(w)
    assert p.shares(f, 0b11) == (F(3), F(3))
    # flipped priority moves the surplus to the other player
    w2 = WeightSystem((F(1), F(1)), (frozenset({1}), frozenset({0})))
    p2 = GeneralizedWeightedShapley(w2)
    assert p2.shares(f, 0b11) == (F(1), F(5))


def test_gws_non_member_and_empty():
    f = SetCostFunction.anonymous([0, 1, 3])
    p = GeneralizedWeightedShapley(WeightSystem((F(2), F(1)), (frozenset({0, 1}),)))
    assert p.share(f, 0b01, 1) == 0
    assert p.share(f, 0, 0) == 0


def random_weight_system(rng, n):
    weights = tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n))
    players = list(range(n))
    rng.shuffle(players)
    blocks, at = [], 0
    while at < len(players):
        take = rng.randint(1, len(players) - at)
        blocks.append(frozenset(players[at:at + take]))
        at += take
    return WeightSystem(weights, tuple(blocks))


def test_gws_budget_balance_random_systems():
    rng = random.Random(8080)
    for _ in range(25):
        n = rng.randint(1, 5)
        f = random_monotone_cost(rng, n)
        p = GeneralizedWeightedShapley(random_weight_system(rng, n))
        assert check_budget_balance(p, f)


def gws_share_by_dividends(f, users, i, w):
    """Reference: the Moebius dividend d(T) of every coalition T within
    ``users`` goes to T's members in the earliest block T touches, in
    proportion to their weights."""
    total = F(0)
    for t in range(1, 1 << f.n):
        if t & ~users or not (t >> i) & 1:
            continue
        d = sum((-1) ** (t.bit_count() - s.bit_count()) * f.value(s)
                for s in range(t + 1) if s & ~t == 0)
        top = next(t & player_mask(b) for b in w.blocks if t & player_mask(b))
        if (top >> i) & 1:
            total += d * w.weights[i] / sum(w.weights[j] for j in mask_members(top))
    return total


def test_gws_matches_dividend_reference():
    rng = random.Random(2718)
    systems = [random_weight_system(rng, rng.randint(1, 5)) for _ in range(40)]
    systems.append(WeightSystem((F(3), F(1, 2), F(2), F(1), F(5, 3)),
                                ((3,), (0,), (4,), (1,), (2,))))
    for w in systems:
        n = w.n
        p = GeneralizedWeightedShapley(w)  # one instance across cost functions
        marginals = sorted(F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n))
        costs = [random_monotone_cost(rng, n), random_monotone_cost(rng, n),
                 SetCostFunction.anonymous([0] + [sum(marginals[:k + 1]) for k in range(n)])]
        for f in costs:
            for users in range(1 << n):
                for i in range(n):
                    assert p.share(f, users, i) == gws_share_by_dividends(f, users, i, w)


def test_gws_arity_guard():
    f = SetCostFunction.anonymous([0, 1])
    p = GeneralizedWeightedShapley(WeightSystem.plain(2))
    with pytest.raises(ProtocolError):
        p.share(f, 0b1, 0)


# ---------------------------------------------------------------------------
# table protocols
# ---------------------------------------------------------------------------

def test_table_protocol_overrides_and_falls_back():
    f = SetCostFunction.anonymous([0, 1, 3])
    t = TableProtocol()
    t.set_entry(f, 0b11, {0: F(1), 1: F(2)})
    assert t.shares(f, 0b11) == (F(1), F(2))
    # untouched user sets route to the fallback
    assert t.share(f, 0b01, 0) == 1


def test_table_protocol_entry_validation():
    f = SetCostFunction.anonymous([0, 1, 3])
    t = TableProtocol()
    with pytest.raises(ValidationError):
        t.set_entry(f, 0b11, {0: F(1), 1: F(1)})  # sums to 2, cost is 3
    with pytest.raises(ValidationError):
        t.set_entry(f, 0b01, {1: F(1)})  # pays a player outside the set
    t.set_entry(f, 0b11, {0: F(1), 1: F(1)}, validate=False)
    assert t.shares(f, 0b11) == (F(1), F(1))


def test_table_protocol_can_express_broken_rules():
    f = SetCostFunction.anonymous([0, 1, 3])
    t = TableProtocol()
    t.set_entry(f, 0b01, {0: F(0), 1: F(1)}, validate=False)
    assert t.share(f, 0b01, 1) == 1  # absent player gets billed
    assert not check_budget_balance(t, f)


def test_budget_balance_detects_bad_sum():
    f = SetCostFunction.anonymous([0, 1, 3])
    t = TableProtocol()
    t.set_entry(f, 0b11, {0: F(1), 1: F(3)}, validate=False)
    assert not check_budget_balance(t, f)
    assert check_budget_balance(ShapleyProtocol(), f)


def test_floats_rejected_in_weights_and_share_entries():
    with pytest.raises(ValidationError, match="float weight 0.1 rejected"):
        WeightSystem((0.1, 1.0), ((0, 1),))
    f = SetCostFunction.anonymous([0, 1, 3])
    t = TableProtocol()
    with pytest.raises(ValidationError, match="float share 0.5 rejected"):
        t.set_entry(f, 0b01, {0: 0.5}, validate=False)
    assert t.entries == {}


# ---------------------------------------------------------------------------
# integer shares
# ---------------------------------------------------------------------------

class EvenSplit(Protocol):
    """Defines ``share`` only: the scaled share and the share scale come
    from the base class."""

    name = "even"

    def share(self, f, users, i):
        return f.value(users) / users.bit_count() if (users >> i) & 1 else F(0)


def test_scaled_share_is_share_times_share_scale():
    rng = random.Random(4242)
    for _ in range(20):
        n = rng.randint(1, 4)
        marginals = sorted(F(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n))
        costs = [random_monotone_cost(rng, n),
                 SetCostFunction.anonymous([0] + [sum(marginals[:k + 1]) for k in range(n)])]
        with_fallback, without = TableProtocol(), TableProtocol(fallback=None)
        for f in costs:
            for users in range(1 << n):
                rigged = {i: F(rng.randint(0, 9), rng.randint(1, 5)) for i in range(n)}
                without.set_entry(f, users, rigged, validate=False)
                if rng.random() < 0.3:
                    with_fallback.set_entry(f, users, rigged, validate=False)
        protocols = [ShapleyProtocol(), GeneralizedWeightedShapley(random_weight_system(rng, n)),
                     with_fallback, without, EvenSplit()]
        for p in protocols:
            for f in costs:
                scale = p.share_scale(f)
                for users in range(1 << n):
                    for i in range(n):
                        scaled = p.scaled_share(f, users, i)
                        assert type(scaled) is int
                        assert scaled == p.share(f, users, i) * scale
    f = SetCostFunction.anonymous([0, 1, 3])
    built = TableProtocol({(f, 0b11): {0: F(1, 7), 1: F(20, 7)}}, fallback=None)
    assert built.share_scale(f) == 7 and built.scaled_share(f, 0b11, 1) == 20


def test_scaled_share_asks_for_the_share_scale_once():
    calls = []

    class Counted(EvenSplit):
        def share(self, f, users, i):
            calls.append((users, i))
            return super().share(f, users, i)

    p, f = Counted(), SetCostFunction.anonymous([0, 1, 3, 4])
    # the default share_scale evaluates all 3 * 8 shares, then each call one
    assert [p.scaled_share(f, users, 0) for users in (0b001, 0b011, 0b111)] == [6, 9, 8]
    assert len(calls) == 3 * 8 + 3
    assert p.scaled_share(SetCostFunction.anonymous([0, 1, 3, 4]), 0b111, 1) == 8
    assert len(calls) == 3 * 8 + 4

    table = TableProtocol()
    assert table.scaled_share(f, 0b011, 0) == 9
    table.set_entry(f, 0b011, {0: F(1, 5), 1: F(14, 5)})
    assert table.share_scale(f) == 30 and table.scaled_share(f, 0b011, 0) == 6


def test_scaled_share_rejects_a_share_scale_too_small():
    class WrongScale(EvenSplit):
        def share_scale(self, f):
            return f.denominator

    f = SetCostFunction.anonymous([0, 1, 3])
    assert WrongScale().scaled_share(f, 0b01, 0) == 1
    with pytest.raises(ProtocolError, match="'even' gave share 3/2, which is not a "
                                            "multiple of 1/1: its share_scale is wrong"):
        WrongScale().scaled_share(f, 0b11, 0)


# ---------------------------------------------------------------------------
# share monotonicity probe
# ---------------------------------------------------------------------------

def test_shapley_is_monotone_on_constant_costs():
    f = SetCostFunction.anonymous([0] + [5] * 4)
    assert find_share_monotonicity_violation(ShapleyProtocol(), f) is None


def test_monotonicity_violation_found():
    # grow the user set, watch player 0's bill go up: flagged
    f = SetCostFunction.anonymous([0, 2, 2])
    t = TableProtocol()
    t.set_entry(f, 0b01, {0: F(1, 2)}, validate=False)
    t.set_entry(f, 0b11, {0: F(2), 1: F(0)}, validate=False)
    hit = find_share_monotonicity_violation(t, f)
    assert hit == (0, 0b01, 0b11)


def test_monotonicity_probe_respects_within_mask():
    f = SetCostFunction.anonymous([0, 2, 2, 2])
    t = TableProtocol()
    t.set_entry(f, 0b011, {0: F(2), 1: F(0)}, validate=False)
    assert find_share_monotonicity_violation(t, f) == (1, 0b011, 0b111)
    # restricting attention to players {0, 2} hides the {0,1} pair
    assert find_share_monotonicity_violation(t, f, within=0b101) is None


# ---------------------------------------------------------------------------
# private cost
# ---------------------------------------------------------------------------

def test_private_cost_sums_player_resources():
    fa = SetCostFunction.anonymous([0, 0, F(3, 2)])
    fb = SetCostFunction.anonymous([0, 1, 2])
    g = GameModel(
        2, ("a", "b"),
        ((frozenset({"a"}), frozenset({"b"})), (frozenset({"a", "b"}),)),
        (fa, fb),
    )
    p = ShapleyProtocol()
    assert private_cost(g, p, (0, 0), 0) == F(3, 4)
    assert private_cost(g, p, (0, 0), 1) == F(3, 4) + 1
    # split on resource b, player 1 alone on a rides its free low tier
    assert private_costs(g, p, (1, 0)) == (F(1), F(1))


def test_private_costs_cover_social_cost():
    # budget balance per resource lifts to whole profiles
    rng = random.Random(2024)
    fa = random_monotone_cost(rng, 3)
    fb = random_monotone_cost(rng, 3)
    g = GameModel(
        3, ("a", "b"),
        ((frozenset({"a"}), frozenset({"b"})),
         (frozenset({"a", "b"}), frozenset()),
         (frozenset({"b"}),)),
        (fa, fb),
    )
    p = ShapleyProtocol()
    from costarena.core import social_cost
    for profile in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]:
        assert sum(private_costs(g, p, profile)) == social_cost(g, profile)


def test_protocol_base_share_contract():
    from costarena.protocols import _check_arity

    class Half(Protocol):
        name = "half"

        def share(self, f, users, i):
            _check_arity(f, users)
            if not (users >> i) & 1:
                return F(0)
            return f.value(users) / users.bit_count() if users else F(0)

    f = SetCostFunction.anonymous([0, 1, 4])
    p = Half()
    assert p.shares(f, 0b11) == (F(2), F(2))
    assert p.share(f, 0b01, 1) == 0


# ---------------------------------------------------------------------------
# integer share engine: share scales and the Hart--Mas-Colell potential
# ---------------------------------------------------------------------------

def random_costs(seed, count=12, max_n=6):
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 1 + k % max_n
        if k % 3 == 2:
            marginals = [F(rng.randint(0, 9), rng.randint(1, 6)) for _ in range(n)]
            values = [F(0)]
            for m in marginals:
                values.append(values[-1] + m)
            out.append(SetCostFunction.anonymous(values))
        else:
            out.append(random_monotone_cost(rng, n, den_max=6))
    return out


def assert_scale_makes_shares_integral(protocol, f):
    scale = protocol.share_scale(f)
    assert isinstance(scale, int) and scale > 0
    for users in range(1 << f.n):
        for i in range(f.n):
            try:
                value = protocol.share(f, users, i)
            except ProtocolError:
                continue
            assert (scale * value).denominator == 1, (users, i, value, scale)


def test_share_scale_shapley_and_gws():
    for f in random_costs(41):
        n = f.n
        weights = tuple(F(2 * i + 1, i % 3 + 2) for i in range(n))
        one_block = WeightSystem(weights, (tuple(range(n)),))
        blocks = (tuple(range(0, n, 3)), tuple(j for j in range(n) if j % 3))
        multi = WeightSystem(weights, tuple(b for b in blocks if b))
        for protocol in (ShapleyProtocol(), GeneralizedWeightedShapley(one_block),
                         GeneralizedWeightedShapley(multi)):
            assert_scale_makes_shares_integral(protocol, f)


def test_share_scale_tables_and_share_only_subclass():
    from costarena.protocols import _check_arity

    class Half(Protocol):
        name = "half"

        def share(self, f, users, i):
            _check_arity(f, users)
            if not (users >> i) & 1:
                return F(0)
            return f.value(users) / users.bit_count()

    rng = random.Random(43)
    for f in random_costs(42):
        n = f.n
        validated = TableProtocol()
        loose = TableProtocol()
        bare = TableProtocol(fallback=None)
        for users in rng.sample(range(1, 1 << n), min(3, (1 << n) - 1)):
            members = mask_members(users)
            dens = rng.choices(range(1, 8), k=len(members) - 1)
            cuts = sorted(F(rng.randint(0, d), d) for d in dens)
            parts = [b - a for a, b in zip([F(0)] + cuts, cuts + [F(1)])]
            validated.set_entry(f, users, {i: f.value(users) * p
                                           for i, p in zip(members, parts)})
            off = {i: F(rng.randint(0, 9), rng.randint(1, 13)) for i in range(n)}
            loose.set_entry(f, users, off, validate=False)
            bare.set_entry(f, users, off, validate=False)
        for protocol in (validated, loose, bare, Half()):
            assert_scale_makes_shares_integral(protocol, f)


def test_hmc_share_equals_permutation_average():
    for f in random_costs(44):
        p = ShapleyProtocol()
        for users in range(1 << f.n):
            for i in range(f.n):
                assert p.share(f, users, i) == shapley_share_by_permutations(f, users, i)


def test_hmc_potential_equals_alpha_formula():
    for f in random_costs(45):
        p = ShapleyProtocol()
        scale = p.share_scale(f)
        for users in range(1 << f.n):
            q = p.scaled_potential(f, users)
            assert isinstance(q, int)
            assert F(q, scale) == resource_potential(f, users)
