import gc
import random
import weakref
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest

from oracle import (
    resource_potential,
    shapley_share_by_permutations,
    shapley_shares_by_permutations,
)

from costarena.core import (
    GameModel,
    Memo,
    SetCostFunction,
    ValidationError,
    full_mask,
    iter_submasks,
    mask_members,
    parse_fraction,
    player_mask,
    read_mask,
    scale_lcm,
)
from costarena.equilibrium import (
    analyze, best_response_dynamics, is_pne, private_cost, private_costs)
from costarena.gamefile import cost_to_json, fraction_to_str, table_protocol_from_json
from costarena.protocols import (
    GeneralizedWeightedShapley,
    Protocol,
    ProtocolError,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
    check_budget_balance,
    find_share_monotonicity_violation,
)
from costarena.randomgames import COST_CLASSES, corpus, random_cost

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
    with pytest.raises(ValidationError):
        SHAPLEY.share(f, 0b10, 1)


def test_scaled_share_names_a_user_set_outside_the_arity():
    # every protocol gives read_mask's message and class
    gws = GeneralizedWeightedShapley(WeightSystem.plain(2))
    for f in (SetCostFunction.anonymous([0, 1, 2]),
              SetCostFunction.from_table(2, {0b01: 1, 0b10: 1, 0b11: 1})):
        for protocol in (SHAPLEY, gws, TableProtocol()):
            with pytest.raises(ValidationError) as caught:
                protocol.scaled_share(f, 0b100, 0)
            assert str(caught.value) == "user set 0b100 outside arity 2"


#: Every entry point that takes a user mask of a cost function from outside,
#: as a call on one mask of a 2-player table cost.
USER_SET_ENTRY_POINTS = {
    "share": lambda f, u: SHAPLEY.share(f, u, 0),
    "shares": lambda f, u: SHAPLEY.shares(f, u),
    "shapley scaled_share": lambda f, u: ShapleyProtocol().scaled_share(f, u, 0),
    "scaled_potential": lambda f, u: ShapleyProtocol().scaled_potential(f, u),
    "gws scaled_share": lambda f, u: GeneralizedWeightedShapley(
        WeightSystem.plain(2)).scaled_share(f, u, 0),
    "table scaled_share": lambda f, u: TableProtocol().scaled_share(f, u, 0),
    "scaled": lambda f, u: f.scaled(u),
    "value": lambda f, u: f.value(u),
    "from_table int key": lambda f, u: SetCostFunction.from_table(2, {u: 1}),
    "within": lambda f, u: find_share_monotonicity_violation(SHAPLEY, f, within=u),
}


@pytest.mark.parametrize("users, message", [
    (True, "{} True is not an int"),
    (1.0, "{} 1.0 is not an int"),
    ("3", "{} '3' is not an int"),
    (b"\x01\x00", "{} b'\\x01\\x00' is not an int"),
    (-1, "{} -0b1 outside arity 2"),
    (0b100, "{} 0b100 outside arity 2"),
])
@pytest.mark.parametrize("entry", list(USER_SET_ENTRY_POINTS))
def test_every_user_set_entry_point_takes_an_int_mask(entry, users, message):
    # a bool is not read as the mask 0b1, no other value reaches a shift,
    # a str or bytes key of from_table is not read as a collection of ids,
    # and a scope outside the arity is refused, not searched as empty
    call = USER_SET_ENTRY_POINTS[entry]
    f = SetCostFunction.from_table(2, {0b01: 1, 0b10: 1, 0b11: 1})
    call(f, 0b11)
    with pytest.raises(ValueError) as caught:
        call(f, users)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == message.format("user set")


@pytest.mark.parametrize("i, message", [
    (True, "player id True is not an int"),
    (1.0, "player id 1.0 is not an int"),
    (-1, "player id -1 in (-1,) out of range 0..1"),
    (2, "player id 2 in (2,) out of range 0..1"),
])
@pytest.mark.parametrize("protocol", [
    ShapleyProtocol(), GeneralizedWeightedShapley(WeightSystem.plain(2)), TableProtocol()],
    ids=["shapley", "gws", "table"])
def test_scaled_share_reads_its_player_as_share_does(protocol, i, message):
    # a bool is not read as player 1, an id past the arity does not pay 0,
    # and no other value reaches a shift: the message is player_mask's
    f = SetCostFunction.from_table(2, {0b01: 1, 0b10: 4, 0b11: 5})
    for call in (protocol.scaled_share, protocol.share):
        with pytest.raises(ValidationError) as caught:
            call(f, 0b11, i)
        assert str(caught.value) == message


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
    with pytest.raises(ValidationError) as caught:
        w.block_of(3)
    assert str(caught.value) == "player id 3 in (3,) out of range 0..2"
    with pytest.raises(ValidationError) as caught:
        WeightSystem((1, 1, 1), ((0,), (1, 2))).block_of(True)  # not player 1
    assert str(caught.value) == "player id True is not an int"


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
        top = next(t & player_mask(b, f.n) for b in w.blocks if t & player_mask(b, f.n))
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


def test_protocol_attributes_cannot_be_rebound():
    f = SetCostFunction.anonymous([0, 1, 3])
    g = SetCostFunction.from_table(3, {(0,): 1, (1,): 2, (2,): 2, (0, 1): 2, (0, 2): 3,
                                       (1, 2): 3, (0, 1, 2): 4})
    t = TableProtocol({(f, 0b11): {0: F(1), 1: F(2)}}, players=2)
    system = WeightSystem((F(2), F(1)), ((1,), (0,)))
    gws = GeneralizedWeightedShapley(system)
    assert gws.system is system
    before = (t.shares(f, 0b11), t.shares(f, 0b01), gws.shares(f, 0b11))
    for protocol, name, value in ((t, "players", "2"), (t, "players", 3),
                                  (t, "fallback", None), (t, "entries", {}),
                                  (gws, "system", WeightSystem.plain(3))):
        with pytest.raises(AttributeError):
            setattr(protocol, name, value)
    assert t.players == 2 and isinstance(t.fallback, ShapleyProtocol) and gws.system is system
    assert (t.shares(f, 0b11), t.shares(f, 0b01), gws.shares(f, 0b11)) == before
    with pytest.raises(ProtocolError):  # still a 2-player system
        gws.share(g, 0b111, 2)
    t.set_entry(f, 0b01, {0: F(1)})  # the store still fills
    assert t.share(f, 0b01, 0) == 1 and len(t.entries) == 2


def test_floats_rejected_in_weights_and_share_entries():
    with pytest.raises(ValidationError, match="not an exact rational: 0.1"):
        WeightSystem((0.1, 1.0), ((0, 1),))
    f = SetCostFunction.anonymous([0, 1, 3])
    t = TableProtocol()
    with pytest.raises(ValidationError, match="not an exact rational: 0.5"):
        t.set_entry(f, 0b01, {0: 0.5}, validate=False)
    assert t.entries == {}


def share_column(rng, k):
    """k share values of one seeded kind: "p/q" strings, ints, Fractions, other
    strings ``Fraction`` parses, or a mix of these; about a third of the
    columns then get one value that ``parse_fraction`` refuses."""
    draw = {
        "file": lambda: f"{rng.randint(0, 99)}/{rng.randint(1, 9)}",
        "int": lambda: rng.randint(-9, 99),
        "fraction": lambda: F(rng.randint(-9, 99), rng.randint(1, 9)),
        "text": lambda: rng.choice([" 1/3 ", "1.5", "2e2", "7", "-4/6", "03/004"]),
    }
    kind = rng.choice([*draw, "mixed"])
    column = [(draw.get(kind) or rng.choice(list(draw.values())))() for _ in range(k)]
    if rng.random() < 0.3:
        column[rng.randrange(k)] = rng.choice(
            [0.5, True, None, "x", "1/0", "1e-5000", "9" * 4301 + "/1", 10 ** 4300,
             F(1, 10 ** 4300)])
    return column


def test_share_entry_column_reads_like_each_share():
    # a share column read at once gives the values, or the first message,
    # that parse_fraction gives share by share
    rng = random.Random(36)
    for _ in range(300):
        k = rng.randint(1, 5)
        f = SetCostFunction.anonymous(list(range(k + 1)))
        column = share_column(rng, k)
        table = TableProtocol()
        try:
            expected = {i: parse_fraction(v) for i, v in enumerate(column)}
        except ValidationError as exc:
            with pytest.raises(ValidationError) as caught:
                table.set_entry(f, full_mask(k), dict(enumerate(column)), validate=False)
            assert str(caught.value) == str(exc) and table.entries == {}
            continue
        table.set_entry(f, full_mask(k), dict(enumerate(column)), validate=False)
        shares = table.entries[(f, full_mask(k))]
        assert shares == expected and list(shares) == list(range(k))
        assert all(type(v) is Fraction for v in shares.values())


def test_table_share_scale_reads_only_listed_entries(monkeypatch):
    # every store lookup hashes the cost function; on a 16-player cost
    # share_scale reads its listed entries, not its 2^16 user sets
    f = SetCostFunction.anonymous(list(range(17)))
    table = TableProtocol()
    listed = {0b11: {0: F(1, 3), 1: F(5, 3)}, 0b101: {0: F(1, 5), 2: F(9, 5)},
              1 << 15: {15: F(1)}, 0b1 << 8: {8: F(1, 7)}}
    for users, shares in listed.items():
        table.set_entry(f, users, shares, validate=False)
    calls = 0
    hash_of = SetCostFunction.__hash__

    def counted(self):
        nonlocal calls
        calls += 1
        return hash_of(self)

    monkeypatch.setattr(SetCostFunction, "__hash__", counted)
    assert table.share_scale(f) == lcm(SHAPLEY.share_scale(f), 3, 5, 7)
    assert 0 < calls <= len(listed)


# ---------------------------------------------------------------------------
# integer shares
# ---------------------------------------------------------------------------

class EvenSplit(Protocol):
    """Even split on the integer share contract, as a protocol defined
    outside the package would give it."""

    name = "even"

    def share_scale(self, f):
        return f.denominator * lcm(*range(1, f.n + 1))

    def scaled_share(self, f, users, i):
        if not (users >> i) & 1:
            return 0
        return f.scaled(users) * lcm(*range(1, f.n + 1)) // users.bit_count()


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
        for p in (ShapleyProtocol(), GeneralizedWeightedShapley(random_weight_system(rng, n)),
                  EvenSplit()):
            for f in costs:
                for users in range(1 << n):
                    for i in range(n):
                        assert type(p.scaled_share(f, users, i)) is int
        for f in costs:
            for users in range(1, 1 << n):
                for i in mask_members(users):
                    assert EvenSplit().share(f, users, i) == f.value(users) / users.bit_count()
        # a table's share is its entry's value, else the fallback's share
        for table in (with_fallback, without):
            for f in costs:
                scale = table.share_scale(f)
                for users in range(1 << n):
                    entry = table.entries.get((f, users))
                    for i in range(n):
                        want = (entry.get(i, 0) if entry is not None
                                else table.fallback.share(f, users, i))
                        scaled = table.scaled_share(f, users, i)
                        assert type(scaled) is int and scaled == want * scale
                        assert table.share(f, users, i) == want
    f = SetCostFunction.anonymous([0, 1, 3])
    built = TableProtocol({(f, 0b11): {0: F(1, 7), 1: F(20, 7)}}, fallback=None)
    assert built.share_scale(f) == 7 and built.scaled_share(f, 0b11, 1) == 20


def test_scaled_share_asks_for_the_share_scale_once(monkeypatch):
    import costarena.protocols as protocols
    lcms = []

    def counted(values, what):
        lcms.append(what)
        return scale_lcm(values, what)

    monkeypatch.setattr(protocols, "scale_lcm", counted)
    f = SetCostFunction.anonymous([0, 1, 3, 4])
    table = TableProtocol()
    # one share scale per cost function, then every share reads it
    assert [table.scaled_share(f, users, 0) for users in (0b001, 0b011, 0b111)] == [6, 9, 8]
    assert table.share(f, 0b011, 1) == F(3, 2) and len(lcms) == 1
    table.set_entry(f, 0b011, {0: F(1, 5), 1: F(14, 5)})
    assert table.share_scale(f) == 30 and table.scaled_share(f, 0b011, 0) == 6
    assert table.scaled_share(f, 0b111, 0) == 40 and len(lcms) == 2


def test_protocols_make_no_reference_cycles():
    # a protocol that analyze has used, memos filled, is freed by reference
    # counting alone: with the cyclic collector off, its weak reference dies
    # and it leaves no cyclic garbage behind (its memos included)
    rng = random.Random(46)
    f, h = random_monotone_cost(rng, 3), SetCostFunction.anonymous([0, 1, F(3, 2), 2])
    both = (frozenset({"f"}), frozenset({"h"}), frozenset({"f", "h"}))
    g = GameModel(3, ("f", "h"), (both,) * 3, (f, h))

    def used(protocol):
        analyze(g, protocol)
        protocol.shares(f, 0b111)
        return weakref.ref(protocol)

    def table():
        t = TableProtocol()
        t.set_entry(f, 0b011, {0: F(1, 7), 1: f.value(0b011) - F(1, 7)})
        return t

    def lazy():
        # analyze walks 27 >= 2^3 profiles, so Shapley keeps f's potential
        # whole; a per-profile call fills the weak-proxy memo instead
        p = ShapleyProtocol()
        is_pne(g, p, (0, 1, 2))
        assert isinstance(p._by_mask.get(f), Memo)
        return weakref.ref(p)

    gc.collect()
    gc.disable()
    try:
        for make in (table, ShapleyProtocol,
                     lambda: GeneralizedWeightedShapley(random_weight_system(rng, 3))):
            ref = used(make())
            assert ref() is None and gc.collect() == 0, make
        ref = lazy()
        assert ref() is None and gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# share monotonicity probe
# ---------------------------------------------------------------------------

def test_shapley_is_monotone_on_constant_costs():
    f = SetCostFunction.anonymous([0] + [5] * 4)
    assert find_share_monotonicity_violation(ShapleyProtocol(), f) is None


def test_gws_is_monotone_on_constant_costs():
    # the pos_nharmonic builder leans on this, over its detour players, without probing
    rng = random.Random(2424)
    for _ in range(60):
        n = rng.randint(1, 5)
        f = SetCostFunction.anonymous([0] + [F(rng.randint(1, 9), rng.randint(1, 4))] * n)
        system = random_weight_system(rng, n)
        assert find_share_monotonicity_violation(GeneralizedWeightedShapley(system), f) is None


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
    for profile in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]:
        usage = g.usage_masks(profile)
        assert sum(private_costs(g, p, profile)) == sum(
            (f.value(u) for f, u in zip(g.cost_fns, usage)), F(0))


def test_protocol_base_share_contract():
    class Half(Protocol):
        """Defines ``share`` only, which no longer makes a protocol."""

        name = "half"

        def share(self, f, users, i):
            read_mask(users, f.n)
            if not (users >> i) & 1:
                return F(0)
            return f.value(users) / users.bit_count() if users else F(0)

    f = SetCostFunction.anonymous([0, 1, 4])
    g = GameModel(2, ("r",), ((frozenset({"r"}),),) * 2, (f,))
    # the kernel reads scaled_share and share_scale, which Half lacks
    with pytest.raises(NotImplementedError, match="'half' defines no share_scale"):
        analyze(g, Half())
    with pytest.raises(NotImplementedError, match="'half' defines no scaled_share"):
        Half().scaled_share(f, 0b11, 0)
    # and share is their Fraction view, so Protocol() has no shares at all
    with pytest.raises(NotImplementedError, match="'abstract' defines no scaled_share"):
        Protocol().share(f, 0b01, 0)
    with pytest.raises(NotImplementedError, match="'abstract' defines no share_scale"):
        Protocol().share_scale(f)
    assert EvenSplit().shares(f, 0b11) == (F(2), F(2))


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


def test_share_scale_tables_and_custom_subclass():
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
        for protocol in (validated, loose, bare, EvenSplit()):
            assert_scale_makes_shares_integral(protocol, f)


def test_table_share_scale_reads_only_its_own_entries():
    f, g = SetCostFunction.anonymous([0, 1, 2]), SetCostFunction.anonymous([0, 1, 3])
    table = TableProtocol()
    assert table.share_scale(f) == 2
    table.set_entry(g, 0b01, {0: F(1, 7)}, validate=False)
    assert table.share_scale(f) == 2 and table.share_scale(g) == 14
    # 200 distinct 24-bit primes take more than MAX_SCALE_BITS bits together,
    # but none is a denominator of f's shares
    primes = list(islice((p for p in range(1 << 23, 1 << 24)
                          if all(p % d for d in range(2, 4097))), 200))
    for k, p in enumerate(primes, 2):
        table.set_entry(SetCostFunction.anonymous([0, k, k]), 0b01, {0: F(1, p)},
                        validate=False)
    assert table.share_scale(f) == 2 and table.scaled_share(f, 0b11, 1) == 2
    assert analyze(GameModel(2, ("r",), ((frozenset({"r"}),),) * 2, (f,)),
                   table).optimum_cost == 2


def test_table_share_scale_matches_its_entries_after_every_set_entry():
    # cost functions equal by value but built apart, so overwrites meet
    # entries keyed by another object
    rng = random.Random(46)
    table = TableProtocol()
    for _ in range(60):
        k = rng.randint(1, 3)
        table.set_entry(SetCostFunction.anonymous([0, k, 2 * k]), rng.randint(1, 3),
                        {rng.randrange(2): F(1, rng.randint(1, 9))}, validate=False)
        for k in (1, 2, 3):
            f = SetCostFunction.anonymous([0, k, 2 * k])
            dens = [v.denominator for (g, _), entry in table.entries.items() if g == f
                    for v in entry.values()]
            assert table.share_scale(f) == lcm(SHAPLEY.share_scale(f), *dens)


def test_table_entries_cannot_be_written_from_outside():
    g = SetCostFunction.anonymous([0, 1, 3])
    fair = (F(3, 2), F(3, 2))
    given = {}
    t = TableProtocol(given)  # copied, not aliased
    given[(g, 0b11)] = {0: F(1, 7), 1: F(20, 7)}
    assert t.shares(g, 0b11) == fair and t.entries == {}
    with pytest.raises(TypeError):
        t.entries[(g, 0b11)] = {0: F(1, 7), 1: F(20, 7)}
    assert t.shares(g, 0b11) == fair and t.entries == {}
    t.set_entry(g, 0b11, {0: F(1, 7), 1: F(20, 7)})
    assert t.shares(g, 0b11) == (F(1, 7), F(20, 7))
    with pytest.raises(TypeError):
        t.entries[(g, 0b11)][0] = F(3)
    assert t.entries.get((g, 0b11)) == {0: F(1, 7), 1: F(20, 7)}
    assert t.entries.get((g, 0b01)) is None
    assert [key for key, _ in t.entries.items()] == [(g, 0b11)]
    assert TableProtocol(given).shares(g, 0b11) == (F(1, 7), F(20, 7))


def test_table_share_scale_does_not_scan_other_entries(monkeypatch):
    # pricing K new cost functions against E entries compares O(K) cost
    # functions, not O(K * E)
    table = TableProtocol()
    for k in range(1, 41):
        table.set_entry(SetCostFunction.anonymous([0, k, k]), 0b01, {0: F(1, k)},
                        validate=False)
    fresh = [SetCostFunction.anonymous([0, k, 2 * k + 100]) for k in range(1, 41)]
    calls = 0
    equal = SetCostFunction.__eq__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return equal(self, other)

    monkeypatch.setattr(SetCostFunction, "__eq__", counted)
    for f in fresh:
        assert table.share_scale(f) == 2
    assert calls <= len(fresh)


def balanced_shares(rng, f, users):
    """Shares of ``users`` over small denominators that sum to its cost."""
    members = mask_members(users)
    cuts = sorted(F(rng.randint(0, d), d) for d in rng.choices(range(1, 8), k=len(members) - 1))
    parts = [b - a for a, b in zip([F(0), *cuts], [*cuts, F(1)])]
    return {i: f.value(users) * p for i, p in zip(members, parts)}


def test_integer_store_reads_like_a_fraction_reference():
    # tables built through set_entry, validated and not, with user sets
    # drawn again so that some entries are replaced, read like a dict of
    # Fraction entries kept beside them
    rng = random.Random(38)
    for f in random_costs(38, count=16, max_n=4):
        n = f.n
        for fallback in (ShapleyProtocol(), None):
            table, reference = TableProtocol(fallback=fallback), {}
            for _ in range(2 * n + 2):
                users = rng.randrange(1 << n)
                if rng.random() < 0.5:
                    shares = balanced_shares(rng, f, users)
                    table.set_entry(f, users, shares)
                else:
                    shares = {i: F(rng.randint(-3, 9), rng.randint(1, 12))
                              for i in rng.sample(range(n), rng.randint(0, n))}
                    table.set_entry(f, users, shares, validate=False)
                reference[(f, users)] = shares
            assert dict(table.entries) == reference
            assert all(type(v) is Fraction for e in table.entries.values() for v in e.values())
            scale = lcm(*(v.denominator for e in reference.values() for v in e.values()),
                        *(() if fallback is None else (fallback.share_scale(f),)))
            assert table.share_scale(f) == scale
            for users in range(1 << n):
                entry = reference.get((f, users))
                for i in range(n):
                    if entry is None and users >> i & 1 and fallback is None:
                        with pytest.raises(ProtocolError):
                            table.share(f, users, i)
                        continue
                    want = (entry.get(i, 0) if entry is not None
                            else fallback.share(f, users, i) if users >> i & 1 else 0)
                    assert table.share(f, users, i) == want
                    assert table.scaled_share(f, users, i) == want * scale


def test_a_replaced_entry_counts_as_it_now_stands():
    f = SetCostFunction.anonymous([0, 1, 2])
    table = TableProtocol()
    table.set_entry(f, 0b11, {0: F(1, 3), 1: F(5, 3)})
    assert table.share_scale(f) == lcm(SHAPLEY.share_scale(f), 3) == 6
    table.set_entry(f, 0b11, {0: F(1, 7), 1: F(13, 7)})
    assert table.share_scale(f) == lcm(SHAPLEY.share_scale(f), 7) == 14
    assert table.entries[(f, 0b11)] == {0: F(1, 7), 1: F(13, 7)}
    assert table.scaled_share(f, 0b11, 1) == 26


@pytest.mark.parametrize("shares", [
    {0: F(1, 3 ** 3000), 1: 2 - F(1, 3 ** 3000)},  # one denominator of 4755 bits
    {0: F(1, 3 ** 1500), 1: F(1, 5 ** 1500)},  # two that pass the budget together
], ids=["one share", "two shares"])
@pytest.mark.parametrize("validate", [False, True])
def test_an_entry_over_the_bit_budget_is_refused_when_set(shares, validate):
    f = SetCostFunction.anonymous([0, 1, 2])
    table = TableProtocol({(f, 0b01): {0: F(1, 3)}})
    with pytest.raises(ValidationError) as caught:
        table.set_entry(f, 0b11, shares, validate=validate)
    assert str(caught.value) == "common denominator of the share table has more than 4096 bits"
    assert dict(table.entries) == {(f, 0b01): {0: F(1, 3)}} and table.share_scale(f) == 6
    # a file that lists such an entry is refused as it loads, though no game
    # prices its cost function yet
    doc = {"players": 2, "entries": [{
        "cost": cost_to_json(f), "users": [0, 1],
        "shares": {str(i): fraction_to_str(v) for i, v in shares.items()}}]}
    with pytest.raises(ValidationError) as caught:
        table_protocol_from_json(doc)
    assert str(caught.value) == "common denominator of the share table has more than 4096 bits"


def fraction_budget_balance(protocol, f):
    """``check_budget_balance`` read from ``Fraction`` shares."""
    return all(sum((protocol.share(f, users, i) for i in range(f.n)), F(0)) == f.value(users)
               and not any(protocol.share(f, users, i) for i in range(f.n) if ~users >> i & 1)
               for users in range(1 << f.n))


def test_budget_balance_check_agrees_with_a_fraction_reference():
    # a rigged table lists some user sets: balanced, off, or balanced with
    # a share moved to an absent player; a table with no fallback lists
    # every user set, balanced, so its scale need not be a multiple of the
    # cost's denominator
    rng = random.Random(39)
    seen = set()
    for f in random_costs(39, count=24, max_n=4):
        n = f.n
        rigged, listed = TableProtocol(), TableProtocol(fallback=None)
        for users in range(1 << n):
            listed.set_entry(f, users, balanced_shares(rng, f, users))
            if rng.random() < 0.2:
                shares = balanced_shares(rng, f, users)
                kind = rng.choice(["balanced", "off", "absent"])
                if kind == "off" and users:
                    shares[mask_members(users)[0]] += F(1, rng.randint(1, 5))
                elif kind == "absent" and users and users != full_mask(n):
                    absent = rng.choice([i for i in range(n) if ~users >> i & 1])
                    shares[mask_members(users)[0]] -= 1
                    shares[absent] = F(1)
                rigged.set_entry(f, users, shares, validate=False)
        for protocol in (SHAPLEY, GeneralizedWeightedShapley(random_weight_system(rng, n)),
                         EvenSplit(), rigged, listed):
            want = fraction_budget_balance(protocol, f)
            assert check_budget_balance(protocol, f) == want, (protocol, f)
            seen.add(want)
    assert seen == {True, False}


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


def test_one_potential_per_cost_function_and_block(monkeypatch):
    import costarena.protocols as protocols
    calls = []

    def counting(name):
        build = getattr(protocols, name)

        def counted(*args):
            calls.append(name)
            return build(*args)
        return counted

    for name in ("_potential", "_potential_row"):
        monkeypatch.setattr(protocols, name, counting(name))
    rng = random.Random(12)
    fa, fb = random_monotone_cost(rng, 3), random_monotone_cost(rng, 3)
    assert fa != fb
    every = frozenset("abc")
    # every player has two strategies, so the walk checks, and prices, each
    either = (every, frozenset())
    game = GameModel(3, ("a", "b", "c"), (either,) * 3, (fa, fb, fa))

    def two_blocks():
        return GeneralizedWeightedShapley(WeightSystem((1, 2, 3), ((0, 1), (2,))))

    # Shapley: the walk's 8 profiles cover the 2^3 user sets, so it stores
    # one whole potential row per distinct cost function and builds no
    # memo. GWS: one memo per block of each cost function: 2 x 2
    for make, expected in ((ShapleyProtocol, ["_potential_row"] * 2),
                           (two_blocks, ["_potential"] * 4)):
        for _ in range(2):  # a fresh instance builds its stores again
            protocol = make()
            calls.clear()
            analyze(game, protocol)
            assert calls == expected
            analyze(game, protocol)  # and the same one builds none
            assert calls == expected
    shapley, gws = ShapleyProtocol(), two_blocks()
    analyze(game, shapley)
    analyze(game, gws)
    assert [type(q) for q in shapley._by_mask.values()] == [list, list]
    # GWS keys its store by cost function alone, one memo per block
    assert list(gws._potentials) == [fa, fb]
    assert [[type(q) for q in blocks] for blocks in gws._potentials.values()] == [[Memo] * 2] * 2
    # a lazy kernel keeps one memo per distinct cost function instead
    calls.clear()
    best_response_dynamics(game, ShapleyProtocol(), (0, 0, 0))
    assert calls == ["_potential"] * 2


def weight_system_in_blocks(rng, n, count):
    """Random positive weights over a random ordered partition of the n
    players into min(count, n) blocks."""
    players = list(range(n))
    rng.shuffle(players)
    cuts = sorted(rng.sample(range(1, n), min(count, n) - 1))
    blocks = [tuple(players[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    return WeightSystem(tuple(F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)),
                        tuple(blocks))


def block_values(p, f):
    """For each block B of GWS ``p``, with later blocks L: B, B | L and the
    values W * (f.scaled(S & (B | L)) - f.scaled(S & L)) at every mask S,
    read at S & (B | L) so that B's whole row holds P(S & (B | L))."""
    masks = p.system.block_masks()
    table = [f.scaled(m) for m in range(1 << f.n)]
    out = []
    for k, own in enumerate(masks):
        later = sum(masks[k + 1:])
        scope = own | later
        out.append((own, scope, [p._weight_scale * (table[m & scope] - table[m & later])
                                 for m in range(1 << f.n)]))
    return out


def test_one_pass_table_potential_equals_the_memo():
    # the whole row, filled in groups by highest bit, holds at every mask
    # what the memo fills one mask at a time: unit weights on one block,
    # as Shapley keeps them, and seeded weight systems of 1 to 6 blocks
    import costarena.protocols as protocols
    rng = random.Random(68)
    for n in range(1, 10):
        unit = lcm(*range(1, n + 1))
        for _ in range(19):
            values = [unit * c for c in random_monotone_cost(rng, n, den_max=6).scaled_table()]
            memo = protocols._potential(values.__getitem__, (1,) * n, full_mask(n))
            row = protocols._potential_row(values, (1,) * n, full_mask(n))
            assert row == [memo[m] for m in range(1 << n)]
    for k in range(120):
        n = 1 + k % 7
        p = GeneralizedWeightedShapley(weight_system_in_blocks(rng, n, 1 + k % 6))
        for own, _, values in block_values(p, random_monotone_cost(rng, n, den_max=6)):
            memo = protocols._potential(values.__getitem__, p._weights, own)
            row = protocols._potential_row(values, p._weights, own)
            assert row == [memo[m] for m in range(1 << n)]


def test_gws_shares_are_weighted_differences_of_block_rows():
    # for i in block B, scaled_share(f, S, i) = a_i * (P[S'] - P[S' - i]),
    # S' = S & (B | L), read from B's whole row; and the row is P, the sum
    # over T within S' that meet B of the integer dividend of f.scaled at T
    # times W / A(T & B), each division exact
    import costarena.protocols as protocols
    rng = random.Random(31)
    pairs = 0
    for k in range(300):
        n = 1 + k % 6
        f = random_cost(rng, n, COST_CLASSES[k % 3])
        p = GeneralizedWeightedShapley(weight_system_in_blocks(rng, n, 1 + (k // 6) % 6))
        a, scale = p._weights, p._weight_scale
        dividends = [f.scaled(m) for m in range(1 << n)]
        for bit in map((1).__lshift__, range(n)):
            for m in range(1 << n):
                if m & bit:
                    dividends[m] -= dividends[m ^ bit]
        for own, scope, values in block_values(p, f):
            row = protocols._potential_row(values, a, own)
            for users in range(1 << n):
                reference = 0
                for t in iter_submasks(users & scope):
                    if t & own:
                        size = sum(a[j] for j in mask_members(t & own))
                        assert dividends[t] * scale % size == 0
                        reference += dividends[t] * scale // size
                assert row[users] == reference
                for i in mask_members(users & own):
                    mine = users & scope
                    assert p.scaled_share(f, users, i) == a[i] * (row[mine] - row[mine ^ (1 << i)])
                    pairs += 1
    assert pairs > 10000


def test_shapley_is_one_block_gws_of_unit_weights():
    # equal shares on every user set, and equal equilibria and costs
    for f in random_costs(71, count=30):
        gws = GeneralizedWeightedShapley(WeightSystem.plain(f.n))
        assert gws.share_scale(f) == SHAPLEY.share_scale(f)
        for users in range(1 << f.n):
            assert gws.shares(f, users) == SHAPLEY.shares(f, users)
    for cost_class in COST_CLASSES:
        for g in corpus(72, 40, cost_class):
            plain = analyze(g, GeneralizedWeightedShapley(WeightSystem.plain(g.n)))
            shapley = analyze(g, ShapleyProtocol())
            assert (plain.pne, plain.pne_costs, plain.optimum, plain.optimum_cost, plain.poa,
                    plain.pos) == (shapley.pne, shapley.pne_costs, shapley.optimum,
                                   shapley.optimum_cost, shapley.poa, shapley.pos)


def relabeled(g, w, order):
    """``g`` and ``w`` with player i renamed ``order[i]``: strategy sets,
    cost tables, weights and blocks all moved to match."""
    n = g.n

    def moved(mask):
        return sum(1 << order[i] for i in mask_members(mask))

    back = {moved(m): m for m in range(1 << n)}
    costs = tuple(SetCostFunction(n, [f.value(back[m]) for m in range(1 << n)])
                  for f in g.cost_fns)
    strategies = [None] * n
    weights = [None] * n
    for i in range(n):
        strategies[order[i]], weights[order[i]] = g.strategy_sets[i], w.weights[i]
    blocks = tuple(tuple(order[j] for j in block) for block in w.blocks)
    return (GameModel(n, g.resources, tuple(strategies), costs),
            WeightSystem(tuple(weights), blocks))


def test_relabeling_players_maps_gws_equilibria_and_keeps_every_cost():
    rng = random.Random(73)
    for cost_class in COST_CLASSES:
        for g in corpus(74, 40, cost_class, max_players=5):
            w = weight_system_in_blocks(rng, g.n, rng.randint(1, 3))
            order = list(range(g.n))
            rng.shuffle(order)
            h, v = relabeled(g, w, order)
            before = analyze(g, GeneralizedWeightedShapley(w))
            after = analyze(h, GeneralizedWeightedShapley(v))

            def mapped(profile):
                out = [None] * g.n
                for i, s in enumerate(profile):
                    out[order[i]] = s
                return tuple(out)

            assert (sorted(zip(map(mapped, before.pne), before.pne_costs))
                    == sorted(zip(after.pne, after.pne_costs)))
            assert (before.optimum_cost, before.poa, before.pos) == (
                after.optimum_cost, after.poa, after.pos)
            for profile in before.pne:
                assert private_costs(g, GeneralizedWeightedShapley(w), profile) == tuple(
                    private_costs(h, GeneralizedWeightedShapley(v), mapped(profile))[order[i]]
                    for i in range(g.n))


def test_whole_potentials_match_the_single_reads():
    # scaled_potentials is indexed as the cost keeps its values; a table's
    # replaces the memo of single reads, and an anonymous cost and an equal
    # table each keep their own store
    rng = random.Random(69)
    for f in random_costs(70, count=18):
        p = ShapleyProtocol()
        masks = range(1 << f.n)
        single = [p.scaled_potential(f, m) for m in masks]
        whole = p.scaled_potentials(f)
        if f.anonymous_values is None:
            assert whole == single and p.scaled_potentials(f) is whole
        else:
            assert len(whole) == f.n + 1
            assert [whole[m.bit_count()] for m in masks] == single
            table = SetCostFunction(f.n, [f.value(m) for m in masks])
            assert table == f and p.scaled_potentials(table) == single
            assert len(p._by_count) == len(p._by_mask) == 1
        assert [p.scaled_potential(f, m) for m in masks] == single
        assert all(p.scaled_share(f, m, i) == single[m] - single[m & ~(1 << i)]
                   for m in masks for i in mask_members(m))
        with pytest.raises(ValidationError, match="outside arity"):
            p.scaled_potential(f, rng.choice((-1, 1 << f.n)))


#: Each place a share table takes a mapping, handed a list or tuple instead,
#: with the start of the message that names it.
MAPPING_ENTRY_POINTS = {
    "entries": (lambda f: TableProtocol([((f, 1), {0: 1})]), "share entries [("),
    "entry shares": (lambda f: TableProtocol({(f, 1): [1, 0]}), "shares [1, 0]"),
    "set_entry shares": (lambda f: TableProtocol().set_entry(f, 1, [1, 0]), "shares [1, 0]"),
    "unvalidated shares": (lambda f: TableProtocol().set_entry(f, 1, ((0, 1),), validate=False),
                           "shares ((0, 1),)"),
}


@pytest.mark.parametrize("entry", list(MAPPING_ENTRY_POINTS))
def test_table_entries_and_shares_are_mappings(entry):
    # a list or tuple in place of a mapping is one ValidationError naming it
    build, what = MAPPING_ENTRY_POINTS[entry]
    f = SetCostFunction.anonymous([0, 1, 2])
    with pytest.raises(ValidationError) as caught:
        build(f)
    assert str(caught.value).startswith(what)
    assert str(caught.value).endswith(" is not a mapping")


#: Share-table keys that are not a (cost function, user set) pair.
BAD_ENTRY_KEYS = {
    "cost function alone": lambda f: f,
    "one-tuple": lambda f: (f,),
    "three-tuple": lambda f: (f, 1, 2),
    "user set first": lambda f: (1, f),
}


@pytest.mark.parametrize("shape", list(BAD_ENTRY_KEYS))
def test_table_entry_keys_are_pairs(shape):
    # a bad key is one ValidationError naming it, in the constructor and,
    # for a pair, in set_entry, which takes the pair's two halves
    f = SetCostFunction.anonymous([0, 1, 2])
    key = BAD_ENTRY_KEYS[shape](f)
    message = f"share entry key {key!r} is not a (cost function, user set) pair"
    builds = [lambda: TableProtocol({key: {0: 1}})]
    if isinstance(key, tuple) and len(key) == 2:
        builds.append(lambda: TableProtocol().set_entry(*key, {0: 1}))
    for build in builds:
        with pytest.raises(ValidationError) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize("users, message", [
    (5, "user set 0b101 outside arity 2"),
    (True, "user set True is not an int"),
    (-1, "user set -0b1 outside arity 2"),
    ("x", "user set 'x' is not an int"),
])
@pytest.mark.parametrize("validate", [False, True])
def test_set_entry_reads_its_user_set(users, message, validate):
    # validated or not, an entry's user set is a mask of f's players
    f = SetCostFunction.anonymous([0, 1, 2])
    t = TableProtocol()
    with pytest.raises(ValueError) as caught:
        t.set_entry(f, users, {0: 1}, validate=validate)
    assert type(caught.value) is ValidationError
    assert str(caught.value) == message
    assert t.entries == {}


def test_table_constructor_reads_every_user_set():
    f = SetCostFunction.anonymous([0, 1, 2])
    with pytest.raises(ValidationError, match="user set 0b101 outside arity 2"):
        TableProtocol({(f, 0b01): {0: 1}, (f, 5): {0: 1}})
    with pytest.raises(ValidationError, match="user set True is not an int"):
        TableProtocol({(f, True): {0: 1}})


@pytest.mark.parametrize("blocks, message", [
    ((5,), "player set 5 is not a tuple, list, set or frozenset"),
    (({0: 1, 1: 1},), "player set {0: 1, 1: 1} is not a tuple, list, set or frozenset"),
    (("01",), "player set '01' is not a tuple, list, set or frozenset"),
    (5, "blocks 5 is not a tuple or list"),
], ids=["int block", "dict block", "str block", "int blocks"])
def test_weight_system_block_is_a_collection_of_ids(blocks, message):
    with pytest.raises(ValidationError) as caught:
        WeightSystem((1, 1), blocks)
    assert str(caught.value) == message
    for block in ([0, 1], (0, 1), {0, 1}, frozenset({0, 1})):
        assert WeightSystem((1, 1), (block,)).blocks == ((0, 1),)
