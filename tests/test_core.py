import itertools
import random
from fractions import Fraction

import pytest

from costarena.core import (
    GameModel,
    SetCostFunction,
    ValidationError,
    classify,
    full_mask,
    is_anonymous,
    iter_submasks,
    mask_members,
    player_mask,
    read_int,
    users_of,
)
from costarena.equilibrium import social_cost

F = Fraction


def simple_game(n, resources, strategy_sets, cost_fns):
    return GameModel(n=n, resources=resources,
                     strategy_sets=strategy_sets, cost_fns=cost_fns)


# ---------------------------------------------------------------------------
# bitmask helpers
# ---------------------------------------------------------------------------

def test_mask_round_trip():
    assert player_mask([0, 2, 3], 4) == 0b1101
    assert mask_members(0b1101) == (0, 2, 3)
    assert player_mask(mask_members(0b101010), 6) == 0b101010
    assert mask_members(0) == ()


@pytest.mark.parametrize("args, message", [
    ((True, "size"), "size True is not an int"),
    ((1.0, "size"), "size 1.0 is not an int"),
    (("2", "size"), "size '2' is not an int"),
    ((None, "size"), "size None is not an int"),
    ((-1, "size"), "size -1 out of range 0.."),
    ((0, "size", 1), "size 0 out of range 1.."),
    ((17, "size", 1, 16), "size 17 out of range 1..16"),
    ((0, "size", 1, 16), "size 0 out of range 1..16"),
])
def test_read_int_refuses_with_one_of_two_wordings(args, message):
    with pytest.raises(ValidationError) as caught:
        read_int(*args)
    assert str(caught.value) == message


def test_read_int_returns_its_value():
    assert read_int(0, "size") == 0
    assert read_int(16, "size", 1, 16) == 16
    assert read_int(-5, "id", None) == -5
    assert read_int(10 ** 30, "size") == 10 ** 30


def test_iter_submasks_is_ascending_and_complete():
    for mask in (0, 0b1, 0b101, 0b1111, 0b10110):
        subs = list(iter_submasks(mask))
        assert subs == sorted(subs)
        assert len(subs) == 1 << mask.bit_count()
        assert all(s & ~mask == 0 for s in subs)
        assert subs[0] == 0 and subs[-1] == mask


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

def test_table_cost_lookup():
    f = SetCostFunction.from_table(2, {(): 0, (0,): 1, (1,): 3, (0, 1): 4})
    assert f.value(0) == 0
    assert f.value(0b01) == 1
    assert f.value(0b10) == 3
    assert f.value(0b11) == 4


@pytest.mark.parametrize("key", [True, False])
def test_table_refuses_a_bool_key(key):
    with pytest.raises(ValidationError) as caught:
        SetCostFunction.from_table(2, {key: 1, 0b11: 2})
    assert str(caught.value) == f"user set {key} is not an int"


def test_anonymous_cost_lookup():
    f = SetCostFunction.anonymous([0, 1, 3])
    assert f.n == 2
    assert f.value(0b01) == f.value(0b10) == 1
    assert f.value(0b11) == 3


def test_empty_set_must_cost_zero():
    with pytest.raises(ValidationError):
        SetCostFunction.anonymous([1, 2, 3])
    with pytest.raises(ValidationError):
        SetCostFunction.from_table(1, {(): 1, (0,): 2})


def test_monotonicity_enforced():
    with pytest.raises(ValidationError):
        SetCostFunction.from_table(2, {(0,): 3, (0, 1): 1})
    with pytest.raises(ValidationError):
        SetCostFunction.anonymous([0, 2, 1])


def test_floats_rejected():
    with pytest.raises(ValidationError):
        SetCostFunction.anonymous([0, 0.5, 1.0])


def test_parsed_fractions_are_stored_as_they_are():
    third = F(1, 3)
    assert SetCostFunction.anonymous([0, third, 1]).anonymous_values[1] == third
    assert SetCostFunction.from_table(2, {(0,): third, (0, 1): 1}).value(0b01) == third

    class Exact(Fraction):
        pass

    stored = SetCostFunction.anonymous([0, Exact(1, 2)]).anonymous_values[1]
    assert type(stored) is Fraction and stored == F(1, 2)
    assert SetCostFunction.anonymous([0, "3/4", 2]).anonymous_values[1] == F(3, 4)
    with pytest.raises(ValidationError, match="not an exact rational: 0.5"):
        SetCostFunction.from_table(1, {(0,): 0.5})
    with pytest.raises(ValidationError, match="bad rational 'x'"):
        SetCostFunction.anonymous([0, "x"])


def test_denominator_is_lcm_of_value_denominators():
    assert SetCostFunction.anonymous([0, F(1, 2), F(5, 3)]).denominator == 6
    assert SetCostFunction.zero(3).denominator == 1
    f = SetCostFunction.from_table(2, {(0,): F(1, 4), (1,): F(1, 6), (0, 1): F(1, 2)})
    assert f.denominator == 12


def test_integer_values_over_a_canonical_denominator():
    # numerators over an unreduced denominator: the common factor goes
    f = SetCostFunction(2, [0, 2, 4, 8], denominators=[12] * 4)
    assert f.denominator == 6
    assert [f.scaled(m) for m in range(4)] == [0, 1, 2, 4]
    assert [f.value(m) for m in range(4)] == [0, F(1, 6), F(1, 3), F(2, 3)]
    g = SetCostFunction.from_table(2, {(0,): F(1, 6), (1,): F(1, 3), (0, 1): F(2, 3)})
    assert f == g and hash(f) == hash(g) and g.denominator == 6
    anon = SetCostFunction(2, [0, 3, 9], anonymous=True, denominators=[6] * 3)
    assert anon.anonymous_values == (0, F(1, 2), F(3, 2))
    assert anon.scaled(0b10) == 1 and anon.denominator == 2
    assert anon == SetCostFunction.from_table(2, {(0,): F(1, 2), (1,): F(1, 2),
                                                  (0, 1): F(3, 2)})
    assert SetCostFunction(1, [0, 0], denominators=[7] * 2).denominator == 1
    # one unreduced denominator per entry: each entry is reduced, L is 6
    h = SetCostFunction(2, [0, 2, 6, 4], denominators=[5, 12, 18, 6])
    assert h == g and h.denominator == 6 and [h.scaled(m) for m in range(4)] == [0, 1, 2, 4]
    with pytest.raises(ValidationError, match="3 numerators and 4 denominators"):
        SetCostFunction(2, [0, 1, 2], denominators=[1] * 4)
    with pytest.raises(ValidationError, match="not positive"):
        SetCostFunction(2, [0, 1, 2, 3], denominators=[1, 0, 1, 1])
    with pytest.raises(ValidationError):
        anon.scaled(0b100)
    # the integer validator reports what the Fraction path reports
    with pytest.raises(ValidationError, match="C\\(0b11\\) < C\\(0b1\\)"):
        SetCostFunction(2, [0, 3, 0, 2], denominators=[2] * 4)
    with pytest.raises(ValidationError, match="from size 1 to 2: 3/2 > 1"):
        SetCostFunction(2, [0, 3, 2], anonymous=True, denominators=[2] * 3)
    with pytest.raises(ValidationError, match="empty set is 1/3"):
        SetCostFunction(1, [2, 4], denominators=[6] * 2)


@pytest.mark.parametrize("nums, dens, message", [
    ([0, 1.5], [1, 1], "cost numerator 1.5 is not an int"),
    ([0, "1"], [1, 1], "cost numerator '1' is not an int"),
    ([0, True], [1, 1], "cost numerator True is not an int"),
    ([0, F(1)], [1, 1], "cost numerator Fraction(1, 1) is not an int"),
    ([0, 1], [1, 1.5], "cost denominator 1.5 is not an int"),
    ([0, 1], ["1", 1], "cost denominator '1' is not an int"),
    ([0, 1], [1, True], "cost denominator True is not an int"),
    ([0, 1.5], [1, True], "cost numerator 1.5 is not an int"),
])
def test_integer_columns_take_ints(nums, dens, message):
    # True is not read as 1, nor 1.5 passed on to gcd
    for anonymous in (False, True):
        with pytest.raises(ValidationError) as caught:
            SetCostFunction(1, nums, anonymous=anonymous, denominators=dens)
        assert str(caught.value) == message


def test_scaled_table_is_every_numerator_of_a_table():
    f = SetCostFunction(2, [0, 2, 4, 8], denominators=[12] * 4)
    assert f.scaled_table() == (0, 1, 2, 4) == tuple(map(f.scaled, range(4)))
    # an anonymous cost is not expanded to 2^n entries, even one equal to f
    anon = SetCostFunction(2, [0, 3, 9], anonymous=True, denominators=[6] * 3)
    assert anon.scaled_table() is None
    assert anon == SetCostFunction(2, [0, 3, 3, 9], denominators=[6] * 4)


def test_arity_bounds():
    with pytest.raises(ValidationError):
        SetCostFunction(0, [F(0)])
    with pytest.raises(ValidationError):
        SetCostFunction(17, [F(0)] * (1 << 17))
    with pytest.raises(ValidationError):
        SetCostFunction(2, [F(0)] * 3)


def test_semantic_equality_across_representations():
    anon = SetCostFunction.anonymous([0, 1, 2])
    table = SetCostFunction.from_table(2, {(0,): 1, (1,): 1, (0, 1): 2})
    assert anon == table
    assert hash(anon) == hash(table)
    other = SetCostFunction.from_table(2, {(0,): 1, (1,): 2, (0, 1): 2})
    assert anon != other


def test_value_rejects_out_of_range_mask():
    f = SetCostFunction.anonymous([0, 1])
    with pytest.raises(ValidationError):
        f.value(0b10)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    assert classify(SetCostFunction.anonymous([0, 1, 2, 3])) == "modular"
    assert classify(SetCostFunction.anonymous([0, 1, F(3, 2), F(11, 6)])) == "submodular"
    assert classify(SetCostFunction.anonymous([0, 0, 3])) == "supermodular"
    assert classify(SetCostFunction.anonymous([0, 1, 1, 3])) == "neither"


def brute_force_classify(f):
    # literal definition over explicit member tuples, no bitmask tricks
    players = list(range(f.n))
    sub = sup = True
    for ylen in range(f.n + 1):
        for y in itertools.combinations(players, ylen):
            for xlen in range(ylen + 1):
                for x in itertools.combinations(y, xlen):
                    for i in players:
                        if i in y:
                            continue
                        mx = f.value(player_mask(x + (i,), f.n)) - f.value(player_mask(x, f.n))
                        my = f.value(player_mask(y + (i,), f.n)) - f.value(player_mask(y, f.n))
                        if mx < my:
                            sub = False
                        if mx > my:
                            sup = False
    if sub and sup:
        return "modular"
    if sub:
        return "submodular"
    if sup:
        return "supermodular"
    return "neither"


def test_classify_matches_brute_force_on_random_tables():
    rng = random.Random(421)
    for _ in range(60):
        n = rng.randint(1, 4)
        table = [F(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(1 << n)]
        table[0] = F(0)
        # monotone closure: raise each set to the max over its subsets
        for mask in range(1, 1 << n):
            m = mask
            while m:
                bit = m & -m
                m ^= bit
                table[mask] = max(table[mask], table[mask ^ bit])
        f = SetCostFunction(n, table)
        assert classify(f) == brute_force_classify(f)


def test_anonymous_submodularity_is_concavity():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 5)
        incs = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)]
        values = [F(0)]
        for inc in incs:
            values.append(values[-1] + inc)
        f = SetCostFunction.anonymous(values)
        concave = all(incs[k] >= incs[k + 1] for k in range(n - 1))
        got = classify(f)
        assert (got in ("submodular", "modular")) == concave


def test_is_anonymous():
    assert is_anonymous(SetCostFunction.from_table(2, {(0,): 1, (1,): 1, (0, 1): 5}))
    assert not is_anonymous(SetCostFunction.from_table(2, {(0,): 1, (1,): 3, (0, 1): 4}))
    assert is_anonymous(SetCostFunction.from_table(1, {(0,): 7}))
    assert is_anonymous(SetCostFunction.anonymous([0, 2, 2, 2]))


# ---------------------------------------------------------------------------
# game model
# ---------------------------------------------------------------------------

def two_player_shared_resource():
    f = SetCostFunction.anonymous([0, 1, 3])
    return simple_game(
        2, ("e1", "e2"),
        ((frozenset({"e1"}), frozenset({"e2"})), (frozenset({"e1"}),)),
        (f, SetCostFunction.anonymous([0, 2, 2])),
    )


def test_users_of():
    g = two_player_shared_resource()
    assert users_of(g, (0, 0), "e1") == 0b11
    assert users_of(g, (1, 0), "e1") == 0b10
    assert users_of(g, (1, 0), "e2") == 0b01
    assert users_of(g, (0, 0), "e2") == 0


def test_users_of_unknown_resource():
    g = two_player_shared_resource()
    with pytest.raises(ValidationError):
        users_of(g, (0, 0), "nope")


def test_social_cost():
    g = two_player_shared_resource()
    assert social_cost(g, (0, 0)) == 3
    assert social_cost(g, (1, 0)) == 1 + 2

    zero = SetCostFunction.zero(2)
    free = simple_game(2, ("r",),
                       ((frozenset({"r"}),), (frozenset({"r"}),)), (zero,))
    assert social_cost(free, (0, 0)) == 0


def test_social_cost_threshold_edge_full_house():
    # 2 players jammed on an edge that is free below 2 users, 3/2 at 2
    f = SetCostFunction.anonymous([0, 0, F(3, 2)])
    g = simple_game(2, ("e1",), ((frozenset({"e1"}),), (frozenset({"e1"}),)), (f,))
    assert social_cost(g, (0, 0)) == F(3, 2)


def test_profile_validation():
    g = two_player_shared_resource()
    with pytest.raises(ValidationError):
        g.validate_profile((0,))
    for profile, message in (((2, 0), "player 0: strategy index 2 out of range 0..1"),
                             ((1, -1), "player 1: strategy index -1 out of range 0..0")):
        with pytest.raises(ValidationError) as caught:
            g.validate_profile(profile)
        assert str(caught.value) == message
    g.validate_profile((1, 0))


def test_model_validation_errors():
    f1 = SetCostFunction.anonymous([0, 1])
    f2 = SetCostFunction.anonymous([0, 1, 2])
    with pytest.raises(ValidationError):  # arity mismatch
        simple_game(2, ("r",), ((frozenset({"r"}),), (frozenset({"r"}),)), (f1,))
    with pytest.raises(ValidationError):  # empty strategy set
        simple_game(2, ("r",), ((), (frozenset({"r"}),)), (f2,))
    with pytest.raises(ValidationError):  # undeclared resource
        simple_game(2, ("r",), ((frozenset({"x"}),), (frozenset({"r"}),)), (f2,))
    with pytest.raises(ValidationError):  # duplicate resource ids
        GameModel(2, ("r", "r"), ((frozenset({"r"}),), (frozenset({"r"}),)),
                  (f2, f2))
    with pytest.raises(ValidationError):  # missing cost function
        simple_game(2, ("r", "s"), ((frozenset({"r"}),), (frozenset({"r"}),)), (f2,))


def test_validation_accepts_full_monotone_lattice():
    # all 2^n * n containment pairs get checked; a single dip must be caught
    table = [F(0), F(1), F(1), F(2), F(0), F(1), F(1), F(2)]
    table[0b100] = F(0)
    table[0b101] = F(1)
    f = SetCostFunction(3, table)
    assert f.value(0b111) == 2
    bad = list(table)
    bad[0b111] = F(1, 2)
    with pytest.raises(ValidationError):
        SetCostFunction(3, bad)


def test_monotonicity_check_finds_every_single_dip():
    """A monotone table with one set moved below its subsets or above its
    supersets is rejected, naming the first violation in mask order."""
    rng = random.Random(99)
    for n in range(1, 9):
        table = [mask.bit_count() * 4 for mask in range(1 << n)]
        assert SetCostFunction(n, table).scaled((1 << n) - 1) == 4 * n
        for _ in range(16):
            bad = list(table)
            if n == 1 or rng.random() < 0.5:
                bad[rng.randrange(1, 1 << n)] -= 5
            else:
                bad[rng.randrange(1, (1 << n) - 1)] += 5
            first = next((m, m | 1 << k) for m in range(1 << n) for k in range(n)
                         if not m >> k & 1 and bad[m] > bad[m | 1 << k])
            with pytest.raises(ValidationError) as caught:
                SetCostFunction(n, bad)
            assert str(caught.value) == f"cost not monotone: C({first[1]:#b}) < C({first[0]:#b})"
