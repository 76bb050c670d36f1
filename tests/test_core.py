import itertools
import math
import random
from fractions import Fraction

import pytest

from costarena.core import (
    MAX_DIGITS,
    GameModel,
    SetCostFunction,
    ValidationError,
    _monotone,
    _over_common_denominator,
    classify,
    full_mask,
    is_anonymous,
    iter_submasks,
    mask_members,
    parse_fraction,
    parse_fractions,
    player_mask,
    read_int,
    read_items,
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


def test_table_refuses_two_keys_for_one_set():
    # as the file reader refuses a table that names one set twice
    with pytest.raises(ValidationError) as caught:
        SetCostFunction.from_table(2, {(0, 1): 4, 3: 5})
    assert str(caught.value) == "duplicate table entry for set 3"
    with pytest.raises(ValidationError) as caught:
        SetCostFunction.from_table(2, {(0, 1): 4, frozenset({1, 0}): 5})
    assert str(caught.value) == "duplicate table entry for set frozenset({0, 1})"


def test_read_items_returns_a_tuple():
    for items in ((1, 2), [1, 2]):
        assert read_items(items, "x") == (1, 2)
        assert read_items(items, "x", ordered=False) == (1, 2)
    assert sorted(read_items({2, 1}, "x", ordered=False)) == [1, 2]
    assert read_items(frozenset(), "x", ordered=False) == ()
    with pytest.raises(ValidationError) as caught:
        read_items({2, 1}, "x")
    assert str(caught.value) == "x {1, 2} is not a tuple or list"
    with pytest.raises(ValidationError) as caught:
        read_items(iter(()), "x", ordered=False)
    assert str(caught.value).endswith(" is not a tuple, list, set or frozenset")


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
    # read_items reads both columns, as it reads the rational form's column
    assert SetCostFunction(1, (0, 2), denominators=(1, 2)) == SetCostFunction(1, [0, 1])
    with pytest.raises(ValidationError, match="^cost numerators <list_iterator "):
        SetCostFunction(1, iter([0, 1]), denominators=iter([1, 1]))
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


def test_the_digit_bound_holds_in_every_form():
    # an int, a Fraction's numerator or denominator, and the integer form's
    # numerators and denominators: up to MAX_DIGITS digits, and no more
    message = f"bad rational: more than {MAX_DIGITS} digits"
    longest = 10 ** MAX_DIGITS - 1
    for x, refused in ((longest, False), (longest + 1, True)):
        forms = [
            lambda: parse_fraction(x),
            lambda: parse_fraction(F(x)),
            lambda: parse_fraction(F(1, x)),
            lambda: parse_fractions([0, x]),
            lambda: parse_fractions([0, -x]),
            lambda: parse_fractions([F(1, 2), F(x)]),
            lambda: parse_fractions([1, F(3, x)]),
            lambda: SetCostFunction.anonymous([0, x]),
            lambda: SetCostFunction.anonymous([0, F(x)]),
            lambda: SetCostFunction(1, [0, x], denominators=[1, 1]),
            lambda: SetCostFunction(1, [0, x], denominators=[1, x]),
        ]
        for k, form in enumerate(forms):
            if refused:
                with pytest.raises(ValidationError) as caught:
                    form()
                assert str(caught.value) == message, k
            else:
                form()
    assert SetCostFunction(1, [0, longest], denominators=[1, longest]).scaled(1) == 1
    # a negative numerator is held to the bound before the cost is checked
    with pytest.raises(ValidationError, match="not monotone"):
        SetCostFunction(1, [0, -longest], denominators=[1, 1])
    with pytest.raises(ValidationError, match=message):
        SetCostFunction(1, [0, -longest - 1], denominators=[1, 1])


def item_by_item(values, denominators=None):
    """L and the numerators over L of a column read one value at a time,
    by ``parse_fraction`` or as ``values[k] / denominators[k]``, with L the
    lcm of the reduced denominators: the column readers' reference."""
    if denominators is None:
        fractions = list(map(parse_fraction, values))
    else:
        fractions = list(map(F, values, denominators))
    scale = math.lcm(*(x.denominator for x in fractions))
    return scale, [x.numerator * (scale // x.denominator) for x in fractions]


def first_violation(n, scale, scaled, anonymous):
    """The message of the first decrease in a column, found by brute force."""
    if anonymous:
        k = next(k for k in range(n) if scaled[k] > scaled[k + 1])
        return (f"anonymous cost decreases from size {k} to {k + 1}: "
                f"{F(scaled[k], scale)} > {F(scaled[k + 1], scale)}")
    low, high = next((m, m | 1 << k) for m in range(1 << n) for k in range(n)
                     if not m >> k & 1 and scaled[m] > scaled[m | 1 << k])
    return f"cost not monotone: C({high:#b}) < C({low:#b})"


def test_column_readers_match_item_by_item():
    # ints, Fractions, the two mixed, and the integer form over one
    # denominator, zero and negative numerators included: each column
    # builds the cost that reading it item by item gives, or is refused
    # with the same message
    rng = random.Random(34)
    kinds = set()
    for trial in range(600):
        kind = ("ints", "fractions", "mixed", "one denominator")[trial % 4]
        n, anonymous = rng.randint(1, 5), rng.random() < 0.5
        if anonymous:
            column = [0] + sorted(rng.randrange(12) for _ in range(n))
        else:
            column = [0] * (1 << n)
            for m in range(1, 1 << n):
                column[m] = max(column[m & ~(1 << k)] for k in range(n) if m >> k & 1)
                column[m] += rng.randrange(3)
        if rng.random() < 0.3:  # a dip, or a negative entry
            column[rng.randrange(len(column))] -= rng.randint(1, 4)
        denominators = None
        if kind == "fractions":
            values = [F(x, rng.randint(1, 6)) for x in column]
        elif kind == "mixed":
            values = [F(x, rng.randint(1, 6)) if rng.random() < 0.5 else x for x in column]
        elif kind == "one denominator":
            scale = rng.choice((1, 6, 12, 360360))
            factor = rng.choice((1, 2, 3))
            values, denominators = [factor * x for x in column], [scale] * len(column)
        else:
            values = column
        if kind != "one denominator" and rng.random() < 0.1:
            values[rng.randrange(1, len(values))] = True
        expected = None
        try:
            scale, scaled = item_by_item(values, denominators)
        except ValidationError as exc:
            expected = str(exc)
        else:
            if scaled[0] != 0:
                expected = f"cost of the empty set is {F(scaled[0], scale)}, must be 0"
            elif any(a > b for a, b in zip(scaled, scaled[1:])) if anonymous else (
                    not all(scaled[m] <= scaled[m | 1 << k]
                            for m in range(1 << n) for k in range(n))):
                expected = first_violation(n, scale, scaled, anonymous)
        if expected is not None:
            with pytest.raises(ValidationError) as caught:
                SetCostFunction(n, values, anonymous=anonymous, denominators=denominators)
            assert str(caught.value) == expected, (kind, values)
            kinds.add((kind, "refused"))
            continue
        f = SetCostFunction(n, values, anonymous=anonymous, denominators=denominators)
        assert f.denominator == scale
        assert (f.scaled_counts() if anonymous else f.scaled_table()) == tuple(scaled)
        table = [scaled[m.bit_count()] for m in range(1 << n)] if anonymous else scaled
        reference = SetCostFunction(n, table, denominators=[scale] * len(table))
        assert f == reference and hash(f) == hash(reference)
        assert [f.scaled(m) for m in range(1 << n)] == table
        kinds.add((kind, "built"))
    assert len(kinds) == 8
    message = "not an exact rational: True"
    for values in ([0, True], [0, 1, True, 2], [0, F(1, 2), True]):
        with pytest.raises(ValidationError) as caught:
            parse_fractions(values)
        assert str(caught.value) == message
    # the empty column, and the common denominator of each kind of column
    assert parse_fractions([]) == ([], []) and _over_common_denominator([], []) == (1, [])
    with pytest.raises(ValidationError, match="table has 0 entries, expected 2"):
        SetCostFunction(1, [])
    for _ in range(200):
        size = rng.randint(1, 9)
        nums = [rng.randint(-40, 40) for _ in range(size)]
        dens = [rng.choice((1, 4, 6, 30))] * size if rng.random() < 0.5 else [
            rng.randint(1, 30) for _ in range(size)]
        assert _over_common_denominator(nums, dens) == item_by_item(nums, dens)


def test_monotone_matches_brute_force():
    # monotone tables, and tables with one entry moved up or down
    rng = random.Random(8)
    for n in range(1, 9):
        seen = set()
        for _ in range(40):
            table = [rng.randrange(3) + 2 * m.bit_count() for m in range(1 << n)]
            if rng.random() < 0.5:
                table[rng.randrange(1 << n)] += rng.choice((-3, -2, 2, 3))
            expected = all(table[m] <= table[m | 1 << k]
                           for m in range(1 << n) for k in range(n))
            assert _monotone(tuple(table), n) is expected
            seen.add(expected)
        assert seen == {False, True}


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
    # another type is not a cost function: == defers to it, then is False
    assert anon.__eq__(0) is NotImplemented
    assert anon != 0 and not anon == 0


def test_cost_function_repr():
    assert repr(SetCostFunction.anonymous([0, F(3, 2)])) == (
        "SetCostFunction.anonymous([Fraction(0, 1), Fraction(3, 2)])")
    table = SetCostFunction.from_table(2, {(0,): 1, (1,): 2, (0, 1): 2})
    assert repr(table) == "SetCostFunction(n=2, ...)"


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
