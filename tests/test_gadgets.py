from fractions import Fraction

import pytest

from costarena.core import SetCostFunction, ValidationError, users_of
from costarena.equilibrium import analyze
from costarena.gadgets import (
    POA_UNBOUNDED,
    POS_LINEAR,
    POS_NHARMONIC,
    GadgetSpec,
    build_poa_unbounded,
    build_pos_linear,
    build_pos_nharmonic,
    min_pair_share,
    verify_gadget,
)
from costarena.network import to_game
from costarena.potential import harmonic
from costarena.protocols import (
    GeneralizedWeightedShapley,
    Protocol,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
)

F = Fraction
SHAPLEY = ShapleyProtocol()


# ---------------------------------------------------------------------------
# parameter validation and targets
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValidationError):
        GadgetSpec("pos_cubic")
    with pytest.raises(ValidationError):
        GadgetSpec(POS_LINEAR, n=1, eps=F(1, 2))
    with pytest.raises(ValidationError):
        GadgetSpec(POS_LINEAR, n=3, eps=F(1))
    with pytest.raises(ValidationError):
        GadgetSpec(POS_NHARMONIC, n=3, eps=F(1, 4))  # odd
    with pytest.raises(ValidationError):
        GadgetSpec(POS_NHARMONIC, n=4, eps=F(1, 2))  # eps too big
    with pytest.raises(ValidationError):
        GadgetSpec(POA_UNBOUNDED, a=F(1, 2))


def test_spec_caps_player_count():
    # checked before a builder sizes a cost list or a weight system by n
    for kind, n, eps in [(POS_LINEAR, 17, F(1, 2)), (POS_NHARMONIC, 18, F(1, 4))]:
        with pytest.raises(ValidationError, match="player count"):
            GadgetSpec(kind, n=n, eps=eps)
    assert GadgetSpec(POS_NHARMONIC, n=16, eps=F(1, 4)).n == 16


def test_expected_ratios():
    assert GadgetSpec(POS_LINEAR, n=3, eps=F(1, 2)).expected_ratio() == F(5, 2)
    assert (GadgetSpec(POS_NHARMONIC, n=4, eps=F(1, 4)).expected_ratio()
            == 3 * harmonic(2) / F(5, 4) == F(18, 5))
    spec = GadgetSpec(POA_UNBOUNDED, a=F(5))
    assert spec.expected_ratio(case=1) == F(11, 2)
    assert spec.expected_ratio(case=2) == 5


# ---------------------------------------------------------------------------
# stability gap, linear family
# ---------------------------------------------------------------------------

def test_pos_linear_two_players_full_analysis():
    nm = build_pos_linear(2, F(1, 2))
    g = to_game(nm)
    report = analyze(g, SHAPLEY)
    assert len(report.pne) == 1
    assert report.pne_costs == (F(3, 2),)
    assert report.optimum_cost == 1
    assert report.poa == report.pos == F(3, 2)


def test_pos_linear_structure():
    for n in range(2, 17):
        g = to_game(build_pos_linear(n, F(1, 4)))
        assert g.n == n
        # all but the last player have one route, the shared jam route
        for i in range(n - 1):
            assert g.strategy_sets[i] == (frozenset({"e1", "e4"}),)
        assert len(g.strategy_sets[n - 1]) == 2
        e1 = g.cost_fns[g.resources.index("e1")]
        assert e1.value((1 << n) - 1) == n - F(1, 4)
        assert e1.value((1 << n) - 2) == 0


def test_pos_linear_verify_round():
    spec = GadgetSpec(POS_LINEAR, n=4, eps=F(1, 4))
    nm = build_pos_linear(4, F(1, 4))
    report = verify_gadget(nm, spec.expected_ratio(), POS_LINEAR)
    assert report.ok
    assert report.measured == F(15, 4)
    assert report.optimum_cost == 1
    assert len(report.pne) == 1


def test_pos_linear_wrong_expectation_flagged():
    nm = build_pos_linear(3, F(1, 2))
    report = verify_gadget(nm, F(3), POS_LINEAR)
    assert not report.ok
    assert report.measured == F(5, 2)


# ---------------------------------------------------------------------------
# stability gap, harmonic family
# ---------------------------------------------------------------------------

def test_pos_nharmonic_unit_weights():
    w = WeightSystem.plain(4)
    nm = build_pos_nharmonic(4, F(1, 4), w)
    report = verify_gadget(nm, F(18, 5), POS_NHARMONIC,
                           GeneralizedWeightedShapley(w))
    assert report.ok
    assert report.measured == F(18, 5)
    # the flat-rate bypass edge stays empty in every equilibrium
    g = to_game(nm)
    order = {r: k for k, r in enumerate(g.resources)}
    assert "e3" in order
    for p in report.pne:
        assert users_of(g, p, "e3") == 0


def test_pos_nharmonic_smallest_instance():
    w = WeightSystem.plain(2)
    nm = build_pos_nharmonic(2, F(1, 4), w)
    report = verify_gadget(nm, F(8, 5), POS_NHARMONIC)
    assert report.ok


def test_pos_nharmonic_unequal_weights():
    w = WeightSystem((F(1), F(2), F(3), F(4)), (frozenset({0, 1, 2, 3}),))
    nm = build_pos_nharmonic(4, F(1, 4), w)
    report = verify_gadget(nm, F(18, 5), POS_NHARMONIC,
                           GeneralizedWeightedShapley(w))
    assert report.ok
    assert report.measured == F(18, 5)


def test_pos_nharmonic_ordered_blocks():
    w = WeightSystem((F(1),) * 4, (frozenset({1, 3}), frozenset({0, 2})))
    nm = build_pos_nharmonic(4, F(1, 4), w)
    # priority players ride the spine end to end
    assert nm.terminals[1] == ("sA", "tA")
    assert nm.terminals[3] == ("sA", "tA")
    report = verify_gadget(nm, F(18, 5), POS_NHARMONIC,
                           GeneralizedWeightedShapley(w))
    assert report.ok


def test_pos_nharmonic_weight_arity_guard():
    with pytest.raises(ValidationError):
        build_pos_nharmonic(4, F(1, 4), WeightSystem.plain(2))


# ---------------------------------------------------------------------------
# anarchy gap
# ---------------------------------------------------------------------------

def test_min_pair_share_shapley():
    assert min_pair_share(SHAPLEY, F(6)) == 3
    assert min_pair_share(SHAPLEY, F(2)) == 1


def test_poa_case1_for_fair_split():
    for a in (F(2), F(5)):
        nm, case = build_poa_unbounded(a, ShapleyProtocol())
        assert case == 1
        report = verify_gadget(nm, a, POA_UNBOUNDED)
        assert report.ok
        assert report.measured == F(4 * a + 2, 4)
        assert report.optimum_cost == 4


def test_poa_case1_grid_choice():
    # shapley halves the pair, so the probe stops at the first q with q/2 >= 4a
    nm, case = build_poa_unbounded(F(2), ShapleyProtocol())
    assert case == 1
    g = to_game(nm)
    e1 = g.cost_fns[g.resources.index("e1")]
    assert e1.value(0b11) == 16


def bounded_table(a):
    """Protocol that pins player 0's pair share at 1 for every probed q."""
    t = TableProtocol()

    def pin(q):
        f = SetCostFunction.anonymous([0, 1, F(q)])
        t.set_entry(f, 0b11, {0: F(1), 1: F(q) - 1})

    q = F(2)
    while q <= (1 << 20) * F(a):
        pin(q)
        q *= 2
    pin(max(2 * F(a), F(2)))  # the pair value case 2 will emit
    return t


def test_poa_case2_for_lopsided_split():
    for a in (F(3), F(7)):
        t = bounded_table(a)
        nm, case = build_poa_unbounded(a, t)
        assert case == 2
        # the rigged low payer gets the routing choice
        assert nm.terminals[0] == ("s1", "t")
        assert nm.terminals[1] == ("s2", "t")
        g = to_game(nm)
        e1 = g.cost_fns[g.resources.index("e1")]
        assert e1.value(0b11) == 2 * a
        report = verify_gadget(nm, a, POA_UNBOUNDED, t)
        assert report.ok
        assert report.measured == a
        assert report.optimum_cost == 2


def test_poa_probe_grid_too_short_is_caught(monkeypatch):
    # truncating the probe (q <= 2 * a = 4) makes shapley look bounded; the
    # emitted game then fails certification instead of silently shipping
    monkeypatch.setattr("costarena.gadgets.PROBE_DOUBLINGS", 1)
    nm, case = build_poa_unbounded(F(2), ShapleyProtocol())
    assert case == 2
    report = verify_gadget(nm, F(2), POA_UNBOUNDED)
    assert not report.ok


def test_gadgets_compare_integer_shares(monkeypatch):
    # every probe and the certification read scaled_share, never share
    def refuse(self, f, users, i):
        raise AssertionError("a Fraction share was asked for")

    monkeypatch.setattr(Protocol, "share", refuse)
    assert verify_gadget(build_pos_linear(3, F(1, 4)), F(11, 4), POS_LINEAR).ok
    w = WeightSystem((F(1), F(2), F(3), F(4)), ((0, 1, 2, 3),))
    assert verify_gadget(build_pos_nharmonic(4, F(1, 4), w), F(18, 5), POS_NHARMONIC,
                         GeneralizedWeightedShapley(w)).ok
    for protocol, expected_case in ((ShapleyProtocol(), 1), (bounded_table(3), 2)):
        nm, case = build_poa_unbounded(F(3), protocol)
        assert case == expected_case
        assert verify_gadget(nm, F(3), POA_UNBOUNDED, protocol).ok


def test_verify_gadget_rejects_unknown_kind():
    nm = build_pos_linear(2, F(1, 2))
    with pytest.raises(ValidationError):
        verify_gadget(nm, F(3, 2), "pos_cubic")
