import itertools
import random
from fractions import Fraction

import pytest

from oracle import alpha_potential

from costarena.core import (
    CapExceededError,
    GameModel,
    SetCostFunction,
    ValidationError,
)
from costarena.equilibrium import (
    INFINITE,
    analyze,
    best_response,
    best_response_dynamics,
    is_pne,
    potential_minimizer,
    profile_cap,
    social_optimum,
)
from costarena.potential import potential
from costarena.protocols import (
    GeneralizedWeightedShapley,
    Protocol,
    ProtocolError,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
    private_cost,
)
from costarena.randomgames import COST_CLASSES, corpus, random_game

F = Fraction
SHAPLEY = ShapleyProtocol()


def tension_game():
    """Two players, a shared cheap edge and a private escape hatch.

    Sharing e1 costs 3/2 total; the second player can instead pay 1 alone
    on e2. Both on e1 is the unique equilibrium, split off is cheaper
    overall.
    """
    e1 = SetCostFunction.anonymous([0, 0, F(3, 2)])
    e2 = SetCostFunction.anonymous([0, 1, 2])
    return GameModel(
        2, ("e1", "e2"),
        ((frozenset({"e1"}),),
         (frozenset({"e1"}), frozenset({"e2"}))),
        (e1, e2),
    )


def chase_game():
    """No equilibrium: player 0 rides free on a shared pair, player 1
    pays everything, so 1 keeps fleeing and 0 keeps following."""
    f = SetCostFunction.anonymous([0, 1, 2])
    g = GameModel(
        2, ("A", "B"),
        ((frozenset({"A"}), frozenset({"B"})),
         (frozenset({"A"}), frozenset({"B"}))),
        (f, f),
    )
    t = TableProtocol()
    t.set_entry(f, 0b11, {0: F(0), 1: F(2)})
    return g, t


def freeloader_game():
    """One player who never pays: both opting in and out are equilibria,
    but opting in burns cost 1 nobody is charged for."""
    f = SetCostFunction.anonymous([0, 1])
    g = GameModel(1, ("r",), ((frozenset(), frozenset({"r"})),), (f,))
    t = TableProtocol()
    t.set_entry(f, 0b1, {0: F(0)}, validate=False)
    return g, t


# ---------------------------------------------------------------------------
# best response
# ---------------------------------------------------------------------------

def test_best_response_moves_to_cheaper_strategy():
    g = tension_game()
    assert best_response(g, SHAPLEY, (0, 1), 1) == 0  # join e1: 3/4 < 1
    assert best_response(g, SHAPLEY, (0, 0), 1) == 0  # already best


def test_best_response_keeps_current_on_tie():
    f = SetCostFunction.zero(2)
    g = GameModel(2, ("a", "b"),
                  ((frozenset({"a"}), frozenset({"b"})),
                   (frozenset({"a"}),)), (f, SetCostFunction.zero(2)))
    assert best_response(g, SHAPLEY, (1, 0), 0) == 1
    assert best_response(g, SHAPLEY, (0, 0), 0) == 0


def test_best_response_is_a_strict_improvement_or_fixed():
    rng = random.Random(88)
    for _ in range(40):
        g = random_game(rng, "arbitrary")
        profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        i = rng.randrange(g.n)
        br = best_response(g, SHAPLEY, profile, i)
        if br != profile[i]:
            moved = profile[:i] + (br,) + profile[i + 1:]
            assert (private_cost(g, SHAPLEY, moved, i)
                    < private_cost(g, SHAPLEY, profile, i))


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_brd_already_stable():
    g = tension_game()
    res = best_response_dynamics(g, SHAPLEY, (0, 0))
    assert res.converged
    assert res.profile == (0, 0)
    assert res.trace == ()
    assert res.sweeps == 1


def test_brd_converges_and_logs_steps():
    g = tension_game()
    res = best_response_dynamics(g, SHAPLEY, (0, 1))
    assert res.converged
    assert res.profile == (0, 0)
    assert len(res.trace) == 1
    step = res.trace[0]
    assert (step.player, step.old, step.new) == (1, 1, 0)
    assert step.cost_before == 1
    assert step.cost_after == F(3, 4)
    assert step.phi == potential(g, (0, 0))


def test_brd_potential_strictly_decreases():
    rng = random.Random(404)
    for _ in range(25):
        g = random_game(rng, "arbitrary")
        start = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        res = best_response_dynamics(g, SHAPLEY, start)
        assert res.converged
        assert is_pne(g, SHAPLEY, res.profile)
        phis = [potential(g, start)] + [s.phi for s in res.trace]
        assert all(a > b for a, b in zip(phis, phis[1:]))


def test_brd_random_schedule_reproducible():
    rng = random.Random(606)
    for _ in range(10):
        g = random_game(rng, "arbitrary")
        start = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        a = best_response_dynamics(g, SHAPLEY, start, schedule="random", seed=9)
        b = best_response_dynamics(g, SHAPLEY, start, schedule="random", seed=9)
        assert a == b
        assert a.converged and is_pne(g, SHAPLEY, a.profile)


def test_brd_step_budget_halts_unstable_run():
    g, t = chase_game()
    res = best_response_dynamics(g, t, (0, 0), max_steps=12)
    assert not res.converged
    assert len(res.trace) == 12


def test_brd_step_budget_is_not_negative():
    g, t = chase_game()
    res = best_response_dynamics(g, t, (0, 0), max_steps=0)
    assert (res.profile, res.converged, res.trace) == ((0, 0), False, ())
    with pytest.raises(ValidationError, match="max_steps -1"):
        best_response_dynamics(g, t, (0, 0), max_steps=-1)


def test_brd_rejects_unknown_schedule():
    g = tension_game()
    with pytest.raises(ValueError):
        best_response_dynamics(g, SHAPLEY, (0, 0), schedule="sorted")


# ---------------------------------------------------------------------------
# equilibria and optima
# ---------------------------------------------------------------------------

def test_enumerate_pne_unique_shared_edge():
    g = tension_game()
    assert analyze(g, SHAPLEY).pne == ((0, 0),)
    assert is_pne(g, SHAPLEY, (0, 0))
    assert not is_pne(g, SHAPLEY, (0, 1))


def test_enumerate_pne_empty_for_chase_game():
    g, t = chase_game()
    assert analyze(g, t).pne == ()
    for profile in itertools.product(range(2), range(2)):
        assert not is_pne(g, t, profile)


def test_shapley_games_always_have_pne():
    rng = random.Random(1234)
    for _ in range(40):
        g = random_game(rng, "arbitrary")
        pne = analyze(g, SHAPLEY).pne
        assert pne
        mini = potential_minimizer(g)
        assert mini in pne


def test_social_optimum_prefers_lexicographic_first():
    f = SetCostFunction.zero(2)
    g = GameModel(2, ("a", "b"),
                  ((frozenset({"a"}), frozenset({"b"})),
                   (frozenset({"a"}), frozenset({"b"}))),
                  (f, SetCostFunction.zero(2)))
    assert social_optimum(g) == ((0, 0), F(0))


def test_social_optimum_tension_game():
    g = tension_game()
    profile, cost = social_optimum(g)
    assert profile == (0, 1)
    assert cost == 1


# ---------------------------------------------------------------------------
# ratios
# ---------------------------------------------------------------------------

def test_ratios_on_tension_game():
    report = analyze(tension_game(), SHAPLEY)
    assert report.poa == F(3, 2)
    assert report.pos == F(3, 2)


def test_ratios_undefined_without_equilibria():
    g, t = chase_game()
    report = analyze(g, t)
    assert report.poa is None
    assert report.pos is None


def test_ratio_conventions_zero_optimum():
    g, t = freeloader_game()
    assert sorted(analyze(g, t).pne) == [(0,), (1,)]
    assert social_optimum(g) == ((0,), F(0))
    report = analyze(g, t)
    assert report.poa == INFINITE
    assert report.pos == F(1)


def test_ratio_all_zero_costs():
    f = SetCostFunction.zero(1)
    g = GameModel(1, ("r",), ((frozenset({"r"}), frozenset()),), (f,))
    report = analyze(g, SHAPLEY)
    assert report.poa == 1
    assert report.pos == 1


def test_ratios_bracket_every_equilibrium():
    rng = random.Random(555)
    for _ in range(30):
        g = random_game(rng, "arbitrary")
        report = analyze(g, SHAPLEY)
        if report.optimum_cost == 0:
            continue
        for cost in report.pne_costs:
            ratio = cost / report.optimum_cost
            assert report.pos <= ratio <= report.poa
        assert 1 <= report.pos <= report.poa


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_report_contents():
    g = tension_game()
    report = analyze(g, SHAPLEY)
    assert report.protocol == "shapley"
    assert report.pne == ((0, 0),)
    assert report.pne_costs == (F(3, 2),)
    assert report.optimum == (0, 1)
    assert report.optimum_cost == 1
    assert report.poa == report.pos == F(3, 2)
    assert report.potentials == (potential(g, (0, 0)),)


def test_analyze_has_no_potential_for_other_protocols():
    # only a protocol's own scaled_potential is a potential of its shares
    g = tension_game()
    table = TableProtocol()
    table.set_entry(g.cost_fns[0], 0b11, {0: F(1, 2), 1: F(1)})
    for protocol in (GeneralizedWeightedShapley(WeightSystem.plain(2)), TableProtocol(),
                     table, HalfSplit()):
        report = analyze(g, protocol)
        assert report.pne and report.potentials is None


def reference_profiles(model):
    return list(itertools.product(*(range(len(s)) for s in model.strategy_sets)))


def reference_cost(model, profile):
    """Social cost straight from each resource's cost function."""
    usage = model.usage_masks(profile)
    return sum((f.value(u) for f, u in zip(model.cost_fns, usage)), F(0))


def reference_costs(model, protocol, profile, i):
    """Player i's Fraction payment under each of its strategies, the others
    fixed, from ``private_cost`` (``protocol.share`` summed per resource)."""
    return [private_cost(model, protocol, profile[:i] + (s,) + profile[i + 1:], i)
            for s in range(len(model.strategy_sets[i]))]


def reference_stable(model, protocol, profile):
    for i in range(model.n):
        costs = reference_costs(model, protocol, profile, i)
        if min(costs) < costs[profile[i]]:
            return False
    return True


def reference_analysis(model, protocol):
    """Brute force over itertools.product in Fraction arithmetic, with no
    code from the equilibrium module: (pne, pne costs, optimum, optimum
    cost, poa, pos)."""
    profiles = reference_profiles(model)
    cost = {p: reference_cost(model, p) for p in profiles}
    pne = [p for p in profiles if reference_stable(model, protocol, p)]
    opt = profiles[0]
    for p in profiles:
        if cost[p] < cost[opt]:
            opt = p

    def ratio(c):
        if cost[opt] == 0:
            return 1 if c == 0 else INFINITE
        return c / cost[opt]

    costs = [cost[p] for p in pne]
    poa = ratio(max(costs)) if pne else None
    pos = ratio(min(costs)) if pne else None
    return pne, costs, opt, cost[opt], poa, pos


def reference_brd(model, protocol, start, max_steps, schedule, seed):
    """Best-response dynamics on ``reference_costs``: (final profile,
    converged, sweeps, trace of (player, old, new, phi, before, after))."""
    rng = random.Random(seed) if schedule == "random" else None
    shapley = isinstance(protocol, ShapleyProtocol)
    profile, trace, sweeps = tuple(start), [], 0
    while True:
        sweeps += 1
        dirty = False
        players = list(range(model.n))
        if rng is not None:
            rng.shuffle(players)
        for i in players:
            if len(trace) >= max_steps:
                return profile, False, sweeps, trace
            current = profile[i]
            costs = reference_costs(model, protocol, profile, i)
            best = current if costs[current] == min(costs) else costs.index(min(costs))
            if best != current:
                profile = profile[:i] + (best,) + profile[i + 1:]
                dirty = True
                trace.append((i, current, best,
                              alpha_potential(model, profile) if shapley else None,
                              costs[current], costs[best]))
        if not dirty:
            return profile, True, sweeps, trace


class HalfSplit(Protocol):
    """Even split that only defines ``share``: the kernel has to fall back
    on the base class's exact share scale."""

    name = "half"

    def share(self, f, users, i):
        if not (users >> i) & 1:
            return F(0)
        return f.value(users) / users.bit_count()


def rigged_table(model, rng):
    """Unvalidated entries over Shapley: some break budget balance and some
    charge a player outside the user set, with denominators that change D."""
    table = TableProtocol()
    for _ in range(3):
        f = rng.choice(model.cost_fns)
        users = rng.randrange(1, 1 << model.n)
        table.set_entry(f, users, {i: F(rng.randint(0, 9), rng.choice((1, 7, 11)))
                                   for i in range(model.n)}, validate=False)
    return table


def reference_cases():
    rng = random.Random(77)
    for cost_class in COST_CLASSES:
        for k, g in enumerate(corpus(31, 40, cost_class, max_players=5)):
            yield g, SHAPLEY
            weights = tuple(F(1 + i % 3, 1 + i % 2) for i in range(g.n))
            blocks = (tuple(range(1, g.n, 2)), tuple(range(0, g.n, 2)))
            yield g, GeneralizedWeightedShapley(
                WeightSystem(weights, tuple(b for b in blocks if b)))
            if k % 4 == 0:
                yield g, rigged_table(g, rng)
                yield g, HalfSplit()
    yield tension_game(), SHAPLEY
    yield chase_game()
    yield freeloader_game()


def test_analyze_matches_brute_force_reference():
    for g, protocol in reference_cases():
        report = analyze(g, protocol)
        pne, costs, opt, opt_c, poa, pos = reference_analysis(g, protocol)
        assert report.pne == tuple(pne)
        assert report.pne_costs == tuple(costs)
        assert (report.optimum, report.optimum_cost) == (opt, opt_c)
        assert (report.poa, report.pos) == (poa, pos)
        assert report.potentials == (tuple(alpha_potential(g, p) for p in pne)
                                     if isinstance(protocol, ShapleyProtocol) else None)
        assert analyze(g, protocol).pne == tuple(pne)
        assert social_optimum(g) == (opt, opt_c)
        assert all(is_pne(g, protocol, p) == (p in pne) for p in reference_profiles(g))


def test_potential_minimizer_matches_brute_force_reference():
    for cost_class in COST_CLASSES:
        for g in corpus(32, 40, cost_class, max_players=5):
            want = min(reference_profiles(g), key=lambda p: alpha_potential(g, p))
            assert potential_minimizer(g) == want


def test_brd_matches_fraction_reference():
    rng = random.Random(5)
    for k, (g, protocol) in enumerate(reference_cases()):
        start = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        schedule = ("round-robin", "random")[k % 2]
        res = best_response_dynamics(g, protocol, start, max_steps=30,
                                     schedule=schedule, seed=k)
        profile, converged, sweeps, trace = reference_brd(g, protocol, start, 30,
                                                          schedule, k)
        assert (res.profile, res.converged, res.sweeps) == (profile, converged, sweeps)
        assert [(s.player, s.old, s.new, s.phi, s.cost_before, s.cost_after)
                for s in res.trace] == trace
        for i in range(g.n):
            costs = reference_costs(g, protocol, start, i)
            best = best_response(g, protocol, start, i)
            assert costs[best] == min(costs)
            assert best == start[i] or costs[start[i]] > min(costs)


def test_share_scale_too_small_is_an_error():
    class HalfSplitWrongScale(HalfSplit):
        def share_scale(self, f):
            return f.denominator  # too small: a shared b costs 3/2 each

    a, b = SetCostFunction.anonymous([0, 1, 1]), SetCostFunction.anonymous([0, 1, 3])
    choices = (frozenset({"a"}), frozenset({"b"}))
    g = GameModel(2, ("a", "b"), (choices, choices), (a, b))
    protocol = HalfSplitWrongScale()
    # each player pays 3/2 on the shared b and 1 alone on a
    assert not is_pne(g, HalfSplit(), (1, 1))
    with pytest.raises(ProtocolError, match="'half'.*1/1"):
        is_pne(g, protocol, (1, 1))
    with pytest.raises(ProtocolError, match="share_scale"):
        analyze(g, protocol)


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------

def test_profile_cap_env_override(monkeypatch):
    monkeypatch.delenv("ARENA_MAX_PROFILES", raising=False)
    assert profile_cap() == 10 ** 7
    monkeypatch.setenv("ARENA_MAX_PROFILES", "123")
    assert profile_cap() == 123
    monkeypatch.setenv("ARENA_MAX_PROFILES", "bogus")
    with pytest.raises(ValueError):
        profile_cap()


def test_enumeration_respects_cap(monkeypatch):
    f = SetCostFunction.zero(2)
    g = GameModel(2, ("a", "b"),
                  ((frozenset({"a"}), frozenset({"b"})),
                   (frozenset({"a"}), frozenset({"b"}))),
                  (f, SetCostFunction.zero(2)))
    monkeypatch.setenv("ARENA_MAX_PROFILES", "3")
    with pytest.raises(CapExceededError):
        analyze(g, SHAPLEY)
    with pytest.raises(CapExceededError):
        social_optimum(g)
    monkeypatch.setenv("ARENA_MAX_PROFILES", "4")
    assert len(analyze(g, SHAPLEY).pne) == 4
