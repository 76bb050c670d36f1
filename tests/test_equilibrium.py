import itertools
import math
import random
from fractions import Fraction

import pytest

from oracle import alpha_potential, reference_private_cost

from costarena.core import (
    MAX_SCALE_BITS,
    CapExceededError,
    GameModel,
    Memo,
    SetCostFunction,
    ValidationError,
)
from costarena.equilibrium import (
    DEVIATION_CAP,
    INFINITE,
    _Kernel,
    analyze,
    best_response,
    best_response_dynamics,
    is_pne,
    potential,
    potential_minimizer,
    private_cost,
    private_costs,
    social_cost,
    social_optimum,
)
from costarena.gadgets import build_poa_unbounded, build_pos_linear, build_pos_nharmonic
from costarena.network import Edge, NetworkModel, to_game
from costarena.protocols import (
    GeneralizedWeightedShapley,
    Protocol,
    ProtocolError,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
)
from costarena.randomgames import COST_CLASSES, corpus, random_cost, random_game

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
            assert (reference_private_cost(g, SHAPLEY, moved, i)
                    < reference_private_cost(g, SHAPLEY, profile, i))


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
    assert step.phi == alpha_potential(g, (0, 0))


def test_brd_potential_strictly_decreases():
    rng = random.Random(404)
    for _ in range(25):
        g = random_game(rng, "arbitrary")
        start = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
        res = best_response_dynamics(g, SHAPLEY, start)
        assert res.converged
        assert is_pne(g, SHAPLEY, res.profile)
        phis = [alpha_potential(g, start)] + [s.phi for s in res.trace]
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


def test_brd_random_schedule_defaults_to_seed_0():
    # the second draw at seed 2 is a 4-player game whose outcome moves with
    # the sweep order: 27 of seeds 0..99 give seed 0's run
    rng = random.Random(2)
    for _ in range(2):
        g = random_game(rng, "arbitrary")
        start = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
    seeded = best_response_dynamics(g, SHAPLEY, start, schedule="random", seed=0)
    assert best_response_dynamics(g, SHAPLEY, start, schedule="random", seed=1) != seeded
    for _ in range(4):
        assert best_response_dynamics(g, SHAPLEY, start, schedule="random") == seeded


@pytest.mark.parametrize("bad", [True, 1.5, "3"])
def test_brd_step_budget_is_an_int(bad):
    g, t = chase_game()
    with pytest.raises(ValidationError) as err:
        best_response_dynamics(g, t, (0, 0), max_steps=bad)
    assert str(err.value) == f"max_steps {bad!r} is not an int"


def test_brd_step_budget_halts_unstable_run():
    g, t = chase_game()
    res = best_response_dynamics(g, t, (0, 0), max_steps=12)
    assert not res.converged
    assert len(res.trace) == 12


def test_brd_step_budget_is_not_negative():
    g, t = chase_game()
    res = best_response_dynamics(g, t, (0, 0), max_steps=0)
    assert (res.profile, res.converged, res.trace, res.sweeps) == ((0, 0), False, (), 1)
    with pytest.raises(ValidationError, match="max_steps -1"):
        best_response_dynamics(g, t, (0, 0), max_steps=-1)


def test_brd_default_budget_is_capped(monkeypatch):
    # the default is 10x the profile-space size, at most STEP_CAP, which is
    # read at call time; an explicit budget above the cap is refused
    g, t = chase_game()
    assert len(best_response_dynamics(g, t, (0, 0)).trace) == 10 * g.profile_space_size()
    monkeypatch.setattr("costarena.equilibrium.STEP_CAP", 12)
    res = best_response_dynamics(g, t, (0, 0))
    assert (res.converged, len(res.trace)) == (False, 12)
    assert best_response_dynamics(g, t, (0, 0), max_steps=12) == res
    with pytest.raises(ValidationError) as caught:
        best_response_dynamics(g, t, (0, 0), max_steps=13)
    assert str(caught.value) == "max_steps 13 out of range 0..12"


def test_brd_step_budget_counts_only_changes():
    # the cap bounds accepted changes: a stable start needs none
    g = tension_game()
    stable = analyze(g, SHAPLEY).pne[0]
    res = best_response_dynamics(g, SHAPLEY, stable, max_steps=0)
    assert (res.profile, res.converged, res.trace, res.sweeps) == (stable, True, (), 1)
    unstable = next(p for p in reference_profiles(g) if not is_pne(g, SHAPLEY, p))
    res = best_response_dynamics(g, SHAPLEY, unstable, max_steps=0)
    assert (res.profile, res.converged, res.trace) == (unstable, False, ())
    # a run that needs exactly k changes converges under a cap of k
    full = best_response_dynamics(g, SHAPLEY, unstable)
    capped = best_response_dynamics(g, SHAPLEY, unstable, max_steps=len(full.trace))
    assert full.converged and capped == full


@pytest.mark.parametrize("schedule", ["round-robin", "random"])
@pytest.mark.parametrize("seed", [1.5, True, "x"])
def test_brd_seed_is_an_int(seed, schedule):
    # read whatever the schedule, as random.Random would take each of these
    g, t = chase_game()
    best_response_dynamics(g, t, (0, 0), max_steps=3, schedule=schedule, seed=-7)
    with pytest.raises(ValidationError) as caught:
        best_response_dynamics(g, t, (0, 0), schedule=schedule, seed=seed)
    assert str(caught.value) == f"seed {seed!r} is not an int"


#: Every public entry point that takes a profile, as a call on one profile.
PROFILE_ENTRY_POINTS = {
    "is_pne": lambda g, p: is_pne(g, SHAPLEY, p),
    "social_cost": lambda g, p: social_cost(g, p),
    "potential": lambda g, p: potential(g, p),
    "private_costs": lambda g, p: private_costs(g, SHAPLEY, p),
    "best_response": lambda g, p: best_response(g, SHAPLEY, p, 1),
    "best_response_dynamics": lambda g, p: best_response_dynamics(g, SHAPLEY, p),
}


@pytest.mark.parametrize("profile", [5, None, "00", {0: 0, 1: 0}, iter((0, 0))])
@pytest.mark.parametrize("entry", list(PROFILE_ENTRY_POINTS))
def test_every_profile_entry_point_takes_a_tuple_or_list(entry, profile):
    call = PROFILE_ENTRY_POINTS[entry]
    g = tension_game()
    call(g, (0, 0))
    call(g, [0, 1])
    with pytest.raises(ValidationError) as caught:
        call(g, profile)
    assert str(caught.value) == f"profile {profile!r} is not a tuple or list"


def test_brd_rejects_unknown_schedule():
    g = tension_game()
    with pytest.raises(ValidationError) as caught:
        best_response_dynamics(g, SHAPLEY, (0, 0), schedule="sorted")
    assert str(caught.value) == "unknown schedule 'sorted'"


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
    assert report.potentials == (alpha_potential(g, (0, 0)),)


def test_analyze_has_no_potential_for_other_protocols():
    # only a protocol priced by its potential reports one: a Shapley
    # subclass with its own shares reports neither Shapley's Q nor any other
    g = tension_game()
    table = TableProtocol()
    table.set_entry(g.cost_fns[0], 0b11, {0: F(1, 2), 1: F(1)})
    for protocol in (GeneralizedWeightedShapley(WeightSystem.plain(2)), TableProtocol(),
                     table, HalfSplit(), EvenShapley()):
        report = analyze(g, protocol)
        assert report.pne and report.potentials is None
        trace = best_response_dynamics(g, protocol, (0, 1)).trace
        assert all(step.phi is None for step in trace)
        assert trace or protocol is table  # player 1 pays 1 on e1 or e2 under it


def test_a_game_with_no_resources_still_asks_the_protocol():
    # with nothing to price, the kernel still sizes the protocol to the game
    # and asks it for its rows: only Shapley reports a potential, and a
    # protocol for another player count is refused as for any other game
    g = GameModel(2, (), ((frozenset(),), (frozenset(),)), ())
    assert analyze(g, SHAPLEY).potentials == (0,)
    assert potential_minimizer(g) == (0, 0)
    for protocol in (GeneralizedWeightedShapley(WeightSystem.plain(2)), TableProtocol(),
                     TableProtocol(players=2), HalfSplit()):
        assert analyze(g, protocol).potentials is None
    for protocol, message in ((GeneralizedWeightedShapley(WeightSystem.plain(3)),
                               "weight system covers 3 players, cost function 2"),
                              (TableProtocol(players=3),
                               "share table covers 3 players, cost function 2")):
        with pytest.raises(ProtocolError, match=message):
            analyze(g, protocol)
        with pytest.raises(ProtocolError, match=message):
            best_response_dynamics(g, protocol, (0, 0))


def reference_profiles(model):
    return list(itertools.product(*(range(len(s)) for s in model.strategy_sets)))


def reference_cost(model, profile):
    """Social cost straight from each resource's cost function."""
    usage = model.usage_masks(profile)
    return sum((f.value(u) for f, u in zip(model.cost_fns, usage)), F(0))


def reference_costs(model, protocol, profile, i):
    """Player i's Fraction payment under each of its strategies, the others
    fixed, from ``oracle.reference_private_cost`` (``protocol.share`` summed
    per resource)."""
    return [reference_private_cost(model, protocol, profile[:i] + (s,) + profile[i + 1:], i)
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
            current = profile[i]
            costs = reference_costs(model, protocol, profile, i)
            best = current if costs[current] == min(costs) else costs.index(min(costs))
            if best != current:
                if len(trace) >= max_steps:
                    return profile, False, sweeps, trace
                profile = profile[:i] + (best,) + profile[i + 1:]
                dirty = True
                trace.append((i, current, best,
                              alpha_potential(model, profile) if shapley else None,
                              costs[current], costs[best]))
        if not dirty:
            return profile, True, sweeps, trace


class HalfSplit(Protocol):
    """Even split defined outside the package, on the integer share
    contract: shares at scale f.denominator * lcm(1, ..., n)."""

    name = "half"

    def share_scale(self, f):
        return f.denominator * math.lcm(*range(1, f.n + 1))

    def scaled_share(self, f, users, i):
        if not (users >> i) & 1:
            return 0
        return f.scaled(users) * math.lcm(*range(1, f.n + 1)) // users.bit_count()


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


def listed_table(model, rng, fallback, listed):
    """A share table over ``fallback`` that lists ``listed`` ("nothing",
    "some" or "every") of the nonempty user sets of each of the game's cost
    functions: half of them validated, the whole cost to one member, and
    half unvalidated, which may break budget balance or charge a player
    outside the user set."""
    table = TableProtocol(fallback=fallback)
    for f in dict.fromkeys(model.cost_fns):
        for users in range(1, 1 << model.n):
            if listed == "every" or listed == "some" and rng.random() < 0.3:
                members = [i for i in range(model.n) if users >> i & 1]
                if rng.random() < 0.5:
                    payer = rng.choice(members)
                    table.set_entry(f, users, {i: f.value(users) if i == payer else F(0)
                                               for i in members})
                else:
                    table.set_entry(f, users, {i: F(rng.randint(0, 9), rng.choice((1, 7, 11)))
                                               for i in range(model.n)}, validate=False)
    return table


def share_table_cases():
    """Seeded games under share tables that list nothing, some or every
    user set over Shapley and over ``EvenShapley``, every user set with no
    fallback, and ``rigged_table``."""
    rng = random.Random(39)
    games = [g for cost_class in COST_CLASSES for g in corpus(39, 8, cost_class, max_players=5)]
    for g in games + list(walk_shaped_games(39, 1)):
        for fallback in (SHAPLEY, EvenShapley()):
            for listed in ("nothing", "some", "every"):
                yield g, listed_table(g, rng, fallback, listed)
        yield g, listed_table(g, rng, None, "every")
        yield g, rigged_table(g, rng)


def test_analyze_matches_brute_force_reference():
    for g, protocol in itertools.chain(reference_cases(), share_table_cases()):
        report = analyze(g, protocol)
        pne, costs, opt, opt_c, poa, pos = reference_analysis(g, protocol)
        assert report.pne == tuple(pne)
        assert report.pne_costs == tuple(costs)
        assert (report.optimum, report.optimum_cost) == (opt, opt_c)
        assert (report.poa, report.pos) == (poa, pos)
        assert report.potentials == (tuple(alpha_potential(g, p) for p in pne)
                                     if isinstance(protocol, ShapleyProtocol) else None)
        assert social_optimum(g) == (opt, opt_c)
        assert all(is_pne(g, protocol, p) == (p in pne) for p in reference_profiles(g))


def two_halves_game(n, resources):
    """Each player picks one of two disjoint halves of the resources, and
    every resource costs C(k) = k: every profile is stable."""
    rids = tuple(f"r{j}" for j in range(resources))
    half = frozenset(rids[:resources // 2]), frozenset(rids[resources // 2:])
    return GameModel(n, rids, (half,) * n,
                     (SetCostFunction.anonymous(list(range(n + 1))),) * resources)


def kernel_row_ids(kernel):
    """The ids of the kernel's cost rows, of the rows and of the bases that
    its entries read, and of its potential rows."""
    entries = [entry for options in kernel.options for option in options for entry in option]
    return ({id(row) for row in kernel.costs}, {id(row) for _, row, _ in entries},
            {id(base) for _, _, base in entries}, {id(row) for row in kernel.potentials or ()})


def walk_shaped_games(seed, count):
    """Games shaped like the bench's ``walk`` ones: 6 or 7 players with 1-5
    distinct strategies each over 6 resources, at most 300 profiles, and a
    mix of table and anonymous costs from every cost class."""
    rng = random.Random(seed)
    resources = tuple(f"r{j}" for j in range(6))
    for k in range(count):
        n = rng.choice((6, 7))
        counts = [1] * n
        while True:  # add strategies to random players while the space allows
            i = rng.randrange(n)
            if counts[i] == 5 or math.prod(counts) * (counts[i] + 1) // counts[i] > 300:
                break
            counts[i] += 1
        strategies = []
        for c in counts:
            seen = {}
            while len(seen) < c:
                seen.setdefault(frozenset(rng.sample(resources, rng.randint(1, 6))))
            strategies.append(tuple(seen))
        cost_class = COST_CLASSES[k % len(COST_CLASSES)]
        yield GameModel(n, resources, tuple(strategies),
                        tuple(random_cost(rng, n, cost_class) for _ in resources))


def test_walk_checks_stability_as_the_reference_does():
    # the walk prices each deviation by the resources it adds and drops
    rng = random.Random(21)
    games = list(walk_shaped_games(8, 6))
    assert any(f.anonymous_values is None for g in games for f in g.cost_fns)
    assert any(f.anonymous_values is not None for g in games for f in g.cost_fns)
    for g in games:
        two_blocks = (tuple(range(0, g.n, 2)), tuple(range(1, g.n, 2)))
        gws = GeneralizedWeightedShapley(WeightSystem(
            tuple(F(1 + i % 3, 1 + i % 2) for i in range(g.n)), two_blocks))
        for protocol in (SHAPLEY, gws, rigged_table(g, rng), HalfSplit()):
            report = analyze(g, protocol)
            pne, costs, opt, opt_c, poa, pos = reference_analysis(g, protocol)
            assert report.pne == tuple(pne)
            assert report.pne_costs == tuple(costs)
            assert (report.optimum, report.optimum_cost, report.poa, report.pos) == (
                opt, opt_c, poa, pos)


def test_every_profile_stable_in_lexicographic_order():
    # every profile ties every other, so each is an equilibrium, reported
    # in itertools.product order, and the optimum is the first
    g = two_halves_game(8, 8)
    report = analyze(g, SHAPLEY)
    pne, costs, opt, opt_c, poa, pos = reference_analysis(g, SHAPLEY)
    assert report.pne == tuple(pne) == tuple(reference_profiles(g))
    assert report.pne_costs == tuple(costs)
    assert (report.optimum, report.optimum_cost) == (opt, opt_c) == ((0,) * 8, F(32))
    assert report.poa == report.pos == 1


def random_bundles(rng, rids, counts):
    """For each player, ``counts[i]`` random subsets of ``rids``, repeats
    and the empty set allowed."""
    return tuple(tuple(frozenset(r for r in rids if rng.random() < 0.5) for _ in range(k))
                 for k in counts)


def test_walk_yields_every_profile_once_one_player_moving_per_step():
    # under all-zero costs every profile ties and is stable, so the walk
    # yields each profile it visits: each of itertools.product's exactly
    # once, each after the first one strategy of one player away from the
    # one before, and the last profile yielded is where the kernel stays
    rng = random.Random(41)
    rids = ("a", "b", "c", "d")
    for n in range(1, 7):
        for _ in range(5):
            counts = [rng.randint(1, 5) for _ in range(n)]
            g = GameModel(n, rids, random_bundles(rng, rids, counts),
                          (SetCostFunction.zero(n),) * len(rids))
            kernel = _Kernel(g, SHAPLEY, whole=True)
            walked = list(kernel.walk())
            assert all(total == 0 for _, total in walked)
            profiles = [p for p, _ in walked]
            assert sorted(profiles) == reference_profiles(g)
            for before, after in zip(profiles, profiles[1:]):
                moves = [(a, b) for a, b in zip(before, after) if a != b]
                assert len(moves) == 1 and abs(moves[0][0] - moves[0][1]) == 1
            assert tuple(kernel.profile) == profiles[-1]


class CountedRow:
    """A row that counts its reads."""

    def __init__(self, row):
        self.row, self.reads = row, 0

    def __getitem__(self, mask):
        self.reads += 1
        return self.row[mask]


def test_walk_flips_only_the_moving_players_changed_resources():
    # each step updates only the resources that the moving player's old and
    # new strategies do not share, and player 1, with one strategy on a
    # resource of its own, never turns: that row is read once, for the
    # first total
    rng = random.Random(42)
    rids = ("a", "b", "c", "own")
    for counts in ((4, 1, 3), (1, 1, 5), (2, 1, 2, 3)):
        bundles = list(random_bundles(rng, rids[:3], counts))
        bundles[1] = (frozenset({"own", "a"}),)
        n = len(counts)
        g = GameModel(n, rids, tuple(bundles), (SetCostFunction.zero(n),) * len(rids))
        kernel = _Kernel(g, SHAPLEY)
        rows = kernel.costs = list(map(CountedRow, kernel.costs))
        profiles = [p for p, _ in kernel.walk()]
        flips = dict.fromkeys(rids, 0)
        for before, after in zip(profiles, profiles[1:]):
            for i, (a, b) in enumerate(zip(before, after)):
                for r in bundles[i][a] ^ bundles[i][b]:
                    flips[r] += 1
        assert flips["own"] == 0
        assert [row.reads for row in rows] == [1 + 2 * flips[r] for r in rids]


def test_minima_break_ties_lexicographically():
    # costs of a few small integers tie often, some players have a strategy
    # twice, and the walk does not visit profiles in lexicographic order:
    # each minimum is still the least (value, profile) of brute force
    rng = random.Random(43)
    rids = ("a", "b", "c")
    tied = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        counts = [rng.randint(1, 4) for _ in range(n)]
        bundles = [list(s) for s in random_bundles(rng, rids, counts)]
        for s in bundles:
            if len(s) > 1 and rng.random() < 0.5:
                s[rng.randrange(len(s))] = s[0]
        costs = tuple(SetCostFunction.anonymous(list(itertools.accumulate(
            [0] + [rng.randint(0, 1) for _ in range(n)]))) for _ in rids)
        g = GameModel(n, rids, tuple(map(tuple, bundles)), costs)
        profiles = reference_profiles(g)
        cost, profile = min((reference_cost(g, p), p) for p in profiles)
        tied += sum(reference_cost(g, p) == cost for p in profiles) > 1
        report = analyze(g, SHAPLEY)
        assert (report.optimum, report.optimum_cost) == (profile, cost) == social_optimum(g)
        assert potential_minimizer(g) == min((alpha_potential(g, p), p) for p in profiles)[1]
    assert tied > 30


def deviation_pairs(kernel):
    """Per player, the deviation pairs its table holds, or None for a
    player without a table."""
    return [None if table is None else sum(len(row) for row in table if row is not None)
            for table in kernel.deviations]


def test_deviation_table_is_bounded(monkeypatch):
    # player 0 has 5 strategies (20 pairs), player 1 has 4 (12 pairs),
    # player 2 has 3 (6 pairs) and player 3 one: at a cap of 12, players 1
    # and 2 get a table
    rng = random.Random(3)
    rids = tuple("abcde")
    sets = [tuple(frozenset(rids[j:j + w]) for j, w in ((0, 2), (1, 3), (2, 1), (3, 2), (0, 5))),
            tuple(frozenset(rids[j:j + 2]) for j in range(4)),
            (frozenset("ab"), frozenset("e"), frozenset()),
            (frozenset("c"),)]
    g = GameModel(4, rids, sets, tuple(random_cost(rng, 4) for _ in rids))
    monkeypatch.setattr("costarena.equilibrium.DEVIATION_CAP", 12)
    kernel = _Kernel(g, SHAPLEY)
    pne = sorted(p for p, _ in kernel.walk())
    assert deviation_pairs(kernel) == [None, 4 * 3, 3 * 2, None]
    for protocol in (SHAPLEY, rigged_table(g, rng), HalfSplit()):
        report = analyze(g, protocol)
        want = reference_analysis(g, protocol)
        assert (list(report.pne), list(report.pne_costs), report.optimum) == want[:3]
    assert pne == list(analyze(g, SHAPLEY).pne)


def test_deviation_cap_only_moves_work():
    # at the module's cap, a player with k(k - 1) pairs within it keeps a
    # table and one past it is checked by full sums, with the same report
    k = max(k for k in range(2, 100) if k * (k - 1) <= DEVIATION_CAP)
    rids = tuple(f"r{j}" for j in range(7))
    subsets = [frozenset(r for j, r in enumerate(rids) if m >> j & 1) for m in range(1, 128)]
    rng = random.Random(4)
    g = GameModel(2, rids, (tuple(subsets[:k + 1]), tuple(subsets[-k:])),
                  tuple(random_cost(rng, 2) for _ in rids))
    kernel = _Kernel(g, SHAPLEY)
    walked = list(kernel.walk())
    assert deviation_pairs(kernel) == [None, k * (k - 1)]
    stable = sorted(p for p, _ in walked)
    assert stable == [p for p in reference_profiles(g) if kernel.at(p).stable()]
    assert analyze(g, SHAPLEY).pne == tuple(stable)


def test_rows_read_once_are_not_built():
    # only player 0 has a choice, so the walk reads each of its rows once
    g = GameModel(2, ("a", "b"), ((frozenset("a"), frozenset("b"), frozenset("ab")),
                                  (frozenset("b"),)),
                  (SetCostFunction.anonymous([0, 1, 2]), SetCostFunction.anonymous([0, 3, 4])))
    kernel = _Kernel(g, SHAPLEY)
    stable = [p for p, _ in kernel.walk()]
    assert deviation_pairs(kernel) == [None, None]
    assert stable == reference_analysis(g, SHAPLEY)[0] == [(0, 0)]


def test_full_sums_match_the_reference(monkeypatch):
    # at a cap of 0 no player has a table: every check is a full sum
    monkeypatch.setattr("costarena.equilibrium.DEVIATION_CAP", 0)
    for g, protocol in itertools.islice(reference_cases(), 0, None, 7):
        kernel = _Kernel(g, protocol)
        stable = sorted(p for p, _ in kernel.walk())
        assert all(table is None for table in kernel.deviations)
        assert stable == reference_analysis(g, protocol)[0]


def test_kernel_keeps_rows_per_cost_function():
    # under Shapley every player's entries point at the one potential row
    # of the resource's cost function, as row and as base; no row is kept
    # per player
    g = two_halves_game(8, 8)
    for kernel in (_Kernel(g, SHAPLEY), _Kernel(g, SHAPLEY, whole=True)):
        costs, rows, bases, potentials = kernel_row_ids(kernel)
        assert len(costs) == len(potentials) == 1
        assert rows == bases == potentials
    w = WeightSystem.plain(4)
    for nm in (build_pos_linear(5, F(1, 4)), build_pos_nharmonic(4, F(1, 4), w),
               build_poa_unbounded(3, SHAPLEY)[0]):
        model = to_game(nm)
        distinct = len(set(model.cost_fns))
        costs, rows, bases, potentials = kernel_row_ids(_Kernel(model, SHAPLEY))
        assert len(costs) == len(potentials) == distinct < len(model.cost_fns)
        assert rows == bases <= potentials
    # a share-only protocol keeps a share row per (cost function, player)
    # and one all-zero base
    for protocol in (two_block_gws(g.n), HalfSplit()):
        costs, rows, bases, potentials = kernel_row_ids(_Kernel(g, protocol))
        assert len(rows) == g.n and len(bases) == 1 and not rows & bases
    # an empty share table over Shapley compiles to Shapley's rows: each
    # player's row is its base and holds Q, and no potential is reported
    q = _Kernel(g, SHAPLEY).potentials[0]
    for kernel in (_Kernel(g, TableProtocol()), _Kernel(g, TableProtocol(), whole=True)):
        assert kernel.potentials is None
        for options in kernel.options:
            for _, row, base in (entry for option in options for entry in option):
                assert row is base and [row[m] for m in range(1 << g.n)] == [
                    q[m] for m in range(1 << g.n)]


def test_table_cost_rows_read_the_tables_integers():
    # at a factor D / L of 1 a table's row is its own integers, whole or
    # lazy. Past 1, a kernel compiled for a walk holds whole lists, and any
    # other kernel lazy Memos, for costs and potentials alike.
    e1 = SetCostFunction.anonymous([0, 0, F(3, 2)])
    table = SetCostFunction.from_table(2, {0b01: 1, 0b10: F(1, 2), 0b11: F(3, 2)})
    either = (frozenset({"e1"}), frozenset({"e2"}))
    g = GameModel(2, ("e1", "e2"), (either, either), (e1, table))
    assert g.profile_space_size() == 1 << g.n
    assert _Kernel(g).scale == table.denominator == 2
    assert _Kernel(g).costs[1] is _Kernel(g, whole=True).costs[1] is table.scaled_table()
    lazy, whole = _Kernel(g, SHAPLEY), _Kernel(g, ShapleyProtocol(), whole=True)
    factor = lazy.scale // table.denominator
    assert factor > 1
    for row in lazy.costs + lazy.potentials:
        assert isinstance(row, Memo) and not row
    for row in whole.costs + whole.potentials:
        assert type(row) is list and len(row) == 4
    assert [lazy.costs[1][m] for m in range(4)] == whole.costs[1] == [
        factor * table.scaled(m) for m in range(4)]
    for lazy_row, whole_row in zip(lazy.potentials, whole.potentials):
        assert [lazy_row[m] for m in range(4)] == whole_row
    # a walk over fewer profiles than user masks keeps lazy rows
    g = GameModel(2, g.resources, (either, either[:1]), g.cost_fns)
    assert all(isinstance(row, Memo) for row in _Kernel(g, SHAPLEY, whole=True).costs)


def test_lazy_potential_rows_read_the_protocols_store(monkeypatch):
    # a lazy Shapley kernel's potential row of f is factor * Q at every
    # mask, read from the store that scaled_potentials(f, whole=False)
    # gives: at factor 1 a table's row is that memo itself. Filling the
    # rows never calls scaled_potential
    anonymous = SetCostFunction.anonymous([0, F(1, 2), F(2, 3), 1])
    flat = SetCostFunction.anonymous([0, 1, 1, 2])
    table = SetCostFunction.from_table(3, {0b001: 1, 0b010: 2, 0b100: F(3, 2), 0b011: F(5, 2),
                                           0b101: 2, 0b110: 3, 0b111: F(7, 2)})
    other = SetCostFunction.from_table(3, {0b001: 2, 0b010: 1, 0b100: 1, 0b011: 3,
                                           0b101: F(5, 2), 0b110: F(4, 3), 0b111: 4})
    either = (frozenset("a"), frozenset("b"), frozenset("ab"))
    calls = []
    read = ShapleyProtocol.scaled_potential

    def counted(self, f, users):
        calls.append(users)
        return read(self, f, users)

    factors = set()
    for fns in ((table, table), (other, other), (anonymous, table), (table, other),
                (flat, table)):
        g = GameModel(3, ("a", "b"), (either,) * 3, fns)
        protocol = ShapleyProtocol()
        with monkeypatch.context() as patch:
            patch.setattr(ShapleyProtocol, "scaled_potential", counted)
            kernel = _Kernel(g, protocol)
            rows = [[row[m] for m in range(8)] for row in kernel.potentials]
        assert calls == []
        fresh = ShapleyProtocol()
        for f, row, filled in zip(fns, kernel.potentials, rows):
            k = kernel.scale // protocol.share_scale(f)
            factors.add((f._anon, k == 1))
            assert filled == [k * fresh.scaled_potential(f, m) for m in range(8)]
            store = protocol.scaled_potentials(f, whole=False)
            assert type(store) is (list if f._anon else Memo)
            assert (row is store) is (k == 1 and not f._anon)
    assert factors == {(False, False), (False, True), (True, False), (True, True)}
    # whole=False hands out the store unfilled; a whole row, once built,
    # replaces the memo, and a later lazy kernel reads that row
    protocol = ShapleyProtocol()
    memo = protocol.scaled_potentials(table, whole=False)
    assert type(memo) is Memo and not memo
    assert protocol.scaled_potentials(table, whole=False) is memo
    whole = protocol.scaled_potentials(table)
    assert type(whole) is list and protocol.scaled_potentials(table, whole=False) is whole
    g = GameModel(3, ("a", "b"), (either,) * 3, (table, table))
    assert _Kernel(g, protocol).potentials[0] is whole


class LazyKernel(_Kernel):
    """The kernel with every row lazy, whatever it is compiled for."""

    def __init__(self, model, protocol=None, whole=False):
        super().__init__(model, protocol)


def test_whole_and_lazy_rows_give_the_same_answers(monkeypatch):
    rng = random.Random(63)
    cases = [(g, protocol) for g in walk_shaped_games(64, 8)
             for protocol in (SHAPLEY, two_block_gws(g.n), rigged_table(g, rng), HalfSplit())]
    cases += itertools.islice(reference_cases(), 0, None, 3)
    # an anonymous cost and the equal table read one row, whichever comes first
    anonymous = SetCostFunction.anonymous([0, 2, 3, F(7, 2)])
    twin = SetCostFunction(3, [anonymous.value(m) for m in range(8)])
    either = (frozenset("a"), frozenset("b"))
    for fns in ((anonymous, twin), (twin, anonymous)):
        cases.append((GameModel(3, ("a", "b"), (either,) * 3, fns), SHAPLEY))
    kinds, filled = set(), 0
    for g, protocol in cases:
        if isinstance(protocol, ShapleyProtocol):
            protocol = ShapleyProtocol()  # a fresh store for each kernel
        whole = _Kernel(g, protocol, whole=True)
        lazy = _Kernel(g, ShapleyProtocol() if protocol.name == "shapley" else protocol)
        if 1 << g.n <= g.profile_space_size():
            filled += 1
            assert not any(isinstance(row, Memo) for row in whole.costs)
            for rows, lazy_rows in ((whole.costs, lazy.costs),
                                    (whole.potentials or (), lazy.potentials or ())):
                for row, lazy_row in zip(rows, lazy_rows):
                    assert list(row) == [lazy_row[m] for m in range(1 << g.n)]
        report = analyze(g, protocol)
        with monkeypatch.context() as patch:
            patch.setattr("costarena.equilibrium._Kernel", LazyKernel)
            assert analyze(g, protocol) == report
        for _ in range(3):
            profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
            whole.at(profile)
            lazy.at(profile)
            assert whole.private_costs() == lazy.private_costs()
            for i in range(g.n):
                assert whole.best_response(i) == lazy.best_response(i)
        kinds.add(type(protocol))
    assert filled >= len(cases) // 4
    assert {ShapleyProtocol, GeneralizedWeightedShapley, TableProtocol, HalfSplit} <= kinds


def grid_game(rng, grid, spans):
    """A ``grid`` x ``grid`` network, flattened, with one player per (down,
    right) span and edges of random anonymous or table costs."""
    n = len(spans)
    arcs = [(f"{kind}{r}{c}", f"v{r}{c}", f"v{r + dr}{c + dc}")
            for r in range(grid) for c in range(grid)
            for kind, dr, dc in (("h", 0, 1), ("d", 1, 0)) if r + dr < grid and c + dc < grid]
    edges = tuple(Edge(eid, tail, head, random_cost(rng, n, rng.choice(COST_CLASSES))
                       if rng.random() < 0.2 else
                       SetCostFunction.anonymous([0] + sorted(rng.sample(range(1, 40), n))))
                  for eid, tail, head in arcs)
    terminals = []
    for dr, dc in spans:
        r, c = rng.randint(0, grid - 1 - dr), rng.randint(0, grid - 1 - dc)
        terminals.append((f"v{r}{c}", f"v{r + dr}{c + dc}"))
    vertices = tuple(f"v{r}{c}" for r in range(grid) for c in range(grid))
    return to_game(NetworkModel(vertices, edges, tuple(terminals)))


def test_best_response_prices_each_resource_once():
    # pricing each reachable resource once and summing per strategy gives
    # the sums of row[S] - base[S - i] over each strategy's own entries,
    # along best-response dynamics on seeded grids, under a potential and
    # under share rows
    rng = random.Random(66)
    for k in range(4):
        g = grid_game(rng, 4, ((2, 2), (3, 2), (2, 3), (3, 3)))
        for protocol in (SHAPLEY, two_block_gws(g.n), TableProtocol()):
            kernel = _Kernel(g, protocol).at(tuple(rng.randrange(len(s))
                                                   for s in g.strategy_sets))
            for _ in range(3 * g.n):
                i = rng.randrange(g.n)
                usage, bit = kernel.usage, 1 << i
                sums = [sum(row[usage[r] | bit] - base[usage[r] & ~bit]
                            for r, row, base in option)
                        for option in kernel.options[i]]
                best, costs = kernel.best_response(i)
                assert costs == sums
                if k == 0:
                    assert [F(c, kernel.scale) for c in costs] == reference_costs(
                        g, protocol, tuple(kernel.profile), i)
                kernel.move(i, best)


class EvenShapley(ShapleyProtocol):
    """Shapley's scale and potential, but shares split evenly: a subclass
    that the kernel must price by its own shares."""

    name = "even"

    def scaled_share(self, f, users, i):
        return HalfSplit().scaled_share(f, users, i)


class NamedShapley(ShapleyProtocol):
    """Shapley under another name: the package's own share methods."""

    name = "named"


class HalvedShapley(ShapleyProtocol):
    """Shapley at twice its share scale, so shares and potential are both
    halved: a subclass still priced, and reported, by its potential."""

    name = "halved"

    def share_scale(self, f):
        return 2 * super().share_scale(f)


class CountedShapley(ShapleyProtocol):
    """Shapley's potential times the user count: the shares derive from
    the overridden potential, but the kernel must price them as shares, and
    report no potential."""

    name = "counted"

    def scaled_potential(self, f, users):
        return super().scaled_potential(f, users) * users.bit_count()


def test_kernel_prices_only_shapley_by_its_potential():
    games = list(corpus(67, 12, "arbitrary", max_players=4))
    for protocol in (EvenShapley(), NamedShapley(), HalvedShapley(), CountedShapley()):
        trusted = isinstance(protocol, (NamedShapley, HalvedShapley))
        for g in games:
            kernel = _Kernel(g, protocol)
            _, rows, bases, potentials = kernel_row_ids(kernel)
            assert (rows == bases <= potentials) == trusted
            report = analyze(g, protocol)
            pne, costs, opt, opt_c, poa, pos = reference_analysis(g, protocol)
            assert (report.pne, report.pne_costs, report.poa) == (tuple(pne), tuple(costs), poa)
            own = tuple(sum((F(protocol.scaled_potential(f, users), protocol.share_scale(f))
                             for f, users in zip(g.cost_fns, g.usage_masks(p))), F(0))
                        for p in pne)
            assert report.potentials == (own if trusted else None)
            if isinstance(protocol, HalvedShapley):
                assert own == tuple(alpha_potential(g, p) / 2 for p in pne)
    # the even split and the counted potential differ from Shapley here
    for protocol in (EvenShapley(), CountedShapley()):
        assert any(analyze(g, protocol).pne != analyze(g, SHAPLEY).pne for g in games)


class ShiftedTable(TableProtocol):
    """A share table whose class overrides ``scaled_share``: player i pays
    what the table gives player i + 1 (mod n), so the kernel must price it
    by its shares, not by the rows of its entries and fallback."""

    def scaled_share(self, f, users, i):
        if not users >> i & 1:
            return 0
        return super().scaled_share(f, users, (i + 1) % f.n)


def test_share_table_that_overrides_its_shares_is_priced_by_them():
    rng = random.Random(41)
    differs = False
    for cost_class in COST_CLASSES:
        for g in corpus(41, 4, cost_class, max_players=4):
            shifted = ShiftedTable()
            for f in dict.fromkeys(g.cost_fns):
                users = rng.randrange(1, 1 << g.n)
                shifted.set_entry(f, users, {i: F(rng.randint(0, 9), 7) for i in range(g.n)},
                                  validate=False)
            _, rows, bases, _ = kernel_row_ids(_Kernel(g, shifted))
            assert len(bases) == 1 and not rows & bases
            report = analyze(g, shifted)
            pne, costs, opt, opt_c, poa, pos = reference_analysis(g, shifted)
            assert (report.pne, report.pne_costs, report.poa, report.potentials) == (
                tuple(pne), tuple(costs), poa, None)
            plain = TableProtocol(shifted.entries)
            differs |= analyze(g, plain).pne != report.pne
    assert differs


def test_potential_minimizer_matches_brute_force_reference():
    for cost_class in COST_CLASSES:
        for g in corpus(32, 40, cost_class, max_players=5):
            want = min(reference_profiles(g), key=lambda p: alpha_potential(g, p))
            assert potential_minimizer(g) == want


def test_brd_matches_fraction_reference():
    rng = random.Random(5)
    for k, (g, protocol) in enumerate(itertools.chain(reference_cases(), share_table_cases())):
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


def test_brd_final_social_cost_comes_from_the_kernel():
    kinds = set()
    for g, protocol in reference_cases():
        start = (0,) * g.n
        res = best_response_dynamics(g, protocol, start, max_steps=30)
        assert res.social_cost == reference_cost(g, res.profile)
        stopped = best_response_dynamics(g, protocol, start, max_steps=0)
        assert stopped.social_cost == reference_cost(g, stopped.profile)
        kinds.add(type(protocol))
    assert {ShapleyProtocol, GeneralizedWeightedShapley, TableProtocol} <= kinds


def test_custom_protocol_prices_a_game():
    a, b = SetCostFunction.anonymous([0, 1, 1]), SetCostFunction.anonymous([0, 1, 3])
    choices = (frozenset({"a"}), frozenset({"b"}))
    g = GameModel(2, ("a", "b"), (choices, choices), (a, b))
    # each player pays 3/2 on the shared b and 1 alone on a
    assert not is_pne(g, HalfSplit(), (1, 1))
    assert is_pne(g, HalfSplit(), (0, 0))
    assert analyze(g, HalfSplit()).pne == ((0, 0),)


def two_block_gws(n):
    """GWS with unequal weights: odd players first, then even ones."""
    weights = tuple(F(1 + i % 3, 1 + i % 2) for i in range(n))
    blocks = (tuple(range(1, n, 2)), tuple(range(0, n, 2)))
    return GeneralizedWeightedShapley(WeightSystem(weights, tuple(b for b in blocks if b)))


def test_per_profile_views_match_the_oracle():
    # each view reads the kernel's rows; each reference sums Fractions
    # from the cost functions and Protocol.share
    rng = random.Random(93)
    for cost_class in COST_CLASSES:
        for g in corpus(94, 12, cost_class, max_players=5):
            gws = two_block_gws(g.n)
            for _ in range(3):
                profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
                assert social_cost(g, profile) == reference_cost(g, profile)
                assert potential(g, profile) == alpha_potential(g, profile)
                for protocol in (SHAPLEY, gws, TableProtocol(), HalfSplit()):
                    want = tuple(reference_private_cost(g, protocol, profile, i)
                                 for i in range(g.n))
                    assert private_costs(g, protocol, profile) == want
                    assert tuple(private_cost(g, protocol, profile, i)
                                 for i in range(g.n)) == want


def kernel_state(kernel):
    """The kernel's current profile, its masks and every number read at it."""
    return (tuple(kernel.profile), list(kernel.usage), kernel.private_costs(),
            kernel.stable(), kernel.potential(), kernel.social_cost())


def test_kernel_profile_and_masks_change_together():
    # after at, after each move, at each profile a walk yields and after
    # the walk, at the last profile it visited, the kernel answers as a
    # fresh kernel at the same profile
    g = tension_game()
    kernel = _Kernel(g, SHAPLEY).at((0, 1))
    kernel.move(1, 0)
    assert kernel.private_costs() == (F(3, 4), F(3, 4))
    rng = random.Random(95)
    for cost_class in COST_CLASSES:
        for g in corpus(96, 8, cost_class, max_players=4):
            gws = two_block_gws(g.n)
            for protocol in (SHAPLEY, gws, TableProtocol()):
                def fresh(profile):
                    return kernel_state(_Kernel(g, protocol).at(profile))
                want = [rng.randrange(len(s)) for s in g.strategy_sets]
                kernel = _Kernel(g, protocol)
                assert kernel_state(kernel.at(want)) == fresh(want)
                for _ in range(6):
                    i = rng.randrange(g.n)
                    want[i] = rng.randrange(len(g.strategy_sets[i]))
                    kernel.move(i, want[i])
                    assert kernel_state(kernel) == fresh(want)
                for profile, _ in kernel.walk():
                    assert kernel_state(kernel) == fresh(profile)
                assert kernel_state(kernel) == fresh(tuple(kernel.profile))


def test_views_refuse_a_game_past_the_scale_bits_like_analyze():
    # each resource's denominator is a prime below 4000, and their lcm, the
    # game's D, takes more than MAX_SCALE_BITS bits
    sieve = bytearray([1]) * 4000
    for p in range(2, 64):
        sieve[p * p::p] = bytes(len(range(p * p, 4000, p)))
    primes = [p for p in range(2, 4000) if sieve[p]]
    assert math.prod(primes).bit_length() > MAX_SCALE_BITS
    names = tuple(f"r{p}" for p in primes)
    g = GameModel(1, names, ((frozenset(names),),),
                  tuple(SetCostFunction.anonymous([0, F(1, p)]) for p in primes))
    with pytest.raises(ValidationError) as caught:
        analyze(g, SHAPLEY)
    want = f"common denominator of the game has more than {MAX_SCALE_BITS} bits"
    assert str(caught.value) == want
    for call in (lambda: social_cost(g, (0,)), lambda: potential(g, (0,)),
                 lambda: private_cost(g, SHAPLEY, (0,), 0),
                 lambda: private_costs(g, SHAPLEY, (0,)), lambda: is_pne(g, SHAPLEY, (0,))):
        with pytest.raises(ValidationError) as caught:
            call()
        assert str(caught.value) == want


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", [0.0, "0", True])
def test_strategy_indices_are_ints(index):
    # a float, a string or a bool is refused before it reaches an index;
    # True is not read as strategy 1
    f = SetCostFunction.anonymous([0, 1, 2])
    g = GameModel(2, ("a", "b"), ((frozenset({"a"}), frozenset({"b"})), (frozenset({"a"}),)),
                  (f, f))
    for call in (lambda p: is_pne(g, SHAPLEY, p), lambda p: social_cost(g, p),
                 lambda p: potential(g, p), lambda p: private_cost(g, SHAPLEY, p, 0),
                 lambda p: private_costs(g, SHAPLEY, p),
                 lambda p: best_response_dynamics(g, SHAPLEY, p)):
        with pytest.raises(ValidationError) as caught:
            call((index, 0))
        assert str(caught.value) == f"player 0: strategy index {index!r} is not an int"


def test_enumeration_respects_cap(monkeypatch):
    f = SetCostFunction.zero(2)
    g = GameModel(2, ("a", "b"),
                  ((frozenset({"a"}), frozenset({"b"})),
                   (frozenset({"a"}), frozenset({"b"}))),
                  (f, SetCostFunction.zero(2)))
    monkeypatch.setattr("costarena.equilibrium.PROFILE_CAP", 3)
    with pytest.raises(CapExceededError) as caught:
        analyze(g, SHAPLEY)
    assert str(caught.value) == "profile space has 4 profiles, cap is 3"
    with pytest.raises(CapExceededError):
        social_optimum(g)
    monkeypatch.setattr("costarena.equilibrium.PROFILE_CAP", 4)
    assert len(analyze(g, SHAPLEY).pne) == 4
