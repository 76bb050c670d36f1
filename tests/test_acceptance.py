"""End-to-end checks of the shipped guarantees.

One test per guarantee, one printed PASS/FAIL line each, every comparison
an exact rational equality (no tolerances anywhere).
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import comb

from conftest import record_acceptance
from oracle import (
    alpha,
    potential_by_permutation,
    reference_private_cost,
    shapley_shares_by_permutations,
)

from costarena.core import SetCostFunction, users_of
from costarena.equilibrium import (
    analyze,
    best_response_dynamics,
    is_pne,
    potential,
)
from costarena.gadgets import (
    POA_UNBOUNDED,
    build_poa_unbounded,
    build_pos_linear,
    build_pos_nharmonic,
    verify_gadget,
)
from costarena.network import to_game
from costarena.potential import harmonic
from costarena.protocols import (
    GeneralizedWeightedShapley,
    ShapleyProtocol,
    TableProtocol,
    WeightSystem,
    check_budget_balance,
)
from costarena.randomgames import corpus, random_cost, random_game

F = Fraction
SHAPLEY = ShapleyProtocol()
CORPUS_SEEDS = {"arbitrary": 1009, "submodular": 1013, "supermodular": 1019}


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        record_acceptance(f"FAIL  {label}")
        raise
    record_acceptance(f"PASS  {label}")


@lru_cache(maxsize=None)
def corpus_by_class(cls):
    return tuple(corpus(CORPUS_SEEDS[cls], 500, cls))


def rigged_pair_table(a):
    """Protocol whose smaller pair share never exceeds 1, however large
    the pair cost gets: entries cover the whole probe grid plus the pair
    value the bounded branch will emit."""
    t = TableProtocol()

    def pin(q):
        f = SetCostFunction.anonymous([0, 1, F(q)])
        t.set_entry(f, 0b11, {0: F(1), 1: F(q) - 1})

    q = F(2)
    while q <= (1 << 20) * F(a):
        pin(q)
        q *= 2
    pin(max(2 * F(a), F(2)))
    return t


def test_criterion_1_threshold_family_stability_gap():
    with criterion("criterion 1: threshold-jam generator: unique equilibrium "
                   "and stability ratio exactly n-eps (n=2..6, eps=1/4,1/2,3/4)"):
        t0 = time.monotonic()
        for n in range(2, 7):
            for eps in (F(1, 4), F(1, 2), F(3, 4)):
                report = analyze(to_game(build_pos_linear(n, eps)), SHAPLEY)
                assert len(report.pne) == 1
                assert report.pos == n - eps
        assert time.monotonic() - t0 < 10


def test_criterion_2_harmonic_family_stability_gap():
    with criterion("criterion 2: spine-and-bypass generator: stability ratio "
                   "exactly (n/2+1)H_{n/2}/(1+eps) and the bypass edge idle "
                   "in every equilibrium (n=2,4,6, eps=1/4)"):
        t0 = time.monotonic()
        eps = F(1, 4)
        for n in (2, 4, 6):
            w = WeightSystem.plain(n)
            nm = build_pos_nharmonic(n, eps, w)
            g = to_game(nm)
            report = analyze(g, GeneralizedWeightedShapley(w))
            half = n // 2
            assert report.pos == (half + 1) * harmonic(half) / (1 + eps)
            bypass = f"e{half + 1}"
            for p in report.pne:
                assert users_of(g, p, bypass) == 0
        assert time.monotonic() - t0 < 60


def test_criterion_3_anarchy_generator_reaches_target():
    with criterion("criterion 3: anarchy generator: fair splitting trips the "
                   "diamond branch at ratio (4a+2)/4 >= a; a rigged bounded "
                   "split trips the bounded branch at ratio >= a (a=2,5,10)"):
        t0 = time.monotonic()
        for a in (F(2), F(5), F(10)):
            nm, case = build_poa_unbounded(a, ShapleyProtocol())
            assert case == 1
            report = verify_gadget(nm, a, POA_UNBOUNDED)
            assert report.ok
            assert report.measured >= F(4 * a + 2, 4) >= a

            rigged = rigged_pair_table(a)
            nm2, case2 = build_poa_unbounded(a, rigged)
            assert case2 == 2
            report2 = verify_gadget(nm2, a, POA_UNBOUNDED, rigged)
            assert report2.ok
            assert report2.measured >= a
        assert time.monotonic() - t0 < 5


def test_criterion_4_exact_potential_on_corpus():
    with criterion("criterion 4: potential change equals the deviator's cost "
                   "change for every profile and unilateral deviation on 500 "
                   "seeded games"):
        games = corpus_by_class("arbitrary")
        assert len(games) == 500
        for g in games:
            profiles = list(itertools.product(
                *(range(len(s)) for s in g.strategy_sets)))
            phi = {p: potential(g, p) for p in profiles}
            bill = {p: [reference_private_cost(g, SHAPLEY, p, i) for i in range(g.n)]
                    for p in profiles}
            for p in profiles:
                for i in range(g.n):
                    for alt in range(len(g.strategy_sets[i])):
                        if alt == p[i]:
                            continue
                        q = p[:i] + (alt,) + p[i + 1:]
                        assert phi[p] - phi[q] == bill[p][i] - bill[q][i]


def test_criterion_5_oracle_equivalence():
    with criterion("criterion 5: Shapley shares match permutation averages "
                   "on all user sets of 200 random cost functions; closed-form "
                   "potential matches every build-up order for n <= 5"):
        rng = random.Random(501)
        for _ in range(200):
            n = rng.randint(1, 6)
            f = random_cost(rng, n, "arbitrary")
            for users in range(1 << n):
                assert (SHAPLEY.shares(f, users)
                        == shapley_shares_by_permutations(f, users))

        rng = random.Random(502)
        sizes = [2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5]
        for n in sizes:
            g = random_game(rng, "arbitrary", max_players=n, max_resources=3)
            profile = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
            want = potential(g, profile)
            for order in itertools.permutations(range(g.n)):
                assert potential_by_permutation(g, profile, order) == want


def test_criterion_6_harmonic_identity():
    with criterion("criterion 6: the subset coefficients over a k-set sum "
                   "to the k-th harmonic number, k <= 12"):
        for k in range(1, 13):
            total = sum(comb(k, t) * alpha(k, t) for t in range(1, k + 1))
            assert total == harmonic(k)


def test_criterion_7_ratio_bound_suites():
    with criterion("criterion 7: on 500-game corpora per cost class, "
                   "stability ratio <= H_n (submodular), <= n (supermodular), "
                   "<= n*H_n (arbitrary), and anarchy ratio <= n (submodular)"):
        t0 = time.monotonic()
        for cls, games in ((c, corpus_by_class(c)) for c in CORPUS_SEEDS):
            for g in games:
                report = analyze(g, SHAPLEY)
                assert report.pos is not None
                if cls == "submodular":
                    assert report.pos <= harmonic(g.n)
                    assert report.poa <= g.n
                elif cls == "supermodular":
                    assert report.pos <= g.n
                else:
                    assert report.pos <= g.n * harmonic(g.n)
        assert time.monotonic() - t0 < 300


def test_criterion_8_budget_balance():
    with criterion("criterion 8: shares sum to the cost over every user set, "
                   "for plain splitting and 20 random weight systems, "
                   "arities up to 5"):
        rng = random.Random(801)
        for n in range(1, 6):
            for _ in range(4):
                assert check_budget_balance(SHAPLEY, random_cost(rng, n, "arbitrary"))
        for _ in range(20):
            n = rng.randint(1, 5)
            weights = tuple(F(rng.randint(1, 6), rng.randint(1, 4))
                            for _ in range(n))
            players = list(range(n))
            rng.shuffle(players)
            blocks, at = [], 0
            while at < n:
                take = rng.randint(1, n - at)
                blocks.append(tuple(players[at:at + take]))
                at += take
            p = GeneralizedWeightedShapley(WeightSystem(weights, tuple(blocks)))
            for _ in range(3):
                assert check_budget_balance(p, random_cost(rng, n, "arbitrary"))


def test_criterion_9_stability_and_convergence():
    with criterion("criterion 9: every corpus game has an equilibrium under "
                   "fair splitting, and best-response dynamics converges from "
                   "5 seeded random starts per game"):
        for idx, g in enumerate(corpus_by_class("arbitrary")):
            assert analyze(g, SHAPLEY).pne
            rng = random.Random(9000 + idx)
            for _ in range(5):
                start = tuple(rng.randrange(len(s)) for s in g.strategy_sets)
                res = best_response_dynamics(g, SHAPLEY, start)
                assert res.converged
                assert is_pne(g, SHAPLEY, res.profile)
