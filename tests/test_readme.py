"""The README's library quick tour runs as written, so a renamed or deleted
public name fails here instead of leaving the docs stale."""

import re
from fractions import Fraction as F
from pathlib import Path

from costarena import (
    best_response, best_response_dynamics, is_pne, private_cost, private_costs, social_cost)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_quick_tour() -> dict:
    """The names that the README's one ``python`` block leaves behind."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    return ns


def test_readme_quick_tour_runs():
    ns = run_quick_tour()
    assert ns["ShapleyProtocol"]().shares(ns["jam"], 0b11) == (F(3, 4), F(3, 4))
    assert ns["potential"](ns["game"], (0, 0)) == F(3, 4)
    report = ns["report"]
    assert report.pne == ((0, 0),)
    assert report.pos == F(3, 2)
    assert report.potentials == (F(3, 4),)


def test_readme_game_through_the_package_root():
    # the other per-profile views and the dynamics, on the tour's game
    ns = run_quick_tour()
    game, shapley = ns["game"], ns["ShapleyProtocol"]()
    bills = private_costs(game, shapley, (0, 0))
    assert sum(bills) == social_cost(game, (0, 0)) == F(3, 2)
    assert private_cost(game, shapley, (0, 0), 1) == bills[1]
    run = best_response_dynamics(game, shapley, (0, 1))
    assert (run.profile, run.converged, len(run.trace), run.sweeps) == ((0, 0), True, 1, 2)
    assert is_pne(game, shapley, (0, 0))
    assert best_response(game, shapley, (0, 1), 1) == 0
