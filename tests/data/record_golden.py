"""Record the golden output digests in ``golden_analyze.json``.

Each digest is the sha256 of what the CLI prints on stdout:

* ``analyze``: one digest per cost class and protocol, over the
  concatenated reports of the 500 games of ``corpus(2026, 500, class)``,
  each written to a game file and analyzed under ``shapley`` and under a
  fixed two-block weight system (``gws:``);
* ``gadget``: one digest per invocation, for every kind and n = 2..8
  (``poa_unbounded`` takes a = 2..8; ``pos_nharmonic`` needs even n and
  also runs under the two-block weight system);
* ``shares``: one digest per cost class and protocol, over every
  ``STRIDE``-th game of the same corpora, each at ``SAMPLES`` seeded
  profiles, under ``shapley``, the two-block weight system and a
  ``table:`` file that gives the first resource's full-set cost to the
  last player (Shapley elsewhere);
* ``dynamics``: one digest per cost class, protocol and schedule, over
  the same games, each from one seeded ``random:`` start per schedule
  (the seed also orders the ``random`` schedule's sweeps), at most
  ``MAX_STEPS`` changes a run;
* ``verify-bounds``: one digest per cost class and seed, ``BOUNDS_COUNT``
  games each;
* ``corpus``: per cost class, one digest over the ``game_to_json`` of
  the games of the corpus above and one over ``DRAWS`` games of up to 7
  players drawn from ``random.Random(1)``, so any change to what the
  random-game generator draws shows up even where no command reads it.

The sampled commands are sized to keep the test that checks them under a
second: one game in ``STRIDE``, each of at most 144 profiles.

Refactors of the analysis code must leave every digest unchanged. Run
from the repository root to re-record after an intended output change:

    PYTHONPATH=src python tests/data/record_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from functools import cache

from costarena.cli import build_parser
from costarena.core import full_mask
from costarena.gamefile import cost_to_json, fraction_to_str, game_to_json, weight_system_to_json
from costarena.protocols import WeightSystem
from costarena.randomgames import COST_CLASSES, corpus, random_game

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_analyze.json")
SEED, COUNT = 2026, 500
EPS = "1/4"
STRIDE, SAMPLES, MAX_STEPS = 20, 2, 200
SCHEDULES = ("round-robin", "random")
BOUNDS_SEEDS, BOUNDS_COUNT = (1, 2), 10
DRAWS = 20


@cache
def _corpus(cost_class: str) -> list:
    return corpus(SEED, COUNT, cost_class)


def two_block_system(n: int) -> WeightSystem:
    """Odd players first, then even players; non-integer weights."""
    weights = tuple(Fraction(1 + i % 3, 1 + i % 2) for i in range(n))
    blocks = (tuple(range(1, n, 2)), tuple(range(0, n, 2)))
    return WeightSystem(weights, tuple(b for b in blocks if b))


PARSER = build_parser()


def _stdout(argv: list[str]) -> bytes:
    """Exit code and stdout of one CLI command (every recorded one succeeds)."""
    args = PARSER.parse_args(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = args.func(args)
    return f"exit {code}\n{out.getvalue()}".encode()


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _weight_file(tmp: str, n: int) -> str:
    return _write(os.path.join(tmp, f"w{n}.json"),
                  weight_system_to_json(two_block_system(n)))


def _table_file(tmp: str, model) -> str:
    """A share table over the first resource's cost: its full user set's
    cost goes to the last player."""
    f, top = model.cost_fns[0], full_mask(model.n)
    return _write(os.path.join(tmp, "table.json"), {
        "players": model.n,
        "entries": [{"cost": cost_to_json(f), "users": list(range(model.n)),
                     "shares": {str(model.n - 1): fraction_to_str(f.value(top))}}],
    })


def analyze_digests(tmp: str) -> dict[str, str]:
    digests = {}
    for cost_class in COST_CLASSES:
        games = _corpus(cost_class)
        weights = {n: "gws:" + _weight_file(tmp, n) for n in {g.n for g in games}}
        by_protocol = {"shapley": hashlib.sha256(), "gws": hashlib.sha256()}
        for model in games:
            game = _write(os.path.join(tmp, "game.json"), game_to_json(model))
            for label, h in by_protocol.items():
                spec = "shapley" if label == "shapley" else weights[model.n]
                h.update(_stdout(["analyze", game, "--protocol", spec]))
        for label, h in by_protocol.items():
            digests[f"{cost_class}/{label}"] = h.hexdigest()
    return digests


def sampled_digests(tmp: str) -> dict[str, dict[str, str]]:
    """``shares`` and ``dynamics`` digests over sampled corpus games."""
    hashes = {"shares": {}, "dynamics": {}}

    def update(section: str, key: str, argv: list[str]) -> None:
        hashes[section].setdefault(key, hashlib.sha256()).update(_stdout(argv))

    for cost_class in COST_CLASSES:
        rng = random.Random(f"{SEED}/{cost_class}")
        for model in _corpus(cost_class)[::STRIDE]:
            game = _write(os.path.join(tmp, "game.json"), game_to_json(model))
            specs = {"shapley": "shapley", "gws": "gws:" + _weight_file(tmp, model.n),
                     "table": "table:" + _table_file(tmp, model)}
            profiles = [",".join(str(rng.randrange(len(s))) for s in model.strategy_sets)
                        for _ in range(SAMPLES)]
            starts = {schedule: rng.randrange(1000) for schedule in SCHEDULES}
            for label, spec in specs.items():
                for profile in profiles:
                    update("shares", f"{cost_class}/{label}",
                           ["shares", game, "--profile", profile, "--protocol", spec])
                for schedule, start in starts.items():
                    update("dynamics", f"{cost_class}/{label}/{schedule}",
                           ["dynamics", game, "--start", f"random:{start}",
                            "--schedule", schedule, "--seed", str(start),
                            "--max-steps", str(MAX_STEPS), "--protocol", spec])
    return {section: {key: h.hexdigest() for key, h in found.items()}
            for section, found in hashes.items()}


def bounds_digests() -> dict[str, str]:
    return {f"{cost_class}/seed {seed}": hashlib.sha256(_stdout(
                ["verify-bounds", "--class", cost_class, "--seed", str(seed),
                 "--count", str(BOUNDS_COUNT)])).hexdigest()
            for cost_class in COST_CLASSES for seed in BOUNDS_SEEDS}


def gadget_invocations(tmp: str) -> list[list[str]]:
    runs = []
    for n in range(2, 9):
        runs.append(["pos_linear", "--n", str(n), "--eps", EPS])
        if n % 2 == 0:
            runs.append(["pos_nharmonic", "--n", str(n), "--eps", EPS])
            runs.append(["pos_nharmonic", "--n", str(n), "--eps", EPS,
                         "--protocol", "gws:" + _weight_file(tmp, n)])
        runs.append(["poa_unbounded", "--a", str(n)])
    return runs


def gadget_digests(tmp: str) -> dict[str, str]:
    digests = {}
    for args in gadget_invocations(tmp):
        # weight files live in a temporary directory; key by what they hold
        key = " ".join("gws:two-block" if a.startswith("gws:") else a for a in args)
        digests[key] = hashlib.sha256(_stdout(["gadget", *args])).hexdigest()
    return digests


def corpus_digests() -> dict[str, str]:
    def digest(games) -> str:
        h = hashlib.sha256()
        for model in games:
            h.update(json.dumps(game_to_json(model)).encode())
        return h.hexdigest()

    digests = {}
    for cost_class in COST_CLASSES:
        rng = random.Random(1)
        digests[f"{cost_class}/corpus"] = digest(_corpus(cost_class))
        digests[f"{cost_class}/n<=7"] = digest(
            random_game(rng, cost_class, max_players=7, max_resources=8, max_strategies=6)
            for _ in range(DRAWS))
    return digests


def compute() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"analyze": analyze_digests(tmp), "gadget": gadget_digests(tmp)}


def compute_sampled() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return sampled_digests(tmp) | {"verify-bounds": bounds_digests()}


if __name__ == "__main__":
    doc = compute() | compute_sampled() | {"corpus": corpus_digests()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote " + ", ".join(f"{len(v)} {k}" for k, v in doc.items())
          + f" digests to {GOLDEN}", file=sys.stderr)
