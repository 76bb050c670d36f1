"""Record the golden output digests in ``golden_analyze.json``.

Each digest is the sha256 of what the CLI prints on stdout:

* ``analyze``: one digest per cost class and protocol, over the
  concatenated reports of the 500 games of ``corpus(2026, 500, class)``,
  each written to a game file and analyzed under ``shapley`` and under a
  fixed two-block weight system (``gws:``);
* ``gadget``: one digest per invocation, for every kind and n = 2..8
  (``poa_unbounded`` takes a = 2..8; ``pos_nharmonic`` needs even n and
  also runs under the two-block weight system).

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
import sys
import tempfile
from fractions import Fraction

from costarena.cli import build_parser
from costarena.gamefile import game_to_json, weight_system_to_json
from costarena.protocols import WeightSystem
from costarena.randomgames import COST_CLASSES, corpus

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_analyze.json")
SEED, COUNT = 2026, 500
EPS = "1/4"


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


def analyze_digests(tmp: str) -> dict[str, str]:
    digests = {}
    for cost_class in COST_CLASSES:
        games = corpus(SEED, COUNT, cost_class)
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


def compute() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {"analyze": analyze_digests(tmp), "gadget": gadget_digests(tmp)}


if __name__ == "__main__":
    doc = compute()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc['analyze'])} analyze and {len(doc['gadget'])} "
          f"gadget digests to {GOLDEN}", file=sys.stderr)
