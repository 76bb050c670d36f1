"""Output checks that hold for every seed.

``check(argv, rc, stdout)`` returns None when the op's output is right and
a one-line reason otherwise. It re-derives what it can with the library
(``is_pne`` on every reported equilibrium, budget balance of every share
row) and never trusts the CLI's own verdicts alone. It runs outside the
timed region and with tracing removed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from costarena.cli import resolve_protocol
from costarena.equilibrium import is_pne
from costarena.gamefile import load_game


def _protocol_spec(argv: list[str]) -> str:
    return argv[argv.index("--protocol") + 1] if "--protocol" in argv else "shapley"


def _ratio(text):
    return float("inf") if text == "inf" else Fraction(text)


def _check_analyze(argv, doc):
    model, _ = load_game(argv[1])
    protocol, _ = resolve_protocol(_protocol_spec(argv))
    opt = Fraction(doc["optimum"]["cost"])
    if not doc["pne"]:
        return "no equilibrium reported"
    for entry in doc["pne"]:
        if Fraction(entry["cost"]) < opt:
            return f"equilibrium {entry['profile']} costs less than the optimum"
        if not is_pne(model, protocol, tuple(entry["profile"])):
            return f"reported profile {entry['profile']} is not an equilibrium"
    if _ratio(doc["pos"]) > _ratio(doc["poa"]):
        return "pos exceeds poa"
    return None


def _check_shares(argv, doc):
    for row in doc["resources"]:
        shares = [Fraction(s) for s in row["shares"]]
        if sum(shares) != Fraction(row["cost"]):
            return f"shares of {row['id']} do not sum to its cost"
        if any(s != 0 for i, s in enumerate(shares) if i not in row["users"]):
            return f"a non-user pays on {row['id']}"
    return None


def _check_dynamics(argv, doc):
    if not doc["converged"]:
        return "dynamics did not converge"
    model, _ = load_game(argv[1])
    protocol, _ = resolve_protocol(_protocol_spec(argv))
    if not is_pne(model, protocol, tuple(doc["final"])):
        return "final profile is not an equilibrium"
    return None


def _check_ok(argv, doc):
    return None if doc["ok"] is True else '"ok" is not true'


CHECKS = {
    "analyze": _check_analyze,
    "shares": _check_shares,
    "dynamics": _check_dynamics,
    "gadget": _check_ok,
    "verify-bounds": _check_ok,
}


def check(argv: list[str], rc: int, stdout: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    return CHECKS[argv[0]](argv, doc)
