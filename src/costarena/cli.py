"""Command-line front end.

Machine-readable JSON goes to stdout, a short human summary to stderr.
Exit codes: 0 success, 2 validation/input error, 3 enumeration cap
exceeded (or non-convergence under ``dynamics --strict``). Exit code 1 is
reserved for ``verify-bounds`` finding an actual bound violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from functools import cache

from .core import (
    SUBMODULAR, SUPERMODULAR, CapExceededError, ValidationError, mask_members,
    parse_fraction)
from .equilibrium import INFINITE, analyze, best_response_dynamics
from .gadgets import (
    GadgetSpec,
    KINDS,
    POA_UNBOUNDED,
    POS_LINEAR,
    POS_NHARMONIC,
    build_poa_unbounded,
    build_pos_linear,
    build_pos_nharmonic,
    verify_gadget,
)
from .gamefile import (
    fraction_to_str,
    load_game,
    load_table_protocol,
    load_weight_system,
    network_to_json,
)
from .potential import harmonic
from .protocols import (
    GeneralizedWeightedShapley,
    Protocol,
    ProtocolError,
    ShapleyProtocol,
    WeightSystem,
)
from .randomgames import COST_CLASSES, corpus


def _ratio_json(value) -> str | None:
    if value is None:
        return "undefined"
    if value == INFINITE:
        return "inf"
    return fraction_to_str(value)


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


def resolve_protocol(spec: str) -> tuple[Protocol, WeightSystem | None]:
    if spec == "shapley":
        return ShapleyProtocol(), None
    if spec.startswith("gws:"):
        w = load_weight_system(spec[4:])
        return GeneralizedWeightedShapley(w), w
    if spec.startswith("table:"):
        return load_table_protocol(spec[6:]), None
    raise ValidationError(
        f"unknown protocol {spec!r}; use shapley, gws:<file> or table:<file>")


def _parse_profile(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"bad profile {text!r}; expected comma-separated "
                              f"indices") from None


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    model, _ = load_game(args.file)
    protocol, _ = resolve_protocol(args.protocol)
    report = analyze(model, protocol)
    doc = {
        "protocol": report.protocol,
        "pne": [{"profile": list(p), "cost": fraction_to_str(c)}
                for p, c in zip(report.pne, report.pne_costs)],
        "optimum": {"profile": list(report.optimum),
                    "cost": fraction_to_str(report.optimum_cost)},
        "poa": _ratio_json(report.poa),
        "pos": _ratio_json(report.pos),
        "potential": (None if report.potentials is None
                      else [fraction_to_str(v) for v in report.potentials]),
    }
    _emit(doc)
    _note(f"protocol: {report.protocol}")
    _note(f"equilibria: {len(report.pne)}")
    for p, c in zip(report.pne, report.pne_costs):
        _note(f"  {list(p)}  cost {c}")
    _note(f"optimum: {list(report.optimum)}  cost {report.optimum_cost}")
    _note(f"poa: {doc['poa']}   pos: {doc['pos']}")
    return 0


# ---------------------------------------------------------------------------
# shares
# ---------------------------------------------------------------------------

def cmd_shares(args) -> int:
    model, _ = load_game(args.file)
    protocol, _ = resolve_protocol(args.protocol)
    profile = _parse_profile(args.profile)
    usage = model.usage_masks(profile)
    rows = []
    for rid, f, users in zip(model.resources, model.cost_fns, usage):
        vec = protocol.shares(f, users)
        rows.append({
            "id": rid,
            "users": list(mask_members(users)),
            "cost": fraction_to_str(f.value(users)),
            "shares": [fraction_to_str(v) for v in vec],
        })
    _emit({"protocol": protocol.name, "profile": list(profile), "resources": rows})
    _note(f"profile {list(profile)} under {protocol.name}")
    for row in rows:
        _note(f"  {row['id']}: users {row['users']} cost {row['cost']} "
              f"shares {row['shares']}")
    return 0


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------

def cmd_gadget(args) -> int:
    protocol, weights = resolve_protocol(args.protocol)
    case = None
    if args.kind == POS_LINEAR:
        spec = GadgetSpec(POS_LINEAR, n=args.n, eps=args.eps)
        if protocol.name != "shapley":  # the gadget's ratio holds under Shapley only
            raise ValidationError("pos_linear needs the shapley protocol")
        nm = build_pos_linear(spec.n, spec.eps)
    elif args.kind == POS_NHARMONIC:
        spec = GadgetSpec(POS_NHARMONIC, n=args.n, eps=args.eps)
        if weights is None:
            if protocol.name != "shapley":
                raise ValidationError("pos_nharmonic needs shapley or gws:<file>")
            weights = WeightSystem.plain(spec.n)
            protocol = GeneralizedWeightedShapley(weights)
        nm = build_pos_nharmonic(spec.n, spec.eps, weights)
    else:
        spec = GadgetSpec(POA_UNBOUNDED, a=args.a)
        nm, case = build_poa_unbounded(spec.a, protocol)
    expected = spec.expected_ratio(case)
    report = verify_gadget(nm, expected, spec.kind, protocol)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(network_to_json(nm), fh, indent=2)
            fh.write("\n")
    _emit({
        "kind": spec.kind,
        "case": case,
        "protocol": protocol.name,
        "expected": fraction_to_str(expected),
        "measured": _ratio_json(report.measured),
        "ok": report.ok,
        "pne": [list(p) for p in report.pne],
        "optimum_cost": fraction_to_str(report.optimum_cost),
        "out": args.out,
    })
    _note(f"{spec.kind}: expected {fraction_to_str(expected)}, "
          f"measured {_ratio_json(report.measured)}"
          + (f" (case {case})" if case else ""))
    _note("verified" if report.ok else "MISMATCH; equilibria: "
          + "; ".join(f"{list(p)} cost {c}"
                      for p, c in zip(report.pne, report.pne_costs)))
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def cmd_dynamics(args) -> int:
    model, _ = load_game(args.file)
    protocol, _ = resolve_protocol(args.protocol)
    if args.start is None:
        start = (0,) * model.n
    elif args.start.startswith("random:"):
        try:
            seed = int(args.start[7:])
        except ValueError:
            raise ValidationError(f"bad start {args.start!r}") from None
        rng = random.Random(seed)
        start = tuple(rng.randrange(len(s)) for s in model.strategy_sets)
    else:
        start = _parse_profile(args.start)
    result = best_response_dynamics(model, protocol, start,
                                    max_steps=args.max_steps,
                                    schedule=args.schedule, seed=args.seed)
    _emit({
        "protocol": protocol.name,
        "start": list(start),
        "final": list(result.profile),
        "final_cost": fraction_to_str(result.social_cost),
        "converged": result.converged,
        "sweeps": result.sweeps,
        "steps": [{
            "player": s.player, "old": s.old, "new": s.new,
            "phi": None if s.phi is None else fraction_to_str(s.phi),
            "cost_before": fraction_to_str(s.cost_before),
            "cost_after": fraction_to_str(s.cost_after),
        } for s in result.trace],
    })
    _note(f"start {list(start)} -> final {list(result.profile)} "
          f"({'converged' if result.converged else 'step cap hit'}, "
          f"{len(result.trace)} changes, {result.sweeps} sweeps)")
    for s in result.trace:
        _note(f"  player {s.player}: {s.old} -> {s.new}  "
              f"cost {s.cost_before} -> {s.cost_after}  phi {s.phi}")
    if args.strict and not result.converged:
        return 3
    return 0


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------

def cmd_verify_bounds(args) -> int:
    protocol = ShapleyProtocol()
    games = corpus(args.seed, args.count, args.cost_class)
    violations = []
    checked = []
    limits = {}  # player count n -> (n, H_n, n * H_n), each computed once
    for idx, model in enumerate(games):
        report = analyze(model, protocol)
        n = model.n
        if n not in limits:
            h = harmonic(n)
            limits[n] = Fraction(n), h, n * h
        whole, h, product = limits[n]
        bounds = {}
        if args.cost_class == SUBMODULAR:
            bounds["pos<=H_n"] = (report.pos, h)
            bounds["poa<=n"] = (report.poa, whole)
        elif args.cost_class == SUPERMODULAR:
            bounds["pos<=n"] = (report.pos, whole)
        else:
            bounds["pos<=n*H_n"] = (report.pos, product)
        if not report.pne:
            violations.append({"game": idx, "bound": "pne-exists", "value": "0"})
        for name, (value, limit) in bounds.items():
            checked.append(name)
            if value is None or value > limit:
                violations.append({"game": idx, "bound": name,
                                   "value": _ratio_json(value)})
    ok = not violations
    _emit({
        "class": args.cost_class,
        "seed": args.seed,
        "count": args.count,
        "bounds": sorted(set(checked)),
        "violations": violations,
        "ok": ok,
    })
    _note(f"{args.count} {args.cost_class} games, seed {args.seed}: "
          + ("all bounds hold" if ok else f"{len(violations)} violations"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costarena",
        description="Exact analysis of cost-sharing games with "
                    "set-dependent resource costs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_protocol(p):
        p.add_argument("--protocol", default="shapley",
                       help="shapley (default), gws:<weight-file> or table:<share-file>")

    p = sub.add_parser("analyze", help="enumerate equilibria, optimum, PoA/PoS")
    p.add_argument("file")
    add_protocol(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("shares", help="per-resource cost shares of a profile")
    p.add_argument("file")
    p.add_argument("--profile", required=True, help="comma-separated strategy indices")
    add_protocol(p)
    p.set_defaults(func=cmd_shares)

    p = sub.add_parser("gadget", help="generate and verify a worst-case game")
    p.add_argument("kind", choices=KINDS)
    p.add_argument("--n", type=int, help="player count (pos_* kinds)")
    p.add_argument("--eps", type=parse_fraction, help="gap parameter, e.g. 1/4")
    p.add_argument("--a", type=parse_fraction, help="target ratio (poa_unbounded)")
    p.add_argument("--out", help="write the generated game file here")
    add_protocol(p)
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("dynamics", help="run best-response dynamics")
    p.add_argument("file")
    p.add_argument("--start", default=None,
                   help="comma-separated indices or random:<seed> (default all zeros)")
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")
    p.add_argument("--schedule", choices=("round-robin", "random"),
                   default="round-robin")
    p.add_argument("--seed", type=int, default=0,
                   help="sweep shuffle seed for --schedule random (default 0)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the step cap is hit before convergence")
    add_protocol(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("verify-bounds",
                       help="check the equilibrium ratio bounds on random games")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--class", dest="cost_class", choices=COST_CLASSES,
                   default="arbitrary")
    p.set_defaults(func=cmd_verify_bounds)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves no state
    on the parser, and every call gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ProtocolError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
    except CapExceededError as exc:
        _note(f"cap exceeded: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
