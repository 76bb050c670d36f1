"""Layer tracing from outside the package.

:class:`Tracer` wraps the public boundaries of each costarena module where
callers look them up (``from .x import y`` binds a copy, so the CLI's, the
gadgets' and the equilibrium module's copies are patched one by one) and
records, per call:

* a span (id, op id, name, start, end, parent span) for boundaries that
  run a handful of times per op; spans stay in memory until ``dump``;
* for the hot boundaries that run per profile or per share, only count,
  inclusive time and self time, aggregated per (parent span, name);
* the self time of every call, credited to the module it belongs to;
* counts of work done (profiles walked, shares asked for, paths found...).

A boundary's self time is its duration minus the time of the traced calls
nested in it, so the layer self times of one op add up to the op's time.
No file under ``src/`` changes; a boundary that a refactor removes is
skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter, defaultdict

class Tracer:
    def __init__(self):
        self.spans: list = []            # [id, op, name, start, end, parent]
        self.hot: dict = {}              # (parent span, name) -> [count, total_s, self_s]
        self.self_s: defaultdict = defaultdict(float)    # layer -> s
        self.incl_s: defaultdict = defaultdict(float)    # boundary -> s, outermost calls
        self.counts: Counter = Counter()
        self._stack: list = []           # [name, start, child_s, span id or None, anchor]
        self._depth: Counter = Counter()
        self._op = None
        self._distinct: set = set()
        # keeps every keyed object alive until the op ends, so a freed
        # object's id cannot be reused by another within the op
        self._keyed: dict = {}
        self._patches: list = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str, hot: bool) -> None:
        self._depth[name] += 1
        anchor = self._stack[-1][4] if self._stack else None
        sid = None
        if not hot:
            sid = len(self.spans)
            self.spans.append(None)
            anchor = sid
        self._stack.append([name, time.perf_counter(), 0.0, sid, anchor])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, sid, anchor = self._stack.pop()
        dur = end - start
        own = dur - child
        if self._stack:
            self._stack[-1][2] += dur
        self.self_s[name.split(".", 1)[0]] += own
        self._depth[name] -= 1
        if not self._depth[name]:
            self.incl_s[name] += dur
        if sid is None:
            agg = self.hot.get((anchor, name))
            if agg is None:
                agg = self.hot[(anchor, name)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += own
        else:
            parent = self._stack[-1][4] if self._stack else None
            self.spans[sid] = [sid, self._op, name, start, end, parent]

    def begin_op(self, op: int) -> None:
        self._op = op
        self.enter("cli.main", hot=False)

    def end_op(self, stdout_bytes: int) -> None:
        self.exit()
        self.counts["cli.stdout_bytes"] += stdout_bytes
        self.counts["protocols.distinct_shares"] += len(self._distinct)
        self._distinct.clear()
        self._keyed.clear()

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool, after=None):
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, *, hot: bool = False, after=None) -> None:
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, hot, after))

    def install(self) -> None:
        # import_module: the package re-exports a function named ``potential``
        # that hides the submodule from ``import costarena.potential``
        cli, eq, gadgets, gamefile, pot = (
            importlib.import_module(f"costarena.{name}")
            for name in ("cli", "equilibrium", "gadgets", "gamefile", "potential"))
        from costarena.core import GameModel, SetCostFunction
        from costarena.network import NetworkModel
        from costarena.protocols import (GeneralizedWeightedShapley, ShapleyProtocol,
                                         TableProtocol)
        c = self.counts

        def count(key, amount=None):
            def after(args, result):
                c[key] += 1 if amount is None else amount(args, result)
            return after

        def paths(args, result):
            c["network.paths_calls"] += 1
            c["network.paths_found"] += len(result)

        def loaded(args, result):
            c["gamefile.load_calls"] += 1
            c["gamefile.bytes_in"] += os.path.getsize(args[0])

        def walked(key):
            def after(args, result):
                c[key] += 1
                c["equilibrium.profiles_walked"] += args[0].profile_space_size()
                if key == "equilibrium.pne_walks":
                    c["equilibrium.pne_found"] += len(result)
            return after

        def subset_terms(args, result):
            f, users = args
            c["potential.resource_calls"] += 1
            if users and f.anonymous_values is None:
                c["potential.subset_terms"] += 1 << users.bit_count()

        distinct, keyed = self._distinct, self._keyed

        def share(args, result):
            protocol, f, users, i = args
            c["protocols.share_calls"] += 1
            distinct.add((id(protocol), id(f), users, i))
            keyed[id(protocol)] = protocol
            keyed[id(f)] = f

        # equilibrium
        for owner in (cli, gadgets):
            self.patch(owner, "analyze", "equilibrium.analyze",
                       after=count("equilibrium.analyze_calls"))
        self.patch(eq, "enumerate_pne", "equilibrium.enumerate_pne",
                   after=walked("equilibrium.pne_walks"))
        self.patch(eq, "social_optimum", "equilibrium.social_optimum",
                   after=walked("equilibrium.optimum_walks"))
        self.patch(eq, "best_response", "equilibrium.best_response", hot=True,
                   after=count("equilibrium.best_response_calls"))
        self.patch(cli, "best_response_dynamics", "equilibrium.best_response_dynamics",
                   after=count("equilibrium.brd_steps", lambda a, r: len(r.trace)))
        # core
        self.patch(GameModel, "usage_masks", "core.usage_masks", hot=True,
                   after=count("core.usage_masks_calls"))
        for owner in (eq, cli):
            self.patch(owner, "social_cost", "core.social_cost", hot=True,
                       after=count("core.social_cost_calls"))
        self.patch(SetCostFunction, "__init__", "core.cost_fn_init", hot=True,
                   after=count("core.cost_fn_builds"))
        self.patch(SetCostFunction, "__hash__", "core.cost_fn_hash", hot=True)
        # protocols
        for cls in (ShapleyProtocol, GeneralizedWeightedShapley, TableProtocol):
            self.patch(cls, "share", "protocols.share", hot=True, after=share)
        dividend_table = GeneralizedWeightedShapley.__dict__.get("_dividend_table")
        if dividend_table is not None:
            def counted_dividend_table(protocol, f):
                before = len(protocol._dividends)
                table = dividend_table(protocol, f)
                c["protocols.dividend_tables"] += len(protocol._dividends) - before
                return table
            self._patches.append((GeneralizedWeightedShapley, "_dividend_table",
                                  dividend_table))
            GeneralizedWeightedShapley._dividend_table = counted_dividend_table
        # potential
        self.patch(eq, "potential", "potential.potential",
                   after=count("potential.calls"))
        self.patch(pot, "resource_potential", "potential.resource_potential", hot=True,
                   after=subset_terms)
        # network
        self.patch(NetworkModel, "paths", "network.paths", after=paths)
        for owner in (gamefile, gadgets):
            self.patch(owner, "to_game", "network.to_game")
        # gamefile
        for attr in ("load_game", "load_weight_system", "load_table_protocol"):
            self.patch(cli, attr, "gamefile.load", after=loaded)
        # gadgets
        for attr in ("build_pos_linear", "build_pos_nharmonic", "build_poa_unbounded"):
            self.patch(cli, attr, "gadgets.build")
        self.patch(cli, "verify_gadget", "gadgets.verify")
        # randomgames
        self.patch(cli, "corpus", "randomgames.corpus",
                   after=count("randomgames.games", lambda a, r: len(r)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span, then every hot aggregate, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"span": sid, "op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            for (parent, name), (count, total, own) in self.hot.items():
                fh.write(json.dumps({"parent": parent, "name": name, "count": count,
                                     "total_s": total, "self_s": own}) + "\n")


# name, unit, better; every metric is per pass over the workload's op list
PER_LAYER = (
    ("equilibrium.profiles_walked", "count", "lower"),
    ("equilibrium.walks_per_analyze", "ratio", "lower"),
    ("equilibrium.pne_s", "s", "lower"),
    ("equilibrium.optimum_s", "s", "lower"),
    ("equilibrium.pne_found", "count", "higher"),
    ("equilibrium.self_s", "s", "lower"),
    ("equilibrium.best_response_calls", "count", "lower"),
    ("equilibrium.brd_steps", "count", "lower"),
    ("equilibrium.brd_s", "s", "lower"),
    ("core.usage_masks_calls", "count", "lower"),
    ("core.usage_masks_s", "s", "lower"),
    ("core.social_cost_calls", "count", "lower"),
    ("core.social_cost_s", "s", "lower"),
    ("core.cost_fn_builds", "count", "lower"),
    ("core.cost_fn_build_s", "s", "lower"),
    ("core.cost_fn_hash_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("protocols.share_calls", "count", "lower"),
    ("protocols.share_s", "s", "lower"),
    ("protocols.self_s", "s", "lower"),
    ("protocols.distinct_shares", "count", "lower"),
    ("protocols.distinct_share_ratio", "ratio", "higher"),
    ("protocols.dividend_tables", "count", "lower"),
    ("potential.calls", "count", "lower"),
    ("potential.total_s", "s", "lower"),
    ("potential.self_s", "s", "lower"),
    ("potential.resource_calls", "count", "lower"),
    ("potential.subset_terms", "count", "lower"),
    ("network.paths_calls", "count", "lower"),
    ("network.paths_found", "count", "lower"),
    ("network.paths_s", "s", "lower"),
    ("network.to_game_s", "s", "lower"),
    ("network.self_s", "s", "lower"),
    ("gamefile.load_calls", "count", "lower"),
    ("gamefile.load_s", "s", "lower"),
    ("gamefile.self_s", "s", "lower"),
    ("gamefile.bytes_in", "bytes", "lower"),
    ("gadgets.build_s", "s", "lower"),
    ("gadgets.verify_s", "s", "lower"),
    ("gadgets.self_s", "s", "lower"),
    ("randomgames.games", "count", "lower"),
    ("randomgames.corpus_s", "s", "lower"),
    ("randomgames.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)

# inclusive time of a boundary, reported under a layer metric
INCLUSIVE = {
    "equilibrium.pne_s": "equilibrium.enumerate_pne",
    "equilibrium.optimum_s": "equilibrium.social_optimum",
    "equilibrium.brd_s": "equilibrium.best_response_dynamics",
    "core.usage_masks_s": "core.usage_masks",
    "core.social_cost_s": "core.social_cost",
    "core.cost_fn_build_s": "core.cost_fn_init",
    "core.cost_fn_hash_s": "core.cost_fn_hash",
    "protocols.share_s": "protocols.share",
    "potential.total_s": "potential.potential",
    "network.paths_s": "network.paths",
    "network.to_game_s": "network.to_game",
    "gamefile.load_s": "gamefile.load",
    "gadgets.build_s": "gadgets.build",
    "gadgets.verify_s": "gadgets.verify",
    "randomgames.corpus_s": "randomgames.corpus",
}


def layer_metrics(tracer: Tracer, counts: Counter, passes: int) -> dict:
    """Per-layer metrics for one pass: ``counts`` are one pass's counts,
    times are the tracer's totals over ``passes`` passes divided by it."""
    out = dict.fromkeys(name for name, _, _ in PER_LAYER)
    for name, unit, _ in PER_LAYER:
        layer, _, what = name.partition(".")
        if name in INCLUSIVE:
            out[name] = tracer.incl_s[INCLUSIVE[name]] / passes
        elif what == "self_s":
            out[name] = tracer.self_s[layer] / passes
        elif unit in ("count", "bytes"):
            out[name] = counts[name]
    walks = counts["equilibrium.pne_walks"] + counts["equilibrium.optimum_walks"]
    analyses = counts["equilibrium.analyze_calls"]
    out["equilibrium.walks_per_analyze"] = walks / analyses if analyses else 0.0
    calls = counts["protocols.share_calls"]
    out["protocols.distinct_share_ratio"] = (
        counts["protocols.distinct_shares"] / calls if calls else 0.0)
    return out
