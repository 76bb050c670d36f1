#!/usr/bin/env python3
"""costarena benchmark: the real CLI, end to end and layer by layer.

    python3 bench/run.py --workload walk --seed 1 --seconds 50 --trace 0
    python3 bench/run.py                      # every workload, timed and traced

One workload runs in one process with one thread: a closed loop with a
single caller that runs the workload's op list (``costarena.cli.main``
calls, stdout and stderr captured in memory) back to back, over and over,
until ``--seconds`` have passed; an op's time is its fastest repeat. Inputs
are generated from ``--seed`` under ``.bench_out/`` in the checkout; the
program sees only those files and argv.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
whole untraced passes and passes with every layer boundary wrapped (see
``tracing.py``) until ``--seconds`` have passed, and reports the per-layer
metrics of one pass. Outputs are checked after the timed region; at the
default seed the input digests and the stdout digest of every op must also
match ``expected/<workload>.json``. The last line of stdout is the result
as one JSON object; a fuller record goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(BENCH, "expected")

DEFAULT_SEED = 1
SETUP_REPS = 10     # fresh processes timed per run for setup_s
# An op's latency is its best (fastest) repeat in the run. On the shared
# 2-core machine this was written on, one unchanged op took 1.2-2.4 s from
# repeat to repeat; over the same ten runs per workload, best-of-repeats cut
# the spread of ops_per_s and op_p50_ms by a third to three quarters against
# pooling every repeat. The more repeats an op gets, the steadier its best,
# so the op lists are kept short. The tail is a percentile of the best
# times; certify's p75 and p95 would fall on gaps between its clusters of
# jobs, so it takes p97, between its two slowest (pos_nharmonic n=8).
TAIL_PCT = {"walk": 75, "wide": 75, "certify": 97, "dynamics": 75}

END_TO_END = (   # name, unit
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

sys.path.insert(0, BENCH)
import workloads  # noqa: E402  (bench-local module)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def setup(workload: str, seed: int, indir: str):
    """Import costarena, generate the inputs and write them."""
    importlib.import_module("costarena")
    inp = workloads.build(workload, seed)
    shutil.rmtree(indir, ignore_errors=True)
    os.makedirs(indir)
    digests = {}
    for name, text in sorted(inp.files.items()):
        data = text.encode("utf-8")
        with open(os.path.join(indir, name), "wb") as fh:
            fh.write(data)
        digests[name] = _sha256(data)
    manifest = {"seed": seed, "files": digests, "op_count": len(inp.ops),
                "players": inp.players, "profile_space": inp.profile_space}
    return inp, manifest


def resolve(argv: list[str], indir: str) -> list[str]:
    return [tok.replace("@", indir + os.sep) for tok in argv]


def timed_setup(workload, seed, indir, manifest, problems):
    """Wall time of a fresh process that starts Python, imports costarena,
    then generates and writes the inputs: a workload process's start-up up
    to its first op. It must write the inputs ``manifest`` describes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only", indir]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    shutil.rmtree(indir, ignore_errors=True)
    if proc.returncode != 0 or proc.stdout.strip() != json.dumps(manifest):
        problems.append("a fresh set-up process wrote other inputs " + proc.stderr.strip()[-200:])
    return elapsed


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Outcome:
    """What the runs of each op printed and how long the fastest took.

    Only each op's first (exit code, stdout) is kept; a later repeat is
    compared to it as it ends, so memory does not grow with the repeats.
    """

    def __init__(self, n_ops):
        self.first = [None] * n_ops     # (exit code or error text, stdout)
        self.best = [float("inf")] * n_ops
        self.runs = [0] * n_ops
        self.total_s = 0.0
        self.differs = set()            # ops whose repeats printed something else

    def add(self, i, rc, stdout, dt):
        if self.first[i] is None:
            self.first[i] = (rc, stdout)
        elif self.first[i] != (rc, stdout):
            self.differs.add(i)
        self.best[i] = min(self.best[i], dt)
        self.runs[i] += 1
        self.total_s += dt

    @property
    def attempted(self):
        return sum(self.runs)


def run_op(main, argv, tracer=None, index=0):
    """One CLI call; returns (exit code or error text, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(argv)
            else:
                tracer.begin_op(index)
                try:
                    rc = main(argv)
                finally:
                    tracer.end_op(len(out.getvalue().encode("utf-8")))
    except (Exception, SystemExit) as exc:
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


def run_for(main, ops, seconds, outcome):
    """Closed loop over the op list until ``seconds`` pass and every op has
    run at least once; whole ops only. Returns the seconds taken."""
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while k < len(ops) or time.perf_counter() < deadline:
        i = k % len(ops)
        outcome.add(i, *run_op(main, ops[i]))
        k += 1
    return time.perf_counter() - start


def run_pass(main, ops, outcome, tracer=None):
    for i, argv in enumerate(ops):
        outcome.add(i, *run_op(main, argv, tracer, i))


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def load_expected(workload):
    path = os.path.join(EXPECTED, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def verify(outcome, ops, resolved, expected):
    """Check every op's output once; returns {op index: reason} for bad ops.

    Every repeat of an op must print exactly what its first run printed.
    With ``expected`` (default seed), exit code and stdout digest must
    also match the recorded ones.
    """
    import checks
    if expected is not None and len(expected["ops"]) != len(ops):
        expected = None     # the manifest check reports the changed op list
    bad = dict.fromkeys(outcome.differs, "output differs between repeats")
    for i, (rc, stdout) in enumerate(outcome.first):
        if i in bad:
            continue
        if expected is not None:
            want = expected["ops"][i]
            if want["argv"] != ops[i]:
                bad[i] = "op differs from the recorded op"
                continue
            if rc != want["exit"] or _sha256(stdout.encode("utf-8")) != want["stdout_sha256"]:
                bad[i] = "exit code or stdout differs from the recorded digest"
                continue
        if isinstance(rc, str):
            bad[i] = rc
            continue
        reason = checks.check(resolved[i], rc, stdout)
        if reason is not None:
            bad[i] = reason
    return bad


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the enclosing git checkout, or None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload, seed, seconds, traced):
    cleared = os.environ.pop("ARENA_MAX_PROFILES", None)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    indir = os.path.join(OUT, "inputs", f"{tag}-{os.getpid()}")
    problems, setup_times = [], []
    try:
        start = time.perf_counter()
        inp, manifest = setup(workload, seed, indir)
        inproc_setup_s = time.perf_counter() - start
        from costarena.cli import main
        resolved = [resolve(argv, indir) for argv in inp.ops]
        expected = load_expected(workload) if seed == DEFAULT_SEED else None
        if expected is not None and expected["manifest"] != manifest:
            problems.append("input manifest differs from expected/" + workload + ".json")

        gc.collect()
        if traced:
            outcome, metrics, extra = _traced(workload, seed, main, resolved, seconds,
                                              problems)
        else:
            # the set-up samples are spread over the timed phase, so their
            # median spans the run as the ops' best times do; the host's
            # speed drifts by a quarter within seconds
            outcome, wall = Outcome(len(resolved)), 0.0
            for _ in range(SETUP_REPS):
                setup_times.append(timed_setup(workload, seed, indir + "-setup", manifest,
                                               problems))
                wall += run_for(main, resolved, seconds / SETUP_REPS, outcome)
            best, pct = outcome.best, TAIL_PCT[workload]
            metrics = {
                "ops_per_s": len(best) / sum(best),
                "op_p50_ms": statistics.median(best) * 1e3,
                "op_tail_ms": statistics.quantiles(best, n=100, method="inclusive")[pct - 1]
                              * 1e3,
                "setup_s": statistics.median(setup_times),
            }
            extra = {"tail_percentile": pct, "ops_beyond_tail": len(best) * (100 - pct) / 100,
                     "repeats_per_op": outcome.attempted / len(best), "timed_phase_s": wall,
                     "completed_ops_per_wall_s": outcome.attempted / wall,
                     "op_best_s": best, "op_repeats": outcome.runs}
            # read before checking: the checks load games of their own
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        bad = verify(outcome, inp.ops, resolved, expected)
        failed = sum(outcome.runs[i] for i in bad)
    finally:
        shutil.rmtree(indir, ignore_errors=True)

    attempted = outcome.attempted
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "correct": not bad and not problems, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "metrics": metrics, **extra,
        "setup_runs_s": setup_times, "inprocess_setup_s": inproc_setup_s,
        "manifest": manifest,
        "failures": {" ".join(inp.ops[i]): why for i, why in sorted(bad.items())},
        "problems": problems,
        "environment": {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "process_layout": "one process, one thread, one closed-loop caller, "
                              "ops back to back",
            "ARENA_MAX_PROFILES": "cleared" + ("" if cleared is None else f" (was {cleared!r})"),
        },
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _traced(workload, seed, main, resolved, seconds, problems):
    """Untraced and traced passes in turn until ``seconds`` have passed.

    Both sides get the same number of passes, so the tracing overhead
    compares best times of as many repeats. Returns the untraced outcome
    with the traced runs counted in and compared to it, for the checks."""
    from collections import Counter
    from tracing import Tracer, layer_metrics

    plain, traced = Outcome(len(resolved)), Outcome(len(resolved))
    tracer = Tracer()
    pass_counts = []
    start = time.perf_counter()
    while not pass_counts or time.perf_counter() - start < seconds:
        run_pass(main, resolved, plain)
        before = Counter(tracer.counts)
        tracer.install()
        try:
            run_pass(main, resolved, traced, tracer)
        finally:
            tracer.uninstall()
        pass_counts.append(tracer.counts - before)
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append("trace counts differ between passes")
    passes = len(pass_counts)
    metrics = layer_metrics(tracer, pass_counts[0], passes)
    untraced_p50, traced_p50 = statistics.median(plain.best), statistics.median(traced.best)
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50) * 1e3
    # time outside every wrapped library boundary: the CLI's own argv and
    # JSON work, the harness, and any work a boundary left unwrapped
    library_s = sum(v for layer, v in tracer.self_s.items() if layer != "cli")
    metrics["trace.unattributed_frac"] = (traced.total_s - library_s) / traced.total_s
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"{workload}-seed{seed}.spans.jsonl"))
    extra = {"traced_passes": passes, "untraced_op_p50_ms": untraced_p50 * 1e3,
             "traced_op_p50_ms": traced_p50 * 1e3}
    for i, first in enumerate(traced.first):
        if first != plain.first[i]:
            plain.differs.add(i)
        plain.runs[i] += traced.runs[i]
    plain.differs |= traced.differs
    return plain, metrics, extra


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _units():
    from tracing import PER_LAYER
    units = {name: unit for name, unit in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    return units


def _result_line(record):
    units = _units()
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    })


def main_one(args):
    record = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    units = _units()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {record['attempted']}  failed {record['failed']}")
    for name, value in record["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {record['fail_frac']:14.6g} ratio")
    if "tail_percentile" in record:
        print(f"  op times are each op's best of {record['repeats_per_op']:.1f} repeats; "
              f"op_tail_ms is p{record['tail_percentile']} of {record['manifest']['op_count']} "
              f"ops ({record['ops_beyond_tail']:g} beyond it)")
    for what, why in list(record["failures"].items()) + [("", p) for p in record["problems"]]:
        print(f"  FAILED {what}: {why}")
    print(_result_line(record))
    return 0 if record["correct"] else 1


def main_all(args):
    """Every workload, timed then traced, each in a process of its own."""
    results, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout[:proc.stdout.rstrip("\n").rfind("\n") + 1])
            sys.stderr.write(proc.stderr)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= last["correct"] and proc.returncode == 0
            attempted += last["attempted"]
            failed += last["failed"]
            for name, m in last["metrics"].items():
                results[f"{workload}.{name}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "costarena", "__init__.py")):
        sys.stderr.write(f"error: no costarena package under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:     # one timed set-up, see timed_setup
        print(json.dumps(setup(args.workload, args.seed, args.setup_only)[1]))
        return 0
    return main_all(args) if args.workload == "all" else main_one(args)


if __name__ == "__main__":
    sys.exit(main())
