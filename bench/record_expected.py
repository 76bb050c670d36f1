#!/usr/bin/env python3
"""Record the default-seed input manifest and per-op output digests.

    python3 bench/record_expected.py [workload ...]

Runs every op of each workload once at the default seed, checks its output
with ``checks.py``, and writes ``expected/<workload>.json``: the input
manifest plus each op's argv, exit code and stdout sha256. Re-record only
when a change to the generators or to the program's output is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def record(workload):
    indir = os.path.join(run.OUT, "inputs", f"record-{workload}-{os.getpid()}")
    try:
        inp, manifest = run.setup(workload, run.DEFAULT_SEED, indir)
        from costarena.cli import main
        resolved = [run.resolve(argv, indir) for argv in inp.ops]
        outcome = run.Outcome(len(resolved))
        run.run_pass(main, resolved, outcome)
        bad = run.verify(outcome, inp.ops, resolved, None)
    finally:
        shutil.rmtree(indir, ignore_errors=True)
    if bad:
        raise SystemExit(f"{workload}: refusing to record failing ops: {bad}")
    ops = [{"argv": argv, "exit": rc, "stdout_sha256": run._sha256(out.encode("utf-8"))}
           for argv, (rc, out) in zip(inp.ops, outcome.first)]
    os.makedirs(run.EXPECTED, exist_ok=True)
    with open(os.path.join(run.EXPECTED, f"{workload}.json"), "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest, "ops": ops}, fh, indent=1)
        fh.write("\n")
    print(f"{workload}: {len(ops)} ops, {len(manifest['files'])} input files recorded")


if __name__ == "__main__":
    sys.path.insert(0, run.SRC)
    for name in sys.argv[1:] or run.workloads.WORKLOADS:
        record(name)
