"""Golden outputs: the CLI's analyze and gadget reports, byte for byte.

The digests in ``data/golden_analyze.json`` were recorded with
``data/record_golden.py``; any change to what ``analyze`` or ``gadget``
print on the seeded corpora and gadget families shows up here.
"""

import importlib.util
import json
import os

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _recorder():
    spec = importlib.util.spec_from_file_location(
        "record_golden", os.path.join(DATA, "record_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_analyze_and_gadget_digests(monkeypatch):
    monkeypatch.delenv("ARENA_MAX_PROFILES", raising=False)
    with open(os.path.join(DATA, "golden_analyze.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert _recorder().compute() == golden
