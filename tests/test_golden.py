"""Golden outputs: what every CLI command prints, byte for byte.

The digests in ``data/golden_analyze.json`` were recorded with
``data/record_golden.py``; any change to what ``analyze``, ``gadget``,
``shares``, ``dynamics`` or ``verify-bounds`` print on the seeded corpora,
gadget families and samples shows up here, as does any change to the games
that the random-game generator draws.
"""

import importlib.util
import json
import os
from functools import cache

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@cache
def _recorder():
    """The recorder module, loaded once so both tests share its corpora."""
    spec = importlib.util.spec_from_file_location(
        "record_golden", os.path.join(DATA, "record_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden() -> dict:
    with open(os.path.join(DATA, "golden_analyze.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_analyze_and_gadget_digests():
    golden = _golden()
    assert _recorder().compute() == {k: golden[k] for k in ("analyze", "gadget")}


def test_golden_shares_dynamics_and_bounds_digests():
    golden = _golden()
    assert _recorder().compute_sampled() == {
        k: golden[k] for k in ("shares", "dynamics", "verify-bounds")}


def test_golden_corpus_digests():
    assert _recorder().corpus_digests() == _golden()["corpus"]
