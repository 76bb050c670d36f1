import json
import random
import sys
from fractions import Fraction

import pytest

from costarena.cli import main
from costarena.core import MAX_SCALE_BITS, GameModel, SetCostFunction, scale_lcm
from costarena.equilibrium import AnalysisReport
from costarena.gamefile import game_to_json, network_to_json
from costarena.network import to_game
from costarena.randomgames import CORPUS_CAP

F = Fraction


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return rc, doc, captured.err


def tension_file(tmp_path):
    g = GameModel(
        2, ("e1", "e2"),
        ((frozenset({"e1"}),),
         (frozenset({"e1"}), frozenset({"e2"}))),
        (SetCostFunction.anonymous([0, 0, F(3, 2)]),
         SetCostFunction.anonymous([0, 1, 2])),
    )
    p = tmp_path / "game.json"
    p.write_text(json.dumps(game_to_json(g)))
    return str(p)


def chase_files(tmp_path):
    f = SetCostFunction.anonymous([0, 1, 2])
    g = GameModel(
        2, ("A", "B"),
        ((frozenset({"A"}), frozenset({"B"})),
         (frozenset({"A"}), frozenset({"B"}))),
        (f, f),
    )
    game_path = tmp_path / "chase.json"
    game_path.write_text(json.dumps(game_to_json(g)))
    table_path = tmp_path / "rigged.json"
    table_path.write_text(json.dumps({
        "players": 2,
        "fallback": "shapley",
        "entries": [{
            "cost": {"anonymous": ["0/1", "1/1", "2/1"]},
            "users": [0, 1],
            "shares": {"0": "0/1", "1": "2/1"},
        }],
    }))
    return str(game_path), str(table_path)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_shared_edge(tmp_path, capsys):
    rc, doc, err = run(capsys, "analyze", tension_file(tmp_path))
    assert rc == 0
    assert set(doc) == {"protocol", "pne", "optimum", "poa", "pos", "potential"}
    assert doc["protocol"] == "shapley"
    assert doc["pne"] == [{"profile": [0, 0], "cost": "3/2"}]
    assert doc["optimum"] == {"profile": [0, 1], "cost": "1/1"}
    assert doc["poa"] == doc["pos"] == "3/2"
    assert doc["potential"] == ["3/4"]
    assert "equilibria: 1" in err


def test_analyze_table_protocol_without_equilibria(tmp_path, capsys):
    game_path, table_path = chase_files(tmp_path)
    rc, doc, _ = run(capsys, "analyze", game_path,
                     "--protocol", f"table:{table_path}")
    assert rc == 0
    assert doc["pne"] == []
    assert doc["poa"] == doc["pos"] == "undefined"
    assert doc["potential"] is None  # only meaningful for shapley


def test_analyze_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, doc, err = run(capsys, "analyze", str(bad))
    assert rc == 2
    assert doc is None
    assert "error:" in err


def test_analyze_cap_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("costarena.equilibrium.PROFILE_CAP", 1)
    rc, doc, err = run(capsys, "analyze", tension_file(tmp_path))
    assert rc == 3
    assert err == "cap exceeded: profile space has 2 profiles, cap is 1\n"


def test_verify_bounds_count_cap_exits_3(capsys):
    rc, doc, err = run(capsys, "verify-bounds", "--count", str(CORPUS_CAP + 1))
    assert (rc, doc) == (3, None)
    assert err == f"cap exceeded: {CORPUS_CAP + 1} games asked for, cap is {CORPUS_CAP}\n"


def test_path_cap_exit_3_names_only_its_own_cap(capsys, monkeypatch):
    # the path cap, not the profile cap, stops this run
    monkeypatch.setattr("costarena.network.PATH_CAP", 1)
    rc, doc, err = run(capsys, "gadget", "pos_linear", "--n", "2", "--eps", "1/2")
    assert (rc, doc) == (3, None)
    assert err.startswith("cap exceeded: more than 1 simple") and err.count("\n") == 1


@pytest.mark.parametrize("prefix", ["gws", "table"])
def test_invalid_protocol_json_exits_2(tmp_path, capsys, prefix):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, doc, err = run(capsys, "analyze", tension_file(tmp_path),
                       "--protocol", f"{prefix}:{bad}")
    assert rc == 2
    assert doc is None
    assert err.startswith("error:") and "invalid JSON" in err
    assert len(err.strip().splitlines()) == 1


def edge_network(terminals):
    return {"network": {
        "vertices": ["s", "t"],
        "edges": [{"id": "e", "from": "s", "to": "t",
                   "cost": {"anonymous": ["0/1", "1/1"]}}],
        "terminals": terminals}}


def one_player_game(**changes):
    doc = {"players": 1,
           "resources": [{"id": "r", "cost": {"anonymous": ["0/1", "1/1"]}}],
           "strategies": [[["r"]]]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [
    one_player_game(players=True),
    one_player_game(strategies=[[[["r"]]]]),
    edge_network([5]),
    edge_network(["st"]),
    one_player_game(resources=[{"id": "r", "cost": {"anonymous": ["0/1", "1e5000"]}}]),
    one_player_game(resources=[{"id": "r", "cost": {"anonymous": ["0/1", "1e-99999999"]}}]),
    one_player_game(resources=[{"id": "r", "cost": {"anonymous": ["0/1", "5/1"],
                                                     "table": [{"set": [0], "cost": "7/1"}]}}]),
], ids=["players-true", "nested-strategy", "terminal-int", "terminal-string",
        "cost-1e5000", "cost-exponent-8-digits", "cost-anonymous-and-table"])
def test_malformed_game_files_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "analyze", str(path))
    assert rc == 2
    assert out is None
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_network_forced_routes_exit_2(tmp_path, capsys):
    doc = edge_network([["s", "t"]])
    path = tmp_path / "net.json"
    doc["network"]["forced"] = [[["e"]]]
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, None)
    assert err == ("error: network forced routes are not supported; "
                   "write a restricted strategy set as a flat game\n")
    doc["network"]["forced"] = None  # meant "no restriction", so it still loads
    path.write_text(json.dumps(doc))
    assert run(capsys, "analyze", str(path))[0] == 0


def test_numbers_over_the_digit_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "game.json"
    # a JSON integer literal of 5001 digits: the decoder refuses it
    path.write_text(json.dumps(one_player_game()).replace('"1/1"', "1" + "0" * 5000))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, None)
    assert err.startswith("error:") and "invalid JSON" in err
    assert len(err.strip().splitlines()) == 1
    # every value fits, but their sum has 4301 digits
    big = "9" * 4300 + "/1"
    path.write_text(json.dumps({
        "players": 1,
        "resources": [{"id": r, "cost": {"anonymous": ["0/1", big]}} for r in "ab"],
        "strategies": [[["a", "b"]]]}))
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (2, None)
    assert err == "error: a result has more than 4300 digits and cannot be written\n"


def test_a_part_past_a_lowered_digit_limit_exits_2(tmp_path, capsys):
    # under a lowered int digit limit (PYTHONINTMAXSTRDIGITS=640), a cost
    # part of 1000 digits is refused as a bad rational, not with a traceback
    path = tmp_path / "game.json"
    big = "9" * 1000 + "/1"
    path.write_text(json.dumps(one_player_game(
        resources=[{"id": "r", "cost": {"anonymous": ["0/1", big]}}])))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        rc, out, err = run(capsys, "analyze", str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rc, out) == (2, None)
    assert err == f"error: bad rational {big!r}\n"


def primes(count):
    limit = 1_000_000  # holds 78498 primes, more than 2^16
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]][:count]


@pytest.mark.parametrize("n", [12, 16])
def test_scales_over_the_bit_budget_exit_2(tmp_path, capsys, monkeypatch, n):
    """Distinct prime denominators in a table, or integer weights drawn from
    1..10^6 in one block, make the lcm grow with every entry; the run stops
    at the bit budget after a few hundred of the 2^n - 1 values instead of
    building the whole lcm."""
    # |S| + 1/p_S: monotone, one distinct prime per set
    table = [{"set": [i for i in range(n) if mask >> i & 1],
              "cost": f"{mask.bit_count() * p + 1}/{p}"}
             for mask, p in zip(range(1, 1 << n), primes((1 << n) - 1))]
    game = {"players": n, "resources": [{"id": "r", "cost": {"table": table}}],
            "strategies": [[["r"]]] * n}
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(game))
    game["resources"] = [{"id": "r", "cost": {"anonymous": ["0/1"] * (n + 1)}}]
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps(game))
    rng = random.Random(n)
    weights_path = tmp_path / "weights.json"
    weights_path.write_text(json.dumps({
        "lambda": [str(rng.randint(1, 10 ** 6)) for _ in range(n)],
        "blocks": [list(range(n))]}))
    consumed = []

    def counted(values, what):
        def each():
            for v in values:
                consumed.append(v)
                yield v
        return scale_lcm(each(), what)

    monkeypatch.setattr("costarena.core.scale_lcm", counted)
    monkeypatch.setattr("costarena.protocols.scale_lcm", counted)
    for argv, what in [(("analyze", str(table_path)), "common denominator of a cost function"),
                       (("analyze", str(game_path), "--protocol", f"gws:{weights_path}"),
                        "weight scale")]:
        consumed.clear()
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, None)
        assert err == f"error: {what} has more than {MAX_SCALE_BITS} bits\n"
        assert 0 < len(consumed) < 1000 < (1 << n) - 1


@pytest.mark.parametrize("key", ["9", "-1", "2"])
def test_share_keys_outside_players_exit_2(tmp_path, capsys, key):
    game_path, table_path = chase_files(tmp_path)
    with open(table_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["entries"][0]["shares"] = {"0": "0/1", key: "2/1"}
    with open(table_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rc, out, err = run(capsys, "analyze", game_path, "--protocol", f"table:{table_path}")
    assert (rc, out) == (2, None)
    assert err == f"error: bad player id '{key}' in shares\n"


def test_share_table_for_another_player_count_exits_2(tmp_path, capsys):
    table = tmp_path / "three.json"
    table.write_text(json.dumps({
        "players": 3,
        "fallback": "shapley",
        "entries": [{"cost": {"anonymous": ["0/1", "1/1", "2/1", "3/1"]},
                     "users": [0, 1, 2], "shares": {"0": "3/1"}}],
    }))
    for argv in (("analyze",), ("shares", "--profile", "0,0")):
        rc, out, err = run(capsys, argv[0], tension_file(tmp_path), *argv[1:],
                           "--protocol", f"table:{table}")
        assert (rc, out) == (2, None)
        assert err == "error: share table covers 3 players, cost function 2\n"


def test_analyze_unknown_protocol(tmp_path, capsys):
    rc, _, err = run(capsys, "analyze", tension_file(tmp_path),
                     "--protocol", "nucleolus")
    assert rc == 2
    assert "unknown protocol" in err


def test_file_system_problems_exit_2(tmp_path, capsys):
    rc, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert rc == 2
    assert "error:" in err
    rc, _, _ = run(capsys, "gadget", "pos_linear", "--n", "2", "--eps", "1/2",
                   "--out", str(tmp_path / "no-such-dir" / "x.json"))
    assert rc == 2


# ---------------------------------------------------------------------------
# shares
# ---------------------------------------------------------------------------

def test_shares_rows(tmp_path, capsys):
    rc, doc, _ = run(capsys, "shares", tension_file(tmp_path),
                     "--profile", "0,0")
    assert rc == 0
    rows = {r["id"]: r for r in doc["resources"]}
    assert rows["e1"] == {"id": "e1", "users": [0, 1], "cost": "3/2",
                          "shares": ["3/4", "3/4"]}
    assert rows["e2"] == {"id": "e2", "users": [], "cost": "0/1",
                          "shares": ["0/1", "0/1"]}


@pytest.mark.parametrize("argv, message", [
    (("shares", None, "--profile", "0"), "error: profile has 1 entries, game has 2 players\n"),
    (("dynamics", None, "--start", "0"), "error: profile has 1 entries, game has 2 players\n"),
    (("shares", None, "--profile", "0,x"),
     "error: bad profile '0,x'; expected comma-separated indices\n"),
])
def test_bad_profile_messages(tmp_path, capsys, argv, message):
    argv = [tension_file(tmp_path) if a is None else a for a in argv]
    assert run(capsys, *argv) == (2, None, message)


def test_shares_bad_profile(tmp_path, capsys):
    rc, _, err = run(capsys, "shares", tension_file(tmp_path),
                     "--profile", "0,7")
    assert rc == 2
    rc, _, err = run(capsys, "shares", tension_file(tmp_path),
                     "--profile", "0")
    assert rc == 2


# ---------------------------------------------------------------------------
# gadget
# ---------------------------------------------------------------------------

def test_gadget_pos_linear(tmp_path, capsys):
    out = tmp_path / "gadget.json"
    rc, doc, _ = run(capsys, "gadget", "pos_linear",
                     "--n", "3", "--eps", "1/2", "--out", str(out))
    assert rc == 0
    assert doc["ok"] is True
    assert doc["expected"] == doc["measured"] == "5/2"
    assert doc["case"] is None
    written = json.loads(out.read_text())
    assert "network" in written
    # the emitted file analyzes identically
    rc2, doc2, _ = run(capsys, "analyze", str(out))
    assert rc2 == 0
    assert doc2["pos"] == "5/2"


def test_gadget_pos_nharmonic_defaults_to_unit_weights(capsys):
    rc, doc, _ = run(capsys, "gadget", "pos_nharmonic",
                     "--n", "4", "--eps", "1/4")
    assert rc == 0
    assert doc["ok"] is True
    assert doc["measured"] == "18/5"
    assert doc["protocol"] == "gws"


def test_gadget_pos_nharmonic_rejects_table_protocol(tmp_path, capsys):
    _, table_path = chase_files(tmp_path)
    rc, _, err = run(capsys, "gadget", "pos_nharmonic",
                     "--n", "2", "--eps", "1/4",
                     "--protocol", f"table:{table_path}")
    assert rc == 2


@pytest.mark.parametrize("kind", ["pos_linear", "pos_nharmonic"])
def test_gadget_player_cap_exits_2_before_building(capsys, monkeypatch, kind):
    def never(*args):
        raise AssertionError("builder called")

    monkeypatch.setattr(f"costarena.cli.build_{kind}", never)
    monkeypatch.setattr("costarena.cli.WeightSystem.plain", never)
    rc, out, err = run(capsys, "gadget", kind, "--n", "3000000", "--eps", "1/4")
    assert (rc, out) == (2, None)
    assert err == "error: player count 3000000 out of range 1..16\n"


def test_gadget_pos_linear_rejects_other_protocols(tmp_path, capsys):
    # its ratio holds under Shapley only; two blocks give 1, not 5/2
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"lambda": ["1/1"] * 3, "blocks": [[2], [0, 1]]}))
    _, table_path = chase_files(tmp_path)
    for protocol in (f"gws:{weights}", f"table:{table_path}"):
        rc, out, err = run(capsys, "gadget", "pos_linear", "--n", "3", "--eps", "1/2",
                           "--protocol", protocol)
        assert (rc, out) == (2, None)
        assert err == "error: pos_linear needs the shapley protocol\n"


def test_gadget_mismatch_exits_1(capsys, monkeypatch):
    # a target of 0 that the measured ratio cannot meet
    monkeypatch.setattr("costarena.gadgets.harmonic", lambda k: Fraction(0))
    rc, doc, err = run(capsys, "gadget", "pos_nharmonic", "--n", "2", "--eps", "1/4")
    assert rc == 1
    assert doc["ok"] is False and doc["expected"] == "0/1"
    assert err.splitlines()[-1].startswith("MISMATCH; equilibria: ")


def test_gadget_poa_unbounded(capsys):
    rc, doc, _ = run(capsys, "gadget", "poa_unbounded", "--a", "2")
    assert rc == 0
    assert doc["case"] == 1
    assert doc["expected"] == "5/2"
    assert doc["measured"] == "5/2"
    assert doc["ok"] is True


def test_gadget_bad_parameters(capsys):
    rc, _, err = run(capsys, "gadget", "pos_linear", "--n", "1", "--eps", "1/2")
    assert rc == 2
    rc, _, _ = run(capsys, "gadget", "pos_nharmonic", "--n", "3", "--eps", "1/4")
    assert rc == 2


@pytest.mark.parametrize("flag, kind", [("--eps", "pos_linear"), ("--a", "poa_unbounded")])
def test_gadget_parameters_get_the_file_exponent_guard(capsys, flag, kind):
    # the exponent is refused before Fraction computes 10 ** 5000
    with pytest.raises(SystemExit) as exc:
        main(["gadget", kind, "--n", "2", flag, "1e-5000"])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_dynamics_default_start_converges(tmp_path, capsys):
    rc, doc, _ = run(capsys, "dynamics", tension_file(tmp_path))
    assert rc == 0
    assert doc["start"] == [0, 0]
    assert doc["final"] == [0, 0]
    assert doc["converged"] is True
    assert doc["steps"] == []


def test_dynamics_explicit_start(tmp_path, capsys):
    rc, doc, _ = run(capsys, "dynamics", tension_file(tmp_path),
                     "--start", "0,1")
    assert rc == 0
    assert doc["final"] == [0, 0]
    assert doc["final_cost"] == "3/2"
    assert len(doc["steps"]) == 1
    assert doc["steps"][0]["player"] == 1
    assert doc["steps"][0]["phi"] == "3/4"


def test_dynamics_phi_is_null_without_shapley_potential(tmp_path, capsys):
    # the Shapley potential is no potential for weighted shares
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"lambda": ["2/1", "1/1"], "blocks": [[0, 1]]}))
    rc, doc, _ = run(capsys, "dynamics", tension_file(tmp_path),
                     "--start", "0,1", "--protocol", f"gws:{weights}")
    assert rc == 0
    assert doc["final"] == [0, 0]
    assert doc["steps"]
    assert all(step["phi"] is None for step in doc["steps"])


def test_dynamics_random_start_reproducible(tmp_path, capsys):
    path = tension_file(tmp_path)
    rc1, doc1, _ = run(capsys, "dynamics", path, "--start", "random:5")
    rc2, doc2, _ = run(capsys, "dynamics", path, "--start", "random:5")
    assert rc1 == rc2 == 0
    assert doc1 == doc2


def test_dynamics_random_schedule_defaults_to_seed_0(tmp_path, capsys):
    path = str(tmp_path / "h.json")
    assert run(capsys, "gadget", "pos_nharmonic", "--n", "4", "--eps", "1/4",
               "--out", path)[0] == 0
    argv = ("dynamics", path, "--schedule", "random", "--start", "random:2")
    seeded = run(capsys, *argv, "--seed", "0")
    assert seeded[0] == 0
    # the sweep order of this run moves its outcome, so a draw from OS
    # entropy would break the agreement of eight runs about 99 times in 100
    assert run(capsys, *argv, "--seed", "1") != seeded
    for _ in range(8):
        assert run(capsys, *argv) == seeded


def test_dynamics_strict_flags_non_convergence(tmp_path, capsys):
    game_path, table_path = chase_files(tmp_path)
    rc, doc, _ = run(capsys, "dynamics", game_path,
                     "--protocol", f"table:{table_path}",
                     "--max-steps", "9", "--strict")
    assert rc == 3
    assert doc["converged"] is False
    assert len(doc["steps"]) == 9
    # without --strict the same run reports peacefully
    rc2, doc2, _ = run(capsys, "dynamics", game_path,
                       "--protocol", f"table:{table_path}",
                       "--max-steps", "9")
    assert rc2 == 0
    assert doc2["converged"] is False


def test_dynamics_bad_start(tmp_path, capsys):
    rc, _, _ = run(capsys, "dynamics", tension_file(tmp_path),
                   "--start", "random:x")
    assert rc == 2
    rc, _, _ = run(capsys, "dynamics", tension_file(tmp_path),
                   "--start", "5,5")
    assert rc == 2


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [("verify-bounds", "--count", "-3"),
                                  ("dynamics", None, "--max-steps", "-1")])
def test_negative_counts_exit_2(tmp_path, capsys, argv):
    argv = [tension_file(tmp_path) if a is None else a for a in argv]
    rc, doc, err = run(capsys, *argv)
    assert (rc, doc) == (2, None)
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_bounds_small_runs(capsys):
    for cls, bound in (("submodular", "pos<=H_n"),
                       ("supermodular", "pos<=n"),
                       ("arbitrary", "pos<=n*H_n")):
        rc, doc, err = run(capsys, "verify-bounds",
                           "--count", "15", "--seed", "4", "--class", cls)
        assert rc == 0
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert bound in doc["bounds"]
        assert "all bounds hold" in err


def test_verify_bounds_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("costarena.cli.harmonic", lambda n: Fraction(0))
    rc, doc, err = run(capsys, "verify-bounds", "--count", "3")
    assert rc == 1
    assert doc["ok"] is False
    assert [(v["game"], v["bound"]) for v in doc["violations"]] == [
        (game, "pos<=n*H_n") for game in range(3)]
    assert all(set(v) == {"game", "bound", "value"} for v in doc["violations"])
    assert "3 violations" in err


def test_verify_bounds_game_without_equilibrium_exits_1(capsys, monkeypatch):
    report = AnalysisReport("shapley", (), (), (0,), Fraction(1), None, None)
    monkeypatch.setattr("costarena.cli.analyze", lambda model, protocol: report)
    rc, doc, _ = run(capsys, "verify-bounds", "--count", "1")
    assert (rc, doc["ok"]) == (1, False)
    assert doc["violations"] == [
        {"game": 0, "bound": "pne-exists", "value": "0"},
        {"game": 0, "bound": "pos<=n*H_n", "value": "undefined"}]


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_missing_subcommand_exits_with_usage(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    from costarena import cli

    game_path, table_path = chase_files(tmp_path)
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"lambda": ["1/1", "2/1"], "blocks": [[1], [0]]}))
    calls = [
        ("analyze", game_path),
        ("analyze", game_path, "--protocol", f"table:{table_path}"),
        ("analyze", game_path, "--protocol", f"gws:{weights}"),
        ("shares", game_path, "--profile", "0,1", "--protocol", f"gws:{weights}"),
        ("shares", game_path, "--profile", "1,0"),
        ("gadget", "pos_linear", "--n", "3", "--eps", "1/4"),
        ("gadget", "poa_unbounded", "--a", "2", "--protocol", f"table:{table_path}"),
        ("dynamics", game_path, "--protocol", f"table:{table_path}", "--max-steps", "3",
         "--schedule", "random", "--seed", "4"),
        ("dynamics", game_path),
        ("verify-bounds", "--count", "3", "--seed", "5", "--class", "submodular"),
        ("verify-bounds", "--count", "3"),
    ]

    def call(argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    first = []
    for argv in calls:  # each call on a newly built parser
        cli._parser.cache_clear()
        first.append(call(argv))
    parser = cli._parser()
    for argv, expected in zip(calls + calls[::-1], first + first[::-1]):
        assert call(argv) == expected, argv
    assert cli._parser() is parser


def test_console_entry_matches_module(tmp_path, capsys):
    # `python -m costarena` and the installed script share main()
    import costarena.__main__ as entry
    assert entry.main is main
