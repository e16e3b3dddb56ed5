import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import _frozen as frozen
import entropygames
import oracle_helpers
from entropygames import io
from entropygames.cli import main
from entropygames.decide import Certificate, verify_certificate
from entropygames.games import Arena, MpgArena
from entropygames.iru import iru_set
from entropygames.linalg import Matrix
from entropygames.minsky import parse_machine
from entropygames.reductions import encode_integer, encode_nonneg


def fig1_arena() -> Arena:
    return Arena(
        despot_states=tuple(frozen.FIG1_DESPOT),
        tribune_states=tuple(frozen.FIG1_TRIBUNE),
        alphabet=tuple(frozen.FIG1_ALPHABET),
        transitions=tuple(frozen.FIG1_TRANSITIONS),
    )


A_SET = iru_set(frozen.FIG1_A_ROW_SETS)
E_SET = iru_set(frozen.FIG1_E_ROW_SETS)


# ---------------------------------------------------------------- io layer


def test_parse_rational():
    assert io.parse_rational("3/4") == Fraction(3, 4)
    assert io.parse_rational("  5 ") == 5
    assert io.parse_rational(7) == 7
    for bad in (True, False, 1.5, "abc", "1/0", None, [1]):
        with pytest.raises(ValueError):
            io.parse_rational(bad)


def test_format_rational():
    assert io.format_rational(Fraction(3, 4)) == "3/4"
    assert io.format_rational(Fraction(10, 2)) == "5"
    assert io.format_rational(0) == "0"


def test_arena_round_trip():
    a = fig1_arena()
    doc = io.arena_to_dict(a)
    assert io.detect_kind(doc) == io.ARENA
    assert io.arena_from_dict(doc) == a


def test_mpg_round_trip():
    m = MpgArena(("d",), ("t",), (("d", "t", 1), ("t", "d", 2)))
    doc = io.mpg_to_dict(m)
    assert io.detect_kind(doc) == io.MPG
    assert io.mpg_from_dict(doc) == m


def test_matrix_set_round_trip():
    doc = io.iru_to_dict(A_SET)
    assert io.detect_kind(doc) == io.MATRIX_SET
    assert doc["nonnegative"] is True
    assert io.iru_from_dict(doc) == A_SET


def test_matrix_set_negative_flag_refused():
    doc = io.iru_to_dict(A_SET)
    doc["nonnegative"] = False
    with pytest.raises(ValueError, match="negative entries"):
        io.iru_from_dict(doc)


def test_pair_round_trip():
    doc = io.pair_to_dict(A_SET, E_SET)
    assert io.detect_kind(doc) == io.PAIR
    assert io.pair_from_dict(doc) == (A_SET, E_SET)


def test_encoded_round_trip_both_variants():
    m = parse_machine(frozen.M1_PROGRAM_TEXT)
    for encode in (encode_integer, encode_nonneg):
        g = encode(m)
        doc = io.encoded_to_dict(g)
        assert io.detect_kind(doc) == io.ENCODED
        assert doc["convention"] == io.ROW_VECTOR_CONVENTION
        assert io.encoded_from_dict(doc) == g


def test_machine_document_passthrough():
    kind, value = io.loads_document(frozen.M1_PROGRAM_TEXT)
    assert kind == io.MACHINE
    assert value == parse_machine(frozen.M1_PROGRAM_TEXT)


def test_dumps_document_dispatch():
    text = io.dumps_document((A_SET, E_SET))
    assert text.endswith("\n")
    kind, value = io.loads_document(text)
    assert kind == io.PAIR and value == (A_SET, E_SET)
    kind2, value2 = io.loads_document(io.dumps_document(fig1_arena()))
    assert kind2 == io.ARENA and value2 == fig1_arena()


def test_save_and_load_files(tmp_path):
    path = tmp_path / "aset.json"
    io.save_document(str(path), A_SET)
    kind, value = io.load_document(str(path))
    assert kind == io.MATRIX_SET and value == A_SET


# ---------------------------------------------------------------- fixtures


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["arena"] = tmp_path / "fig1.json"
    io.save_document(str(paths["arena"]), fig1_arena())
    paths["pair"] = tmp_path / "pair.json"
    io.save_document(str(paths["pair"]), (A_SET, E_SET))
    paths["aset"] = tmp_path / "aset.json"
    io.save_document(str(paths["aset"]), A_SET)
    paths["mpg"] = tmp_path / "mpg.json"
    io.save_document(
        str(paths["mpg"]), MpgArena(("d",), ("t",), (("d", "t", 1), ("t", "d", 2)))
    )
    paths["m1"] = tmp_path / "m1.2cm"
    paths["m1"].write_text(frozen.M1_PROGRAM_TEXT)
    paths["looper"] = tmp_path / "looper.2cm"
    paths["looper"].write_text("q0: inc x -> q0\n")
    paths["stopper"] = tmp_path / "stop.2cm"
    paths["stopper"].write_text("q0: stop\n")
    return {k: str(v) for k, v in paths.items()}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------- cli layer


def test_cli_value_arena(files, capsys):
    code, doc = run_json(capsys, ["value", "--json", "--tol", "1/1000", files["arena"]])
    assert code == 0
    lo = float(Fraction(doc["value"]["lower"]))
    hi = float(Fraction(doc["value"]["upper"]))
    assert lo <= frozen.RUNNING_VALUE <= hi
    assert hi - lo <= 1e-3
    assert doc["despot_strategy"] == {"d1": "a", "d2": "a", "d3": "a"}
    assert abs(doc["entropy_bits"] - frozen.RUNNING_ENTROPY_BITS) < 1e-3


def parse_certificate(doc) -> Certificate:
    """A certificate back from the CLI's JSON form."""
    chosen = doc.get("chosen_matrix")
    return Certificate(
        doc["kind"],
        tuple(io.parse_rational(x) for x in doc["vector"]),
        chosen_matrix=None if chosen is None else Matrix(
            tuple(tuple(io.parse_rational(x) for x in row) for row in chosen)
        ),
    )


def test_cli_value_pair_and_flag_positions(files, capsys):
    # shared flags are accepted before and after the subcommand
    code, doc = run_json(capsys, ["--json", "--tol", "1/1000", "value", files["pair"]])
    assert code == 0
    lower = Fraction(doc["value"]["lower"])
    upper = Fraction(doc["value"]["upper"])
    assert lower <= frozen.RUNNING_VALUE < upper
    # both certificates re-check against the full sets at the reported ends;
    # they commit to the saddle's strategies
    for key, alpha, kind, chosen in (
        ("lower_certificate", lower, "mm_ge", frozen.SADDLE_E0),
        ("upper_certificate", upper, "mm_lt", frozen.SADDLE_A0),
    ):
        cert = parse_certificate(doc[key])
        assert cert.kind == kind and cert.chosen_matrix == Matrix(chosen)
        assert verify_certificate(cert, A_SET, E_SET, alpha=alpha)
    code2 = main(["value", "--tol", "1/1000", files["pair"]])
    out = capsys.readouterr().out
    assert code2 == 0 and "value in [" in out


def test_cli_value_output_file(files, capsys, tmp_path):
    target = tmp_path / "result.json"
    code = main(
        ["value", "--json", "--tol", "1/1000", "-o", str(target), files["arena"]]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert "value" in doc


def test_cli_translate(files, capsys):
    code, doc = run_json(capsys, ["translate", "--json", files["arena"]])
    assert code == 0
    assert io.detect_kind(doc) == io.PAIR
    a_set, e_set = io.pair_from_dict(doc)
    assert a_set == A_SET and e_set == E_SET


def test_cli_decide_exit_codes(files, capsys):
    assert main(["decide", "--query", "jsr<", "--alpha", "21/10", files["aset"]]) == 0
    capsys.readouterr()
    assert main(["decide", "--query", "jsr<", "--alpha", "2", files["aset"]]) == 1
    capsys.readouterr()
    assert main(["decide", "--query", "jssr>=", "--alpha", "1", files["aset"]]) == 0
    capsys.readouterr()
    # the non-strict upper and the strict lower threshold need positive
    # entries: structured failure
    for query in ("jsr<=", "jssr>"):
        code = main(["decide", "--query", query, "--alpha", "3", files["aset"]])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and "positive sets only" in err


def test_cli_decide_game_queries(files, capsys):
    code, doc = run_json(
        capsys,
        ["decide", "--json", "--query", "mm<", "--alpha", "357/100", files["pair"]],
    )
    assert code == 0
    assert doc["answer"] is True
    assert doc["certificate"]["chosen_matrix"] is not None
    code2 = main(["decide", "--query", "mm>=", "--alpha", "357/100", files["pair"]])
    capsys.readouterr()
    assert code2 == 1
    # a game query on a lone matrix-set is a structural error
    code3 = main(["decide", "--query", "mm<", "--alpha", "3", files["aset"]])
    err = capsys.readouterr().err
    assert code3 == 2 and "pair" in err


def test_cli_simulate_forest(files, capsys):
    code, doc = run_json(
        capsys,
        [
            "simulate",
            "--json",
            "--despot",
            "script:ab",
            "--tribune",
            "script:aa",
            "--turns",
            "2",
            files["arena"],
        ],
    )
    assert code == 0
    want = [
        [io.format_rational(x) for x in row] for row in frozen.FOREST_TRACE_AB_AA
    ]
    assert doc["levels"] == want
    main(
        [
            "simulate",
            "--despot",
            "script:ab",
            "--tribune",
            "script:aa",
            "--turns",
            "2",
            files["arena"],
        ]
    )
    out = capsys.readouterr().out
    assert "half-turn   0" in out and "total 38" in out


def test_cli_simulate_pair_growth(files, capsys):
    code, doc = run_json(
        capsys,
        [
            "simulate",
            "--json",
            "--despot",
            "constant:1",
            "--tribune",
            "constant:2",
            "--turns",
            "300",
            files["pair"],
        ],
    )
    assert code == 0
    assert abs(doc["growth_tail"] - frozen.RUNNING_VALUE) < 0.05
    assert doc["zeroed_at"] is None


@pytest.mark.parametrize("turns", [8, 2])
def test_cli_simulate_reports_a_product_that_vanished(capsys, tmp_path, turns):
    # (0 1 / 0 0) times the identity, then again: the product is 0 from step 2,
    # so the tail of the run is 0 and has no entropy
    path = tmp_path / "pair.json"
    io.save_document(str(path), (iru_set([[(0, 1)], [(0, 0)]]), iru_set([[(1, 0)], [(0, 1)]])))
    args = ["simulate", str(path), "--despot", "constant:0", "--tribune", "constant:0",
            "--turns", str(turns)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        f"growth estimate 0.000000 after {turns} steps; product vanished at step 2\n"
    )
    code, doc = run_json(capsys, [*args, "--json"])
    assert code == 0
    assert doc["growth_tail"] == 0.0 and doc["entropy_bits"] is None
    assert doc["zeroed_at"] == 2
    assert doc["per_turn"] == [1.0] + [0.0] * (turns - 1)


@pytest.mark.parametrize(
    "doc, args, code, out, err",
    [
        ("arena", ["value", "--tol", "1/1000"], 0,
         "value in [3.5615234375, 3.5620117188] (width 4.883e-04)\n"
         "entropy 0.4581483442 bits per quarter-move\n"
         "despot strategy: d1=a, d2=a, d3=a\n"
         "tribune strategy: t1=a, t2=a, t3=a\n", ""),
        ("arena", ["simulate", "--despot", "positional:d1=a, d2=b, d3=a", "--tribune",
                   "constant:b", "--turns", "2"], 0,
         "half-turn   0: d1=1, d2=1, d3=1   total 3\n"
         "half-turn   1: t1=1, t2=3, t3=1   total 5\n"
         "half-turn   2: d1=3, d2=5, d3=3   total 11\n"
         "half-turn   3: t1=3, t2=11, t3=3   total 17\n"
         "half-turn   4: d1=11, d2=17, d3=11   total 39\n", ""),
        # an explicit seed for Despot, --seed + 1 (here 1) for Tribune
        ("arena", ["simulate", "--despot", "random:5", "--tribune", "random", "--turns", "2"], 0,
         "half-turn   0: d1=1, d2=1, d3=1   total 3\n"
         "half-turn   1: t1=1, t2=3, t3=1   total 5\n"
         "half-turn   2: d1=4, d2=4, d3=3   total 11\n"
         "half-turn   3: t1=8, t2=7, t3=7   total 22\n"
         "half-turn   4: d1=15, d2=14, d3=7   total 36\n", ""),
        ("arena", ["simulate", "--despot", "positional:d1", "--tribune", "constant:a"], 2, "",
         "error: bad positional assignment 'd1'\n"),
        ("arena", ["simulate", "--despot", "greedy", "--tribune", "constant:a"], 2, "",
         "error: unrecognised strategy 'greedy'; use positional:s=a,..., constant:a, "
         "script:letters or random:seed\n"),
        # script: plays an arena, not a matrix pair
        ("pair", ["simulate", "--despot", "script:ab", "--tribune", "constant:a"], 2, "",
         "error: unrecognised matrix strategy 'script:ab'; use constant:INDEX or random:SEED\n"),
        ("pair", ["simulate", "--despot", "constant:1", "--tribune", "constant:2", "--turns",
                  "300"], 0,
         "growth estimate 3.578006 after 300 steps (entropy 0.459789 bits per quarter-move)\n",
         ""),
        ("mpg", ["mpg", "--solve", "--tol", "1/100"], 0,
         "mean payoff value in [3.0000000000, 3.0007042690]\n"
         "despot strategy: d=d>t\n"
         "tribune strategy: t=t>d\n", ""),
        # a pair's member index and a seed must be integers, and the index
        # within the set's members
        ("pair", ["simulate", "--despot", "constant:9", "--tribune", "constant:0"], 2, "",
         "error: strategy 'constant:9': index 9 is out of range for a set of 2 members, "
         "indices -2..1\n"),
        ("pair", ["simulate", "--despot", "constant:x", "--tribune", "constant:0"], 2, "",
         "error: strategy 'constant:x': index 'x' is not an integer\n"),
        ("pair", ["simulate", "--despot", "constant:0", "--tribune", "random:x"], 2, "",
         "error: strategy 'random:x': seed 'x' is not an integer\n"),
        ("arena", ["simulate", "--despot", "random:x", "--tribune", "constant:a"], 2, "",
         "error: strategy 'random:x': seed 'x' is not an integer\n"),
        # on an arena, constant: names an action
        ("arena", ["simulate", "--despot", "constant:x", "--tribune", "constant:a"], 2, "",
         "error: oracle chose action 'x' illegal in state 'd1'\n"),
    ],
)
def test_cli_text_output_and_strategy_errors(files, capsys, doc, args, code, out, err):
    assert main(args + [files[doc]]) == code
    assert capsys.readouterr() == (out, err)


_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from entropygames import io as eio, simulate_payoff, solve
from entropygames.cli import main
from entropygames.linalg import Matrix

arena_path, pair_path = sys.argv[1:]
value = solve(eio.load_document(arena_path)[1]).value
report = simulate_payoff(Matrix(((2, 1), (1, 0))), Matrix(((1, -1), (0, 1))), steps=20)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["simulate", "--json", "--despot", "constant:1", "--tribune",
                 "constant:2", "--turns", "300", pair_path])
json.dump({"lower": str(value.lower), "upper": str(value.upper),
           "tail": report.tail, "code": code,
           "growth_tail": json.loads(out.getvalue())["growth_tail"]}, sys.stdout)
"""


def test_package_runs_without_numpy(files):
    src = str(Path(entropygames.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, files["arena"], files["pair"]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert Fraction(doc["lower"]) <= frozen.RUNNING_VALUE < Fraction(doc["upper"])
    assert doc["code"] == 0
    assert abs(doc["growth_tail"] - frozen.RUNNING_VALUE) < 0.05
    assert doc["tail"] > 0


def test_cli_encode(files, capsys):
    code, doc = run_json(
        capsys, ["encode-2cmm", "--json", "--variant", "integer", files["m1"]]
    )
    assert code == 0
    assert doc["variant"] == "integer"
    assert doc["dimension"] == frozen.M1_INT_DIM
    assert len(doc["adam"]["matrices"]) == frozen.M1_INT_ADAM
    assert len(doc["eve"]["matrices"]) == frozen.M1_INT_EVE
    g = io.encoded_from_dict(doc)
    assert g == encode_integer(parse_machine(frozen.M1_PROGRAM_TEXT))


def test_cli_encode_degenerate_warns(files, capsys):
    code = main(["encode-2cmm", "--json", files["stopper"]])
    captured = capsys.readouterr()
    assert code == 0
    assert "degenerate" in captured.err
    assert json.loads(captured.out)["degenerate"] is True


def test_cli_check(files, capsys):
    code, doc = run_json(
        capsys, ["check-2cmm", "--json", "--variant", "integer", files["m1"]]
    )
    assert code == 0 and doc["ok"] is True
    assert doc["annihilation_turn"] == 5
    code2, doc2 = run_json(
        capsys,
        ["check-2cmm", "--json", "--variant", "nonnegative", "--turns", "12", files["looper"]],
    )
    assert code2 == 0 and doc2["ok"] is True
    code3, doc3 = run_json(
        capsys,
        [
            "check-2cmm",
            "--json",
            "--variant",
            "integer",
            "--cheat-turn",
            "1",
            files["m1"],
        ],
    )
    assert code3 == 0 and doc3["ok"] is True
    assert doc3["flashes"]


def test_cli_parser_built_once_keeps_no_flag_between_calls(files, capsys):
    from entropygames import cli

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def fresh(argv):
        cli.build_parser.cache_clear()
        return run(argv)

    check = ["check-2cmm", "--json", "--variant", "integer", files["m1"]]
    value = ["value", "--json", files["pair"]]
    sequences = (
        (check[:-1] + ["--cheat-turn", "2", files["m1"]], check),
        (value[:-1] + ["--tol", "1/100", files["pair"]], value),
    )
    for first, second in sequences:
        expected = [fresh(first), fresh(second)]
        # the flag changes the output, so a leak would show
        assert expected[0] != expected[1]
        assert [run(first), run(second)] == expected
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("variant", ["integer", "nonnegative"])
@pytest.mark.parametrize("cheat", ["0", "-1", "13"])
def test_cli_check_rejects_cheat_turn_out_of_range(files, capsys, variant, cheat):
    args = ["check-2cmm", "--variant", variant, "--turns", "12", f"--cheat-turn={cheat}"]
    assert main(args + [files["m1"]]) == 2
    assert capsys.readouterr().err == "error: cheat turn must be in 1..horizon\n"


def test_cli_mpg(files, capsys):
    code, doc = run_json(capsys, ["mpg", "--json", "--solve", "--tol", "1/100", files["mpg"]])
    assert code == 0
    assert doc["mean_payoff_lower"] <= 3.0 <= doc["mean_payoff_upper"]
    code2 = main(["mpg", files["mpg"]])
    out = capsys.readouterr().out
    kind, arena = io.loads_document(out)
    assert kind == io.ARENA
    assert ("d", "d>t", "t", 2) in arena.transitions


def two_by_two_mpg(heavy: int) -> MpgArena:
    return MpgArena(
        ("d0", "d1"),
        ("t0", "t1"),
        (
            ("d0", "t0", 300), ("d0", "t1", heavy), ("d1", "t0", 1), ("d1", "t1", 0),
            ("t0", "d0", 1), ("t0", "d1", 520), ("t1", "d0", 1), ("t1", "d1", 1),
        ),
    )


def test_cli_mpg_weight_beyond_the_float_range_exits_2(capsys, tmp_path):
    # 2^1100 is no float: the float iteration cannot start
    path = tmp_path / "heavy.json"
    io.save_document(str(path), two_by_two_mpg(1100))
    assert main(["mpg", "--solve", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: an entry near 2^1100 is too large for the float iteration, "
        "whose floats end below 2^1024\n"
    )


def test_cli_mpg_with_weights_near_the_float_range(capsys, tmp_path):
    # 2^1000 is a float.  The saddle product's radius is near 2^410 and its
    # float witness leaves a gap of about 2^800 to the block upper bound,
    # which the resolvent escalation of the certified upper bound climbs
    # by doubling from tol / 2: far more than 200 doublings
    m = two_by_two_mpg(1000)
    path = tmp_path / "heavy.json"
    io.save_document(str(path), m)
    code, doc = run_json(capsys, ["mpg", "--solve", "--json", str(path)])
    assert code == 0
    value = oracle_helpers.mpg_bruteforce_value(m.despot_states, m.tribune_states, m.transitions)
    assert value == Fraction(821, 2)
    assert doc["mean_payoff_lower"] <= value <= doc["mean_payoff_upper"]



@pytest.mark.parametrize(
    "args, weight, shown",
    [
        (["value"], 2.9, "2.9"),
        (["value"], True, "True"),
        (["value"], 2.0, "2.0"),
        (["mpg", "--solve"], 1.7, "1.7"),
        (["mpg", "--solve"], "3", "'3'"),
    ],
)
def test_cli_rejects_weights_that_are_not_integers(capsys, tmp_path, args, weight, shown):
    game = fig1_arena() if args == ["value"] else two_by_two_mpg(3)
    doc = json.loads(io.dumps_document(game))
    doc["transitions"][0]["weight"] = weight
    tr = doc["transitions"][0]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert main([*args, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: transition {tr['from']}->{tr['to']} has weight {shown}, not an integer\n"
    )


def _fig1_doc(**changes) -> dict:
    doc = io.arena_to_dict(fig1_arena())
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "args, doc, kind",
    [
        (["value"], _fig1_doc(transitions=[["d1", "a", "t1", 1]]), "arena"),
        (["translate"], _fig1_doc(transitions=[["d1", "a", "t1", 1]]), "arena"),
        (["value"], _fig1_doc(transitions=5), "arena"),
        (["value"], _fig1_doc(despot_states=[["d1"]]), "arena"),
        (["mpg", "--solve"],
         {"despot_states": ["d"], "tribune_states": ["t"], "transitions": 5}, "mpg"),
        (["decide", "--query", "jsr<", "--alpha", "100"],
         {"rows": 1, "cols": 2, "row_sets": [[1, 2]]}, "matrix-set"),
        (["value"], {"adam": [], "eve": []}, "pair"),
    ],
    ids=["list-transition", "list-transition-translate", "transitions-5", "list-state",
         "mpg-transitions-5", "flat-row-set", "pair-of-lists"],
)
def test_cli_rejects_malformed_documents(capsys, tmp_path, args, doc, kind):
    # a value of the wrong JSON type is an error like any other: exit 2 and
    # one line naming the document kind, never a traceback
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*args, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed {kind} document: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, kind, key",
    [
        (_fig1_doc(transitions=[{"action": "a", "to": "t1"}]), "arena", "from"),
        ({"despot_states": ["d"], "tribune_states": ["t"], "transitions": [{"from": "d"}]},
         "mpg", "to"),
        ({"row_sets": [[[1]]], "cols": 1}, "matrix-set", "rows"),
        ({"adam": {"rows": 1, "cols": 1, "row_sets": [[[1]]]}, "eve": {"rows": 1}}, "pair",
         "row_sets"),
        ({"variant": "integer"}, "encoded", "dimension"),
    ],
    ids=["arena", "mpg", "matrix-set", "pair", "encoded"],
)
def test_cli_names_a_missing_key(capsys, tmp_path, doc, kind, key):
    # a missing key once escaped as a bare KeyError: "error: 'from'"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["value", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed {kind} document: missing key '{key}'\n"


@pytest.mark.parametrize("key", ["rows", "cols"])
@pytest.mark.parametrize(
    "declared, shown", [(2.9, "2.9"), (2.0, "2.0"), (True, "True"), ("2", "'2'")]
)
def test_cli_rejects_declared_sizes_that_are_not_integers(capsys, tmp_path, key, declared, shown):
    # an n x n set with n = int(declared), so that truncating the declared
    # size would match it
    n = int(declared)
    doc = io.iru_to_dict(iru_set([[tuple(range(1, n + 1))]] * n))
    doc[key] = declared
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    assert main(["decide", "--query", "jsr<", "--alpha", "100", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be a JSON integer, got {shown}\n"


@pytest.mark.parametrize("declared", [7.9, 7.0, True, "7"])
def test_encoded_dimension_must_be_an_integer(declared):
    doc = io.encoded_to_dict(encode_integer(parse_machine(frozen.M1_PROGRAM_TEXT)))
    assert doc["dimension"] == 7
    doc["dimension"] = declared
    with pytest.raises(ValueError, match="dimension must be a JSON integer"):
        io.loads_document(json.dumps(doc))


def raise_dimension(doc):
    doc["dimension"] += 2


def drop_a_label(doc):
    doc["coordinate_labels"].pop()


def shorten_the_start_vector(doc):
    doc["start_vector"].pop()


def shrink_an_eve_matrix(doc):
    entries = doc["eve"]["matrices"][0]["entries"]
    entries.pop()
    for row in entries:
        row.pop()


@pytest.mark.parametrize(
    "tamper,shown",
    [
        (raise_dimension, "dimension {n2} but has {n} coordinate labels"),
        (drop_a_label, "dimension {n} but has {n1} coordinate labels"),
        (shorten_the_start_vector, "dimension {n} but has {n1} start vector"),
        (shrink_an_eve_matrix, "dimension {n} but has {n1} rows of matrix {eve}"),
    ],
    ids=["raised", "label_dropped", "start_vector_short", "eve_matrix_shrunk"],
)
@pytest.mark.parametrize("encode", [encode_integer, encode_nonneg], ids=["integer", "nonneg"])
def test_encoded_sizes_must_match_the_dimension(encode, tamper, shown):
    # with the dimension raised, the non-negative audit once returned the
    # true encoding's report, its products cut to the shorter row
    doc = io.encoded_to_dict(encode(parse_machine(frozen.M1_PROGRAM_TEXT)))
    n, eve = doc["dimension"], doc["eve"]["matrices"][0]["name"]
    tamper(doc)
    message = "encoded document declares " + shown.format(n=n, n1=n - 1, n2=n + 2, eve=eve)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        io.loads_document(json.dumps(doc))


def test_cli_error_paths(files, capsys, tmp_path):
    assert main(["value", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    bad = tmp_path / "bad.2cm"
    bad.write_text("q0: frobnicate\n")
    assert main(["check-2cmm", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    # wrong document kind for the subcommand
    assert main(["value", files["m1"]]) == 2
    assert main(["mpg", files["arena"]]) == 2
    capsys.readouterr()
    # bad tolerance is caught before any work happens
    assert main(["value", "--tol", "0", files["arena"]]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_cap_limits_only_the_steps_that_enumerate(files, capsys, tmp_path, monkeypatch):
    from entropygames import decide, iru

    monkeypatch.setattr(iru, "ENUM_CAP", 1)
    # Fig. 1's saddle products are irreducible, so its saddle is checked by
    # single-row deviations and a cap of one member is enough
    code, doc = run_json(capsys, ["value", "--json", files["arena"]])
    assert code == 0
    assert doc["despot_strategy"] == {"d1": "a", "d2": "a", "d3": "a"}
    # Tribune's saddle answer to Despot's only member is diag(2, 3): its
    # centre product is reducible, but the union support of each side is
    # diagonal, so each single-node block is settled by its deviations
    arena = Arena(
        ("d0", "d1"),
        ("t0", "t1"),
        ("a", "b"),
        (
            ("d0", "a", "t0", 1),
            ("d1", "a", "t1", 1),
            ("t0", "a", "d0", 1),
            ("t0", "b", "d0", 2),
            ("t1", "a", "d1", 1),
            ("t1", "b", "d1", 3),
        ),
    )
    path = tmp_path / "reducible.json"
    io.save_document(str(path), arena)
    code, doc = run_json(capsys, ["value", "--json", str(path)])
    assert code == 0
    assert doc["tribune_strategy"] == {"t0": "b", "t1": "b"}
    assert Fraction(doc["value"]["lower"]) == 3 < Fraction(doc["value"]["upper"])
    # the float guess on this game is refuted once; Tribune's exact climb
    # against Despot's next member, 2 I, scans one non-aligned block of four
    # members, and the exact grid is not reached
    arena = Arena(
        ("d0", "d1"),
        ("t0", "t1"),
        ("a0", "a1"),
        (
            ("d0", "a0", "t0", 2),
            ("d0", "a0", "t1", 3),
            ("d0", "a1", "t0", 2),
            ("d1", "a0", "t0", 1),
            ("d1", "a1", "t1", 2),
            ("t0", "a0", "d0", 3),
            ("t0", "a1", "d0", 3),
            ("t0", "a1", "d1", 2),
            ("t1", "a0", "d0", 1),
            ("t1", "a1", "d1", 3),
        ),
    )
    refuted = tmp_path / "refuted.json"
    io.save_document(str(refuted), arena)
    assert main(["value", str(refuted)]) == 2
    assert capsys.readouterr().err == (
        "error: reducible centre on Tribune's side: "
        "4 members exceed the enumeration cap of 1\n"
    )
    monkeypatch.setattr(iru, "ENUM_CAP", 4)
    code, doc = run_json(capsys, ["value", "--json", str(refuted)])
    assert code == 0
    assert doc["tribune_strategy"] == {"t0": "a1", "t1": "a0"}
    # without the float guess, Despot's exact loop on this game (random_arena
    # 2 x 2, seed 162) comes back to its first member against a new Tribune
    # start; that pair is the saddle, so nothing is enumerated
    monkeypatch.setattr(decide, "_iterate", lambda a_rows, e_rows, a, e: (a, e))
    monkeypatch.setattr(iru, "ENUM_CAP", 1)
    arena = Arena(
        ("d0", "d1"),
        ("t0", "t1"),
        ("a0", "a1"),
        (
            ("d0", "a0", "t0", 3),
            ("d0", "a1", "t1", 2),
            ("d1", "a0", "t0", 1),
            ("d1", "a0", "t1", 1),
            ("d1", "a1", "t1", 2),
            ("t0", "a0", "d1", 3),
            ("t0", "a1", "d1", 1),
            ("t1", "a0", "d1", 2),
            ("t1", "a1", "d0", 1),
        ),
    )
    repeats = tmp_path / "repeats.json"
    io.save_document(str(repeats), arena)
    code, doc = run_json(capsys, ["value", "--json", str(repeats)])
    assert code == 0
    assert Fraction(doc["value"]["lower"]) == 4 < Fraction(doc["value"]["upper"])
    # on the padded cycling arena the loop's pair repeats, and the exact grid
    # fallback that follows enumerates both 32-member sides; the blocks
    # scanned before it have at most 16 members
    fallback = tmp_path / "fallback.json"
    io.save_document(str(fallback), oracle_helpers.cycling_arena(padded=True))
    monkeypatch.setattr(iru, "ENUM_CAP", 16)
    assert main(["value", str(fallback)]) == 2
    assert capsys.readouterr().err == (
        "error: exact fallback of the saddle search: "
        "32 members exceed the enumeration cap of 16\n"
    )
    monkeypatch.setattr(iru, "ENUM_CAP", 32)
    code, doc = run_json(capsys, ["value", "--json", str(fallback)])
    assert code == 0
    assert doc["despot_strategy"] == {"d0": "a1", "d1": "a0", "d2": "a1", "d3": "a1", "d4": "a0"}
    assert doc["tribune_strategy"] == {"t0": "a1", "t1": "a1", "t2": "a1", "t3": "a0", "t4": "a0"}


def test_cli_has_no_cap_flag(files, capsys):
    # the cap is the constant iru.ENUM_CAP; --cap is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["value", "--cap", "1", files["arena"]])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


_CHOOSER_SETS = [
    A_SET,
    E_SET,
    # row sets of 2, 3, 1 and 2 rows: every radix of the index decode
    iru_set(
        [
            [(1, 0, 0, 0), (0, 1, 0, 0)],
            [(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)],
            [(2, 0, 0, 0)],
            [(0, 2, 0, 0), (0, 0, 2, 0)],
        ]
    ),
]


@pytest.mark.parametrize("s", _CHOOSER_SETS)
def test_matrix_chooser_decodes_the_enumeration_order(s):
    from entropygames.cli import _parse_matrix_chooser
    from entropygames.iru import enumerate_members

    members = list(enumerate_members(s))
    assert len(members) == s.size
    for i in range(-s.size, s.size):
        assert _parse_matrix_chooser(f"constant:{i}", s, 0) == members[i]
    # random:SEED draws the members that rng.choice over the list would
    for text, seed in (("random:7", 7), ("random:", 3)):
        chooser = _parse_matrix_chooser(text, s, 3)
        rng = random.Random(seed)
        assert [chooser(turn, []) for turn in range(200)] == [
            rng.choice(members) for _ in range(200)
        ]


def test_matrix_chooser_index_out_of_range_exits_2(files, capsys):
    # Fig. 1's Despot set has 2 members: indices -2..1
    for index in ("2", "-3"):
        code = main(
            ["simulate", "--despot", f"constant:{index}", "--tribune", "constant:0",
             files["pair"]]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: strategy 'constant:{index}': index {index} is out of range for a set "
            "of 2 members, indices -2..1\n"
        )


def test_cli_mm_query_beyond_the_float_range_exits_2(capsys, tmp_path):
    # Despot has two members, so mm< searches for the saddle with floats,
    # and 2^1100 is no float.  Tribune has one member: mm>= commits to it
    # and needs no search
    path = tmp_path / "heavy_pair.json"
    io.save_document(str(path), (iru_set([[(2**1100,), (1,)]]), iru_set([[(1,)]])))
    assert main(["decide", "--query", "mm<", "--alpha", "2", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: an entry near 2^1100 is too large for the float iteration, "
        "whose floats end below 2^1024\n"
    )
    assert main(["decide", "--query", "mm>=", "--alpha", "1", str(path)]) == 0
    assert capsys.readouterr().out.startswith("mm>= 1: true\n")


def test_cli_value_with_entries_whose_iteration_overflows_exits_2(capsys, tmp_path):
    # 2^1023 is a float, but the float iteration's first product is not
    big = 2**1023
    path = tmp_path / "near_float_range.json"
    pair = iru_set([[(big, big)], [(big, big)]]), iru_set([[(1, 0)], [(0, 1)]])
    io.save_document(str(path), pair)
    assert main(["value", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: an entry near 2^1023 is too large for the float iteration, "
        "whose floats end below 2^1024\n"
    )
