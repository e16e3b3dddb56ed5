import importlib.util
import os

import pytest

from entropygames.cli import QUERIES

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("replay", os.path.join(HERE, "golden", "replay.py"))
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

SUBCOMMANDS = {"translate", "value", "decide", "simulate", "encode-2cmm", "check-2cmm", "mpg"}


# the groups that end the plan, in order
TAIL = (
    replay.FRONT_END + replay.KNOWN_ANSWERS + replay.REFUSED_INPUTS + replay.FAULTS
    + replay.PAIR_VALUES
)


def _split():
    """The stored runs before TAIL's, and TAIL's."""
    cases = replay.stored()
    return cases[: -len(TAIL)], cases[-len(TAIL) :]


def test_check_2cmm_outputs_match_the_stored_corpus():
    assert [case["args"] for case in replay.stored()] == replay.plan()
    cases = [case for case in _split()[0] if case["args"][0] == "check-2cmm"]
    assert replay.differences(cases) == []


def test_value_mpg_and_simulate_outputs_match_the_stored_corpus():
    cases = [case for case in _split()[0] if case["args"][0] != "check-2cmm"]
    assert {case["args"][0] for case in cases} == {"value", "mpg", "simulate"}
    assert replay.differences(cases) == []


def test_every_subcommand_and_front_end_error_matches_the_stored_corpus():
    cases = _split()[1]
    assert [case["args"] for case in cases] == [list(args) for args in TAIL]
    refused_end = len(cases) - len(replay.FAULTS) - len(replay.PAIR_VALUES)
    refused = cases[refused_end - len(replay.REFUSED_INPUTS) : refused_end]
    assert {case["exit"] for case in refused} == {2}
    # the audits of the two self-loops fail, the five refused inputs exit 2,
    # and the audits of the lie into a stop state and both pair values pass
    assert [case["exit"] for case in cases[refused_end:]] == [1] * 4 + [2] * 5 + [0] * 4
    assert {arg for case in replay.stored() for arg in case["args"]} >= SUBCOMMANDS
    queries = {args[args.index("--query") + 1] for args in replay.FRONT_END if "--query" in args}
    assert queries == set(QUERIES)
    assert replay.differences(cases) == []


# one stored run per subcommand and mode, each of which -o must write as is
OUTPUT_RUNS = (
    ["translate", "games/fig1.json"],
    ["value", "games/fig1.json"],
    ["value", "--json", "games/value12.json"],
    ["decide", "--json", "--query", "mm<", "--alpha", "357/100", "games/fig1_pair.json"],
    ["simulate", "games/vanishing_pair.json", "--turns", "8", "--despot", "constant:0",
     "--tribune", "constant:0"],
    ["encode-2cmm", "machines/m1.2cm"],
    ["check-2cmm", "machines/m1.2cm", "--variant", "integer", "--turns", "20",
     "--cheat-turn", "2", "--json"],
    ["mpg", "games/mpg_7000.json"],
    ["mpg", "--solve", "--json", "games/mpg_7000.json"],
)


@pytest.mark.parametrize("args", OUTPUT_RUNS, ids=" ".join)
def test_output_file_holds_the_stored_stdout(args, tmp_path):
    (case,) = [case for case in replay.stored() if case["args"] == args]
    target = tmp_path / "out.txt"
    result = replay.run(args + ["-o", str(target)])
    assert result == {"stdout": "", "stderr": case["stderr"], "exit": case["exit"]}
    assert target.read_bytes() == case["stdout"].encode("utf-8")


def test_output_file_in_a_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    result = replay.run(["value", "games/fig1.json", "-o", str(target)])
    assert result["exit"] == 2 and result["stdout"] == ""
    assert result["stderr"].startswith("error: ") and not target.exists()


# two runs that exit 2 at once, to keep the rewrite tests short
QUICK = (["check-2cmm", "machines/m2.2cm", "--turns", "0"], ["translate", "games/fig1_pair.json"])


def test_rewrite_names_each_added_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(replay, "CASES", str(tmp_path / "cases.json"))
    monkeypatch.setattr(replay, "plan", lambda: [list(QUICK[0])])
    assert replay.rewrite() == 0
    capsys.readouterr()
    monkeypatch.setattr(replay, "plan", lambda: [list(args) for args in QUICK])
    assert replay.rewrite() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("added:", "moved:"))] == [
        "added: translate games/fig1_pair.json"
    ]
    assert [case["args"] for case in replay.stored()] == [list(args) for args in QUICK]


def test_rewrite_refuses_a_plan_shorter_than_the_corpus(tmp_path, monkeypatch, capsys):
    cases = tmp_path / "cases.json"
    monkeypatch.setattr(replay, "CASES", str(cases))
    monkeypatch.setattr(replay, "plan", lambda: [list(args) for args in QUICK])
    assert replay.rewrite() == 0
    before = cases.read_bytes()
    capsys.readouterr()
    monkeypatch.setattr(replay, "plan", lambda: [list(QUICK[1])])
    assert replay.rewrite() == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "runs are appended, never removed" in captured.err
    assert cases.read_bytes() == before
