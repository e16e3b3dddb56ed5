import importlib.util
import os

from entropygames.cli import QUERIES

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("replay", os.path.join(HERE, "golden", "replay.py"))
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

SUBCOMMANDS = {"translate", "value", "decide", "simulate", "encode-2cmm", "check-2cmm", "mpg"}


def _split():
    """The stored runs before FRONT_END's, and FRONT_END's, which end the plan."""
    cases = replay.stored()
    return cases[: -len(replay.FRONT_END)], cases[-len(replay.FRONT_END) :]


def test_check_2cmm_outputs_match_the_stored_corpus():
    cases = replay.stored()
    assert [case["args"] for case in cases] == replay.plan()
    assert replay.differences([case for case in cases if case["args"][0] == "check-2cmm"]) == []


def test_value_mpg_and_simulate_outputs_match_the_stored_corpus():
    cases = [case for case in _split()[0] if case["args"][0] != "check-2cmm"]
    assert {case["args"][0] for case in cases} == {"value", "mpg", "simulate"}
    assert replay.differences(cases) == []


def test_every_subcommand_and_front_end_error_matches_the_stored_corpus():
    cases = _split()[1]
    assert [case["args"] for case in cases] == [list(args) for args in replay.FRONT_END]
    assert {arg for case in replay.stored() for arg in case["args"]} >= SUBCOMMANDS
    queries = {args[args.index("--query") + 1] for args in replay.FRONT_END if "--query" in args}
    assert queries == set(QUERIES)
    assert replay.differences(cases) == []
