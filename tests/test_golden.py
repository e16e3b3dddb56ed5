import importlib.util
import os

from entropygames.cli import QUERIES

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("replay", os.path.join(HERE, "golden", "replay.py"))
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

SUBCOMMANDS = {"translate", "value", "decide", "simulate", "encode-2cmm", "check-2cmm", "mpg"}


# the groups that end the plan, in order
TAIL = replay.FRONT_END + replay.KNOWN_ANSWERS + replay.REFUSED_INPUTS + replay.FAULTS


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
    refused_end = len(cases) - len(replay.FAULTS)
    refused = cases[refused_end - len(replay.REFUSED_INPUTS) : refused_end]
    assert {case["exit"] for case in refused} == {2}
    # the audits of the two self-loops fail; the five refused inputs exit 2
    assert [case["exit"] for case in cases[refused_end:]] == [1] * 4 + [2] * 5
    assert {arg for case in replay.stored() for arg in case["args"]} >= SUBCOMMANDS
    queries = {args[args.index("--query") + 1] for args in replay.FRONT_END if "--query" in args}
    assert queries == set(QUERIES)
    assert replay.differences(cases) == []
