import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("replay", os.path.join(HERE, "golden", "replay.py"))
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def test_check_2cmm_outputs_match_the_stored_corpus():
    cases = replay.stored()
    assert [case["args"] for case in cases] == replay.plan()
    assert replay.differences([case for case in cases if case["args"][0] == "check-2cmm"]) == []


def test_value_mpg_and_simulate_outputs_match_the_stored_corpus():
    cases = [case for case in replay.stored() if case["args"][0] != "check-2cmm"]
    assert {case["args"][0] for case in cases} == {"value", "mpg", "simulate"}
    assert replay.differences(cases) == []
