import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("replay", os.path.join(HERE, "golden", "replay.py"))
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)


def test_check_2cmm_outputs_match_the_stored_corpus():
    cases = replay.stored()
    assert [case["args"] for case in cases] == replay.plan()
    assert replay.differences(cases) == []
