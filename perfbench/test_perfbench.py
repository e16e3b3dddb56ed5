"""Self-test of the benchmark: tiny runs of every workload report every
metric named in BENCHMARK.json with its unit, agree with the oracles, and
count a wrong answer as a failure without stopping.

Run with ``python3 -m pytest perfbench``.
"""

import itertools
import json
import math
import os

import pytest

import oracles
import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def units(record):
    return {name: m["unit"] for name, m in record["metrics"].items()}


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(name):
    record = run.run(name, seed=7, seconds=0, trace=False, tiny=True)
    assert record["failed"] == 0 and record["fail_frac"] == 0
    assert record["attempted"] >= 1
    assert units(record) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_tiny_traced_run_reports_every_layer_metric(name):
    record = run.run(name, seed=7, seconds=0, trace=True, tiny=True)
    assert record["failed"] == 0
    assert units(record) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(count > 0 for count in record["bindings"].values())
    os.remove(record["spans_file"])


def test_wrong_answers_are_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    run.import_program()
    from entropygames import cli

    wl = workloads.audit_2cmm(7, str(tmp_path), tiny=True)

    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    def refuse(*args, **kwargs):
        raise ValueError("injected")  # the CLI turns this into exit code 2

    monkeypatch.setattr(cli, "run_scripted_play", crash)
    monkeypatch.setattr(cli, "check_nonneg_punishment", refuse)
    walls, _, _, failed, _ = run.timed_phase(wl.ops, 0, min_passes=2)
    assert failed == 2 * len(wl.ops) > 2
    assert all(len(w) == 2 for w in walls)


def test_a_strategy_pair_that_is_no_saddle_is_wrong():
    despot, tribune, _, transitions = workloads.FIG1
    a_rows, e_rows = oracles.arena_row_sets(despot, tribune, transitions)
    a_members = [list(m) for m in itertools.product(*a_rows)]
    e_members = [list(m) for m in itertools.product(*e_rows)]
    table = oracles.game_table(a_rows, e_rows)
    gaps = {
        (i, j): max(oracles.saddle_gaps(table, i, j))
        for i in range(len(a_members)) for j in range(len(e_members))
    }
    i0, j0 = min(gaps, key=gaps.get)
    assert oracles.member_index(a_rows, a_members[i0]) == i0
    value = workloads.check_saddle(a_rows, e_rows, table, a_members[i0], e_members[j0])
    assert value == pytest.approx((3 + math.sqrt(17)) / 2)
    worst = max(range(len(a_members)), key=lambda i: table[i][j0])
    with pytest.raises(workloads.Mismatch):
        workloads.check_saddle(a_rows, e_rows, table, a_members[worst], e_members[j0])


def test_oracles_agree_with_known_values():
    a_rows, e_rows = oracles.arena_row_sets(*workloads.FIG1[:2], workloads.FIG1[3])
    running_value = (3 + math.sqrt(17)) / 2
    assert abs(oracles.minimax(oracles.game_table(a_rows, e_rows)) - running_value) < 1e-9
    # two-cycle with weights 1 and 2 per full turn
    assert oracles.mpg_value(["d"], ["t"], [("d", "t", 1), ("t", "d", 2)]) == 3
    steps = {
        name: oracles.machine_halting_step(workloads._interpreter_program(text), "q0", 100)
        for name, text in workloads.MACHINES.items()
    }
    assert steps == {"looper": None, "m1": 1, "m2": 3, "m3": 4}
