import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest

import _frozen as frozen
import oracle_helpers
from entropygames import io, linalg, reductions
from entropygames.linalg import Matrix, one_norm, vec_mat
from entropygames.minsky import (
    COUNTERS,
    INC,
    JZDEC,
    STOP,
    Instruction,
    TwoCounterMachine,
    format_machine,
    parse_machine,
    run_machine,
)
from entropygames.reductions import (
    INTEGER,
    NONNEG,
    NonnegPunishmentReport,
    PunishmentSegment,
    check_nonneg_punishment,
    encode_integer,
    encode_nonneg,
    machine_transitions,
    run_scripted_play,
)

M1 = parse_machine(frozen.M1_PROGRAM_TEXT)
M2 = parse_machine("q0: inc x -> q1\nq1: ifz x -> q2 else dec -> q1\nq2: stop\n")
M3 = parse_machine(
    "q0: ifz x -> q1 else dec -> q0\n"
    "q1: inc x -> q2\n"
    "q2: ifz x -> q3 else dec -> q2\n"
    "q3: stop\n"
)
LOOPER = parse_machine("q0: inc x -> q0\n")
ZEROLOOP = parse_machine("q0: ifz y -> q0 else dec -> q0\n")
HALTERS = [M1, M2, M3]
EVERYTHING = HALTERS + [LOOPER, ZEROLOOP]


def as_program(m):
    prog = {}
    for state in m.states:
        ins = m.program[state]
        if ins.kind == "inc":
            prog[state] = ("inc", ins.counter, ins.target)
        elif ins.kind == "jzdec":
            prog[state] = ("jzdec", ins.counter, ins.target, ins.else_target)
        else:
            prog[state] = ("stop",)
    return prog


def assert_same_matrices(got, want):
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert g.data == tuple(tuple(Fraction(x) for x in row) for row in w)


def test_machine_transitions_order():
    assert machine_transitions(M2) == [
        ("inc", "q0", "x", "q1"),
        ("zero", "q1", "x", "q2"),
        ("dec", "q1", "x", "q1"),
    ]


@pytest.mark.parametrize("machine", EVERYTHING, ids=lambda m: m.states[0] + str(len(m.states)))
def test_integer_encoding_matches_reference(machine):
    g = encode_integer(machine)
    labels, adam, eve, v0 = oracle_helpers.reference_integer_encoding(
        list(machine.states), as_program(machine)
    )
    assert g.variant == INTEGER
    assert list(g.coordinate_labels) == labels
    assert g.dimension == len(labels)
    assert_same_matrices(g.adam_matrices, adam)
    assert_same_matrices(g.eve_matrices, eve)
    assert list(g.start_vector) == [Fraction(x) for x in v0]


@pytest.mark.parametrize("machine", EVERYTHING, ids=lambda m: m.states[0] + str(len(m.states)))
def test_nonneg_encoding_matches_reference(machine):
    g = encode_nonneg(machine)
    labels, adam, eve, v0 = oracle_helpers.reference_nonneg_encoding(
        list(machine.states), as_program(machine)
    )
    assert g.variant == NONNEG
    assert list(g.coordinate_labels) == labels
    assert g.dimension == len(labels)
    assert_same_matrices(g.adam_matrices, adam)
    assert_same_matrices(g.eve_matrices, eve)
    assert list(g.start_vector) == [Fraction(x) for x in v0]


def test_frozen_m1_integer_shape():
    g = encode_integer(M1)
    assert g.dimension == frozen.M1_INT_DIM
    assert len(g.adam_matrices) == frozen.M1_INT_ADAM
    assert len(g.eve_matrices) == frozen.M1_INT_EVE
    assert g.start_vector == frozen.M1_INT_V0
    after = vec_mat(g.start_vector, g.eve_matrices[0][1])
    assert after == frozen.M1_INT_V0_AFTER_I


def test_frozen_m1_nonneg_shape():
    g = encode_nonneg(M1)
    assert g.dimension == frozen.M1_NN_DIM
    assert g.start_vector == frozen.M1_NN_V0
    name, i_matrix = g.eve_matrices[0]
    assert name == "I[q0->q1,x]"
    assert i_matrix == Matrix(frozen.M1_NN_I_MATRIX)
    after = vec_mat(g.start_vector, i_matrix)
    assert after == frozen.M1_NN_V0_AFTER_I


def test_adam_move_names():
    g = encode_integer(M1)
    assert [name for name, _ in g.adam_matrices] == [
        "Init", "Id", "F[q0]", "F[q1]", "F[x]", "F[y]", "A", "P",
    ]
    gn = encode_nonneg(M1)
    assert [name for name, _ in gn.adam_matrices] == ["Id", "P[x]", "P[y]", "P[q]"]


def test_degenerate_machine_flagged():
    stopper = parse_machine("q0: stop\n")
    for encode in (encode_integer, encode_nonneg):
        g = encode(stopper)
        assert g.degenerate and not g.eve_matrices


def test_nonneg_looper_closed_form():
    g = encode_nonneg(LOOPER)
    i_matrix = g.eve_matrices[0][1]
    v = g.start_vector
    for n in range(10):
        assert v == frozen.nn_looper_vector(n)
        v = vec_mat(v, i_matrix)


def test_scripted_play_faithful_looper():
    g = encode_integer(LOOPER)
    report = run_scripted_play(g, LOOPER, 50)
    assert report.turns == 50
    assert report.faithful_invariant_ok
    assert report.deviations == () and report.undetectable == ()
    assert report.flashes == ()
    assert report.machine_halted_turn is None
    assert report.annihilation_turn is None
    assert report.cheat_played is None
    assert any(x != 0 for row in report.final_product.data for x in row)


@pytest.mark.parametrize("machine", HALTERS, ids=["m1", "m2", "m3"])
def test_scripted_play_halting_annihilates(machine):
    trace, halted = run_machine(machine, 1000)
    assert halted
    steps = len(trace) - 1
    max_counter = max(max(x, y) for _, x, y in trace)
    bound = steps + len(machine.states) + max_counter + 3
    g = encode_integer(machine)
    report = run_scripted_play(g, machine, bound + 5)
    assert report.faithful_invariant_ok
    assert report.machine_halted_turn is not None
    assert report.annihilation_turn is not None
    assert report.annihilation_turn <= bound
    assert all(x == 0 for row in report.final_product.data for x in row)
    assert report.undetectable == ()
    # the forced post-halt move is the only deviation the audit sees
    assert len(report.deviations) == 1
    turn, played, expected = report.deviations[0]
    assert expected is None and played


def test_scripted_play_annihilation_turns_exact():
    assert run_scripted_play(encode_integer(M1), M1, 20).annihilation_turn == 5
    assert run_scripted_play(encode_integer(M2), M2, 20).annihilation_turn == 7
    assert run_scripted_play(encode_integer(M3), M3, 20).annihilation_turn == 8


def test_cheat_wrong_source_flashes_minus_one():
    g = encode_integer(M2)
    # at turn 1 Eve sits in q0; the cheat plays a move sourced elsewhere
    report = run_scripted_play(g, M2, 20, cheat_turn=1)
    assert report.cheat_played is True
    assert len(report.flashes) == 1
    _, label, value = report.flashes[0]
    assert label in M2.states and value == -1
    assert report.annihilation_turn is not None
    assert report.undetectable == ()


def test_cheat_wrong_branch_flashes_counter_value():
    big = parse_machine(
        "q0: inc x -> q1\n"
        "q1: inc x -> q2\n"
        "q2: inc x -> q3\n"
        "q3: ifz x -> q4 else dec -> q3\n"
        "q4: stop\n"
    )
    g = encode_integer(big)
    # turn 4: the simulation sits at q3 with x = 3; the cheat takes the
    # zero branch, leaving the counter coordinate at -3
    report = run_scripted_play(g, big, 30, cheat_turn=4)
    assert report.cheat_played is True
    turn, label, value = report.flashes[0]
    assert label == "x" and value == -3
    # the adjust step runs value-1 times before the punish
    k = report.adam_moves.index("F[x]")
    assert report.adam_moves[k + 1 : k + 3] == ("A", "A")
    assert report.adam_moves[k + 3 : k + 5] == ("P", "Init")
    assert report.annihilation_turn is not None


def test_eve_follows_the_negated_counter_after_a_wrong_zero_branch():
    # at turn 2 Eve holds x = 1 and lies with the zero branch, which negates
    # x to -1; her simulation follows the move played, so until Adam's Init
    # she keeps decrementing the counter the vector shows
    machine = parse_machine("q0: inc x -> q1\nq1: ifz x -> q1 else dec -> q1\n")
    g = encode_integer(machine)
    report = run_scripted_play(g, machine, 4, cheat_turn=2)
    assert report.eve_moves == ("I[q0->q1,x]", "K[q1->q1,x]", "D[q1->q1,x]", "D[q1->q1,x]")
    x = g.coordinate_labels.index("x")
    assert [v[x] for v in report.vectors] == [1, -1, -2, -3]


def test_cheat_impossible_reports_false():
    g = encode_integer(LOOPER)
    report = run_scripted_play(g, LOOPER, 10, cheat_turn=3)
    assert report.cheat_played is False
    assert report.deviations == ()
    assert report.annihilation_turn is None


@pytest.mark.parametrize(
    "audit,encode,other,variant",
    [
        (run_scripted_play, encode_integer, encode_nonneg, "integer variant"),
        (check_nonneg_punishment, encode_nonneg, encode_integer, "non-negative variant"),
    ],
    ids=["integer", "nonnegative"],
)
def test_audit_preconditions(audit, encode, other, variant):
    with pytest.raises(ValueError, match=variant):
        audit(other(M1), M1, 10)
    g = encode(M1)
    with pytest.raises(ValueError, match="horizon must be positive"):
        audit(g, M1, 0)
    with pytest.raises(ValueError, match="encoding does not match the machine"):
        audit(g, M2, 10)
    stopper = parse_machine("q0: stop\n")
    with pytest.raises(ValueError, match="degenerate encoding: Eve has no moves"):
        audit(encode(stopper), stopper, 10)
    for cheat in (0, -1, 11):
        with pytest.raises(ValueError, match=r"cheat turn must be in 1\.\.horizon"):
            audit(g, M1, 10, cheat_turn=cheat)
    assert audit(g, M1, 10, cheat_turn=10).turns == 10


def test_nonneg_faithful_looper_not_punished():
    g = encode_nonneg(LOOPER)
    report = check_nonneg_punishment(g, LOOPER, 12)
    assert not report.punished
    assert report.magnitude_ok
    assert report.segments == ()
    assert report.segment_bounds_ok
    # unbridled growth tends to 4 for an ever-incremented counter
    assert report.aggregate_growth > 2


def test_nonneg_faithful_zeroloop_growth_two():
    g = encode_nonneg(ZEROLOOP)
    report = check_nonneg_punishment(g, ZEROLOOP, 10)
    assert not report.punished and report.magnitude_ok
    assert report.aggregate_growth == pytest.approx(2.0)


@pytest.mark.parametrize("machine", HALTERS, ids=["m1", "m2", "m3"])
def test_nonneg_halting_punished_below_two(machine):
    g = encode_nonneg(machine)
    report = check_nonneg_punishment(g, machine, 14)
    assert report.punished
    assert report.magnitude_ok
    assert report.segment_bounds_ok
    assert all(seg.within_bound for seg in report.segments)
    assert report.aggregate_below_two
    assert report.aggregate_growth < 2
    # the state lie after the halt draws the state reset
    assert "P[q]" in report.adam_moves


def test_nonneg_cheat_draws_counter_reset():
    g = encode_nonneg(ZEROLOOP)
    report = check_nonneg_punishment(g, ZEROLOOP, 12, cheat_turn=5)
    assert report.punished
    assert "P[y]" in report.adam_moves
    assert report.segment_bounds_ok
    assert report.aggregate_growth < 2


def test_nonneg_segment_ratios_exact():
    g = encode_nonneg(M2)
    report = check_nonneg_punishment(g, M2, 14)
    assert report.segments
    first = report.segments[0]
    assert first.ratio <= Fraction(2) ** (first.turns - 1)
    assert first.within_bound


@pytest.mark.parametrize("horizon", [600, 1200])
def test_nonneg_long_horizons_decide_below_two_exactly(horizon):
    # the norm ratio outgrows a float from about 520 turns on
    looper = check_nonneg_punishment(encode_nonneg(LOOPER), LOOPER, horizon)
    assert not looper.punished and looper.magnitude_ok
    assert not looper.aggregate_below_two
    assert 3.9 < looper.aggregate_growth < 4
    halting = check_nonneg_punishment(encode_nonneg(M2), M2, horizon)
    assert halting.punished and halting.segment_bounds_ok
    assert halting.aggregate_below_two
    assert halting.final_norm < Fraction(2) ** horizon * one_norm(encode_nonneg(M2).start_vector)
    assert 0 < halting.aggregate_growth < 2


AUDITED = [("looper", LOOPER), ("m1", M1), ("m2", M2), ("m3", M3)]


def audit_cases():
    for name, machine in AUDITED:
        trace, halted = run_machine(machine, 1000)
        cheats = range(1, len(trace) + 1) if halted else ()
        for cheat in (None, *cheats):
            yield pytest.param(machine, cheat, id=f"{name}-cheat{cheat}")


@pytest.mark.parametrize("machine,cheat", list(audit_cases()))
def test_audits_replay_with_fraction_products(monkeypatch, machine, cheat):
    # the non-negative audit multiplies integers without vec_mat; its
    # reference is test_nonneg_audit_matches_a_fraction_replay
    # a play that never forms its product forms it when first read, so
    # the fast one is read before the patch
    g = encode_integer(machine)
    fast = run_scripted_play(g, machine, 40, cheat)
    fast_product = fast.final_product
    monkeypatch.setattr(reductions, "mat_mul", oracle_helpers.fraction_mat_mul)
    monkeypatch.setattr(reductions, "vec_mat", oracle_helpers.fraction_vec_mat)
    slow = run_scripted_play(g, machine, 40, cheat)
    assert fast.vectors == slow.vectors
    assert fast_product == slow.final_product
    assert fast.annihilation_turn == slow.annihilation_turn
    assert fast == slow


def replay_cases():
    for name, machine in AUDITED + [("zeroloop", ZEROLOOP)]:
        trace, halted = run_machine(machine, 1000)
        cheats = range(1, len(trace) + 1) if halted else range(1, 4)
        for cheat in (None, *cheats):
            yield pytest.param(machine, cheat, id=f"{name}-cheat{cheat}")


@pytest.mark.parametrize("machine,cheat", list(replay_cases()))
def test_audits_match_a_replay_of_every_move(machine, cheat):
    # the audits skip identity moves and, once the product is zero, every
    # product; the replay multiplies them all, over long tails after the
    # annihilation and after the last reset
    program = as_program(machine)
    g = encode_integer(machine)
    fast = run_scripted_play(g, machine, 160, cheat)
    slow = oracle_helpers.replay_audit(g, machine.states, program, fast.adam_moves, fast.eve_moves)
    assert "Id" in fast.adam_moves
    assert fast.vectors == slow.vectors
    assert fast.annihilation_turn == slow.annihilation_turn
    assert fast.final_product == slow.final_product
    if machine in HALTERS:
        assert fast.annihilation_turn is not None and fast.annihilation_turn < 20
    # every horizon that ends in the middle of the punishment, before the
    # product is zero
    for turn, _, _ in fast.flashes:
        for horizon in range(turn + 1, fast.annihilation_turn):
            cut = run_scripted_play(g, machine, horizon, cheat)
            slow = oracle_helpers.replay_audit(
                g, machine.states, program, cut.adam_moves, cut.eve_moves
            )
            assert cut.annihilation_turn is None
            assert cut.final_product == slow.final_product


def looper_with_a_vanishing_start(image="One"):
    """encode_integer(LOOPER) with Init cut to one row, x's, which is the
    unit row of ``image``.  The start vector is 0 on x, so v is 0 from turn
    1 on, while the product keeps a row.  Eve's matrix maps e_One to
    e_One + e_x, so with the default image the product's row grows by e_x
    on every turn."""
    g = encode_integer(LOOPER)
    n, x = g.dimension, g.coordinate_labels.index("x")
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    image_row = unit[g.coordinate_labels.index(image)]
    init = Matrix(tuple(image_row if i == x else (0,) * n for i in range(n)))
    assert g.adam_matrices[0][0] == "Init"
    return dataclasses.replace(g, adam_matrices=(("Init", init),) + g.adam_matrices[1:])


def looper_whose_product_vanishes_on_turn_2():
    """The encoding above with Init's row e_x, and Eve's one matrix tampered
    to map e_x to e_y and e_y to 0: the product e_x^T e_x E is not 0 after
    turn 1, and is after turn 2."""
    g = looper_with_a_vanishing_start("x")
    n = g.dimension
    x, y = g.coordinate_labels.index("x"), g.coordinate_labels.index("y")
    (name, matrix), = g.eve_matrices
    rows = [list(row) for row in matrix.data]
    rows[x] = [int(j == y) for j in range(n)]
    rows[y] = [0] * n
    return dataclasses.replace(g, eve_matrices=((name, Matrix(tuple(map(tuple, rows)))),))


@pytest.mark.parametrize(
    "tampered,annihilation",
    [(looper_with_a_vanishing_start, None), (looper_whose_product_vanishes_on_turn_2, 2)],
    ids=["never", "turn2"],
)
def test_a_zero_vector_does_not_annihilate_the_product(tampered, annihilation):
    # s Init = 0 but Init is not 0: the audit forms the product at the end
    # of turn 1 and must keep multiplying it, and annihilation waits for the
    # product itself to vanish
    g = tampered()
    program = as_program(LOOPER)
    for horizon in (1, 2, 3, 7, 150):
        fast = run_scripted_play(g, LOOPER, horizon)
        slow = oracle_helpers.replay_audit(
            g, LOOPER.states, program, fast.adam_moves, fast.eve_moves
        )
        assert all(not any(v) for v in fast.vectors)
        assert fast.vectors == slow.vectors
        assert fast.annihilation_turn == slow.annihilation_turn
        assert fast.final_product == slow.final_product
        assert fast.annihilation_turn == (annihilation if horizon >= 2 else None)


def m1_whose_product_outlives_its_vector():
    """encode_integer(M1) with a 1 added to Init at (y, y), and F[q0] cut to
    the single entry from row y to column q0.  A cheat on turn 1 is flashed
    on q0 on turn 2, so F[q0] is played on turn 3: it leaves v = 0 while
    the product keeps Init's y row, which P and Init, Adam's moves on turns
    4 and 5, must multiply before the product vanishes on turn 5."""
    g = encode_integer(M1)
    n, labels = g.dimension, g.coordinate_labels
    y, q0 = labels.index("y"), labels.index("q0")
    adam = dict(g.adam_matrices)
    init = [list(row) for row in adam["Init"].data]
    init[y][y] = 1
    adam["Init"] = Matrix(tuple(map(tuple, init)))
    adam["F[q0]"] = Matrix(tuple(tuple(int((i, j) == (y, q0)) for j in range(n)) for i in range(n)))
    return dataclasses.replace(g, adam_matrices=tuple((name, adam[name]) for name in adam))


def test_adam_multiplies_a_product_formed_on_an_earlier_turn():
    g = m1_whose_product_outlives_its_vector()
    program = as_program(M1)
    for horizon in (3, 4, 5, 12):
        fast = run_scripted_play(g, M1, horizon, 1)
        slow = oracle_helpers.replay_audit(g, M1.states, program, fast.adam_moves, fast.eve_moves)
        assert fast.adam_moves[:5] == ("Init", "Id", "F[q0]", "P", "Init")[:horizon]
        assert fast.vectors == slow.vectors
        assert fast.annihilation_turn == slow.annihilation_turn
        assert fast.final_product == slow.final_product
        assert fast.annihilation_turn == (5 if horizon >= 5 else None)


def count_products(monkeypatch) -> list:
    """Patch reductions.mat_mul to record one entry per call."""
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return linalg.mat_mul(a, b)

    monkeypatch.setattr(reductions, "mat_mul", counting)
    return calls


def test_a_play_that_never_annihilates_forms_its_product_when_read(monkeypatch):
    # v is not 0 on any turn of the faithful looper, so the play multiplies
    # no product; the report forms it from its 151 factors, Init and 150 Eve
    # moves, on the first read only
    g = encode_integer(LOOPER)
    calls = count_products(monkeypatch)
    report = run_scripted_play(g, LOOPER, 150)
    assert calls == []
    slow = oracle_helpers.replay_audit(
        g, LOOPER.states, as_program(LOOPER), report.adam_moves, report.eve_moves
    )
    assert report.final_product == slow.final_product
    assert len(calls) == len(report.factors) == 151
    assert report.final_product is report.final_product
    assert len(calls) == 151


def test_a_play_forms_its_product_once_at_the_annihilation(monkeypatch):
    # m1 halts at turn 2 and the punishment zeroes v at turn 5: the product
    # of its 9 factors is formed then, and nothing after
    g = encode_integer(M1)
    calls = count_products(monkeypatch)
    before = run_scripted_play(g, M1, 4)
    assert calls == [] and before.annihilation_turn is None
    report = run_scripted_play(g, M1, 148)
    assert report.annihilation_turn == 5
    assert len(calls) == len(report.factors) == 9
    assert not any(any(row) for row in report.final_product.data)
    assert len(calls) == 9


def nonneg_replay_report(g, machine, horizon, cheat):
    fields = oracle_helpers.replay_nonneg_audit(
        g, machine.states, as_program(machine), horizon, cheat
    )
    fields["segments"] = tuple(PunishmentSegment(*s) for s in fields["segments"])
    return NonnegPunishmentReport(**fields)


@pytest.mark.parametrize("machine,cheat", list(replay_cases()))
def test_nonneg_audit_matches_a_fraction_replay(machine, cheat):
    # the audit keeps v as ints and skips identity moves; the reference
    # plays the machine itself and multiplies every move over Fractions
    g = encode_nonneg(machine)
    for horizon in (1, 2, 7, 401):
        if cheat is not None and cheat > horizon:
            continue
        fast = check_nonneg_punishment(g, machine, horizon, cheat)
        assert fast == nonneg_replay_report(g, machine, horizon, cheat)


@pytest.mark.parametrize("machine", [M2, M3, ZEROLOOP], ids=["m2", "m3", "zeroloop"])
def test_nonneg_audit_matches_a_fraction_replay_on_tampered_encodings(machine):
    # a weight 3 for the first weight 2 of every Eve matrix breaks the
    # structure of faithful play, so magnitude_ok must come out False in both
    doc = io.encoded_to_dict(encode_nonneg(machine))
    for matrix in doc["eve"]["matrices"]:
        row = next(row for row in matrix["entries"] if "2" in row)
        row[row.index("2")] = "3"
    g = io.encoded_from_dict(doc)
    for cheat in (None, 2):
        fast = check_nonneg_punishment(g, machine, 40, cheat)
        assert not fast.magnitude_ok
        assert fast == nonneg_replay_report(g, machine, 40, cheat)


def test_nonneg_audit_refuses_non_integral_entries():
    doc = io.encoded_to_dict(encode_nonneg(M1))
    name = doc["eve"]["matrices"][0]["name"]
    doc["eve"]["matrices"][0]["entries"][0][0] = "1/2"
    with pytest.raises(ValueError, match=re.escape(f"matrix {name} has a non-integral entry")):
        check_nonneg_punishment(io.encoded_from_dict(doc), M1, 10)
    doc = io.encoded_to_dict(encode_nonneg(M1))
    doc["start_vector"][-1] = "1/2"
    with pytest.raises(ValueError, match="start vector has a non-integral entry"):
        check_nonneg_punishment(io.encoded_from_dict(doc), M1, 10)
    assert check_nonneg_punishment(
        io.encoded_from_dict(io.encoded_to_dict(encode_nonneg(M1))), M1, 10
    ).turns == 10


def swap_x_pair(rows, i, j):
    # x+ and x- trade places, so an increment grows x- and x runs
    # backwards; the pair still multiplies to the token's square and is
    # equal exactly when x is 0
    rows[i], rows[j] = rows[j], rows[i]
    for row in rows:
        row[i], row[j] = row[j], row[i]


def grow_x_plus_eightfold(rows, i, j):
    # an increment of x multiplies x+ by 8 instead of 4; x- stays right
    if rows[i][i] == "4":
        rows[i][i] = "8"


@pytest.mark.parametrize("tamper", [swap_x_pair, grow_x_plus_eightfold])
@pytest.mark.parametrize("machine", [LOOPER, M2], ids=["looper", "m2"])
def test_nonneg_audit_fails_a_counter_pair_off_its_encoding(machine, tamper):
    doc = io.encoded_to_dict(encode_nonneg(machine))
    i, j = doc["coordinate_labels"].index("x+"), doc["coordinate_labels"].index("x-")
    for matrix in doc["eve"]["matrices"]:
        tamper(matrix["entries"], i, j)
    g = io.encoded_from_dict(doc)
    report = check_nonneg_punishment(g, machine, 20)
    assert not report.magnitude_ok
    assert report == nonneg_replay_report(g, machine, 20, None)
    assert check_nonneg_punishment(encode_nonneg(machine), machine, 20).magnitude_ok


def test_scripted_play_fails_a_state_token_on_the_wrong_state():
    # I[q0->q1,x] is tampered to enter q2: the moves stay faithful, so no
    # deviation is seen, but the vector no longer encodes the machine
    g = encode_integer(M2)
    one, q1, q2 = (g.coordinate_labels.index(lab) for lab in ("One", "q1", "q2"))
    name, matrix = g.eve_matrices[0]
    assert name == "I[q0->q1,x]"
    rows = [list(row) for row in matrix.data]
    rows[one][q1], rows[one][q2] = 0, 1
    tampered = dataclasses.replace(
        g, eve_matrices=((name, Matrix(tuple(map(tuple, rows)))),) + g.eve_matrices[1:]
    )
    report = run_scripted_play(tampered, M2, 3)
    assert not report.faithful_invariant_ok
    assert report.deviations == ()
    assert run_scripted_play(g, M2, 3).faithful_invariant_ok


def test_audits_of_a_machine_that_halts_at_once():
    # Eve's one move is the q1 self-loop, forced from turn 1 on
    machine = parse_machine("q0: stop\nq1: inc x -> q1\n")
    integer = run_scripted_play(encode_integer(machine), machine, 6)
    assert integer.machine_halted_turn == 1
    g = encode_nonneg(machine)
    nonneg = check_nonneg_punishment(g, machine, 6)
    assert nonneg.halted_turn == 1
    assert nonneg == nonneg_replay_report(g, machine, 6, None)
    # a cheat on a halted turn offers no lie: Eve plays the forced move, and
    # the play is the honest one, halt included
    for machine, horizon, cheat in ((machine, 6, 1), (M1, 20, 2)):
        g = encode_integer(machine)
        honest = run_scripted_play(g, machine, horizon)
        cheated = run_scripted_play(g, machine, horizon, cheat)
        assert cheated == dataclasses.replace(honest, cheat_played=False)
        assert cheated.machine_halted_turn == 1
        g = encode_nonneg(machine)
        cheated = check_nonneg_punishment(g, machine, horizon, cheat)
        assert cheated == check_nonneg_punishment(g, machine, horizon)
        assert cheated.halted_turn == 1


def test_a_lie_into_a_stop_state_is_not_the_halt():
    # the machine never halts on its own: q0 zero-tests x and loops, and only
    # the decrement branch, Eve's lie on turn 2, enters the stop state
    machine = parse_machine("q0: ifz x -> q0 else dec -> q1\nq1: stop\n")
    integer = run_scripted_play(encode_integer(machine), machine, 6, 2)
    assert integer.cheat_played and [d[0] for d in integer.deviations] == [2]
    assert integer.machine_halted_turn is None
    nonneg = check_nonneg_punishment(encode_nonneg(machine), machine, 6, 2)
    assert nonneg.punished and nonneg.halted_turn is None
    # M2 halts on its own on turn 3.  The lie on turn 2 enters the stop
    # state, Init puts the run back on its path on turn 5, and the machine's
    # own run halts two turns later
    g = encode_integer(M2)
    assert run_scripted_play(g, M2, 20).machine_halted_turn == 3
    cheated = run_scripted_play(g, M2, 20, 2)
    assert cheated.adam_moves[:5] == ("Init", "Id", "F[x]", "P", "Init")
    assert cheated.machine_halted_turn == 7
    # an unpunished lie leaves the run off its path to the end of the play
    assert run_scripted_play(g, M2, 2, 1).machine_halted_turn is None


def small_machines():
    """Every machine of one or two states in which some state does not
    halt: 4 of one state and 168 of two."""
    for n in (1, 2):
        states = tuple(f"q{i}" for i in range(n))
        instructions = (
            [Instruction(STOP)]
            + [Instruction(INC, c, t) for c in COUNTERS for t in states]
            + [Instruction(JZDEC, c, t, u) for c in COUNTERS for t in states for u in states]
        )
        for chosen in itertools.product(instructions, repeat=n):
            if any(ins.kind != STOP for ins in chosen):
                yield TwoCounterMachine(states, dict(zip(states, chosen)))


SMALL_MACHINES = list(small_machines())


@pytest.mark.parametrize("variant", [INTEGER, NONNEG])
def test_both_audits_match_a_replay_on_every_small_machine(variant):
    # 8 turns of each machine, honest and with a lie on turn 1 or 2; the
    # reference plays the literal machine with Adam's script.  Only the
    # transcript is compared, no verdict: some of these plays fail the check
    assert len(SMALL_MACHINES) == 172
    for machine in SMALL_MACHINES:
        program = as_program(machine)
        for cheat in (None, 1, 2):
            where = f"{format_machine(machine)}cheat turn {cheat}"
            if variant == INTEGER:
                g = encode_integer(machine)
                slow = oracle_helpers.replay_integer_audit(g, machine.states, program, 8, cheat)
                fast = run_scripted_play(g, machine, 8, cheat)
                assert {key: getattr(fast, key) for key in slow} == slow, where
            else:
                g = encode_nonneg(machine)
                fast = check_nonneg_punishment(g, machine, 8, cheat)
                assert fast == nonneg_replay_report(g, machine, 8, cheat), where


@pytest.mark.parametrize(
    "tamper,shown",
    [
        (lambda g: {"dimension": g.dimension + 2}, "dimension {n2} but has {n} coordinate labels"),
        (lambda g: {"coordinate_labels": g.coordinate_labels[:-1]},
         "dimension {n} but has {n1} coordinate labels"),
    ],
    ids=["raised", "label_dropped"],
)
@pytest.mark.parametrize(
    "audit,encode",
    [(run_scripted_play, encode_integer), (check_nonneg_punishment, encode_nonneg)],
    ids=["integer", "nonnegative"],
)
def test_audits_refuse_sizes_off_the_dimension(audit, encode, tamper, shown):
    # an in-memory encoding is checked too, before any move: the products
    # would otherwise stop at the shorter row
    g = encode(M1)
    n = g.dimension
    tampered = dataclasses.replace(g, **tamper(g))
    message = "encoding declares " + shown.format(n=n, n1=n - 1, n2=n + 2)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        audit(tampered, M1, 10)


def random_integer_matrix(rng, n):
    # sparse rows of small weights, some zero rows, and a few huge entries
    # of either sign
    rows = []
    for _ in range(n):
        if rng.random() < 0.2:
            rows.append((0,) * n)
        else:
            rows.append(tuple(
                rng.choice((0, 0, 0, 1, -1, 2, 4, -3, rng.randint(-2**70, 2**70)))
                for _ in range(n)
            ))
    return Matrix(tuple(rows))


@pytest.mark.parametrize("n", range(1, 10))
def test_sparse_row_product_matches_fraction_sums(n):
    rng = random.Random(n)
    matrices = [Matrix.identity(n), Matrix(((0,) * n,) * n)]
    matrices += [random_integer_matrix(rng, n) for _ in range(25)]
    vectors = [[0] * n, [1] * n, [-1] * n]
    vectors += [
        [rng.choice((0, 0, 1, -2, rng.randint(-2**90, 2**90))) for _ in range(n)]
        for _ in range(10)
    ]
    for m in matrices:
        rows = reductions._sparse_rows("m", m)
        assert [[x for _, x in row] for row in rows] == [
            [x for x in row if x] for row in m.data
        ]
        for v in vectors:
            got = reductions._sparse_vec_mat(v, rows, n)
            assert got == list(oracle_helpers.fraction_vec_mat(v, m))
            assert all(type(x) is int for x in got)


@pytest.mark.parametrize("encode", [encode_integer, encode_nonneg], ids=["integer", "nonneg"])
@pytest.mark.parametrize("machine", EVERYTHING, ids=["m1", "m2", "m3", "looper", "zeroloop"])
def test_program_matrices_carry_their_integer_forms(machine, encode):
    # _program_matrix sets both integer forms; they must equal the ones a
    # Matrix rebuilds from its Fractions, entries plain ints
    g = encode(machine)
    for _, matrix in g.adam_matrices + g.eve_matrices:
        assert {"_int_rows", "_int_cols"} <= matrix.__dict__.keys()
        rebuilt = Matrix(matrix.data)
        assert matrix._int_rows == rebuilt._int_rows
        assert matrix._int_cols == rebuilt._int_cols
        rows, dens = matrix._int_cols
        assert all(type(x) is int for row in rows for x in row)
        assert all(type(x) is int for row, _ in matrix._int_rows for x in row)
