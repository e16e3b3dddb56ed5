import math
import random
import re
from fractions import Fraction

import pytest

import _frozen as frozen
import oracle_helpers
from entropygames.decide import _switch
from entropygames.games import (
    DESPOT,
    Arena,
    MpgArena,
    PositionalStrategy,
    arena_to_iru,
    as_action_oracle,
    eg_payoff_entropy,
    find_saddle,
    forest_counts,
    mpg_to_weighted_eg,
    mpg_value,
    simulate_payoff,
    solve,
    verify_saddle,
)
from entropygames.iru import enumerate_members, iru_set
from entropygames.linalg import Matrix, mat_mul
from entropygames.realroots import compare_radii
from entropygames.minsky import parse_machine
from entropygames.reductions import encode_integer, run_scripted_play


def fig1_arena() -> Arena:
    return Arena(
        despot_states=tuple(frozen.FIG1_DESPOT),
        tribune_states=tuple(frozen.FIG1_TRIBUNE),
        alphabet=tuple(frozen.FIG1_ALPHABET),
        transitions=tuple(frozen.FIG1_TRANSITIONS),
    )


A_SET = iru_set(frozen.FIG1_A_ROW_SETS)
E_SET = iru_set(frozen.FIG1_E_ROW_SETS)


def test_arena_validation():
    with pytest.raises(ValueError, match="blocking state 'u'"):
        Arena(("u",), ("v",), ("a",), (("v", "a", "u", 1),))
    with pytest.raises(ValueError, match="must cross"):
        Arena(("u", "w"), ("v",), ("a",), (("u", "a", "w", 1), ("v", "a", "u", 1)))
    with pytest.raises(ValueError, match="^unknown state 'zz'$"):
        Arena(("u",), ("v",), ("a",), (("u", "a", "zz", 1), ("v", "a", "u", 1)))
    with pytest.raises(ValueError, match="duplicate"):
        Arena(("u", "u"), ("v",), ("a",), (("u", "a", "v", 1), ("v", "a", "u", 1)))
    with pytest.raises(ValueError, match="unknown action"):
        Arena(("u",), ("v",), ("a",), (("u", "z", "v", 1), ("v", "a", "u", 1)))
    with pytest.raises(ValueError, match="positive"):
        Arena(("u",), ("v",), ("a",), (("u", "a", "v", 0), ("v", "a", "u", 1)))



@pytest.mark.parametrize("weight", [2.9, 2.0, True, "2", Fraction(2)])
def test_arenas_take_only_int_weights(weight):
    # a weight is never rounded: 2.9 once solved as 2, and true as 1
    message = f"transition u->v has weight {weight!r}, not an integer"
    with pytest.raises(ValueError, match=re.escape(message)):
        Arena(("u",), ("v",), ("a",), (("u", "a", "v", weight), ("v", "a", "u", 1)))
    with pytest.raises(ValueError, match=re.escape(message)):
        MpgArena(("u",), ("v",), (("u", "v", weight), ("v", "u", 1)))

def test_arena_merges_parallel_transitions():
    a = Arena(
        ("u",),
        ("v",),
        ("a",),
        (("u", "a", "v", 1), ("u", "a", "v", 2), ("v", "a", "u", 1)),
    )
    assert ("u", "a", "v", 3) in a.transitions
    assert a.actions_from("u") == ("a",)


def test_translation_row_sets_match_reference():
    tr = arena_to_iru(fig1_arena())
    want_a = [
        tuple(tuple(Fraction(x) for x in row) for row in rs)
        for rs in frozen.FIG1_A_ROW_SETS
    ]
    want_e = [
        tuple(tuple(Fraction(x) for x in row) for row in rs)
        for rs in frozen.FIG1_E_ROW_SETS
    ]
    assert [rs.rows for rs in tr.a_set.row_sets] == want_a
    assert [rs.rows for rs in tr.e_set.row_sets] == want_e


def test_translation_strategy_round_trip():
    tr = arena_to_iru(fig1_arena())
    a0 = Matrix(frozen.SADDLE_A0)
    strat = tr.despot_strategy_for(a0)
    assert strat.owner == "despot"
    assert set(strat.choice) == set(frozen.FIG1_DESPOT)
    assert tr.member_for(strat) == a0
    e0 = Matrix(frozen.SADDLE_E0)
    strat_e = tr.tribune_strategy_for(e0)
    assert tr.member_for(strat_e) == e0
    # d1's two actions share a row, so extraction reports the first action
    assert strat.action("d1") == "a"
    with pytest.raises(ValueError):
        tr.despot_strategy_for(Matrix(((9, 9, 9),) * 3))


def test_find_saddle_running():
    sp = find_saddle(A_SET, E_SET)
    assert sp.despot_matrix == Matrix(frozen.SADDLE_A0)
    assert sp.tribune_matrix == Matrix(frozen.SADDLE_E0)
    assert mat_mul(sp.despot_matrix, sp.tribune_matrix) == Matrix(
        frozen.SADDLE_PRODUCT
    )
    assert sp.radius.lower <= Fraction(frozen.RUNNING_VALUE) <= sp.radius.upper


def test_find_saddle_when_floats_misjudge_reducible_products():
    # a regression case: the products are diagonal, and power iteration on a
    # whole product from the all-ones vector misplaces the radius of several
    # of them; the float step reads each diagonal block's radius exactly, and
    # both centres are reducible, so each side is checked member by member
    a_set = iru_set([[(3, 0), (4, 0)], [(0, 1), (0, 4)]])
    e_set = iru_set([[(2, 0)], [(0, 1), (0, 3)]])
    sp = find_saddle(a_set, e_set)
    assert verify_saddle(a_set, e_set, sp.despot_matrix, sp.tribune_matrix)
    assert sp.radius.lower <= 6 <= sp.radius.upper


def _stalled_switch(candidates, choice, maximise):
    return None


def _backwards_switch(candidates, choice, maximise):
    # switches every row the wrong way: Tribune downwards, Despot upwards
    return _switch(candidates, choice, not maximise)


_CYCLING = arena_to_iru(oracle_helpers.cycling_arena())


@pytest.mark.parametrize("corrupted", [_stalled_switch, _backwards_switch])
@pytest.mark.parametrize(
    "a_rows, e_rows",
    [
        # products 2, 6 / 5, 15: the saddle is (2, 3), the last cell
        ([[(5,), (2,)]], [[(1,), (3,)]]),
        ([[(3, 0), (4, 0)], [(0, 1), (0, 4)]], [[(2, 0)], [(0, 1), (0, 3)]]),
        # the reducible counterexample below: no single-row switch moves rho
        ([[(1, 0)], [(0, 1)]], [[(1, 0), (0, 5)], [(0, 1), (5, 0)]]),
        # from the all-zero start Despot's exact loop repeats its first
        # member against a new Tribune start, and finds the saddle
        ([[(0, 2), (3, 0)], [(0, 2), (1, 1)]], [[(0, 1), (0, 3)], [(0, 2), (1, 0)]]),
        # from the all-zero start the exact loop cycles and the grid cells
        # are checked
        (
            [rs.rows for rs in _CYCLING.a_set.row_sets],
            [rs.rows for rs in _CYCLING.e_set.row_sets],
        ),
    ],
)
def test_find_saddle_survives_a_corrupted_float_step(monkeypatch, corrupted, a_rows, e_rows):
    # the float switching step is only a suggestion: when it never moves, or
    # moves the wrong way, and when the float guess is skipped altogether,
    # the exact loop, or the exact pass over the grid cells after it, still
    # leads to a true saddle
    from entropygames import decide

    monkeypatch.setattr(decide, "_switch", corrupted)
    a_set, e_set = iru_set(a_rows), iru_set(e_rows)
    for guess in (decide._iterate, lambda a_rows, e_rows, a, e: (a, e)):
        monkeypatch.setattr(decide, "_iterate", guess)
        sp = find_saddle(a_set, e_set)
        assert verify_saddle(a_set, e_set, sp.despot_matrix, sp.tribune_matrix)
        assert oracle_helpers.sturm_saddle_check(
            a_set, e_set, sp.despot_matrix, sp.tribune_matrix
        )


def test_single_row_checks_do_not_settle_a_reducible_centre():
    # Tribune's rows (1, 0) | (0, 5) and (0, 1) | (5, 0) against Despot's
    # identity: every single-row swap of E = I keeps rho at 1, while swapping
    # both rows gives [[0, 5], [5, 0]] with rho 5.  e0 a0 = I is reducible
    # on the one block of the union support of Tribune's rows, so the check
    # must compare that block's four members.
    identity = Matrix(((1, 0), (0, 1)))
    a_set = iru_set([[(1, 0)], [(0, 1)]])
    e_set = iru_set([[(1, 0), (0, 5)], [(0, 1), (5, 0)]])
    for e in enumerate_members(e_set):
        if e != Matrix(((0, 5), (5, 0))):
            assert compare_radii(e, identity) == 0
    assert not verify_saddle(a_set, e_set, identity, identity)
    assert not oracle_helpers.sturm_saddle_check(a_set, e_set, identity, identity)
    sp = find_saddle(a_set, e_set)
    assert sp.tribune_matrix == Matrix(((0, 5), (5, 0)))
    assert sp.radius.lower <= 5 <= sp.radius.upper
    assert verify_saddle(a_set, e_set, sp.despot_matrix, sp.tribune_matrix)


def test_verify_saddle():
    a0 = Matrix(frozen.SADDLE_A0)
    e0 = Matrix(frozen.SADDLE_E0)
    assert verify_saddle(A_SET, E_SET, a0, e0)
    other_a = A_SET.member((0, 0, 0))
    if other_a != a0:
        assert not verify_saddle(A_SET, E_SET, other_a, e0)
    assert not verify_saddle(A_SET, E_SET, Matrix(((9, 9, 9),) * 3), e0)


def test_solve_running_game():
    sol = solve(fig1_arena(), tol=Fraction(1, 10**4))
    assert sol.value.width() <= Fraction(1, 10**4)
    assert sol.value.lower <= Fraction(frozen.RUNNING_VALUE) <= sol.value.upper
    # the optimal positional strategies both always play 'a'
    assert all(a == "a" for a in sol.despot_strategy.choice.values())
    assert all(a == "a" for a in sol.tribune_strategy.choice.values())
    assert abs(sol.entropy_bits() - frozen.RUNNING_ENTROPY_BITS) < 1e-4
    assert sol.saddle.despot_matrix == Matrix(frozen.SADDLE_A0)


def test_solve_runs_one_saddle_search_and_few_lps(monkeypatch):
    from entropygames import decide

    calls = {"find_saddle": 0, "lp_max": 0}

    def counted(name):
        original = getattr(decide, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(decide, name, wrapper)

    counted("find_saddle")
    counted("lp_max")
    mpg = MpgArena(("d1", "d2"), ("t1", "t2"), (
        ("d1", "t1", 1), ("d1", "t2", 3), ("d2", "t1", 0), ("d2", "t2", 2),
        ("t1", "d1", 2), ("t1", "d2", 0), ("t2", "d1", 1), ("t2", "d2", 3),
    ))
    for arena in (fig1_arena(), mpg_to_weighted_eg(mpg)):
        calls.update(find_saddle=0, lp_max=0)
        solve(arena)
        # policy iteration certifies the upper end with no LP, and one
        # normalised expansion LP certifies the lower end
        assert calls["find_saddle"] == 1
        assert calls["lp_max"] == 1


def separable_arena(copies: int) -> Arena:
    """Disjoint copies of a one-plus-one game: copy i has d_i -> t_i with
    weights 1 | 2 and t_i -> d_i with weights 1 | 3 + i mod 3.  Each side
    has 2^copies members, and the value is 5 once copy 2 is there."""
    transitions = []
    for i in range(copies):
        d, t = f"d{i}", f"t{i}"
        transitions += [
            (d, "a", t, 1), (d, "b", t, 2), (t, "a", d, 1), (t, "b", d, 3 + i % 3),
        ]
    return Arena(
        tuple(f"d{i}" for i in range(copies)),
        tuple(f"t{i}" for i in range(copies)),
        ("a", "b"),
        tuple(transitions),
    )


def test_solve_splits_a_side_far_beyond_the_enumeration_cap():
    # 2^20 members a side, but every block of each union support is a
    # single node: the saddle check compares single-row deviations only
    sol = solve(separable_arena(20))
    assert sol.value.lower <= 5 < sol.value.upper
    assert set(sol.despot_strategy.choice.values()) == {"a"}


def test_solve_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        solve(fig1_arena(), tol=0)


def test_forest_counts_scripted():
    levels = forest_counts(fig1_arena(), ("script", "ab"), ("script", "aa"), 2)
    assert [v.entries for v in levels] == [
        tuple(row) for row in frozen.FOREST_TRACE_AB_AA
    ]


def test_forest_counts_zero_turns():
    levels = forest_counts(fig1_arena(), ("constant", "a"), ("constant", "a"), 0)
    assert len(levels) == 1
    assert levels[0].entries == (1, 1, 1)


def test_oracle_forms():
    a = fig1_arena()
    pos = PositionalStrategy(
        owner="despot", choice={"d1": "a", "d2": "a", "d3": "a"}
    )
    mapping = {"t1": "a", "t2": "a", "t3": "a"}
    by_pos = forest_counts(a, pos, mapping, 2)
    by_const = forest_counts(a, ("constant", "a"), ("constant", "a"), 2)
    by_call = forest_counts(
        a, lambda s, h, hist: "a", lambda s, h, hist: "a", 2
    )
    assert by_pos == by_const == by_call
    # random oracles are reproducible under the same seed
    r1 = forest_counts(a, ("random", 7), ("random", 8), 3)
    r2 = forest_counts(a, ("random", 7), ("random", 8), 3)
    assert r1 == r2


def test_oracle_errors():
    a = fig1_arena()
    with pytest.raises(ValueError, match="illegal in state"):
        # 'b' is legal everywhere in fig1, so use a custom arena
        forest_counts(
            Arena(("u",), ("v",), ("a", "b"), (("u", "a", "v", 1), ("v", "a", "u", 1))),
            ("constant", "b"),
            ("constant", "a"),
            1,
        )
    with pytest.raises(ValueError, match="empty script"):
        as_action_oracle(("script", ""))
    with pytest.raises(ValueError, match="unrecognised"):
        as_action_oracle(42)
    with pytest.raises(ValueError, match="need the arena"):
        as_action_oracle(("random", 1))
    # Fig. 1's d1 reaches t2, whose action a reaches d2
    for despot in ({"d1": "a"}, PositionalStrategy(DESPOT, {"d1": "a"})):
        with pytest.raises(ValueError, match="^positional strategy has no action for state 'd2'$"):
            forest_counts(a, despot, ("constant", "a"), 3)
    with pytest.raises(ValueError):
        forest_counts(a, ("constant", "a"), ("constant", "a"), -1)


def test_simulate_payoff_constant_saddle():
    a0 = Matrix(frozen.SADDLE_A0)
    e0 = Matrix(frozen.SADDLE_E0)
    report = simulate_payoff(a0, e0, steps=200)
    assert report.zeroed_at is None
    assert len(report.per_turn) == 200
    assert abs(report.tail - frozen.RUNNING_VALUE) < 0.05
    assert abs(eg_payoff_entropy(report) - frozen.RUNNING_ENTROPY_BITS) < 0.01


def test_simulate_payoff_zero_product():
    nil = Matrix(((0, 1), (0, 0)))
    report = simulate_payoff(nil, nil, steps=10)
    assert report.zeroed_at is not None
    assert len(report.per_turn) == 10
    assert report.per_turn[-1] == 0.0 and report.tail == 0.0


def test_simulate_payoff_iru_sources():
    singleton = iru_set([[(2,)]])
    report = simulate_payoff(singleton, singleton, steps=20)
    assert abs(report.tail - 4.0) < 1e-9
    with pytest.raises(ValueError, match="chooser"):
        simulate_payoff(A_SET, E_SET, steps=5)
    chooser = lambda turn, history: Matrix(frozen.SADDLE_A0)
    e_chooser = lambda turn, history: Matrix(frozen.SADDLE_E0)
    ok = simulate_payoff(A_SET, E_SET, adam=chooser, eve=e_chooser, steps=50)
    assert abs(ok.tail - frozen.RUNNING_VALUE) < 0.1


def _replay(turns):
    """simulate_payoff on a fixed sequence of (adam, eve) matrices, next to
    the numpy reference on the same sequence."""
    report = simulate_payoff(
        lambda turn, history: turns[turn - 1][0],
        lambda turn, history: turns[turn - 1][1],
        steps=len(turns),
    )
    reference = oracle_helpers.numpy_growth(
        [(a.to_floats(), e.to_floats()) for a, e in turns]
    )
    return report, reference


def _assert_growth_agrees(report, reference):
    per_turn, tail, zeroed_at = reference
    assert report.per_turn == pytest.approx(per_turn, rel=1e-12, abs=0)
    assert report.tail == pytest.approx(tail, rel=1e-12, abs=0)
    assert report.zeroed_at == zeroed_at


_ENTRIES = (-3, -1, 0, 0, 0, 1, 2, 5, Fraction(1, 3), Fraction(-2, 7))


def _random_play(rng):
    n, m = rng.randint(1, 4), rng.randint(1, 4)

    def draw(rows, cols):
        return Matrix(
            tuple(tuple(rng.choice(_ENTRIES) for _ in range(cols)) for _ in range(rows))
        )

    adam = [draw(n, m) for _ in range(3)]
    eve = [draw(m, n) for _ in range(3)]
    if n == m:
        adam.append(Matrix(tuple(tuple(int(j == i + 1) for j in range(n)) for i in range(n))))
        eve.append(Matrix(tuple((0,) * n for _ in range(n))))
    return [(rng.choice(adam), rng.choice(eve)) for _ in range(rng.randint(1, 40))]


def _exact_vanishing_turn(turns):
    product = None
    for turn, (a, e) in enumerate(turns, start=1):
        step = oracle_helpers.mat_mul_lists(a.data, e.data)
        product = step if product is None else oracle_helpers.mat_mul_lists(product, step)
        if not any(x for row in product for x in row):
            return turn
    return None


def test_simulate_payoff_matches_numpy_reference():
    # rectangular, signed, zero and nilpotent members.  Once the exact
    # product vanishes, the numpy route sees its own rounding residue (it may
    # miss the exact zero), so only the turns before that are compared with
    # it; simulate_payoff decides the vanishing turn exactly.
    vanished = 0
    for seed in range(300):
        turns = _random_play(random.Random(seed))
        report, reference = _replay(turns)
        gone = _exact_vanishing_turn(turns)
        assert report.zeroed_at == gone
        if gone is None:
            _assert_growth_agrees(report, reference)
        else:
            vanished += 1
            assert report.per_turn[: gone - 1] == pytest.approx(
                reference[0][: gone - 1], rel=1e-12, abs=0
            )
            assert set(report.per_turn[gone - 1:]) == {0.0}
    assert 0 < vanished < 300


def test_simulate_payoff_decides_vanishing_exactly():
    # 1 - 2^-60 rounds to 1.0, so the float step product [[1, 1]] times
    # [[1], [-1.0]] cancels to 0.0 while the exact one is 2^-60: the float
    # product restarts from the exact one instead of reporting a zero
    tiny = Fraction(1, 2**60)
    report = simulate_payoff(Matrix(((1, 1),)), Matrix(((1,), (tiny - 1,))), steps=3)
    assert report.zeroed_at is None
    assert report.per_turn == pytest.approx([2.0**-60] * 3, rel=1e-12)
    # a non-negative play vanishes on the turn its support product empties
    shift = Matrix(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    report = simulate_payoff(shift, Matrix.identity(3), steps=5)
    assert report.zeroed_at == 3
    assert report.per_turn[2:] == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "program",
    [
        frozen.M1_PROGRAM_TEXT,
        "q0: inc x -> q1\nq1: ifz x -> q2 else dec -> q1\nq2: stop\n",
        "q0: inc x -> q0\n",
    ],
)
@pytest.mark.parametrize("cheat_turn", [None, 2, 3])
def test_simulate_payoff_matches_numpy_on_audited_2cmm_plays(program, cheat_turn):
    machine = parse_machine(program)
    g = encode_integer(machine)
    play = run_scripted_play(g, machine, 30, cheat_turn=cheat_turn)
    adam, eve = dict(g.adam_matrices), dict(g.eve_matrices)
    turns = [(adam[a], eve[e]) for a, e in zip(play.adam_moves, play.eve_moves)]
    report, reference = _replay(turns)
    _assert_growth_agrees(report, reference)
    # the audit's punishment zeroes the integer product exactly
    assert report.zeroed_at == play.annihilation_turn


def test_simulate_payoff_refuses_a_chooser_outside_its_set():
    # 2 x 2 sets, so a matrix of the right shape that is no member multiplies
    # without a shape error
    a_set = iru_set([[(1, 0), (0, 1)], [(1, 1)]])
    e_set = iru_set([[(1, 0)], [(0, 1)]])
    big = Matrix(((100, 100), (100, 100)))
    assert not a_set.contains_matrix(big) and not e_set.contains_matrix(big)
    member = a_set.member((0, 0))
    eye = e_set.member((0, 0))
    with pytest.raises(ValueError, match="^adam chooser played a non-member on turn 1$"):
        simulate_payoff(a_set, e_set, adam=lambda t, h: big, eve=lambda t, h: eye, steps=5)
    late = lambda t, h: big if t == 3 else eye
    with pytest.raises(ValueError, match="^eve chooser played a non-member on turn 3$"):
        simulate_payoff(a_set, e_set, adam=lambda t, h: member, eve=late, steps=5)
    ok = simulate_payoff(a_set, e_set, adam=lambda t, h: member, eve=lambda t, h: eye, steps=5)
    assert ok.zeroed_at is None


def test_simulate_payoff_errors():
    a0 = Matrix(frozen.SADDLE_A0)
    with pytest.raises(ValueError):
        simulate_payoff(a0, a0, steps=0)
    with pytest.raises(ValueError, match="Matrix instances"):
        simulate_payoff(lambda t, h: "nope", a0, steps=3)
    with pytest.raises(ValueError):
        simulate_payoff(Matrix(((1, 2, 3),)), Matrix(((1,), (2,))), steps=3)


def test_eg_payoff_entropy_values():
    assert eg_payoff_entropy(frozen.RUNNING_VALUE) == pytest.approx(
        frozen.RUNNING_ENTROPY_BITS
    )
    assert eg_payoff_entropy(16.0) == 1.0
    with pytest.raises(ValueError):
        eg_payoff_entropy(0)


def test_mpg_arena_validation():
    with pytest.raises(ValueError, match="blocking state"):
        MpgArena(("u",), ("v",), (("v", "u", 1),))
    with pytest.raises(ValueError, match="^transition u->w must cross to the other player$"):
        MpgArena(("u", "w"), ("v",), (("u", "w", 1), ("v", "u", 1)))
    with pytest.raises(ValueError, match="^unknown state 'zz'$"):
        MpgArena(("u",), ("v",), (("u", "zz", 1), ("v", "u", 1)))
    with pytest.raises(ValueError, match="^duplicate state names$"):
        MpgArena(("d", "d"), ("t",), (("d", "t", 1), ("t", "d", 0)))
    with pytest.raises(ValueError, match="non-negative"):
        MpgArena(("u",), ("v",), (("u", "v", -1), ("v", "u", 1)))


def test_mpg_encoding_shape():
    m = MpgArena(("u",), ("v",), (("u", "v", 2), ("v", "u", 0)))
    arena = mpg_to_weighted_eg(m)
    assert ("u", "u>v", "v", 4) in arena.transitions
    assert ("v", "v>u", "u", 1) in arena.transitions
    assert set(arena.alphabet) == {"u>v", "v>u"}


def test_mpg_two_cycle_value():
    m = MpgArena(("d",), ("t",), (("d", "t", 1), ("t", "d", 2)))
    (lo, hi), solution = mpg_value(m, tol=Fraction(1, 10**4))
    assert lo <= float(frozen.MPG_TWO_CYCLE_MP) <= hi
    assert hi - lo < 1e-3
    assert solution.value.lower <= Fraction(
        int(frozen.MPG_TWO_CYCLE_EG_VALUE)
    ) <= solution.value.upper
    brute = oracle_helpers.mpg_bruteforce_value(
        ["d"], ["t"], [("d", "t", 1), ("t", "d", 2)]
    )
    assert abs((lo + hi) / 2 - float(brute)) < 1e-3


def test_mpg_matches_bruteforce_small_random():
    import random

    rng = random.Random(20260814)
    for _ in range(5):
        despot = ["d0", "d1"]
        tribune = ["t0", "t1"]
        transitions = []
        for frm, targets in (("d0", tribune), ("d1", tribune), ("t0", despot), ("t1", despot)):
            for to in targets:
                if rng.random() < 0.7:
                    transitions.append((frm, to, rng.randint(0, 3)))
        # guarantee non-blocking
        for s, targets in (("d0", tribune), ("d1", tribune), ("t0", despot), ("t1", despot)):
            if not any(t[0] == s for t in transitions):
                transitions.append((s, targets[0], rng.randint(0, 3)))
        m = MpgArena(tuple(despot), tuple(tribune), tuple(transitions))
        (lo, hi), _ = mpg_value(m, tol=Fraction(1, 10**4))
        brute = oracle_helpers.mpg_bruteforce_value(despot, tribune, transitions)
        assert lo - 1e-4 <= float(brute) <= hi + 1e-4


def test_value_12_arena_ties_on_its_critical_block(monkeypatch):
    import entropygames.realroots as realroots

    arena = Arena(
        frozen.VALUE_12_DESPOT,
        frozen.VALUE_12_TRIBUNE,
        frozen.VALUE_12_ALPHABET,
        frozen.VALUE_12_TRANSITIONS,
    )
    assert len(arena.transitions) == 28
    solution = solve(arena)
    assert (solution.value.lower, solution.value.upper, solution.value.bisections) == (
        frozen.VALUE_12_LOWER,
        frozen.VALUE_12_UPPER,
        frozen.VALUE_12_BISECTIONS,
    )
    calls = []
    charpoly = realroots.charpoly

    def counted(m):
        calls.append(m)
        return charpoly(m)

    monkeypatch.setattr(realroots, "charpoly", counted)
    t = arena_to_iru(arena)
    sp = find_saddle(t.a_set, t.e_set)
    assert verify_saddle(t.a_set, t.e_set, sp.despot_matrix, sp.tribune_matrix)
    assert (sp.despot_matrix, sp.tribune_matrix) == (
        solution.saddle.despot_matrix,
        solution.saddle.tribune_matrix,
    )
    assert calls == []
