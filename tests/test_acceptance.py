"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them); the assert
carries the same verdict, so plain pytest runs enforce the gate too."""

import json
import random
import time
from fractions import Fraction

import _frozen as frozen
import oracle_helpers
from entropygames import io
from entropygames.cli import main
from entropygames.decide import (
    Certificate,
    decide_jsr_lt,
    decide_jssr_ge,
    decide_mm_ge,
    decide_mm_lt,
    verify_certificate,
)
from entropygames.games import (
    Arena,
    MpgArena,
    forest_counts,
    mpg_value,
    simulate_payoff,
    solve,
    verify_saddle,
)
from entropygames.iru import enumerate_members, hourglass_check, iru_set
from entropygames.linalg import Matrix, mat_mul, mat_vec, one_norm, spectral_radius, vec_mat
from entropygames.minsky import parse_machine
from entropygames.realroots import compare_radius_with_rational
from entropygames.reductions import (
    check_nonneg_punishment,
    encode_integer,
    encode_nonneg,
    run_scripted_play,
)

TRUE_VALUE = Fraction(frozen.RUNNING_VALUE_STR)

A_SET = iru_set(frozen.FIG1_A_ROW_SETS)
E_SET = iru_set(frozen.FIG1_E_ROW_SETS)


def fig1_arena() -> Arena:
    return Arena(
        despot_states=tuple(frozen.FIG1_DESPOT),
        tribune_states=tuple(frozen.FIG1_TRIBUNE),
        alphabet=tuple(frozen.FIG1_ALPHABET),
        transitions=tuple(frozen.FIG1_TRANSITIONS),
    )


def report(num: int, label: str, ok: bool):
    print(f"acceptance {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def random_iru(rng, rows, cols, max_entry=4, max_rows=3):
    return iru_set(
        [
            [
                tuple(rng.randint(0, max_entry) for _ in range(cols))
                for _ in range(rng.randint(1, max_rows))
            ]
            for _ in range(rows)
        ]
    )


def test_criterion_01_running_value_via_cli(tmp_path):
    path = tmp_path / "fig1.json"
    io.save_document(str(path), fig1_arena())
    out = tmp_path / "value.json"
    start = time.monotonic()
    code = main(["value", "--json", "-o", str(out), str(path)])
    elapsed = time.monotonic() - start
    doc = json.loads(out.read_text())
    lower = Fraction(doc["value"]["lower"])
    upper = Fraction(doc["value"]["upper"])
    ok = (
        code == 0
        and upper - lower <= Fraction(1, 10**6)
        and lower <= TRUE_VALUE <= upper
        and elapsed < 5.0
    )
    report(1, "running value width<=1e-6 in <5s", ok)


def test_criterion_02_running_strategies():
    sol = solve(fig1_arena(), tol=Fraction(1, 10**4))
    a0, e0 = sol.saddle.despot_matrix, sol.saddle.tribune_matrix
    ok = (
        a0 == Matrix(frozen.SADDLE_A0)
        and e0 == Matrix(frozen.SADDLE_E0)
        and verify_saddle(A_SET, E_SET, a0, e0)
    )
    report(2, "saddle pair exact and certified", ok)


def test_criterion_03_forest_trace():
    levels = forest_counts(fig1_arena(), ("script", "ab"), ("script", "aa"), 2)
    ok = [v.entries for v in levels] == [
        tuple(row) for row in frozen.FOREST_TRACE_AB_AA
    ]
    report(3, "forest counts ab/aa exact", ok)


def test_criterion_04_row_set_translation():
    from entropygames.games import arena_to_iru

    tr = arena_to_iru(fig1_arena())
    want_a = [
        tuple(tuple(Fraction(x) for x in row) for row in rs)
        for rs in frozen.FIG1_A_ROW_SETS
    ]
    want_e = [
        tuple(tuple(Fraction(x) for x in row) for row in rs)
        for rs in frozen.FIG1_E_ROW_SETS
    ]
    ok = [rs.rows for rs in tr.a_set.row_sets] == want_a and [
        rs.rows for rs in tr.e_set.row_sets
    ] == want_e
    report(4, "six translated row sets verbatim", ok)


def test_criterion_05_minimax_property_suite():
    from entropygames.games import find_saddle

    rng = random.Random(20260501)
    start = time.monotonic()
    ok = True
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = iru_set(
            [
                [
                    tuple(Fraction(rng.randint(0, 16), 4) for _ in range(m))
                    for _ in range(rng.randint(1, 3))
                ]
                for _ in range(n)
            ]
        )
        e = iru_set(
            [
                [
                    tuple(Fraction(rng.randint(0, 16), 4) for _ in range(n))
                    for _ in range(rng.randint(1, 3))
                ]
                for _ in range(m)
            ]
        )
        a_members = list(enumerate_members(a))
        e_members = list(enumerate_members(e))
        table = [
            [
                oracle_helpers.rho_numpy(
                    [[float(x) for x in row] for row in mat_mul(am, em).data]
                )
                for em in e_members
            ]
            for am in a_members
        ]
        minmax = min(max(row) for row in table)
        maxmin = max(
            min(table[i][j] for i in range(len(a_members)))
            for j in range(len(e_members))
        )
        if abs(minmax - maxmin) > 1e-8:
            ok = False
            break
        sp = find_saddle(a, e)
        if not verify_saddle(a, e, sp.despot_matrix, sp.tribune_matrix):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(5, f"200 minimax instances in {elapsed:.1f}s", ok and elapsed < 60.0)


def test_criterion_06_lp_vs_enumeration():
    rng = random.Random(20260502)
    equality_hits = 0
    ok = True
    instances = []
    for _ in range(200):
        n = rng.randint(1, 3)
        instances.append(random_iru(rng, n, n))
    # guaranteed equality probes alongside the random pool
    instances.append(iru_set([[(2,)]]))
    instances.append(iru_set([[(1, 1), (2, 0)], [(1, 1)]]))
    instances.append(iru_set(frozen.FIG1_A_ROW_SETS))
    for s in instances:
        argmax, argmin = oracle_helpers.sturm_extremes(s)
        thresholds = [
            Fraction(rng.randint(0, 16), rng.randint(1, 4)) for _ in range(3)
        ] + [Fraction(rng.randint(0, 4)), Fraction(rng.randint(1, 3))]
        for alpha in thresholds:
            sign_max = compare_radius_with_rational(argmax, alpha)
            below, cert_b = decide_jsr_lt(s, alpha)
            if sign_max == 0:
                equality_hits += 1
                if below:
                    ok = False
            elif below != (sign_max < 0):
                ok = False
            if below and not verify_certificate(cert_b, s, alpha=alpha):
                ok = False
            sign_min = compare_radius_with_rational(argmin, alpha)
            at_least, cert_a = decide_jssr_ge(s, alpha)
            if sign_min == 0:
                equality_hits += 1
                if not at_least:
                    ok = False
            elif at_least != (sign_min > 0):
                ok = False
            if at_least and not verify_certificate(cert_a, s, alpha=alpha):
                ok = False
            if not ok:
                break
        if not ok:
            break
    ok = ok and equality_hits > 0
    report(6, f"200+ instances x5 thresholds, {equality_hits} equality hits", ok)


def _tamper_matrix(rng, cert: Certificate) -> Certificate:
    rows = [list(r) for r in cert.chosen_matrix.data]
    i = rng.randrange(len(rows))
    j = rng.randrange(len(rows[0]))
    delta = Fraction(rng.choice((1, -1)), 7)
    if rows[i][j] + delta < 0:
        delta = -delta
    rows[i][j] += delta
    tampered = Matrix(tuple(tuple(r) for r in rows))
    return Certificate(cert.kind, cert.vector, chosen_matrix=tampered)


def _vector_cert_truth(cert: Certificate, a_set, e_set, alpha: Fraction) -> bool:
    """Independent exact recheck of a game certificate's inequalities."""
    from entropygames.iru import right_product

    v = cert.vector
    chosen = cert.chosen_matrix
    if cert.kind == "mm_lt":
        if not a_set.contains_matrix(chosen) or any(x < 1 for x in v):
            return False
        prod = right_product(e_set, chosen)
        return all(
            sum(r * x for r, x in zip(row, v)) < alpha * v[i]
            for i, rs in enumerate(prod.row_sets)
            for row in rs.rows
        )
    if not e_set.contains_matrix(chosen):
        return False
    if any(x < 0 for x in v) or max(v) < 1:
        return False
    prod = right_product(a_set, chosen)
    return all(
        sum(r * x for r, x in zip(row, v)) >= alpha * v[i]
        for i, rs in enumerate(prod.row_sets)
        for row in rs.rows
    )


def test_criterion_07_complementarity_and_certificates():
    rng = random.Random(20260503)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = random_iru(rng, n, m)
        e = random_iru(rng, m, n)
        for _ in range(3):
            alpha = Fraction(rng.randint(1, 40), rng.randint(1, 4))
            below, cert_lt = decide_mm_lt(a, e, alpha)
            at_least, cert_ge = decide_mm_ge(a, e, alpha)
            if below == at_least:
                ok = False
                break
            cert = cert_lt if below else cert_ge
            if not verify_certificate(cert, a, e, alpha=alpha):
                ok = False
                break
            # a 1/7 nudge to any committed-matrix entry breaks exact
            # membership, so the tampered certificate must be rejected
            if verify_certificate(_tamper_matrix(rng, cert), a, e, alpha=alpha):
                ok = False
                break
            # nudging a witness-vector entry may or may not break an
            # inequality; the verifier's verdict must match exact recheck
            vec = list(cert.vector)
            k = rng.randrange(len(vec))
            vec[k] += Fraction(rng.choice((1, -1)), 7)
            nudged = Certificate(cert.kind, tuple(vec), chosen_matrix=cert.chosen_matrix)
            if verify_certificate(nudged, a, e, alpha=alpha) != _vector_cert_truth(
                nudged, a, e, alpha
            ):
                ok = False
                break
        if not ok:
            break
    report(7, "mm_lt XOR mm_ge, certificates sound under 1/7 nudges", ok)


def test_criterion_08_constant_strategy_optimality():
    a0 = Matrix(frozen.SADDLE_A0)
    e0 = Matrix(frozen.SADDLE_E0)
    a_members = list(enumerate_members(A_SET))
    e_members = list(enumerate_members(E_SET))
    ok = True
    for seed in range(100):
        rng = random.Random(1000 + seed)
        eve = lambda turn, history: rng.choice(e_members)
        growth = simulate_payoff(a0, E_SET, eve=eve, steps=500).tail
        if growth > 3.5616 + 0.05:
            ok = False
            break
    if ok:
        for seed in range(100):
            rng = random.Random(2000 + seed)
            adam = lambda turn, history: rng.choice(a_members)
            growth = simulate_payoff(A_SET, e0, adam=adam, steps=500).tail
            if growth < 3.5616 - 0.05:
                ok = False
                break
    report(8, "constant saddle strategies bound 200 random opponents", ok)


def test_criterion_09_hourglass_alternative():
    rng = random.Random(20260504)
    ok = True
    for _ in range(500):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        s = random_iru(rng, n, m)
        u = tuple(Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(m))
        witness = s.member(
            tuple(rng.randrange(rs.size) for rs in s.row_sets)
        )
        v = mat_vec(witness, u)
        rep = hourglass_check(s, u, v, witness)
        members = list(enumerate_members(s))
        all_ge = all(
            all(x >= y for x, y in zip(mat_vec(mm, u), v)) for mm in members
        )
        all_le = all(
            all(x <= y for x, y in zip(mat_vec(mm, u), v)) for mm in members
        )
        if rep.all_ge != all_ge or rep.all_le != all_le:
            ok = False
            break
        if rep.all_ge != (rep.below_member is None) or rep.all_le != (
            rep.above_member is None
        ):
            ok = False
            break
        if rep.below_member is not None:
            img = mat_vec(rep.below_member, u)
            if not s.contains_matrix(rep.below_member) or not any(
                x < y for x, y in zip(img, v)
            ):
                ok = False
                break
        if rep.above_member is not None:
            img = mat_vec(rep.above_member, u)
            if not s.contains_matrix(rep.above_member) or not any(
                x > y for x, y in zip(img, v)
            ):
                ok = False
                break
    report(9, "500 hourglass triples verified by enumeration", ok)


def test_criterion_10_mpg_reduction():
    rng = random.Random(20260505)
    ok = True
    for _ in range(20):
        despot = ["d0", "d1", "d2"]
        tribune = ["t0", "t1", "t2"]
        transitions = []
        for frm, targets in [(d, tribune) for d in despot] + [
            (t, despot) for t in tribune
        ]:
            for to in rng.sample(targets, rng.randint(1, 3)):
                transitions.append((frm, to, rng.randint(0, 3)))
        arena = MpgArena(tuple(despot), tuple(tribune), tuple(transitions))
        (lo, hi), _ = mpg_value(arena, tol=Fraction(1, 10**5))
        brute = float(
            oracle_helpers.mpg_bruteforce_value(despot, tribune, transitions)
        )
        if not (lo - 1e-4 <= brute <= hi + 1e-4):
            ok = False
            break
    report(10, "20 random 3+3 MPGs match brute-force oracle to 1e-4", ok)


def test_criterion_11_machine_encodings():
    looper = parse_machine("q0: inc x -> q0\n")
    g_loop = encode_integer(looper)
    play = run_scripted_play(g_loop, looper, 50)
    e_index = g_loop.coordinate_labels.index("E")
    invariant = play.faithful_invariant_ok and all(
        all(x >= 0 for x in vec) and vec[e_index] >= 1 for vec in play.vectors
    )

    halters = [
        parse_machine(frozen.M1_PROGRAM_TEXT),
        parse_machine("q0: inc x -> q1\nq1: ifz x -> q2 else dec -> q1\nq2: stop\n"),
        parse_machine(
            "q0: ifz x -> q1 else dec -> q0\n"
            "q1: inc x -> q2\n"
            "q2: ifz x -> q3 else dec -> q2\n"
            "q3: stop\n"
        ),
    ]
    annihilated = True
    for machine in halters:
        rep = run_scripted_play(encode_integer(machine), machine, 40)
        if rep.annihilation_turn is None or any(
            x != 0 for row in rep.final_product.data for x in row
        ):
            annihilated = False

    g_nn = encode_nonneg(looper)
    step_matrix = g_nn.eve_matrices[0][1]
    v = g_nn.start_vector
    magnitude = True
    for n in range(30):
        if one_norm(v) < Fraction(2) ** n:
            magnitude = False
            break
        v = vec_mat(v, step_matrix)

    growth_ok = True
    for machine in halters:
        rep = check_nonneg_punishment(encode_nonneg(machine), machine, 14)
        if not (rep.punished and rep.aggregate_growth < 2):
            growth_ok = False

    report(
        11,
        "faithful invariant, exact annihilation, 2^n magnitude, growth<2",
        invariant and annihilated and magnitude and growth_ok,
    )


def test_criterion_12_spectral_radius_examples():
    cases = [
        (Matrix(frozen.SADDLE_PRODUCT), TRUE_VALUE),
        (Matrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))), Fraction(1)),
        (Matrix(((1, 1), (1, 1))), Fraction(2)),
        (Matrix(((0, 1), (1, 0))), Fraction(1)),
    ]
    ok = True
    for m, reference in cases:
        est = spectral_radius(m, Fraction(1, 10**10))
        if abs(est.value - float(reference)) > 1e-9:
            ok = False
        if not (est.lower <= reference <= est.upper):
            ok = False
    report(12, "four radius examples to 1e-9 with containing enclosures", ok)
