"""Independent reference routes used to derive and freeze expected test values.

Spectral radii come from numpy eigenvalues, simulated growth from numpy float
products, forest traces from a direct walk on the arena graph, mean-payoff
values from positional brute force with cycle detection, machine behaviour
from a literal interpreter, and the encoder templates are instantiated a
second time from scratch so the package encoders can be compared entry by
entry. None of these import the package under test.

The exceptions are built from the package's slow exact routes and serve as
differential references for the fast ones: member_scan_mm_lt,
member_scan_mm_ge and member_scan_mm_le, the member loops that committing
to the saddle strategy replaced in decide.decide_mm_lt, decide_mm_ge and
decide_mm_le, and member_scan_bisection, the member-scan route to the game
value that value_bisection replaced, and
norm_bound_bracket, its Sturm bisection from [0, floor(norm_bound) + 1)
before the bracket started from the saddle's enclosure, and
sturm_saddle_check and sturm_extremes, which compare member radii with
realroots.compare_radii alone, with no enclosure and no float (the scan of
sturm_extremes is the one that the climbs replaced in decide.jsr_jssr), and
grid_saddle, the member-grid saddle search that strategy iteration
replaced in decide.find_saddle, and member_scan_refute, the scan over
every member of a side that the block split replaced in decide._refute,
and contraction_lp, the strict contraction
LP that Howard policy iteration replaced in decide.decide_jsr_lt.
fraction_verify_rows is the Fraction row check that the integer
cross-multiplication in decide._verify_rows replaced.
fraction_mat_mul, fraction_mat_vec and fraction_vec_mat are the entrywise
Fraction loops that the integer-numerator products in linalg replaced, and
replay_audit replays an integer audit's transcript through them, every move
multiplied, as the reference for the products the audits skip;
replay_integer_audit and replay_nonneg_audit play the whole integer and
non-negative audits with them and the literal machine, the references for
the audits' loops and for the one machine run each keeps.
fraction_charpoly is the Faddeev-LeVerrier loop over Fractions that the
integer one in realroots.charpoly replaced, and fraction_solve_exact and
fraction_lp_max (with its tableau step fraction_pivot) are the Gauss-Jordan
solve and the phase-1 simplex over Fractions that linalg._resolvent and
lp.lp_max replaced with one fraction-free integer pivot.  isolate_largest_root,
count_roots and the isolating comparisons built on them are the Sturm
routes that realroots' single sign query replaced: isolate the largest root
from the Cauchy bound down, refine the isolating interval, and test a tie by
the gcd's roots in the overlap; isolating_compare_radii,
isolating_compare_radius_with_rational and isolating_bisect_radius ask the
public questions through them.  cycling_arena is no oracle but a shared
input: the arena on which find_saddle's exact loop cycles.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np


def rho_numpy(mat) -> float:
    arr = np.array([[float(x) for x in row] for row in mat], dtype=float)
    return float(max(abs(np.linalg.eigvals(arr)))) if arr.size else 0.0


def numpy_growth(turns):
    """The per-turn growth of a simulated play, by numpy float products.

    ``turns`` lists one (adam, eve) pair of row-list matrices per turn.
    Returns (per_turn, tail, zeroed_at) as simulate_payoff defines them: the
    product is renormalised by the sum of its absolute entries every turn,
    and a vanished product reports growth 0 from that turn on."""
    steps = len(turns)
    product = None
    log_norm = 0.0
    per_turn = []
    zeroed_at = None
    for turn, (a, e) in enumerate(turns, start=1):
        step = np.array(a, dtype=float) @ np.array(e, dtype=float)
        product = step if product is None else product @ step
        total = float(np.abs(product).sum())
        if total == 0.0:
            zeroed_at = turn
            per_turn.extend([0.0] * (steps - turn + 1))
            break
        log_norm += math.log(total)
        product = product / total
        per_turn.append(math.exp(log_norm / turn))
    tail = max(per_turn[(3 * steps) // 4:], default=0.0)
    return tuple(per_turn), tail, zeroed_at


def mat_mul_lists(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def members(row_sets):
    """Every matrix formed by picking one row per row set, lexicographic in
    row-choice indices."""
    for choice in itertools.product(*row_sets):
        yield [list(row) for row in choice]


def minmax_table(a_row_sets, e_row_sets):
    """Brute-force table of rho(A*E) plus min-max and max-min over it."""
    a_members = list(members(a_row_sets))
    e_members = list(members(e_row_sets))
    table = [[rho_numpy(mat_mul_lists(a, e)) for e in e_members] for a in a_members]
    minmax = min(max(row) for row in table)
    maxmin = max(min(col) for col in zip(*table))
    return table, minmax, maxmin, a_members, e_members


def forest_walk(despot_states, tribune_states, transitions, despot_actions, tribune_actions):
    """Per-level weighted counts of compatible play prefixes, straight off the
    transition relation (no matrices). Scripts give one action per half-turn of
    the owning player; one full turn consumes one action from each."""
    counts = {s: Fraction(1) for s in despot_states}
    levels = [[counts[s] for s in despot_states]]
    for d_act, t_act in zip(despot_actions, tribune_actions):
        for action, targets in ((d_act, tribune_states), (t_act, despot_states)):
            nxt = {s: Fraction(0) for s in targets}
            for frm, act, to, weight in transitions:
                if act == action and counts.get(frm):
                    nxt[to] += counts[frm] * weight
            counts = nxt
            levels.append([counts[s] for s in targets])
    return levels


def mpg_cycle_mean(sigma, tau, start) -> Fraction:
    """Mean weight per full turn of the eventual cycle reached from `start`
    under positional strategies sigma (despot) / tau (tribune)."""
    seen = {}
    state, time, total = start, 0, Fraction(0)
    while state not in seen:
        seen[state] = (time, total)
        mid, w1 = sigma[state]
        state, w2 = tau[mid]
        total += w1 + w2
        time += 1
    t0, w0 = seen[state]
    return (total - w0) / (time - t0)


def mpg_bruteforce_value(despot_states, tribune_states, transitions) -> Fraction:
    """Min over despot positional strategies of max over tribune positional
    strategies of the worst-start cycle mean (per full turn)."""
    succ: dict[str, list] = {}
    for frm, to, w in transitions:
        succ.setdefault(frm, []).append((to, Fraction(w)))
    best = None
    for d_pick in itertools.product(*(succ[d] for d in despot_states)):
        sigma = dict(zip(despot_states, d_pick))
        worst = None
        for t_pick in itertools.product(*(succ[t] for t in tribune_states)):
            tau = dict(zip(tribune_states, t_pick))
            val = max(mpg_cycle_mean(sigma, tau, s) for s in despot_states)
            worst = val if worst is None or val > worst else worst
        best = worst if best is None or worst < best else best
    return best


def run_machine(program, start, max_steps):
    """Literal two-counter machine interpreter.

    program: state -> ("inc", counter, next) | ("jzdec", counter, if_zero,
    if_else) | ("stop",). Returns (trace of (state, x, y), halted flag).
    """
    state, x, y = start, 0, 0
    trace = [(state, x, y)]
    for _ in range(max_steps):
        ins = program[state]
        if ins[0] == "stop":
            return trace, True
        if ins[0] == "inc":
            x, y = (x + 1, y) if ins[1] == "x" else (x, y + 1)
            state = ins[2]
        else:
            value = x if ins[1] == "x" else y
            if value == 0:
                state = ins[2]
            else:
                x, y = (x - 1, y) if ins[1] == "x" else (x, y - 1)
                state = ins[3]
        trace.append((state, x, y))
    return trace, False


# --- reference instantiation of the two machine-to-matrix templates ---

def _assign(dim, target, combo):
    """Row-vector semantics: v @ M leaves every coordinate unchanged except
    `target`, which becomes sum(combo[src] * v[src])."""
    m = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        m[i][target] = combo.get(i, 0)
    return m


def _seq(dim, *assignments):
    out = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    for target, combo in assignments:
        out = mat_mul_lists(out, _assign(dim, target, combo))
    return out


def reference_integer_encoding(states, program):
    """Second, independent instantiation of the integer-matrix templates.

    Coordinates: states in order, then x, y, One, E, Neg. Eve gets one matrix
    per machine transition (inc: 1, jzdec: 2, stop: 0): an increment matrix
    does q -= One; q' += One; c += One as sequential assignments, the zero
    branch flips the counter sign instead, the decrement branch subtracts.
    Adam gets Init, Id, one flash per state and per counter, Adjust, Punish.
    """
    labels = list(states) + ["x", "y", "One", "E", "Neg"]
    idx = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)
    one, ee, neg = idx["One"], idx["E"], idx["Neg"]

    def move(q, q2, c, c_combo):
        return _seq(
            dim,
            (idx[q], {idx[q]: 1, one: -1}),
            (idx[q2], {idx[q2]: 1, one: 1}),
            (idx[c], c_combo(idx[c])),
        )

    eve = []
    for q in states:
        ins = program[q]
        if ins[0] == "inc":
            eve.append((f"I[{q}->{ins[2]},{ins[1]}]",
                        move(q, ins[2], ins[1], lambda c: {c: 1, one: 1})))
        elif ins[0] == "jzdec":
            eve.append((f"K[{q}->{ins[2]},{ins[1]}]",
                        move(q, ins[2], ins[1], lambda c: {c: -1})))
            eve.append((f"D[{q}->{ins[3]},{ins[1]}]",
                        move(q, ins[3], ins[1], lambda c: {c: 1, one: -1})))

    init = [[0] * dim for _ in range(dim)]
    for target in (idx[states[0]], one, ee):
        init[ee][target] = 1
    identity = _seq(dim)
    adam = [("Init", init), ("Id", identity)]
    for lab in list(states) + ["x", "y"]:
        adam.append((f"F[{lab}]", _assign(dim, neg, {idx[lab]: 1})))
    adam.append(("A", _assign(dim, neg, {neg: 1, one: 1})))
    adam.append(("P", _assign(dim, ee, {ee: 1, neg: 1})))

    v0 = [0] * dim
    v0[idx[states[0]]] = 1
    v0[one] = 1
    v0[ee] = 1
    return labels, adam, eve, v0


def reference_nonneg_encoding(states, program):
    """Independent instantiation of the non-negative templates.

    Coordinates: states, then x+, x-, y+, y-. Column semantics are
    simultaneous: an increment on x moves the state token doubled, quadruples
    x+, doubles both y coordinates, and stalls x-; the zero branch swaps the
    tested pair scaled by 2; the decrement branch quadruples the minus
    coordinate. Adam gets Id and one reset per counter and for the states.
    """
    labels = list(states) + ["x+", "x-", "y+", "y-"]
    idx = {lab: i for i, lab in enumerate(labels)}
    dim = len(labels)

    def build(columns):
        m = [[0] * dim for _ in range(dim)]
        for lab in labels:
            combo = columns.get(lab, {lab: 1})
            for src, coeff in combo.items():
                m[idx[src]][idx[lab]] = coeff
        return m

    def state_part(q, q2):
        cols = {q2: {q: 2}}
        if q2 != q:
            cols[q] = {}
        return cols

    eve = []
    for q in states:
        ins = program[q]
        if ins[0] == "stop":
            continue
        c = ins[1]
        plus, minus = c + "+", c + "-"
        other = "y" if c == "x" else "x"
        stall = {other + "+": {other + "+": 2}, other + "-": {other + "-": 2}}
        if ins[0] == "inc":
            cols = state_part(q, ins[2]) | stall | {plus: {plus: 4}}
            eve.append((f"I[{q}->{ins[2]},{c}]", build(cols)))
        else:
            cols = state_part(q, ins[2]) | stall | {plus: {minus: 2}, minus: {plus: 2}}
            eve.append((f"K[{q}->{ins[2]},{c}]", build(cols)))
            cols = state_part(q, ins[3]) | stall | {minus: {minus: 4}}
            eve.append((f"D[{q}->{ins[3]},{c}]", build(cols)))

    adam = [("Id", build({}))]
    for c in ("x", "y"):
        source = c + "+"
        cols = {lab: {source: 1} for lab in ["x+", "x-", "y+", "y-"] + list(states)}
        cols[states[0]] = {source: 1}
        for q in states[1:]:
            cols[q] = {}
        adam.append((f"P[{c}]", build(cols)))
    spread = {q: 1 for q in states}
    cols = {lab: dict(spread) for lab in ["x+", "x-", "y+", "y-"]}
    cols[states[0]] = dict(spread)
    for q in states[1:]:
        cols[q] = {}
    adam.append(("P[q]", build(cols)))

    v0 = [0] * dim
    v0[idx[states[0]]] = 1
    for lab in ("x+", "x-", "y+", "y-"):
        v0[idx[lab]] = 1
    return labels, adam, eve, v0


def vec_mat(v, m):
    return [sum(v[i] * m[i][j] for i in range(len(v))) for j in range(len(m[0]))]


def fraction_mat_mul(a, b):
    """The Matrix product a b by Fraction sums, entry by entry."""
    from entropygames.linalg import Matrix

    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    bt = list(zip(*b.data))
    return Matrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a.data)
    )


def fraction_mat_vec(m, v):
    """The column product m v of a Matrix by Fraction sums."""
    if m.cols != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m.data)


def fraction_vec_mat(v, m):
    """The row product v m of a Matrix by Fraction sums over the non-zero
    entries of v."""
    if m.rows != len(v):
        raise ValueError("dimension mismatch in vector-matrix product")
    terms = [(x, row) for x, row in zip(v, m.data) if x]
    return tuple(sum((x * row[j] for x, row in terms), Fraction(0)) for j in range(m.cols))


def fraction_charpoly(m):
    """det(x I - m) of a square Matrix by Faddeev-LeVerrier over Fractions,
    lowest degree first: M_1 = m, c_k = -tr(M_k) / k, M_{k+1} = m (M_k +
    c_k I)."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [list(row) for row in m.data]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        if k == n:
            break
        shifted = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
        mk = [
            [sum(m.data[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def count_roots(chain, a, b):
    """Number of distinct real roots of a square-free polynomial in the
    half-open interval (a, b], from its Sturm chain."""
    from entropygames.realroots import _sign_variations

    if a >= b:
        return 0
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def isolate_largest_root(p):
    """(chain, lo, hi) with the largest real root of a square-free p the only
    root in (lo, hi] and none above hi, or None when p has no real root:
    halve from the Cauchy interval (-B, B] on root counts."""
    from entropygames.realroots import poly_trim, root_bound, sturm_chain

    p = poly_trim(list(p))
    chain = sturm_chain(p)
    bound = root_bound(p)
    lo, hi = -bound, bound
    if count_roots(chain, lo, hi) == 0:
        return None
    while count_roots(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        if count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return chain, lo, hi


def _refine(chain, lo, hi):
    mid = (lo + hi) / 2
    if count_roots(chain, mid, hi) == 1:
        return mid, hi
    return lo, mid


def compare_largest_root_with_rational(p, r):
    """Sign of (largest real root of p) - r, by refining its isolating
    interval until r leaves it."""
    from entropygames.realroots import poly_eval, square_free

    r = Fraction(r)
    ps = square_free(p)
    iso = isolate_largest_root(ps)
    if iso is None:
        raise ValueError("polynomial has no real root")
    chain, lo, hi = iso
    if poly_eval(ps, r) == 0:
        return 1 if count_roots(chain, r, hi if hi > r else r + 1) > 0 else 0
    while lo < r <= hi:
        lo, hi = _refine(chain, lo, hi)
    return 1 if r <= lo else -1


def compare_largest_roots(p, q):
    """Sign of (largest real root of p) - (largest real root of q): refine
    both isolating intervals until they separate, or until the gcd has a
    root in their overlap, which is then both largest roots."""
    from entropygames.realroots import poly_degree, poly_gcd, square_free, sturm_chain

    ps = square_free(p)
    qs = square_free(q)
    iso_p = isolate_largest_root(ps)
    iso_q = isolate_largest_root(qs)
    if iso_p is None or iso_q is None:
        raise ValueError("polynomial has no real root")
    chain_p, plo, phi = iso_p
    chain_q, qlo, qhi = iso_q
    g = poly_gcd(ps, qs)
    g_chain = sturm_chain(g) if poly_degree(g) >= 1 else None
    while True:
        if phi <= qlo:
            return -1
        if qhi <= plo:
            return 1
        if g_chain is not None:
            olo = max(plo, qlo)
            ohi = min(phi, qhi)
            if olo < ohi and count_roots(g_chain, olo, ohi) > 0:
                return 0
        plo, phi = _refine(chain_p, plo, phi)
        qlo, qhi = _refine(chain_q, qlo, qhi)


def isolating_compare_radii(p, q):
    """realroots.compare_radii through isolating intervals."""
    from entropygames.realroots import charpoly

    if p.data == q.data:
        return 0
    cp, cq = charpoly(p), charpoly(q)
    return 0 if cp == cq else compare_largest_roots(cp, cq)


def isolating_compare_radius_with_rational(m, r):
    """realroots.compare_radius_with_rational through an isolating
    interval."""
    from entropygames.realroots import charpoly

    return compare_largest_root_with_rational(charpoly(m), r)


def isolating_bisect_radius(m, lower, upper, tol):
    """realroots.bisect_radius with each midpoint placed by
    isolating_compare_radius_with_rational."""
    lower, upper, tol = Fraction(lower), Fraction(upper), Fraction(tol)
    if isolating_compare_radius_with_rational(
        m, lower
    ) < 0 or isolating_compare_radius_with_rational(m, upper) >= 0:
        raise ValueError("the bracket must satisfy lower <= rho < upper")
    steps = 0
    while upper - lower > tol:
        mid = (lower + upper) / 2
        if isolating_compare_radius_with_rational(m, mid) >= 0:
            lower = mid
        else:
            upper = mid
        steps += 1
    return lower, upper, steps


def norm_bound(a_set, e_set):
    """max_A ||A|| * max_E ||E|| over members, an upper bound on the game
    value.  Row independence makes the max norm a per-row-set maximum."""
    from entropygames.linalg import one_norm

    def set_bound(s):
        return sum((max(one_norm(r) for r in rs.rows) for rs in s.row_sets), Fraction(0))

    return set_bound(a_set) * set_bound(e_set)


def norm_bound_bracket(a_set, e_set, tol):
    """The value bracket as value_bisection made it before it started from
    the saddle's enclosure: realroots.bisect_radius on the saddle product,
    halving [0, floor(norm_bound) + 1).  Returns (lower, upper, halvings)."""
    from entropygames.decide import find_saddle
    from entropygames.linalg import mat_mul
    from entropygames.realroots import bisect_radius

    sp = find_saddle(a_set, e_set)
    return bisect_radius(
        mat_mul(sp.despot_matrix, sp.tribune_matrix),
        Fraction(0),
        Fraction(int(norm_bound(a_set, e_set)) + 1),
        tol,
    )


def member_scan_mm_lt(a_set, e_set, alpha):
    """decide_mm_lt by trying Despot's members in lexicographic order: the
    first a0 whose product set E a0 has jsr < alpha (decide_jsr_lt) is
    committed.  Returns (answer, certificate)."""
    from entropygames.decide import MM_LT, Certificate, decide_jsr_lt
    from entropygames.iru import enumerate_members, right_product

    for a0 in enumerate_members(a_set):
        ok, cert = decide_jsr_lt(right_product(e_set, a0), alpha)
        if ok:
            return True, Certificate(MM_LT, cert.vector, chosen_matrix=a0)
    return False, None


def member_scan_mm_ge(a_set, e_set, alpha):
    """decide_mm_ge by trying Tribune's members in lexicographic order: the
    first e0 whose product set A e0 has jssr >= alpha (one decide_jssr_ge
    LP each) is committed."""
    from entropygames.decide import MM_GE, Certificate, decide_jssr_ge
    from entropygames.iru import enumerate_members, right_product

    for e0 in enumerate_members(e_set):
        ok, cert = decide_jssr_ge(right_product(a_set, e0), alpha)
        if ok:
            return True, Certificate(MM_GE, cert.vector, chosen_matrix=e0)
    return False, None


def member_scan_mm_le(a_set, e_set, alpha):
    """decide_mm_le by trying Despot's members in lexicographic order, one
    decide_jsr_le LP each.  Positive sets only, as decide_jsr_le refuses
    others."""
    from entropygames.decide import MM_LE, Certificate, decide_jsr_le
    from entropygames.iru import enumerate_members, right_product

    for a0 in enumerate_members(a_set):
        ok, cert = decide_jsr_le(right_product(e_set, a0), alpha)
        if ok:
            return True, Certificate(MM_LE, cert.vector, chosen_matrix=a0)
    return False, None


def member_scan_bisection(a_set, e_set, tol):
    """The game value bracket by member-scan bisection, needing no saddle
    point.

    Halves [0, floor(norm_bound) + 1) with one member_scan_mm_lt per step
    (value < mid?), then certifies the final ends with member_scan_mm_ge
    and member_scan_mm_lt over the full sets.  Returns (lower, upper,
    bisections, lower_certificate, upper_certificate)."""
    lower = Fraction(0)
    upper = Fraction(int(norm_bound(a_set, e_set)) + 1)
    steps = 0
    while upper - lower > tol:
        mid = (lower + upper) / 2
        below, _ = member_scan_mm_lt(a_set, e_set, mid)
        if below:
            upper = mid
        else:
            lower = mid
        steps += 1
    ge_ok, lower_cert = member_scan_mm_ge(a_set, e_set, lower)
    lt_ok, upper_cert = member_scan_mm_lt(a_set, e_set, upper)
    assert ge_ok and lt_ok, "bisection invariant violated at the final bracket"
    return lower, upper, steps, lower_cert, upper_cert


def sturm_saddle_check(a_set, e_set, a0, e0):
    """Is (a0, e0) a saddle of rho(A E) over the members, that is
    rho(a0 E) <= rho(a0 e0) <= rho(A e0) for every member E and A?  Every
    comparison is a Sturm comparison of characteristic polynomials."""
    from entropygames.iru import enumerate_members
    from entropygames.linalg import mat_mul
    from entropygames.realroots import compare_radii

    if not (a_set.contains_matrix(a0) and e_set.contains_matrix(e0)):
        return False
    centre = mat_mul(a0, e0)
    return all(
        compare_radii(mat_mul(a0, e), centre) <= 0 for e in enumerate_members(e_set)
    ) and all(
        compare_radii(mat_mul(a, e0), centre) >= 0 for a in enumerate_members(a_set)
    )


def sturm_extremes(s):
    """(argmax, argmin) of the member radius of a square IruSet, the
    lexicographically first member on ties, by Sturm comparisons alone."""
    from entropygames.iru import enumerate_members
    from entropygames.realroots import compare_radii

    argmax = argmin = None
    for m in enumerate_members(s):
        if argmax is None or compare_radii(argmax, m) < 0:
            argmax = m
        if argmin is None or compare_radii(m, argmin) < 0:
            argmin = m
    return argmax, argmin


def member_scan_refute(s, own, other, sign):
    """The first member M of s, in lexicographic order, with sign *
    (rho(M other) - rho(own other)) > 0, or None: decide._refute by
    comparing every member's product with the centre, by Sturm
    comparisons alone."""
    from entropygames.iru import enumerate_members
    from entropygames.linalg import mat_mul
    from entropygames.realroots import compare_radii

    centre = mat_mul(own, other)
    for m in enumerate_members(s):
        if sign * compare_radii(mat_mul(m, other), centre) > 0:
            return m
    return None


def grid_saddle(a_set, e_set):
    """The member-grid saddle search that decide.find_saddle replaced.

    A float table of rho over the whole |A| x |E| grid (numpy eigenvalues)
    orders the cells: those within a slack of both their row's maximum and
    their column's minimum come first, the rest after them, each group in
    lexicographic order.  The first cell that sturm_saddle_check confirms
    is returned as (a0, e0); a saddle always exists, so one confirms."""
    from entropygames.iru import enumerate_members

    a_members = list(enumerate_members(a_set))
    e_members = list(enumerate_members(e_set))
    table = [[rho_numpy(mat_mul_lists(a.data, e.data)) for e in e_members] for a in a_members]
    row_max = [max(row) for row in table]
    col_min = [min(col) for col in zip(*table)]
    slack = 1e-7
    cells = itertools.product(range(len(a_members)), range(len(e_members)))
    ordered = sorted(
        cells,
        key=lambda c: not (row_max[c[0]] - slack <= table[c[0]][c[1]] <= col_min[c[1]] + slack),
    )
    for i, j in ordered:
        if sturm_saddle_check(a_set, e_set, a_members[i], e_members[j]):
            return a_members[i], e_members[j]
    raise AssertionError("no saddle point in the member grid")


def contraction_lp(s, alpha):
    """jsr(s) < alpha by the strict contraction LP that decide_jsr_lt
    replaced: v >= 1 with r . v - alpha v_i <= -1 for every candidate row r
    of every row set i.  Some v >= 1 makes every r . v < alpha v_i exactly
    when such a v exists, as scaling v up until each gap is at least 1
    keeps v >= 1.  Returns (answer, v), with v None on a no."""
    from entropygames.lp import GREATER_EQUAL, LESS_EQUAL, OPTIMAL, FeasibilitySystem, lp_max

    n = s.n_rows
    cons = []
    for i, rs in enumerate(s.row_sets):
        for row in rs.rows:
            coeffs = tuple(x - alpha if j == i else x for j, x in enumerate(row))
            cons.append((coeffs, LESS_EQUAL, Fraction(-1)))
    for i in range(n):
        unit = tuple(Fraction(1 if k == i else 0) for k in range(n))
        cons.append((unit, GREATER_EQUAL, Fraction(1)))
    result = lp_max(FeasibilitySystem(n, tuple(cons)))
    if result.status == OPTIMAL:
        return True, result.solution
    return False, None


def fraction_verify_rows(s, vector, alpha, kind):
    """Whether vector certifies kind ("jsr_lt", "jsr_le", "jssr_gt" or
    "jssr_ge") for the square set s at alpha, over Fractions: v >= 1 for
    the first three kinds, v >= 0 with max(v) >= 1 for the last, and r . v
    against alpha v_i for every candidate row r of every row set i."""
    vector = [Fraction(x) for x in vector]
    alpha = Fraction(alpha)
    if kind == "jssr_ge":
        if any(x < 0 for x in vector) or max(vector) < 1:
            return False
    elif any(x < 1 for x in vector):
        return False
    holds = {
        "jsr_lt": lambda img, bound: img < bound,
        "jsr_le": lambda img, bound: img <= bound,
        "jssr_gt": lambda img, bound: img > bound,
        "jssr_ge": lambda img, bound: img >= bound,
    }[kind]
    for i, rs in enumerate(s.row_sets):
        for row in rs.rows:
            if not holds(sum(x * y for x, y in zip(row, vector)), alpha * vector[i]):
                return False
    return True


def fraction_solve_exact(rows, rhs):
    """Gaussian elimination over the rationals; returns the solution list or
    None when the matrix is singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def fraction_pivot(tableau, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    pivot_row = tableau[row]
    for r, current in enumerate(tableau):
        if r != row and current[col] != 0:
            f = current[col]
            tableau[r] = [x - f * y for x, y in zip(current, pivot_row)]


def fraction_lp_max(system):
    """A basic solution x >= 0 of the system, with status optimal, or
    status infeasible when there is none."""
    from entropygames.lp import (
        EQUAL,
        GREATER_EQUAL,
        INFEASIBLE,
        LESS_EQUAL,
        OPTIMAL,
        LpResult,
        _FLIPPED,
    )

    n = system.variables
    # Negate rows to make every right-hand side non-negative, and >= rows
    # with right-hand side 0 too: a <= row's slack starts basic, and only
    # the >= and == rows left need an artificial.
    rows = []
    for coeffs, sense, rhs in system.constraints:
        if rhs < 0 or (rhs == 0 and sense == GREATER_EQUAL):
            coeffs, sense, rhs = [-c for c in coeffs], _FLIPPED[sense], -rhs
        rows.append((coeffs, sense, rhs))
    real = n + sum(1 for _, sense, _ in rows if sense != EQUAL)
    total = real + sum(1 for _, sense, _ in rows if sense != LESS_EQUAL)
    tableau = []
    basis = []
    slack, artificial = n, real
    for coeffs, sense, rhs in rows:
        row = list(coeffs) + [Fraction(0)] * (total - n) + [rhs]
        if sense == LESS_EQUAL:
            row[slack] = Fraction(1)
            basis.append(slack)
        else:
            if sense == GREATER_EQUAL:
                row[slack] = Fraction(-1)
            row[artificial] = Fraction(1)
            basis.append(artificial)
            artificial += 1
        slack += sense != EQUAL
        tableau.append(row)
    # Maximise -(sum of artificials), each basic artificial priced out so
    # its reduced cost starts at 0.  The last row keeps the invariant
    # objective(x) = sum_j row[j] x_j - row[-1] for every x satisfying the
    # constraint rows, so the current value is -row[-1], and any positive
    # reduced cost offers improvement.
    objective = [Fraction(0)] * real + [Fraction(-1)] * (total - real) + [Fraction(0)]
    for row, b in zip(tableau, basis):
        if b >= real:
            objective = [x + y for x, y in zip(objective, row)]
    tableau.append(objective)
    while True:
        # Bland: the first column that improves enters, and of the rows
        # with the least ratio the one with the least basic column leaves;
        # the objective is at most 0, so some row has a positive entry
        enter = next((j for j in range(total) if tableau[-1][j] > 0), None)
        if enter is None:
            break
        leave = min(
            (i for i in range(len(basis)) if tableau[i][enter] > 0),
            key=lambda i: (tableau[i][-1] / tableau[i][enter], basis[i]),
        )
        fraction_pivot(tableau, leave, enter)
        basis[leave] = enter
    if tableau[-1][-1] != 0:
        return LpResult(status=INFEASIBLE, solution=None)
    values = [Fraction(0)] * total
    for row, b in zip(tableau, basis):
        values[b] = row[-1]
    return LpResult(status=OPTIMAL, solution=tuple(values[:n]))


_MOVE_PREFIX = {"inc": "I", "zero": "K", "dec": "D"}


def _faithful_move(program, state, counters):
    """The name of the encoded move the literal machine makes next, or None
    once it has stopped."""
    ins = program[state]
    if ins[0] == "stop":
        return None
    c = ins[1]
    if ins[0] == "inc":
        kind, target = "inc", ins[2]
    elif counters[c] == 0:
        kind, target = "zero", ins[2]
    else:
        kind, target = "dec", ins[3]
    return f"{_MOVE_PREFIX[kind]}[{state}->{target},{c}]", kind, c, target


def _norm(v):
    return sum((abs(x) for x in v), Fraction(0))


def replay_audit(g, states, program, adam_moves, eve_moves):
    """Replay an integer audit's transcript with the Fraction loops alone.

    Every move is multiplied into the vector (fraction_vec_mat) and into the
    running product (fraction_mat_mul), identity moves and the moves after
    the product is zero too.  Returns ``vectors``, the vector after each
    turn, ``final_product`` and ``annihilation_turn``, the first turn whose
    prefix product is 0."""
    from entropygames.linalg import Matrix

    adam, eve = dict(g.adam_matrices), dict(g.eve_matrices)
    v = tuple(g.start_vector)
    vectors = []
    omega = Matrix.identity(g.dimension)
    annihilation_turn = None
    for turn, (a, e) in enumerate(zip(adam_moves, eve_moves), 1):
        v = fraction_vec_mat(fraction_vec_mat(v, adam[a]), eve[e])
        vectors.append(v)
        omega = fraction_mat_mul(fraction_mat_mul(omega, adam[a]), eve[e])
        if annihilation_turn is None and all(x == 0 for row in omega.data for x in row):
            annihilation_turn = turn
    return SimpleNamespace(
        vectors=tuple(vectors), annihilation_turn=annihilation_turn, final_product=omega
    )


def _lie(program, state, counters, eve_names, faithful):
    """The move a cheating Eve plays instead of the machine's own move
    ``faithful``: the other branch of a zero test, otherwise the first move
    in encoder order that is not ``faithful``, or ``faithful`` when no other
    exists."""
    ins = program[state]
    if ins[0] == "jzdec":
        c = ins[1]
        if counters[c] == 0:
            return f"D[{state}->{ins[3]},{c}]"
        return f"K[{state}->{ins[2]},{c}]"
    return next((name for name in eve_names if name != faithful), faithful)


def _move_parts(name):
    """(prefix, source state, target state, counter) of an encoded move name
    such as I[q0->q1,x]."""
    body = name[2:-1]
    arrow, comma = body.index("->"), body.rindex(",")
    return name[0], body[:arrow], body[arrow + 2 : comma], body[comma + 1 :]


def replay_integer_audit(g, states, program, horizon, cheat_turn=None):
    """Play the integer audit with the Fraction loops and the literal
    machine alone, and return the fields of its ScriptedPlayReport that a
    transcript shows: the moves, ``vectors``, ``faithful_invariant_ok``,
    ``deviations``, ``flashes``, ``undetectable``, ``machine_halted_turn``,
    ``annihilation_turn`` and ``cheat_played``.

    The literal machine (``program``, starting at states[0]) gives Eve's
    move each turn; on ``cheat_turn`` she lies once (``_lie``) if it has a
    move, and once it has stopped she plays the first encoded move.  Eve's
    machine then follows the move she played, read from its name: it enters
    the move's target and increments, decrements or, on a zero move, negates
    the move's counter.  Adam plays Init on turn 1 and on the last turn of each
    punishment, which restarts the machine, and Id otherwise.  On a turn
    that ends with his script empty, before the vector is 0, he audits Eve:
    a move that is not the machine's own is a deviation.  He answers it
    with F on the first negative coordinate, A (-value - 1) times, then P
    and Init; with no negative coordinate he lists it as undetectable and
    plays on.  Every move is multiplied into the vector (fraction_vec_mat).

    ``annihilation_turn`` is the first turn that ends with v = 0.  That is
    the first turn whose product is 0 for ``encode_integer``'s matrices,
    whose Init is e_E^T s; a tampered encoding needs ``replay_audit``.
    ``faithful_invariant_ok`` checks each turn before the first deviation:
    v read by coordinate label is 1 on the machine's state, its counters on
    x and y, 1 on One and E, and 0 elsewhere.  ``machine_halted_turn`` is
    the first turn that ends with the machine stopped or on which Eve plays
    a stopped machine's forced move, on the cheat turn too, counting only
    turns on which the machine is on its own path: from the lie until the
    next Init it is off it."""
    adam, eve = dict(g.adam_matrices), dict(g.eve_matrices)
    eve_names = [name for name, _ in g.eve_matrices]
    labels = g.coordinate_labels
    v = tuple(g.start_vector)
    adam_moves, eve_moves, vectors = [], [], []
    deviations, flashes, undetectable, script = [], [], [], []
    state, counters = states[0], {"x": 0, "y": 0}
    invariant_ok = True
    halted_turn = annihilation_turn = None
    cheat_played = None if cheat_turn is None else False
    lied = False
    for turn in range(1, horizon + 1):
        a = "Init" if turn == 1 else script.pop(0) if script else "Id"
        v = fraction_vec_mat(v, adam[a])
        adam_moves.append(a)
        if a == "Init":
            state, counters, lied = states[0], {"x": 0, "y": 0}, False
        move = _faithful_move(program, state, counters)
        faithful = move[0] if move else None
        if halted_turn is None and faithful is None and not lied:
            halted_turn = turn
        e = faithful or eve_names[0]
        if turn == cheat_turn and faithful is not None:
            e = _lie(program, state, counters, eve_names, faithful)
            cheat_played = lied = e != faithful
        v = fraction_vec_mat(v, eve[e])
        eve_moves.append(e)
        prefix, _, state, c = _move_parts(e)
        counters[c] = {"I": counters[c] + 1, "D": counters[c] - 1, "K": -counters[c]}[prefix]
        if not script and annihilation_turn is None and e != faithful:
            deviations.append((turn, e, faithful))
            negative = next((i for i, x in enumerate(v) if x < 0), None)
            if negative is None:
                undetectable.append(turn)
            else:
                flashes.append((turn, labels[negative], v[negative]))
                script = [f"F[{labels[negative]}]"] + ["A"] * int(-v[negative] - 1) + ["P", "Init"]
        vectors.append(v)
        if annihilation_turn is None and not any(v):
            annihilation_turn = turn
        if invariant_ok and not deviations:
            want = {lab: 0 for lab in labels}
            want.update({state: 1, **counters, "One": 1, "E": 1})
            invariant_ok = dict(zip(labels, v)) == want
        if halted_turn is None and program[state][0] == "stop" and not lied:
            halted_turn = turn
    return dict(
        adam_moves=tuple(adam_moves),
        eve_moves=tuple(eve_moves),
        vectors=tuple(vectors),
        faithful_invariant_ok=invariant_ok,
        deviations=tuple(deviations),
        flashes=tuple(flashes),
        undetectable=tuple(undetectable),
        machine_halted_turn=halted_turn,
        annihilation_turn=annihilation_turn,
        cheat_played=cheat_played,
    )


def replay_nonneg_audit(g, states, program, horizon, cheat_turn=None):
    """Play the non-negative audit with the Fraction loops and the literal
    machine alone, and return the fields of its NonnegPunishmentReport.

    The literal machine (``program``, starting at states[0]) gives Eve's
    move each turn; on ``cheat_turn`` she lies once (``_lie``) if it has a
    move, and once it has stopped she plays the first encoded move.  Adam
    answers a move that is not the machine's own on the next turn, with
    P[q] when the machine has stopped or the move leaves another state and
    P[c] on the move's counter c otherwise; every other turn he plays Id.
    A reset restarts the machine, and the unit is then the start state's
    coordinate.  Every move is multiplied into the vector
    (fraction_vec_mat), identity moves too.

    ``segments`` lists (start, end, f, ratio, within bound) for each
    stretch that a reset closes, with the ratio of the vector's 1-norms
    across it and the bound 2^(f-1).  ``magnitude_ok`` checks faithful
    play the long way: on each turn where Eve makes the machine's own move,
    k such turns into a segment, the vector read by coordinate label must
    be the literal machine's configuration at scale unit * 2^k, with
    Fraction(2) ** k: the token on its state, 0 on every other state, and
    (unit * 2^(k+c), unit * 2^(k-c)) on each counter c's pair.
    ``halted_turn`` is the first turn that ends with the machine stopped.
    """
    adam, eve = dict(g.adam_matrices), dict(g.eve_matrices)
    eve_names = [name for name, _ in g.eve_matrices]
    index = {lab: i for i, lab in enumerate(g.coordinate_labels)}
    v = tuple(g.start_vector)
    start_norm = base = _norm(v)
    adam_moves, eve_moves, segments = [], [], []
    segment_start = 1
    state, counters, k, unit = states[0], {"x": 0, "y": 0}, 0, Fraction(1)
    magnitude_ok = True
    halted_turn = None
    a = "Id"
    for turn in range(1, horizon + 1):
        v = fraction_vec_mat(v, adam[a])
        adam_moves.append(a)
        if a != "Id":
            after = _norm(v)
            f = turn - segment_start + 1
            ratio = after / base if base else Fraction(0)
            segments.append((segment_start, turn, f, ratio, ratio <= Fraction(2) ** (f - 1)))
            segment_start, base = turn + 1, after
            state, counters, k = states[0], {"x": 0, "y": 0}, 0
            unit = v[index[states[0]]]
        move = _faithful_move(program, state, counters)
        faithful = move[0] if move else None
        e = faithful or eve_names[0]
        if turn == cheat_turn and faithful is not None:
            e = _lie(program, state, counters, eve_names, faithful)
        v = fraction_vec_mat(v, eve[e])
        eve_moves.append(e)
        a = "Id"
        if e != faithful:
            _, source, _, c = _move_parts(e)
            a = "P[q]" if faithful is None or source != state else f"P[{c}]"
        else:
            _, kind, c, state = move
            counters[c] += {"inc": 1, "zero": 0, "dec": -1}[kind]
            k += 1
            want = {q: 0 for q in states}
            want[state] = unit * Fraction(2) ** k
            for name in ("x", "y"):
                want[name + "+"] = unit * Fraction(2) ** (k + counters[name])
                want[name + "-"] = unit * Fraction(2) ** (k - counters[name])
            magnitude_ok &= dict(zip(g.coordinate_labels, v)) == want
        if halted_turn is None and program[state][0] == "stop":
            halted_turn = turn
    final_norm = _norm(v)
    growth = 0.0
    if final_norm:
        log_final = math.log(final_norm.numerator) - math.log(final_norm.denominator)
        log_start = math.log(start_norm.numerator) - math.log(start_norm.denominator)
        growth = math.exp((log_final - log_start) / horizon)
    return dict(
        turns=horizon,
        adam_moves=tuple(adam_moves),
        eve_moves=tuple(eve_moves),
        halted_turn=halted_turn,
        punished=any(name != "Id" for name in adam_moves),
        magnitude_ok=magnitude_ok,
        segments=tuple(segments),
        segment_bounds_ok=all(s[-1] for s in segments),
        aggregate_growth=growth,
        aggregate_below_two=final_norm < start_norm * 2**horizon,
        final_norm=final_norm,
    )


# perfbench.workloads.random_arena(random.Random(4118), 4, 2): the float
# guess skipped, find_saddle's exact loop comes back to a pair of Despot's
# member and Tribune's starting member, a true cycle, and the exact grid
# follows.  Its value is about 8.74.
_CYCLING_TRANSITIONS = (
    ("d0", "a0", "t0", 2), ("d0", "a0", "t1", 2), ("d0", "a0", "t2", 1),
    ("d0", "a1", "t2", 1), ("d1", "a0", "t0", 3), ("d1", "a0", "t1", 3),
    ("d1", "a1", "t1", 3), ("d1", "a1", "t2", 3), ("d1", "a1", "t3", 3),
    ("d2", "a0", "t0", 1), ("d2", "a0", "t1", 3), ("d2", "a0", "t3", 1),
    ("d2", "a1", "t0", 1), ("d3", "a0", "t2", 3), ("d3", "a0", "t3", 3),
    ("d3", "a1", "t3", 1), ("t0", "a0", "d3", 3), ("t0", "a1", "d1", 2),
    ("t0", "a1", "d3", 1), ("t1", "a0", "d0", 1), ("t1", "a1", "d3", 3),
    ("t2", "a0", "d0", 2), ("t2", "a1", "d1", 1), ("t2", "a1", "d3", 2),
    ("t3", "a0", "d1", 2), ("t3", "a1", "d2", 3),
)
# a disjoint pair d4 <-> t4 with weights 1 | 2 each way, whose radius of at
# most 4 is never critical: each side doubles to 32 members for the grid,
# while every block the loop scans keeps at most 16
_CYCLING_PADDING = (
    ("d4", "a0", "t4", 1), ("d4", "a1", "t4", 2), ("t4", "a0", "d4", 1), ("t4", "a1", "d4", 2),
)


def cycling_arena(padded: bool = False):
    """The 4 x 2 arena on which find_saddle's exact loop, started from the
    all-zero choice, cycles and falls to the grid; padded, the same game
    with the disjoint pair d4 <-> t4, so that a cap of 16 members refuses
    the grid and no block scan."""
    from entropygames.games import Arena

    n = 5 if padded else 4
    return Arena(
        tuple(f"d{i}" for i in range(n)),
        tuple(f"t{i}" for i in range(n)),
        ("a0", "a1"),
        _CYCLING_TRANSITIONS + (_CYCLING_PADDING if padded else ()),
    )
