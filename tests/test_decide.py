import dataclasses
import math
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _frozen as frozen
import oracle_helpers
from entropygames.decide import (
    Certificate,
    PositivityRequiredError,
    ValueInterval,
    _climb,
    _deviation,
    _refute,
    _row_switch,
    _switched,
    _valuation,
    decide_jsr_le,
    decide_jsr_lt,
    decide_jssr_ge,
    decide_jssr_gt,
    decide_mm_ge,
    decide_mm_le,
    decide_mm_lt,
    find_saddle,
    jsr_jssr,
    value_bisection,
    verify_certificate,
    verify_saddle,
)
from entropygames import io
from entropygames.games import Arena, MpgArena, arena_to_iru, mpg_to_weighted_eg
from entropygames.iru import (
    EnumerationCapError,
    enumerate_members,
    iru_set,
    right_product,
)
from entropygames.linalg import (
    DEFAULT_RADIUS_TOL,
    Matrix,
    _resolvent,
    block_radius_bounds,
    mat_mul,
    spectral_radius,
    support_blocks,
)
from entropygames.lp import lp_max
from entropygames.realroots import cached_bounds, compare_radii, compare_radius_with_rational

A_SET = iru_set(frozen.FIG1_A_ROW_SETS)
E_SET = iru_set(frozen.FIG1_E_ROW_SETS)


def test_jsr_lt_around_exact_radius():
    # the joint spectral radius of the despot set is exactly 2
    ok, cert = decide_jsr_lt(A_SET, Fraction(21, 10))
    assert ok and cert.kind == "jsr_lt"
    assert verify_certificate(cert, A_SET, alpha=Fraction(21, 10))
    ok_at, cert_at = decide_jsr_lt(A_SET, 2)
    assert not ok_at and cert_at is None
    ok_below, _ = decide_jsr_lt(A_SET, Fraction(19, 10))
    assert not ok_below


def test_jssr_ge_around_exact_subradius():
    # the joint spectral subradius is exactly 1; the non-strict query holds
    # with equality
    ok, cert = decide_jssr_ge(A_SET, 1)
    assert ok and cert.kind == "jssr_ge"
    assert verify_certificate(cert, A_SET, alpha=1)
    ok_above, cert_above = decide_jssr_ge(A_SET, Fraction(11, 10))
    assert not ok_above and cert_above is None


def test_positive_set_nonstrict_queries():
    s = iru_set([[(2,), (3,)]])
    ok, cert = decide_jsr_le(s, 3)
    assert ok and verify_certificate(cert, s, alpha=3)
    ok2, _ = decide_jsr_le(s, Fraction(29, 10))
    assert not ok2
    ok3, cert3 = decide_jssr_gt(s, Fraction(19, 10))
    assert ok3 and verify_certificate(cert3, s, alpha=Fraction(19, 10))
    ok4, _ = decide_jssr_gt(s, 2)
    assert not ok4


def test_nonstrict_queries_demand_positivity():
    with pytest.raises(PositivityRequiredError):
        decide_jsr_le(A_SET, 3)
    with pytest.raises(PositivityRequiredError):
        decide_jssr_gt(A_SET, Fraction(1, 2))
    with pytest.raises(PositivityRequiredError):
        decide_mm_le(A_SET, E_SET, 4)


def test_nonsquare_rejected():
    s = iru_set([[(1, 0)], [(0, 1)], [(1, 1)]])
    with pytest.raises(ValueError):
        decide_jsr_lt(s, 1)


def test_mm_thresholds_bracket_running_value():
    # the game value is (3 + sqrt(17)) / 2 = 3.5615...
    ok_ge, cert_ge = decide_mm_ge(A_SET, E_SET, Fraction(356, 100))
    assert ok_ge
    assert cert_ge.kind == "mm_ge" and cert_ge.chosen_matrix is not None
    assert E_SET.contains_matrix(cert_ge.chosen_matrix)
    assert verify_certificate(cert_ge, A_SET, E_SET, alpha=Fraction(356, 100))

    ok_lt, cert_lt = decide_mm_lt(A_SET, E_SET, Fraction(357, 100))
    assert ok_lt
    assert cert_lt.kind == "mm_lt" and cert_lt.chosen_matrix is not None
    assert A_SET.contains_matrix(cert_lt.chosen_matrix)
    assert verify_certificate(cert_lt, A_SET, E_SET, alpha=Fraction(357, 100))


def test_mm_lt_ge_complementary():
    for alpha in (1, 3, Fraction(356, 100), Fraction(357, 100), 4, 10):
        below, _ = decide_mm_lt(A_SET, E_SET, alpha)
        above, _ = decide_mm_ge(A_SET, E_SET, alpha)
        assert below != above


def test_verification_is_threshold_sensitive():
    ok, cert = decide_jsr_lt(A_SET, Fraction(21, 10))
    assert ok
    # the same vector cannot certify a bound at the exact radius
    assert not verify_certificate(cert, A_SET, alpha=2)


def test_verification_rejects_tampering():
    ok, cert = decide_mm_lt(A_SET, E_SET, Fraction(357, 100))
    assert ok and verify_certificate(cert, A_SET, E_SET, alpha=Fraction(357, 100))
    # swapping the committed matrix for a non-member must fail
    fake = Matrix(((9, 9, 9),) * 3)
    forged = Certificate(cert.kind, cert.vector, chosen_matrix=fake)
    assert not verify_certificate(forged, A_SET, E_SET, alpha=Fraction(357, 100))
    # dropping below the floor v >= 1 must fail too
    low = Certificate("jsr_lt", tuple(Fraction(1, 2) for _ in range(3)))
    assert not verify_certificate(low, A_SET, alpha=10)


def test_verification_structural_errors():
    ok, cert = decide_jsr_lt(A_SET, Fraction(21, 10))
    with pytest.raises(ValueError):
        verify_certificate(cert, A_SET)  # missing threshold
    ok2, cert2 = decide_mm_lt(A_SET, E_SET, 4)
    with pytest.raises(ValueError):
        verify_certificate(cert2, A_SET, alpha=4)  # missing second set
    with pytest.raises(ValueError):
        Certificate("no_such_kind", (1, 1))


def test_norm_bound_running():
    assert oracle_helpers.norm_bound(A_SET, E_SET) == frozen.BISECTION_NORM_BOUND


def _grid_step(tol):
    """2^-k for the least integer k with 2^-k <= tol."""
    step = Fraction(1)
    while step * 2 <= tol:
        step *= 2
    while step > tol:
        step /= 2
    return step


def _saddle_product(interval):
    return mat_mul(interval.saddle.despot_matrix, interval.saddle.tribune_matrix)


def _assert_bracket(interval, a_set, e_set, tol):
    """value_bisection's contract: lower <= rho < upper exactly for the
    saddle product, width at most tol, both ends on the grid of step 2^-k
    for the least k with 2^-k <= tol, and both certificates verifying
    against the full sets."""
    product = _saddle_product(interval)
    assert compare_radius_with_rational(product, interval.lower) >= 0
    assert compare_radius_with_rational(product, interval.upper) < 0
    assert interval.width() <= tol
    step = _grid_step(tol)
    assert (interval.lower / step).denominator == 1
    assert (interval.upper / step).denominator == 1
    assert verify_certificate(
        interval.lower_certificate, a_set, e_set, alpha=interval.lower
    )
    assert verify_certificate(
        interval.upper_certificate, a_set, e_set, alpha=interval.upper
    )


def test_value_bisection_running():
    interval = value_bisection(A_SET, E_SET, Fraction(1, 100))
    _assert_bracket(interval, A_SET, E_SET, Fraction(1, 100))
    assert interval.lower <= Fraction(frozen.RUNNING_VALUE) < interval.upper
    # the saddle's enclosure is far narrower than the grid step of 1/128, so
    # it meets at most one grid point and at most one halving is left
    assert interval.bisections <= 1
    assert abs(float(interval.midpoint()) - frozen.RUNNING_VALUE) < Fraction(1, 100)


def test_value_bisection_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        value_bisection(A_SET, E_SET, 0)


def _assert_matches_member_scan(a_set, e_set, tol):
    """value_bisection against the LP-only member-scan route: the bracket
    contract, and a member-scan bracket that contains the saddle product's
    radius too."""
    interval = value_bisection(a_set, e_set, tol)
    _assert_bracket(interval, a_set, e_set, tol)
    lower, upper, _, _, _ = oracle_helpers.member_scan_bisection(a_set, e_set, tol)
    product = _saddle_product(interval)
    assert compare_radius_with_rational(product, lower) >= 0
    assert compare_radius_with_rational(product, upper) < 0
    # the certificates commit to the saddle's strategies
    assert interval.lower_certificate.chosen_matrix == interval.saddle.tribune_matrix
    assert interval.upper_certificate.chosen_matrix == interval.saddle.despot_matrix
    return interval


@pytest.mark.parametrize(
    "a_rows, e_rows, value",
    [
        # value 6 lies on the grid of step 1/64: it comes back as lower
        ([[(2,), (5,)]], [[(1,), (3,)]], 6),
        # nilpotent products: zero radius, and lower stays at 0
        ([[(0, 1), (0, 2)], [(0, 0)]], [[(1, 0), (1, 1)], [(0, 1)]], 0),
        # reducible diagonal products, two members tied at 4; value 3 on the
        # grid
        ([[(1, 0), (2, 0)], [(0, 1)]], [[(2, 0)], [(0, 2), (0, 3)]], 3),
    ],
)
def test_value_bisection_hard_cases(a_rows, e_rows, value):
    interval = _assert_matches_member_scan(
        iru_set(a_rows), iru_set(e_rows), Fraction(1, 64)
    )
    assert interval.lower == value < interval.upper


def _generated_pair(rng, kinds=("random", "sparse", "zero", "diagonal")):
    """A random n x m and m x n pair of IruSets (n, m <= 3) of one kind:
    random entries, 0/1 entries, nilpotent products, diagonal members, one
    row set shared by every row index, despot rows whose products coincide,
    or random entries with n != m.  Returns (kind, a_set, e_set)."""
    kind = rng.choice(kinds)
    n = rng.randint(1, 3)
    if kind in ("zero", "diagonal"):
        m = n
    elif kind == "rectangular":
        m = rng.choice([k for k in (1, 2, 3) if k != n])
    else:
        m = rng.randint(1, 3)

    def row_sets(rows, cols, make_row):
        return iru_set(
            [[make_row(i, cols) for _ in range(rng.randint(1, 2))] for i in range(rows)]
        )

    if kind in ("random", "rectangular"):
        def make(i, cols):
            return tuple(rng.randint(0, 3) for _ in range(cols))
        a_set, e_set = row_sets(n, m, make), row_sets(m, n, make)
    elif kind == "duplicate":
        # despot rows that differ only in column 0, against tribune members
        # whose row 0 is zero: distinct rows with identical product rows
        def pair(cols):
            row = [rng.randint(0, 3) for _ in range(cols)]
            return [tuple(row), tuple([row[0] + 1] + row[1:])]
        a_set = iru_set([pair(m) for _ in range(n)])
        e_set = iru_set(
            [[(0,) * n]]
            + [
                [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 2))]
                for _ in range(m - 1)
            ]
        )
    elif kind == "sparse":
        # 0/1 entries: reducible products, ties and identical rows
        def make(i, cols):
            return tuple(rng.randint(0, 1) for _ in range(cols))
        a_set, e_set = row_sets(n, m, make), row_sets(m, n, make)
    elif kind == "zero":
        # strictly upper triangular times upper triangular is nilpotent
        a_set = row_sets(n, n, lambda i, cols: tuple(
            rng.randint(0, 2) if j > i else 0 for j in range(cols)))
        e_set = row_sets(n, n, lambda i, cols: tuple(
            rng.randint(0, 2) if j >= i else 0 for j in range(cols)))
    elif kind == "diagonal":
        # diagonal members: an integer value, often on the bisection grid
        def make(i, cols):
            return tuple(rng.randint(1, 4) if j == i else 0 for j in range(cols))
        a_set, e_set = row_sets(n, n, make), row_sets(n, n, make)
    else:
        # identical rows across row indices, and members with tied radii
        def shared(rows, cols):
            pool = [tuple(rng.randint(0, 2) for _ in range(cols)) for _ in range(2)]
            return iru_set([pool] * rows)
        a_set, e_set = shared(n, m), shared(m, n)
    return kind, a_set, e_set


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_value_bisection_matches_member_scan(rng):
    kind, a_set, e_set = _generated_pair(rng)
    interval = _assert_matches_member_scan(a_set, e_set, Fraction(1, 16))
    if kind == "zero":
        assert interval.lower == 0


def _mpg_pair(despot, tribune, edges):
    """The IruSet pair of a mean payoff game: a weight-w edge becomes a
    multiplicity 2^w, and the value is 2^(mean payoff)."""
    tr = arena_to_iru(mpg_to_weighted_eg(MpgArena(despot, tribune, edges)))
    return tr.a_set, tr.e_set


def _random_mpg_pair(rng):
    """A random mean payoff game with 1-2 states a side, 1-2 edges from each
    state and weights 0-3, as an IruSet pair."""
    despot = tuple(f"d{i}" for i in range(rng.randint(1, 2)))
    tribune = tuple(f"t{i}" for i in range(rng.randint(1, 2)))
    edges = tuple(
        (frm, rng.choice(targets), rng.randint(0, 3))
        for states, targets in ((despot, tribune), (tribune, despot))
        for frm in states
        for _ in range(rng.randint(1, 2))
    )
    return _mpg_pair(despot, tribune, edges)


def _assert_matches_norm_bound_route(a_set, e_set, tol):
    """value_bisection against Sturm bisection from [0, floor(norm_bound) +
    1): both brackets contain the saddle product's radius, and an integer
    radius on the grid comes back exactly as lower."""
    interval = value_bisection(a_set, e_set, tol)
    _assert_bracket(interval, a_set, e_set, tol)
    lower, upper, _ = oracle_helpers.norm_bound_bracket(a_set, e_set, tol)
    product = _saddle_product(interval)
    assert compare_radius_with_rational(product, lower) >= 0
    assert compare_radius_with_rational(product, upper) < 0
    nearest = round(interval.midpoint())
    if compare_radius_with_rational(product, nearest) == 0:
        if (nearest / _grid_step(tol)).denominator == 1:
            assert interval.lower == nearest
    return interval


@pytest.mark.parametrize(
    "a_set, e_set, value",
    [
        # mean payoff games with weights 1 + 0 and 1 + 2 per turn: values
        # 2^1 and 2^3, with a tie and dominated edges in the second
        (*_mpg_pair(("d",), ("t",), (("d", "t", 1), ("t", "d", 0))), 2),
        (
            *_mpg_pair(
                ("d",), ("t",), (("d", "t", 1), ("d", "t", 3), ("t", "d", 2), ("t", "d", 0))
            ),
            8,
        ),
        # nilpotent products: zero radius
        (iru_set([[(0, 1), (0, 2)], [(0, 0)]]), iru_set([[(1, 0), (1, 1)], [(0, 1)]]), 0),
        # reducible diagonal saddle product, Tribune's members tied at 4
        (iru_set([[(1, 0), (2, 0)], [(0, 1)]]), iru_set([[(2, 0)], [(0, 2), (0, 3)]]), 3),
        # despot rows (0, 1) and (1, 1) give identical product rows against
        # Tribune's zero row 0
        (iru_set([[(0, 1), (1, 1)], [(1, 0)]]), iru_set([[(0, 0)], [(1, 2), (2, 1)]]), None),
    ],
)
@pytest.mark.parametrize("tol", [Fraction(1, 1000), Fraction(1, 2 * 10**6)])
def test_value_bracket_hard_cases_match_norm_bound_route(a_set, e_set, value, tol):
    interval = _assert_matches_norm_bound_route(a_set, e_set, tol)
    if value is not None:
        assert interval.lower == value < interval.upper


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_value_bracket_matches_norm_bound_route(rng):
    if rng.random() < 0.25:
        kind, (a_set, e_set) = "mpg", _random_mpg_pair(rng)
    else:
        kind, a_set, e_set = _generated_pair(
            rng, ("random", "sparse", "zero", "diagonal", "shared", "duplicate", "rectangular")
        )
    tol = rng.choice([Fraction(1, 16), Fraction(1, 1000), Fraction(1, 2 * 10**6), Fraction(3)])
    interval = _assert_matches_norm_bound_route(a_set, e_set, tol)
    if kind == "zero":
        assert interval.lower == 0
    if kind == "diagonal":
        # a diagonal saddle product: its radius is its largest entry
        product = _saddle_product(interval)
        value = max(product.data[i][i] for i in range(product.rows))
        assert interval.lower <= value < interval.upper
        if (value / _grid_step(tol)).denominator == 1:
            assert interval.lower == value


def _with_radius(monkeypatch, lower, upper):
    """Make value_bisection see the saddle with its radius enclosure
    replaced by [lower(r), upper(r)], for r the real enclosure."""
    from entropygames import decide

    real = decide.find_saddle

    def patched(a_set, e_set):
        sp = real(a_set, e_set)
        radius = dataclasses.replace(
            sp.radius, lower=lower(sp.radius), upper=upper(sp.radius), converged=False
        )
        return dataclasses.replace(sp, radius=radius)

    monkeypatch.setattr(decide, "find_saddle", patched)


@pytest.mark.parametrize(
    "a_set, e_set",
    [
        (A_SET, E_SET),
        _mpg_pair(("d",), ("t",), (("d", "t", 1), ("t", "d", 2))),
    ],
)
def test_value_bisection_halves_a_wide_enclosure(monkeypatch, a_set, e_set):
    # a valid enclosure 8 wide, as an unconverged one may be: the halving
    # loop runs down to the grid step and the contract still holds
    _with_radius(monkeypatch, lambda r: max(Fraction(0), r.lower - 3), lambda r: r.upper + 5)
    tol = Fraction(1, 1000)
    interval = _assert_matches_norm_bound_route(a_set, e_set, tol)
    assert interval.bisections >= 13
    assert interval.width() == _grid_step(tol)


def test_value_bisection_rejects_an_enclosure_that_misses_the_value(monkeypatch):
    # an enclosure above the value, and one below it: the exact check before
    # the first halving raises instead of returning a bracket without it
    _with_radius(monkeypatch, lambda r: r.upper + 1, lambda r: r.upper + 2)
    with pytest.raises(ValueError, match="lower <= rho < upper"):
        value_bisection(A_SET, E_SET, Fraction(1, 100))
    _with_radius(monkeypatch, lambda r: Fraction(0), lambda r: Fraction(0))
    with pytest.raises(ValueError, match="lower <= rho < upper"):
        value_bisection(A_SET, E_SET, Fraction(1, 100))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_saddle_search_matches_sturm_only_oracle(rng):
    kind, a_set, e_set = _generated_pair(
        rng, ("random", "sparse", "zero", "diagonal", "shared")
    )
    sp = find_saddle(a_set, e_set)
    assert oracle_helpers.sturm_saddle_check(
        a_set, e_set, sp.despot_matrix, sp.tribune_matrix
    )
    # verify_saddle on the found pair and on random pairs of the grid, saddles
    # or not, agrees with the oracle
    a_members = list(enumerate_members(a_set))
    e_members = list(enumerate_members(e_set))
    pairs = [(sp.despot_matrix, sp.tribune_matrix)] + [
        (rng.choice(a_members), rng.choice(e_members)) for _ in range(4)
    ]
    for a0, e0 in pairs:
        assert verify_saddle(a_set, e_set, a0, e0) == oracle_helpers.sturm_saddle_check(
            a_set, e_set, a0, e0
        )
    # extremes of square sets: the tribune's induced product set, and a_set
    # itself when it is square
    squares = [right_product(a_set, sp.tribune_matrix)]
    if a_set.is_square:
        squares.append(a_set)
    for s in squares:
        _assert_extremes_match_sturm(s)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_find_saddle_matches_grid_oracle(rng):
    kind, a_set, e_set = _generated_pair(
        rng, ("random", "sparse", "zero", "diagonal", "shared", "duplicate", "rectangular")
    )
    sp = find_saddle(a_set, e_set)
    assert oracle_helpers.sturm_saddle_check(
        a_set, e_set, sp.despot_matrix, sp.tribune_matrix
    )
    # several saddles may exist, but they all share the value
    a1, e1 = oracle_helpers.grid_saddle(a_set, e_set)
    centre = mat_mul(sp.despot_matrix, sp.tribune_matrix)
    assert compare_radii(centre, mat_mul(a1, e1)) == 0
    a_members = list(enumerate_members(a_set))
    e_members = list(enumerate_members(e_set))
    for _ in range(4):
        a0, e0 = rng.choice(a_members), rng.choice(e_members)
        assert verify_saddle(a_set, e_set, a0, e0) == oracle_helpers.sturm_saddle_check(
            a_set, e_set, a0, e0
        )


_SIDE_KINDS = (
    "aligned", "nonaligned", "critical", "class", "zero", "rational", "tied", "identical",
    "mpg", "rectangular",
)


def _relabel(rng, cands, picks):
    """The candidate rows and own picks of a side under one random
    permutation of its rows and columns."""
    n = len(cands)
    perm = rng.sample(range(n), n)
    cands = [
        [[r[perm.index(j)] for j in range(n)] for r in cands[perm.index(i)]] for i in range(n)
    ]
    return cands, [picks[perm.index(i)] for i in range(n)]


def _class_rows(rng, n):
    """The candidate rows of a "class" side, each row set's own row first:
    one block of n >= 2 rows whose own rows make a reducible centre.

    The own rows of a class K, the first rows, are positive on K's columns
    and zero elsewhere; the other own rows feed K only.  Each K-row has one
    or two more candidates: its own row raised on K's columns, or half the
    time redrawn there, with random entries outside K; together they reach
    every row outside K.  So against the identity the union support is one
    non-aligned block whose critical class is K, and a member whose K-rows
    are all raised keeps rho(own) or more, which makes many draws exact
    ties on Despot's side."""
    size = rng.randint(1, n - 1)
    own = [[rng.randint(1, 2) if j < size else 0 for j in range(n)] for _ in range(size)]
    for _ in range(size, n):
        row = [rng.randint(0, 2) for _ in range(size)] + [0] * (n - size)
        row[rng.randrange(size)] = rng.randint(1, 2)
        own.append(row)
    cands = []
    for i, row in enumerate(own):
        more = []
        for _ in range(rng.randint(1, 2)):
            if i >= size:
                more.append([rng.randint(0, 2) for _ in range(n)])
            elif rng.random() < 0.5:
                more.append([x + rng.randint(0, 1) for x in row[:size]])
            else:
                more.append([rng.randint(0, 2) for _ in range(size)])
            if i < size:
                more[-1] += [rng.choice((0, 0, 1)) for _ in range(n - size)]
        cands.append([row] + more)
    for j in range(size, n):
        reaching = cands[rng.randrange(size)][-1]
        reaching[j] = reaching[j] or rng.randint(1, 2)
    return cands


def _side(rng):
    """A random side of the saddle check with n <= 5 rows: (kind, s, own,
    other).

    Rows are laid out in consecutive blocks and then relabelled by a random
    permutation.  A row's entries inside its block follow the kind, its
    entries into earlier blocks are random and later blocks get none, so
    against the identity the union support keeps those blocks or merges
    them.  Kinds: positive blocks (aligned); a diagonal own row against
    rows with one off-diagonal entry (non-aligned); a second block that
    copies the first (two critical blocks); a zero own block (zero radius);
    diagonal and lower triangular blocks (rational radii); 0/1 entries
    (tied members); one pool of rows for every row set (identical rows);
    one entry 2^w per row (MPG-shaped); random rows of another length;
    and a non-aligned block whose critical class copies or raises its own
    rows (``_class_rows``: class), against the identity.  ``other`` is
    otherwise the identity half of the time, else random."""
    kind = rng.choice(_SIDE_KINDS)
    n = rng.randint(2 if kind in ("critical", "class") else 1, 5)
    most = 3 if n <= 3 else 2
    counts = [rng.randint(2 if kind == "nonaligned" else 1, most) for _ in range(n)]
    picks = [rng.randrange(c) for c in counts]
    if kind == "rectangular":
        m = rng.randint(1, 5)
        cands = [[[rng.choice((0, 0, 1, 3)) for _ in range(m)] for _ in range(c)] for c in counts]
        other = Matrix(tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(m)))
    elif kind == "identical":
        pool = [[rng.randint(0, 2) for _ in range(n)] for _ in range(2)]
        counts, picks = [2] * n, [rng.randrange(2) for _ in range(n)]
        cands = [pool] * n
        other = Matrix.identity(n)
    elif kind == "class":
        cands, picks = _relabel(rng, _class_rows(rng, n), [0] * n)
        other = Matrix.identity(n)
    else:
        sizes = [rng.randint(1, n // 2)] * 2 if kind == "critical" else []
        while sum(sizes) < n:
            sizes.append(rng.randint(1, min(3, n - sum(sizes))))
        starts = [sum(sizes[:b]) for b in range(len(sizes))]
        block = [(start, start + size) for start, size in zip(starts, sizes) for _ in range(size)]

        def inside(i, j, own):
            if kind == "aligned":
                return rng.randint(1, 3)
            if kind == "nonaligned":
                return rng.randint(1, 2) if i == j else 0
            if kind == "zero":
                return 0 if own else rng.randint(0, 1)
            if kind == "rational":
                return rng.randint(0, 4) if i == j else rng.randint(0, 2) if j < i else 0
            return rng.randint(0, 1) if kind == "tied" else rng.randint(0, 3)

        def row(i, own):
            lo, hi = block[i]
            out = [rng.choice((0, 0, 1, 2)) for _ in range(lo)] + [0] * (n - lo)
            if kind == "mpg":
                out = [0] * n
                out[rng.randrange(hi)] = 2 ** rng.randint(0, 3)
            elif kind == "nonaligned" and not own:
                out[rng.randrange(lo, hi)] = rng.randint(1, 5)
            else:
                out[lo:hi] = [inside(i, j, own) for j in range(lo, hi)]
            return out

        cands = [[row(i, c == picks[i]) for c in range(counts[i])] for i in range(n)]
        if kind == "critical":
            # the second block repeats the first's rows inside its columns
            size = sizes[0]
            for i in range(size):
                counts[size + i], picks[size + i] = counts[i], picks[i]
                cands[size + i] = [
                    row(size + i, False)[:size] + r[:size] + [0] * (n - 2 * size)
                    for r in cands[i]
                ]
        cands, picks = _relabel(rng, cands, picks)
        other = Matrix.identity(n) if rng.random() < 0.5 else Matrix(
            tuple(tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(n))
        )
    s = iru_set(cands)
    own = Matrix(tuple(tuple(c[k]) for c, k in zip(cands, picks)))
    return kind, s, own, other


def _assert_refute_matches_member_scan(s, own, other, sign):
    found = _refute(s, own, other, sign, {}, "this side")
    expected = oracle_helpers.member_scan_refute(s, own, other, sign)
    assert (found is None) == (expected is None)
    if found is not None:
        assert s.contains_matrix(found)
        assert sign * compare_radii(mat_mul(found, other), mat_mul(own, other)) > 0
    return found


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_block_split_matches_member_scan(rng):
    kind, s, own, other = _side(rng)
    for sign in (1, -1):
        _assert_refute_matches_member_scan(s, own, other, sign)


_ROOT_2 = Matrix(((0, 1), (2, 0)))
# a rational just below sqrt(2), inside the enclosure of _ROOT_2's radius
_NEAR_ROOT_2 = block_radius_bounds(_ROOT_2)[0]


@pytest.mark.parametrize(
    "rows, own, sign, refuted",
    [
        # one non-aligned block: no single swap of I raises rho, both do
        ([[(1, 0), (0, 5)], [(0, 1), (5, 0)]], [(1, 0), (0, 1)], 1, True),
        # two critical blocks, each lowered: only both together lower rho
        ([[(1, 0), (Fraction(1, 2), 0)], [(0, 1), (0, Fraction(1, 2))]], [(1, 0), (0, 1)], -1,
         True),
        # two critical blocks, one of them fixed
        ([[(1, 0), (Fraction(1, 2), 0)], [(0, 1)]], [(1, 0), (0, 1)], -1, False),
        # the non-critical block of radius 1 rises to 3, above 2
        ([[(1, 0), (3, 0)], [(0, 2)]], [(1, 0), (0, 2)], 1, True),
        # each swap of the non-critical block raises it from 2 to 1 + sqrt(6),
        # short of 5; both swaps together give 7
        (
            [[(1, 1, 0), (1, 6, 0)], [(1, 1, 0), (6, 1, 0)], [(0, 0, 5)]],
            [(1, 1, 0), (1, 1, 0), (0, 0, 5)],
            1,
            True,
        ),
        # the block of radius _NEAR_ROOT_2 is not critical, though its
        # enclosure lies inside that of the critical block's sqrt(2)
        (
            [[(_NEAR_ROOT_2, 0, 0)], [(0, 0, 1), (0, 0, Fraction(1, 2))], [(0, 2, 0)]],
            [(_NEAR_ROOT_2, 0, 0), (0, 0, 1), (0, 2, 0)],
            -1,
            True,
        ),
        # two critical blocks tied at sqrt(2), each lowered
        (
            [[(0, 1, 0, 0), (0, Fraction(1, 2), 0, 0)], [(2, 0, 0, 0)],
             [(0, 0, 0, 1), (0, 0, 0, Fraction(1, 2))], [(0, 0, 2, 0)]],
            [(0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 0, 1), (0, 0, 2, 0)],
            -1,
            True,
        ),
    ],
)
def test_block_split_hard_cases(rows, own, sign, refuted):
    lo, hi, _, _ = block_radius_bounds(_ROOT_2)
    assert lo == _NEAR_ROOT_2 < hi
    s, own = iru_set(rows), Matrix(tuple(own))
    other = Matrix.identity(own.rows)
    found = _assert_refute_matches_member_scan(s, own, other, sign)
    assert (found is not None) == refuted


# the block of Despot's side that saddle-grid's 3 x 2 arena 8 scans, drawn
# with random.Random("saddle-grid:3x2:8"): its centre has radius 16, that of
# the critical class of its first and third rows
_SADDLE_GRID_BLOCK = [[(1, 0, 3), (2, 4, 12)], [(3, 0, 9)], [(5, 0, 15), (3, 4, 15)]]


@pytest.mark.parametrize(
    "rows, own, scans, refuted",
    [
        # the critical class {0} has radius 2, and its row's other candidate
        # only raises it: no member lies below 2, with no member compared
        ([[(2, 1), (3, 0)], [(0, 1), (1, 0)]], [(2, 1), (0, 1)], 0, False),
        # (1, 0) lowers the class, so the block's members are compared, and
        # ((1, 0), (0, 1)) has radius 1
        ([[(2, 1), (1, 0)], [(0, 1), (1, 1)]], [(2, 1), (0, 1)], 1, True),
        # (3, 4, 15) lowers the class, but the entry 4 into the second row
        # keeps every member that takes it at radius 16 or more
        (_SADDLE_GRID_BLOCK, [(1, 0, 3), (3, 0, 9), (5, 0, 15)], 1, False),
        # two copies of ((1, 1), (1, 0)) joined by an edge: both classes
        # have radius (1 + sqrt 5) / 2, so the record names no class and
        # certifies nothing; the member lowering both classes to 1 is found
        (
            [[(1, 1, 0, 0), (0, 1, 0, 0)], [(1, 0, 1, 0)], [(0, 0, 1, 1), (0, 0, 0, 1)],
             [(0, 0, 1, 0), (1, 0, 1, 0)]],
            [(1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 0)],
            1,
            True,
        ),
    ],
)
def test_class_certificate_settles_despot_ties(monkeypatch, rows, own, scans, refuted):
    from entropygames import decide

    calls = []
    real = decide._block_member

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(decide, "_block_member", counted)
    s, own = iru_set(rows), Matrix(tuple(own))
    assert len(support_blocks(own.data)) > 1  # a reducible centre
    found = _assert_refute_matches_member_scan(s, own, Matrix.identity(own.rows), -1)
    assert (found is not None) == refuted
    assert len(calls) == scans


def test_aligned_blocks_enumerate_no_member(monkeypatch):
    from entropygames import decide

    calls = []

    def counted(s, stage=None):
        calls.append(stage)
        return enumerate_members(s, stage)

    monkeypatch.setattr(decide, "enumerate_members", counted)
    # single-node blocks on Despot's side, with critical and non-critical
    # blocks and a non-critical block that rises above the centre
    one = iru_set([[(1, 0)], [(0, 1)]])
    identity = Matrix(((1, 0), (0, 1)))
    assert verify_saddle(iru_set([[(1, 0), (2, 0)], [(0, 1), (0, 3)]]), one, identity, identity)
    diag = Matrix(((1, 0), (0, 2)))
    raised = _refute(iru_set([[(1, 0), (3, 0)], [(0, 2)]]), diag, identity, 1, {}, "side")
    assert raised == Matrix(((3, 0), (0, 2)))
    # two irreducible 2 x 2 blocks tied at sqrt(2), one feeding the other
    rows = [[(0, 1, 0, 0), (0, 3, 0, 0)], [(2, 0, 0, 0)], [(1, 0, 0, 1)], [(0, 1, 2, 0)]]
    own = Matrix(tuple(rs[0] for rs in rows))
    for sign in (1, -1):
        _assert_refute_matches_member_scan(iru_set(rows), own, Matrix.identity(4), sign)
    assert calls == []
    # the non-aligned block enumerates its own four members
    flip = iru_set([[(1, 0), (0, 5)], [(0, 1), (5, 0)]])
    _refute(flip, identity, identity, 1, {}, "Tribune's side")
    assert calls == ["reducible centre on Tribune's side"]


_SWITCH_KINDS = (
    "integer", "fractional", "single", "rank_one", "row_sum", "lost", "huge", "steep",
    "unconverged",
)


def _cycle_matrix(rng, n, entry, cycle_entry):
    """An n x n matrix of entry() values with a Hamiltonian cycle of
    cycle_entry() values, so irreducible."""
    rows = [[entry() for _ in range(n)] for _ in range(n)]
    order = rng.sample(range(n), n)
    for k in range(n):
        rows[order[k]][order[(k + 1) % n]] = cycle_entry()
    return rows


def _composition(rng, total, n):
    """n non-negative integers summing to total."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _switch_case(rng):
    """A random irreducible block centre C with single-row deviations:
    (kind, C, deviations, ties), where deviations are (position, row) pairs
    whose row differs from C's and ties are those known to keep rho(C).

    Kinds: integer rows; fractional rows over different denominators; 1 x 1
    centres; rank-one centres x y^T (Perron vector x) and equal-row-sum
    centres (Perron vector 1), with rows r that tie, r . v = rho v_i; rows
    that keep only their diagonal entry, so C' is reducible; entries near
    2^600; a steep cycle whose witness entries are floored at the grid step;
    and integer centres whose kernel the test cuts after one iteration."""
    kind = rng.choice(_SWITCH_KINDS)
    n = 1 if kind == "single" else rng.randint(2, {"huge": 2, "steep": 3}.get(kind, 4))
    small = lambda: rng.choice((0, 0, 1, 2, 3, 5))  # noqa: E731
    ties = []
    if kind == "single":
        values = (0, 1, 3, Fraction(5, 2), Fraction(17, 7))
        rows = [[rng.choice(values)]]
        candidates = [[[x] for x in values]]
    elif kind == "fractional":
        frac = lambda lo: Fraction(rng.randint(lo, 9), rng.randint(1, 7))  # noqa: E731
        rows = _cycle_matrix(rng, n, lambda: frac(0), lambda: frac(1))
        candidates = [[[frac(0) for _ in range(n)] for _ in range(3)] for _ in range(n)]
    elif kind == "rank_one":
        x = [rng.randint(1, 4) for _ in range(n)]
        y = [rng.randint(1, 4) for _ in range(n)]
        rho = sum(a * b for a, b in zip(x, y))
        rows = [[a * b for b in y] for a in x]
        candidates = []
        for i in range(n):
            # single-entry ties rho x_i / x_j e_j, and a mean of two of them
            tie = [[Fraction(rho * x[i], x[j]) if k == j else 0 for k in range(n)]
                   for j in range(n)]
            j, k = rng.randrange(n), rng.randrange(n)
            tie.append([(a + b) / 2 for a, b in zip(tie[j], tie[k])])
            ties += [(i, tuple(map(Fraction, r))) for r in tie]
            bumped = list(rows[i])
            bumped[rng.randrange(n)] += rng.choice((-1, 1))
            candidates.append(tie + [[max(0, e) for e in bumped]])
    elif kind == "row_sum":
        total = rng.randint(2, 6)

        def row(i, s):
            while True:
                r = _composition(rng, s, n)
                if any(e for j, e in enumerate(r) if j != i):
                    return r

        rows = [row(i, total) for i in range(n)]
        if len(support_blocks(rows)) > 1:
            rows = [[total - 1 if j == i else int(j == (i + 1) % n) for j in range(n)]
                    for i in range(n)]
        candidates = []
        for i in range(n):
            tie = [_composition(rng, total, n) for _ in range(2)]
            ties += [(i, tuple(map(Fraction, r))) for r in tie]
            candidates.append(tie + [_composition(rng, total + rng.choice((-1, 1)), n)])
    elif kind == "huge":
        big = 2**600
        rows = _cycle_matrix(rng, n, lambda: small() * big + rng.randint(0, 3),
                             lambda: rng.randint(1, 4) * big)
        candidates = [[[small() * big + rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
                      for _ in range(n)]
    elif kind == "steep":
        tiny = Fraction(1, 2**200)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][(i + 1) % n] = tiny if i == n - 1 else rng.randint(1, 3)
            rows[i][i] = rng.choice((0, 0, tiny))
        candidates = [[[rng.choice((0, tiny, 2 * tiny, 1)) for _ in range(n)] for _ in range(3)]
                      for _ in range(n)]
    else:  # integer, lost and unconverged
        rows = _cycle_matrix(rng, n, small, lambda: rng.randint(1, 4))
        candidates = [[[small() for _ in range(n)] for _ in range(3)] for _ in range(n)]
        if kind == "lost":
            for i, cands in enumerate(candidates):
                cands += [[c if j == i else 0 for j in range(n)] for c in (0, 1, 4, 9)]
    centre = Matrix(tuple(tuple(r) for r in rows))
    deviations = []
    for i, cands in enumerate(candidates):
        for r in cands:
            q = tuple(map(Fraction, r))
            if q != centre.data[i] and (i, q) not in deviations:
                deviations.append((i, q))
    return kind, centre, deviations, [t for t in ties if t in deviations]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_row_switch_matches_sturm(rng):
    from entropygames import linalg

    kind, centre, deviations, ties = _switch_case(rng)
    with pytest.MonkeyPatch.context() as patch:
        if kind == "unconverged":
            patch.setattr(linalg, "POWER_ITERATION_CAP", 1)
        record = cached_bounds({}, centre)
    # the check answers a deviation with rho(C')'s exact side of rho(C), or
    # not at all; a tie is never answered
    signs = [compare_radii(_switched(centre, pos, q), centre) for pos, q in deviations]
    for (pos, q), expected in zip(deviations, signs):
        assert (pos, q) not in ties or expected == 0
        assert _row_switch(centre, record, pos, q) in (None, expected)
    # and the first deviation that beats C is Sturm's first one
    options = [{row: row} for row in centre.data]
    for pos, q in deviations:
        options[pos][q] = q
    for sign in (1, -1):
        beating = [d for d, expected in zip(deviations, signs) if sign * expected > 0]
        choice, deviation = _deviation(options, centre, sign, {})
        if beating:
            assert choice == [beating[0]]
            assert deviation == _switched(centre, *beating[0])
        else:
            assert (choice, deviation) == (None, None)


@pytest.mark.parametrize(
    "centre, deviations, kernels",
    [
        # rank one with Perron vector (1, 2), off the dyadic grid, and radius
        # 12; (12, 0) and (0, 12) leave their row its diagonal only
        (((8, 2), (16, 4)),
         [(0, (12, 0)), (0, (10, 1)), (0, (4, 4)), (0, (0, 6)), (1, (24, 0)), (1, (8, 8)),
          (1, (0, 12))], 6),
        # equal row sums 3: the witness is exact, lo = hi = 3
        (((1, 2), (2, 1)), [(0, (3, 0)), (0, (0, 3)), (1, (1, 2)), (1, (3, 0))], 4),
        (((0, 1, 2), (1, 1, 1), (3, 0, 0)), [(0, (1, 1, 1)), (1, (0, 0, 3)), (2, (1, 2, 0))], 4),
    ],
)
def test_row_switch_leaves_ties_to_the_fallback(monkeypatch, centre, deviations, kernels):
    from entropygames import linalg

    centre = Matrix(centre)
    deviations = [(pos, tuple(map(Fraction, q))) for pos, q in deviations]
    calls = []
    power_enclosure = linalg.power_enclosure

    def counted(*args):
        calls.append(args[1])
        return power_enclosure(*args)

    monkeypatch.setattr(linalg, "power_enclosure", counted)
    cache = {}
    record = cached_bounds(cache, centre)
    for pos, q in deviations:
        assert compare_radii(_switched(centre, pos, q), centre) == 0
        assert _row_switch(centre, record, pos, q) is None
    options = [{row: row} for row in centre.data]
    for pos, q in deviations:
        options[pos][q] = q
    for sign in (1, -1):
        assert _deviation(options, centre, sign, cache) == (None, None)
    # one kernel for the centre, whose bounds the fallback finds in the
    # cache, and one for each irreducible deviation's own bounds
    assert len(calls) == kernels


def _float_range(bits):
    return (f"an entry near 2^{bits} is too large for the float iteration, "
            "whose floats end below 2^1024")


def test_deviations_beyond_the_float_range_fall_back():
    # the centre's largest entry sits in the deviating row: the centre has
    # no record, so the fallback builds the deviation and meets its 2^1100
    # before the centre's 2^1200
    centre = Matrix(((2**1200, 1), (1, 2**1100)))
    q = (Fraction(2**1100), Fraction(1))
    options = [{centre.data[0]: centre.data[0], q: q}, {centre.data[1]: centre.data[1]}]
    for sign in (1, -1):
        cache = {}
        with pytest.raises(ValueError) as info:
            _deviation(options, centre, sign, cache)
        assert str(info.value) == _float_range(1100)
        assert cache == {}
    # end to end: Tribune's climb reaches a centre with an entry near 2^1200,
    # which has no record, and its deviations' fallback names it
    big = 2**600
    a_set = iru_set([[(big, 1), (1, big)], [(big, big), (1, 1)]])
    e_set = iru_set([[(big, 1), (2, big)], [(1, big), (big, 3)]])
    with pytest.raises(ValueError) as info:
        find_saddle(a_set, e_set)
    assert str(info.value) == _float_range(1200)


def _fig1():
    return A_SET, E_SET


def _value_12():
    t = arena_to_iru(Arena(frozen.VALUE_12_DESPOT, frozen.VALUE_12_TRIBUNE,
                           frozen.VALUE_12_ALPHABET, frozen.VALUE_12_TRANSITIONS))
    return t.a_set, t.e_set


@pytest.mark.parametrize(
    "game, guess, found, verified, answered",
    [
        # two irreducible 3 x 3 centres, one kernel each; the saddle's
        # enclosure of its radius is Despot's centre's record
        (_fig1, 5, 2, 2, 3),
        # Tribune's centre has a 2-node block and two equal 1-node blocks,
        # which need no kernel; Despot's is a non-aligned 4-node block,
        # settled by its critical class: one kernel for that 2-node block's
        # own record, and three deviations that all raise it.  That centre
        # is reducible, so the saddle's enclosure runs a kernel
        (_value_12, 5, 1 + 1 + 1 + 1, 1 + 1 + 1, 2 + 3),
    ],
)
def test_saddle_check_runs_one_kernel_per_centre(monkeypatch, game, guess, found, verified,
                                                 answered):
    from entropygames import decide, linalg

    kernels, switches = [], []

    def counted(tag, real):
        def kernel(*args):
            kernels.append(tag)
            return real(*args)
        return kernel

    monkeypatch.setattr(decide, "power_enclosure", counted("guess", decide.power_enclosure))
    monkeypatch.setattr(linalg, "power_enclosure", counted("exact", linalg.power_enclosure))
    row_switch = decide._row_switch

    def counted_switch(*args):
        switches.append(row_switch(*args))
        return switches[-1]

    monkeypatch.setattr(decide, "_row_switch", counted_switch)
    a_set, e_set = game()
    sp = find_saddle(a_set, e_set)
    assert (kernels.count("guess"), kernels.count("exact")) == (guess, found)
    kernels.clear()
    assert verify_saddle(a_set, e_set, sp.despot_matrix, sp.tribune_matrix)
    assert kernels == ["exact"] * verified
    # every single-row deviation is settled by the witness check, none by
    # compare_radii_enclosed
    assert None not in switches and len(switches) == 2 * answered


@pytest.mark.parametrize("game, found, verified", [(_fig1, 9, 4), (_value_12, 12, 6)])
def test_saddle_check_reads_alignment_from_the_centre_records(monkeypatch, game, found,
                                                              verified):
    # each refutation builds the reach sets of its union support, and
    # block_radius_bounds those of each block centre it records; whether a
    # block is aligned is read off that record, with no pass of its own.
    # On Fig. 1, verify_saddle's two refutations each make those two passes
    from entropygames import decide, linalg

    passes = []
    real = linalg.support_blocks

    def counted(rows):
        passes.append(len(rows))
        return real(rows)

    monkeypatch.setattr(decide, "support_blocks", counted)
    monkeypatch.setattr(linalg, "support_blocks", counted)
    a_set, e_set = game()
    sp = find_saddle(a_set, e_set)
    assert len(passes) == found
    passes.clear()
    assert verify_saddle(a_set, e_set, sp.despot_matrix, sp.tribune_matrix)
    assert len(passes) == verified


@pytest.mark.parametrize(
    "name, signs",
    [
        # each saddle check meets one non-aligned block on Despot's side,
        # which its critical class settles
        ("arena_4x2_4020", []),
        ("arena_6x2_6023", []),
        ("arena_4x3_4034", []),
        # the scan still runs on Despot's side where a deviation lowers the
        # critical class, on 6021 after a scan on Tribune's side
        ("arena_6x2_6021", [1, -1, 1, -1]),
        ("arena_4x3_4037", [-1, -1]),
    ],
)
def test_member_scans_of_find_and_verify_on_golden_arenas(monkeypatch, name, signs):
    # the sign of each block scan find_saddle and then verify_saddle make
    from entropygames import decide

    calls = []
    real = decide._block_member

    def counted(options, top, sign, cache, side):
        calls.append(sign)
        return real(options, top, sign, cache, side)

    monkeypatch.setattr(decide, "_block_member", counted)
    a_set, e_set = _golden_arena(f"{name}.json")
    sp = find_saddle(a_set, e_set)
    assert verify_saddle(a_set, e_set, sp.despot_matrix, sp.tribune_matrix)
    assert calls == signs


def _assert_saddle_radius_is_spectral_radius(a_set, e_set):
    """find_saddle's enclosure of the saddle product's radius, whether read
    from the check's record or computed, equals spectral_radius's, field by
    field except ``iterations``."""
    sp = find_saddle(a_set, e_set)
    want = spectral_radius(mat_mul(sp.despot_matrix, sp.tribune_matrix))
    assert dataclasses.replace(sp.radius, iterations=want.iterations) == want


_GOLDEN_GAMES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "games")


def _golden_arena(name: str):
    """The IruSet pair of the golden corpus's arena document name."""
    _, arena = io.load_document(os.path.join(_GOLDEN_GAMES, name))
    tr = arena_to_iru(arena)
    return tr.a_set, tr.e_set


def _golden_arena_pairs():
    """The IruSet pairs of the 75 random_arena games of the golden corpus."""
    for name in sorted(os.listdir(_GOLDEN_GAMES)):
        if name.startswith("arena_"):
            yield _golden_arena(name)


def test_saddle_radius_is_spectral_radius_on_random_arenas():
    pairs = list(_golden_arena_pairs())
    assert len(pairs) == 75
    for a_set, e_set in pairs:
        _assert_saddle_radius_is_spectral_radius(a_set, e_set)


def _two_by_two_mpg(heavy: int):
    return _mpg_pair(
        ("d0", "d1"),
        ("t0", "t1"),
        (
            ("d0", "t0", 300), ("d0", "t1", heavy), ("d1", "t0", 1), ("d1", "t1", 0),
            ("t0", "d0", 1), ("t0", "d1", 520), ("t1", "d0", 1), ("t1", "d1", 1),
        ),
    )


@pytest.mark.parametrize(
    "a_set, e_set",
    [
        (A_SET, E_SET),
        _value_12(),
        # reducible diagonal products, Tribune's members tied at 4
        (iru_set([[(1, 0), (2, 0)], [(0, 1)]]), iru_set([[(2, 0)], [(0, 2), (0, 3)]])),
        # nilpotent products: zero radius
        (iru_set([[(0, 1), (0, 2)], [(0, 0)]]), iru_set([[(1, 0), (1, 1)], [(0, 1)]])),
        # despot rows with identical product rows against Tribune's zero row
        (iru_set([[(0, 1), (1, 1)], [(1, 0)]]), iru_set([[(0, 0)], [(1, 2), (2, 1)]])),
        # one row set shared by both rows: tied members
        (iru_set([[(1, 2), (2, 1)]] * 2), iru_set([[(1, 1), (0, 2)]] * 2)),
        # fractional entries over different denominators
        (
            iru_set([[(Fraction(1, 3), Fraction(2, 5)), (Fraction(3, 4), 0)], [(1, Fraction(1, 6))]]),
            iru_set([[(Fraction(1, 2), 1)], [(2, Fraction(1, 7)), (1, 1)]]),
        ),
        # a whole-matrix witness that does not close: the steep 2^400 product
        (iru_set([[(2**400, 1)], [(1, 1)]]), iru_set([[(1, 0)], [(0, 1)]])),
        # mean payoff games: multiplicities 2^w up to w = 1000
        _mpg_pair(("d",), ("t",), (("d", "t", 1), ("d", "t", 3), ("t", "d", 2), ("t", "d", 0))),
        _two_by_two_mpg(30),
        _two_by_two_mpg(300),
        _two_by_two_mpg(1000),
    ],
)
def test_saddle_radius_is_spectral_radius_on_hard_cases(a_set, e_set):
    _assert_saddle_radius_is_spectral_radius(a_set, e_set)


def _fractional(s, rng):
    """s with every entry divided by a random denominator 1-4."""
    return iru_set(
        [[tuple(Fraction(x) / rng.randint(1, 4) for x in row) for row in rs.rows]
         for rs in s.row_sets]
    )


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_saddle_radius_is_spectral_radius(rng):
    # reducible, zero-radius, tied and identical-row pairs, fractional
    # entries, and mean payoff games with weights up to 1000
    roll = rng.random()
    if roll < 0.2:
        a_set, e_set = _random_mpg_pair(rng)
    elif roll < 0.3:
        a_set, e_set = _two_by_two_mpg(rng.randint(0, 1000))
    else:
        kinds = ("random", "sparse", "zero", "diagonal", "shared", "duplicate", "rectangular")
        _, a_set, e_set = _generated_pair(rng, kinds)
        if roll < 0.5:
            a_set, e_set = _fractional(a_set, rng), _fractional(e_set, rng)
    _assert_saddle_radius_is_spectral_radius(a_set, e_set)


@pytest.mark.parametrize(
    "game, lower, witness_lower, doublings, iterations",
    [
        # the steep product: the iterate's second entry is floored at one
        # grid step
        (
            (iru_set([[(2**400, 1)], [(1, 1)]]), iru_set([[(1, 0)], [(0, 1)]])),
            2**60 + 1, (2**60, 1), 435, 3,
        ),
        # a saddle product with radius near 2^410: the witness gap is near 2^800
        (
            _two_by_two_mpg(1000),
            Fraction(2305382025005534464, 230492104079731),
            (1152691012502767232, 230492104079731), 445, 10_000,
        ),
    ],
)
def test_an_irreducible_enclosure_that_does_not_close_runs_one_kernel(
    monkeypatch, game, lower, witness_lower, doublings, iterations
):
    from entropygames import linalg

    kernels = []

    def counted(*args):
        kernels.append(args)
        return real(*args)

    real = linalg.power_enclosure
    sp = find_saddle(*game)
    product = mat_mul(sp.despot_matrix, sp.tribune_matrix)
    monkeypatch.setattr(linalg, "power_enclosure", counted)
    est = spectral_radius(product)
    # the one block's witness is the whole matrix's, so the kernel runs once
    assert len(kernels) == 1 and est.iterations == iterations
    # the saddle's enclosure stands on the check's record of the product, so
    # it ran no kernel of its own
    assert sp.radius == dataclasses.replace(est, iterations=0) and not est.converged
    assert est.lower == lower and est.witness_lower.entries == witness_lower
    # the resolvent escalation doubles tol / 2 until it certifies
    assert est.upper == lower + DEFAULT_RADIUS_TOL / 2 * 2**doublings
    assert est.witness_upper.entries == tuple(_resolvent(product, est.upper))


def test_a_saddle_record_that_does_not_close_spares_the_saddle_kernel(monkeypatch):
    # the weight-1000 MPG's saddle product has a whole-matrix record whose
    # gap is near 2^800: the saddle's enclosure starts from that record's
    # witness, so find_saddle runs two guess and two exact kernels, the
    # exact ones being the two centre records
    from entropygames import decide, linalg

    kernels = []

    def counted(tag, real):
        def kernel(*args):
            result = real(*args)
            kernels.append((tag, result[2]))
            return result
        return kernel

    monkeypatch.setattr(decide, "power_enclosure", counted("guess", decide.power_enclosure))
    monkeypatch.setattr(linalg, "power_enclosure", counted("exact", linalg.power_enclosure))
    sp = find_saddle(*_two_by_two_mpg(1000))
    assert sorted(tag for tag, _ in kernels) == ["exact", "exact", "guess", "guess"]
    assert sum(iterations for _, iterations in kernels) == 24_000
    assert sp.radius.iterations == 0 and not sp.radius.converged


def _assert_extremes_match_sturm(s):
    """jsr_jssr against the member scan by Sturm comparisons: members of s
    with the scan's extreme radii, each certified by its own enclosure."""
    pair = jsr_jssr(s)
    argmax, argmin = oracle_helpers.sturm_extremes(s)
    assert s.contains_matrix(pair.argmax) and s.contains_matrix(pair.argmin)
    assert compare_radii(pair.argmax, argmax) == 0
    assert compare_radii(pair.argmin, argmin) == 0
    assert pair.jsr == spectral_radius(pair.argmax)
    assert pair.jssr == spectral_radius(pair.argmin)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_climbs_match_sturm_extremes(rng):
    # every square kind of side: non-aligned blocks, critical blocks, zero
    # rows, triangular (often Jordan-type) members, ties and identical rows
    kind, s, own, other = _side(rng)
    if kind != "rectangular":
        _assert_extremes_match_sturm(s)
    # a climb from any member against any other stops where no member beats it
    for sign in (1, -1):
        top = _climb(s, own, other, sign, {}, "this side")
        assert s.contains_matrix(top)
        assert oracle_helpers.member_scan_refute(s, top, other, sign) is None


@pytest.mark.parametrize(
    "rows",
    [
        # the quick start's set: its first member is the Jordan block
        # ((1, 1), (0, 1)), whose float iteration never closes
        [[(1, 1), (2, 0)], [(0, 1)]],
        # a Jordan chain against the identity, and its nilpotent part
        [[(1, 1, 0), (1, 0, 0)], [(0, 1, 1)], [(0, 0, 1), (0, 0, 0)]],
        [[(0, 1, 0)], [(0, 0, 1), (0, 0, 0)], [(0, 0, 0)]],
        # identical row sets with tied members, and a row set of zero rows
        [[(1, 0), (0, 1), (1, 1)]] * 2,
        [[(0, 0, 0)], [(1, 2, 0), (0, 0, 3)], [(2, 0, 1), (0, 0, 2)]],
        # one non-aligned block: every single swap keeps rho at 1, both give 5
        [[(1, 0), (0, 5)], [(0, 1), (5, 0)]],
    ],
)
def test_climbs_match_sturm_extremes_on_hard_cases(rows):
    _assert_extremes_match_sturm(iru_set(rows))


def test_climbs_reach_sets_far_beyond_the_enumeration_cap(monkeypatch):
    from entropygames import decide

    sizes = []

    def counted(s, stage=None):
        sizes.append(s.size)
        return enumerate_members(s, stage)

    monkeypatch.setattr(decide, "enumerate_members", counted)
    # 20 diagonal row sets {2 e_i, 3 e_i}: 2^20 members, more than
    # iru.ENUM_CAP, but every block of the union support is a single node
    s = iru_set([[tuple(c * (j == i) for j in range(20)) for c in (2, 3)] for i in range(20)])
    assert s.size == 2**20
    pair = jsr_jssr(s)
    # the climb up from 2 I stops at the first row raised to 3, a tie with
    # every member that raises more; no row lowers 2 I
    assert pair.argmax == s.member((1,) + (0,) * 19)
    assert pair.argmin == s.member((0,) * 20)
    assert pair.jsr.lower <= 3 <= pair.jsr.upper and pair.jssr.lower <= 2 <= pair.jssr.upper
    assert compare_radius_with_rational(pair.argmax, 3) == 0
    assert compare_radius_with_rational(pair.argmin, 2) == 0
    # at that member each node at 2 is a non-critical block whose swap to 3
    # does not beat the centre, so it scans its own two members
    assert sizes == [2] * 19


# random_arena 2 x 2, seed 162: from the all-zero start, Despot's exact
# loop on this pair goes from (0, 2) | (0, 2) to (0, 2) | (1, 1) and back,
# but Tribune's start has moved from (0, 1) | (0, 2) to (0, 3) | (0, 2)
_DESPOT_REPEATS = (
    iru_set([[(0, 2), (3, 0)], [(0, 2), (1, 1)]]),
    iru_set([[(0, 1), (0, 3)], [(0, 2), (1, 0)]]),
)


def test_exact_loop_settles_a_refuted_guess_without_the_grid(monkeypatch):
    from entropygames import decide

    # the float guess (2, 0) | (1, 0) against (3, 2) | (0, 3) is refuted
    # by Despot's 2 I, and Tribune's exact climb against 2 I ends at the
    # saddle; re-running the float iteration from 2 I leads back to the guess
    a_set = iru_set([[(2, 0), (2, 3)], [(0, 2), (1, 0)]])
    e_set = iru_set([[(3, 0), (3, 2)], [(0, 3), (1, 0)]])
    refutes, stages = [], []
    real_refute, real_enumerate = decide._refute, decide.enumerate_members

    def counted_refute(*args):
        refutes.append(args[-1])
        return real_refute(*args)

    def counted_enumerate(s, stage=None):
        stages.append(stage)
        return real_enumerate(s, stage)

    monkeypatch.setattr(decide, "_refute", counted_refute)
    monkeypatch.setattr(decide, "enumerate_members", counted_enumerate)
    sp = find_saddle(a_set, e_set)
    assert sp.despot_matrix == Matrix(((2, 0), (0, 2)))
    assert sp.tribune_matrix == Matrix(((3, 2), (1, 0)))
    assert oracle_helpers.sturm_saddle_check(a_set, e_set, sp.despot_matrix, sp.tribune_matrix)
    # Tribune's climb against 2 I meets one non-aligned block of 4 members
    assert refutes == ["Tribune's side", "Despot's side"] + ["Tribune's side"] * 2 + [
        "Despot's side"
    ]
    assert stages == ["reducible centre on Tribune's side"]
    # Despot's third exact round repeats its first member against a new
    # Tribune start, so the loop goes on, and that pair is the saddle
    stages.clear()
    refutes.clear()
    monkeypatch.setattr(decide, "_iterate", lambda a_rows, e_rows, a, e: (a, e))
    sp = find_saddle(*_DESPOT_REPEATS)
    assert stages == [] and len(refutes) == 7
    assert sp.despot_matrix == Matrix(((0, 2), (0, 2)))
    assert sp.tribune_matrix == Matrix(((0, 3), (0, 2)))
    assert compare_radius_with_rational(mat_mul(sp.despot_matrix, sp.tribune_matrix), 4) == 0
    assert verify_saddle(*_DESPOT_REPEATS, sp.despot_matrix, sp.tribune_matrix)
    assert oracle_helpers.sturm_saddle_check(
        *_DESPOT_REPEATS, sp.despot_matrix, sp.tribune_matrix
    )
    # on the cycling arena the pair of Despot's member and Tribune's start
    # repeats: the grid follows
    stages.clear()
    t = arena_to_iru(oracle_helpers.cycling_arena())
    sp = find_saddle(t.a_set, t.e_set)
    grid = stages.index("exact fallback of the saddle search")
    assert all(stage.startswith("reducible centre on") for stage in stages[:grid])
    assert verify_saddle(t.a_set, t.e_set, sp.despot_matrix, sp.tribune_matrix)


def test_switch_gains_read_each_block():
    # power iteration on the whole of diag(6, 3) from the all-ones vector
    # stalls with ratios 3 and 6; block by block each node's gain is exact
    assert _valuation([[6.0, 0.0], [0.0, 3.0]]) == ([6.0, 3.0], [1.0, 1.0])
    assert _valuation([[0.0, 1.0], [0.0, 0.0]])[0] == [0.0, 0.0]
    # node 0 (radius 2) feeds node 1 (radius 3): w0 = 5 w1 / (3 - 2)
    assert _valuation([[2.0, 5.0], [0.0, 3.0]]) == ([3.0, 3.0], [5.0, 1.0])
    coupled = [
        [1.0, 2.0, 1.0, 0.0],
        [3.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 2.0, 1.0],
        [0.0, 0.0, 1.0, 2.0],
    ]
    gain, weight = _valuation(coupled)
    assert gain == pytest.approx([1 + math.sqrt(6)] * 2 + [3.0] * 2, abs=1e-9)
    # the upper block's weights are its Perron vector: C w = rho w there
    image = [sum(x * w for x, w in zip(row[:2], weight[:2])) for row in coupled[:2]]
    assert image == pytest.approx([gain[0] * w for w in weight[:2]], rel=1e-9)


def test_cap_errors_name_the_enumerating_stage(monkeypatch):
    from entropygames import decide, iru

    identity = Matrix(((1, 0), (0, 1)))
    one = iru_set([[(1, 0)], [(0, 1)]])
    # e0 a0 = I against Tribune's rows (1, 0) | (0, 5) and (0, 1) | (5, 0):
    # the union support is one block on which I is not irreducible, so the
    # check compares that block's four members
    e_set = iru_set([[(1, 0), (0, 5)], [(0, 1), (5, 0)]])
    monkeypatch.setattr(iru, "ENUM_CAP", 1)
    with pytest.raises(
        EnumerationCapError,
        match="^reducible centre on Tribune's side: 4 members exceed the enumeration cap of 1$",
    ):
        verify_saddle(one, e_set, identity, identity)
    # a0 e0 = I is reducible on Despot's side too, but there its union
    # support is diagonal: two single-node blocks, settled without members
    a_set = iru_set([[(1, 0), (2, 0)], [(0, 1), (0, 3)]])
    assert verify_saddle(a_set, one, identity, identity)
    # from the all-zero start, the exact loop on the padded cycling arena
    # comes back to a pair, and the search falls to the exact grid of 32
    # members a side; every block it scans before has at most 16
    monkeypatch.setattr(decide, "_iterate", lambda a_rows, e_rows, a, e: (a, e))
    monkeypatch.setattr(iru, "ENUM_CAP", 16)
    t = arena_to_iru(oracle_helpers.cycling_arena(padded=True))
    with pytest.raises(
        EnumerationCapError,
        match="^exact fallback of the saddle search: 32 members exceed the enumeration cap of 16$",
    ):
        find_saddle(t.a_set, t.e_set)
    monkeypatch.setattr(iru, "ENUM_CAP", 4)
    assert not verify_saddle(one, e_set, identity, identity)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_strict_queries_match_enumeration(rng):
    n = rng.randint(1, 3)
    row_sets = []
    for _ in range(n):
        k = rng.randint(1, 3)
        row_sets.append(
            [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(k)]
        )
    s = iru_set(row_sets)
    argmax, argmin = oracle_helpers.sturm_extremes(s)
    for _ in range(3):
        alpha = Fraction(rng.randint(0, 20), rng.randint(1, 4))
        below, cert_b = decide_jsr_lt(s, alpha)
        assert below == (compare_radius_with_rational(argmax, alpha) < 0)
        if below:
            assert verify_certificate(cert_b, s, alpha=alpha)
        at_least, cert_a = decide_jssr_ge(s, alpha)
        assert at_least == (compare_radius_with_rational(argmin, alpha) >= 0)
        if at_least:
            assert verify_certificate(cert_a, s, alpha=alpha)


def _positive_set(rng):
    """A random positive square IruSet (n <= 3, up to 3 rows per row set):
    entries 1-4, or rows that all sum to one c, so that every member has
    radius c and both extremes tie.  Returns (tied, set)."""
    n = rng.randint(1, 3)
    tied = rng.random() < 0.3
    c = rng.randint(n, 4 * n)

    def row():
        if not tied:
            return tuple(rng.randint(1, 4) for _ in range(n))
        cuts = sorted(rng.sample(range(1, c), n - 1))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [c]))

    return tied, iru_set([[row() for _ in range(rng.randint(1, 3))] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_positive_set_queries_match_sturm_extremes(rng):
    # jsr <= alpha and jssr > alpha at the extreme radii when they are
    # rational, just around them, and at the ends of their enclosures
    tied, s = _positive_set(rng)
    argmax, argmin = oracle_helpers.sturm_extremes(s)
    for decider, extreme, holds in (
        (decide_jsr_le, argmax, lambda sign: sign <= 0),
        (decide_jssr_gt, argmin, lambda sign: sign > 0),
    ):
        est = spectral_radius(extreme)
        ties = [
            x
            for x in range(math.floor(est.lower), math.ceil(est.upper) + 1)
            if compare_radius_with_rational(extreme, x) == 0
        ]
        assert ties or not tied
        alphas = {est.lower, est.upper}
        alphas |= {est.lower * Fraction(99, 100), est.upper * Fraction(101, 100)}
        for x in ties:
            alphas |= {Fraction(x), x - Fraction(1, 1000), x + Fraction(1, 1000)}
        for alpha in sorted(alphas):
            ok, cert = decider(s, alpha)
            assert ok == holds(compare_radius_with_rational(extreme, alpha))
            if ok:
                assert verify_certificate(cert, s, alpha=alpha)
            else:
                assert cert is None


def _generated_set(rng):
    """A random square IruSet (n <= 4, up to 3 rows per row set) of one
    kind: random entries, 0/1 entries (reducible, tied and repeated rows),
    strictly upper triangular rows (every member nilpotent), upper
    triangular rows (reducible members with rational radii, often tied), or
    one row set shared by every row index.  Returns (kind, set)."""
    kind = rng.choice(("random", "sparse", "nilpotent", "triangular", "shared"))
    n = rng.randint(1, 4)

    def entry(i, j):
        if kind == "sparse":
            return rng.randint(0, 1)
        if kind == "nilpotent":
            return rng.randint(0, 2) if j > i else 0
        if kind == "triangular":
            return rng.randint(0, 3) if j >= i else 0
        return rng.randint(0, 4)

    if kind == "shared":
        pool = [tuple(entry(0, j) for j in range(n)) for _ in range(rng.randint(1, 3))]
        return kind, iru_set([pool] * n)
    return kind, iru_set(
        [
            [tuple(entry(i, j) for j in range(n)) for _ in range(rng.randint(1, 3))]
            for i in range(n)
        ]
    )


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_policy_iteration_matches_contraction_lp(rng):
    kind, s = _generated_set(rng)
    argmax = oracle_helpers.sturm_extremes(s)[0]
    alphas = [Fraction(0), Fraction(-rng.randint(1, 4), rng.randint(1, 3))]
    alphas += [Fraction(rng.randint(1, 20), rng.randint(1, 4)) for _ in range(2)]
    # the rational radius of a random member, when one of its diagonal
    # entries is that radius (always so for triangular members)
    member = rng.choice(list(enumerate_members(s)))
    alphas += [
        x for x in sorted(set(member.data[i][i] for i in range(s.n_rows)))
        if compare_radius_with_rational(member, x) == 0
    ]
    if kind == "triangular":
        assert len(alphas) > 4
    for alpha in alphas:
        below, cert = decide_jsr_lt(s, alpha)
        assert below == oracle_helpers.contraction_lp(s, alpha)[0]
        assert below == (compare_radius_with_rational(argmax, alpha) < 0)
        if below:
            assert verify_certificate(cert, s, alpha=alpha)
        else:
            assert cert is None


def test_jssr_ge_is_one_lp_when_expansions_vanish_on_coordinate_0(monkeypatch):
    from entropygames import decide

    # at alpha = 2 both rows of row set 0 force v_0 = 0, so pinning v_0 >= 1
    # is infeasible; the other rows ask v_1 <= v_2 <= 2 v_1.  Every member
    # is block triangular with radius 1 + sqrt(2) from its block {1, 2}.
    s = iru_set([[(1, 0, 0), (0, 0, 0)], [(0, 1, 1), (1, 1, 1)], [(0, 2, 1), (1, 2, 1)]])
    assert compare_radius_with_rational(oracle_helpers.sturm_extremes(s)[1], 2) > 0
    calls = []

    def counted(system):
        calls.append(system)
        return lp_max(system)

    monkeypatch.setattr(decide, "lp_max", counted)
    ok, cert = decide_jssr_ge(s, 2)
    assert ok and len(calls) == 1
    # the LP's vertex has (v_1, v_2) = (1/2, 1/2) or (1/3, 2/3), scaled to
    # maximum 1
    assert cert.vector[0] == 0 and max(cert.vector) == 1
    assert verify_certificate(cert, s, alpha=2)
    ok_above, _ = decide_jssr_ge(s, Fraction(5, 2))
    assert not ok_above and len(calls) == 2


def _integer_values(centre, sp):
    """The integers in the saddle's enclosure that are the radius of the
    saddle product: an integer matrix has a rational radius only when it is
    an integer."""
    lo, hi = math.floor(sp.radius.lower), math.ceil(sp.radius.upper)
    return {
        Fraction(k) for k in range(lo, hi + 1)
        if compare_radius_with_rational(centre, k) == 0
    }


def _assert_mm_matches_member_scan(a_set, e_set, alpha, queries):
    """Each decider against its member-scan oracle at alpha: the same
    answer, no certificate on no, a verifying one on yes, and agreement
    with comparing the saddle product's radius with alpha exactly."""
    sp = find_saddle(a_set, e_set)
    side = compare_radius_with_rational(mat_mul(sp.despot_matrix, sp.tribune_matrix), alpha)
    expected = {decide_mm_lt: side < 0, decide_mm_ge: side >= 0, decide_mm_le: side <= 0}
    for decide, scan in queries:
        ok, cert = decide(a_set, e_set, alpha)
        assert ok == scan(a_set, e_set, alpha)[0] == expected[decide]
        if ok:
            assert verify_certificate(cert, a_set, e_set, alpha=alpha)
        else:
            assert cert is None


_STRICT = (
    (decide_mm_lt, oracle_helpers.member_scan_mm_lt),
    (decide_mm_ge, oracle_helpers.member_scan_mm_ge),
)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mm_deciders_match_member_scan(rng):
    kind, a_set, e_set = _generated_pair(
        rng, ("random", "sparse", "zero", "diagonal", "shared", "duplicate", "rectangular")
    )
    sp = find_saddle(a_set, e_set)
    centre = mat_mul(sp.despot_matrix, sp.tribune_matrix)
    alphas = {sp.radius.lower, sp.radius.upper, Fraction(rng.randint(0, 40), rng.randint(1, 4))}
    alphas |= _integer_values(centre, sp)
    if kind in ("zero", "diagonal"):
        assert _integer_values(centre, sp)
    for alpha in sorted(alphas):
        _assert_mm_matches_member_scan(a_set, e_set, alpha, _STRICT)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mm_le_matches_member_scan_on_positive_sets(rng):
    n, m = rng.randint(1, 3), rng.randint(1, 3)

    def positive(rows, cols):
        return iru_set(
            [
                [tuple(rng.randint(1, 3) for _ in range(cols)) for _ in range(rng.randint(1, 2))]
                for _ in range(rows)
            ]
        )

    a_set, e_set = positive(n, m), positive(m, n)
    sp = find_saddle(a_set, e_set)
    centre = mat_mul(sp.despot_matrix, sp.tribune_matrix)
    alphas = {sp.radius.lower, sp.radius.upper, Fraction(rng.randint(1, 40), rng.randint(1, 4))}
    alphas |= _integer_values(centre, sp)
    queries = _STRICT + ((decide_mm_le, oracle_helpers.member_scan_mm_le),)
    for alpha in sorted(alphas):
        _assert_mm_matches_member_scan(a_set, e_set, alpha, queries)


@pytest.mark.parametrize(
    "a_rows, e_rows, alphas",
    [
        # Despot's identity against Tribune's rows (1, 0) | (0, 5) and
        # (0, 1) | (5, 0): a reducible centre, value 5
        ([[(1, 0)], [(0, 1)]], [[(1, 0), (0, 5)], [(0, 1), (5, 0)]], (1, 5, Fraction(51, 10))),
        # zero rows on both sides and a nilpotent product: value 0
        ([[(0, 1), (0, 2)], [(0, 0)]], [[(1, 0), (1, 1)], [(0, 0), (0, 1)]], (0, Fraction(1, 2))),
        # reducible diagonal products, Tribune's members tied at 4: value 3
        ([[(1, 0), (2, 0)], [(0, 1)]], [[(2, 0)], [(0, 2), (0, 3)]], (2, 3, 4)),
        # a 1 x 3 against 3 x 1 pair whose Despot rows tie: value 6
        ([[(1, 2, 0), (2, 1, 0), (0, 0, 3)]], [[(1,), (2,)], [(2,)], [(1,), (2,)]], (5, 6, 7)),
    ],
)
def test_mm_deciders_match_member_scan_on_hard_cases(a_rows, e_rows, alphas):
    a_set, e_set = iru_set(a_rows), iru_set(e_rows)
    for alpha in alphas:
        _assert_mm_matches_member_scan(a_set, e_set, Fraction(alpha), _STRICT)


def test_mm_deciders_search_once_and_not_on_a_one_member_side(monkeypatch):
    from entropygames import decide

    calls = []
    real = decide.find_saddle

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(decide, "find_saddle", counted)
    sp = real(A_SET, E_SET)
    for query, alpha in ((decide_mm_lt, Fraction(357, 100)), (decide_mm_ge, Fraction(356, 100))):
        calls.clear()
        ok, cert = query(A_SET, E_SET, alpha)
        assert ok and len(calls) == 1
        # the committed matrix is the certifying player's saddle strategy
        assert cert.chosen_matrix == (
            sp.despot_matrix if query is decide_mm_lt else sp.tribune_matrix
        )
    calls.clear()
    decide_mm_lt(decide._only(sp.despot_matrix), E_SET, 4)
    decide_mm_ge(A_SET, decide._only(sp.tribune_matrix), 3)
    assert calls == []
