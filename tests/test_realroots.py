import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_helpers
from entropygames.linalg import Matrix, block_radius_bounds
from entropygames.realroots import (
    _Roots,
    bisect_radius,
    charpoly,
    compare_radii,
    compare_radii_enclosed,
    compare_radius_with_rational,
    square_free,
    sturm_chain,
)

RUNNING = Matrix(((2, 1, 1), (1, 0, 1), (1, 1, 2)))


def test_charpoly_running():
    # det(xI - m) = x^3 - 4x^2 + x + 2, coefficients lowest degree first
    assert charpoly(RUNNING) == [Fraction(2), Fraction(1), Fraction(-4), Fraction(1)]


def test_charpoly_identity():
    # (x - 1)^2 = x^2 - 2x + 1
    assert charpoly(Matrix.identity(2)) == [Fraction(1), Fraction(-2), Fraction(1)]


def test_square_free_strips_multiplicity():
    # (x - 1)^2 -> x - 1 up to a constant factor
    p = [Fraction(1), Fraction(-2), Fraction(1)]
    sf = square_free(p)
    assert len(sf) == 2
    assert sf[1] != 0 and sf[0] / sf[1] == Fraction(-1)


def test_count_roots_half_open():
    # roots of x^2 - 1 are -1 and 1; the oracle's interval convention is
    # (a, b], and the sign query counts the roots strictly above x
    p = [Fraction(-1), Fraction(0), Fraction(1)]
    chain = sturm_chain(square_free(p))
    assert oracle_helpers.count_roots(chain, Fraction(-2), Fraction(2)) == 2
    assert oracle_helpers.count_roots(chain, Fraction(0), Fraction(1)) == 1
    assert oracle_helpers.count_roots(chain, Fraction(1), Fraction(2)) == 0
    assert oracle_helpers.count_roots(chain, Fraction(-1), Fraction(1)) == 1
    roots = _Roots(p)
    assert roots.count == 2
    assert [roots.above(Fraction(x)) for x in (-2, -1, 0, 1, 2)] == [2, 1, 1, 0, 0]
    assert [roots.sign(Fraction(x)) for x in (0, 1, 2)] == [1, 0, -1]


def test_isolate_largest_root():
    p = charpoly(RUNNING)
    chain, lo, hi = oracle_helpers.isolate_largest_root(p)
    root = (3 + math.sqrt(17)) / 2
    assert float(lo) < root < float(hi) or float(hi) == pytest.approx(root)
    assert oracle_helpers.count_roots(chain, lo, hi) == 1
    # the sign query puts the same root inside (lo, hi] without isolating it
    roots = _Roots(p)
    assert roots.sign(lo) == 1 and roots.sign(hi) <= 0
    assert roots.above(lo) == 1


def test_isolate_largest_root_none_for_rootless():
    # x^2 + 1 has no real roots: the oracle finds none, and the sign query
    # refuses to name a largest one
    p = [Fraction(1), Fraction(0), Fraction(1)]
    assert oracle_helpers.isolate_largest_root(p) is None
    roots = _Roots(p)
    assert roots.count == 0 and roots.above(Fraction(-5)) == 0
    with pytest.raises(ValueError, match="no real root"):
        roots.sign(Fraction(0))
    with pytest.raises(ValueError, match="no real root"):
        compare_radii(Matrix(((0, -1), (1, 0))), RUNNING)


def test_compare_largest_roots_strict_and_tie():
    p = [Fraction(-2), Fraction(0), Fraction(1)]  # roots +-sqrt(2)
    q = [Fraction(-3), Fraction(0), Fraction(1)]  # roots +-sqrt(3)
    assert oracle_helpers.compare_largest_roots(p, q) == -1
    assert oracle_helpers.compare_largest_roots(q, p) == 1
    assert oracle_helpers.compare_largest_roots(p, list(p)) == 0
    # same largest root sqrt(2) through different polynomials
    r = [Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]  # x(x^2-2)
    assert oracle_helpers.compare_largest_roots(p, r) == 0
    # the same questions through the matrices whose polynomials these are:
    # x^2 - 2, x^2 - 3 and (x^2 - 2)(x - 1)
    a, b = Matrix(((0, 1), (2, 0))), Matrix(((0, 1), (3, 0)))
    c = Matrix(((0, 1, 0), (2, 0, 0), (0, 0, 1)))
    assert (compare_radii(a, b), compare_radii(b, a), compare_radii(a, c)) == (-1, 1, 0)


def test_compare_largest_root_with_rational():
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    q = [Fraction(-4), Fraction(0), Fraction(1)]
    for compare in (
        oracle_helpers.compare_largest_root_with_rational,
        lambda poly, r: _Roots(poly).sign(r),
    ):
        assert compare(p, Fraction(1)) == 1
        assert compare(p, Fraction(2)) == -1
        assert compare(q, Fraction(2)) == 0


def test_compare_radii_exact_tie():
    a = Matrix(((0, 2), (2, 0)))
    b = Matrix(((2, 1), (0, 1)))
    assert compare_radii(a, b) == 0
    assert compare_radii(a, a) == 0


def test_compare_radii_strict():
    a = Matrix(((1, 1), (1, 1)))
    b = Matrix(((1, 2), (2, 1)))
    assert compare_radii(a, b) == -1
    assert compare_radii(b, a) == 1


def test_compare_radius_with_rational_running():
    rho = (3 + math.sqrt(17)) / 2
    below = Fraction(35, 10)
    above = Fraction(36, 10)
    assert compare_radius_with_rational(RUNNING, below) == 1
    assert compare_radius_with_rational(RUNNING, above) == -1
    assert compare_radius_with_rational(Matrix(((2,),)), Fraction(2)) == 0
    assert below < Fraction(int(rho * 100), 100) < above


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compare_radii_matches_numpy_on_clear_separations(rng):
    n = rng.randint(1, 4)

    def draw():
        return Matrix(
            tuple(tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n))
        )

    a, b = draw(), draw()
    ra = max(abs(np.linalg.eigvals(np.array(a.to_floats()))))
    rb = max(abs(np.linalg.eigvals(np.array(b.to_floats()))))
    if abs(ra - rb) < 1e-6:
        return  # too close to trust the float reference
    assert compare_radii(a, b) == (1 if ra > rb else -1)


def test_bisect_radius_keeps_root_in_lower():
    m = Matrix(((2, 0), (0, 1)))  # rho = 2, the first midpoint of [0, 4)
    assert bisect_radius(m, 0, 4, Fraction(1, 4)) == (2, Fraction(9, 4), 4)
    lower, upper, _ = bisect_radius(RUNNING, 0, 8, Fraction(1, 10**6))
    assert compare_radius_with_rational(RUNNING, lower) > 0
    assert compare_radius_with_rational(RUNNING, upper) < 0
    with pytest.raises(ValueError):
        bisect_radius(m, 0, 2, Fraction(1, 4))  # rho is not below upper


def test_compare_radii_enclosed_settles_ties_of_single_points(monkeypatch):
    import entropygames.realroots as realroots

    def refuse(p, q):
        raise AssertionError("separated or equal single-point enclosures need no Sturm")

    computed = []

    def counted(m):
        computed.append(m.data)
        return block_radius_bounds(m)

    monkeypatch.setattr(realroots, "compare_radii", refuse)
    monkeypatch.setattr(realroots, "block_radius_bounds", counted)
    cache: dict = {}
    diag = Matrix(((6, 0), (0, 3)))
    assert compare_radii_enclosed(cache, diag, Matrix(((3, 0), (0, 6)))) == 0
    assert compare_radii_enclosed(cache, diag, Matrix(((2, 5), (0, 3)))) == 1
    assert compare_radii_enclosed(cache, Matrix(((0, 1), (0, 0))), RUNNING) == -1
    # a second comparison, even with an equal matrix built anew, reads the
    # bounds from the cache instead of computing them again
    assert compare_radii_enclosed(cache, Matrix(((6, 0), (0, 3))), RUNNING) == 1
    assert computed.count(diag.data) == 1
    assert computed.count(RUNNING.data) == 1


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_compare_radii_enclosed_matches_compare_radii(rng):
    n = rng.randint(1, 3)
    high = rng.choice((1, 3))
    p, q = (
        Matrix(tuple(tuple(rng.randint(0, high) for _ in range(n)) for _ in range(n)))
        for _ in range(2)
    )
    cache: dict = {}
    assert compare_radii_enclosed(cache, p, q) == compare_radii(p, q)
    assert compare_radii_enclosed(cache, q, p) == compare_radii(q, p)


def test_compare_radii_enclosed_falls_back_when_enclosures_overlap(monkeypatch):
    import entropygames.realroots as realroots

    # equal, valid but loose enclosures, each naming its critical block:
    # only Sturm on those blocks tells 3 from 4
    p, q = Matrix(((3, 0), (0, 0))), Matrix(((3, 1), (1, 3)))
    loose = {
        p.data: (Fraction(3), Fraction(4), [0], [1]),
        q.data: (Fraction(3), Fraction(4), [0, 1], [1, 1]),
    }
    compared = []

    def recorded(a, b):
        compared.append((a.data, b.data))
        return compare_radii(a, b)

    monkeypatch.setattr(realroots, "block_radius_bounds", lambda m: loose[m.data])
    monkeypatch.setattr(realroots, "compare_radii", recorded)
    cache: dict = {}
    assert compare_radii_enclosed(cache, p, q) == -1
    assert compare_radii_enclosed(cache, q, p) == 1
    assert compared == [(((3,),), q.data), (q.data, ((3,),))]


# the pairs of reducible saddle check matrices that tie in saddle-grid: each
# pair differs only in a row outside the critical block they share, which
# is ((13, 7), (7, 5)), ((8, 8), (8, 10)), the rank-one block of radius 12
# with the Perron vector (3, 2, 7) / 12 off the dyadic grid, and the block
# on {0, 1, 3} of the last pair
SADDLE_GRID_TIES = [
    (
        Matrix(((2, 2, 2), (0, 13, 7), (0, 7, 5))),
        Matrix(((3, 7, 5), (0, 13, 7), (0, 7, 5))),
    ),
    (
        Matrix(((8, 8, 0), (8, 10, 0), (8, 6, 6))),
        Matrix(((8, 8, 0), (8, 10, 0), (2, 1, 3))),
    ),
    (
        Matrix(((3, 0, 3, 3), (4, 0, 1, 3), (2, 0, 2, 2), (7, 0, 7, 7))),
        Matrix(((3, 0, 3, 3), (2, 0, 2, 2), (2, 0, 2, 2), (7, 0, 7, 7))),
    ),
    (
        Matrix(((4, 4, 0, 6), (6, 2, 0, 0), (18, 12, 2, 9), (3, 1, 0, 0))),
        Matrix(((4, 4, 0, 6), (6, 2, 0, 0), (1, 0, 3, 1), (3, 1, 0, 0))),
    ),
]


@pytest.mark.parametrize("pair", SADDLE_GRID_TIES)
def test_compare_radii_enclosed_ties_shared_critical_blocks_without_charpoly(monkeypatch, pair):
    import entropygames.realroots as realroots

    def refuse(m):
        raise AssertionError("a shared critical block ties on equal data")

    p, q = pair
    p_lo, p_hi, p_block, _ = block_radius_bounds(p)
    q_lo, q_hi, q_block, _ = block_radius_bounds(q)
    # the enclosures overlap without being one point, and name the block
    assert p_lo < p_hi and q_lo < q_hi and max(p_lo, q_lo) <= min(p_hi, q_hi)
    assert p_block == q_block and len(p_block) < p.rows
    monkeypatch.setattr(realroots, "charpoly", refuse)
    cache: dict = {}
    assert compare_radii_enclosed(cache, p, q) == 0
    assert compare_radii_enclosed(cache, q, p) == 0


@pytest.mark.parametrize("pair", SADDLE_GRID_TIES)
@pytest.mark.parametrize("change", (Fraction(1, 2**80), -Fraction(1, 2**80)))
def test_compare_radii_enclosed_on_a_near_miss_of_a_shared_critical_block(pair, change):
    # the same block indices with one entry of q's critical block moved by
    # 2^-80, below the float grid: the enclosures still overlap, the blocks
    # differ, and the sign is that of the whole-matrix comparison
    p, q = pair
    _, _, block, _ = block_radius_bounds(q)
    rows = [list(row) for row in q.data]
    rows[block[0]][block[0]] += change
    near = Matrix(tuple(tuple(row) for row in rows))
    assert block_radius_bounds(near)[2] == block
    expected = compare_radii(near, p)
    assert expected == (1 if change > 0 else -1)
    cache: dict = {}
    assert compare_radii_enclosed(cache, near, p) == expected
    assert compare_radii_enclosed(cache, p, near) == -expected


def test_compare_radii_enclosed_where_block_bounds_touch():
    # rank_one has radius 12 and an enclosure on either side of it; each
    # of the others holds a point block 12 and a block [1, 2] whose bounds
    # touch 12: from below, with a radius below 12, or from above, with a
    # radius above it (see test_linalg)
    tiny = Fraction(1, 2**70)
    rank_one = Matrix(((3, 3, 3), (2, 2, 2), (7, 7, 7)))
    below = Matrix(((12, 1, 0), (0, 11, 1), (0, 1, 11 - tiny)))
    above = Matrix(((12, 0, 0), (1, 11, 1), (0, 1, 11 + tiny)))
    twelve = Matrix(((12,),))
    cache: dict = {}
    for p, q, expected in ((below, rank_one, 0), (above, twelve, 1), (above, rank_one, 1)):
        assert compare_radii(p, q) == expected
        assert compare_radii_enclosed(cache, p, q) == expected
        assert compare_radii_enclosed(cache, q, p) == -expected


# -- the integer charpoly against the Fraction one it replaced ---------------


def _rational_rows(draw, n, low):
    """n rows of n entries, each row over its own denominator."""
    rows = []
    for _ in range(n):
        d = draw(st.integers(1, 12))
        rows.append([Fraction(draw(st.integers(low, 20)), d) for _ in range(n)])
    return rows


@st.composite
def charpoly_matrices(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("rational", "signed", "zero", "nilpotent", "repeated", "mpg")))
    if kind == "rational":
        rows = _rational_rows(draw, n, 0)
    elif kind == "signed":
        rows = _rational_rows(draw, n, -20)
    elif kind == "zero":
        rows = [[0] * n for _ in range(n)]
    elif kind == "nilpotent":
        # strictly upper triangular, then relabelled
        upper = _rational_rows(draw, n, -20)
        order = draw(st.permutations(range(n)))
        rows = [[upper[i][j] if i < j else 0 for j in order] for i in order]
    elif kind == "repeated":
        rows = _rational_rows(draw, n, -20)
        for i in range(1, n):
            if draw(st.booleans()):
                rows[i] = list(rows[0])
    else:
        # mean payoff multiplicities 2^w, some of them far beyond a float
        rows = [
            [draw(st.sampled_from((0, 1))) * 2 ** draw(st.integers(0, 1100)) for _ in range(n)]
            for _ in range(n)
        ]
    return Matrix(tuple(tuple(row) for row in rows))


@settings(max_examples=300, deadline=None)
@given(charpoly_matrices())
@example(Matrix(((Fraction(-3, 7),),)))
@example(Matrix(((0, 0), (0, 0))))
@example(Matrix(((0, Fraction(1, 2), 5), (0, 0, Fraction(2, 3)), (0, 0, 0))))
@example(Matrix(((1, Fraction(1, 2)), (Fraction(1, 3), 1))))
@example(Matrix(((2**1000, 1), (2**1000, 1))))
def test_charpoly_matches_fraction_faddeev_leverrier(m):
    got = charpoly(m)
    assert got == oracle_helpers.fraction_charpoly(m)
    assert all(type(c) is Fraction for c in got)


def test_charpoly_rescales_rows_over_different_denominators():
    # rows over 2 and 3: D = 6 and N = 6 m = ((3, 3), (2, 2)), whose
    # coefficients -5 and 0 come back over 6 and 36
    m = Matrix(((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3))))
    assert charpoly(m) == [Fraction(0), Fraction(-5, 6), Fraction(1)]


# -- enclosed comparisons on rational, reducible, tied and zero-radius pairs --


def _shaped_rows(draw, n, kind):
    """Relabelled rational rows: block upper triangular when reducible,
    strictly upper triangular (radius 0) when zero."""
    rows = _rational_rows(draw, n, 0)
    if kind == "reducible" and n > 1:
        split = draw(st.integers(1, n - 1))
        rows = [
            [0 if i >= split > j else x for j, x in enumerate(row)] for i, row in enumerate(rows)
        ]
    elif kind == "zero":
        rows = [[x if i < j else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
    order = draw(st.permutations(range(n)))
    return [[rows[i][j] for j in order] for i in order]


def _beside(a, b):
    """The block diagonal matrix of rows a and rows b."""
    return [list(r) + [0] * len(b) for r in a] + [[0] * len(a) + list(r) for r in b]


def _critical_pair(draw, max_order):
    """One positive, so irreducible, block shared by both sides, and a
    block of each side's own whose row sums are at most half the shared
    block's smallest row sum, so its radius is below the shared one.  The blocks are coupled
    block upper triangularly, the shared one upstream or downstream, and
    each side is relabelled on its own: a tie through the critical block."""
    k = draw(st.integers(1, min(3, max_order - 1)))
    shared = [[Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 12))) for _ in range(k)]
              for _ in range(k)]
    floor = min(sum(row) for row in shared) / 2
    sides = []
    for _ in range(2):
        n = draw(st.integers(1, min(2, max_order - k)))
        own = _rational_rows(draw, n, 0)
        scale = floor / max(1, max(sum(row) for row in own))
        own = [[x * scale for x in row] for row in own]
        first, second = (shared, own) if draw(st.booleans()) else (own, shared)
        coupling = _rational_rows(draw, max(len(first), len(second)), 0)
        rows = [list(row) + coupling[i][: len(second)] for i, row in enumerate(first)]
        rows += [[0] * len(first) + list(row) for row in second]
        order = draw(st.permutations(range(len(rows))))
        sides.append(Matrix(tuple(tuple(rows[i][j] for j in order) for i in order)))
    return tuple(sides)


@st.composite
def radius_pairs(draw, max_order=8):
    kind = draw(st.sampled_from(("rational", "reducible", "tied", "zero", "shared", "critical")))
    if kind == "critical":
        return _critical_pair(draw, max_order)
    if kind == "shared":
        # one block beside a different block each: a shared root, often not
        # the largest one of either
        common = _shaped_rows(draw, draw(st.integers(1, 2)), "rational")
        p, q = (
            _beside(_shaped_rows(draw, draw(st.integers(1, 2)), "rational"), common)
            for _ in range(2)
        )
        return Matrix(p), Matrix(q)
    if kind != "tied":
        p, q = (_shaped_rows(draw, draw(st.integers(1, 4)), kind) for _ in range(2))
        return Matrix(p), Matrix(q)
    # the transpose, alone or with a zero block or the matrix itself beside
    # it: the same radius, often from a different polynomial
    n = draw(st.integers(1, 4))
    rows = _shaped_rows(draw, n, draw(st.sampled_from(("rational", "reducible"))))
    q = [list(col) for col in zip(*rows)]
    extra = draw(st.sampled_from(("none", "zero", "copy"))) if 2 * n <= max_order else "none"
    if extra != "none":
        q = _beside(q, rows if extra == "copy" else [[0] * n for _ in range(n)])
    return Matrix(rows), Matrix(q)


@settings(max_examples=200, deadline=None)
@given(radius_pairs())
@example((Matrix(((0, 1), (0, 0))), Matrix(((0, 0), (0, 0)))))
@example((Matrix(((2, 5), (0, 3))), Matrix(((3, 0), (1, 2)))))
@example((Matrix(((0, 2), (2, 0))), Matrix(((2, 1), (0, 1)))))
@example(SADDLE_GRID_TIES[0])
@example(SADDLE_GRID_TIES[1])
@example(SADDLE_GRID_TIES[2])
@example(SADDLE_GRID_TIES[3])
def test_compare_radii_enclosed_matches_compare_radii_on_hard_pairs(pair):
    p, q = pair
    cache: dict = {}
    expected = compare_radii(p, q)
    assert compare_radii_enclosed(cache, p, q) == expected
    assert compare_radii_enclosed(cache, q, p) == -expected


# -- the sign query against the isolating routes it replaced -----------------


def _probes(m, other):
    """Rationals to compare rho(m) with: its block bounds, the other
    matrix's, just outside them, and 0."""
    points = {Fraction(0)}
    for lo, hi, _, _ in (block_radius_bounds(m), block_radius_bounds(other)):
        points |= {lo, hi, lo - Fraction(1, 7), hi + Fraction(1, 3), (lo + hi) / 2}
    return sorted(points)


@settings(max_examples=150, deadline=None)
@given(radius_pairs(max_order=4))
@example((Matrix(((0, 1), (2, 0))), Matrix(((0, 1, 0), (2, 0, 0), (0, 0, 1)))))
@example((Matrix(((0, 2), (2, 0))), Matrix(((2, 1), (0, 1)))))
@example((Matrix(((0, 1), (0, 0))), Matrix(((0, 0), (0, 0)))))
@example((Matrix(((Fraction(1, 3),),)), Matrix(((0, 1), (Fraction(1, 9), 0)))))
@example((Matrix(((3, 0), (0, 1))), Matrix(((2, 0), (0, 1)))))
@example((Matrix(((3, 0), (0, 1))), Matrix(((Fraction(25, 8), 0), (0, 1)))))
def test_sign_query_matches_isolating_oracle(pair):
    # irrational ties through different polynomials (sqrt 2 above), rational
    # ties off the dyadic grid (1/3), zero radii, reducible pairs, and a
    # shared root 1 below two different radii, which is no tie
    p, q = pair
    expected = oracle_helpers.isolating_compare_radii(p, q)
    assert compare_radii(p, q) == expected
    assert compare_radii(q, p) == -expected
    for m, other in ((p, q), (q, p)):
        for r in _probes(m, other):
            assert compare_radius_with_rational(
                m, r
            ) == oracle_helpers.isolating_compare_radius_with_rational(m, r)
        lo, hi, _, _ = block_radius_bounds(m)
        lower, upper = Fraction(math.floor(lo)), Fraction(math.floor(hi) + 1)
        tol = Fraction(1, 64)
        assert bisect_radius(m, lower, upper, tol) == oracle_helpers.isolating_bisect_radius(
            m, lower, upper, tol
        )


def test_sign_query_on_a_steep_matrix():
    # entries near 2^600 over denominators up to 12: the Cauchy bound is
    # about 2^3000, so isolating the largest root from it took some 15 s a
    # call, where the sign query evaluates the chain once
    rng = random.Random(5)
    def entry():
        x = Fraction(rng.randint(0, 9), rng.randint(1, 12))
        return x * 2**600 if rng.random() < 0.5 else x

    m = Matrix(tuple(tuple(entry() for _ in range(5)) for _ in range(5)))
    lo, hi, _, _ = block_radius_bounds(m)
    assert lo < hi
    signs = [compare_radius_with_rational(m, r) for r in (lo - 1, lo, hi, hi + 1)]
    assert signs == [1, 1, -1, -1]
