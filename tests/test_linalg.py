import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _frozen as frozen
import oracle_helpers
from entropygames.linalg import (
    DEFAULT_RADIUS_TOL,
    Matrix,
    Vector,
    _dyadic_witness,
    _over_common_denominator,
    _pivot,
    _resolvent,
    block_radius_bounds,
    certify_radius_lower,
    certify_radius_upper,
    mat_mul,
    mat_vec,
    one_norm,
    principal_submatrix,
    rat,
    spectral_radius,
    support_blocks,
    vec_mat,
)
from entropygames.realroots import compare_radii, compare_radius_with_rational

RUNNING = Matrix(((2, 1, 1), (1, 0, 1), (1, 1, 2)))
RUNNING_RHO = (3 + math.sqrt(17)) / 2


def test_matrix_validation():
    with pytest.raises(ValueError):
        Matrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        Matrix(())
    m = Matrix(((Fraction(1, 2), 2),))
    assert m.rows == 1 and m.cols == 2
    assert m.data[0][0] == Fraction(1, 2)


def test_matrix_flags():
    assert RUNNING.is_nonnegative
    assert not RUNNING.is_positive
    assert Matrix(((1, 2), (3, 4))).is_positive
    assert not Matrix(((-1,),)).is_nonnegative


def test_mat_mul_running_product():
    a = Matrix(((1, 1, 0), (1, 0, 1), (0, 1, 1)))
    e = Matrix(((1, 0, 0), (1, 1, 1), (0, 0, 1)))
    assert mat_mul(a, e) == RUNNING


def test_mat_mul_identity_and_dot():
    m = Matrix(((5, 6), (7, 8)))
    assert mat_mul(Matrix.identity(2), m) == m
    assert mat_mul(Matrix(((1, 2),)), Matrix(((3,), (4,)))) == Matrix(((11,),))
    with pytest.raises(ValueError):
        mat_mul(Matrix(((1, 2),)), Matrix(((1, 2),)))


def test_mat_vec_and_vec_mat():
    m = Matrix(((1, 2), (3, 4)))
    assert tuple(mat_vec(m, (1, 1))) == (Fraction(3), Fraction(7))
    assert tuple(vec_mat((1, 1), m)) == (Fraction(4), Fraction(6))


def test_products_reject_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: 1x2 times 1x2"):
        mat_mul(Matrix(((1, 2),)), Matrix(((1, 2),)))
    with pytest.raises(ValueError, match="matrix-vector"):
        mat_vec(RUNNING, (1, 1))
    with pytest.raises(ValueError, match="vector-matrix"):
        vec_mat((1, 1, 1, 1), RUNNING)


BIG = 2**800
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(-BIG, BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 2**64)),
)


@st.composite
def matrices(draw, rows, cols, entries=ENTRIES):
    """A rows x cols Matrix, sometimes with a zeroed row and a zeroed column."""
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = [0] * cols
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in data:
            row[j] = 0
    return Matrix(tuple(tuple(row) for row in data))


def vectors(size):
    """Vectors of plain ints or of mixed values, as tuples or lists."""
    ints = st.lists(st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG)),
                    min_size=size, max_size=size)
    mixed = st.lists(ENTRIES, min_size=size, max_size=size)
    return st.one_of(ints, mixed, mixed.map(tuple))


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


@st.composite
def product_cases(draw):
    p, q, r = (draw(st.integers(1, 5)) for _ in range(3))
    return (draw(matrices(p, q)), draw(matrices(q, r)), draw(vectors(q)), draw(vectors(p)))


@settings(max_examples=200, deadline=None)
@given(product_cases())
def test_products_match_fraction_loops(case):
    a, b, v, w = case
    got = mat_mul(a, b)
    assert got == oracle_helpers.fraction_mat_mul(a, b)
    assert all(all_fractions(row) for row in got.data)
    column = mat_vec(a, v)
    assert column == oracle_helpers.fraction_mat_vec(a, v)
    assert type(column) is tuple and all_fractions(column)
    row = vec_mat(w, a)
    assert row == oracle_helpers.fraction_vec_mat(w, a)
    assert type(row) is tuple and all_fractions(row)


@st.composite
def certificate_cases(draw):
    n = draw(st.integers(1, 5))
    m = draw(matrices(n, n, ENTRIES.map(abs)))
    v = draw(st.lists(ENTRIES.map(abs), min_size=n, max_size=n))
    if not any(v):
        v[0] = 1
    image = oracle_helpers.fraction_mat_vec(m, v)
    ratios = [lhs / x for lhs, x in zip(image, v) if x]
    rho = draw(st.one_of(
        st.sampled_from([min(ratios), max(ratios)]),
        st.fractions(min_value=0, max_value=100, max_denominator=12),
    ))
    return m, v, rho


@settings(max_examples=150, deadline=None)
@given(certificate_cases())
def test_certificate_verdicts_match_fraction_loops(case):
    m, v, rho = case
    image = oracle_helpers.fraction_mat_vec(m, v)
    assert certify_radius_lower(m, rho, v) == all(
        lhs >= rho * x for lhs, x in zip(image, v)
    )
    if all(x > 0 for x in v):
        assert certify_radius_upper(m, rho, v) == all(
            lhs <= rho * x for lhs, x in zip(image, v)
        )


def test_one_norm():
    assert one_norm(RUNNING) == 10
    assert one_norm(Matrix(((-1, 2),))) == 3
    assert one_norm((1, -2, 3)) == 6
    assert one_norm(Vector((Fraction(1, 2), Fraction(1, 2)))) == 1
    assert one_norm(()) == 0


def random_factor(rng, rows, cols, integral, size=9):
    """A seeded random Matrix with negative entries and zeros, one zero row
    when it has more than one, and denominators up to 12 unless integral."""
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        num = rng.randint(-size, size)
        return Fraction(num) if integral else Fraction(num, rng.randint(1, 12))

    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1:
        data[rng.randrange(rows)] = [Fraction(0)] * cols
    return Matrix(tuple(tuple(row) for row in data))


def as_rationals(int_rows):
    return [[Fraction(n, d) for n in nums] for nums, d in int_rows]


@pytest.mark.parametrize("seed", range(30))
def test_mat_mul_hands_on_integer_rows_of_integral_products(seed):
    rng = random.Random(seed)
    p, q, r = (rng.randint(1, 5) for _ in range(3))
    for a_integral in (True, False):
        for b_integral in (True, False):
            a = random_factor(rng, p, q, a_integral)
            b = random_factor(rng, q, r, b_integral)
            product = mat_mul(a, b)
            assert product == oracle_helpers.fraction_mat_mul(a, b)
            integral = all(x.denominator == 1 for row in b.data for x in row)
            # a product of an integral b arrives with its integer rows
            assert ("_int_rows" in product.__dict__) == integral
            assert as_rationals(product._int_rows) == as_rationals(
                _over_common_denominator(product.data)
            )
            if integral:
                assert [d for _, d in product._int_rows] == [d for _, d in a._int_rows]


def test_integral_chain_keeps_the_first_factor_denominators():
    rng = random.Random(2024)
    first = random_factor(rng, 4, 4, integral=False)
    denominators = [d for _, d in first._int_rows]
    assert max(denominators) > 1
    product = reference = first
    for _ in range(200):
        b = random_factor(rng, 4, 4, integral=True, size=2)
        product = mat_mul(product, b)
        reference = oracle_helpers.fraction_mat_mul(reference, b)
        assert [d for _, d in product._int_rows] == denominators
    assert product == reference


@pytest.mark.parametrize("seed", range(10))
def test_one_norm_matches_fraction_sum(seed):
    rng = random.Random(seed)
    for size in (1, 2, 5, 9):
        entries = [
            Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 2**40)) for _ in range(size)
        ]
        entries[rng.randrange(size)] = Fraction(0)
        want = sum((abs(x) for x in entries), Fraction(0))
        assert one_norm(entries) == want
        assert one_norm(Vector(tuple(entries))) == want
        assert one_norm([str(x) for x in entries]) == want
        m = random_factor(rng, 3, size, integral=False)
        assert one_norm(m) == sum((abs(x) for row in m.data for x in row), Fraction(0))


def test_spectral_radius_running():
    est = spectral_radius(RUNNING, Fraction(1, 10**10))
    assert est.converged
    assert float(est.lower) <= RUNNING_RHO <= float(est.upper)
    assert est.upper - est.lower <= Fraction(1, 10**9)
    assert est.value == pytest.approx(RUNNING_RHO, abs=1e-9)


def test_spectral_radius_trivia():
    assert spectral_radius(Matrix.identity(4)).value == pytest.approx(1.0, abs=1e-9)
    assert spectral_radius(Matrix(((1, 1), (1, 1)))).value == pytest.approx(2.0, abs=1e-9)
    assert spectral_radius(Matrix(((0, 1), (1, 0)))).value == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_reducible_paths():
    nilpotent = spectral_radius(Matrix(((0, 1), (0, 0))))
    assert nilpotent.lower == 0
    assert nilpotent.upper <= Fraction(1, 10**9)
    triangular = spectral_radius(Matrix(((2, 5), (0, 3))))
    assert float(triangular.lower) <= 3.0 <= float(triangular.upper)
    assert triangular.upper - triangular.lower <= Fraction(1, 10**9)


def test_spectral_radius_certifies_reducible_matrices_with_huge_entries():
    # the block bounds of the 2^600 block are far wider than tol times
    # 2^200, so the resolvent escalation has to keep doubling past that
    big = 2**600
    m = Matrix(((big, big, 1), (1, big, 0), (0, 0, 1)))
    r = spectral_radius(m)
    assert compare_radius_with_rational(m, r.lower) >= 0
    assert compare_radius_with_rational(m, r.upper) <= 0
    assert certify_radius_lower(m, r.lower, r.witness_lower)
    assert certify_radius_upper(m, r.upper, r.witness_upper)


def test_block_radius_bounds_on_reducible_matrices():
    # sinks first: ((0, 1), (0, 0)) lists block [1] before [0], and ties
    # between blocks name the first
    assert block_radius_bounds(Matrix(((0, 1), (0, 0)))) == (0, 0, [1], [1])
    assert block_radius_bounds(Matrix(((2, 5), (0, 3)))) == (3, 3, [1], [1])
    assert block_radius_bounds(Matrix(((6, 0), (0, 3)))) == (6, 6, [0], [1])
    assert block_radius_bounds(Matrix(((3, 0), (0, 3)))) == (3, 3, [0], [1])
    reducible = [
        # two coupled irreducible 2x2 blocks, radii 1 + sqrt 6 and 3
        (((1, 2, 1, 0), (3, 1, 0, 1), (0, 0, 2, 1), (0, 0, 1, 2)), [0, 1]),
        # the same blocks with the larger one downstream
        (((2, 1, 1, 0), (1, 2, 0, 1), (0, 0, 1, 2), (0, 0, 3, 1)), [2, 3]),
        # a singleton block without a loop feeding a block of radius 1 + sqrt 2
        (((0, 1, 2), (0, 1, 2), (0, 1, 1)), [1, 2]),
        # all three kinds of block in one matrix
        (
            (
                (1, 2, 1, 0, 0),
                (3, 1, 0, 1, 1),
                (0, 0, 2, 1, 0),
                (0, 0, 1, 2, 0),
                (1, 0, 1, 0, 0),
            ),
            [0, 1, 4],
        ),
    ]
    for rows, critical in reducible:
        # as given, with row i over i + 2, and over 7 throughout
        variants = (
            rows,
            [[Fraction(x, i + 2) for x in row] for i, row in enumerate(rows)],
            [[Fraction(x, 7) for x in row] for row in rows],
        )
        for data in variants:
            m = Matrix(tuple(tuple(row) for row in data))
            assert len(support_blocks(m.data)) > 1
            lower, upper, block, _ = block_radius_bounds(m)
            assert compare_radius_with_rational(m, lower) >= 0
            assert compare_radius_with_rational(m, upper) <= 0
            assert upper - lower <= Fraction(1, 10**9)
            # the row scalings move the radii, and the critical block with them
            assert block == critical or data is not rows
            assert compare_radii(principal_submatrix(m, block), m) == 0


# block [1, 2] is ((11, 1), (1, 11 -+ 2^-70)): its float form is ((11, 1),
# (1, 11)), whose iterate stays at the all-ones vector, so its witness ratios
# are the row sums 12 and 12 -+ 2^-70 and its radius lies strictly between
_TINY = Fraction(1, 2**70)


def test_block_radius_bounds_names_the_critical_block_only_when_it_dominates():
    # the point block [0] of radius 12 has the largest lower bound, and the
    # upper bound of the downstream block [1, 2], listed first, touches it
    # from below: the radius is 12, the singleton's
    below = Matrix(((12, 1, 0), (0, 11, 1), (0, 1, 11 - _TINY)))
    assert block_radius_bounds(below) == (12, 12, [0], [1])
    # now block [1, 2] has lower bound 12 too and a radius above 12: the
    # singleton, listed first, ties for the largest lower bound, but an
    # upper bound above it leaves no critical block
    above = Matrix(((12, 0, 0), (1, 11, 1), (0, 1, 11 + _TINY)))
    assert block_radius_bounds(above) == (12, 12 + _TINY, None, None)
    assert compare_radius_with_rational(above, 12) == 1


@st.composite
def bounded_matrices(draw):
    """Non-negative square matrices with rows over different denominators:
    irreducible-looking, reducible, of zero radius, or steep, where a Perron
    entry falls below the 2^-60 grid of the witness."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("rational", "reducible", "zero", "steep")))
    if kind == "steep":
        # rho is about big and the Perron vector about (1, 1 / big)
        big = draw(st.sampled_from((Fraction(10**40), Fraction(2**100), Fraction(10**30, 7))))
        data = [[big, big], [1, 0]] if draw(st.booleans()) else [[1, 1], [1 / big, 0]]
        return Matrix(tuple(tuple(row) for row in data))
    data = []
    for _ in range(n):
        d = draw(st.integers(1, 12))
        data.append([Fraction(draw(st.integers(0, 9)), d) for _ in range(n)])
    if kind == "reducible" and n > 1:
        split = draw(st.integers(1, n - 1))
        data = [
            [0 if i >= split > j else x for j, x in enumerate(row)] for i, row in enumerate(data)
        ]
    elif kind == "zero":
        data = [[x if i < j else 0 for j, x in enumerate(row)] for i, row in enumerate(data)]
    order = draw(st.permutations(range(n)))
    return Matrix(tuple(tuple(data[i][j] for j in order) for i in order))


@settings(max_examples=200, deadline=None)
@given(bounded_matrices())
@example(Matrix(((1, 1), (Fraction(1, 10**40), 0))))
@example(Matrix(((0, 3), (Fraction(1, 2), 0))))
@example(Matrix(((0, 1, 0), (0, 0, 1), (0, 0, 0))))
def test_block_radius_bounds_bracket_the_radius(m):
    lower, upper, critical, witness = block_radius_bounds(m)
    assert type(lower) is Fraction and type(upper) is Fraction
    assert 0 <= lower <= upper
    assert compare_radius_with_rational(m, lower) >= 0
    assert compare_radius_with_rational(m, upper) <= 0
    blocks = support_blocks(m.data)
    if len(blocks) == 1:
        assert critical == blocks[0]
    assert (witness is None) == (critical is None)
    if critical is not None:
        assert critical in blocks
        block = principal_submatrix(m, critical)
        assert compare_radii(block, m) == 0
        # the witness certifies both ends on the critical block itself
        assert certify_radius_lower(block, lower, witness)
        assert certify_radius_upper(block, upper, witness)


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius(Matrix(((1, 2, 3), (4, 5, 6))))
    with pytest.raises(ValueError):
        spectral_radius(Matrix(((-1,),)))
    with pytest.raises(ValueError, match="tolerance must be positive"):
        spectral_radius(RUNNING, 0)


def test_certificates_exact():
    v = (1, 1, 1)
    # row sums are 4, 2, 4: the max bounds from above, the min from below
    assert certify_radius_upper(RUNNING, 4, v)
    assert not certify_radius_upper(RUNNING, Fraction(7, 2), v)
    assert certify_radius_lower(RUNNING, 2, v)
    assert not certify_radius_lower(RUNNING, Fraction(5, 2), v)
    with pytest.raises(ValueError):
        certify_radius_upper(RUNNING, 4, (1, 0, 1))
    with pytest.raises(ValueError):
        certify_radius_lower(RUNNING, 2, (0, 0, 0))


def test_certificate_witnesses_from_estimate():
    est = spectral_radius(RUNNING)
    assert certify_radius_upper(RUNNING, est.upper, est.witness_upper)
    assert certify_radius_lower(RUNNING, est.lower, est.witness_lower)


def _mutual_reach_classes(rows):
    """Blocks by brute force: a breadth-first search from every node, and
    i, j in one class iff each reaches the other."""
    n = len(rows)
    reach = []
    for i in range(n):
        seen, frontier = {i}, [i]
        while frontier:
            frontier = [j for k in frontier for j in range(n) if rows[k][j] > 0 and j not in seen]
            seen.update(frontier)
        reach.append(seen)
    return {frozenset(j for j in reach[i] if i in reach[j]) for i in range(n)}


@st.composite
def support_cases(draw):
    """Square rows of ints, Fractions or floats, n <= 12, whose support is
    random or built from zero rows, self-loops, cycles, chains and the
    diagonal."""
    n = draw(st.integers(1, 12))
    edges = set()
    shapes = st.sampled_from(("random", "zero", "loop", "cycle", "chain", "diagonal"))
    for shape in draw(st.lists(shapes, min_size=1, max_size=4)):
        nodes = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        if shape == "random":
            edges |= {(i, j) for i in nodes for j in nodes if draw(st.booleans())}
        elif shape == "zero":
            edges = {(i, j) for i, j in edges if i not in nodes}
        elif shape == "loop":
            edges |= {(i, i) for i in nodes}
        elif shape == "cycle":
            edges |= set(zip(nodes, nodes[1:] + nodes[:1]))
        elif shape == "chain":
            edges |= set(zip(nodes, nodes[1:]))
        else:
            edges |= {(i, i) for i in range(n)}
    kind = draw(st.sampled_from((int, Fraction, float)))
    one = {int: 3, Fraction: Fraction(2, 7), float: 0.5}[kind]
    return [[one if (i, j) in edges else kind(0) for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(support_cases())
@example([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
@example([[0.0]])
def test_support_blocks_match_mutual_reachability(rows):
    blocks = support_blocks(rows)
    classes = _mutual_reach_classes(rows)
    # a partition into the mutual-reach classes, each ascending
    assert sorted(i for block in blocks for i in block) == list(range(len(rows)))
    assert {frozenset(block) for block in blocks} == classes
    assert all(block == sorted(block) for block in blocks)
    # every edge stays in its block or goes to an earlier one: sinks first
    position = {i: k for k, block in enumerate(blocks) for i in block}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x > 0:
                assert position[j] <= position[i]


def test_spectral_radius_tie_takes_the_first_block_in_support_blocks_order():
    # blocks {0}, {1} and {2} all have radius 0; {1} and {2} reach nothing
    # but themselves and come first, the smaller index ahead
    m = Matrix(((0, 0, 1), (0, 0, 0), (0, 0, 0)))
    assert support_blocks(m.data) == [[1], [2], [0]]
    est = spectral_radius(m)
    assert est.lower == 0
    assert est.witness_lower.entries == (0, 1, 0)
    assert certify_radius_lower(m, est.lower, est.witness_lower)


def test_spectral_radius_names_the_float_range_when_the_iterate_overflows():
    # 2^1023 is a float, but the first product of the iteration is not
    big = 2**1023
    with pytest.raises(ValueError) as exc:
        spectral_radius(Matrix(((big, big), (big, big))))
    assert str(exc.value) == (
        "an entry near 2^1023 is too large for the float iteration, "
        "whose floats end below 2^1024"
    )


def test_spectral_radius_skips_the_whole_matrix_kernel_below_a_lagging_diagonal_row():
    # row 1's only entry, 1, is more than tol below the diagonal entry 2
    est = spectral_radius(Matrix(((2, 0), (0, 1))))
    assert est.iterations == 0
    assert (est.lower, est.upper) == (2, Fraction(40000000001, 20000000000))
    assert est.witness_upper.entries == (20000000000, Fraction(20000000000, 20000000001))
    assert est.converged
    # 19/10 lies within tol = 1/7 of 2, so the whole-matrix witness runs,
    # and it closes
    est = spectral_radius(Matrix(((2, 0), (0, Fraction(19, 10)))), Fraction(1, 7))
    assert est.iterations > 0 and est.converged
    assert (est.lower, est.upper) == (Fraction(19, 10), 2)
    assert est.witness_lower.entries == est.witness_upper.entries == (2**60, 1)


def test_spectral_radius_reads_only_a_whole_matrix_record(monkeypatch):
    from entropygames import linalg

    kernels = []
    real = linalg.power_enclosure

    def counted(*args):
        kernels.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "power_enclosure", counted)
    record = block_radius_bounds(RUNNING)
    kernels.clear()
    est = spectral_radius(RUNNING, _record=record)
    assert kernels == [] and est.iterations == 0
    assert est == dataclasses.replace(spectral_radius(RUNNING), iterations=0)
    reducible = Matrix(((2, 5), (0, 3)))
    ignored = [
        # another tolerance: the kernel would stop elsewhere
        (RUNNING, record, Fraction(1, 10**6)),
        # a critical block that is not every index
        (reducible, block_radius_bounds(reducible), DEFAULT_RADIUS_TOL),
    ]
    for m, given_record, tol in ignored:
        kernels.clear()
        est = spectral_radius(m, tol, _record=given_record)
        assert kernels and est == spectral_radius(m, tol)
    # a whole-matrix record that does not close stands in for the kernel's
    # attempt all the same: the resolvent route starts from its witness
    steep = Matrix(((2**400, 1), (1, 1)))
    record = block_radius_bounds(steep)
    assert record[1] - record[0] > DEFAULT_RADIUS_TOL
    kernels.clear()
    est = spectral_radius(steep, _record=record)
    assert kernels == [] and est.iterations == 0 and not est.converged
    assert est == dataclasses.replace(spectral_radius(steep), iterations=0)


def _lagging_row(m: Matrix, tol: Fraction) -> bool:
    """True when some row of m is zero off its diagonal, and that diagonal
    entry lies more than tol below the largest diagonal entry."""
    top = max(m.data[i][i] for i in range(m.rows))
    return any(
        row[i] < top - tol and all(x == 0 for j, x in enumerate(row) if j != i)
        for i, row in enumerate(m.data)
    )


@st.composite
def lagging_row_cases(draw):
    """A reducible matrix of order 2 to 5: random rows, some of them cut
    down to their diagonal entry, with rows and columns permuted, and a
    tolerance."""
    n = draw(st.integers(2, 5))
    entry = st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 1, 2, 5)))
    data = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1)):
        data[i] = [x if j == i else 0 for j, x in enumerate(data[i])]
    order = draw(st.permutations(range(n)))
    m = Matrix(tuple(tuple(data[i][j] for j in order) for i in order))
    tol = draw(st.sampled_from((Fraction(1, 10**10), Fraction(1, 1000), Fraction(1, 7))))
    return m, tol


@settings(max_examples=100, deadline=None)
@given(lagging_row_cases())
@example((Matrix(((2, 0), (0, 1))), Fraction(1, 10**10)))
@example((Matrix(((2, 0), (0, Fraction(19, 10)))), Fraction(1, 7)))
@example((Matrix(((2, 1, 0), (1, 0, 0), (0, 0, 1))), Fraction(1, 1000)))
def test_spectral_radius_skips_only_whole_matrix_kernels_that_cannot_close(case):
    m, tol = case
    # the whole-matrix witness is the one call over range(n); the per-block
    # pass calls it over lists
    with mock.patch("entropygames.linalg._dyadic_witness", wraps=_dyadic_witness) as spy:
        r = spectral_radius(m, tol)
    whole_ran = any(isinstance(call.args[1], range) for call in spy.call_args_list)
    assert whole_ran != _lagging_row(m, tol)
    assert certify_radius_lower(m, r.lower, r.witness_lower)
    assert certify_radius_upper(m, r.upper, r.witness_upper)
    if not whole_ran:
        # the skip is sound: the whole-matrix witness would not have closed
        _, lo, hi, _ = _dyadic_witness(m, range(m.rows), float(tol) / 4)
        assert Fraction(*hi) - Fraction(*lo) > tol


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_enclosure_contains_numpy_radius(n, rng):
    entries = [[Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    m = Matrix(tuple(tuple(row) for row in entries))
    est = spectral_radius(m, Fraction(1, 10**8))
    reference = max(abs(np.linalg.eigvals(np.array(m.to_floats()))))
    assert float(est.lower) <= reference + 1e-6
    assert float(est.upper) >= reference - 1e-6


@st.composite
def enclosure_cases(draw):
    """A non-negative square matrix of order at most 5, of one of the kinds
    the witness route must certify, with its rows and columns permuted, and
    a tolerance."""
    kind = draw(st.sampled_from(
        ("block-triangular", "nilpotent", "zero", "tied diagonal", "permutation",
         "rational perron", "huge")
    ))
    small = st.builds(Fraction, st.integers(0, 9), st.integers(1, 12))
    if kind == "rational perron":
        # rho = 12 with Perron vector (1, 2) / 3, which no dyadic grid holds
        data = [[8, 2], [16, 4]]
    elif kind == "permutation":
        n = draw(st.integers(1, 5))
        scale = draw(small.filter(bool))
        data = [[scale if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    elif kind == "zero":
        n = draw(st.integers(1, 5))
        data = [[0] * n for _ in range(n)]
    elif kind == "huge":
        # integer entries near 2^600, inside the float range; order 3 at most
        # keeps the Sturm checks of the assertions quick
        n = draw(st.integers(1, 3))
        data = [[draw(st.integers(0, 9)) << (600 * draw(st.integers(0, 1))) for _ in range(n)]
                for _ in range(n)]
    else:
        n = draw(st.integers(2 if kind == "block-triangular" else 1, 5))
        data = [[draw(small) for _ in range(n)] for _ in range(n)]
        if kind == "block-triangular":
            split = draw(st.integers(1, n - 1))
            data = [[0 if i >= split > j else x for j, x in enumerate(row)]
                    for i, row in enumerate(data)]
        elif kind == "nilpotent":
            data = [[x if i < j else 0 for j, x in enumerate(row)] for i, row in enumerate(data)]
        elif kind == "tied diagonal":
            # one equal diagonal entry per singleton block, coupled upstream
            top = draw(small)
            data = [[x if i < j else top if i == j else 0 for j, x in enumerate(row)]
                    for i, row in enumerate(data)]
    order = draw(st.permutations(range(len(data))))
    m = Matrix(tuple(tuple(data[i][j] for j in order) for i in order))
    tol = draw(st.sampled_from((Fraction(1, 10**10), Fraction(1, 1000), Fraction(1, 7))))
    return m, tol


@settings(max_examples=150, deadline=None)
@given(enclosure_cases())
@example((Matrix(((8, 2), (16, 4))), Fraction(1, 10**10)))
@example((Matrix(((2**600, 2**600, 1), (1, 2**600, 0), (0, 0, 1))), Fraction(1, 10**10)))
@example((Matrix(((3, 0), (0, 2))), Fraction(1, 10**10)))
def test_spectral_radius_witnesses_certify_exact_enclosures(case):
    m, tol = case
    r = spectral_radius(m, tol)
    assert certify_radius_lower(m, r.lower, r.witness_lower)
    assert certify_radius_upper(m, r.upper, r.witness_upper)
    assert compare_radius_with_rational(m, r.lower) >= 0
    assert compare_radius_with_rational(m, r.upper) <= 0
    # the lower witness is a dyadic-witness vector, extended by zeros
    assert all(x.denominator == 1 for x in r.witness_lower)
    if r.converged:
        assert r.width() <= tol


RESOLVENT_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(lambda x, d: Fraction(x * 2**600 + 1, d), st.integers(-9, 9), st.integers(1, 12)),
)


@st.composite
def resolvent_cases(draw):
    """(m, r) with r sometimes a diagonal entry of m: a zero leading pivot,
    or an eigenvalue once that row is zero off its diagonal."""
    n = draw(st.integers(1, 4))
    m = draw(matrices(n, n, RESOLVENT_ENTRIES))
    i = draw(st.integers(0, n - 1))
    r = draw(st.one_of(
        RESOLVENT_ENTRIES.map(Fraction),
        st.fractions(min_value=0, max_value=10, max_denominator=10**6),
        st.just(m.data[i][i]),
    ))
    if draw(st.booleans()):
        rows = [list(row) for row in m.data]
        rows[i] = [x if j == i else 0 for j, x in enumerate(rows[i])]
        m = Matrix(tuple(map(tuple, rows)))
    return m, r


@settings(max_examples=300, deadline=None)
@given(resolvent_cases())
@example((Matrix(((1, 1), (1, 1))), Fraction(2)))  # r an eigenvalue
@example((Matrix(((2, 1), (1, 0))), Fraction(2)))  # a zero leading pivot
@example((Matrix(((2, 1), (1, 2))), Fraction(1)))  # r below rho
@example((Matrix(((Fraction(7, 3),),)), Fraction(1, 2)))
def test_resolvent_matches_fraction_gauss_jordan(case):
    m, r = case
    rows = [[(r if i == j else 0) - x for j, x in enumerate(row)] for i, row in enumerate(m.data)]
    want = oracle_helpers.fraction_solve_exact(rows, [Fraction(1)] * m.rows)
    got = _resolvent(m, r)
    assert got == want
    assert got is None or all_fractions(got)


def test_resolvent_on_named_cases():
    assert _resolvent(Matrix(((1, 1), (1, 1))), Fraction(2)) is None
    # 2I - m = ((0, -1), (-1, 2)) needs a row swap
    assert _resolvent(Matrix(((2, 1), (1, 0))), Fraction(2)) == [Fraction(-3), Fraction(-1)]
    assert _resolvent(Matrix(((3,),)), Fraction(3)) is None
    assert _resolvent(Matrix(((3,),)), Fraction(7, 2)) == [Fraction(2)]


def test_pivot_checks_its_divisions():
    rows = [[2, 1, 1], [1, 1, 1]]
    assert _pivot([row[:] for row in rows], 0, 0, 1) == 2
    # rows over a wrong d leave a remainder, which is raised, never rounded
    with pytest.raises(ArithmeticError, match="remainder"):
        _pivot([row[:] for row in rows], 0, 0, 3)
