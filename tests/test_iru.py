from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _frozen as frozen
from entropygames import iru
from entropygames.decide import jsr_jssr
from entropygames.iru import (
    EnumerationCapError,
    IruSet,
    RowSet,
    enumerate_members,
    hourglass_check,
    iru_set,
    right_product,
)
from entropygames.linalg import Matrix, mat_mul, mat_vec, spectral_radius

A_SET = iru_set(frozen.FIG1_A_ROW_SETS)
E_SET = iru_set(frozen.FIG1_E_ROW_SETS)


def test_row_set_canonicalisation():
    rs = RowSet(((1, 0), (0, 1), (1, 0)))
    assert rs.rows == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert rs.size == 2 and rs.dim == 2
    assert (1, 0) in rs and (2, 2) not in rs


def test_row_set_rejects_bad_rows():
    with pytest.raises(ValueError):
        RowSet(())
    with pytest.raises(ValueError):
        RowSet(((1, 0), (1,)))
    with pytest.raises(ValueError):
        RowSet(((-1, 0),))


def test_iru_set_shape_and_membership():
    assert A_SET.n_rows == 3 and A_SET.n_cols == 3 and A_SET.is_square
    assert A_SET.size == 2
    saddle = Matrix(frozen.SADDLE_A0)
    assert A_SET.contains_matrix(saddle)
    assert not A_SET.contains_matrix(Matrix.identity(3))
    member = A_SET.member((0, 1, 0))
    assert member == saddle


def test_enumerate_members_lex_and_count():
    members = list(enumerate_members(A_SET))
    assert len(members) == 2
    choices = [tuple(m.row(1)) for m in members]
    assert choices == [(Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(1))]


def test_enumeration_cap(monkeypatch):
    big = iru_set([[(1, 0), (0, 1)] for _ in range(2)])
    monkeypatch.setattr(iru, "ENUM_CAP", 3)
    with pytest.raises(EnumerationCapError, match="^4 members exceed the enumeration cap of 3$"):
        list(enumerate_members(big))
    with pytest.raises(EnumerationCapError, match="^a step: 4 members exceed"):
        list(enumerate_members(big, "a step"))
    # the climbs of jsr_jssr start from ((0, 1), (0, 1)), which is reducible
    # on the one block of the rows' union support, so they scan its members
    with pytest.raises(
        EnumerationCapError,
        match="^reducible centre on the jsr climb: 4 members exceed the enumeration cap of 3$",
    ):
        jsr_jssr(big)
    monkeypatch.setattr(iru, "ENUM_CAP", 4)
    assert len(list(enumerate_members(big))) == 4
    assert jsr_jssr(big).jsr.lower == 1


def test_right_product_frozen():
    prod = right_product(E_SET, Matrix(frozen.SADDLE_A0))
    expect = iru_set(frozen.EVE_TIMES_A0_ROW_SETS)
    assert prod == expect


def test_right_product_members_are_products():
    a0 = Matrix(frozen.SADDLE_A0)
    prod = right_product(E_SET, a0)
    products = {mat_mul(e, a0).data for e in enumerate_members(E_SET)}
    members = {m.data for m in enumerate_members(prod)}
    assert members == products


def test_jsr_jssr_running():
    pair = jsr_jssr(A_SET)
    assert pair.jsr.lower <= frozen.RUNNING_A_JSR <= pair.jsr.upper
    assert pair.jssr.lower <= frozen.RUNNING_A_JSSR <= pair.jssr.upper
    assert abs(pair.jsr.value - frozen.RUNNING_A_JSR) < 1e-8
    assert abs(pair.jssr.value - frozen.RUNNING_A_JSSR) < 1e-8
    # extremes are attained at members
    assert A_SET.contains_matrix(pair.argmax)
    assert A_SET.contains_matrix(pair.argmin)
    est = spectral_radius(pair.argmax)
    assert abs(est.value - frozen.RUNNING_A_JSR) < 1e-8


def test_jsr_jssr_two_by_two():
    s = iru_set([[(2, 0), (0, 1)], [(0, 2), (1, 0)]])
    pair = jsr_jssr(s)
    assert pair.jsr.lower <= frozen.TWO_BY_TWO_JSR <= pair.jsr.upper
    assert abs(pair.jsr.value - frozen.TWO_BY_TWO_JSR) < 1e-8


def test_jsr_jssr_certifies_only_the_winners(monkeypatch):
    from entropygames import decide

    certified = []

    def counted(m, tol):
        certified.append(m)
        return spectral_radius(m, tol)

    monkeypatch.setattr(decide, "spectral_radius", counted)
    s = iru_set([[(2, 0), (0, 1), (1, 1)], [(0, 2), (1, 0), (1, 1)]])
    pair = jsr_jssr(s)
    assert s.size == 9
    assert certified == [pair.argmax, pair.argmin]
    # one member is both extremes and is certified once
    certified.clear()
    single = iru_set([[(2, 1)], [(1, 3)]])
    pair = jsr_jssr(single)
    assert certified == [pair.argmax] and pair.jsr is pair.jssr


def test_hourglass_directions():
    u = (1, 1, 1)
    w = A_SET.member((0, 0, 0))
    v = mat_vec(w, u)
    report = hourglass_check(A_SET, u, v, w)
    # each clause is an exclusive alternative
    assert report.all_ge != (report.below_member is not None)
    assert report.all_le != (report.above_member is not None)
    # and matches brute-force enumeration of the uniform statements
    ge = all(
        all(x >= y for x, y in zip(mat_vec(m, u), v))
        for m in enumerate_members(A_SET)
    )
    le = all(
        all(x <= y for x, y in zip(mat_vec(m, u), v))
        for m in enumerate_members(A_SET)
    )
    assert report.all_ge == ge
    assert report.all_le == le


def test_hourglass_witnesses_verify():
    u = (1, 2, 1)
    w = A_SET.member((0, 1, 0))
    v = mat_vec(w, u)
    report = hourglass_check(A_SET, u, v, w)
    if report.below_member is not None:
        assert A_SET.contains_matrix(report.below_member)
        img = mat_vec(report.below_member, u)
        # one-row modification: strictly below in one coordinate, equal elsewhere
        diffs = [i for i in range(3) if img[i] != v[i]]
        assert len(diffs) == 1 and img[diffs[0]] < v[diffs[0]]
    if report.above_member is not None:
        assert A_SET.contains_matrix(report.above_member)
        img = mat_vec(report.above_member, u)
        diffs = [i for i in range(3) if img[i] != v[i]]
        assert len(diffs) == 1 and img[diffs[0]] > v[diffs[0]]


def test_hourglass_rejects_negative_u():
    w = A_SET.member((0, 0, 0))
    with pytest.raises(ValueError):
        hourglass_check(A_SET, (1, -1, 1), (1, 1, 1), w)
    # witness image must actually equal v
    u = (1, 1, 1)
    bad_v = tuple(x + 1 for x in mat_vec(w, u))
    with pytest.raises(ValueError):
        hourglass_check(A_SET, u, bad_v, w)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_jsr_is_max_member_radius(rng):
    n = rng.randint(1, 3)
    row_sets = []
    for _ in range(n):
        k = rng.randint(1, 3)
        row_sets.append([tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(k)])
    s = iru_set(row_sets)
    pair = jsr_jssr(s)
    for member in enumerate_members(s):
        est = spectral_radius(member)
        assert est.lower <= pair.jsr.upper
        assert est.upper >= pair.jssr.lower
