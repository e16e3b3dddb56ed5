import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropygames.linalg import Matrix
from entropygames.realroots import (
    bisect_radius,
    charpoly,
    compare_largest_root_with_rational,
    compare_largest_roots,
    compare_radii,
    compare_radii_enclosed,
    compare_radius_with_rational,
    count_roots,
    isolate_largest_root,
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
    # roots of x^2 - 1 are -1 and 1; the interval convention is (a, b]
    p = [Fraction(-1), Fraction(0), Fraction(1)]
    chain = sturm_chain(square_free(p))
    assert count_roots(chain, Fraction(-2), Fraction(2)) == 2
    assert count_roots(chain, Fraction(0), Fraction(1)) == 1
    assert count_roots(chain, Fraction(1), Fraction(2)) == 0
    assert count_roots(chain, Fraction(-1), Fraction(1)) == 1


def test_isolate_largest_root():
    p = charpoly(RUNNING)
    chain, lo, hi = isolate_largest_root(p)
    root = (3 + math.sqrt(17)) / 2
    assert float(lo) < root < float(hi) or float(hi) == pytest.approx(root)
    assert count_roots(chain, lo, hi) == 1


def test_isolate_largest_root_none_for_rootless():
    # x^2 + 1 has no real roots
    assert isolate_largest_root([Fraction(1), Fraction(0), Fraction(1)]) is None


def test_compare_largest_roots_strict_and_tie():
    p = [Fraction(-2), Fraction(0), Fraction(1)]  # roots +-sqrt(2)
    q = [Fraction(-3), Fraction(0), Fraction(1)]  # roots +-sqrt(3)
    assert compare_largest_roots(p, q) == -1
    assert compare_largest_roots(q, p) == 1
    assert compare_largest_roots(p, list(p)) == 0
    # same largest root sqrt(2) through different polynomials
    r = [Fraction(0), Fraction(-2), Fraction(0), Fraction(1)]  # x(x^2-2)
    assert compare_largest_roots(p, r) == 0


def test_compare_largest_root_with_rational():
    p = [Fraction(-2), Fraction(0), Fraction(1)]
    assert compare_largest_root_with_rational(p, Fraction(1)) == 1
    assert compare_largest_root_with_rational(p, Fraction(2)) == -1
    q = [Fraction(-4), Fraction(0), Fraction(1)]
    assert compare_largest_root_with_rational(q, Fraction(2)) == 0


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

    monkeypatch.setattr(realroots, "compare_radii", refuse)
    cache: dict = {}
    diag = Matrix(((6, 0), (0, 3)))
    assert compare_radii_enclosed(cache, diag, Matrix(((3, 0), (0, 6)))) == 0
    assert compare_radii_enclosed(cache, diag, Matrix(((2, 5), (0, 3)))) == 1
    assert compare_radii_enclosed(cache, Matrix(((0, 1), (0, 0))), RUNNING) == -1
    assert diag.data in cache


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


def test_compare_radii_enclosed_falls_back_when_enclosures_overlap():
    # valid but loose enclosures that touch at 3: only Sturm tells 3 from 4
    p, q = Matrix(((3, 0), (0, 0))), Matrix(((3, 1), (1, 3)))
    cache = {p.data: (Fraction(3), Fraction(3)), q.data: (Fraction(3), Fraction(4))}
    assert compare_radii_enclosed(cache, p, q) == -1
    assert compare_radii_enclosed(cache, q, p) == 1
