"""Exact comparison of spectral radii via characteristic polynomials.

For non-negative square matrices the spectral radius is itself an eigenvalue
and is the largest real root of the characteristic polynomial.  Every exact
radius question here goes through one Sturm query, built once per
polynomial from its square-free part: how many distinct roots lie above x,
and so the sign of rho - x, with no root isolation.
``compare_radius_with_rational`` is one sign; ``bisect_radius`` halves a
bracket on signs; ``compare_radii`` halves one bracket around both radii
until a midpoint separates them, and detects a tie it can never split
through the gcd of the two polynomials.  ``compare_radii_enclosed`` asks
the per-block enclosures of ``linalg.block_radius_bounds`` first, and
hands compare_radii only the critical blocks they name, whose radii are
the matrices' (Rothblum, "Multiplicative Markov decision chains", 1984):
a reducible pair that shares its critical block ties there on equal data,
with no polynomial at all.  The comparison cache is this module's: one
record per matrix, block_radius_bounds' (lower, upper, critical,
witness), read through ``cached_bounds``, where ``decide`` also finds a
block centre's witness.

Polynomials are coefficient lists of Fractions, lowest degree first.
``charpoly`` computes them over Python ints, by Faddeev-LeVerrier on the
matrix scaled to integer entries, and rescales the coefficients at the end;
the Sturm arithmetic runs over Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import Matrix, _combine, _fraction, block_radius_bounds, principal_submatrix, rat

Poly = list


def poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_degree(p: Poly) -> int:
    return len(p) - 1


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    return [c * k for k, c in enumerate(p)][1:]


def poly_neg(p: Poly) -> Poly:
    return [-c for c in p]


def poly_monic(p: Poly) -> Poly:
    p = poly_trim(list(p))
    if not p:
        return p
    lead = p[-1]
    return [c / lead for c in p]


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    r = poly_trim(list(a))
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    while r and len(r) >= len(b):
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = poly_trim(r)
    # r stays trimmed, and q's top entry is a[-1] / b[-1] when q has one
    return q, r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via Euclid; intermediate remainders are made monic to keep
    coefficient growth in check."""
    a = poly_monic(a)
    b = poly_monic(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, poly_monic(r)
    return a


def square_free(p: Poly) -> Poly:
    """p / gcd(p, p'): same roots, all simple.  Sturm counting below assumes
    this form."""
    p = poly_trim(list(p))
    d = poly_derivative(p)
    if not poly_trim(d):
        return poly_monic(p)
    g = poly_gcd(p, d)
    if poly_degree(g) == 0:
        return poly_monic(p)
    q, r = poly_divmod(p, g)
    if poly_trim(r):
        raise ArithmeticError("gcd does not divide its polynomial")
    return poly_monic(q)


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [poly_trim(list(p))]
    d = poly_trim(poly_derivative(p))
    if d:
        chain.append(d)
        while True:
            _, r = poly_divmod(chain[-2], chain[-1])
            r = poly_trim(r)
            if not r:
                break
            chain.append(poly_neg(r))
    return chain


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound B: all real roots lie in (-B, B)."""
    p = poly_trim(list(p))
    lead = abs(p[-1])
    if len(p) == 1:
        return Fraction(1)
    return 1 + max(abs(c) for c in p[:-1]) / lead


class _Roots:
    """The distinct real roots of a polynomial, counted by the Sturm chain of
    its square-free part: with V(x) the chain's sign variations at x,
    V(a) - V(b) of them lie in (a, b], and all of them in (-B, B) for the
    Cauchy bound B, so V(x) - V(B) lie above x."""

    def __init__(self, p: Poly):
        self.poly = square_free(p)
        self.chain = sturm_chain(self.poly)
        self.bound = root_bound(self.poly)
        self._top = _sign_variations(self.chain, self.bound)
        self.count = _sign_variations(self.chain, -self.bound) - self._top

    def above(self, x: Fraction) -> int:
        """The number of distinct real roots above x."""
        return _sign_variations(self.chain, x) - self._top

    def sign(self, x: Fraction) -> int:
        """Sign of rho - x, for rho the largest real root: one chain
        evaluation and at most one of the polynomial, no isolation.  Raises
        when there is no real root."""
        if self.above(x) > 0:
            return 1
        if not self.count:
            raise ValueError("polynomial has no real root")
        return 0 if poly_eval(self.poly, x) == 0 else -1


def charpoly(m: Matrix) -> Poly:
    """Characteristic polynomial det(x I - m), returned lowest-degree-first
    with leading coefficient 1, as Fractions.

    Faddeev-LeVerrier runs over the integer matrix N = D m, where D is the
    lcm of the denominators of m's integer rows: N_1 = N, c_k = -tr(N_k) / k
    and N_{k+1} = N (N_k + c_k I).  The c_k are the coefficients of
    det(x I - N), an integer matrix's characteristic polynomial, so every
    trace is divisible by its k and each N_k stays integral; a remainder
    raises ArithmeticError rather than be rounded away.  Since det(x I - m)
    = D^-n det(D x I - N), the coefficient of x^(n-k) is c_k / D^k."""
    if not m.is_square:
        raise ValueError("characteristic polynomial needs a square matrix")
    n = m.rows
    rows = m._int_rows
    scale = math.lcm(*[d for _, d in rows])
    big_n = [nums if d == scale else tuple(x * (scale // d) for x in nums) for nums, d in rows]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [list(row) for row in big_n]
    power = 1
    for k in range(1, n + 1):
        ck, remainder = divmod(-sum(mk[i][i] for i in range(n)), k)
        if remainder:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible by its step")
        power *= scale
        coeffs[n - k] = _fraction(ck, power)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = [_combine(row, mk, n) for row in big_n]
    return coeffs


def compare_radii(p_matrix: Matrix, q_matrix: Matrix) -> int:
    """Sign of rho(P) - rho(Q) for non-negative square matrices, exact.

    Equal characteristic polynomials mean equal spectra, a tie settled
    without Sturm counting.  Otherwise one bracket (lo, hi) around both
    radii is halved until the signs of rho(P) - mid and rho(Q) - mid
    differ, or are both 0.  A tie that no midpoint hits never splits: once
    each polynomial has exactly one root above lo, its radius, a root of
    their gcd above lo is both radii."""
    if p_matrix.data == q_matrix.data:
        return 0
    p, q = charpoly(p_matrix), charpoly(q_matrix)
    if p == q:
        return 0
    p_roots, q_roots = _Roots(p), _Roots(q)
    g = poly_gcd(p_roots.poly, q_roots.poly)
    g_roots = _Roots(g) if poly_degree(g) >= 1 else None
    hi = max(p_roots.bound, q_roots.bound)
    lo = -hi
    while True:
        mid = (lo + hi) / 2
        p_sign, q_sign = p_roots.sign(mid), q_roots.sign(mid)
        if p_sign != q_sign:
            return 1 if p_sign > q_sign else -1
        if p_sign == 0:
            return 0
        if p_sign < 0:
            hi = mid
            continue
        lo = mid
        if (
            g_roots is not None
            and g_roots.above(lo)
            and p_roots.above(lo) == q_roots.above(lo) == 1
        ):
            return 0


def compare_radii_enclosed(cache: dict, p_matrix: Matrix, q_matrix: Matrix) -> int:
    """Sign of rho(P) - rho(Q) for non-negative square matrices, exact.

    Each matrix's record (``cached_bounds``) settles the comparison when
    the enclosures separate, or when both are the same single point.
    Otherwise compare_radii decides it on each matrix's critical block,
    whose radius is the matrix's, where the records name one: a reducible
    pair that differs only outside a shared critical block ties on equal
    data, and any other pair runs Sturm on smaller matrices."""
    if p_matrix.data == q_matrix.data:
        return 0
    p_lo, p_hi, p_block, _ = cached_bounds(cache, p_matrix)
    q_lo, q_hi, q_block, _ = cached_bounds(cache, q_matrix)
    if p_hi < q_lo:
        return -1
    if p_lo > q_hi:
        return 1
    if p_lo == p_hi == q_lo == q_hi:
        return 0
    return compare_radii(_critical(p_matrix, p_block), _critical(q_matrix, q_block))


def _critical(m: Matrix, block) -> Matrix:
    """m's principal submatrix on its critical block, or m itself when it
    has none or is irreducible."""
    if block is None or len(block) == m.rows:
        return m
    return principal_submatrix(m, block)


def cached_bounds(
    cache: dict, m: Matrix
) -> tuple[Fraction, Fraction, list[int] | None, list[int] | None]:
    """m's radius record, ``block_radius_bounds(m)``: (lower, upper,
    critical, witness), computed once per cache.  A comparison cache holds
    these records and nothing else, each under the matrix's integer rows,
    which determine it and hash faster than its Fractions; a product whose
    rows mat_mul primed over a larger denominator only misses an equal
    matrix's record.  A matrix beyond the float range raises ValueError and
    leaves no record."""
    record = cache.get(m._int_rows)
    if record is None:
        record = cache[m._int_rows] = block_radius_bounds(m)
    return record


def recorded_bounds(cache: dict, m: Matrix):
    """m's radius record when ``cached_bounds`` has stored one in cache, and
    None otherwise: a lookup under the same key, computing nothing."""
    return cache.get(m._int_rows)


def compare_radius_with_rational(m: Matrix, r) -> int:
    """Sign of rho(m) - r for a non-negative square matrix, exact."""
    return _Roots(charpoly(m)).sign(rat(r))


def bisect_radius(m: Matrix, lower, upper, tol) -> tuple[Fraction, Fraction, int]:
    """Halve [lower, upper) around rho(m) until it is at most tol wide.

    Needs lower <= rho(m) < upper for a non-negative square m, checks it
    exactly before the first halving (a bracket that misses rho raises
    ValueError), and keeps that invariant: a midpoint equal to rho goes to
    lower.  A bracket with ends on the grid of a step s and a width of s
    times a power of two keeps its ends on that grid while it is halved
    down to s; value_bisection passes such a bracket, rounded out from a
    certified enclosure of rho, when it is wider than tol.  Returns
    (lower, upper, halvings)."""
    lower, upper, tol = rat(lower), rat(upper), rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    roots = _Roots(charpoly(m))
    if roots.sign(lower) < 0 or roots.sign(upper) >= 0:
        raise ValueError("the bracket must satisfy lower <= rho < upper")
    steps = 0
    while upper - lower > tol:
        mid = (lower + upper) / 2
        if roots.sign(mid) >= 0:
            lower = mid
        else:
            upper = mid
        steps += 1
    return lower, upper, steps
