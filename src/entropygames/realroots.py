"""Exact comparison of spectral radii via characteristic polynomials.

For non-negative square matrices the spectral radius is itself an eigenvalue
and is the largest real root of the characteristic polynomial.  That turns
"is rho(P) < rho(Q)?" into a question about largest real roots of two
rational polynomials, decidable exactly with Sturm chains: isolate each
largest root in a rational interval, shrink the intervals until they
separate, and detect genuine ties by checking whether the gcd of the two
(square-free) polynomials has a root in the overlap.

Polynomials are coefficient lists of Fractions, lowest degree first.
``charpoly`` computes them over Python ints, by Faddeev-LeVerrier on the
matrix scaled to integer entries, and rescales the coefficients at the end;
the Sturm arithmetic runs over Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import Matrix, _combine, _fraction, block_radius_bounds, rat

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
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and poly_trim(r):
        r = poly_trim(r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = poly_trim(r)
    return poly_trim(q), poly_trim(r)


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


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    if a >= b:
        return 0
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B]."""
    p = poly_trim(list(p))
    lead = abs(p[-1])
    if len(p) == 1:
        return Fraction(1)
    return 1 + max(abs(c) for c in p[:-1]) / lead


def isolate_largest_root(p: Poly):
    """Isolating interval (lo, hi] for the largest real root of a square-free
    p, or None when p has no real root.  No root lies above hi."""
    p = poly_trim(list(p))
    chain = sturm_chain(p)
    bound = root_bound(p)
    lo, hi = -bound, bound
    if count_roots(chain, lo, hi) == 0:
        return None
    # shrink from the left while keeping >= 1 root above lo and none above hi
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


def compare_largest_root_with_rational(p: Poly, r) -> int:
    """Sign of (largest real root of p) - r.  Raises when p has no real
    root."""
    r = rat(r)
    ps = square_free(p)
    iso = isolate_largest_root(ps)
    if iso is None:
        raise ValueError("polynomial has no real root")
    chain, lo, hi = iso
    if poly_eval(ps, r) == 0:
        # r is a root; it is the largest one exactly when nothing lies above
        return 1 if count_roots(chain, r, hi if hi > r else r + 1) > 0 else 0
    while lo < r <= hi:
        lo, hi = _refine(chain, lo, hi)
    return 1 if r <= lo else -1


def compare_largest_roots(p: Poly, q: Poly) -> int:
    """Sign of (largest real root of p) - (largest real root of q), exact.

    Ties are detected through gcd(p, q): if the two isolating intervals keep
    overlapping, the shared root must be a root of the gcd inside the
    overlap, and conversely."""
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
                # a common root inside both isolating intervals equals both
                # largest roots
                return 0
        plo, phi = _refine(chain_p, plo, phi)
        qlo, qhi = _refine(chain_q, qlo, qhi)


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
    without root isolation."""
    if p_matrix.data == q_matrix.data:
        return 0
    p, q = charpoly(p_matrix), charpoly(q_matrix)
    return 0 if p == q else compare_largest_roots(p, q)


def compare_radii_enclosed(cache: dict, p_matrix: Matrix, q_matrix: Matrix) -> int:
    """Sign of rho(P) - rho(Q) for non-negative square matrices, exact.

    Per-block enclosures (``block_radius_bounds``, kept in ``cache`` under
    the matrix's integer rows, which hash faster than its Fractions) settle
    the comparison when they separate, or when both are the same single
    point; otherwise compare_radii decides it."""
    if p_matrix.data == q_matrix.data:
        return 0
    p_lo, p_hi = _cached_bounds(cache, p_matrix)
    q_lo, q_hi = _cached_bounds(cache, q_matrix)
    if p_hi < q_lo:
        return -1
    if p_lo > q_hi:
        return 1
    if p_lo == p_hi == q_lo == q_hi:
        return 0
    return compare_radii(p_matrix, q_matrix)


def _cached_bounds(cache: dict, m: Matrix) -> tuple[Fraction, Fraction]:
    # the integer rows determine the matrix; a product whose rows mat_mul
    # primed over a larger denominator only misses an equal matrix's entry
    bounds = cache.get(m._int_rows)
    if bounds is None:
        bounds = cache[m._int_rows] = block_radius_bounds(m)
    return bounds


def compare_radius_with_rational(m: Matrix, r) -> int:
    """Sign of rho(m) - r for a non-negative square matrix, exact."""
    return compare_largest_root_with_rational(charpoly(m), r)


def bisect_radius(m: Matrix, lower, upper, tol) -> tuple[Fraction, Fraction, int]:
    """Halve [lower, upper) around rho(m) until it is at most tol wide.

    Needs lower <= rho(m) < upper for a non-negative square m, checks it
    exactly before the first halving (a bracket that misses rho raises
    ValueError), and keeps that invariant: a midpoint equal to rho goes to
    lower.  A bracket with ends on the grid of a step s and a width of s
    times a power of two keeps its ends on that grid while it is halved
    down to s; value_bisection passes such a bracket, rounded out from a
    certified enclosure of rho, and often needs no halving.  The
    square-free Sturm chain of the characteristic polynomial is built once;
    since rho is its largest real root, rho >= x exactly when x is a root or
    some root lies above x.  Returns (lower, upper, halvings)."""
    lower, upper, tol = rat(lower), rat(upper), rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p = square_free(charpoly(m))
    chain = sturm_chain(p)
    above_all = _sign_variations(chain, root_bound(p))

    def at_most_rho(x: Fraction) -> bool:
        return poly_eval(p, x) == 0 or _sign_variations(chain, x) > above_all

    if not at_most_rho(lower) or at_most_rho(upper):
        raise ValueError("the bracket must satisfy lower <= rho < upper")
    steps = 0
    while upper - lower > tol:
        mid = (lower + upper) / 2
        if at_most_rho(mid):
            lower = mid
        else:
            upper = mid
        steps += 1
    return lower, upper, steps
