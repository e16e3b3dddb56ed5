"""LP-backed decision procedures for extremal spectral radii.

For a square IruSet S with row sets S_1..S_n and a rational threshold alpha,
the two primitive questions are

* ``jsr(S) < alpha``: certified by a positive vector v with r . v < alpha v_i
  for every candidate row r of every row set i (a strict common
  contraction);
* ``jssr(S) >= alpha``: certified by a non-negative non-zero v with
  r . v >= alpha v_i for all candidate rows (a common expansion).

Both are single LPs thanks to the independent-row structure; strictness is
encoded by maximising a slack variable (for the first) or by pinning one
coordinate of v to at least 1 (for the second).  The non-strict variant of
the first and the strict variant of the second hold with the analogous
non-strict/strict systems only for strictly positive sets, and the
procedures refuse to answer otherwise.

Matrix multiplication game thresholds reduce to these: the minimising player
can commit to one matrix choice, and for a fixed choice the product set is
again an IruSet by ``right_product``.  Certificates carry the chosen matrix
so verification stays a one-pass exact check.

The game value itself comes from a saddle point of rho(A E) over the
members (``find_saddle``): the value is the radius of the saddle product,
bracketed by Sturm bisection and certified at each end by the two
committed-strategy LPs.  The saddle search is block-aware.  A float table,
read per strongly connected block of each product, suggests the likely
cells.  Exact comparisons confirm them: per-block Collatz-Wielandt
enclosures first, Sturm counting when two enclosures overlap
(``realroots.compare_radii_enclosed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import realroots
from .iru import IruSet, RowSet, enumerate_members, right_product
from .linalg import (
    Matrix,
    RadiusEstimate,
    _float_mul,
    float_radius,
    mat_mul,
    one_norm,
    rat,
    spectral_radius,
)
from .lp import (
    EQUAL,
    FeasibilitySystem,
    GREATER_EQUAL,
    LESS_EQUAL,
    OPTIMAL,
    lp_max,
)

JSR_LT = "jsr_lt"
JSR_LE = "jsr_le"
JSSR_GT = "jssr_gt"
JSSR_GE = "jssr_ge"
MM_LT = "mm_lt"
MM_LE = "mm_le"
MM_GE = "mm_ge"

_CERTIFICATE_KINDS = (JSR_LT, JSR_LE, JSSR_GT, JSSR_GE, MM_LT, MM_LE, MM_GE)


class PositivityRequiredError(ValueError):
    """Raised by the non-strict-upper / strict-lower deciders when the input
    sets are not entrywise positive; the LP characterisations are only
    equivalences under positivity."""


@dataclass(frozen=True)
class Certificate:
    """A self-contained witness for one threshold decision.

    ``vector`` is the LP witness; ``chosen_matrix`` is the committed matrix
    for game-level (mm_*) kinds and None otherwise.  The threshold is not
    stored: verification always receives it explicitly, so a certificate can
    be re-checked against any threshold a caller cares to try."""

    kind: str
    vector: tuple[Fraction, ...]
    chosen_matrix: Matrix | None = None

    def __post_init__(self):
        if self.kind not in _CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        object.__setattr__(self, "vector", tuple(rat(x) for x in self.vector))


def _require_square(s: IruSet):
    if not s.is_square:
        raise ValueError("threshold decisions need square matrices")


def _strict_contraction_lp(s: IruSet, alpha: Fraction):
    """max eps s.t. r . v + eps <= alpha v_i, v_i >= 1, eps <= 1."""
    n = s.n_rows
    cons = []
    for i, rs in enumerate(s.row_sets):
        for row in rs.rows:
            coeffs = [row[j] - (alpha if j == i else 0) for j in range(n)]
            coeffs.append(Fraction(1))
            cons.append((tuple(coeffs), LESS_EQUAL, Fraction(0)))
    for i in range(n):
        floor = [Fraction(0)] * (n + 1)
        floor[i] = Fraction(1)
        cons.append((tuple(floor), GREATER_EQUAL, Fraction(1)))
    roof = [Fraction(0)] * (n + 1)
    roof[n] = Fraction(1)
    cons.append((tuple(roof), LESS_EQUAL, Fraction(1)))
    objective = tuple(Fraction(0) for _ in range(n)) + (Fraction(1),)
    return lp_max(FeasibilitySystem(n + 1, tuple(cons), objective))


def decide_jsr_lt(s: IruSet, alpha) -> tuple[bool, Certificate | None]:
    """Is the joint spectral radius of S strictly below alpha?

    Exact: returns (True, certificate) or (False, None).  The certificate
    vector v >= 1 satisfies r . v < alpha v_i for every candidate row."""
    _require_square(s)
    alpha = rat(alpha)
    result = _strict_contraction_lp(s, alpha)
    if result.status != OPTIMAL:
        raise RuntimeError("contraction LP must be bounded and feasible")
    if result.objective_value > 0:
        return True, Certificate(JSR_LT, result.solution[:-1])
    return False, None


def decide_jssr_ge(s: IruSet, alpha) -> tuple[bool, Certificate | None]:
    """Is the joint spectral subradius of S at least alpha?

    Exact.  Searches for a non-negative common expansion vector, pinning
    each coordinate in turn to break homogeneity."""
    _require_square(s)
    alpha = rat(alpha)
    n = s.n_rows
    base = []
    for i, rs in enumerate(s.row_sets):
        for row in rs.rows:
            coeffs = tuple(row[j] - (alpha if j == i else 0) for j in range(n))
            base.append((coeffs, GREATER_EQUAL, Fraction(0)))
    for i in range(n):
        nonneg = [Fraction(0)] * n
        nonneg[i] = Fraction(1)
        base.append((tuple(nonneg), GREATER_EQUAL, Fraction(0)))
    for pin in range(n):
        pinned = [Fraction(0)] * n
        pinned[pin] = Fraction(1)
        cons = tuple(base) + ((tuple(pinned), GREATER_EQUAL, Fraction(1)),)
        result = lp_max(FeasibilitySystem(n, cons, None))
        if result.status == OPTIMAL:
            return True, Certificate(JSSR_GE, result.solution)
    return False, None


def decide_jsr_le(s: IruSet, alpha) -> tuple[bool, Certificate | None]:
    """Is the joint spectral radius at most alpha?  Positive sets only."""
    _require_square(s)
    if not s.is_positive:
        raise PositivityRequiredError(
            "non-strict upper threshold decided for positive sets only"
        )
    alpha = rat(alpha)
    n = s.n_rows
    cons = []
    for i, rs in enumerate(s.row_sets):
        for row in rs.rows:
            coeffs = tuple(row[j] - (alpha if j == i else 0) for j in range(n))
            cons.append((coeffs, LESS_EQUAL, Fraction(0)))
    for i in range(n):
        floor = [Fraction(0)] * n
        floor[i] = Fraction(1)
        cons.append((tuple(floor), GREATER_EQUAL, Fraction(1)))
    result = lp_max(FeasibilitySystem(n, tuple(cons), None))
    if result.status == OPTIMAL:
        return True, Certificate(JSR_LE, result.solution)
    return False, None


def decide_jssr_gt(s: IruSet, alpha) -> tuple[bool, Certificate | None]:
    """Is the joint spectral subradius strictly above alpha?  Positive sets
    only; strictness via a maximised slack as in decide_jsr_lt."""
    _require_square(s)
    if not s.is_positive:
        raise PositivityRequiredError(
            "strict lower threshold decided for positive sets only"
        )
    alpha = rat(alpha)
    n = s.n_rows
    cons = []
    for i, rs in enumerate(s.row_sets):
        for row in rs.rows:
            coeffs = [row[j] - (alpha if j == i else 0) for j in range(n)]
            coeffs.append(Fraction(-1))
            cons.append((tuple(coeffs), GREATER_EQUAL, Fraction(0)))
    for i in range(n):
        floor = [Fraction(0)] * (n + 1)
        floor[i] = Fraction(1)
        cons.append((tuple(floor), GREATER_EQUAL, Fraction(1)))
    roof = [Fraction(0)] * (n + 1)
    roof[n] = Fraction(1)
    cons.append((tuple(roof), LESS_EQUAL, Fraction(1)))
    objective = tuple(Fraction(0) for _ in range(n)) + (Fraction(1),)
    result = lp_max(FeasibilitySystem(n + 1, tuple(cons), objective))
    if result.status != OPTIMAL:
        raise RuntimeError("expansion LP must be bounded and feasible")
    if result.objective_value > 0:
        return True, Certificate(JSSR_GT, result.solution[:-1])
    return False, None


def _check_game_shapes(a_set: IruSet, e_set: IruSet):
    if a_set.n_cols != e_set.n_rows or e_set.n_cols != a_set.n_rows:
        raise ValueError(
            "incompatible shapes: need a_set n x m and e_set m x n"
        )


def decide_mm_lt(
    a_set: IruSet, e_set: IruSet, alpha, cap=None
) -> tuple[bool, Certificate | None]:
    """Is the matrix multiplication game value strictly below alpha?

    True exactly when the minimiser can commit to one member whose induced
    product set has joint spectral radius below alpha.  Members are tried in
    lexicographic order; the certificate carries the first that works and
    its contraction vector."""
    _check_game_shapes(a_set, e_set)
    alpha = rat(alpha)
    for a0 in enumerate_members(a_set, cap):
        ok, cert = decide_jsr_lt(right_product(e_set, a0), alpha)
        if ok:
            return True, Certificate(MM_LT, cert.vector, chosen_matrix=a0)
    return False, None


def decide_mm_ge(
    a_set: IruSet, e_set: IruSet, alpha, cap=None
) -> tuple[bool, Certificate | None]:
    """Is the game value at least alpha?  Dual to decide_mm_lt: the
    maximiser commits to one member and the induced product set must have
    joint spectral subradius at least alpha."""
    _check_game_shapes(a_set, e_set)
    alpha = rat(alpha)
    for e0 in enumerate_members(e_set, cap):
        ok, cert = decide_jssr_ge(right_product(a_set, e0), alpha)
        if ok:
            return True, Certificate(MM_GE, cert.vector, chosen_matrix=e0)
    return False, None


def decide_mm_le(
    a_set: IruSet, e_set: IruSet, alpha, cap=None
) -> tuple[bool, Certificate | None]:
    """Is the game value at most alpha?  Positive sets only (the committed
    product sets are then positive too, which the non-strict decision
    needs)."""
    _check_game_shapes(a_set, e_set)
    if not (a_set.is_positive and e_set.is_positive):
        raise PositivityRequiredError(
            "non-strict game threshold decided for positive sets only"
        )
    alpha = rat(alpha)
    for a0 in enumerate_members(a_set, cap):
        ok, cert = decide_jsr_le(right_product(e_set, a0), alpha)
        if ok:
            return True, Certificate(MM_LE, cert.vector, chosen_matrix=a0)
    return False, None


def _verify_rows(s: IruSet, vector, alpha: Fraction, kind: str) -> bool:
    n = s.n_rows
    if len(vector) != n or s.n_cols != n:
        raise ValueError("certificate vector has the wrong dimension")
    if kind in (JSR_LT, JSR_LE, JSSR_GT):
        if any(x < 1 for x in vector):
            return False
    else:
        if any(x < 0 for x in vector) or max(vector) < 1:
            return False
    for i, rs in enumerate(s.row_sets):
        bound = alpha * vector[i]
        for row in rs.rows:
            img = sum(x * y for x, y in zip(row, vector))
            if kind == JSR_LT and not img < bound:
                return False
            if kind == JSR_LE and not img <= bound:
                return False
            if kind == JSSR_GT and not img > bound:
                return False
            if kind == JSSR_GE and not img >= bound:
                return False
    return True


def verify_certificate(cert: Certificate, a_set: IruSet, e_set=None, alpha=None) -> bool:
    """Re-check a certificate from scratch with exact arithmetic.

    No LP is solved: verification is a single pass over candidate rows (and
    an exact membership check of the chosen matrix for game-level kinds).
    Returns False when any required inequality fails; raises on structural
    mismatches such as wrong dimensions or a missing threshold."""
    if alpha is None:
        raise ValueError("verification needs the threshold alpha")
    alpha = rat(alpha)
    vector = tuple(rat(x) for x in cert.vector)
    if cert.kind in (JSR_LT, JSR_LE, JSSR_GT, JSSR_GE):
        return _verify_rows(a_set, vector, alpha, cert.kind)
    if e_set is None:
        raise ValueError("game-level certificates need both sets")
    _check_game_shapes(a_set, e_set)
    if cert.chosen_matrix is None:
        raise ValueError("game-level certificates carry the committed matrix")
    chosen = cert.chosen_matrix
    if cert.kind in (MM_LT, MM_LE):
        if not a_set.contains_matrix(chosen):
            return False
        inner = {MM_LT: JSR_LT, MM_LE: JSR_LE}[cert.kind]
        return _verify_rows(right_product(e_set, chosen), vector, alpha, inner)
    if cert.kind == MM_GE:
        if not e_set.contains_matrix(chosen):
            return False
        return _verify_rows(right_product(a_set, chosen), vector, alpha, JSSR_GE)
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


@dataclass(frozen=True)
class SaddlePoint:
    """A pair of members certified extremal against all unilateral
    deviations, with a certified enclosure of the product's radius."""

    despot_matrix: Matrix
    tribune_matrix: Matrix
    radius: RadiusEstimate


def find_saddle(a_set: IruSet, e_set: IruSet, cap=None) -> SaddlePoint:
    """Search the member grid for a saddle point of rho(A E): a pair where
    no unilateral member swap raises Despot's guarantee or lowers Tribune's.

    A float table of rho over the grid picks the likely cells, those near
    both their row's maximum and their column's minimum; they are tried
    first, the rest after them.  Each table entry is read block by block
    from the float product (``float_radius``), so reducible products get
    their radius too.  Every pair is confirmed with exact comparisons,
    which need the exact products of the rows and columns they touch only,
    so the returned pair is a true saddle.  The lexicographically first
    confirmed pair among the likely cells wins (else among the rest),
    making the result deterministic."""
    _check_game_shapes(a_set, e_set)
    a_members = list(enumerate_members(a_set, cap))
    e_members = list(enumerate_members(e_set, cap))
    na, ne = len(a_members), len(e_members)
    kernel_tol = 1e-10
    a_floats = [a.to_floats() for a in a_members]
    e_floats = [e.to_floats() for e in e_members]
    table = [
        [float_radius(_float_mul(a, e), kernel_tol, 2000) for e in e_floats]
        for a in a_floats
    ]
    products: dict[tuple[int, int], Matrix] = {}

    def product(i: int, j: int) -> Matrix:
        m = products.get((i, j))
        if m is None:
            m = mat_mul(a_members[i], e_members[j])
            products[(i, j)] = m
        return m

    row_max = [max(table[i]) for i in range(na)]
    col_min = [min(table[i][j] for i in range(na)) for j in range(ne)]
    slack = 1e-7
    likely, unlikely = [], []
    for i in range(na):
        for j in range(ne):
            near = row_max[i] - slack <= table[i][j] <= col_min[j] + slack
            (likely if near else unlikely).append((i, j))
    # Float rounding can still misplace a likely cell (near-ties within the
    # slack, or a table entry off by more than it), so when no likely cell
    # confirms, the others are tried too; a saddle always exists, so one of
    # them confirms.
    cache: dict = {}
    for i, j in likely + unlikely:
        centre = product(i, j)
        if any(
            realroots.compare_radii_enclosed(cache, product(i, jj), centre) > 0
            for jj in range(ne)
        ):
            continue
        if any(
            realroots.compare_radii_enclosed(cache, product(ii, j), centre) < 0
            for ii in range(na)
        ):
            continue
        return SaddlePoint(
            despot_matrix=a_members[i],
            tribune_matrix=e_members[j],
            radius=spectral_radius(centre),
        )
    raise RuntimeError("no saddle point found; the input violates the minimax structure")


def verify_saddle(a_set: IruSet, e_set: IruSet, a0: Matrix, e0: Matrix, cap=None) -> bool:
    """Exact check that (a0, e0) is a saddle of rho(A E) over the members:
    rho(a0 E) <= rho(a0 e0) <= rho(A e0) for every member E and A."""
    if not a_set.contains_matrix(a0) or not e_set.contains_matrix(e0):
        return False
    centre = mat_mul(a0, e0)
    cache: dict = {}
    for e in enumerate_members(e_set, cap):
        if realroots.compare_radii_enclosed(cache, mat_mul(a0, e), centre) > 0:
            return False
    for a in enumerate_members(a_set, cap):
        if realroots.compare_radii_enclosed(cache, mat_mul(a, e0), centre) < 0:
            return False
    return True


@dataclass(frozen=True)
class ValueInterval:
    """A certified rational bracket around a game value: the lower
    certificate proves value >= lower, the upper one proves value < upper.
    ``saddle`` is the optimal strategy pair whose product radius is the
    value."""

    lower: Fraction
    upper: Fraction
    lower_certificate: Certificate
    upper_certificate: Certificate
    bisections: int
    saddle: SaddlePoint

    def width(self) -> Fraction:
        return self.upper - self.lower

    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


def norm_bound(a_set: IruSet, e_set: IruSet) -> Fraction:
    """max_A ||A|| * max_E ||E|| over members, an upper bound on the game
    value.  Row independence makes the max norm a per-row-set maximum."""
    def set_bound(s: IruSet) -> Fraction:
        return sum((max(one_norm(r) for r in rs.rows) for rs in s.row_sets), Fraction(0))

    return set_bound(a_set) * set_bound(e_set)


def _only(m: Matrix) -> IruSet:
    """The IruSet whose single member is m."""
    return IruSet(tuple(RowSet((row,)) for row in m.data))


def value_bisection(a_set: IruSet, e_set: IruSet, tol, cap=None) -> ValueInterval:
    """Bracket the game value to within tol, with one certificate per end.

    The game is determined, so once find_saddle has exactly confirmed a
    saddle (a0, e0) the value is rho(a0 e0).  The bracket starts at
    [0, floor(norm_bound) + 1) and is halved until it is at most tol wide,
    each step decided exactly by Sturm counting on the characteristic
    polynomial of a0 e0; the invariant lower <= value < upper holds
    throughout, and endpoints stay dyadic rationals.  Committing Despot to
    a0 certifies value < upper with one contraction LP, and committing
    Tribune to e0 certifies value >= lower with one expansion LP: with
    independent rows, the joint spectral radius (subradius) of a set is its
    largest (smallest) member radius, which the saddle pins to the value."""
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sp = find_saddle(a_set, e_set, cap)
    lower, upper, steps = realroots.bisect_radius(
        mat_mul(sp.despot_matrix, sp.tribune_matrix),
        Fraction(0),
        Fraction(int(norm_bound(a_set, e_set)) + 1),
        tol,
    )
    ge_ok, lower_cert = decide_mm_ge(a_set, _only(sp.tribune_matrix), lower)
    lt_ok, upper_cert = decide_mm_lt(_only(sp.despot_matrix), e_set, upper)
    if not (ge_ok and lt_ok):
        raise RuntimeError("bisection invariant violated at the final bracket")
    return ValueInterval(
        lower=lower,
        upper=upper,
        lower_certificate=lower_cert,
        upper_certificate=upper_cert,
        bisections=steps,
        saddle=sp,
    )
