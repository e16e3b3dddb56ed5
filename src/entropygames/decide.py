"""Exact decision procedures for extremal spectral radii.

For a square IruSet S with row sets S_1..S_n and a rational threshold alpha,
the two primitive questions are

* ``jsr(S) < alpha``: certified by a vector v >= 1 with r . v < alpha v_i
  for every candidate row r of every row set i (a strict common
  contraction);
* ``jssr(S) >= alpha``: certified by a non-negative non-zero v with
  r . v >= alpha v_i for all candidate rows (a common expansion).

The independent-row structure settles each one without enumerating
members.  The first is decided by Howard policy iteration on the resolvent
(alpha I - M)^-1 of one member M at a time, switching rows until none
improves: exact linear solves, no LP.  The second is one feasibility LP
over v >= 0 (``lp_max``'s variables are non-negative), normalised by
sum(v) = 1.  Both first try a candidate vector their caller may hand them:
``_verify_rows``, the row check of ``verify_certificate``, tests it exactly
over the integers, and a candidate that passes is the certificate, with no
resolvent and no LP.  The non-strict variant of the first and the strict
variant of the second are single feasibility LPs too, over v >= 1 with
r . v <= alpha v_i, or with r . v - alpha v_i >= 1, but they are
equivalences only for strictly positive sets, and the procedures refuse to
answer otherwise.

Matrix multiplication game thresholds reduce to these: the game is
determined, so for a saddle (a0, e0) the value is below alpha exactly when
jsr(E a0) < alpha and at least alpha exactly when jssr(A e0) >= alpha, each
an IruSet by ``right_product``.  Certificates carry the a0 or e0 committed.

The game value itself comes from a saddle point of rho(A E) over the
members (``find_saddle``): the value is the radius of the saddle product,
bracketed on a dyadic grid from the saddle's certified enclosure of that
radius, narrowed by Sturm signs only when the rounded bracket is wider
than the tolerance, and certified at each end with one player committed
to their saddle strategy.  The candidates are the saddle's own
Collatz-Wielandt witnesses, checked exactly at the bracket's ends; policy
iteration above and one LP below run only where a witness fails.
The pair is guessed by float strategy iteration: Tribune answers a despot
member by row switching on the product set E a (Protasov's spectral
simplex method), and Despot improves against that answer in a
Hoffman-Karp loop.  Floats decide nothing: one exact check, shared with
``verify_saddle``, confirms the pair, comparing radii with per-block
Collatz-Wielandt enclosures first, and Sturm counting when they overlap,
on the critical blocks the enclosures name where they name one
(``realroots.compare_radii_enclosed``).  The check returns a member that
beats the checked one, so repeating it is an exact one-player climb: each
step moves the radius strictly, no member repeats, and the climb stops at
a member none beats.  That is Tribune's best response in ``find_saddle``
and, against the identity, each extreme of ``jsr_jssr``.  Despot's loop
around Tribune's climbs can cycle, so ``find_saddle`` keeps a grid.

The check rests on the single-row lemma.  Let C be a non-negative
irreducible n x n matrix with Perron vector v > 0 and radius rho, and let
C' be C with row i replaced by a non-negative row r.

* Every j still reaches i in the support of C', because only row i
  changed: a shortest path from j to i in C leaves i by no edge, so C' has
  it too.
* Let w = C'v - rho v.  Then w_j = 0 for j != i and w_i = r.v - rho v_i.
  Let S = sum_{m<n} C'^m, which commutes with C'; (S w)_j has the sign of
  w_i for every j, as j reaches i within n - 1 steps, and u = S v > 0.
  If r.v > rho v_i then C'u - rho u = S w > 0 entrywise, so by
  Collatz-Wielandt rho(C') >= min_j (C'u)_j / u_j > rho.  If r.v <
  rho v_i then C'u < rho u entrywise, so rho(C') <= max_j (C'u)_j / u_j
  < rho.  If r.v = rho v_i then C'v = rho v with v > 0, so rho(C') = rho.
* Hence if no single-row switch raises rho, r.v <= rho v_i for every
  candidate row r of every row set i, so M v <= rho v and rho(M) <= rho
  for every member M (v > 0); if no switch lowers rho, M v >= rho v and
  rho(M) >= rho for every member M.

Each deviation C' is compared with its centre C exactly, and without a
float kernel of its own (``_row_switch``).  C's dyadic witness w > 0 and
its exact bounds lo <= rho(C) <= hi come from C's record in the
comparison cache (``realroots.cached_bounds``), and for the row r at
position i, t = r.w / w_i is compared with [lo, hi] over
the integers.  If t > hi, let D be the lcm of the row denominators of C',
N' = D C' and u = (D I + N')^(n-1) w, an integer vector with u > 0.

* If (N'u)_j > hi D u_j for every j, then rho(C') >= min_j (C'u)_j / u_j
  > hi >= rho(C), by Collatz-Wielandt, which holds for any u > 0 and any
  non-negative C', reducible or not.  If t < lo, every (N'u)_j < lo D u_j
  gives rho(C') <= max_j (C'u)_j / u_j < lo <= rho(C) the same way.
* Soundness needs nothing more.  The lemma explains why the check usually
  answers: C'w - rho w is near zero except at i, where its sign is that of
  t - rho, and every j reaches i within n - 1 steps, so the pushes carry
  that surplus or deficit to every coordinate.
* A tie r.v = rho v_i is never answered: then rho(C') = rho(C), which lies
  in [lo, hi] and between the smallest and largest ratio of every u > 0.
  A tie, or any deviation the check leaves open, is compared by
  ``realroots.compare_radii_enclosed``, which reads C's bounds from that
  same record, so C's kernel runs once.

So on a side whose centre product is irreducible, the Sigma (|S_i| - 1)
single-row deviations, each compared exactly with the centre, settle all
Pi |S_i| members.  On a reducible centre they need not: with Despot's
identity against Tribune's rows (1, 0) | (0, 5) and (0, 1) | (5, 0),
every single swap of E = I keeps rho at 1 but swapping both gives 5.

A reducible centre is split instead (Rothblum, "Multiplicative Markov
decision chains", 1984).  Write U for the union support of the side's
product rows: U_ij > 0 when some r . other with r in S_i has a non-zero
entry j.

* Every member's product M . other has its support inside U.  Along the
  strongly connected blocks of U, in ``support_blocks`` order, every
  product is block-triangular, so rho(M . other) is the largest of the
  block radii rho((M . other)_BB).
* (M . other)_BB depends only on M's rows in B, and the blocks choose
  their rows independently.  Write C for the centre.
* So Tribune (the maximiser) is refuted exactly when some block has a row
  choice with rho above rho(C): with the other rows of the member whose
  product is C kept, the product's radius is at least that block's.
* A block is critical when rho(C_BB) = rho(C).  A non-critical block
  already lies below rho(C), so Despot (the minimiser) is refuted exactly
  when every critical block has a row choice with rho below rho(C); the
  refuting member combines those choices, and its product's largest
  block radius is below rho(C).
* A block is aligned when C_BB is irreducible, a single node included.
  There the single-row lemma on C_BB, with every candidate row restricted
  to B's columns, settles the block's own members by its deviations:
  none above rho(C_BB) means no member above it, none below means none
  below.  On a critical block, rho(C_BB) is rho(C).  On Tribune's side a
  deviation can beat C_BB and stay at most rho(C) only on a non-critical
  block, and that block alone then falls back to its own members.
* On Despot's side a non-aligned critical block first tries its class
  certificate.  Let K be the critical block that C_BB's record in the
  comparison cache names (``linalg.block_radius_bounds``), a strongly
  connected class of C_BB with rho(C_KK) = rho(C_BB) = rho(C).  C_KK is
  irreducible, so the lemma applies to it with every candidate row of a
  K-row restricted to K's columns.  If no such deviation lowers
  rho(C_KK), then r_K . x >= rho(C) x_i for the Perron vector x > 0 of
  C_KK and every candidate row r of every row i of K.  Let v be x on K and
  0 on the rest of B.  Every member M has (M_BB v)_i = r_K . x >= rho(C)
  v_i on K, and (M_BB v)_i >= 0 = rho(C) v_i off K, so M_BB v >= rho(C) v
  with v >= 0 non-zero, and rho(M_BB) >= rho(C) by Collatz-Wielandt.  No
  member brings B below rho(C), so Despot is not refuted.  A K-deviation
  that lowers rho(C_KK) proves nothing about B, as the deviating row's
  entries outside K's columns can keep every member at rho(C) or above,
  and a record that names no critical block gives no K.
* A non-aligned block that this does not settle, any on Tribune's side
  included, is enumerated over its own rows: the IruSet of its restricted
  rows, where rows that coincide count once, through
  ``iru.enumerate_members``, which refuses a block of more than
  ``iru.ENUM_CAP`` members with an EnumerationCapError naming the side.

U contains the centre's support, so an irreducible centre makes U one
aligned block.  The exact grid fallback of ``find_saddle`` enumerates
whole sides and is capped the same way.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import realroots
from .iru import IruSet, RowSet, enumerate_members, right_product
from .kernels import power_enclosure
from .linalg import (
    DEFAULT_RADIUS_TOL,
    Matrix,
    RadiusEstimate,
    _float_mul,
    _over_common_denominator,
    _resolvent,
    float_rows,
    mat_mul,
    mat_vec,
    principal_submatrix,
    rat,
    spectral_radius,
    support_blocks,
    vec_mat,
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
# the inequality each set-level kind requires of r . v against alpha v_i
_HOLDS = {JSR_LT: operator.lt, JSR_LE: operator.le, JSSR_GT: operator.gt, JSSR_GE: operator.ge}


class PositivityRequiredError(ValueError):
    """Raised by the non-strict-upper / strict-lower deciders when the input
    sets are not entrywise positive; the LP characterisations are only
    equivalences under positivity."""


@dataclass(frozen=True)
class Certificate:
    """A self-contained witness for one threshold decision.

    ``vector`` is the witness; ``chosen_matrix`` is the committed matrix
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


def _unit(width: int, j: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1 if k == j else 0) for k in range(width))


def _shifted(s: IruSet, alpha: Fraction):
    """The coefficient rows r - alpha e_i, for every candidate row r of every
    row set i."""
    for i, rs in enumerate(s.row_sets):
        for row in rs.rows:
            yield tuple(x - alpha if j == i else x for j, x in enumerate(row))


def decide_jsr_lt(s: IruSet, alpha, *, _candidate=None) -> tuple[bool, Certificate | None]:
    """Is the joint spectral radius of S strictly below alpha?

    Exact: returns (True, certificate) or (False, None).  The certificate
    vector v >= 1 satisfies r . v < alpha v_i for every candidate row.

    A caller holding a likely certificate, such as ``value_bisection``'s
    from the saddle's witness, may pass it as ``_candidate``: when
    ``_verify_rows`` accepts it at alpha, it is the certificate, and
    otherwise the answer is decided as below.

    Howard policy iteration on the resolvent, with no LP and no float.  For
    alpha > 0 and the current member M, v = alpha ``_resolvent(M, alpha)``
    solves (alpha I - M) v = alpha 1, and v >= 1 holds exactly when rho(M) <
    alpha: if v >= 1 then M v = alpha v - alpha 1 < alpha v, so rho(M) <
    alpha by Collatz-Wielandt; if rho(M) < alpha then v is the Neumann series
    sum_k (M / alpha)^k 1 >= 1.  A singular system or a v not >= 1 thus shows
    a member with rho >= alpha.  Otherwise each row set switches to a row
    with strictly larger r . v; when none does, r . v <= alpha v_i - alpha <
    alpha v_i for every candidate row and v is the certificate.  A switch
    raises M v in some rows and lowers it in none, so a next v >= 1 is
    strictly larger than v: no member repeats and the loop ends."""
    _require_square(s)
    alpha = rat(alpha)
    if alpha <= 0:
        return False, None
    if _candidate is not None and _verify_rows(s, _candidate, alpha, JSR_LT):
        return True, Certificate(JSR_LT, _candidate)
    n = s.n_rows
    choice = [0] * n
    while True:
        u = _resolvent(s.member(choice), alpha)
        v = None if u is None else [alpha * x for x in u]
        if v is None or any(x < 1 for x in v):
            return False, None
        switched = False
        for i, rs in enumerate(s.row_sets):
            gains = [sum(x * y for x, y in zip(row, v)) for row in rs.rows]
            best = max(range(len(gains)), key=gains.__getitem__)
            if gains[best] > gains[choice[i]]:
                choice[i] = best
                switched = True
        if not switched:
            return True, Certificate(JSR_LT, v)


def decide_jssr_ge(s: IruSet, alpha, *, _candidate=None) -> tuple[bool, Certificate | None]:
    """Is the joint spectral subradius of S at least alpha?

    Exact, by one feasibility LP: a common expansion vector v >= 0 (the
    LP's variables are non-negative) with r . v >= alpha v_i for every
    candidate row, normalised by sum(v) = 1 to break homogeneity.  The
    certificate is the solution scaled to maximum 1.  A ``_candidate``
    vector that ``_verify_rows`` accepts at alpha is the certificate
    instead, with no LP, as in ``decide_jsr_lt``."""
    _require_square(s)
    alpha = rat(alpha)
    if _candidate is not None and _verify_rows(s, _candidate, alpha, JSSR_GE):
        return True, Certificate(JSSR_GE, _candidate)
    n = s.n_rows
    cons = [(coeffs, GREATER_EQUAL, Fraction(0)) for coeffs in _shifted(s, alpha)]
    cons.append(((Fraction(1),) * n, EQUAL, Fraction(1)))
    result = lp_max(FeasibilitySystem(n, tuple(cons)))
    if result.status != OPTIMAL:
        return False, None
    top = max(result.solution)
    return True, Certificate(JSSR_GE, tuple(x / top for x in result.solution))


def decide_jsr_le(s: IruSet, alpha) -> tuple[bool, Certificate | None]:
    """Is the joint spectral radius at most alpha?  Positive sets only.
    One feasibility LP: v >= 1 with r . v <= alpha v_i for every candidate
    row; the certificate is the solution."""
    _require_square(s)
    if not s.is_positive:
        raise PositivityRequiredError(
            "non-strict upper threshold decided for positive sets only"
        )
    alpha = rat(alpha)
    n = s.n_rows
    cons = [(coeffs, LESS_EQUAL, Fraction(0)) for coeffs in _shifted(s, alpha)]
    cons += [(_unit(n, i), GREATER_EQUAL, Fraction(1)) for i in range(n)]
    result = lp_max(FeasibilitySystem(n, tuple(cons)))
    if result.status == OPTIMAL:
        return True, Certificate(JSR_LE, result.solution)
    return False, None


def decide_jssr_gt(s: IruSet, alpha) -> tuple[bool, Certificate | None]:
    """Is the joint spectral subradius strictly above alpha?  Positive sets
    only.  One feasibility LP: v >= 1 with r . v - alpha v_i >= 1 for every
    candidate row.  Some v >= 1 makes every r . v > alpha v_i exactly when
    such a v exists: scaling v up until each gap is at least 1 keeps v >= 1.
    The certificate is the solution."""
    _require_square(s)
    if not s.is_positive:
        raise PositivityRequiredError(
            "strict lower threshold decided for positive sets only"
        )
    alpha = rat(alpha)
    n = s.n_rows
    cons = [(coeffs, GREATER_EQUAL, Fraction(1)) for coeffs in _shifted(s, alpha)]
    cons += [(_unit(n, i), GREATER_EQUAL, Fraction(1)) for i in range(n)]
    result = lp_max(FeasibilitySystem(n, tuple(cons)))
    if result.status == OPTIMAL:
        return True, Certificate(JSSR_GT, result.solution)
    return False, None


def _check_game_shapes(a_set: IruSet, e_set: IruSet):
    if a_set.n_cols != e_set.n_rows or e_set.n_cols != a_set.n_rows:
        raise ValueError(
            "incompatible shapes: need a_set n x m and e_set m x n"
        )


def _committed(kind: str, a_set: IruSet, e_set: IruSet, alpha, candidate=None):
    """Commit the certifying player (Tribune for MM_GE, else Despot) to their
    saddle strategy, a one-member side's member with no search and
    find_saddle's otherwise, and decide the product set this leaves, handing
    on a candidate certificate vector when there is one."""
    _check_game_shapes(a_set, e_set)
    tribune = kind == MM_GE
    decide = {MM_LT: decide_jsr_lt, MM_LE: decide_jsr_le, MM_GE: decide_jssr_ge}[kind]
    own, other = (e_set, a_set) if tribune else (a_set, e_set)
    if own.size == 1:
        chosen = own.member((0,) * own.n_rows)
    else:
        sp = find_saddle(a_set, e_set)
        chosen = sp.tribune_matrix if tribune else sp.despot_matrix
    product = right_product(other, chosen)
    if candidate is None:
        ok, cert = decide(product, alpha)
    else:
        ok, cert = decide(product, alpha, _candidate=candidate)
    return ok, cert and Certificate(kind, cert.vector, chosen_matrix=chosen)


def decide_mm_lt(
    a_set: IruSet, e_set: IruSet, alpha, *, _candidate=None
) -> tuple[bool, Certificate | None]:
    """Is the game value strictly below alpha?  Exactly when Despot's saddle
    strategy a0 leaves a product set E a0 with joint spectral radius below
    alpha (``decide_jsr_lt``); the certificate carries a0 and its vector.
    ``_candidate`` is handed on to ``decide_jsr_lt``."""
    return _committed(MM_LT, a_set, e_set, alpha, _candidate)


def decide_mm_ge(
    a_set: IruSet, e_set: IruSet, alpha, *, _candidate=None
) -> tuple[bool, Certificate | None]:
    """Is the game value at least alpha?  Dual to decide_mm_lt: Tribune's
    saddle strategy e0 must leave a product set A e0 with joint spectral
    subradius at least alpha (``decide_jssr_ge``, one LP unless the
    ``_candidate`` handed on to it is accepted)."""
    return _committed(MM_GE, a_set, e_set, alpha, _candidate)


def decide_mm_le(a_set: IruSet, e_set: IruSet, alpha) -> tuple[bool, Certificate | None]:
    """Is the game value at most alpha?  Despot commits as in decide_mm_lt.
    Positive sets only (the committed product set is then positive too,
    which the non-strict decision needs)."""
    if not (a_set.is_positive and e_set.is_positive):
        raise PositivityRequiredError(
            "non-strict game threshold decided for positive sets only"
        )
    return _committed(MM_LE, a_set, e_set, alpha)


def _verify_rows(s: IruSet, vector, alpha: Fraction, kind: str) -> bool:
    """Whether vector certifies kind (JSR_LT, JSR_LE, JSSR_GT or JSSR_GE)
    for s at alpha, over the integers.  With v = nums / d over the lcm d of
    its denominators, alpha = p / q and a candidate row r = r_nums / e over
    its own, r . v against alpha v_i is q (r_nums . nums) against p e nums_i,
    both sides times the positive d e q."""
    n = s.n_rows
    if len(vector) != n or s.n_cols != n:
        raise ValueError("certificate vector has the wrong dimension")
    ((nums, d),) = _over_common_denominator([vector])
    if kind in (JSR_LT, JSR_LE, JSSR_GT):
        if any(x < d for x in nums):
            return False
    elif any(x < 0 for x in nums) or max(nums) < d:
        return False
    holds = _HOLDS[kind]
    p, q = alpha.numerator, alpha.denominator
    for x, rs in zip(nums, s.row_sets):
        bound = p * x
        for row, e in _over_common_denominator(rs.rows):
            if not holds(q * sum(a * b for a, b in zip(row, nums)), bound * e):
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
    tribune = cert.kind == MM_GE
    inner = {MM_LT: JSR_LT, MM_LE: JSR_LE, MM_GE: JSSR_GE}[cert.kind]
    own, other = (e_set, a_set) if tribune else (a_set, e_set)
    if not own.contains_matrix(cert.chosen_matrix):
        return False
    return _verify_rows(right_product(other, cert.chosen_matrix), vector, alpha, inner)


@dataclass(frozen=True)
class SaddlePoint:
    """A pair of members certified extremal against all unilateral
    deviations, with a certified enclosure of the product's radius: the
    ``spectral_radius`` estimate of the product, possibly read from the
    saddle check's record, in which case ``iterations`` is 0."""

    despot_matrix: Matrix
    tribune_matrix: Matrix
    radius: RadiusEstimate


# Float strategy iteration: relative margin a switch must win by, kernel
# tolerance and iteration cap per block, and switching rounds per loop.
_SWITCH_MARGIN = 1e-9
_KERNEL_TOL = 1e-10
_KERNEL_CAP = 2000
_SWITCH_ROUNDS = 64


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _SWITCH_MARGIN * max(abs(x), abs(y))


def _valuation(rows: list[list[float]]) -> tuple[list[float], list[float]]:
    """Per-node (gain, weight) of a non-negative square float matrix C, read
    block by block of its support.

    The gain g of node j is the largest radius of a strongly connected
    block that j reaches: its growth rate.  The weights form a non-negative
    eigenvector for the gains.  A block whose own radius is its gain takes
    its Perron vector, scaled to maximum 1; a block B below its gain takes
    the solution of (g I - C_BB) x = C_B,k w_k, summed over the later nodes
    k of the same gain, so that C w = g w holds on it too.  On an
    irreducible C every gain is rho and the weights are the Perron
    vector."""
    gain = [0.0] * len(rows)
    weight = [1.0] * len(rows)
    support = [[j for j, x in enumerate(row) if x > 0.0] for row in rows]
    # support_blocks puts blocks sinks first, so the later nodes are done
    for comp in support_blocks(rows):
        if len(comp) == 1:
            rho, v = rows[comp[0]][comp[0]], [1.0]
        else:
            flat = [rows[i][j] for i in comp for j in comp]
            lo, hi, _, v = power_enclosure(flat, len(comp), _KERNEL_TOL, _KERNEL_CAP)
            rho = (lo + hi) / 2.0
        inside = set(comp)
        g = max([rho] + [gain[k] for i in comp for k in support[i] if k not in inside])
        if _close(rho, g):
            top = max(v)
            v = [x / top for x in v]
        else:
            feed = [
                sum(rows[i][k] * weight[k] for k in support[i] if k not in inside and gain[k] == g)
                for i in comp
            ]
            v = _float_solve(
                [[(g if i == j else 0.0) - rows[i][j] for j in comp] for i in comp], feed
            )
        for i, x in zip(comp, v):
            gain[i] = g
            weight[i] = x
    return gain, weight


def _float_solve(rows: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve rows x = rhs by Gaussian elimination without pivoting, which
    is stable for the non-singular M-matrices gI - C_BB it is given."""
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for c in range(n):
        for r in range(c + 1, n):
            f = aug[r][c] / aug[c][c]
            if f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (aug[r][n] - sum(aug[r][k] * x[k] for k in range(r + 1, n))) / aug[r][r]
    return x


def _switch(candidates, choice, maximise: bool):
    """One round of row switching on the float product rows
    ``candidates[i][k]`` at the current ``choice``, or None when no row
    improves.  A candidate row is scored by the largest gain it reaches,
    then by its weighted sum over the nodes at that gain (r . v on an
    irreducible product); every row switches to its best candidate when
    that beats the current row by the margin, upwards for the maximiser and
    downwards for the minimiser."""
    gain, weight = _valuation([rows[k] for rows, k in zip(candidates, choice)])
    sign = 1.0 if maximise else -1.0

    def score(row):
        reach = max((gain[k] for k, x in enumerate(row) if x > 0.0), default=0.0)
        bias = sum(x * weight[k] for k, x in enumerate(row) if x > 0.0 and _close(gain[k], reach))
        return reach, bias

    def beats(new, old) -> bool:
        for x, y in zip(new, old):
            if not _close(x, y):
                return sign * (x - y) > 0
        return False

    switched = list(choice)
    for i, rows in enumerate(candidates):
        best = score(rows[choice[i]])
        for k, row in enumerate(rows):
            s = score(row)
            if beats(s, best):
                best, switched[i] = s, k
    return None if switched == list(choice) else switched


def _respond(candidates, choice, maximise: bool):
    """Switch rows until none improves, a choice repeats or the rounds run
    out; returns the last choice."""
    seen = set()
    for _ in range(_SWITCH_ROUNDS):
        seen.add(tuple(choice))
        switched = _switch(candidates, choice, maximise)
        if switched is None or tuple(switched) in seen:
            break
        choice = switched
    return choice


def _iterate(a_rows, e_rows, a, e):
    """Float Hoffman-Karp iteration from the row choices (a, e): Tribune
    answers Despot's member by row switching on E a (maximising), then
    Despot switches rows once on a E against that answer (minimising), until
    Despot stops improving.  A suggestion only: the exact check decides."""
    seen = set()
    for _ in range(_SWITCH_ROUNDS):
        seen.add(tuple(a))
        despot = [rows[k] for rows, k in zip(a_rows, a)]
        e = _respond([_float_mul(rows, despot) for rows in e_rows], e, True)
        tribune = [rows[k] for rows, k in zip(e_rows, e)]
        switched = _switch([_float_mul(rows, tribune) for rows in a_rows], a, False)
        if switched is None or tuple(switched) in seen:
            break
        a = switched
    return a, e


def _refute(s: IruSet, own: Matrix, other: Matrix, sign: int, cache, side: str):
    """A member of s that beats ``own`` against ``other``, or None.

    The centre is C = own . other; a member M beats own when sign *
    (rho(M other) - rho(C)) > 0, so sign is +1 for the maximiser (Tribune)
    and -1 for the minimiser (Despot).  This is the block split of the
    module docstring: the centre is split along the blocks of the union
    support, and the critical blocks are found by exact comparisons of the
    blocks' C_BB with each other.  A block is aligned when its centre's
    record in the comparison cache (``realroots.cached_bounds``), the one
    the comparisons read, has every index as its critical block: C_BB is
    then irreducible, and no reach sets are built to find that out.  A
    block centre beyond the float range has no record and counts as
    aligned, so each of its deviations raises the float-range error of the
    first matrix it meets.  Aligned blocks, an irreducible centre's only
    block among them, compare their single-row deviations in row order,
    each against the block centre's witness first (``_deviation``).  On
    Despot's side a non-aligned block first tries its class certificate
    (``_class_certificate``), and when that holds, no member beats own.
    The non-aligned blocks this leaves compare their own members, and so
    does a non-critical aligned block on Tribune's side whose deviation
    beats C_BB but not C.  A refuting block row maps back to the first
    candidate row with that restriction.  A block of more than
    iru.ENUM_CAP members raises EnumerationCapError naming the reducible
    centre and ``side``."""
    centre = mat_mul(own, other)
    products = [[vec_mat(r, other) for r in rs.rows] for rs in s.row_sets]
    blocks = support_blocks([[any(col) for col in zip(*rows)] for rows in products])
    centres = [principal_submatrix(centre, block) for block in blocks]
    critical = {0}
    top = centres[0]
    for k in range(1, len(blocks)):
        c = realroots.compare_radii_enclosed(cache, centres[k], top)
        if c > 0:
            critical, top = {k}, centres[k]
        elif c == 0:
            critical.add(k)
    rows = list(own.data)
    for k, block in enumerate(blocks):
        if sign < 0 and k not in critical:
            continue
        options = _block_options(s, products, block)
        try:
            aligned = realroots.cached_bounds(cache, centres[k])[2] == list(range(len(block)))
        except ValueError:
            aligned = True
        if not aligned:
            certified = sign < 0 and _class_certificate(options, centres[k], cache)
            choice = None if certified else _block_member(options, top, sign, cache, side)
        else:
            choice, deviation = _deviation(options, centres[k], sign, cache)
            # beating C_BB beats C on a critical block; a non-critical one,
            # on Tribune's side only, is settled by a deviation above C
            if (
                choice is not None
                and k not in critical
                and realroots.compare_radii_enclosed(cache, deviation, top) <= 0
            ):
                choice = _block_member(options, top, sign, cache, side)
        if choice is None:
            if sign < 0:
                return None
            continue
        for pos, q in choice:
            rows[block[pos]] = options[pos][q]
        if sign > 0:
            return Matrix._of_fractions(tuple(rows))
    return Matrix._of_fractions(tuple(rows)) if sign < 0 else None


def _block_options(s: IruSet, products, block: list[int]) -> list[dict]:
    """For each row i of block, row set i's product rows restricted to the
    columns of block, each distinct restriction mapped to the first
    candidate row that gives it."""
    options = []
    for i in block:
        seen: dict = {}
        for r, p in zip(s.row_sets[i].rows, products[i]):
            seen.setdefault(tuple(p[j] for j in block), r)
        options.append(seen)
    return options


def _class_certificate(options, local: Matrix, cache) -> bool:
    """Whether the critical class of the reducible block centre local shows
    that none of the block's members has a radius below rho(local).

    The class K is the critical block that local's record names
    (``realroots.cached_bounds``), so rho(local_KK) = rho(local).  Each
    K-row's candidates are restricted to K's columns, and when no such
    single-row deviation of local_KK lowers its radius (``_deviation``),
    the Perron vector of local_KK, extended by zero, is the class
    certificate of the module docstring.  A record that names no class
    certifies nothing."""
    block = realroots.cached_bounds(cache, local)[2]
    if block is None:
        return False
    restricted = [dict.fromkeys(tuple(q[j] for j in block) for q in options[pos]) for pos in block]
    return _deviation(restricted, principal_submatrix(local, block), -1, cache)[0] is None


def _deviation(options, local: Matrix, sign: int, cache):
    """The first single-row deviation of the irreducible block centre local
    that beats it, as ([(position, restricted row)], the deviation), or
    (None, None) when none does.

    Deviations go in row order.  Each is settled by ``_row_switch`` where
    it can be, against local's record in the comparison cache
    (``realroots.cached_bounds``): local is irreducible, so it is its own
    critical block and the record carries its witness.  Only a deviation
    left open is built and compared by ``realroots.compare_radii_enclosed``,
    which reads the same record.  So local's kernel runs once.  Beyond the
    float range local has no record and every deviation is left open; the
    comparisons then raise the float-range error of whichever matrix they
    meet first."""
    deviations = [
        (pos, q) for pos, choices in enumerate(options) for q in choices if q != local.data[pos]
    ]
    if not deviations:
        return None, None
    try:
        record = realroots.cached_bounds(cache, local)
    except ValueError:
        record = None
    for pos, q in deviations:
        c = None if record is None else _row_switch(local, record, pos, q)
        if c is None:
            c = realroots.compare_radii_enclosed(cache, _switched(local, pos, q), local)
        if sign * c > 0:
            return [(pos, q)], _switched(local, pos, q)
    return None, None


def _switched(local: Matrix, pos: int, q) -> Matrix:
    """local with row pos replaced by q."""
    return Matrix._of_fractions(local.data[:pos] + (q,) + local.data[pos + 1 :])


def _row_switch(local: Matrix, record, pos: int, q) -> int | None:
    """The sign of rho(C') - rho(C), for C = local and C' = C with row pos
    replaced by q, when C's witness separates them, and None otherwise.

    From C's record (lo, hi, critical, w), with w the dyadic witness of the
    irreducible C, t = q . w / w_pos is compared with [lo, hi] over the
    integers; inside it, the answer is None.  Otherwise
    u = (D I + N') ^ (n - 1) w, where N' = D C' and D is the lcm of C''s
    row denominators, and the answer is +1 when every (N' u)_j > hi D u_j,
    or -1 when every (N' u)_j < lo D u_j: Collatz-Wielandt for u > 0, as in
    the module docstring."""
    lo, hi, _, w = record
    ((nums, d),) = _over_common_denominator([q])
    gain = sum(x * y for x, y in zip(nums, w))
    if gain * hi.denominator > hi.numerator * d * w[pos]:
        sign, bound = 1, hi
    elif gain * lo.denominator < lo.numerator * d * w[pos]:
        sign, bound = -1, lo
    else:
        return None
    rows = list(local._int_rows)
    rows[pos] = (nums, d)
    scale = math.lcm(*[e for _, e in rows])
    big_n = [r if e == scale else [x * (scale // e) for x in r] for r, e in rows]
    u = w
    for _ in range(len(w) - 1):
        u = [scale * x + sum(a * b for a, b in zip(row, u)) for row, x in zip(big_n, u)]
    image = [sum(a * b for a, b in zip(row, u)) for row in big_n]
    # every ratio (N'u)_j / (D u_j) strictly beyond the bound, on sign's side
    bound_n, bound_d = bound.numerator * scale, bound.denominator
    if all(sign * (y * bound_d - bound_n * x) > 0 for y, x in zip(image, u)):
        return sign
    return None


def _block_member(options, top: Matrix, sign: int, cache, side: str):
    """The first of a block's own members, over its distinct restricted
    rows, whose radius beats rho(top), as (position, restricted row)
    pairs, or None."""
    block_set = IruSet(tuple(RowSet(tuple(choices)) for choices in options))
    for m in enumerate_members(block_set, f"reducible centre on {side}"):
        if sign * realroots.compare_radii_enclosed(cache, m, top) > 0:
            return list(enumerate(m.data))
    return None


def _climb(s: IruSet, start: Matrix, other: Matrix, sign: int, cache, side: str) -> Matrix:
    """The member of s reached from start by replacing it with _refute's
    better member until none is left: one with no member beating it
    against other.  Each step moves rho(M other) strictly up (sign +1) or
    down (sign -1), so no member repeats and the climb ends."""
    while True:
        better = _refute(s, start, other, sign, cache, side)
        if better is None:
            return start
        start = better


def _is_saddle(a_set, e_set, a0, e0, cache) -> bool:
    """Whether no member beats (a0, e0) on either side: Tribune's side is
    checked on e0 a0 first, then Despot's on a0 e0."""
    return (
        _refute(e_set, e0, a0, 1, cache, "Tribune's side") is None
        and _refute(a_set, a0, e0, -1, cache, "Despot's side") is None
    )


def find_saddle(a_set: IruSet, e_set: IruSet) -> SaddlePoint:
    """A saddle point of rho(A E): a pair where no unilateral member swap
    raises Despot's guarantee or lowers Tribune's.

    Float strategy iteration (``_iterate``) suggests the pair once, and
    the rest is exact.  Tribune climbs against Despot's member a0
    (``_climb``) to a member e0 that none beats; Despot's check
    (``_refute``) then confirms (a0, e0) or gives Despot's next member.  A
    guess that is a saddle costs the two checks of ``verify_saddle``.

    Despot's loop need not end: a member that beats a0 against e0 can lose
    to Tribune's next answer, so Despot's members can cycle.  Each round is
    a function of Despot's member and Tribune's starting member, so when
    that pair repeats the loop has cycled; then the grid cells are checked
    exactly in lexicographic order, and as a saddle always exists, one
    confirms.  That fallback raises EnumerationCapError on a side of more
    than iru.ENUM_CAP members, as the check does on a non-aligned block of
    more.
    The check itself forms no member grid: it compares single-row
    deviations on aligned blocks and block members only on the others,
    and on Despot's side only where their class certificate fails.
    The saddle's radius enclosure is ``spectral_radius``'s, handed the
    record Despot's last check left for the product (``_saddle_point``):
    when that record encloses the whole product as one block, its bounds
    and witness stand in for the whole-product kernel run, closed or
    not."""
    _check_game_shapes(a_set, e_set)
    a_rows = [float_rows(rs.rows) for rs in a_set.row_sets]
    e_rows = [float_rows(rs.rows) for rs in e_set.row_sets]
    a, e = _iterate(a_rows, e_rows, [0] * a_set.n_rows, [0] * e_set.n_rows)
    a0, e0 = a_set.member(a), e_set.member(e)
    cache: dict = {}
    tried = set()
    while (a0.data, e0.data) not in tried:
        tried.add((a0.data, e0.data))
        e0 = _climb(e_set, e0, a0, 1, cache, "Tribune's side")
        better = _refute(a_set, a0, e0, -1, cache, "Despot's side")
        if better is None:
            return _saddle_point(a0, e0, cache)
        a0 = better
    stage = "exact fallback of the saddle search"
    for a0 in enumerate_members(a_set, stage):
        for e0 in enumerate_members(e_set, stage):
            if _is_saddle(a_set, e_set, a0, e0, cache):
                return _saddle_point(a0, e0, cache)
    raise RuntimeError("no saddle point found; the input violates the minimax structure")


def _saddle_point(a0: Matrix, e0: Matrix, cache) -> SaddlePoint:
    """The saddle (a0, e0) with ``spectral_radius``'s enclosure of its
    product's radius, given the record Despot's check of the pair left for
    the product, if any.  The check stored it as its principal submatrix on
    the union support's blocks, whose integer rows are over least
    denominators, as mat_mul's need not be, so it is looked up that way."""
    product = mat_mul(a0, e0)
    record = realroots.recorded_bounds(cache, principal_submatrix(product, range(product.rows)))
    return SaddlePoint(
        despot_matrix=a0, tribune_matrix=e0, radius=spectral_radius(product, _record=record)
    )


def verify_saddle(a_set: IruSet, e_set: IruSet, a0: Matrix, e0: Matrix) -> bool:
    """Exact check that (a0, e0) is a saddle of rho(A E) over the members:
    rho(a0 E) <= rho(a0 e0) <= rho(A e0) for every member E and A.

    It is find_saddle's check.  Each side is settled by its centre, e0 a0
    for Tribune and a0 e0 for Despot (rho(a0 E) = rho(E a0), as the two
    products share their non-zero eigenvalues).  An irreducible centre
    needs only its single-row deviations, by the lemma in the module
    docstring.  A reducible one is split along the blocks of the union
    support of its side's product rows: aligned blocks need only their
    deviations, and the others compare their own members, on Despot's
    side only where their class certificate fails, raising
    EnumerationCapError on a block of more than iru.ENUM_CAP."""
    if not a_set.contains_matrix(a0) or not e_set.contains_matrix(e0):
        return False
    return _is_saddle(a_set, e_set, a0, e0, {})


@dataclass(frozen=True)
class RadiusPair:
    """Extremal spectral radii over the members of a square IruSet, with
    certified enclosures and a member attaining each extreme."""

    jsr: RadiusEstimate
    jssr: RadiusEstimate
    argmax: Matrix
    argmin: Matrix


def jsr_jssr(s: IruSet, tol=DEFAULT_RADIUS_TOL) -> RadiusPair:
    """Joint spectral radius (max member radius) and joint spectral subradius
    (min member radius) of a finite IruSet, each attained by a member.

    Each extreme is a climb against the identity (``_climb``) from the
    lexicographically first member; no member beats the member where a
    climb stops, so its radius is the extreme.  Of tied members, that is
    the one returned.  Only the two winners get a certified enclosure.  A
    climb enumerates only the members of a non-aligned block, raising
    EnumerationCapError on a block of more than iru.ENUM_CAP."""
    if not s.is_square:
        raise ValueError("spectral radii need square matrices")
    first, identity = s.member((0,) * s.n_rows), Matrix.identity(s.n_rows)
    cache: dict = {}
    argmax = _climb(s, first, identity, 1, cache, "the jsr climb")
    argmin = _climb(s, first, identity, -1, cache, "the jssr climb")
    jsr = spectral_radius(argmax, tol)
    jssr = jsr if argmin.data == argmax.data else spectral_radius(argmin, tol)
    return RadiusPair(jsr=jsr, jssr=jssr, argmax=argmax, argmin=argmin)


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


def _only(m: Matrix) -> IruSet:
    """The IruSet whose single member is m."""
    return IruSet(tuple(RowSet((row,)) for row in m.data))


def _primitive(vector) -> tuple[int, ...]:
    """The rational vector scaled to integers with no common factor: its
    denominators cleared, then its gcd divided out."""
    ((nums, _),) = _over_common_denominator([vector])
    g = math.gcd(*nums) or 1
    return tuple(x // g for x in nums)


def value_bisection(a_set: IruSet, e_set: IruSet, tol) -> ValueInterval:
    """Bracket the game value to within tol, with one certificate per end.

    The game is determined, so once find_saddle has exactly confirmed a
    saddle (a0, e0) the value is rho(a0 e0), and the saddle carries a
    certified enclosure of it.  The bracket starts from that enclosure
    rounded outward onto the dyadic grid of step 2^-k, for the least
    integer k with 2^-k <= tol: lower rounds down (to at least 0), and
    upper is lower plus the least power-of-two multiple of the step that
    lies strictly above the enclosure.  Usually that bracket is one step
    wide and needs no halving; when it is wider than tol,
    ``realroots.bisect_radius`` halves it to the step on the
    characteristic polynomial of a0 e0.  The endpoints stay on the grid,
    and a value on the grid comes back exactly as lower.  Committing
    Despot to a0 certifies value < upper on Tribune's rows E a0
    (``decide_jsr_lt``), and committing Tribune to e0 certifies value >=
    lower on Despot's rows A e0 (``decide_jssr_ge``): with independent
    rows, the joint spectral radius (subradius) of a set is its largest
    (smallest) member radius, which the saddle pins to the value.

    Each end is first offered a candidate from the saddle's enclosure, as
    a primitive integer vector (denominators cleared, gcd divided out):

    * lower: the witness w >= 0 with a0 e0 w >= radius.lower w, where
      radius.lower >= lower unless Sturm halving moved lower.  On an
      irreducible a0 e0 with Perron vector x, the saddle and the
      single-row lemma of the module docstring give r e0 . x >= rho x_i
      for every row r Despot could switch to, and w approximates x;
    * upper: e0 u, for the witness u > 0 with a0 e0 u <= radius.upper u.
      On e0's own rows, (e0 a0)(e0 u) = e0 (a0 e0 u) <= radius.upper
      (e0 u) < upper (e0 u), and the saddle bounds Tribune's other rows
      the same way at e0 a0's Perron vector e0 x.  A zero entry, from a
      zero row of e0, fails the check's v >= 1.

    ``_verify_rows`` checks each candidate exactly at lower or upper, so
    floats decide nothing.  A candidate that fails, as where the value
    lies on the grid, so that lower is the value itself, and the saddle
    product is reducible, leaves its end to Howard policy iteration (no
    LP) above and one expansion LP below.  These certificates are exact,
    so a wrong enclosure raises ValueError, from bisect_radius's check
    before its first halving or from a certificate that fails, rather than
    yield a wrong bracket."""
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    sp = find_saddle(a_set, e_set)
    # 2^e or 2^(e - 1) is the largest power of two at most tol
    e = tol.numerator.bit_length() - tol.denominator.bit_length()
    step = Fraction(2) ** e if Fraction(2) ** e <= tol else Fraction(2) ** (e - 1)
    lower = max(Fraction(0), sp.radius.lower // step * step)
    width = step
    while lower + width <= sp.radius.upper:
        width *= 2
    upper, steps = lower + width, 0
    if width > tol:
        lower, upper, steps = realroots.bisect_radius(
            mat_mul(sp.despot_matrix, sp.tribune_matrix), lower, upper, tol
        )
    a0, e0, radius = sp.despot_matrix, sp.tribune_matrix, sp.radius
    ge_ok, lower_cert = decide_mm_ge(
        a_set, _only(e0), lower, _candidate=_primitive(radius.witness_lower.entries)
    )
    lt_ok, upper_cert = decide_mm_lt(
        _only(a0), e_set, upper,
        _candidate=_primitive(mat_vec(e0, radius.witness_upper.entries)),
    )
    if not (ge_ok and lt_ok):
        raise ValueError("the bracket must satisfy lower <= rho < upper")
    return ValueInterval(
        lower=lower,
        upper=upper,
        lower_certificate=lower_cert,
        upper_certificate=upper_cert,
        bisections=steps,
        saddle=sp,
    )
