"""Exact rational matrices and certified spectral radius enclosures.

Everything visible here is exact: matrices and vectors carry
``fractions.Fraction`` entries, and every spectral radius comes back as a
rational interval [lower, upper] together with witness vectors that make both
bounds independently checkable.  Floats appear only inside the power
iteration kernel, and one route, ``_dyadic_witness``, turns its iterate into
an exact witness: for a principal submatrix (a strongly connected block, or
the whole matrix) it rounds the float Perron iterate onto the dyadic grid of
step 2^-60, a positive integer vector whose Collatz-Wielandt ratios are
formed and compared over the integer rows.  The two enclosure entry
points, ``block_radius_bounds`` (per block, for comparisons) and
``spectral_radius`` (the whole matrix), take their witnesses from it, and
neither runs it twice on the same indices.  The bounds are exact, since any
positive vector gives valid Collatz-Wielandt bounds; the grid only decides
how tight they are.  The iterate sums to 1, and an entry below 2^-61 is
floored at one grid step, which loosens the bounds of a steep matrix.
Entries beyond the float range, or so near it that the iterate overflows,
raise ValueError naming it (``float_rows``).

The blocks come from ``support_blocks``, which reads them off the reach
sets of the support digraph, sinks first: a block comes after every block
it reaches.  The radius of a non-negative matrix is the largest radius of
its blocks, since it is block-triangular in that order.

The certificates rest on two one-line facts about a non-negative square m:

* if v > 0 and m v <= r v entrywise then rho(m) <= r;
* if v >= 0, v != 0 and m v >= r v entrywise then rho(m) >= r.

``certify_radius_upper`` and ``certify_radius_lower`` are exactly these
checks and accept any vector, so a sceptical caller can re-run them without
trusting the iteration that produced the witness.

The products ``mat_mul``, ``mat_vec`` and ``vec_mat`` run over Python ints:
each row (or column) is put over a common denominator once, the numerators
are multiplied and summed as ints, and each result entry becomes one
Fraction at the end.  The results are exact and equal to the entrywise
Fraction sums; only the per-operation gcd work of Fraction arithmetic is
saved.  When every column of ``b`` is integral, row i of ``a b`` is its
integer sums over a's row denominator, so ``mat_mul`` hands those rows on
as the product's integer form and the next product in a chain does not
rebuild them from the Fractions.  That denominator need not be the least
one, which the products do not require; it is not handed on for a
non-integral ``b``, where such denominators would grow along a chain.
``one_norm`` sums numerators over one common denominator the same way.
``reductions._program_matrix`` builds both encoders' 2CMM matrices with
the integer kernel ``_combine`` and sets their integer rows as
``_int_rows`` and ``_int_cols``, as ``mat_mul`` does for an integral
product, so the integer audit does not rebuild them.  That audit calls
``vec_mat`` on every move, but ``mat_mul`` only from the first turn that
leaves its vector zero, since its running product cannot vanish before
(see ``reductions``).  The non-negative audit
(``reductions.check_nonneg_punishment``) multiplies no Matrix: its vector stays Python ints, and each move is a
product by the matrix's sparse integer rows, which hold at most five
non-zeros each.
Every exact linear system is solved over integers by Edmonds' fraction-free
pivot ``_pivot``: the resolvent solve ``_resolvent`` and ``lp.lp_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .kernels import power_enclosure

DEFAULT_RADIUS_TOL = Fraction(1, 10**10)
POWER_ITERATION_CAP = 10_000

_FLOAT_KERNEL_SLACK = 4.0
# _dyadic_witness rounds float iterates onto the grid of step 2^-60
_DYADIC_SCALE = float(1 << 60)

_ZERO = Fraction(0)


def rat(x) -> Fraction:
    """Coerce ints, ``p/q`` strings, floats and Fractions to Fraction.

    Floats convert to their exact binary value, which is what we want for
    tolerances supplied as literals like 1e-9.
    """
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class Vector:
    """Immutable rational vector; the arithmetic helpers below take plain
    sequences too."""

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(rat(x) for x in self.entries))

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @property
    def is_positive(self) -> bool:
        return all(x > 0 for x in self.entries)

    @property
    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.entries)

    def to_floats(self) -> list[float]:
        return [float(x) for x in self.entries]

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.entries) + ")"


@dataclass(frozen=True)
class Matrix:
    """Immutable rational matrix stored as a tuple of row tuples.

    The integer forms the products read are computed on first use and kept:
    the matrix never changes, so they never go stale, and they are not
    fields, so equality and hashing ignore them."""

    data: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(rat(x) for x in row) for row in self.data)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "data", rows)

    @classmethod
    def _of_fractions(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Matrix":
        """A Matrix from a non-empty rectangular tuple of row tuples whose
        entries are all Fractions already, skipping the coercion and shape
        pass of the constructor.  Only for results the package builds
        itself, such as products."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", rows)
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(
            tuple(
                tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
                for i in range(n)
            )
        )

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.data for x in row)

    @property
    def is_positive(self) -> bool:
        return all(x > 0 for row in self.data for x in row)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def to_floats(self) -> list[list[float]]:
        return float_rows(self.data)

    def __str__(self):
        return "\n".join("[" + "  ".join(str(x) for x in row) + "]" for row in self.data)

    @cached_property
    def _int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each row as (numerators, d) with row == numerators / d."""
        return _over_common_denominator(self.data)

    @cached_property
    def _int_cols(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Each column over its own common denominator, laid out by rows:
        (numerator rows, column denominators), with entry [i][j] equal to
        numerator_rows[i][j] / denominators[j]."""
        cols = _over_common_denominator(zip(*self.data))
        return tuple(zip(*(nums for nums, _ in cols))), tuple(d for _, d in cols)


def float_rows(rows) -> list[list[float]]:
    """Rows of rationals as rows of floats, or ValueError naming the float
    range when an entry lies beyond it."""
    try:
        return [[float(x) for x in row] for row in rows]
    except OverflowError:
        raise _float_range_error(rows) from None


def _float_range_error(rows) -> ValueError:
    bits = max(
        abs(x).numerator.bit_length() - x.denominator.bit_length() for row in rows for x in row
    )
    return ValueError(
        f"an entry near 2^{bits} is too large for the float iteration, "
        "whose floats end below 2^1024"
    )


def _over_common_denominator(rows) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Each row of Fractions as (numerators, d) with row == numerators / d,
    where d is the lcm of the row's denominators."""
    out = []
    for row in rows:
        d = math.lcm(*[x.denominator for x in row])
        if d == 1:
            out.append((tuple([x.numerator for x in row]), 1))
        else:
            out.append((tuple([x.numerator * (d // x.denominator) for x in row]), d))
    return tuple(out)


def _combine(nums: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """The integer row sum over k of nums[k] * rows[k], skipping zero nums."""
    acc = [0] * width
    for x, row in zip(nums, rows):
        if x:
            acc = [s + x * y for s, y in zip(acc, row)]
    return acc


def _fraction(n: int, d: int) -> Fraction:
    if not n:
        return _ZERO
    return Fraction(n) if d == 1 else Fraction(n, d)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product of a p x q and a q x r Matrix; raises ValueError on a
    dimension mismatch.  Row i of the result is the integer combination of
    b's column-form numerator rows weighted by the non-zero numerators of
    a's row i, each entry over that row's and column's denominators.  When
    b is integral, those sums over a's row denominator are kept as the
    result's integer rows."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    b_rows, b_dens = b._int_cols
    int_rows = tuple((tuple(_combine(nums, b_rows, b.cols)), da) for nums, da in a._int_rows)
    product = Matrix._of_fractions(
        tuple(
            tuple(_fraction(s, da * db) for s, db in zip(sums, b_dens))
            for sums, da in int_rows
        )
    )
    if all(db == 1 for db in b_dens):
        # the cached_property reads the instance dict first
        product.__dict__["_int_rows"] = int_rows
    return product


def mat_vec(m: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    """Exact column product m v.  v is any sequence of values ``rat``
    accepts (ints, Fractions, ``p/q`` strings) of length m.cols; the result
    is a tuple of Fractions."""
    if m.cols != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    ((v_nums, dv),) = _over_common_denominator([[rat(x) for x in v]])
    nz = [(k, x) for k, x in enumerate(v_nums) if x]
    return tuple(
        _fraction(sum(nums[k] * x for k, x in nz), d * dv) for nums, d in m._int_rows
    )


def vec_mat(v: Sequence, m: Matrix) -> tuple[Fraction, ...]:
    """Exact row product v m.  v is any sequence of values ``rat`` accepts
    (ints, Fractions, ``p/q`` strings) of length m.rows; the result is a
    tuple of Fractions."""
    if m.rows != len(v):
        raise ValueError("dimension mismatch in vector-matrix product")
    ((v_nums, dv),) = _over_common_denominator([[rat(x) for x in v]])
    m_rows, m_dens = m._int_cols
    return tuple(
        _fraction(s, dv * dm) for s, dm in zip(_combine(v_nums, m_rows, m.cols), m_dens)
    )


def one_norm(obj) -> Fraction:
    """Entrywise sum of absolute values, for matrices, Vectors or plain
    sequences.  This is the norm used throughout for growth rates."""
    if isinstance(obj, Matrix):
        entries = [x for row in obj.data for x in row]
    elif isinstance(obj, Vector):
        entries = obj.entries
    else:
        entries = [rat(x) for x in obj]
    ((nums, d),) = _over_common_denominator([entries])
    return _fraction(sum(map(abs, nums)), d)


@dataclass(frozen=True)
class RadiusEstimate:
    """Certified enclosure lower <= rho <= upper with checkable witnesses.

    ``witness_lower`` satisfies m v >= lower v (v >= 0, v != 0) and
    ``witness_upper`` satisfies m v <= upper v (v > 0).  ``converged`` is
    False when the requested width was not reached within the iteration
    budget; the bounds are still valid in that case, just wider.
    ``iterations`` counts the float kernel's iterations that made this
    estimate: 0 when none ran, as for a diagonal entry, or when the
    enclosure was read from an earlier computation's record.
    """

    value: float
    lower: Fraction
    upper: Fraction
    iterations: int
    converged: bool
    witness_lower: Vector
    witness_upper: Vector

    def width(self) -> Fraction:
        return self.upper - self.lower


def _closed_estimate(lower: Fraction, upper: Fraction, w, iterations: int) -> RadiusEstimate:
    """The converged estimate that one positive vector w certifies at both
    ends, [lower, upper] being its Collatz-Wielandt ratios' range."""
    return RadiusEstimate(
        value=float((lower + upper) / 2),
        lower=lower,
        upper=upper,
        iterations=iterations,
        converged=True,
        witness_lower=Vector(w),
        witness_upper=Vector(w),
    )


def certify_radius_upper(m: Matrix, rho, v) -> bool:
    """True iff m v <= rho v entrywise.  Requires v strictly positive, which
    is what makes the conclusion rho(m) <= rho sound for non-negative m."""
    rho = rat(rho)
    vv = tuple(rat(x) for x in v)
    if not m.is_square or m.rows != len(vv):
        raise ValueError("dimension mismatch")
    if any(x <= 0 for x in vv):
        raise ValueError("upper-bound certificate needs a strictly positive vector")
    return all(lhs <= rho * x for lhs, x in zip(mat_vec(m, vv), vv))


def certify_radius_lower(m: Matrix, rho, v) -> bool:
    """True iff m v >= rho v entrywise, for v >= 0, v != 0 and rho >= 0."""
    rho = rat(rho)
    vv = tuple(rat(x) for x in v)
    if not m.is_square or m.rows != len(vv):
        raise ValueError("dimension mismatch")
    if any(x < 0 for x in vv) or all(x == 0 for x in vv):
        raise ValueError("lower-bound certificate needs a non-negative non-zero vector")
    if rho < 0:
        raise ValueError("lower-bound certificate needs rho >= 0")
    return all(lhs >= rho * x for lhs, x in zip(mat_vec(m, vv), vv))


def support_blocks(rows) -> list[list[int]]:
    """The strongly connected blocks of the support digraph of a square
    matrix given by its rows (edge i -> j iff rows[i][j] > 0; ints,
    Fractions or floats), as ascending index lists, sinks first.

    Node i's reach set R(i), the nodes it reaches in zero or more steps, is
    a bitmask, closed by Warshall's pass: after pass k, R(i) holds every
    node reached through intermediates below k + 1.  Two facts make the
    blocks and their order:

    * i and j share a block iff R(i) = R(j): each lies in its own reach
      set, so equal sets reach each other, and mutual reach gives equal
      sets;
    * a block B that reaches another block B' has R(B) strictly larger
      than R(B'), which holds B' but not B.

    So sorting the blocks by reach-set size puts every block after each
    block it reaches.  Two blocks of equal size do not reach each other,
    and keep the order of their smallest indices."""
    reach = [
        sum(1 << j for j, x in enumerate(row) if x > 0) | 1 << i for i, row in enumerate(rows)
    ]
    for k, through in enumerate(reach):
        for i, r in enumerate(reach):
            if r >> k & 1:
                reach[i] = r | through
    blocks: dict[int, list[int]] = {}
    for i, r in enumerate(reach):
        blocks.setdefault(r, []).append(i)
    return sorted(blocks.values(), key=lambda block: reach[block[0]].bit_count())


def _float_mul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """Float product of a p x q and a q x r matrix given as row lists."""
    if len(a[0]) != len(b):
        raise ValueError("matrix shapes do not match for multiplication")
    cols = len(b[0])
    out = [[0.0] * cols for _ in a]
    for row, target in zip(a, out):
        for x, other in zip(row, b):
            if x != 0.0:
                for j in range(cols):
                    target[j] += x * other[j]
    return out


def _pivot(rows: list[list[int]], r: int, c: int, d: int) -> int:
    """Edmonds' fraction-free pivot on entry (r, c) of integer rows standing
    for rows / d: every other row becomes (p row - row[c] rows[r]) / d, with
    p = rows[r][c] returned as the new d.  Entries stay minors of the start
    rows, so each division is exact; a remainder raises ArithmeticError."""
    top, p = rows[r], rows[r][c]
    for i, row in enumerate(rows):
        if i != r:
            qr = [divmod(p * x - row[c] * y, d) for x, y in zip(row, top)]
            if any(rem for _, rem in qr):
                raise ArithmeticError("fraction-free pivot left a remainder")
            rows[i] = [q for q, _ in qr]
    return p


def _resolvent(m: Matrix, r: Fraction) -> list[Fraction] | None:
    """The u with (r I - m) u = 1, or None when r I - m is singular: row i
    times q d_i, for r = p/q and m's row i = nums / d_i, is pivoted down the
    diagonal by ``_pivot``, swapping rows at a zero pivot."""
    p, q, d = r.numerator, r.denominator, 1
    rows = [
        [(p * di if i == j else 0) - q * x for j, x in enumerate(nums)] + [q * di]
        for i, (nums, di) in enumerate(m._int_rows)
    ]
    for c in range(len(rows)):
        k = next((k for k in range(c, len(rows)) if rows[k][c]), None)
        if k is None:
            return None
        rows[c], rows[k] = rows[k], rows[c]
        d = _pivot(rows, c, c, d)
    return [Fraction(row[-1], d) for row in rows]


def _dyadic_witness(m: Matrix, comp: Sequence[int], tol_float: float):
    """The Collatz-Wielandt witness of the principal submatrix of m on the
    indices ``comp``, as (w, lower, upper, iterations).

    A singleton is its diagonal entry, with w = (1,) and no iteration.
    Otherwise the float Perron iterate v of the submatrix is rounded onto
    the dyadic grid, w_i = max(1, round(v_i 2^60)), and the ratios
    (sum_j n_ij w_j) / (d_i w_i) over m's integer rows, compared by
    cross-multiplying, give lower <= rho(submatrix) <= upper as integer
    (numerator, denominator) pairs.  Any positive w gives valid bounds.
    Entries beyond the float range, or near enough to it that the iterate
    overflows, raise the float-range ValueError."""
    rows = m._int_rows
    if len(comp) == 1:
        nums, d = rows[comp[0]]
        return [1], (nums[comp[0]], d), (nums[comp[0]], d), 0
    block = [rows[i] for i in comp]
    try:
        flat = [nums[j] / d for nums, d in block for j in comp]
    except OverflowError:
        raise _float_range_error(m.data) from None
    _, _, iterations, vf = power_enclosure(flat, len(comp), tol_float, POWER_ITERATION_CAP)
    if not all(map(math.isfinite, vf)):
        raise _float_range_error(m.data)
    w = [max(1, round(x * _DYADIC_SCALE)) for x in vf]
    ratios = [
        (sum(nums[j] * wj for j, wj in zip(comp, w)), d * wi)
        for (nums, d), wi in zip(block, w)
    ]
    lo_n, lo_d = hi_n, hi_d = ratios[0]
    for r_n, r_d in ratios[1:]:
        if r_n * lo_d < lo_n * r_d:
            lo_n, lo_d = r_n, r_d
        elif r_n * hi_d > hi_n * r_d:
            hi_n, hi_d = r_n, r_d
    return w, (lo_n, lo_d), (hi_n, hi_d), iterations


def block_radius_bounds(
    m: Matrix,
) -> tuple[Fraction, Fraction, list[int] | None, list[int] | None]:
    """Exact (lower, upper, critical, witness) with lower <= rho(m) <= upper
    for a non-negative square m: rho(m) is the largest block radius, so
    lower and upper are the largest bounds ``_dyadic_witness`` gives the
    strongly connected blocks.  No resolvent: the cheap enclosure that exact
    radius comparisons try before Sturm counting.  The bounds stay integer
    pairs: only the two returned ones become Fractions.

    ``critical`` is the first block B with the largest lower bound when
    every other block's upper bound is at most B's lower bound, and None
    otherwise.  Then every other block's radius is at most rho(m_BB), so
    rho(m) = rho(m_BB) exactly, and a comparison of rho(m) can run on the
    principal submatrix m_BB (``principal_submatrix``) instead.  An
    irreducible m is its own critical block.  ``witness`` is B's dyadic
    vector, over B's indices in order, whose Collatz-Wielandt ratios on
    m_BB are lower and upper; it is None when critical is."""
    tol_float = float(DEFAULT_RADIUS_TOL) / _FLOAT_KERNEL_SLACK
    # the largest block bounds so far, as (numerator, denominator) pairs
    lower_n, lower_d = upper_n, upper_d = 0, 1
    critical = witness = None
    uppers = []
    for comp in support_blocks([nums for nums, _ in m._int_rows]):
        w, (lo_n, lo_d), (hi_n, hi_d), _ = _dyadic_witness(m, comp, tol_float)
        uppers.append((hi_n, hi_d, comp))
        if critical is None or lo_n * lower_d > lower_n * lo_d:
            lower_n, lower_d, critical, witness = lo_n, lo_d, comp, w
        if hi_n * upper_d > upper_n * hi_d:
            upper_n, upper_d = hi_n, hi_d
    if any(hi_n * lower_d > lower_n * hi_d for hi_n, hi_d, comp in uppers if comp is not critical):
        critical = witness = None
    return Fraction(lower_n, lower_d), Fraction(upper_n, upper_d), critical, witness


def principal_submatrix(m: Matrix, block: Sequence[int]) -> Matrix:
    """The principal submatrix of m on the indices of block."""
    return Matrix._of_fractions(tuple(tuple(m.data[i][j] for j in block) for i in block))


def spectral_radius(m: Matrix, tol=DEFAULT_RADIUS_TOL, *, _record=None) -> RadiusEstimate:
    """Certified rational enclosure of the spectral radius of a non-negative
    square matrix.

    First ``_dyadic_witness`` runs on the whole matrix; when its bounds close
    to within tol, that one positive vector certifies both ends.  A caller
    that holds m's record from a comparison cache, ``block_radius_bounds(m)``
    (``realroots.cached_bounds``), may pass it as ``_record``.  When that
    record's critical block is every index and tol = DEFAULT_RADIUS_TOL, the
    tolerance records are made at, its witness and bounds are the ones the
    kernel would give here, and they stand in for that whole-matrix attempt,
    closed or not, with no kernel run.  Any other record is ignored.  A row
    whose only non-zero entry is its diagonal d has ratio d for every
    positive vector, while the largest ratio is at least rho, which is at
    least the largest diagonal entry; so when such a d lies more than tol
    below that entry the whole-matrix kernel cannot close and is skipped.
    When the gap refuses to close (reducible support is the usual culprit,
    or clustered moduli) the computation reruns per strongly connected
    block and stitches exact global bounds back together.  An irreducible
    matrix's one block is the whole matrix, whose witness is already in
    hand, so the kernel never runs twice on the same indices:

    * lower: the best block lower bound, witnessed by the block's vector
      extended with zeros.  On a tie the first such block in
      ``support_blocks`` order gives the witness;
    * upper: the resolvent solve (r I - m) u = 1 (``_resolvent``) at a trial
      r just above the lower bound, escalating r until u > 0 and m u <= r u
      hold exactly.
    """
    if not m.is_square:
        raise ValueError("spectral radius needs a square matrix")
    if not m.is_nonnegative:
        raise ValueError("spectral radius defined here for non-negative matrices only")
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    n = m.rows
    tol_float = float(tol) / _FLOAT_KERNEL_SLACK
    # the diagonal entries of the rows that are zero off their diagonal
    lone = [row[i] for i, row in enumerate(m.data) if not (any(row[:i]) or any(row[i + 1 :]))]
    iterations = 0
    if _record is not None and tol == DEFAULT_RADIUS_TOL and _record[2] == list(range(n)):
        lower, upper, _, w = _record
        whole = (w, lower.as_integer_ratio(), upper.as_integer_ratio(), 0)
    elif not lone or min(lone) >= max(row[i] for i, row in enumerate(m.data)) - tol:
        whole = _dyadic_witness(m, range(n), tol_float)
    else:
        whole = None
    if whole is not None:
        w, lo, hi, iterations = whole
        lower, upper = Fraction(*lo), Fraction(*hi)
        if upper - lower <= tol:
            return _closed_estimate(lower, upper, w, iterations)
    comps = support_blocks(m.data)
    if len(comps) == 1:
        # an irreducible m has no lone row unless n = 1, so whole is its
        # one block's witness
        blocks = [(comps[0], *whole)]
    else:
        blocks = [(comp, *_dyadic_witness(m, comp, tol_float)) for comp in comps]
        iterations += sum(iters for *_, iters in blocks)
    block_upper = max(Fraction(*hi) for _, _, _, hi, _ in blocks)
    # the first block with the largest lower bound; its vector extended by zeros
    comp, w, lo, _, _ = max(blocks, key=lambda block: Fraction(*block[2]))
    lower = Fraction(*lo)
    lower_witness = [0] * n
    for i, x in zip(comp, w):
        lower_witness[i] = x
    if not certify_radius_lower(m, lower, lower_witness):
        # cannot happen: off-block rows get 0 >= lower * 0; keep the guard
        raise RuntimeError("internal certification failure (lower bound)")
    # exact resolvent solve at escalating trial radii; every trial above rho
    # certifies, so the doubling stops by the first trial above block_upper,
    # however large the entries
    step = tol / 2
    while True:
        upper = lower + step
        sol = _resolvent(m, upper)
        if sol is not None and all(x > 0 for x in sol) and certify_radius_upper(m, upper, sol):
            break
        if upper > block_upper:
            raise RuntimeError("resolvent escalation failed to certify an upper bound")
        step *= 2
    return RadiusEstimate(
        value=float((lower + upper) / 2),
        lower=lower,
        upper=upper,
        iterations=iterations,
        converged=upper - lower <= tol,
        witness_lower=Vector(lower_witness),
        witness_upper=Vector(sol),
    )
