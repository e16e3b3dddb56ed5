"""Independent-row-uncertainty sets of non-negative matrices.

An IruSet fixes, for each row index, a finite set of candidate rows; its
members are all matrices assembled by picking one candidate per row,
independently.  This product structure is what every decision procedure in
the package exploits: a set with row sets of sizes s_1..s_n has
s_1 * ... * s_n members but is described by only s_1 + ... + s_n rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, rat, vec_mat

# the most members one enumeration may visit, read at each enumeration
ENUM_CAP = 10**6


class EnumerationCapError(ValueError):
    """Raised when a member enumeration would exceed ENUM_CAP."""


@dataclass(frozen=True)
class RowSet:
    """A finite set of candidate rows, deduplicated and kept in lexicographic
    order so equal sets compare equal.  Entries must be non-negative; zero
    rows are allowed."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        cleaned = {tuple(rat(x) for x in row) for row in self.rows}
        if not cleaned:
            raise ValueError("row set must contain at least one row")
        rows = tuple(sorted(cleaned))
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("rows of differing lengths in one row set")
        if any(x < 0 for r in rows for x in r):
            raise ValueError("row sets hold non-negative rows only")
        object.__setattr__(self, "rows", rows)

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def is_positive(self) -> bool:
        return all(x > 0 for r in self.rows for x in r)

    def __contains__(self, row) -> bool:
        probe = tuple(rat(x) for x in row)
        return probe in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class IruSet:
    """Independent-row-uncertainty set: one RowSet per row index."""

    row_sets: tuple[RowSet, ...]

    def __post_init__(self):
        sets = tuple(
            rs if isinstance(rs, RowSet) else RowSet(tuple(rs)) for rs in self.row_sets
        )
        if not sets:
            raise ValueError("need at least one row set")
        width = sets[0].dim
        if any(rs.dim != width for rs in sets):
            raise ValueError("all row sets must share the same row length")
        object.__setattr__(self, "row_sets", sets)

    @property
    def n_rows(self) -> int:
        return len(self.row_sets)

    @property
    def n_cols(self) -> int:
        return self.row_sets[0].dim

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def size(self) -> int:
        total = 1
        for rs in self.row_sets:
            total *= rs.size
        return total

    @property
    def is_positive(self) -> bool:
        return all(rs.is_positive for rs in self.row_sets)

    def member(self, choice) -> Matrix:
        if len(choice) != self.n_rows:
            raise ValueError("one row choice per row index required")
        return Matrix._of_fractions(
            tuple(self.row_sets[i].rows[k] for i, k in enumerate(choice))
        )

    def contains_matrix(self, m: Matrix) -> bool:
        if m.rows != self.n_rows or m.cols != self.n_cols:
            return False
        return all(m.row(i) in self.row_sets[i] for i in range(self.n_rows))


def iru_set(row_sets) -> IruSet:
    """Convenience constructor accepting nested plain lists."""
    return IruSet(tuple(RowSet(tuple(rs)) for rs in row_sets))


def enumerate_members(s: IruSet, stage: str | None = None):
    """Yield every member matrix in lexicographic order of row choices.

    Raises EnumerationCapError before the first member when the member
    count exceeds ENUM_CAP; the message starts with ``stage``, the step
    that enumerates, when one is given."""
    if s.size > ENUM_CAP:
        prefix = f"{stage}: " if stage else ""
        raise EnumerationCapError(
            f"{prefix}{s.size} members exceed the enumeration cap of {ENUM_CAP}"
        )
    for rows in itertools.product(*(rs.rows for rs in s.row_sets)):
        yield Matrix._of_fractions(rows)


def right_product(s: IruSet, b: Matrix) -> IruSet:
    """The IruSet whose row sets are {r . b : r in S_i}: multiplying every
    member on the right by b preserves the independent-row structure.
    Duplicate product rows collapse, so the result can be strictly smaller."""
    if s.n_cols != b.rows:
        raise ValueError("dimension mismatch in right product")
    return IruSet(tuple(RowSet(tuple(vec_mat(row, b) for row in rs.rows)) for rs in s.row_sets))


@dataclass(frozen=True)
class HourglassReport:
    """Outcome of the two alternative clauses tested by hourglass_check.

    For the given u >= 0 and member W with W u = v, exactly one branch per
    clause holds: either every member satisfies the uniform inequality, or
    the reported member witnesses the strict alternative."""

    all_ge: bool
    below_member: Matrix | None
    all_le: bool
    above_member: Matrix | None


def hourglass_check(s: IruSet, u, v, witness: Matrix) -> HourglassReport:
    """Decide, for each direction, whether A u compares uniformly with v over
    all members, or produce a one-row modification of the witness breaking
    equality in that direction.

    Preconditions checked exactly: u is non-negative, the witness rows come
    from the respective row sets, and witness . u == v."""
    uu = tuple(rat(x) for x in u)
    vv = tuple(rat(x) for x in v)
    if len(uu) != s.n_cols or len(vv) != s.n_rows:
        raise ValueError("dimension mismatch")
    if any(x < 0 for x in uu):
        raise ValueError("u must be non-negative")
    if not s.contains_matrix(witness):
        raise ValueError("witness rows must come from the row sets")
    images = [sum(x * y for x, y in zip(witness.row(i), uu)) for i in range(s.n_rows)]
    if tuple(images) != vv:
        raise ValueError("witness does not map u to v")

    def scan(direction):
        # first (row set, candidate row) whose image crosses v[i] strictly
        for i, rs in enumerate(s.row_sets):
            for row in rs.rows:
                img = sum(x * y for x, y in zip(row, uu))
                if (direction < 0 and img < vv[i]) or (direction > 0 and img > vv[i]):
                    rows = list(witness.data)
                    rows[i] = row
                    return Matrix(tuple(rows))
        return None

    below = scan(-1)
    above = scan(+1)
    return HourglassReport(
        all_ge=below is None,
        below_member=below,
        all_le=above is None,
        above_member=above,
    )
