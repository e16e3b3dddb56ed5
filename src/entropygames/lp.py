"""Exact rational feasibility over non-negative variables, enough for the
decision procedures.

Every LP they pose asks one question: is there an x >= 0 satisfying a
finite set of <=, >= and == rows?  Phase 1 of a dense simplex answers it,
with Bland's anti-cycling rule (Bland, "New finite pivoting rules for the
simplex method", 1977): it drives the sum of the artificial variables down,
and the system is feasible exactly when that sum reaches 0, at a basic
solution.  A row with a negative right-hand side is negated, and so is a >=
row with right-hand side 0, so its slack starts basic and it needs no
artificial.  The x-coefficients and right-hand sides are scaled by the
lcm of their denominators, and ``linalg._pivot`` pivots the integer
tableau; uniform positive column scalings keep every reduced cost's sign
and the ratio order, so Bland's rule takes the rational tableau's pivots.
The sizes here are tiny (tens of variables), so exactness beats sparsity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import _pivot, rat

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class FeasibilitySystem:
    """A finite system of linear constraints over non-negative rational
    variables."""

    variables: int
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]

    def __post_init__(self):
        if self.variables <= 0:
            raise ValueError("need at least one variable")
        normalized = []
        for coeffs, sense, rhs in self.constraints:
            coeffs = tuple(rat(c) for c in coeffs)
            if len(coeffs) != self.variables:
                raise ValueError("constraint length does not match variable count")
            if sense not in (LESS_EQUAL, GREATER_EQUAL, EQUAL):
                raise ValueError(f"unknown constraint sense {sense!r}")
            normalized.append((coeffs, sense, rat(rhs)))
        object.__setattr__(self, "constraints", tuple(normalized))


@dataclass(frozen=True)
class LpResult:
    """Status optimal with a basic solution, or infeasible with None."""

    status: str
    solution: tuple[Fraction, ...] | None


_FLIPPED = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}


def lp_max(system: FeasibilitySystem) -> LpResult:
    """A basic solution x >= 0 of the system, with status optimal, or
    status infeasible when there is none."""
    n = system.variables
    scale = math.lcm(*(x.denominator for c, _, b in system.constraints for x in (*c, b)))
    # Scale the rows to integers and negate them to make every right-hand
    # side non-negative, and >= rows with right-hand side 0 too: a <= row's
    # slack starts basic, and only the >= and == rows left need an artificial.
    rows = []
    for coeffs, sense, rhs in system.constraints:
        coeffs = [x.numerator * (scale // x.denominator) for x in coeffs]
        rhs = rhs.numerator * (scale // rhs.denominator)
        if rhs < 0 or (rhs == 0 and sense == GREATER_EQUAL):
            coeffs, sense, rhs = [-c for c in coeffs], _FLIPPED[sense], -rhs
        rows.append((coeffs, sense, rhs))
    real = n + sum(1 for _, sense, _ in rows if sense != EQUAL)
    total = real + sum(1 for _, sense, _ in rows if sense != LESS_EQUAL)
    tableau, basis = [], []
    slack, artificial = n, real
    for coeffs, sense, rhs in rows:
        row = coeffs + [0] * (total - n) + [rhs]
        if sense == LESS_EQUAL:
            row[slack] = 1
            basis.append(slack)
        else:
            if sense == GREATER_EQUAL:
                row[slack] = -1
            row[artificial] = 1
            basis.append(artificial)
            artificial += 1
        slack += sense != EQUAL
        tableau.append(row)
    # Maximise -(sum of artificials), each basic artificial priced out so
    # its reduced cost starts at 0.  The tableau stands for its entries over
    # d > 0 (pivots are positive), and the last row keeps the invariant
    # d objective(x) = sum_j row[j] x_j - row[-1] for every x satisfying the
    # scaled rows: the value is -row[-1] / d, and a positive entry improves.
    objective = [0] * real + [-1] * (total - real) + [0]
    for row, b in zip(tableau, basis):
        if b >= real:
            objective = [x + y for x, y in zip(objective, row)]
    tableau.append(objective)
    d = 1
    while True:
        # Bland: the first improving column enters; the least ratio's row
        # leaves, rows taken by basic column so that a tie keeps the least.
        # The objective is at most 0, so some row has a positive entry.
        enter = next((j for j in range(total) if tableau[-1][j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in sorted(range(len(basis)), key=basis.__getitem__):
            a, b = tableau[i][enter], tableau[i][-1]
            if a > 0 and (leave is None or b * tableau[leave][enter] < tableau[leave][-1] * a):
                leave = i
        d = _pivot(tableau, leave, enter, d)
        basis[leave] = enter
    if tableau[-1][-1] != 0:
        return LpResult(status=INFEASIBLE, solution=None)
    values = [0] * total
    for row, b in zip(tableau, basis):
        values[b] = row[-1]
    return LpResult(status=OPTIMAL, solution=tuple(Fraction(x, d) for x in values[:n]))
