"""Exact rational linear programming, enough for the decision procedures.

A small dense two-phase simplex over ``fractions.Fraction`` with Bland's
anti-cycling rule; constraints are <=, >= or == rows.  The tableau is kept
lean without a second interface: a row x_j >= 0 (sense >=, right-hand side
0, one coefficient, positive) makes x_j a non-negative column and adds no
row, while every other variable is free and split as x = x+ - x-; and a >=
row with right-hand side 0 is negated to <=, so its slack starts basic and
it needs no phase-1 artificial.  The sizes here are tiny (tens of
variables), so exactness beats sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import rat

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "=="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class FeasibilitySystem:
    """A finite system of linear constraints over rational variables, with
    an optional linear objective to maximise.  Variables are free unless a
    row x_j >= 0 bounds them."""

    variables: int
    constraints: tuple[tuple[tuple[Fraction, ...], str, Fraction], ...]
    objective: tuple[Fraction, ...] | None = None

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
        if self.objective is not None:
            obj = tuple(rat(c) for c in self.objective)
            if len(obj) != self.variables:
                raise ValueError("objective length does not match variable count")
            object.__setattr__(self, "objective", obj)


@dataclass(frozen=True)
class LpResult:
    status: str
    objective_value: Fraction | None
    solution: tuple[Fraction, ...] | None


def _pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    pivot_row = tableau[row]
    for r, current in enumerate(tableau):
        if r != row and current[col] != 0:
            f = current[col]
            tableau[r] = [x - f * y for x, y in zip(current, pivot_row)]


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], width: int) -> str:
    """Maximise with Bland's rule.  The last tableau row is the objective in
    the invariant form objective(x) = sum_j row[j] x_j - row[-1] for every x
    satisfying the constraint rows, so the current value is -row[-1] and any
    positive reduced cost offers improvement."""
    while True:
        obj = tableau[-1]
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best_ratio = None
        best_basis = None
        for i in range(len(tableau) - 1):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < best_basis)
                ):
                    best_ratio = ratio
                    best_basis = basis[i]
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tableau, leave, enter)
        basis[leave] = enter


_FLIPPED = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}


def _sign_variable(coeffs, sense: str, rhs: Fraction) -> int | None:
    """j when the row says x_j >= 0 (sense >=, right-hand side 0 and a
    single coefficient, positive), else None."""
    if sense != GREATER_EQUAL or rhs != 0:
        return None
    support = [j for j, c in enumerate(coeffs) if c != 0]
    if len(support) == 1 and coeffs[support[0]] > 0:
        return support[0]
    return None


def lp_max(system: FeasibilitySystem) -> LpResult:
    """Solve the system, maximising its objective (feasibility only when the
    objective is None).  Returns status optimal, infeasible or unbounded; on
    optimal, an exact optimal solution and objective value."""
    n = system.variables
    nonneg = set()
    cons = []
    for coeffs, sense, rhs in system.constraints:
        j = _sign_variable(coeffs, sense, rhs)
        if j is None:
            cons.append((coeffs, sense, rhs))
        else:
            nonneg.add(j)
    # x_j is column start[j], less column start[j] + 1 when it is split
    start = []
    width = 0
    for j in range(n):
        start.append(width)
        width += 1 if j in nonneg else 2

    def expand(coeffs) -> list[Fraction]:
        row = [Fraction(0)] * width
        for j, c in enumerate(coeffs):
            row[start[j]] = c
            if j not in nonneg:
                row[start[j] + 1] = -c
        return row

    # Negate rows to make every right-hand side non-negative, and >= rows
    # with right-hand side 0 too: a <= row's slack starts basic, and only
    # the >= and == rows left need a phase-1 artificial.
    rows = []
    for coeffs, sense, rhs in cons:
        if rhs < 0 or (rhs == 0 and sense == GREATER_EQUAL):
            coeffs, sense, rhs = [-c for c in coeffs], _FLIPPED[sense], -rhs
        rows.append((expand(coeffs), sense, rhs))
    real = width + sum(1 for _, sense, _ in rows if sense != EQUAL)
    total = real + sum(1 for _, sense, _ in rows if sense != LESS_EQUAL)
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    slack, artificial = width, real
    for row, sense, rhs in rows:
        row = row + [Fraction(0)] * (total - width) + [rhs]
        if sense == LESS_EQUAL:
            row[slack] = Fraction(1)
            basis.append(slack)
        else:
            if sense == GREATER_EQUAL:
                row[slack] = Fraction(-1)
            row[artificial] = Fraction(1)
            basis.append(artificial)
            artificial += 1
        slack += sense != EQUAL
        tableau.append(row)
    if total > real:
        # phase 1: maximise -(sum of artificials), each basic artificial
        # priced out so its reduced cost starts at 0
        phase1 = [Fraction(0)] * real + [Fraction(-1)] * (total - real) + [Fraction(0)]
        for row, b in zip(tableau, basis):
            if b >= real:
                phase1 = [x + y for x, y in zip(phase1, row)]
        tableau.append(phase1)
        if _run_simplex(tableau, basis, total) != OPTIMAL:
            raise RuntimeError("phase 1 cannot be unbounded")
        if tableau.pop()[-1] != 0:
            return LpResult(status=INFEASIBLE, objective_value=None, solution=None)
        # drive zero-valued artificials out of the basis; a row with no
        # real column left is redundant and goes
        keep = []
        for i, b in enumerate(basis):
            if b >= real:
                col = next((j for j in range(real) if tableau[i][j] != 0), None)
                if col is None:
                    continue
                _pivot(tableau, i, col)
                basis[i] = col
            keep.append(i)
        tableau = [tableau[i][:real] + [tableau[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
    objective = system.objective or (Fraction(0),) * n
    obj_row = expand(objective) + [Fraction(0)] * (real - width + 1)
    for row, b in zip(tableau, basis):
        c = obj_row[b]
        if c != 0:
            obj_row = [x - c * y for x, y in zip(obj_row, row)]
    tableau.append(obj_row)
    if _run_simplex(tableau, basis, real) == UNBOUNDED:
        return LpResult(status=UNBOUNDED, objective_value=None, solution=None)
    values = [Fraction(0)] * real
    for row, b in zip(tableau, basis):
        values[b] = row[-1]
    solution = tuple(
        values[start[j]] - (0 if j in nonneg else values[start[j] + 1]) for j in range(n)
    )
    if system.objective is None:
        return LpResult(status=OPTIMAL, objective_value=None, solution=solution)
    value = sum(c * x for c, x in zip(system.objective, solution))
    return LpResult(status=OPTIMAL, objective_value=value, solution=solution)
