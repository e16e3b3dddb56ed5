"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports ``entropygames``: spectral radii come from numpy
eigenvalues over the whole member grid, mean payoffs from positional brute
force with cycle detection, and two-counter machines from a literal
interpreter.  The benchmark computes these during set-up, outside the timed
phase, and compares every program output against them.

The numpy oracles run in a child process, ``python3 oracles.py JOBS OUT``,
so that the benchmark's own process never loads numpy and its peak memory
is the program's.  JOBS is a JSON list of ``[a_row_sets, e_row_sets]``
pairs; OUT receives one table of rho(A E) per pair (see ``game_table``).
The rest of this module is pure Python and runs in the benchmark itself.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction


def arena_row_sets(despot, tribune, transitions):
    """Candidate rows of both players, straight off the transition list:
    one row per (state, action), entry j the summed multiplicity into the
    j-th state of the other side, duplicates removed."""

    def side(states, targets):
        index = {s: j for j, s in enumerate(targets)}
        out = []
        for state in states:
            rows = {}
            for frm, action, to, weight in transitions:
                if frm == state:
                    row = rows.setdefault(action, [0] * len(targets))
                    row[index[to]] += weight
            out.append(sorted({tuple(r) for r in rows.values()}))
        return out

    return side(despot, tribune), side(tribune, despot)


def game_table(a_row_sets, e_row_sets) -> list[list[float]]:
    """rho(A E) for every member pair, from numpy eigenvalues.  Members are
    numbered in the order of ``itertools.product`` over the row sets, which
    is the order ``member_index`` assumes."""
    import numpy as np

    def members(row_sets):
        return np.array(list(itertools.product(*row_sets)), dtype=float)

    products = np.einsum("aij,ejk->aeik", members(a_row_sets), members(e_row_sets))
    return np.abs(np.linalg.eigvals(products)).max(axis=-1).tolist()


def member_index(row_sets, matrix) -> int:
    """Number of the member whose rows are ``matrix`` (entries may be
    Fractions), in ``itertools.product`` order; raises ValueError when a row
    is not in its state's row set."""
    index = 0
    for rows, row in zip(row_sets, matrix):
        index = index * len(rows) + rows.index(tuple(row))
    return index


def minimax(table) -> float:
    """min over A of max over E of rho(A E), the value of the game."""
    return min(max(row) for row in table)


def saddle_gaps(table, i0: int, j0: int) -> tuple[float, float]:
    """How far member pair (i0, j0) is from a saddle of the table: the
    largest rho(A_i0 E) - rho(A_i0 E_j0) over E and the largest
    rho(A_i0 E_j0) - rho(A E_j0) over A.  Both are <= 0 (up to rounding) at
    a true saddle."""
    centre = table[i0][j0]
    return max(table[i0]) - centre, centre - min(row[j0] for row in table)


def _cycle_mean(sigma, tau, start) -> Fraction:
    seen = {}
    state, time, total = start, 0, Fraction(0)
    while state not in seen:
        seen[state] = (time, total)
        middle, w1 = sigma[state]
        state, w2 = tau[middle]
        total += w1 + w2
        time += 1
    t0, w0 = seen[state]
    return (total - w0) / (time - t0)


def mpg_value(despot, tribune, transitions) -> Fraction:
    """Mean payoff per full turn: min over despot positional strategies of
    max over tribune ones of the worst-start eventual cycle mean."""
    succ: dict[str, list] = {}
    for frm, to, w in transitions:
        succ.setdefault(frm, []).append((to, w))
    best = None
    for d_pick in itertools.product(*(succ[d] for d in despot)):
        sigma = dict(zip(despot, d_pick))
        worst = None
        for t_pick in itertools.product(*(succ[t] for t in tribune)):
            tau = dict(zip(tribune, t_pick))
            val = max(_cycle_mean(sigma, tau, s) for s in despot)
            worst = val if worst is None or val > worst else worst
        best = worst if best is None or worst < best else best
    return best


def machine_halting_step(program: dict, start: str, max_steps: int):
    """Steps a two-counter machine takes to reach its stop instruction, or
    None if it has not stopped after max_steps.  ``program`` maps a state to
    ("inc", counter, next), ("jzdec", counter, if_zero, else) or ("stop",)."""
    state, counters = start, {"x": 0, "y": 0}
    for step in range(max_steps + 1):
        ins = program[state]
        if ins[0] == "stop":
            return step
        if ins[0] == "inc":
            counters[ins[1]] += 1
            state = ins[2]
        elif counters[ins[1]] == 0:
            state = ins[2]
        else:
            counters[ins[1]] -= 1
            state = ins[3]
    return None


def bits(value) -> int:
    """Larger of the bit lengths of a rational's numerator and denominator."""
    q = Fraction(value)
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def main(argv) -> int:
    jobs_path, out_path = argv
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tables = [game_table(a, e) for a, e in jobs]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tables, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
