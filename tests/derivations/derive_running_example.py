"""Derives every frozen constant for the three-state running example.

Independent routes only: numpy eigenvalues, closed-form root of the quadratic
x^2 = 3x + 2 via the decimal module, and a direct graph walk for the forest
trace. Run from the repository root: python tests/derivations/derive_running_example.py
"""

import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from oracle_helpers import forest_walk, mat_mul_lists, minmax_table, rho_numpy

# Arena read off the running-example figure. Despot states d1..d3 own actions
# a/b toward tribune states t1..t3 and back.
DESPOT = ["d1", "d2", "d3"]
TRIBUNE = ["t1", "t2", "t3"]
TRANSITIONS = [
    ("d1", "a", "t1", 1), ("d1", "a", "t2", 1),
    ("d1", "b", "t1", 1), ("d1", "b", "t2", 1),
    ("d2", "a", "t1", 1), ("d2", "a", "t3", 1),
    ("d2", "b", "t2", 1),
    ("d3", "a", "t2", 1), ("d3", "a", "t3", 1),
    ("d3", "b", "t2", 1), ("d3", "b", "t3", 1),
    ("t1", "a", "d1", 1),
    ("t1", "b", "d2", 1),
    ("t2", "a", "d1", 1), ("t2", "a", "d2", 1), ("t2", "a", "d3", 1),
    ("t2", "b", "d1", 1), ("t2", "b", "d2", 1), ("t2", "b", "d3", 1),
    ("t3", "a", "d3", 1),
    ("t3", "b", "d2", 1),
]

# Row sets listed for the translation of that arena (despot rows over tribune
# states and vice versa), rebuilt here by hand from the transitions.
A_ROW_SETS = [
    [(1, 1, 0)],
    [(0, 1, 0), (1, 0, 1)],
    [(0, 1, 1)],
]
E_ROW_SETS = [
    [(0, 1, 0), (1, 0, 0)],
    [(1, 1, 1)],
    [(0, 1, 0), (0, 0, 1)],
]


def main():
    getcontext().prec = 60
    root = (Decimal(3) + Decimal(17).sqrt()) / 2
    print("closed-form largest root of x^2-3x-2:", root)
    print("float:", float(root))
    print("entropy bits log2(root)/4:", float(root.ln() / Decimal(2).ln() / 4))

    table, minmax, maxmin, a_members, e_members = minmax_table(A_ROW_SETS, E_ROW_SETS)
    print("\nrho(A_i * E_j) table (A lex x E lex):")
    for row in table:
        print(["%.9f" % x for x in row])
    print("min-max:", "%.12f" % minmax, " max-min:", "%.12f" % maxmin)

    saddles = []
    for i, arow in enumerate(table):
        for j in range(len(arow)):
            if all(table[i][jj] <= table[i][j] + 1e-9 for jj in range(len(arow))) and \
               all(table[ii][j] >= table[i][j] - 1e-9 for ii in range(len(table))):
                saddles.append((i, j))
    print("saddle (i, j) pairs:", saddles)
    for i, j in saddles:
        print(f"  A[{i}] =", a_members[i], f" E[{j}] =", e_members[j])
        print("   A*E =", mat_mul_lists(a_members[i], e_members[j]))

    prod = mat_mul_lists(a_members[1], e_members[2])
    print("\nrho of candidate product:", "%.12f" % rho_numpy(prod))
    # Perron vector from the quadratic: (1, 2/rho, 1) normalized to sum 1.
    raw = [Decimal(1), 2 / root, Decimal(1)]
    total = sum(raw)
    print("perron vector (1-norm 1):", [float(x / total) for x in raw])

    levels = forest_walk(DESPOT, TRIBUNE, TRANSITIONS, "ab", "aa")
    print("\nforest trace for despot ab / tribune aa:")
    for lev in levels:
        print([str(Fraction(x)) for x in lev])

    norms = [float(max(abs(x) for x in np_row)) for np_row in []]  # placeholder, unused
    del norms

    # Upper bound used to seed the value bisection: product of the two largest
    # entry-sum norms over the members.
    max_a = max(sum(sum(r) for r in m) for m in a_members)
    max_e = max(sum(sum(r) for r in m) for m in e_members)
    print("\nmax ||A|| =", max_a, " max ||E|| =", max_e, " product =", max_a * max_e)


if __name__ == "__main__":
    main()
