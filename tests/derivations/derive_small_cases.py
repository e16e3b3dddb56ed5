"""Derives frozen constants for the smaller worked examples: jsr/jssr of the
running despot family, right-product row sets, threshold ground truths, the
mean-payoff two-cycle, and the scripted-machine traces.

Run from the repository root: python tests/derivations/derive_small_cases.py
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from oracle_helpers import (
    mat_mul_lists,
    members,
    mpg_bruteforce_value,
    reference_integer_encoding,
    reference_nonneg_encoding,
    rho_numpy,
    run_machine,
    vec_mat,
)

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
A0 = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]


def main():
    print("rho over members of the despot family:")
    for m in members(A_ROW_SETS):
        print("  ", m, "->", "%.9f" % rho_numpy(m))

    print("\nrho for the 2x2 example {[2,0],[0,0]} x {[0,1]}:")
    for m in members([[(2, 0), (0, 0)], [(0, 1)]]):
        print("  ", m, "->", "%.9f" % rho_numpy(m))

    print("\nright-product row sets of eve family by A0 (brute force over members):")
    prods = sorted(
        tuple(tuple(row) for row in mat_mul_lists(e, A0)) for e in members(E_ROW_SETS)
    )
    for p in prods:
        print("  ", p)
    print("per-row products {e_row * A0}:")
    for i, rs in enumerate(E_ROW_SETS):
        out = sorted(set(tuple(vec_mat(list(r), A0)) for r in rs))
        print(f"  row set {i}:", out)

    print("\nmean-payoff 2-cycle (d->t w=1, t->d w=2):")
    val = mpg_bruteforce_value(["d"], ["t"], [("d", "t", 1), ("t", "d", 2)])
    print("  brute-force mp per turn:", val, " 2^mp:", 2 ** val)
    print("  reduced EG determinized: rho([[2]]*[[4]]) =", rho_numpy([[8]]))

    print("\ntwo-counter machine traces (interpreter):")
    looper = {"q0": ("inc", "x", "q0")}
    trace, halted = run_machine(looper, "q0", 6)
    print("  looper:", trace, "halted:", halted)
    m1 = {"q0": ("inc", "x", "q1"), "q1": ("stop",)}
    trace, halted = run_machine(m1, "q0", 6)
    print("  m1:", trace, "halted:", halted)
    m2 = {"q0": ("inc", "x", "q1"), "q1": ("jzdec", "x", "q2", "q1"), "q2": ("stop",)}
    trace, halted = run_machine(m2, "q0", 8)
    print("  m2:", trace, "halted:", halted)
    m3 = {
        "q0": ("jzdec", "y", "q1", "q0"),
        "q1": ("inc", "x", "q2"),
        "q2": ("jzdec", "x", "q3", "q2"),
        "q3": ("stop",),
    }
    trace, halted = run_machine(m3, "q0", 8)
    print("  m3:", trace, "halted:", halted)

    print("\ninteger encoding of m1 (reference instantiation):")
    labels, adam, eve, v0 = reference_integer_encoding(["q0", "q1"], m1)
    print("  labels:", labels, " dim:", len(labels))
    print("  |adam| =", len(adam), [n for n, _ in adam])
    print("  |eve|  =", len(eve), [n for n, _ in eve])
    v1 = vec_mat(v0, eve[0][1])
    print("  v0 =", v0)
    print("  v0 . I =", v1)

    print("\nnon-negative encoding of m1:")
    labels, adam, eve, v0 = reference_nonneg_encoding(["q0", "q1"], m1)
    print("  labels:", labels, " dim:", len(labels))
    print("  |adam| =", len(adam), [n for n, _ in adam])
    print("  |eve|  =", len(eve), [n for n, _ in eve])
    print("  v0 =", v0)
    print("  v0 . I =", vec_mat(v0, eve[0][1]))
    print("  I entries:", eve[0][1])

    print("\nnon-negative looper growth (faithful, Adam plays Id):")
    labels, adam, eve, v = reference_nonneg_encoding(["q0"], looper)
    for n in range(5):
        v = vec_mat(v, eve[0][1])
        print(f"  after {n + 1} turns:", v)

    print("\nnon-negative zero-test self loop {q0: jzdec x -> q0 else q0}:")
    zl = {"q0": ("jzdec", "x", "q0", "q0")}
    labels, adam, eve, v = reference_nonneg_encoding(["q0"], zl)
    print("  eve names:", [n for n, _ in eve])
    for n in range(4):
        v = vec_mat(v, eve[0][1])  # faithful at x=0 plays the zero branch K
        print(f"  after {n + 1} turns:", v)


if __name__ == "__main__":
    main()
