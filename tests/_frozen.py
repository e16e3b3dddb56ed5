"""Expected values frozen from the independent oracle scripts in tests/derivations/.

Regenerate by running the scripts named next to each block; tests import from
here instead of recomputing, so drift in the package cannot silently redefine
what "correct" means.
"""

from fractions import Fraction

F = Fraction

# --- tests/derivations/derive_running_example.py ---

# Largest root of x^2 = 3x + 2, to 50 places (decimal square root route).
RUNNING_VALUE = 3.5615528128088303
RUNNING_VALUE_STR = "3.56155281280883027491070492798703851257359961268681"
RUNNING_ENTROPY_BITS = 0.45812659589511284

FIG1_DESPOT = ["d1", "d2", "d3"]
FIG1_TRIBUNE = ["t1", "t2", "t3"]
FIG1_ALPHABET = ["a", "b"]
FIG1_TRANSITIONS = [
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

# Translation row sets (rows lex-sorted inside each set, matching canonical form).
FIG1_A_ROW_SETS = [
    [(1, 1, 0)],
    [(0, 1, 0), (1, 0, 1)],
    [(0, 1, 1)],
]
FIG1_E_ROW_SETS = [
    [(0, 1, 0), (1, 0, 0)],
    [(1, 1, 1)],
    [(0, 0, 1), (0, 1, 0)],
]

# The unique saddle of the member-pair table (brute-force eigenvalue route).
SADDLE_A0 = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
SADDLE_E0 = ((1, 0, 0), (1, 1, 1), (0, 0, 1))
SADDLE_PRODUCT = ((2, 1, 1), (1, 0, 1), (1, 1, 2))
# rho(A_i E_j) table in lex order (A: 2 members, E: 4 members with the
# canonical sorted third row set; column order re-derived below).
RUNNING_MINMAX = 3.561552812809  # = RUNNING_MAXMIN, both to 1e-12

FOREST_TRACE_AB_AA = [
    (F(1), F(1), F(1)),
    (F(2), F(2), F(2)),
    (F(4), F(2), F(4)),
    (F(4), F(10), F(4)),
    (F(14), F(10), F(14)),
]

BISECTION_NORM_BOUND = 30  # max ||A|| * max ||E|| = 6 * 5

# --- tests/derivations/derive_small_cases.py ---

RUNNING_A_JSR = 2.0   # member ((1,1,0),(1,0,1),(0,1,1))
RUNNING_A_JSSR = 1.0  # member ((1,1,0),(0,1,0),(0,1,1))
TWO_BY_TWO_JSR = 2.0  # {[2,0],[0,0]} x {[0,1]} -> rho([[2,0],[0,1]])

# right_product(eve family, A0): per-row-set products, sets sorted lex.
EVE_TIMES_A0_ROW_SETS = [
    [(1, 0, 1), (1, 1, 0)],
    [(2, 2, 2)],
    [(0, 1, 1), (1, 0, 1)],
]

MPG_TWO_CYCLE_MP = F(3)  # per full turn; reduced EG value 2^3 = 8
MPG_TWO_CYCLE_EG_VALUE = 8.0

# Machine interpreter traces: (state, x, y) per step.
M1_PROGRAM_TEXT = "q0: inc x -> q1\nq1: stop\n"
M1_TRACE = [("q0", 0, 0), ("q1", 1, 0)]
M2_TRACE = [("q0", 0, 0), ("q1", 1, 0), ("q1", 0, 0), ("q2", 0, 0)]
M3_TRACE = [("q0", 0, 0), ("q1", 0, 0), ("q2", 1, 0), ("q2", 0, 0), ("q3", 0, 0)]

# Integer encoding of m1 = {q0: inc x -> q1; q1: stop}.
M1_INT_DIM = 7
M1_INT_ADAM = 8
M1_INT_EVE = 1
M1_INT_V0 = (1, 0, 0, 0, 1, 1, 0)          # labels q0 q1 x y One E Neg
M1_INT_V0_AFTER_I = (0, 1, 1, 0, 1, 1, 0)

# Non-negative encoding of m1.
M1_NN_DIM = 6
M1_NN_V0 = (1, 0, 1, 1, 1, 1)              # labels q0 q1 x+ x- y+ y-
M1_NN_V0_AFTER_I = (0, 2, 4, 1, 2, 2)
M1_NN_I_MATRIX = (
    (0, 2, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0),
    (0, 0, 4, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 2, 0),
    (0, 0, 0, 0, 0, 2),
)

# Non-negative looper {q0: inc x -> q0}: after n faithful turns the vector is
# (2^n, 4^n, 1, 2^n, 2^n); the zero-test self loop keeps every coordinate 2^n.
def nn_looper_vector(n: int):
    return (2 ** n, 4 ** n, 1, 2 ** n, 2 ** n)

# --- perfbench's random_arena(random.Random("saddle-grid:4x2:2"), 4, 2) ---

# Its saddle product is reducible, with the rank-one critical block
# ((3, 3, 3), (2, 2, 2), (7, 7, 7)) of radius 3 + 2 + 7 = 12, whose Perron
# vector (3, 2, 7) / 12 is off the dyadic grid.  The saddle check ties pairs
# of products that differ only outside that block.
VALUE_12_DESPOT = ("d0", "d1", "d2", "d3")
VALUE_12_TRIBUNE = ("t0", "t1", "t2", "t3")
VALUE_12_ALPHABET = ("a0", "a1")
VALUE_12_TRANSITIONS = (
    ("d0", "a0", "t0", 3),
    ("d0", "a1", "t1", 3),
    ("d0", "a1", "t2", 1),
    ("d0", "a1", "t3", 2),
    ("d1", "a0", "t1", 1),
    ("d1", "a1", "t0", 1),
    ("d1", "a1", "t2", 1),
    ("d2", "a0", "t0", 2),
    ("d2", "a0", "t2", 2),
    ("d2", "a1", "t0", 2),
    ("d3", "a0", "t0", 2),
    ("d3", "a0", "t2", 3),
    ("d3", "a1", "t0", 3),
    ("d3", "a1", "t1", 2),
    ("t0", "a0", "d2", 3),
    ("t0", "a1", "d0", 1),
    ("t0", "a1", "d2", 1),
    ("t0", "a1", "d3", 1),
    ("t1", "a0", "d0", 2),
    ("t1", "a0", "d2", 2),
    ("t1", "a0", "d3", 2),
    ("t1", "a1", "d1", 3),
    ("t2", "a0", "d0", 3),
    ("t2", "a0", "d3", 2),
    ("t2", "a1", "d0", 1),
    ("t3", "a0", "d1", 1),
    ("t3", "a0", "d3", 1),
    ("t3", "a1", "d2", 3),
)
# solve at its default tolerance 10^-6: the saddle radius 12 is not a
# grid point of the rounded bracket, so one Sturm halving narrows it
VALUE_12_LOWER = F(12)
VALUE_12_UPPER = F(25165825, 2097152)  # 12 + 2^-21
VALUE_12_BISECTIONS = 1
