from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entropygames.lp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    FeasibilitySystem,
    lp_max,
)


def _satisfies(solution, constraints):
    for coeffs, sense, rhs in constraints:
        lhs = sum(c * x for c, x in zip(coeffs, solution))
        if sense == LESS_EQUAL and not lhs <= rhs:
            return False
        if sense == GREATER_EQUAL and not lhs >= rhs:
            return False
        if sense == EQUAL and lhs != rhs:
            return False
    return True


def test_optimal_simple():
    system = FeasibilitySystem(
        variables=2,
        constraints=(
            ((1, 0), LESS_EQUAL, 2),
            ((0, 1), LESS_EQUAL, 3),
            ((1, 1), LESS_EQUAL, 4),
        ),
        objective=(1, 1),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.objective_value == 4
    assert _satisfies(res.solution, system.constraints)


def test_exact_fractional_optimum():
    system = FeasibilitySystem(
        variables=1,
        constraints=(((3,), LESS_EQUAL, 1),),
        objective=(1,),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.objective_value == Fraction(1, 3)
    assert res.solution == (Fraction(1, 3),)


def test_equality_constraint():
    system = FeasibilitySystem(
        variables=2,
        constraints=(
            ((1, 1), EQUAL, 5),
            ((1, -1), LESS_EQUAL, 1),
        ),
        objective=(1, 0),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.objective_value == 3
    assert sum(res.solution) == 5


def test_infeasible():
    system = FeasibilitySystem(
        variables=1,
        constraints=(((1,), LESS_EQUAL, 1), ((1,), GREATER_EQUAL, 2)),
        objective=(1,),
    )
    res = lp_max(system)
    assert res.status == INFEASIBLE
    assert res.objective_value is None and res.solution is None


def test_unbounded():
    system = FeasibilitySystem(
        variables=1,
        constraints=(((1,), GREATER_EQUAL, 0),),
        objective=(1,),
    )
    res = lp_max(system)
    assert res.status == UNBOUNDED
    assert res.objective_value is None and res.solution is None


def test_variables_are_free():
    # the maximum of -x over x >= -5 sits at a negative coordinate
    system = FeasibilitySystem(
        variables=1,
        constraints=(((1,), GREATER_EQUAL, -5),),
        objective=(-1,),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.objective_value == 5
    assert res.solution == (Fraction(-5),)


def test_negative_rhs():
    system = FeasibilitySystem(
        variables=1,
        constraints=(((1,), LESS_EQUAL, -3),),
        objective=(1,),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.objective_value == -3


def test_feasibility_only():
    system = FeasibilitySystem(
        variables=2,
        constraints=(
            ((1, 1), EQUAL, 1),
            ((1, 0), GREATER_EQUAL, Fraction(1, 4)),
            ((0, 1), GREATER_EQUAL, Fraction(1, 4)),
        ),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.objective_value is None
    assert _satisfies(res.solution, system.constraints)


def test_redundant_rows_are_harmless():
    # a duplicated equality leaves a zero artificial row after phase one
    system = FeasibilitySystem(
        variables=2,
        constraints=(
            ((1, 1), EQUAL, 2),
            ((1, 1), EQUAL, 2),
            ((1, 0), LESS_EQUAL, 2),
        ),
        objective=(1, 0),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.objective_value == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        FeasibilitySystem(variables=0, constraints=())
    with pytest.raises(ValueError):
        FeasibilitySystem(variables=2, constraints=(((1,), LESS_EQUAL, 0),))
    with pytest.raises(ValueError):
        FeasibilitySystem(variables=1, constraints=(((1,), "<", 0),))
    with pytest.raises(ValueError):
        FeasibilitySystem(variables=2, constraints=(), objective=(1,))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_matches_float_solver_on_random_bounded_lps(rng):
    scipy_opt = pytest.importorskip("scipy.optimize")
    n = rng.randint(1, 3)
    cons = []
    # a box keeps the feasible region bounded, so no unbounded outcomes
    for j in range(n):
        unit = tuple(1 if k == j else 0 for k in range(n))
        cons.append((unit, LESS_EQUAL, rng.randint(1, 5)))
        cons.append((unit, GREATER_EQUAL, -rng.randint(1, 5)))
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        sense = rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL])
        cons.append((coeffs, sense, rng.randint(-4, 4)))
    obj = tuple(rng.randint(-3, 3) for _ in range(n))
    res = lp_max(
        FeasibilitySystem(variables=n, constraints=tuple(cons), objective=obj)
    )

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in cons:
        if sense == LESS_EQUAL:
            a_ub.append([float(c) for c in coeffs])
            b_ub.append(float(rhs))
        elif sense == GREATER_EQUAL:
            a_ub.append([-float(c) for c in coeffs])
            b_ub.append(-float(rhs))
        else:
            a_eq.append([float(c) for c in coeffs])
            b_eq.append(float(rhs))
    ref = scipy_opt.linprog(
        [-float(c) for c in obj],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    assume(ref.status in (0, 2))
    if ref.status == 2:
        assert res.status == INFEASIBLE
    else:
        assert res.status == OPTIMAL
        assert abs(float(res.objective_value) + ref.fun) < 1e-7
        assert _satisfies(res.solution, cons)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_lean_tableau_matches_float_solver(rng):
    # sign rows c x_j >= 0 (c > 0) become non-negative columns and >= rows
    # with right-hand side 0 are negated; a row -x_j >= 0 bounds x_j above
    # and must stay a row
    scipy_opt = pytest.importorskip("scipy.optimize")
    n = rng.randint(1, 4)

    def unit(j, c):
        return tuple(c if k == j else 0 for k in range(n))

    cons = [(unit(j, rng.randint(1, 3)), GREATER_EQUAL, 0) for j in range(n) if rng.random() < 0.6]
    cons.append((unit(rng.randrange(n), -1), GREATER_EQUAL, 0))
    for _ in range(rng.randint(1, 3)):
        cons.append((tuple(rng.randint(-3, 3) for _ in range(n)), GREATER_EQUAL, 0))
    for _ in range(rng.randint(0, 2)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        cons.append((coeffs, rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL]), rng.randint(-4, 4)))
    for j in range(n):
        if rng.random() < 0.7:
            cons.append((unit(j, 1), LESS_EQUAL, rng.randint(0, 5)))
    rng.shuffle(cons)
    obj = tuple(rng.randint(-3, 3) for _ in range(n))
    res = lp_max(FeasibilitySystem(variables=n, constraints=tuple(cons), objective=obj))

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in cons:
        if sense == EQUAL:
            a_eq.append([float(c) for c in coeffs])
            b_eq.append(float(rhs))
        else:
            flip = 1.0 if sense == LESS_EQUAL else -1.0
            a_ub.append([flip * float(c) for c in coeffs])
            b_ub.append(flip * float(rhs))
    problem = dict(
        c=[-float(c) for c in obj],
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(None, None)] * n,
        method="highs",
    )
    ref = scipy_opt.linprog(**problem)
    if ref.status == 2:
        # HiGHS presolve can call an unbounded system infeasible (see
        # test_unbounded_system_that_highs_presolve_calls_infeasible); its
        # solver without presolve tells the two apart
        ref = scipy_opt.linprog(**problem, options={"presolve": False})
    if ref.status == 0:
        assert res.status == OPTIMAL
        assert abs(float(res.objective_value) + ref.fun) < 1e-7
        assert _satisfies(res.solution, cons)
    elif ref.status == 2:
        assert res.status == INFEASIBLE
    elif ref.status == 3:
        assert res.status == UNBOUNDED
    else:
        # HiGHS cannot always tell an infeasible system from an unbounded one
        assert ref.status == 4 and res.status in (INFEASIBLE, UNBOUNDED)


def test_unbounded_system_that_highs_presolve_calls_infeasible():
    # x = (0, -t, 0, -t) is feasible for every t >= 0 with objective t;
    # scipy 1.17's HiGHS reports this system infeasible with presolve on
    cons = (
        ((1, 0, 0, 0), GREATER_EQUAL, 0),
        ((0, 0, 1, 0), GREATER_EQUAL, 0),
        ((0, -1, 0, 0), GREATER_EQUAL, 0),
        ((1, -1, 0, 1), GREATER_EQUAL, 0),
        ((0, 0, 0, 0), GREATER_EQUAL, 0),
        ((-1, 1, 0, -1), GREATER_EQUAL, -1),
        ((1, 0, 0, 0), LESS_EQUAL, 1),
        ((0, 1, 0, 0), LESS_EQUAL, 0),
        ((0, 0, 1, 0), LESS_EQUAL, 0),
        ((0, 0, 0, 1), LESS_EQUAL, 0),
    )
    for t in (0, 1, 10**6):
        assert _satisfies((0, -t, 0, -t), cons)
    res = lp_max(FeasibilitySystem(variables=4, constraints=cons, objective=(0, -1, 0, 0)))
    assert res.status == UNBOUNDED
