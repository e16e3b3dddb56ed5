from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracle_helpers
from entropygames import lp
from entropygames.lp import (
    EQUAL,
    GREATER_EQUAL,
    INFEASIBLE,
    LESS_EQUAL,
    OPTIMAL,
    FeasibilitySystem,
    lp_max,
)


def _satisfies(solution, constraints):
    if any(x < 0 for x in solution):
        return False
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
    # every row has a slack that starts basic: x = 0 answers with no pivot
    system = FeasibilitySystem(
        variables=2,
        constraints=(
            ((1, 0), LESS_EQUAL, 2),
            ((0, 1), LESS_EQUAL, 3),
            ((1, 1), LESS_EQUAL, 4),
        ),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.solution == (0, 0)


def test_exact_fractional_optimum():
    system = FeasibilitySystem(
        variables=1,
        constraints=(((3,), LESS_EQUAL, 1), ((3,), GREATER_EQUAL, 1)),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.solution == (Fraction(1, 3),)


def test_equality_constraint():
    system = FeasibilitySystem(
        variables=2,
        constraints=(
            ((1, 1), EQUAL, 5),
            ((1, -1), LESS_EQUAL, 1),
        ),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert sum(res.solution) == 5
    assert _satisfies(res.solution, system.constraints)


def test_infeasible():
    system = FeasibilitySystem(
        variables=1,
        constraints=(((1,), LESS_EQUAL, 1), ((1,), GREATER_EQUAL, 2)),
    )
    res = lp_max(system)
    assert res.status == INFEASIBLE
    assert res.solution is None


def test_variables_are_non_negative():
    # x >= -5 holds at x = 0, but x <= -1 has no solution x >= 0
    res = lp_max(FeasibilitySystem(variables=1, constraints=(((1,), GREATER_EQUAL, -5),)))
    assert res.status == OPTIMAL and res.solution == (0,)
    res = lp_max(FeasibilitySystem(variables=1, constraints=(((1,), LESS_EQUAL, -1),)))
    assert res.status == INFEASIBLE


def test_negative_rhs():
    # -x <= -3 is negated to x >= 3, which needs an artificial
    system = FeasibilitySystem(
        variables=2,
        constraints=(((-1, 0), LESS_EQUAL, -3), ((1, -1), EQUAL, -1)),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.solution == (3, 4)


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
    assert _satisfies(res.solution, system.constraints)


def test_redundant_rows_are_harmless():
    # a duplicated equality leaves an artificial basic at 0 after phase 1
    system = FeasibilitySystem(
        variables=2,
        constraints=(
            ((1, 1), EQUAL, 2),
            ((1, 1), EQUAL, 2),
            ((1, 0), GREATER_EQUAL, 2),
        ),
    )
    res = lp_max(system)
    assert res.status == OPTIMAL
    assert res.solution == (2, 0)


def test_validation_errors():
    with pytest.raises(ValueError):
        FeasibilitySystem(variables=0, constraints=())
    with pytest.raises(ValueError):
        FeasibilitySystem(variables=2, constraints=(((1,), LESS_EQUAL, 0),))
    with pytest.raises(ValueError):
        FeasibilitySystem(variables=1, constraints=(((1,), "<", 0),))


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False))
def test_feasibility_matches_float_solver(rng):
    # rows of every sense, with right-hand sides of every sign; >= rows with
    # right-hand side 0 are negated, and a duplicated == row leaves an
    # artificial basic at 0
    scipy_opt = pytest.importorskip("scipy.optimize")
    n = rng.randint(1, 4)
    cons = []
    for _ in range(rng.randint(1, 3)):
        cons.append((tuple(rng.randint(-3, 3) for _ in range(n)), GREATER_EQUAL, 0))
    for _ in range(rng.randint(0, 3)):
        coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
        cons.append((coeffs, rng.choice([LESS_EQUAL, GREATER_EQUAL, EQUAL]), rng.randint(-4, 4)))
    if rng.random() < 0.3:
        cons.append(next((c for c in cons if c[1] == EQUAL), cons[0]))
    for j in range(n):
        if rng.random() < 0.5:
            cons.append((tuple(int(k == j) for k in range(n)), LESS_EQUAL, rng.randint(0, 5)))
    rng.shuffle(cons)
    res = lp_max(FeasibilitySystem(variables=n, constraints=tuple(cons)))

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, sense, rhs in cons:
        if sense == EQUAL:
            a_eq.append([float(c) for c in coeffs])
            b_eq.append(float(rhs))
        else:
            flip = 1.0 if sense == LESS_EQUAL else -1.0
            a_ub.append([flip * float(c) for c in coeffs])
            b_ub.append(flip * float(rhs))
    ref = scipy_opt.linprog(
        [0.0] * n,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[(0, None)] * n,
        method="highs",
    )
    # with a zero objective HiGHS answers feasible (0) or infeasible (2)
    assume(ref.status in (0, 2))
    if ref.status == 0:
        assert res.status == OPTIMAL
        assert _satisfies(res.solution, cons)
    else:
        assert res.status == INFEASIBLE and res.solution is None


COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@st.composite
def systems(draw):
    """Systems with >= rows of right-hand side 0, == rows and rational
    coefficients; some are infeasible."""
    n = draw(st.integers(1, 4))
    row = st.tuples(
        st.tuples(*[COEFFS] * n),
        st.sampled_from([LESS_EQUAL, GREATER_EQUAL, EQUAL]),
        st.one_of(st.just(0), COEFFS),
    )
    cons = draw(st.lists(row, max_size=6))
    if draw(st.booleans()):
        cons.append(((Fraction(1),) * n, EQUAL, Fraction(1)))
    return FeasibilitySystem(variables=n, constraints=tuple(cons))


@settings(max_examples=300, deadline=None)
@given(systems())
@example(FeasibilitySystem(1, (((1,), LESS_EQUAL, -1),)))
@example(FeasibilitySystem(2, (((1, Fraction(-1, 3)), GREATER_EQUAL, 0), ((1, 1), EQUAL, 1))))
def test_integer_tableau_takes_the_fraction_simplex_pivots(system):
    # scaling every x column and the right-hand sides by one positive scale
    # changes no reduced cost's sign and no ratio order, so Bland's rule
    # pivots as the Fraction tableau did and reaches its basic solution
    with mock.patch.object(lp, "_pivot", wraps=lp._pivot) as pivot, mock.patch.object(
        oracle_helpers, "fraction_pivot", wraps=oracle_helpers.fraction_pivot
    ) as reference_pivot:
        got = lp_max(system)
        want = oracle_helpers.fraction_lp_max(system)
    assert repr(got) == repr(want)
    assert pivot.call_count == reference_pivot.call_count
