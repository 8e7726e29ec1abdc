from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtss.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram


def test_basic_minimum():
    lp = LinearProgram(2)
    lp.minimize([2, 3])
    lp.add_eq([1, 1], 1)
    lp.add_ge([1, -1], F(1, 3))
    res = lp.solve()
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.x == (F(1), F(0))


def test_fractional_optimum():
    lp = LinearProgram(2)
    lp.minimize([1, 1])
    lp.add_ge([3, 1], 2)
    lp.add_ge([1, 3], 2)
    res = lp.solve()
    assert res.value == 1 and res.x == (F(1, 2), F(1, 2))


def test_infeasible():
    lp = LinearProgram(1)
    lp.minimize([1])
    lp.add_le([1], 1)
    lp.add_ge([1], 2)
    assert lp.solve().status == INFEASIBLE


def test_unbounded():
    lp = LinearProgram(1)
    lp.minimize([-1])
    lp.add_ge([1], 0)
    assert lp.solve().status == UNBOUNDED


def test_dict_coefficients_and_defaults():
    lp = LinearProgram(4)
    lp.minimize({3: 1})
    lp.add_ge({0: 1, 3: 1}, 5)
    lp.add_le({0: 1}, 2)
    res = lp.solve()
    assert res.value == 3


def test_degenerate_cycling_guard():
    # classic Beale-style degenerate instance; Bland's rule must terminate
    lp = LinearProgram(4)
    lp.minimize([F(-3, 4), 150, F(-1, 50), 6])
    lp.add_le([F(1, 4), -60, F(-1, 25), 9], 0)
    lp.add_le([F(1, 2), -90, F(-1, 50), 3], 0)
    lp.add_le([0, 0, 1, 0], 1)
    res = lp.solve()
    assert res.status == OPTIMAL
    assert res.value == F(-1, 20)


def test_equality_only_system():
    lp = LinearProgram(3)
    lp.minimize([1, 2, 3])
    lp.add_eq([1, 1, 1], 6)
    lp.add_eq([1, -1, 0], 0)
    res = lp.solve()
    assert res.status == OPTIMAL
    # x = y, x + y + z = 6, minimize x + 2x' -> put everything into x=y
    assert res.value == 9 and res.x == (F(3), F(3), F(0))


def test_infeasible_with_every_ge_row_on_its_slack():
    # both >= rows have rhs <= 0 and start on their slacks; only the
    # equality row's artificial can expose the conflict
    lp = LinearProgram(2)
    lp.minimize([1, 1])
    lp.add_le([1, 1], 0)
    lp.add_ge([1, -1], -1)
    lp.add_eq([1, 1], 1)
    assert lp.solve().status == INFEASIBLE


def _holds(coeffs, sense, rhs, point):
    v = sum(c * p for c, p in zip(coeffs, point))
    return v <= rhs if sense == "le" else v >= rhs if sense == "ge" else v == rhs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_value_matches_any_feasible_point(data):
    """Optimal value is a lower bound on the objective at random feasible
    points.  Rows of every sense and rhs sign mix rows that start on their
    own slack with rows that start on an artificial column."""
    n = data.draw(st.integers(1, 3))
    lp = LinearProgram(n)
    obj = [data.draw(st.integers(-4, 4)) for _ in range(n)]
    lp.minimize(obj)
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        coeffs = [data.draw(st.integers(-3, 3)) for _ in range(n)]
        sense = data.draw(st.sampled_from(["le", "ge", "eq"]))
        rhs = data.draw(st.integers(-3, 3))
        getattr(lp, f"add_{sense}")(coeffs, rhs)
        rows.append((coeffs, sense, rhs))
    # keep things bounded
    lp.add_le([1] * n, 10)
    rows.append(([1] * n, "le", 10))
    res = lp.solve()
    assert res.status != UNBOUNDED
    point = [data.draw(st.integers(0, 3)) for _ in range(n)]
    feasible = all(_holds(*row, point) for row in rows)
    if res.status == INFEASIBLE:
        assert not feasible
        return
    if feasible:
        assert res.value <= sum(c * p for c, p in zip(obj, point))
    # and the reported solution itself must be feasible with matching value
    assert all(_holds(*row, res.x) for row in rows)
    assert sum(c * x for c, x in zip(obj, res.x)) == res.value
    assert all(x >= 0 for x in res.x)


def test_solver_rejects_bad_shapes():
    lp = LinearProgram(2)
    with pytest.raises(ValueError):
        lp.add_eq([1], 0)
    with pytest.raises(ValueError):
        lp.minimize([1, 2, 3])
