from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtss import cone, simplex
from mtss.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, SimplexResult
from mtss.structure import SIGMA_AVG, TAU, STRONG, WEAK, RatioKind, structure


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


@st.composite
def _drawn_lps(draw):
    """(n, objective, rows) of a bounded LP.  Rows of every sense and rhs
    sign mix rows that start on their own slack with rows that start on an
    artificial column."""
    n = draw(st.integers(1, 3))
    obj = [draw(st.integers(-4, 4)) for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n)]
        sense = draw(st.sampled_from(["le", "ge", "eq"]))
        rhs = draw(st.integers(-3, 3))
        rows.append((coeffs, sense, rhs))
    # keep things bounded
    rows.append(([1] * n, "le", 10))
    return n, obj, rows


def _program(n, obj, rows):
    lp = LinearProgram(n)
    lp.minimize(obj)
    for coeffs, sense, rhs in rows:
        getattr(lp, f"add_{sense}")(coeffs, rhs)
    return lp


@settings(max_examples=60, deadline=None)
@given(_drawn_lps(), st.data())
def test_value_matches_any_feasible_point(drawn, data):
    """Optimal value is a lower bound on the objective at random feasible
    points."""
    n, obj, rows = drawn
    res = _program(n, obj, rows).solve()
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
    # exact arithmetic only: a float is refused, not converted
    with pytest.raises(TypeError, match="ints or Fractions"):
        lp.add_ge([0.5, 1], 0)
    with pytest.raises(TypeError, match="ints or Fractions"):
        lp.add_le([1, 1], 0.5)


@pytest.mark.parametrize("key", [-1, 2, 5])
@pytest.mark.parametrize("method", ["minimize", "add_eq", "add_ge", "add_le"])
def test_dict_keys_out_of_range(method, key):
    # a key of -1 used to land silently on the last column
    lp = LinearProgram(2)
    args = (3,) if method != "minimize" else ()
    with pytest.raises(ValueError, match="column index out of range"):
        getattr(lp, method)({0: 1, key: 1}, *args)


def test_stats_count_rows_columns_and_pivots():
    lp = LinearProgram(2)
    lp.minimize([1, 1])
    lp.add_ge([3, 1], 2)
    lp.add_ge([1, 3], 2)
    lp.add_le([1, 0], 5)
    res = lp.solve()
    # two structural, three slack and two artificial columns; the <= row
    # starts on its slack
    assert res.stats.rows == 3 and res.stats.columns == 7
    assert res.stats.phase1_pivots == 2 and res.stats.cleanup_pivots == 0
    # stats take no part in result equality
    assert res == SimplexResult(OPTIMAL, res.value, res.x)


# ------------------------------------------ the dense pivot, as reference

def _reference_reduce_row(row):
    g = 0
    for v in row:
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for j, v in enumerate(row):
            row[j] = v // g


def _reference_pivot(tableau, basis, obj, pr, pc):
    """The dense pivot: every entry of every row with a nonzero in column pc
    becomes row[j] * p - row[pc] * prow[j]."""
    prow = tableau[pr]
    p = prow[pc]
    assert p > 0
    for i, row in enumerate(tableau):
        if i == pr or row[pc] == 0:
            continue
        f = row[pc]
        for j, v in enumerate(prow):
            row[j] = row[j] * p - f * v
        _reference_reduce_row(row)
    if obj is not None and obj[pc] != 0:
        f = obj[pc]
        for j, v in enumerate(prow):
            obj[j] = obj[j] * p - f * v
        _reference_reduce_row(obj)
    _reference_reduce_row(prow)
    basis[pr] = pc


def _solve_both(build):
    """Results of `build().solve()` with the sparse and the dense pivot."""
    got = build().solve()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", _reference_pivot)
        mp.setattr(simplex, "_reduce_row", _reference_reduce_row)
        want = build().solve()
    return got, want


@settings(max_examples=100, deadline=None)
@given(_drawn_lps())
def test_pivot_matches_dense_reference(drawn):
    got, want = _solve_both(lambda: _program(*drawn))
    assert (got.status, got.value, got.x) == (want.status, want.value, want.x)
    assert got.stats == want.stats


@pytest.mark.parametrize(
    "kind", [RatioKind(TAU, STRONG), RatioKind(SIGMA_AVG, WEAK)], ids=str
)
def test_pivot_matches_dense_reference_on_cone_lp(kind):
    sp = structure(3, [(3, 1), (2, 2)])

    def build():
        """The LP that `lower_bound_ratio` assembles, unsolved."""
        captured = []

        def capture(lp):
            captured.append(lp)
            return SimplexResult(OPTIMAL, F(0), None)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LinearProgram, "solve", capture)
            cone.lower_bound_ratio(sp, kind)
        return captured[0]

    got, want = _solve_both(build)
    assert got.status == OPTIMAL and got == want
    assert got.stats == want.stats and got.stats.phase1_pivots > 10
