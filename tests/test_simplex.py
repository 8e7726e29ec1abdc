import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtss import cone, simplex
from mtss.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, SimplexResult
from mtss.structure import MEASURES, SIGMA_AVG, TAU, STRONG, WEAK
from mtss.structure import RatioKind, bound_row, structure
from test_cone import _optimal_for, _table_family


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
    lp.add_ge([-1], -1)
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
    lp.add_ge({0: -1}, -2)
    res = lp.solve()
    assert res.value == 3


def test_degenerate_cycling_guard():
    # classic Beale-style degenerate instance; Bland's rule must terminate
    lp = LinearProgram(4)
    lp.minimize([F(-3, 4), 150, F(-1, 50), 6])
    lp.add_ge([F(-1, 4), 60, F(1, 25), -9], 0)
    lp.add_ge([F(-1, 2), 90, F(1, 50), -3], 0)
    lp.add_ge([0, 0, -1, 0], -1)
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
    lp.add_ge([-1, -1], 0)
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
        if sense == "le":
            coeffs, sense, rhs = [-c for c in coeffs], "ge", -rhs
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
        lp.add_ge([-1, -1], -0.5)


@pytest.mark.parametrize("key", [-1, 2, 5])
@pytest.mark.parametrize("method", ["minimize", "add_eq", "add_ge"])
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
    lp.add_ge([-1, 0], -5)
    res = lp.solve()
    # two structural, three slack and two artificial columns; the row with
    # a negative rhs starts on its slack
    assert res.stats.rows == 3 and res.stats.columns == 7
    assert res.stats.phase1_pivots == 2 and res.stats.cleanup_pivots == 0
    # stats take no part in result equality
    assert res == SimplexResult(OPTIMAL, res.value, res.x)


# -------------------------------------- the full tableau, as reference
#
# A full-tableau solver, kept as the reference for the condensed one: every
# row keeps every structural, slack and artificial column, and the phases
# bar the artificial columns that have left the basis instead of dropping
# them: phase 1 those that left before it, phase 2 all.  `trace` collects
# the (entering column, leaving column) pair of each pivot.  With `crash`
# off it is the solver without the crash start, which only the value oracle
# runs.


def _reference_reduce_row(row):
    g = gcd(*row)
    if g > 1:
        row[:] = [v // g for v in row]


def _reference_eliminate(row, p, f, nonzero):
    if p != 1:
        row[:] = [v * p for v in row]
    for j, v in nonzero:
        row[j] -= f * v
    _reference_reduce_row(row)


def _reference_pivot(tableau, basis, obj, pr, pc, trace):
    trace.append((pc, basis[pr]))
    prow = tableau[pr]
    p = prow[pc]
    assert p > 0
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tableau):
        if i != pr and row[pc]:
            _reference_eliminate(row, p, row[pc], nonzero)
    if obj is not None and obj[pc]:
        _reference_eliminate(obj, p, obj[pc], nonzero)
    _reference_reduce_row(prow)
    basis[pr] = pc


def _reference_run(tableau, basis, obj, allowed, n_total, trace):
    for pivots in range(simplex._MAX_PIVOTS):
        pc = next((j for j in range(n_total) if allowed[j] and obj[j] < 0), -1)
        if pc < 0:
            return OPTIMAL, pivots
        pr = -1
        for i, row in enumerate(tableau):
            a = row[pc]
            if a <= 0:
                continue
            if pr < 0:
                pr = i
                continue
            better = row[-1] * tableau[pr][pc] - tableau[pr][-1] * a
            if better < 0 or (better == 0 and basis[i] < basis[pr]):
                pr = i
        if pr < 0:
            return UNBOUNDED, pivots
        _reference_pivot(tableau, basis, obj, pr, pc, trace)
    raise RuntimeError("simplex failed to terminate")


def _reference_drive_out(tableau, basis, n_real, trace, allowed=None):
    """Pivot every row on a zero-valued artificial onto its first real
    column with a nonzero entry; bar each leaving artificial from
    `allowed`, if given.  Returns the pivot count."""
    pivots = 0
    for i in range(len(tableau)):
        if basis[i] >= n_real and tableau[i][-1] == 0:
            pc = next((j for j in range(n_real) if tableau[i][j] != 0), None)
            if pc is not None:
                if allowed is not None:
                    allowed[basis[i]] = False
                if tableau[i][pc] < 0:
                    tableau[i] = [-v for v in tableau[i]]
                _reference_pivot(tableau, basis, None, i, pc, trace)
                pivots += 1
    return pivots


def _reference_price(tableau, basis, cost):
    """The objective row of `cost` (one entry per column and a 0 for the
    rhs) made zero at every basic column."""
    obj = list(cost)
    for row, c in zip(tableau, basis):
        if obj[c] != 0:
            nonzero = [(j, v) for j, v in enumerate(row) if v]
            _reference_eliminate(obj, row[c], obj[c], nonzero)
    return obj


def _reference_solve(n_vars, rows, objective, trace, crash=True, log=None):
    n_slack = sum(1 for _, _, kind in rows if kind == "ge")
    n_art = sum(1 for _, b, kind in rows if kind == "eq" or b > 0)
    n_real = n_vars + n_slack
    n_total = n_real + n_art
    tableau, basis = [], []
    slack_at, art_at = n_vars, n_real
    for coeffs, b, kind in rows:
        row = coeffs + [0] * (n_slack + n_art) + [b]
        on_slack = kind == "ge" and b <= 0
        if kind == "ge":
            row[slack_at] = -1
            slack_at += 1
        if b < 0 or on_slack:
            row = [-v for v in row]
        if on_slack:
            basis.append(slack_at - 1)
        else:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        tableau.append(row)

    allowed = [True] * n_total
    before = _reference_drive_out(tableau, basis, n_real, trace, allowed) if crash else 0
    obj1 = _reference_price(tableau, basis, [0] * n_real + [1] * n_art + [0])
    status, phase1 = _reference_run(tableau, basis, obj1, allowed, n_total, trace)
    assert status == OPTIMAL

    def stats(after=0, phase2=0):
        return simplex.SimplexStats(len(tableau), n_total, phase1, before + after, phase2)

    if log is not None:
        log.update(before=before, after=0)
    infeas = sum(F(row[-1], row[c]) for row, c in zip(tableau, basis) if c >= n_real)
    if infeas > 0:
        return SimplexResult(INFEASIBLE, None, None, stats())

    after = _reference_drive_out(tableau, basis, n_real, trace)
    if log is not None:
        log["after"] = after

    allowed[n_real:] = [False] * n_art
    cost = simplex._integerize(objective, 0)[0] + [0] * (n_slack + n_art + 1)
    obj2 = _reference_price(tableau, basis, cost)
    status, phase2 = _reference_run(tableau, basis, obj2, allowed, n_total, trace)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, stats(after, phase2))
    x = [F(0)] * n_vars
    for row, c in zip(tableau, basis):
        if c < n_vars:
            x[c] = F(row[-1], row[c])
    value = sum((c * v for c, v in zip(objective, x)), F(0))
    return SimplexResult(OPTIMAL, value, tuple(x), stats(after, phase2))


def _assert_matches_reference(lp):
    """`lp.solve()` and the full-tableau reference agree on the status,
    value, point and stats, and make the same pivots: the same (entering,
    leaving) column pairs in the same order.  Returns the result and the
    reference's drive-out counts before and after phase 1."""
    got_trace, want_trace, log = [], [], {}
    pivot = simplex._pivot

    def spy(rows, scale, basis, cols, pr, k):
        got_trace.append((cols[k], basis[pr]))
        pivot(rows, scale, basis, cols, pr, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", spy)
        got = lp.solve()
    want = _reference_solve(lp.n_vars, lp._rows, lp._objective, want_trace, log=log)
    assert (got.status, got.value, got.x) == (want.status, want.value, want.x)
    assert got.stats == want.stats
    assert got_trace == want_trace
    return got, log


@settings(max_examples=100, deadline=None)
@given(_drawn_lps())
def test_pivot_matches_dense_reference(drawn):
    _assert_matches_reference(_program(*drawn))


def _captured_programs(run):
    """The LPs that `run()` hands the simplex, unsolved."""
    captured = []

    def capture(lp):
        captured.append(lp)
        return SimplexResult(OPTIMAL, F(0), None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LinearProgram, "solve", capture)
        run()
    return captured


@pytest.mark.parametrize(
    "kind", [RatioKind(TAU, STRONG), RatioKind(SIGMA_AVG, WEAK)], ids=str
)
def test_pivot_matches_dense_reference_on_cone_lp(kind, empty_region_memo):
    sp = structure(3, [(3, 1), (2, 2)])
    (lp,) = _captured_programs(lambda: cone.lower_bound_ratio(sp, kind))
    got, log = _assert_matches_reference(lp)
    assert got.status == OPTIMAL and got.stats.phase1_pivots > 10
    assert log["before"] > 0


def _seeded_lps(count, seed):
    """Small LPs of every row sense and rhs sign, drawn from a seeded
    generator; without a bounding row, so some are unbounded.  Half the
    equality rows have rhs 0, so most LPs start with a drive-out."""
    rng = random.Random(seed)

    def row(n):
        sense = rng.choice(["le", "ge", "eq"])
        rhs = 0 if sense == "eq" and rng.random() < 0.5 else rng.randint(-3, 3)
        return [rng.randint(-3, 3) for _ in range(n)], sense, rhs

    for _ in range(count):
        n = rng.randint(1, 4)
        rows = [row(n) for _ in range(rng.randint(1, 5))]
        yield _program(n, [rng.randint(-4, 4) for _ in range(n)], rows)


def _table_family_lps():
    """Every ratio LP and truncation-gap LP of the table-family structures
    with at most 6 variables (376 LPs), unsolved."""

    def run():
        for sp in _table_family(6):
            bounds = [bound_row(sp, "dtb"), bound_row(sp, "tvb")]
            for k in range(1, sp.k_levels + 1):
                bounds += [bound_row(sp, "tsdb", k=k), bound_row(sp, "tsb", k=k)]
            for sec in (STRONG, WEAK):
                for meas in MEASURES:
                    cone.lower_bound_ratio(sp, RatioKind(meas, sec))
                for bound in bounds:
                    cone._min_gap(bound, sp, sec)

    lps = _captured_programs(run)
    assert len(lps) == 376
    return lps


def test_pivots_match_dense_reference_on_table_family(empty_region_memo):
    """The table-family cone LPs and 300 seeded small LPs solve as on the
    full tableau: same results, stats and pivots.  Both sets drive out
    artificials before phase 1; the seeded set also after it (the cone LPs'
    leftover artificials are all gone before phase 1)."""
    cone_lps = [_assert_matches_reference(lp) for lp in _table_family_lps()]
    assert all(r.status == OPTIMAL for r, _ in cone_lps)
    assert any(log["before"] for _, log in cone_lps)
    drawn = [_assert_matches_reference(lp) for lp in _seeded_lps(300, seed=9)]
    assert {r.status for r, _ in drawn} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert any(log["before"] for _, log in drawn)
    assert any(log["after"] for _, log in drawn)


def test_drive_out_after_phase1():
    # phase 1 ends with the >= row's artificial basic at 0, on a row with
    # a nonzero slack entry: the clean-up pivots it out
    lp = LinearProgram(2)
    lp.minimize([-1, 3])
    lp.add_eq([3, 1], 1)
    lp.add_ge([1, 3], 3)
    res, log = _assert_matches_reference(lp)
    assert res.value == 3 and res.x == (0, 1)
    assert log == {"before": 0, "after": 1}
    assert (res.stats.phase1_pivots, res.stats.cleanup_pivots) == (2, 1)


def test_crash_start_keeps_status_and_value():
    """Without the crash start (the plain two-phase reference) every seeded
    LP has the same status and value."""
    for lp in _seeded_lps(2000, seed=13):
        got = lp.solve()
        want = _reference_solve(lp.n_vars, lp._rows, lp._objective, [], crash=False)
        assert (got.status, got.value) == (want.status, want.value)


def test_phase1_never_offered_an_artificial(empty_region_memo):
    """The artificials driven out before phase 1 leave the tableau with
    their columns: phase 1 starts with only structural and slack columns
    nonbasic.  (Kept, they would be priced at 0 instead of 1.)"""
    run = simplex._run_simplex
    offered = []

    def spy(tableau, obj, scale, basis, cols):
        offered.append(list(cols))
        return run(tableau, obj, scale, basis, cols)

    lps = [*_table_family_lps(), *_seeded_lps(300, seed=9)]
    crashed = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_run_simplex", spy)
        for lp in lps:
            offered.clear()
            res = lp.solve()
            n_real = lp.n_vars + sum(kind == "ge" for _, _, kind in lp._rows)
            assert all(c < n_real for c in offered[0])
            crashed += res.stats.cleanup_pivots > 0
    assert crashed > 100


def test_int_rows_skip_the_lcm():
    lp = LinearProgram(3)
    lp.add_eq([2, -4, 0], 6)
    lp.add_ge([F(1, 2), 1, 0], F(3, 4))
    lp.add_ge({1: -3}, F(-1, 3))
    assert lp._rows == [
        ([2, -4, 0], 6, "eq"),
        ([2, 4, 0], 3, "ge"),
        ([0, -9, 0], -1, "ge"),
    ]
    assert [type(v) for row, b, _ in lp._rows for v in (*row, b)] == [int] * 12


def test_integerize_bool_and_empty_rows():
    """Bools are not ints here: they take the lcm path and come back as
    ints.  An empty row of ints comes back as it is."""
    row, b = simplex._integerize([True, False, 2], True)
    assert (row, b) == ([1, 0, 2], 1) and {type(v) for v in (*row, b)} == {int}
    assert simplex._integerize([], 0) == ([], 0)
    assert simplex._integerize([], F(1, 2)) == ([], 1)


def _same_solve(got, want):
    return (got.status, got.value, got.x, got.stats) == (
        want.status, want.value, want.x, want.stats
    )


def _size_and_phase1(res):
    return res.stats.rows, res.stats.columns, res.stats.phase1_pivots, res.stats.cleanup_pivots


def _shape(start):
    return start.n_vars, start.columns, start.entries, start.phase1_pivots, start.cleanup_pivots


def test_new_objective_from_the_kept_basis_solves_as_from_rows():
    """A solved program keeps the final basis of its solve, and a second
    objective is solved from it: the status and value are those of a
    fresh program with the same rows, the point is optimal for those rows,
    and the stats keep the tableau size and the phase-1 and clean-up
    counts.  The program then keeps the second solve's final basis (the
    kept one itself when it made no pivot), and solving the same objective
    again makes no pivot.  An infeasible program keeps no basis."""
    rng = random.Random(23)
    feasible = moved = 0
    for lp in _seeded_lps(300, seed=17):
        first = lp.solve()
        if first.status == INFEASIBLE:
            assert lp.start is None
            continue
        feasible += 1
        kept = lp.start
        assert kept is not None and kept.n_vars == lp.n_vars
        lp.minimize([rng.randint(-4, 4) for _ in range(lp.n_vars)])
        got = lp.solve()
        assert (lp.start is kept) == (got.stats.phase2_pivots == 0)
        assert _shape(lp.start) == _shape(kept)
        moved += lp.start is not kept
        fresh = LinearProgram(lp.n_vars)
        fresh._rows = list(lp._rows)
        fresh.minimize(lp._objective)
        want = fresh.solve()
        assert (got.status, got.value) == (want.status, want.value)
        assert _size_and_phase1(got) == _size_and_phase1(want)
        assert got.status == UNBOUNDED or _optimal_for(got, lp)
        final = lp.start
        again = lp.solve()
        assert again == got and again.stats.phase2_pivots == 0 and lp.start is final
    assert feasible > 100 and moved > 40


def test_program_from_a_basis_takes_no_rows():
    """A program started from a kept basis holds no rows, refuses new ones
    with ValueError, and solves as the program the basis came from."""
    lp = LinearProgram(3)
    lp.minimize([1, 1, 1])
    lp.add_eq([1, 2, 0], 4)
    lp.add_ge([0, 1, 1], 1)
    lp.solve()
    started = LinearProgram.from_basis(lp.start)
    assert started._rows is None and started.n_vars == 3
    for add in (started.add_eq, started.add_ge):
        with pytest.raises(ValueError, match="takes no rows"):
            add([1, 0, 0], 1)
    with pytest.raises(ValueError, match="objective not set"):
        started.solve()
    started.minimize({2: 1})
    lp.minimize({2: 1})
    got = started.solve()
    assert got.value == 0 and _same_solve(got, lp.solve())


def test_adding_a_row_drops_the_kept_basis():
    """The kept basis holds while the rows stay, and becomes the final
    basis of each solve that pivots; a new row drops it, and the next
    solve runs phase 1 on every row."""
    lp = LinearProgram(2)
    lp.minimize([1, 1])
    lp.add_ge([1, 1], 1)
    assert lp.start is None
    assert lp.solve().value == 1
    kept = lp.start
    assert kept is not None and lp.solve().value == 1 and lp.start is kept
    lp.minimize([2, 1])
    res = lp.solve()
    assert res.value == 1 and res.x == (0, 1) and res.stats.phase2_pivots == 1
    assert lp.start.basis != kept.basis
    kept = lp.start
    lp.minimize([1, 1])
    res = lp.solve()
    assert res.x == (0, 1) and res.stats.phase2_pivots == 0 and lp.start is kept
    lp.add_ge([1, 0], 2)
    assert lp.start is None
    res = lp.solve()
    assert res.value == 2 and lp.start is not None and lp.start is not kept
    assert len(lp.start.rows) == res.stats.rows == 2
    lp.add_eq({1: 1}, 1)
    assert lp.start is None and lp.solve().value == 3
