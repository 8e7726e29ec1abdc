"""Exact linear programming over the rationals.

A small two-phase simplex with Bland's anti-cycling rule, on a condensed
integer tableau.  Each row is integer-scaled (it keeps an implicit positive
rational scale, which affects neither feasibility, nor sign tests, nor ratio
comparisons), so the hot loop works on Python ints instead of Fractions.
A row stores only the nonbasic columns and the rhs; its basic column is a
unit column times the row's positive scale d, which is kept beside the row,
and a list maps stored positions to column ids.  Bland's rule picks by
column id.  A crash start comes before phase 1: each row that starts on an
artificial column with rhs 0 is pivoted onto a real column (a degenerate
pivot, so the basis stays feasible), and those artificial columns are
dropped, so phase 1 only drives out the artificials of rows with a positive
rhs.  The remaining artificial columns are dropped before phase 2.
Dropping a column changes only the row scales, so the pivots are those of a
full tableau that bars each artificial column from the point it is dropped.
The objective row keeps a positive scale too, which each pivot updates as
it does the others'.  Coefficients may be ints or Fractions; each row is
scaled to ints once, as it is added (a row of ints as it is), and the
objective by a factor f.  A solve returns the status, the exact optimum
and optimal point as Fractions, and the tableau size and pivot counts
(`SimplexStats`); it returns no dual certificate.  Every number stays an
int until the result is read: the optimum is one Fraction, the objective
row's -rhs over the product of its scale and f, and the point is made from
the final basis only when the result's `x` is first read, with a Fraction
only at its nonzero basic coordinates (the others share one zero).  A
caller that reads only the status and value makes no point.

A solve is two steps.  Phase 1 (`_phase1`: the crash start, phase 1 and
the clean-up) reads no objective, and ends in a `FeasibleBasis`: the
tableau rows after the artificial columns are dropped, frozen as tuples,
with their scales, basis and column ids and the phase-1 and clean-up pivot
counts.  Phase 2 (`_phase2`) prices an objective on the frozen rows of a
feasible basis, copies them only when a column can enter, runs to the
optimum and returns the final basis too, frozen the same way with the
same phase-1 and clean-up counts.  An optimal final basis also keeps the
integer cost it was priced for and its final objective row and scale, so
phase 2 on that basis with the same integer cost prices nothing, makes no
pivot and reads the value off the kept row, with its own factor f.  A
solve with no pivot copies no rows: its final basis holds the rows it
started from.  Every basis of a row set is feasible whatever the
objective, so any number of objectives can share one phase 1, and each
can start where the last one stopped.  A `LinearProgram` keeps the final
basis of its last solve until a row is added, and a program made by
`LinearProgram.from_basis` starts from a given basis: it holds no rows and
runs only phase 2.  Its status and value are those a solve from the rows
would return; the optimal point (when there are several) and the phase-2
pivot count depend on the start.

Problems are stated as:  minimize c . x  subject to  rows (=, >=), x >= 0;
a <= row is the >= row of its negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class SimplexStats:
    """Tableau size and pivots of one solve.

    `columns` counts structural, slack and artificial columns; the pivots
    are split into phase 1, the pivots that move zero-valued artificials
    out of the basis (the crash start's before phase 1 and the clean-up's
    after it), and phase 2.  Phase-2 pivots count from the basis the solve
    started at (with none, the solve copied no tableau); the phase-1 and
    clean-up counts are those of the row set's phase 1, however many
    solves ago it ran.
    """

    rows: int
    columns: int
    phase1_pivots: int
    cleanup_pivots: int
    phase2_pivots: int


class SimplexResult:
    """The status of one solve, its exact optimum and optimal point (None
    unless OPTIMAL) and its stats.  A solve's OPTIMAL result holds its
    final basis in place of the point and makes `x` from it (`_point`) the
    first time `x` is read: the basis is frozen, so a late read gives the
    point the solve ended at.  Equality, hash and repr read status, value
    and x; equality and hash leave out stats."""

    __slots__ = ("status", "value", "stats", "_x", "_final")

    def __init__(self, status: str, value: Fraction | None,
                 x: tuple[Fraction, ...] | None, stats: SimplexStats | None = None):
        self.status, self.value, self._x, self.stats = status, value, x, stats
        self._final = None

    @property
    def x(self) -> tuple[Fraction, ...] | None:
        if self._final is not None:
            self._x, self._final = _point(self._final), None
        return self._x

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.status, self.value, self.x) == (other.status, other.value, other.x)

    def __hash__(self):
        return hash((self.status, self.value, self.x))

    def __repr__(self):
        return (f"SimplexResult(status={self.status!r}, value={self.value!r}, "
                f"x={self.x!r}, stats={self.stats!r})")


def _integerize(coeffs, rhs):
    """Scale a rational row by a positive integer so every entry is an int.
    A row of ints is returned as it is.  With a rhs of 1, the returned
    rhs is the factor the row was scaled by."""
    if type(rhs) is int and set(map(type, coeffs)) <= {int}:
        return coeffs, rhs
    try:
        den = lcm(*(v.denominator for v in coeffs), rhs.denominator)
    except AttributeError:
        raise TypeError("coefficients must be ints or Fractions") from None
    out = [v.numerator * (den // v.denominator) for v in coeffs]
    return out, rhs.numerator * (den // rhs.denominator)


class FeasibleBasis(NamedTuple):
    """A feasible basis of one row set, as phase 1 and its clean-up or a
    later phase 2 leave it.

    `rows` are the condensed tableau rows without artificial columns, and
    `scale`, `basis` and `cols` their scales, basic column ids and stored
    column ids.  `columns` counts the columns of the full tableau, and
    `entries` the stored entries of the tableau rows and of one objective
    row, the same for every basis of the row set: phase 1 counts them
    once.  It reads no objective: phase 2 carries the phase-1 and clean-up
    counts and `entries` over to its final basis.  An OPTIMAL phase 2
    keeps its objective row on its final basis: `cost`, the integer cost
    per column id it priced (`_integerize`'s output, padded with zeros to
    `columns`), and `obj` and `obj_scale`, the final objective row and its
    scale.  A basis from phase 1, or where an unbounded phase 2 pivoted to,
    keeps none.  (A named tuple: a frozen dataclass takes about 1 ms
    longer to define at import.)
    """

    n_vars: int
    columns: int
    rows: tuple[tuple[int, ...], ...]
    scale: tuple[int, ...]
    basis: tuple[int, ...]
    cols: tuple[int, ...]
    phase1_pivots: int
    cleanup_pivots: int
    entries: int
    cost: tuple[int, ...] | None = None
    obj: tuple[int, ...] | None = None
    obj_scale: int = 0


class LinearProgram:
    """Incrementally assembled LP; columns are indexed 0..n_vars-1.

    `start` is the feasible basis phase 2 starts from: the final basis of
    the last solve (the optimum, or where an unbounded solve stopped),
    dropped when a row is added, or the one a program made by `from_basis`
    was given until it solves.  Such a program holds no rows (`_rows` is
    None) and refuses them.  An infeasible solve keeps no basis.
    """

    def __init__(self, n_vars: int):
        if n_vars <= 0:
            raise ValueError("need at least one variable")
        self.n_vars = n_vars
        self._rows: list[tuple[list[int], int, str]] | None = []
        self._objective: list | None = None
        self.start: FeasibleBasis | None = None

    @classmethod
    def from_basis(cls, start: FeasibleBasis) -> "LinearProgram":
        lp = cls(start.n_vars)
        lp._rows = None
        lp.start = start
        return lp

    def _dense(self, coeffs) -> list:
        """A dense row of ints and Fractions from a list or a {column: value}
        dict."""
        if isinstance(coeffs, dict):
            row = [0] * self.n_vars
            for j, v in coeffs.items():
                if j not in range(self.n_vars):
                    raise ValueError("column index out of range")
                row[j] = v
            return row
        if len(coeffs) != self.n_vars:
            raise ValueError("coefficient vector has wrong length")
        return list(coeffs)

    def minimize(self, coeffs) -> None:
        self._objective = self._dense(coeffs)

    def _add(self, coeffs, rhs, kind) -> None:
        if self._rows is None:
            raise ValueError("a program started from a basis takes no rows")
        row, b = _integerize(self._dense(coeffs), rhs)
        self._rows.append((row, b, kind))
        self.start = None

    def add_eq(self, coeffs, rhs=0) -> None:
        self._add(coeffs, rhs, "eq")

    def add_ge(self, coeffs, rhs=0) -> None:
        self._add(coeffs, rhs, "ge")

    def solve(self) -> SimplexResult:
        if self._objective is None:
            raise ValueError("objective not set")
        start = self.start
        if start is None:
            start = _phase1(self.n_vars, self._rows)
            if isinstance(start, SimplexResult):
                return start
        res, self.start = _phase2(start, self._objective)
        return res


def _pivot(rows, scale, basis, cols, pr, k):
    """Pivot on row `pr` at position `k`, keeping every row scale positive.

    Each other row with a nonzero a at k becomes p * row - a * prow, where p
    is the pivot; position k, which now holds the leaving column, gets that
    column's entry -a * d_pr.  Every updated row is reduced by the gcd of
    its entries and its scale.  The objective row, last in `rows` when
    there is one, is updated the same way, so its scale stays positive too.
    """
    prow = rows[pr]
    p = prow[k]
    dp = scale[pr]
    assert p > 0
    nonzero = [(j, v) for j, v in enumerate(prow) if v and j != k]
    for i, row in enumerate(rows):
        a = row[k]
        if a and i != pr:
            if p != 1:
                row[:] = [v * p for v in row]
            for j, v in nonzero:
                row[j] -= a * v
            row[k] = -a * dp
            d = scale[i] * p
            if d != 1:  # g divides d, so d == 1 leaves nothing to reduce
                g = gcd(*row, d)
                if g > 1:
                    row[:] = [v // g for v in row]
                    d //= g
                scale[i] = d
    prow[k] = dp
    g = gcd(*prow, p)
    if g > 1:
        prow[:] = [v // g for v in prow]
    scale[pr] = p // g
    basis[pr], cols[k] = cols[k], basis[pr]


def _run_simplex(tableau, obj, scale, basis, cols):
    """Bland's rule inner loop; returns (OPTIMAL or UNBOUNDED, pivots)."""
    rows = tableau + [obj]
    for pivots in range(_MAX_PIVOTS):
        entering = min((c for c, v in zip(cols, obj) if v < 0), default=-1)
        if entering < 0:
            return OPTIMAL, pivots
        k = cols.index(entering)
        pr = -1
        for i, row in enumerate(tableau):
            a = row[k]
            if a <= 0:
                continue
            if pr < 0:
                pr = i
                continue
            # compare row i ratio against current best (cross-multiplied)
            better = row[-1] * tableau[pr][k] - tableau[pr][-1] * a
            if better < 0 or (better == 0 and basis[i] < basis[pr]):
                pr = i
        if pr < 0:
            return UNBOUNDED, pivots
        _pivot(rows, scale, basis, cols, pr, k)
    raise RuntimeError("simplex failed to terminate")  # pragma: no cover


def _drive_out(tableau, scale, basis, cols, n_real):
    """Pivot each row that sits on an artificial with rhs 0 onto its
    smallest real column with a nonzero entry, negating the row (and its
    scale) first if that entry is negative.  Each pivot is degenerate: no
    rhs changes, so the basis stays feasible.  Returns the pivot count."""
    pivots = 0
    for i, row in enumerate(tableau):
        if basis[i] >= n_real and not row[-1]:
            pc = min((c for c, v in zip(cols, row) if v and c < n_real), default=-1)
            if pc >= 0:
                k = cols.index(pc)
                if row[k] < 0:
                    row[:] = [-v for v in row]
                    scale[i] = -scale[i]
                _pivot(tableau, scale, basis, cols, i, k)
                pivots += 1
    return pivots


def _drop_artificials(tableau, cols, n_real):
    """The tableau and column ids without the nonbasic artificial columns."""
    keep = [k for k, c in enumerate(cols) if c < n_real] + [len(cols)]
    return [[row[k] for k in keep] for row in tableau], [cols[k] for k in keep[:-1]]


def _priced(tableau, basis, scale, cols, cost):
    """The objective row of `cost` (a cost per column id) on the current
    basis and its scale L: L * (reduced costs, -value), for L the lcm of
    the scales of the basic columns with nonzero cost."""
    priced = [(row, cost[c], d) for row, c, d in zip(tableau, basis, scale) if cost[c]]
    big = lcm(*(d for _, _, d in priced))
    obj = [big * cost[c] for c in cols] + [0]
    for row, cb, d in priced:
        f = big // d * cb
        obj = [u - f * v for u, v in zip(obj, row)]
    return obj, big


def _phase1(n_vars, rows) -> FeasibleBasis | SimplexResult:
    """The feasible basis of `rows`, or the INFEASIBLE result."""
    # Every row starts on a basic column at +1: a >= row with rhs <= 0,
    # negated, on its own slack, and every other row on an artificial
    # column.  The nonbasic columns are the structural ones and the slacks
    # of the rows on artificials.
    n_slack = sum(1 for _, _, kind in rows if kind == "ge")
    n_art = sum(1 for _, b, kind in rows if kind == "eq" or b > 0)
    n_total = n_vars + n_slack + n_art
    n_real = n_vars + n_slack
    cols = list(range(n_vars))
    basis: list[int] = []
    slack, art = n_vars, n_real
    for _, b, kind in rows:
        if kind == "ge" and b <= 0:
            basis.append(slack)
        else:
            basis.append(art)
            art += 1
            if kind == "ge":
                cols.append(slack)
        slack += kind == "ge"
    tableau: list[list[int]] = []
    k = n_vars  # the position of the next nonbasic slack
    for (coeffs, b, kind), start in zip(rows, basis):
        row = coeffs + [0] * (len(cols) - n_vars) + [b]
        if kind == "ge" and start >= n_real:
            row[k] = -1
            k += 1
        if b < 0 or start < n_real:
            row = [-v for v in row]
        tableau.append(row)
    scale = [1] * (len(tableau) + 1)  # the last entry is the objective row's

    # ---- crash start: the artificials at rhs 0 leave before phase 1, and
    # their columns are dropped, so phase 1 never brings them back.
    cleanup = _drive_out(tableau, scale, basis, cols, n_real)
    if cleanup:
        tableau, cols = _drop_artificials(tableau, cols, n_real)

    # ---- phase 1: drive the remaining artificial variables to zero
    obj1, scale[-1] = _priced(tableau, basis, scale, cols, [0] * n_real + [1] * n_art)
    status, phase1 = _run_simplex(tableau, obj1, scale, basis, cols)
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0

    # Every rhs is >= 0, so the artificials sum to 0 only if each is 0.
    if any(row[-1] for row, c in zip(tableau, basis) if c >= n_real):
        stats = SimplexStats(len(tableau), n_total, phase1, cleanup, 0)
        return SimplexResult(INFEASIBLE, None, None, stats)

    # Pivot leftover (zero-valued) artificials out of the basis when possible.
    cleanup += _drive_out(tableau, scale, basis, cols, n_real)

    # Phase 2 bars the artificial columns.  An artificial still basic sits
    # on a row that is zero from here on.
    tableau, cols = _drop_artificials(tableau, cols, n_real)
    return FeasibleBasis(
        n_vars, n_total, tuple(map(tuple, tableau)), tuple(scale[:-1]),
        tuple(basis), tuple(cols), phase1, cleanup, sum(map(len, tableau)) + len(cols) + 1,
    )


def _phase2(start: FeasibleBasis, objective) -> tuple[SimplexResult, FeasibleBasis]:
    """Minimize `objective` from the feasible basis `start`; the result and
    the final basis.  When `start` keeps the objective row of the same
    integer cost, the value is read off that row: nothing is priced or
    copied, and the final basis is `start` itself.  Otherwise the
    objective is priced on the frozen rows of `start`, which are copied
    only when a column can enter.  A solve with no pivot keeps those rows
    (an OPTIMAL one on a new basis that keeps the new row, an UNBOUNDED one
    on `start` itself)."""
    n_vars = start.n_vars
    cost, factor = _integerize(objective, 1)  # cost = factor * objective
    cost = (*cost, *[0] * (start.columns - n_vars))
    status, phase2, final = OPTIMAL, 0, start
    if cost == start.cost:  # the kept row is this cost's: nothing to price
        obj, big = start.obj, start.obj_scale
    else:
        obj, big = _priced(start.rows, start.basis, start.scale, start.cols, cost)
        if min(obj[:-1], default=0) < 0:  # a column can enter: pivot on a copy
            tableau = [list(row) for row in start.rows]
            scale = [*start.scale, big]  # the last entry is the objective row's
            basis, cols = list(start.basis), list(start.cols)
            status, phase2 = _run_simplex(tableau, obj, scale, basis, cols)
            big = scale[-1]
            if phase2:
                final = start._replace(
                    rows=tuple(map(tuple, tableau)), scale=tuple(scale[:-1]),
                    basis=tuple(basis), cols=tuple(cols), cost=None, obj=None, obj_scale=0,
                )
        if status == OPTIMAL:
            final = final._replace(cost=cost, obj=tuple(obj), obj_scale=big)
    stats = SimplexStats(
        len(start.rows), start.columns, start.phase1_pivots, start.cleanup_pivots, phase2
    )
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, stats), final
    # The objective row's rhs is -value times its scale and the cost's factor.
    res = SimplexResult(OPTIMAL, Fraction(-obj[-1], big * factor), None, stats)
    res._final = final
    return res, final


def _point(final: FeasibleBasis) -> tuple[Fraction, ...]:
    """The point of a basis: a Fraction at each nonzero basic structural
    coordinate, and one shared zero at every other."""
    n_vars = final.n_vars
    x = [Fraction(0)] * n_vars
    for row, c, d in zip(final.rows, final.basis, final.scale):
        if c < n_vars and row[-1]:
            x[c] = Fraction(row[-1], d)
    return tuple(x)
