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
Coefficients may be ints or Fractions; each row is scaled to ints once, as
it is added (a row of ints as it is).  A solve returns the status, the
exact optimum and optimal point as Fractions, and the tableau size and
pivot counts (`SimplexStats`); it returns no dual certificate.

Problems are stated as:  minimize c . x  subject to  rows (=, >=, <=), x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

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
    after it), and phase 2.
    """

    rows: int
    columns: int
    phase1_pivots: int
    cleanup_pivots: int
    phase2_pivots: int


@dataclass(frozen=True)
class SimplexResult:
    status: str
    value: Fraction | None
    x: tuple[Fraction, ...] | None
    stats: SimplexStats | None = field(default=None, compare=False)


def _integerize(coeffs, rhs):
    """Scale a rational row by a positive integer so every entry is an int.
    A row of ints is returned as it is."""
    if type(rhs) is int and set(map(type, coeffs)) <= {int}:
        return coeffs, rhs
    try:
        den = lcm(*(v.denominator for v in coeffs), rhs.denominator)
    except AttributeError:
        raise TypeError("coefficients must be ints or Fractions") from None
    out = [v.numerator * (den // v.denominator) for v in coeffs]
    return out, rhs.numerator * (den // rhs.denominator)


class LinearProgram:
    """Incrementally assembled LP; columns are indexed 0..n_vars-1."""

    def __init__(self, n_vars: int):
        if n_vars <= 0:
            raise ValueError("need at least one variable")
        self.n_vars = n_vars
        self._rows: list[tuple[list[int], int, str]] = []
        self._objective: list | None = None

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

    def add_eq(self, coeffs, rhs=0) -> None:
        row, b = _integerize(self._dense(coeffs), rhs)
        self._rows.append((row, b, "eq"))

    def add_ge(self, coeffs, rhs=0) -> None:
        row, b = _integerize(self._dense(coeffs), rhs)
        self._rows.append((row, b, "ge"))

    def add_le(self, coeffs, rhs=0) -> None:
        row, b = _integerize(self._dense(coeffs), rhs)
        self._rows.append(([-v for v in row], -b, "ge"))

    def solve(self) -> SimplexResult:
        if self._objective is None:
            raise ValueError("objective not set")
        return _solve(self.n_vars, self._rows, self._objective)


def _pivot(rows, scale, basis, cols, pr, k):
    """Pivot on row `pr` at position `k`, keeping every row scale positive.

    Each other row with a nonzero a at k becomes p * row - a * prow, where p
    is the pivot; position k, which now holds the leaving column, gets that
    column's entry -a * d_pr.  Every updated row is reduced by the gcd of
    its entries and its scale.  A scale of 0 marks the objective row.
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
    basis: L * (reduced costs, -value), for L the lcm of the scales of the
    basic columns with nonzero cost."""
    priced = [(row, cost[c], d) for row, c, d in zip(tableau, basis, scale) if cost[c]]
    big = lcm(*(d for _, _, d in priced))
    obj = [big * cost[c] for c in cols] + [0]
    for row, cb, d in priced:
        f = big // d * cb
        obj = [u - f * v for u, v in zip(obj, row)]
    return obj


def _solve(n_vars, rows, objective) -> SimplexResult:
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
    scale = [1] * len(tableau) + [0]  # the last entry is the objective's

    # ---- crash start: the artificials at rhs 0 leave before phase 1, and
    # their columns are dropped, so phase 1 never brings them back.
    cleanup = _drive_out(tableau, scale, basis, cols, n_real)
    if cleanup:
        tableau, cols = _drop_artificials(tableau, cols, n_real)

    # ---- phase 1: drive the remaining artificial variables to zero
    obj1 = _priced(tableau, basis, scale, cols, [0] * n_real + [1] * n_art)
    status, phase1 = _run_simplex(tableau, obj1, scale, basis, cols)
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0

    def stats(phase2=0):
        return SimplexStats(len(tableau), n_total, phase1, cleanup, phase2)

    # Every rhs is >= 0, so the artificials sum to 0 only if each is 0.
    if any(row[-1] for row, c in zip(tableau, basis) if c >= n_real):
        return SimplexResult(INFEASIBLE, None, None, stats())

    # Pivot leftover (zero-valued) artificials out of the basis when possible.
    cleanup += _drive_out(tableau, scale, basis, cols, n_real)

    # ---- phase 2: original objective, artificial columns dropped.  An
    # artificial still basic sits on a row that is zero from here on.
    tableau, cols = _drop_artificials(tableau, cols, n_real)
    cost = _integerize(objective, 0)[0] + [0] * (n_slack + n_art)
    obj2 = _priced(tableau, basis, scale, cols, cost)
    status, phase2 = _run_simplex(tableau, obj2, scale, basis, cols)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, stats(phase2))

    x = [Fraction(0)] * n_vars
    for row, c, d in zip(tableau, basis, scale):
        if c < n_vars:
            x[c] = Fraction(row[-1], d)
    value = sum((c * v for c, v in zip(objective, x)), Fraction(0))
    return SimplexResult(OPTIMAL, value, tuple(x), stats(phase2))
