"""Exact linear programming over the rationals.

A small two-phase simplex with Bland's anti-cycling rule.  All pivoting is
done on integer-scaled rows (each tableau row keeps an implicit positive
rational scale, which affects neither feasibility, nor sign tests, nor ratio
comparisons), so the hot loop works on Python ints instead of Fractions.
Coefficients may be ints or Fractions; each row is scaled to ints once, as
it is added.  A solve returns the status, the exact optimum and optimal
point as Fractions, and the tableau size and pivot counts (`SimplexStats`);
it returns no dual certificate.

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
    out of the basis, and phase 2.
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
    """Scale a rational row by a positive integer so every entry is an int."""
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


def _reduce_row(row: list[int]) -> None:
    g = gcd(*row)
    if g > 1:
        row[:] = [v // g for v in row]


def _eliminate(row, p, f, nonzero) -> None:
    """row <- row * p - f * prow, reduced, where `nonzero` lists the
    (column, value) pairs of prow's nonzero entries."""
    if p != 1:
        row[:] = [v * p for v in row]
    for j, v in nonzero:
        row[j] -= f * v
    _reduce_row(row)


def _pivot(tableau, basis, obj, pr, pc):
    """Integer pivot keeping all row scales positive."""
    prow = tableau[pr]
    p = prow[pc]
    assert p > 0
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tableau):
        if i != pr and row[pc]:
            _eliminate(row, p, row[pc], nonzero)
    if obj is not None and obj[pc]:
        _eliminate(obj, p, obj[pc], nonzero)
    _reduce_row(prow)
    basis[pr] = pc


def _run_simplex(tableau, basis, obj, allowed, n_total):
    """Bland's rule inner loop; returns (OPTIMAL or UNBOUNDED, pivots)."""
    for pivots in range(_MAX_PIVOTS):
        pc = -1
        for j in range(n_total):
            if allowed[j] and obj[j] < 0:
                pc = j
                break
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
            # compare row i ratio against current best (cross-multiplied)
            better = row[-1] * tableau[pr][pc] - tableau[pr][-1] * a
            if better < 0 or (better == 0 and basis[i] < basis[pr]):
                pr = i
        if pr < 0:
            return UNBOUNDED, pivots
        _pivot(tableau, basis, obj, pr, pc)
    raise RuntimeError("simplex failed to terminate")  # pragma: no cover


def _solve(n_vars, rows, objective) -> SimplexResult:
    # A >= row with rhs <= 0, negated, has its own slack at +1 and a
    # nonnegative rhs, so it starts on that slack; every other row starts
    # on an artificial column.
    n_slack = sum(1 for _, _, kind in rows if kind == "ge")
    n_art = sum(1 for _, b, kind in rows if kind == "eq" or b > 0)
    n_total = n_vars + n_slack + n_art
    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_at = n_vars
    art_at = n_vars + n_slack
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

    # ---- phase 1: drive the artificial variables to zero
    obj1 = [0] * n_total + [0]
    for j in range(n_vars + n_slack, n_total):
        obj1[j] = 1
    for i, row in enumerate(tableau):  # canonicalize over the artificial basis
        if basis[i] >= n_vars + n_slack:
            for j in range(len(obj1)):
                obj1[j] -= row[j]
    allowed = [True] * n_total
    status, phase1 = _run_simplex(tableau, basis, obj1, allowed, n_total)
    assert status == OPTIMAL  # phase-1 objective is bounded below by 0

    def stats(cleanup=0, phase2=0):
        return SimplexStats(len(tableau), n_total, phase1, cleanup, phase2)

    infeas = Fraction(0)
    for i, row in enumerate(tableau):
        if basis[i] >= n_vars + n_slack:
            infeas += Fraction(row[-1], row[basis[i]])
    if infeas > 0:
        return SimplexResult(INFEASIBLE, None, None, stats())

    # Pivot leftover (zero-valued) artificials out of the basis when possible.
    cleanup = 0
    for i in range(len(tableau)):
        if basis[i] >= n_vars + n_slack:
            pc = next(
                (j for j in range(n_vars + n_slack) if tableau[i][j] != 0), None
            )
            if pc is not None:
                if tableau[i][pc] < 0:
                    tableau[i] = [-v for v in tableau[i]]
                _pivot(tableau, basis, None, i, pc)
                cleanup += 1

    # ---- phase 2: original objective, artificial columns barred
    for j in range(n_vars + n_slack, n_total):
        allowed[j] = False
    obj2 = _integerize(objective, 0)[0] + [0] * (n_slack + n_art + 1)
    for i, row in enumerate(tableau):
        if basis[i] < n_vars + n_slack and obj2[basis[i]] != 0:
            nonzero = [(j, v) for j, v in enumerate(row) if v]
            _eliminate(obj2, row[basis[i]], obj2[basis[i]], nonzero)
    status, phase2 = _run_simplex(tableau, basis, obj2, allowed, n_total)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, stats(cleanup, phase2))

    x = [Fraction(0)] * n_vars
    for i, row in enumerate(tableau):
        if basis[i] < n_vars:
            x[basis[i]] = Fraction(row[-1], row[basis[i]])
    value = sum((c * v for c, v in zip(objective, x)), Fraction(0))
    return SimplexResult(OPTIMAL, value, tuple(x), stats(cleanup, phase2))
