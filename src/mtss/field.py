"""Prime-field linear algebra.

Everything downstream (scheme construction, rank-based verification, the
dealer) works over a prime field F_q with q a plain Python int.  Matrices are
small and dense, so each is a plain 2-d numpy int64 array with entries in
[0, q), its modulus passed beside it.  `reduce` makes one of any input, and
`rank` and `solve_affine` reduce their input first; `schemes.LinearScheme`
keeps a scheme's matrix so, read-only, over its one q.  Elimination runs on
lists of Python ints, so its arithmetic is exact at any size.
`solve_affine` returns the solution map of a system for every right-hand
side, so the dealer eliminates once per scheme and once per coalition, and
each deal and reconstruction is then int64 matrix products.  Moduli are
bounded by MODULUS_LIMIT = 2**20 for those products: a product of two
reduced entries is below 2**40, and sums of up to 2**23 such products stay
exact.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

MODULUS_LIMIT = 1 << 20


def check_modulus(q: int) -> None:
    """Reject a field modulus that is not a prime below MODULUS_LIMIT.

    The size check comes first, so a huge q fails at once instead of
    running trial division.
    """
    if q >= MODULUS_LIMIT:
        raise ValueError(f"modulus {q} is too large (limit 2**20)")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


def is_prime(m: int) -> bool:
    """Deterministic trial division; intended for desk-scale moduli."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def next_prime_at_least(m: int) -> int:
    """Smallest prime >= m (m >= 2)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    p = m
    while not is_prime(p):
        p += 1
    return p


def reduce(rows, q: int) -> np.ndarray:
    """A new 2-d int64 array of `rows` with entries reduced to [0, q)."""
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of entries")
    return np.mod(a, q)


def _echelon(
    rows: list[list[int]], q: int, reduced: bool
) -> tuple[list[list[int]], list[int]]:
    """Row echelon form of the row space of `rows` (lists of reduced ints).

    Rows are inserted one at a time: a new row is cleared at every pivot so
    far, in pivot order, and scaled to a leading 1.  With `reduced` it is
    also cleared from the earlier rows at its own pivot, which gives the
    reduced form; without, the rows are only echelon, which is enough for
    the rank.  Returns the nonzero rows in pivot order and their pivot
    columns; in reduced form both depend only on the row space.  Stops
    early once every column is a pivot.
    """
    width = len(rows[0]) if rows else 0
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        if len(pivots) == width:
            break
        for b, p in zip(basis, pivots):
            c = row[p]
            if c:
                row = [(x - c * y) % q for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, q)
        if inv != 1:
            row = [x * inv % q for x in row]
        if reduced:
            for i, b in enumerate(basis):
                c = b[lead]
                if c:
                    basis[i] = [(x - c * y) % q for x, y in zip(b, row)]
        at = bisect_left(pivots, lead)
        basis.insert(at, row)
        pivots.insert(at, lead)
    return basis, pivots


def rank(rows, q: int) -> int:
    """Rank of a matrix over F_q (an ndarray or nested lists), reduced first.

    Eliminates whichever of the matrix and its transpose has fewer rows.
    """
    a = reduce(rows, q)
    if a.shape[0] > a.shape[1]:
        a = a.T
    return len(_echelon(a.tolist(), q, reduced=False)[1])


def solve_affine(A, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solution map of A x = b over F_q, for every right-hand side b.

    For an (m, n) matrix A of rank r, returns (P, C, basis): P is (m, n),
    C is (m, m - r) and basis is (n - r, n).  A right-hand side b has a
    solution iff b @ C == 0 (mod q), and b @ P is then the solution that is
    zero on the free columns; the solution set is that plus span(basis),
    where basis row k is the kernel vector with a 1 on the k-th free column
    and zeros on the other free columns.  All three are read off one
    reduced echelon form of [A | I]: a row with its pivot in A holds, in its
    I part, the combination of the equations that gives its pivot's value
    (a column of P), and a row with its pivot in I has a zero A part, so its
    I part is a combination of the equations that cancels (a column of C).
    """
    A = reduce(A, q)
    m, n = A.shape
    aug = np.hstack([A, np.eye(m, dtype=np.int64)]).tolist()
    rref, pivots = _echelon(aug, q, reduced=True)
    r = bisect_left(pivots, n)  # the rows with their pivot in A come first
    pivots = pivots[:r]
    P = np.zeros((m, n), dtype=np.int64)
    for row, c in zip(rref, pivots):
        P[:, c] = row[n:]
    C = np.array([row[n:] for row in rref[r:]], dtype=np.int64).reshape(m - r, m).T
    free = sorted(set(range(n)) - set(pivots))
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for row, pc in zip(rref, pivots):
            basis[k, pc] = -row[c] % q
    return P, C, basis
