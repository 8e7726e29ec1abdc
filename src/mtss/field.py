"""Prime-field linear algebra.

Everything downstream (scheme construction, rank-based verification, the
dealer) works over a prime field F_q with q a plain Python int.  Matrices are
small and dense, so they are stored as numpy int64 arrays with entries reduced
to [0, q).  Moduli are bounded by MODULUS_LIMIT = 2**20, so a product of two
reduced entries is below 2**40 and sums of up to 2**23 such products stay
exact in int64: vectorised elimination and the dealer's matrix products need
no arbitrary-precision tricks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def inverse_mod(x: int, q: int) -> int:
    """Multiplicative inverse of x in F_q (q prime, x nonzero mod q)."""
    x %= q
    if x == 0:
        raise ZeroDivisionError("0 has no inverse")
    return pow(x, q - 2, q)


def _as_field_array(rows, q: int) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array of entries")
    return np.mod(a, q)


@dataclass(frozen=True, eq=False)
class MatrixFq:
    """An immutable matrix over F_q.

    `a` always holds reduced entries.  Width-zero matrices (0 columns) are
    legal and show up naturally as empty variable blocks.
    """

    q: int
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_modulus(self.q)
        arr = _as_field_array(self.a, self.q)
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]

    @property
    def n_cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixFq)
            and self.q == other.q
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __repr__(self):
        return f"MatrixFq(q={self.q}, shape={self.a.shape})"

    def take_columns(self, cols) -> "MatrixFq":
        return MatrixFq(self.q, self.a[:, list(cols)])

    def rank(self) -> int:
        return rank(self.a, self.q)


def zeros(n_rows: int, n_cols: int, q: int) -> MatrixFq:
    return MatrixFq(q, np.zeros((n_rows, n_cols), dtype=np.int64))


def _eliminate(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """In-place forward elimination to row echelon form; returns pivot columns."""
    n_rows, n_cols = a.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        inv = inverse_mod(int(a[r, c]), q)
        a[r] = (a[r] * inv) % q
        below = a[r + 1 :, c]
        hot = np.nonzero(below)[0]
        if hot.size:
            a[r + 1 + hot] = (a[r + 1 + hot] - np.outer(below[hot], a[r])) % q
        pivots.append(c)
        r += 1
    return a, pivots


def rank(rows, q: int) -> int:
    """Rank of a matrix over F_q (accepts MatrixFq, ndarray or nested lists)."""
    if isinstance(rows, MatrixFq):
        q = rows.q
        rows = rows.a
    a = _as_field_array(rows, q).copy()
    if a.shape[1] == 0 or a.shape[0] == 0:
        return 0
    _, pivots = _eliminate(a, q)
    return len(pivots)


def solve_affine(A, b, q: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve A x = b over F_q.

    Returns (particular, basis) where basis is a (k, n) array spanning the
    kernel of A, so the full solution set is particular + span(basis).
    Raises ValueError("inconsistent system") when no solution exists.
    """
    if isinstance(A, MatrixFq):
        q = A.q
        A = A.a
    if q is None:
        raise ValueError("modulus required")
    A = _as_field_array(A, q)
    b = np.mod(np.asarray(b, dtype=np.int64).reshape(-1), q)
    n_rows, n_cols = A.shape
    if b.shape[0] != n_rows:
        raise ValueError("right-hand side has wrong length")
    aug = np.hstack([A, b[:, None]]).copy()
    aug, pivots = _eliminate(aug, q)
    if n_cols in pivots:
        raise ValueError("inconsistent system")
    # Back-substitute to reduced echelon form.
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        above = aug[:i, c]
        hot = np.nonzero(above)[0]
        if hot.size:
            aug[hot] = (aug[hot] - np.outer(above[hot], aug[i])) % q
    particular = np.zeros(n_cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        particular[c] = aug[i, n_cols]
    free = [c for c in range(n_cols) if c not in set(pivots)]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-aug[i, c]) % q
    return particular, basis
