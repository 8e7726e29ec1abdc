import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtss import field
from mtss.field import next_prime_at_least, rank, solve_affine


# ---------------------------------------------------------------- primality

def _primes_by_sieve(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return set(np.nonzero(flags)[0].tolist())


def test_next_prime_examples():
    assert next_prime_at_least(2) == 2
    assert next_prime_at_least(8) == 11
    assert next_prime_at_least(2402) == 2411


def test_next_prime_matches_sieve():
    primes = _primes_by_sieve(5000)
    for m in range(2, 3000, 7):
        p = next_prime_at_least(m)
        assert p in primes and p >= m
        assert not any(k in primes for k in range(m, p))


def test_next_prime_rejects_tiny():
    with pytest.raises(ValueError):
        next_prime_at_least(1)


# ---------------------------------------------------------------- rank

def _independent_brute(cols, q):
    """No nontrivial linear combination vanishes (exhaustive search)."""
    k = len(cols)
    for coeffs in itertools.product(range(q), repeat=k):
        if all(c == 0 for c in coeffs):
            continue
        combo = np.zeros(len(cols[0]), dtype=np.int64)
        for c, v in zip(coeffs, cols):
            combo = (combo + c * np.asarray(v)) % q
        if not combo.any():
            return False
    return True


def _rank_brute(a, q):
    """Largest independent subset of columns, checked by exhaustive combos."""
    a = np.asarray(a) % q
    cols = [a[:, j] for j in range(a.shape[1])]
    best = 0
    for r in range(len(cols), 0, -1):
        for subset in itertools.combinations(cols, r):
            if _independent_brute(list(subset), q):
                return r
    return best


def test_rank_examples():
    assert rank([[1, 1], [2, 3]], 5) == 2
    assert rank([[1, 2], [2, 4]], 5) == 1
    assert rank([[1, 1], [1, 1]], 2) == 1
    assert rank(np.zeros((3, 4), dtype=int), 7) == 0
    assert rank(np.zeros((3, 0), dtype=int), 7) == 0


def test_rank_reduces_only_input_that_is_not_a_field_matrix(monkeypatch):
    """An ndarray or list may hold any ints: `rank` reduces it first, once
    per call, whatever it is given."""
    rows = [[6, -4], [12, 2]]  # rank 2 over the rationals, [[1, 1], [2, 2]] mod 5
    assert rank(rows, 5) == rank(np.array(rows), 5) == 1
    assert rank([[8, 3], [-1, 4]], 7) == 1  # rank 2 over the rationals
    reductions = []
    real = field.reduce
    monkeypatch.setattr(field, "reduce", lambda *a: reductions.append(a) or real(*a))
    assert rank(rows, 5) == 1 and len(reductions) == 1
    assert rank(field.reduce(rows, 5), 5) == 1 and len(reductions) == 3


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_matches_brute_force(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    entries = data.draw(
        st.lists(st.integers(0, q - 1), min_size=n * m, max_size=n * m)
    )
    a = np.array(entries, dtype=np.int64).reshape(n, m)
    assert rank(a, q) == _rank_brute(a, q)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rank_equals_rank_of_transpose(data):
    q = data.draw(st.sampled_from([2, 3, 5, 11]))
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 5))
    entries = data.draw(
        st.lists(st.integers(0, q - 1), min_size=n * m, max_size=n * m)
    )
    a = np.array(entries, dtype=np.int64).reshape(n, m)
    assert rank(a, q) == rank(a.T, q)
    assert rank(a, q) <= min(n, m)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_diag_rank_is_the_sum_of_the_parts(data):
    """A block-diagonal stack's rank is the sum of its parts' ranks, which
    is why a composed scheme's block, its leaves' blocks each in its own
    band of rows, has full column rank."""
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    mats = []
    for _ in range(data.draw(st.integers(1, 4))):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(0, 4))
        entries = data.draw(
            st.lists(st.integers(0, q - 1), min_size=n * m, max_size=n * m)
        )
        mats.append(np.array(entries, dtype=np.int64).reshape(n, m))
    stacked = np.zeros(
        (sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)), dtype=np.int64
    )
    r = c = 0
    for m in mats:
        stacked[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    assert rank(stacked, q) == sum(rank(m, q) for m in mats)


# ---------------------------------------------------------------- solving

def test_solve_affine_example():
    # x1 + x2 = 0 over F_3: kernel generated by (1, 2).
    solve, checks, basis = solve_affine([[1, 1]], 3)
    assert checks.shape == (1, 0)
    particular = np.array([0]) @ solve % 3
    assert particular.tolist() == [0, 0]
    assert basis.shape == (1, 2)
    sols = {tuple(particular)}
    sols |= {tuple((particular + t * basis[0]) % 3) for t in range(1, 3)}
    assert sols == {(0, 0), (1, 2), (2, 1)}


def test_solve_affine_inconsistent():
    # x1 + x2 = 1 and 2 x1 + 2 x2 = 1 over F_5 have no solution; the one
    # check column is the combination of equations that cancels A.
    solve, checks, _ = solve_affine([[1, 1], [2, 2]], 5)
    assert checks.shape == (2, 1)
    assert (np.array([1, 1]) @ checks % 5).any()
    b = np.array([1, 2])
    assert not (b @ checks % 5).any()
    assert (np.array([[1, 1], [2, 2]]) @ (b @ solve % 5) % 5).tolist() == [1, 2]


def test_solve_affine_enumeration_oracle():
    # Compare the affine solution set against exhaustive enumeration.
    q = 3
    A = np.array([[1, 2, 0], [0, 1, 1]], dtype=np.int64)
    b = np.array([1, 2], dtype=np.int64)
    solve, checks, basis = solve_affine(A, q)
    assert not (b @ checks % q).any()
    particular = b @ solve % q
    generated = set()
    for coeffs in itertools.product(range(q), repeat=basis.shape[0]):
        x = particular.copy()
        for c, v in zip(coeffs, basis):
            x = (x + c * v) % q
        generated.add(tuple(x.tolist()))
    brute = {
        x
        for x in itertools.product(range(q), repeat=3)
        if np.array_equal(A @ np.array(x) % q, b)
    }
    assert generated == brute


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_affine_round_trip(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    entries = data.draw(
        st.lists(st.integers(0, q - 1), min_size=n * m, max_size=n * m)
    )
    x = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m)))
    A = np.array(entries, dtype=np.int64).reshape(n, m)
    b = A @ x % q
    solve, checks, basis = solve_affine(A, q)
    assert not (b @ checks % q).any()
    particular = b @ solve % q
    assert np.array_equal(A @ particular % q, b)
    for v in basis:
        assert not (A @ v % q).any()
    # dimension check: #solutions = q^(m - rank)
    assert basis.shape[0] == m - rank(A, q)


# ---------------------------------------------------- reference elimination

def _reference_eliminate(a, q):
    """The earlier numpy int64 kernel: in-place forward elimination to row
    echelon form (exact while q < 2**20); returns the pivot columns."""
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
        a[r] = (a[r] * pow(int(a[r, c]), -1, q)) % q
        below = a[r + 1 :, c]
        hot = np.nonzero(below)[0]
        if hot.size:
            a[r + 1 + hot] = (a[r + 1 + hot] - np.outer(below[hot], a[r])) % q
        pivots.append(c)
        r += 1
    return pivots


def _reference_solve(A, b, q):
    """The earlier `solve_affine`: back-substitution after the forward pass;
    None for an inconsistent system."""
    n_cols = A.shape[1]
    aug = np.hstack([A, b[:, None]]) % q
    pivots = _reference_eliminate(aug, q)
    if n_cols in pivots:
        return None
    for i in range(len(pivots) - 1, -1, -1):
        above = aug[:i, pivots[i]]
        hot = np.nonzero(above)[0]
        if hot.size:
            aug[hot] = (aug[hot] - np.outer(above[hot], aug[i])) % q
    particular = np.zeros(n_cols, dtype=np.int64)
    for i, c in enumerate(pivots):
        particular[c] = aug[i, n_cols]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-aug[i, c]) % q
    return particular, basis


def _draw_matrix(data, q, n, m):
    """An n x m matrix over F_q of drawn rank profile: a product of n x k
    and k x m factors, with k up to min(n, m) + 1."""
    k = data.draw(st.integers(0, min(n, m) + 1), label="inner")
    entries = st.integers(0, q - 1)
    left = data.draw(st.lists(entries, min_size=n * k, max_size=n * k))
    right = data.draw(st.lists(entries, min_size=k * m, max_size=k * m))
    rows = [
        [sum(left[i * k + t] * right[t * m + j] for t in range(k)) % q for j in range(m)]
        for i in range(n)
    ]
    return np.array(rows, dtype=np.int64).reshape(n, m)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_kernel_matches_reference(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7, 1048573]), label="q")
    n = data.draw(st.integers(0, 12), label="rows")
    m = data.draw(st.integers(0, 12), label="cols")
    a = _draw_matrix(data, q, n, m)
    r = rank(a, q)
    assert r == len(_reference_eliminate(a.copy(), q))
    assert r == rank(a.T, q) <= min(n, m)

    solve, checks, basis = solve_affine(a, q)
    assert solve.shape == (n, m) and checks.shape == (n, n - r)
    assert not (checks.T @ a % q).any() and rank(checks, q) == n - r
    assert basis.shape == (m - r, m)
    assert not (a @ basis.T % q).any()

    x = data.draw(st.lists(st.integers(0, q - 1), min_size=m, max_size=m))
    drawn = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    for b in (a @ np.array(x, dtype=np.int64) % q, np.array(drawn, dtype=np.int64)):
        want = _reference_solve(a, b, q)
        assert (b @ checks % q).any() == (want is None)
        if want is None:
            assert rank(np.hstack([a, b[:, None]]), q) == r + 1
            continue
        particular = b @ solve % q
        assert np.array_equal(particular, want[0]) and np.array_equal(basis, want[1])
        assert np.array_equal(a @ particular % q, b)


# ---------------------------------------------------------------- matrices

def test_matrix_validation():
    with pytest.raises(ValueError, match="not prime"):
        field.check_modulus(6)
    m = field.reduce([[7, -1], [2, 3]], 5)
    assert m.dtype == np.int64 and m.tolist() == [[2, 4], [2, 3]]
    for bad in ([1, 2], 3, [[[1]]]):
        with pytest.raises(ValueError, match="2-d"):
            field.reduce(bad, 5)


def test_modulus_limit():
    """q = 1048573, the largest prime below 2**20, is accepted and ranks
    stay exact; anything from 2**20 up is refused before primality
    testing, so 2**61 - 1 fails at once instead of hanging."""
    q = 1048573
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = rng.integers(1, q, 3)
        v = rng.integers(1, q, 3)
        assert rank(np.outer(u, v) % q, q) == 1
    for big in (1 << 20, 1048583, 4294967311, (1 << 61) - 1):
        with pytest.raises(ValueError, match="too large"):
            field.check_modulus(big)
