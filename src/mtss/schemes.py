"""Generator-matrix constructions for linear multiple-threshold schemes.

A scheme is one generator matrix over F_q and a width per variable: its
columns split into one block per secret and one per share, in canonical
variable order (`LinearScheme.cuts`, the one column layout the rank table,
the codec and the text form all read).  Joint entropies of the induced
uniform row-space distribution are joint column ranks (in base-q units), so
everything downstream — verification, ratios, bound audits, the dealer — is
plain linear algebra.

Builders here come in two flavours.  The Vandermonde window
(`build_weak_block`; `build_single_threshold` is its one-secret case, the
classic threshold scheme) is correct at any admissible field order because
every t columns of a distinct-element Vandermonde matrix are independent.
The stitched families (`build_B`, `build_A`) are one layout (`_stitched`):
column groups of a tall Vandermonde matrix, zero-padded groups of a short
one on the later shares, and for `build_B` identity blocks for the
second-level secrets.  Their correctness needs the field to be "large
enough", which we settle constructively: advance through the candidates
until the weak-security verifier passes.  Every builder and `unify_field`
take their primes from one candidate walk (`_primes`): a given q alone, or
the first `SEARCH_CAP` primes from the stated lower bound, each checked
against the modulus limit before any matrix is built.  A window takes the
first candidate.

`build_optimal` and `unify_field` take their leaf constructions from one
bounded, clearable memo per process (`_leaf`), so a leaf shared by many
cells is built, searched and scanned once.  The public builders are not
cached: each call returns a new scheme.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from dataclasses import field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from operator import index, itemgetter

import numpy as np

from mtss import dealer, field, verify
from mtss.structure import (
    SIGMA,
    SIGMA_AVG,
    STRONG,
    TAU_AVG,
    WEAK,
    RatioKind,
    StructurePair,
    VariableId,
    format_ints,
    format_thresholds,
    parse_int,
    parse_ints,
    parse_thresholds,
    randomness_break_index,
    read_records,
    slot_map,
    structure,
    weak_sigma_plan,
)

SEARCH_CAP = 50

_MAGIC = "mtss-scheme 1"

# Guards the first read of a composed scheme's widths, cuts and matrix
# (`LinearScheme`); reentrant, as its cuts and matrix read its widths.
_ASSEMBLING = threading.RLock()


class FieldSearchError(RuntimeError):
    """No admissible prime found within the search cap."""


def _cuts(widths) -> tuple[slice, ...]:
    """Consecutive column slices of the given widths, starting at 0."""
    return tuple(slice(end - w, end) for w, end in zip(widths, accumulate(widths)))


@dataclass(frozen=True, eq=False)
class LinearScheme:
    """An immutable generator matrix for a structure and a width per variable.

    `matrix` is a read-only 2-d int64 array reduced to [0, q) (the
    constructor reduces and freezes a copy of the array or nested lists it
    is given) with `n_rows` rows; `widths` are the variables' column counts
    in canonical order (`StructurePair.variables`), and variable i's block
    is the columns `cuts[i]`.  The constructor checks one width per
    variable, none negative, their sum the column count, and every nonempty
    block of full column rank over F_q (so a variable's entropy equals its
    width).  Width-0 secret blocks encode dummy secrets added by `embed`.
    Everything inside the package reads `widths` and `cuts` by position;
    `width` and `columns` take `VariableId`s at the edges, through the one
    lookup `StructurePair.position`.

    `min_order` is the smallest field order the construction is known to
    work at (for searched families, the prime the search certified).

    `leaves` records how a composed scheme was built: one entry per leaf
    construction it combines, the leaf scheme and, per variable of this
    scheme, the index of its block in the leaf (-1 for a dummy secret).  So
    the scheme is the `combine` of the leaves, each `embed`ded by that
    placement.  `embed` and `combine` set it, after checking that the
    composition keeps every condition; `_rebuild` swaps each leaf for the
    same construction over another prime and keeps every placement, so the
    checks still hold.  A scheme with no entries is a leaf.  `recipe` holds
    a leaf construction's tag and its builder's positional arguments, so
    `unify_field` can rebuild it over another prime; only the two layouts
    (`build_weak_block`, `_stitched`) set it.  The constructor takes neither
    field (`TypeError`), so a scheme read back from text or copied with
    `dataclasses.replace` is a leaf with no recipe.  Neither takes part in
    the text form or the fingerprint.

    A composed scheme is its structure and its leaves; everything else is
    derived.  `embed`, `combine` and `_rebuild` pass only those two to
    `_composed`, which makes the scheme without the constructor and reads
    `q`, `n_rows` (the sum of the leaves') and `min_order` (the largest)
    off the leaves.  Its `widths` (the sums of the leaves' widths at the
    recorded indices), `cuts` and `matrix` are made on first read and kept.
    The matrix is the `field.block_diag` of the leaves' matrices, its
    columns taken into variable order, so each block is the block-diagonal
    stack of the leaves' blocks at the recorded indices (an empty one for a
    dummy): reduced, read-only and of full column rank, as the bands are
    disjoint; no block is checked again.  Ratios, checks and audits read
    no matrix of a composed scheme.
    """

    sp: StructurePair
    q: int
    matrix: np.ndarray
    widths: tuple[int, ...]
    min_order: int = 0
    n_rows: int = dc_field(init=False)
    recipe: tuple | None = dc_field(default=None, init=False)
    leaves: tuple[tuple[LinearScheme, tuple[int, ...]], ...] = dc_field(
        default=(), init=False, compare=False, repr=False
    )

    def __post_init__(self):
        field.check_modulus(self.q)
        matrix = field.reduce(self.matrix, self.q)
        matrix.setflags(write=False)
        widths = tuple(map(index, self.widths))
        n_vars = self.sp.n_parties + self.sp.n_secrets
        if len(widths) != n_vars:
            raise ValueError(f"{len(widths)} widths for {n_vars} variables")
        if min(widths) < 0:
            raise ValueError(f"negative width {min(widths)}")
        if sum(widths) != matrix.shape[1]:
            raise ValueError(f"widths sum to {sum(widths)}, matrix has {matrix.shape[1]} columns")
        cuts = _cuts(widths)
        for v, w, cut in zip(self.sp.variables, widths, cuts):
            if w and field.rank(matrix[:, cut], self.q) != w:
                raise ValueError(f"block {v} has linearly dependent columns")
        self.__dict__.update(
            matrix=matrix, widths=widths, n_rows=matrix.shape[0], cuts=cuts,
            min_order=self.min_order or self.q,
        )

    def __getattr__(self, name):
        # Only a composed scheme lacks these until they are first read.
        make = _LAZY.get(name)
        if make is None or not self.leaves:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        with _ASSEMBLING:
            value = self.__dict__.get(name)
            if value is None:
                value = self.__dict__[name] = make(self)
        return value

    def secret_variables(self) -> tuple[VariableId, ...]:
        return self.sp.variables[: -self.sp.n_parties]

    def width(self, v: VariableId) -> int:
        return self.widths[self.sp.position(v)]

    def columns(self, vs) -> np.ndarray:
        """Horizontal stack of the blocks of `vs`, in canonical order."""
        at = sorted({self.sp.position(v) for v in sorted(vs)})  # the least unknown one fails
        return np.hstack([self.matrix[:, :0], *(self.matrix[:, self.cuts[i]] for i in at)])

    # -- serialization -----------------------------------------------------
    def to_text(self) -> str:
        lines = [
            _MAGIC,
            f"q {self.q}",
            f"rows {self.n_rows}",
            f"structure {self.sp.n_parties} {format_thresholds(self.sp)}",
        ]
        columns = self.matrix.T.tolist()
        for v, cut in zip(self.sp.variables, self.cuts):
            head = f"S {v.level} {v.index}" if v.kind == "secret" else f"P {v.index}"
            lines.append(" ".join([head] + [format_ints(c) for c in columns[cut]]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "LinearScheme":
        header, body = read_records(text, _MAGIC, ("q", "rows", "structure"), "scheme")
        try:
            q = parse_int(header["q"], "field order")
            n_rows = parse_int(header["rows"], "row count")
            if n_rows < 0:
                raise ValueError(f"negative rows {n_rows}")
            tokens = header["structure"].split()
            if len(tokens) != 2:
                raise ValueError('expected "structure N t,t,…"')
            sp = parse_thresholds(parse_int(tokens[0], "participant count"), tokens[1])
        except ValueError as e:
            raise ValueError(f"malformed scheme header: {e}") from e
        field.check_modulus(q)
        variables, columns, widths = [], [], []
        for parts in body:
            if parts[0] == "S" and len(parts) >= 3:
                level = parse_int(parts[1], "secret level")
                v = VariableId.secret(level, parse_int(parts[2], "secret index"))
                cols = parts[3:]
            elif parts[0] == "P" and len(parts) >= 2:
                v = VariableId.share(parse_int(parts[1], "share index"))
                cols = parts[2:]
            else:
                raise ValueError(f"bad variable line: {' '.join(parts)!r}")
            cols = [parse_ints(c, f"column of {v}") for c in cols]
            if any(len(c) != n_rows for c in cols):
                raise ValueError(f"column length mismatch on {v}")
            variables.append(v)
            columns += ([x % q for x in c] for c in cols)
            widths.append(len(cols))
        if n_rows > len(columns):
            raise ValueError(f"rows {n_rows} exceeds the {len(columns)} columns of the blocks")
        # Count first: listing the variables of a huge N would not return.
        if len(variables) != sp.n_parties + sp.n_secrets or tuple(variables) != sp.variables:
            raise ValueError("blocks must cover every variable in canonical order")
        matrix = np.array(columns, dtype=np.int64).reshape(len(columns), n_rows).T
        return LinearScheme(sp=sp, q=q, matrix=matrix, widths=widths)

    @cached_property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    # Made once per scheme object, on first use: its rank table by variable
    # mask, which holds no reference back to it, and its codec.
    profile = cached_property(verify.RankProfile)
    codec = cached_property(dealer.Codec)


def _composed_widths(scheme: LinearScheme) -> tuple[int, ...]:
    # A dummy's index, -1, reads the 0 appended to its leaf's widths (every
    # structure has at least three variables, so each get is a tuple).
    return tuple(
        map(sum, zip(*(itemgetter(*at)(leaf.widths + (0,)) for leaf, at in scheme.leaves)))
    )


def _assemble(scheme: LinearScheme) -> np.ndarray:
    """A composed scheme's matrix, from its leaves' (see the class): the
    columns of their diagonal stack, stably sorted by the variable each is
    placed at."""
    owner = []
    for leaf, at in scheme.leaves:
        where = dict(zip(at, range(len(at))))
        owner += [where[j] for j, w in enumerate(leaf.widths) for _ in range(w)]
    stack = field.block_diag([leaf.matrix for leaf, _ in scheme.leaves])
    matrix = stack[:, np.argsort(owner, kind="stable")]
    matrix.setflags(write=False)
    return matrix


# How a composed scheme makes each attribute it lacks until first read.
_LAZY = {
    "widths": _composed_widths,
    "cuts": lambda scheme: _cuts(scheme.widths),
    "matrix": _assemble,
}


# --------------------------------------------------------------------------
# Vandermonde windows


def vandermonde(t: int, elements, q: int) -> np.ndarray:
    """t x len(elements) matrix with entry (r, c) = elements[c]**r mod q."""
    if t < 1:
        raise ValueError("need at least one row")
    els = [int(e) for e in elements]
    if len(set(els)) != len(els):
        raise ValueError("duplicate elements")
    if any(e < 0 or e >= q for e in els):
        raise ValueError("element out of field range")
    base = np.asarray(els, dtype=np.int64)
    rows = np.empty((t, len(els)), dtype=np.int64)
    rows[0] = 1 % q
    for r in range(1, t):
        rows[r] = rows[r - 1] * base % q
    return rows


def build_weak_block(n_parties: int, t: int, m: int, q: int | None = None) -> LinearScheme:
    """Single-threshold-value scheme for m secrets from V(t, [min(t,m)+N]).

    The first n = min(t, m) columns are width-1 secrets, the next N columns
    are the shares; when m > t the remaining secrets get width-0 blocks
    (only t secrets can be packed into one window of t rows).  The field
    order is the first candidate of `_primes` from n + N + 1.
    """
    if not 2 <= t <= n_parties:
        raise ValueError("threshold must satisfy 2 <= t <= N")
    if m < 1:
        raise ValueError("need at least one secret")
    n = min(t, m)
    min_order = n + n_parties + 1
    q = next(_primes(min_order, q))
    sp = structure(n_parties, [(t, m)])
    v = vandermonde(t, range(1, min_order), q)
    cols = [[j - 1] if k == 1 and j <= n else [] for k, j in sp.secret_slots()]
    cols += [[n + i] for i in range(n_parties)]
    matrix = v[:, [c for block in cols for c in block]]
    out = LinearScheme(sp, q, matrix, tuple(map(len, cols)), min_order)
    object.__setattr__(out, "recipe", ("weak-block", (n_parties, t, m)))
    return out


def build_single_threshold(t: int, n_parties: int, q: int | None = None) -> LinearScheme:
    """Classic one-secret threshold scheme: `build_weak_block` with m = 1.

    The secret is the all-ones column (element 1), the N shares are the
    columns of elements 2..N+1; any t of the N+1 columns are independent,
    which gives decodability at t shares and perfect secrecy below.
    """
    return build_weak_block(n_parties, t, 1, q)


# --------------------------------------------------------------------------
# Stitched two-level and flattened one-level constructions


def _stitched(sp, q, n_rows, w, short_rows, first, second, recipe) -> LinearScheme:
    """The stitched layout over F_q, with `n_rows` rows.

    Level-1 secret j and share i take width-w column groups j and m1 + i of
    one tall Vandermonde matrix.  From share `first` on, each share also
    takes a width-(m1-t1) column group of a short Vandermonde matrix of
    `short_rows` rows, padded with zeros below.  `second` holds the
    level-2 secrets' blocks, if any.
    """
    n, m1, w2 = sp.n_parties, sp.count(1), sp.count(1) - sp.threshold(1)
    groups = np.hsplit(vandermonde(n_rows, range(1, (m1 + n) * w + 1), q), m1 + n)
    short = np.zeros((n_rows, (n - first + 1) * w2), dtype=np.int64)
    short[:short_rows] = vandermonde(short_rows, range(1, short.shape[1] + 1), q)
    wide = m1 + first - 1  # share `first`'s group
    groups[wide:] = map(np.hstack, zip(groups[wide:], np.hsplit(short, n - first + 1)))
    groups[m1:m1] = second
    widths = tuple(g.shape[1] for g in groups)
    out = LinearScheme(sp, q, np.hstack(groups), widths, min_order=q)
    object.__setattr__(out, "recipe", recipe)
    return out


def build_B(n_parties: int, t1m1, t2m2, q: int | None = None) -> LinearScheme:
    """Two-level scheme stitching an overfull level onto an underfull one.

    Requires m1 > t1 > t2 > m2.  The stitched layout (`_stitched`) with
    m1*t2 - t1*m2 rows and width t2-m2, where every share takes a group of
    the short matrix (t2*(m1-t1) rows) and each second-level secret is a
    group of m1-t1 identity columns.  The field order is settled by
    verified search (see module docstring).
    """
    t1, m1 = t1m1
    t2, m2 = t2m2
    if not (m1 > t1 > t2 > m2 >= 1):
        raise ValueError("need m1 > t1 > t2 > m2 >= 1")
    if t1 > n_parties:
        raise ValueError("threshold exceeds participant count")
    sp = structure(n_parties, [(t1, m1), (t2, m2)])
    n_rows, w2 = m1 * t2 - t1 * m2, m1 - t1
    second = np.hsplit(np.eye(n_rows, m2 * w2, dtype=np.int64), m2)
    recipe = ("B", (n_parties, (t1, m1), (t2, m2)))
    start = max((m1 + n_parties) * (t2 - m2), n_parties * w2) + 1
    return _searched_build(
        lambda p: _stitched(sp, p, n_rows, t2 - m2, w2 * t2, 1, second, recipe), start, q
    )


def build_A(n_parties: int, t1m1, a: int, q: int | None = None) -> LinearScheme:
    """One-level scheme for m1 > t1 secrets with unequal share sizes.

    The stitched layout (`_stitched`) with a*m1 rows and width a: all m1
    secrets get width a, the first t1-a shares have width a, the rest width
    m1-t1+a (a group of the short matrix, a*(m1-t1) rows, too).  With a=1
    it spends no randomness beyond the secrets themselves, which is what
    makes it useful in randomness-optimal combinations.  Field order
    settled by verified search.
    """
    t1, m1 = t1m1
    if m1 <= t1:
        raise ValueError("need more secrets than the threshold (m1 > t1)")
    if not 1 <= a <= t1 - 1:
        raise ValueError("a out of range: need 1 <= a <= t1-1")
    if t1 > n_parties:
        raise ValueError("threshold exceeds participant count")
    sp = structure(n_parties, [(t1, m1)])
    recipe = ("A", (n_parties, (t1, m1), a))
    start = max(a * (m1 + n_parties), (n_parties - t1 + a) * (m1 - t1)) + 1
    return _searched_build(
        lambda p: _stitched(sp, p, a * m1, a, a * (m1 - t1), t1 - a + 1, (), recipe), start, q
    )


def _primes(start: int, q: int | None = None):
    """The candidate field orders from `start`: a given q alone, else the
    first `SEARCH_CAP` primes from `start`, each found when asked.  A given
    q is checked (`field.check_modulus`, and against `start`) and every
    found prime against the modulus limit before it is yielded, so an order
    over the limit fails before any matrix is built."""
    if q is not None:
        field.check_modulus(q)
        if q < start:
            raise ValueError(f"field order {q} below the admissible minimum {start}")
        yield q
        return
    p = start - 1
    for _ in range(SEARCH_CAP):
        p = field.next_prime_at_least(p + 1)
        if p >= field.MODULUS_LIMIT:
            field.check_modulus(p)  # p is prime, so only its size fails
        yield p


def _searched_build(assemble, start: int, q: int | None) -> LinearScheme:
    """Run `assemble` at each candidate of `_primes(start, q)` until the
    weak-security verifier passes.

    The construction families used here are proven to work once the field
    is large enough, so the search terminates in practice well within the
    cap.  A given q is the only candidate.
    """
    tried = []
    for p in _primes(start, q):
        scheme = assemble(p)
        if verify.check_conditions(scheme, WEAK).passed:
            return scheme
        tried.append(p)
    raise FieldSearchError(f"no admissible prime among the {len(tried)} tried: {tried}")


# --------------------------------------------------------------------------
# Composition


def embed(scheme: LinearScheme, target: StructurePair, *, place=None) -> LinearScheme:
    """Re-label a scheme onto a larger structure, adding width-0 secrets.

    Secrets not covered by the source keep dummy (width-0) blocks; every
    rank condition of the target is inherited because a threshold level of
    the target either contains no real secrets (trivially secure/decodable)
    or reduces to a level the source already certifies at an equal or
    higher threshold.

    By default the placement is `slot_map` (sub-arrays matched by threshold,
    secrets keep their index); pass `place` ({(k, j) -> (k', j')}) to route
    source secrets onto specific target slots with equal thresholds.  Both
    are checked the same way.

    The result is a view (see `LinearScheme`): its `leaves` are the
    source's entries (a leaf's own, for a leaf) mapped through the
    placement, so an embed of an embed points at the original leaf, and its
    widths are the source's widths mapped the same way (0 for a dummy).
    """
    if target.n_parties != scheme.sp.n_parties:
        raise ValueError("subset relation fails: participant counts differ")
    if place is None:
        place = slot_map(scheme.sp, target)
        if place is None:
            raise ValueError("subset relation fails")
    place = dict(place)
    src_slots = scheme.sp.secret_slots()
    dst_slots = target.secret_slots()
    if set(place) != set(src_slots):
        raise ValueError("placement must cover every source secret exactly once")
    if len(set(place.values())) != len(place):
        raise ValueError("placement collides on a target slot")
    exists = set(dst_slots)
    for (k, j), (kk, jj) in place.items():
        if (kk, jj) not in exists:
            raise ValueError(f"target slot ({kk},{jj}) does not exist")
        if target.threshold(kk) != scheme.sp.threshold(k):
            raise ValueError("placement must preserve thresholds")
    # Each target variable's block index in the source (-1 for a dummy
    # secret), by canonical position: secrets in slot order, then shares.
    src_at = {place[slot]: i for i, slot in enumerate(src_slots)}
    n_src = len(src_slots)
    at = [src_at.get(slot, -1) for slot in dst_slots]
    at += range(n_src, n_src + target.n_parties)
    return _composed(
        target,
        tuple(
            (leaf, tuple(-1 if i < 0 else pos[i] for i in at))
            for leaf, pos in _entries(scheme)
        ),
    )


def combine(parts) -> LinearScheme:
    """Independent combination: per-variable diagonal stacking of blocks.

    Row bands of different parts are disjoint, so every joint rank of the
    result is the sum of the parts' joint ranks — which is exactly why the
    combination inherits each rank condition its parts satisfy, and why its
    profile sums theirs.  The result is a view (see `LinearScheme`): its
    `leaves` are the parts' entries (a leaf's own, for a leaf) in order, so
    a combine of a combine lists the inner leaves, and each width is the
    sum of the parts' widths.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    first = parts[0]
    if any(p.sp != first.sp for p in parts):
        raise ValueError("mismatched structure")
    if any(p.q != first.q for p in parts):
        raise ValueError("mismatched field")
    if len(parts) == 1:
        return first
    return _composed(first.sp, tuple(e for p in parts for e in _entries(p)))


def _composed(sp, leaves) -> LinearScheme:
    """A composed scheme over `leaves`, made without the constructor (see
    `LinearScheme`).  Its field, row count (the sum) and minimum order (the
    largest) are read off the leaves; its widths, cuts and matrix are made
    from theirs on first read."""
    out = object.__new__(LinearScheme)
    out.__dict__.update(
        sp=sp,
        q=leaves[0][0].q,
        n_rows=sum(leaf.n_rows for leaf, _ in leaves),
        min_order=max(leaf.min_order for leaf, _ in leaves),
        leaves=leaves,
    )
    return out


def _entries(scheme: LinearScheme):
    """`scheme.leaves`, or a leaf's own entry: itself, every block in place."""
    return scheme.leaves or ((scheme, tuple(range(len(scheme.widths)))),)


def _rebuild(scheme: LinearScheme, q: int) -> LinearScheme:
    """`scheme` over F_q: as it is when already over q; a leaf from the
    leaf memo (`_leaf`) by its recipe; a composed scheme by swapping each
    leaf for its rebuild, at the same recorded placement.  Placements,
    widths and row counts do not depend on q, so `embed` and `combine`
    would pass their checks again: a composed scheme is made directly."""
    if scheme.q == q:
        return scheme
    if not scheme.leaves:
        tag, args = scheme.recipe
        builder = {
            "weak-block": build_weak_block,
            "B": build_B,
            "A": build_A,
        }[tag]
        return _leaf(builder, args, q)
    return _composed(scheme.sp, tuple((_rebuild(leaf, q), at) for leaf, at in scheme.leaves))


def unify_field(parts) -> list[LinearScheme]:
    """Bring all parts over one common prime and re-verify their leaves.

    Each part is a leaf, or a scheme composed by `embed` and `combine`,
    which meets the scheme conditions exactly when its leaves do (the
    composition argument of `verify.check_conditions`).  So no part is
    checked: each distinct leaf of the rebuilt parts is checked once per
    candidate, at weak security, which is every leaf's whole guarantee.  A
    window with several secrets, `build_A` and `build_B` are only weakly
    secure, and the last two were checked weak by their own field search,
    so their reports are already kept.  A leaf with one secret has one
    level, where C2 and C3 name the same instances (its t-1 shares against
    the one secret, and rk(S) = width(S) by the constructor's block check),
    so its weak report is its strong report but for the `security` label.
    A part with a recipe-less leaf (a text or `dataclasses.replace` copy)
    cannot be rebuilt and is refused (`ValueError`).

    The candidate order starts at the largest minimum admissible order of
    any part; searched families may still reject a candidate (they verify
    at exact q), so the candidate advances through primes under a cap.
    Each distinct part is rebuilt (`_rebuild`) once per candidate: a part
    already over it comes back as it is, a leaf comes from the leaf memo
    (`_leaf`), so one made over that prime before is reused, and a composed
    part swaps its leaves for theirs.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("need at least one part")
    distinct = dict.fromkeys(parts)
    if any(leaf.recipe is None for part in distinct for leaf, _ in _entries(part)):
        raise ValueError("scheme is not rebuildable (no retained parameters)")
    for p in _primes(max(part.min_order for part in parts)):
        try:
            made = {part: _rebuild(part, p) for part in distinct}
        except FieldSearchError:
            continue
        leaves = dict.fromkeys(leaf for part in made.values() for leaf, _ in _entries(part))
        if all(verify.check_conditions(leaf, WEAK).passed for leaf in leaves):
            return [made[part] for part in parts]
    raise FieldSearchError(f"no common prime within {SEARCH_CAP} tries")


# --------------------------------------------------------------------------
# Ratio-optimal recipes


def build_optimal(sp: StructurePair, kind: RatioKind) -> LinearScheme:
    """A scheme meeting the closed-form optimum of `kind` where resolved.

    For the one unresolved regime (weak sigma with several overfull
    sub-arrays and at least one underfull), the result is the best-known
    combination; its sigma equals the bracketing upper bound.

    Each distinct leaf construction is built once per process (`_leaf`) and
    shared, with its rank memo and kept reports, by every cell that uses it.
    """
    if kind.security == STRONG:
        parts = _strong_parts(sp, kind)
    else:
        parts = _weak_parts(sp, kind)
    parts = unify_field(parts)
    return combine(parts)


@lru_cache(maxsize=256)
def _leaf(builder, args: tuple, q: int | None = None) -> LinearScheme:
    """`builder(*args, q=q)`, kept for the whole process under the builder
    object the caller looks up, its args and q.  Bounded (least recently
    used first out); `_leaf.cache_clear()` empties it.  A failed build is
    not kept.  Strong cells ask for their one-secret windows under the same
    key as weak cells, so both share one leaf."""
    return builder(*args, q=q)


def _strong_parts(sp, kind):
    n = sp.n_parties
    slots = [(sp.k_levels, 1)] if kind.measure == TAU_AVG else sp.secret_slots()
    return [
        embed(_leaf(build_weak_block, (n, sp.threshold(k), 1)), sp, place={(1, 1): (k, j)})
        for k, j in slots
    ]


def _window(sp, i):
    """The weak block of sub-array i, embedded."""
    return embed(_leaf(build_weak_block, (sp.n_parties, sp.threshold(i), sp.count(i))), sp)


def _bridge(sp, k, i):
    """The stitched B block of overfull sub-array k over underfull i, embedded."""
    args = (sp.n_parties, (sp.threshold(k), sp.count(k)), (sp.threshold(i), sp.count(i)))
    return embed(_leaf(build_B, args), sp)


def _weak_parts(sp, kind):
    if kind.measure == SIGMA:
        return _sigma_plan_parts(sp)
    if kind.measure == SIGMA_AVG:
        best = max(range(1, sp.k_levels + 1), key=lambda i: min(sp.threshold(i), sp.count(i)))
        return [_window(sp, best)]
    if kind.measure == TAU_AVG:
        packed = [i for i in range(1, sp.k_levels + 1) if sp.count(i) >= sp.threshold(i)]
        if packed:
            return [_zero_randomness_part(sp, packed[0])]
        best = min(
            range(1, sp.k_levels + 1),
            key=lambda i: Fraction(sp.threshold(i) - sp.count(i), sp.count(i)),
        )
        return [_window(sp, best)]
    # TAU: windows above the break, then zero-extra-randomness parts below.
    first_over = randomness_break_index(sp) + 1
    parts = [_window(sp, i) for i in range(1, first_over)]
    if first_over > sp.k_levels:
        return parts
    parts.append(_zero_randomness_part(sp, first_over))
    for i in range(first_over + 1, sp.k_levels + 1):
        if sp.count(i) < sp.threshold(i):
            parts.append(_bridge(sp, first_over, i))
        else:
            parts.append(_zero_randomness_part(sp, i))
    return parts


def _zero_randomness_part(sp, i):
    """A part covering sub-array i whose shares carry no extra randomness."""
    t_i, m_i = sp.threshold(i), sp.count(i)
    if m_i > t_i:
        return embed(_leaf(build_A, (sp.n_parties, (t_i, m_i), 1)), sp)
    return _window(sp, i)


def _sigma_plan_parts(sp):
    _, plan = weak_sigma_plan(sp)
    parts = []
    for part in plan:
        if part.kind == "window":
            base = [_window(sp, part.level)]
        elif part.kind == "ensemble":
            t_i = sp.threshold(part.level)
            block = _leaf(build_weak_block, (sp.n_parties, t_i, t_i))
            base = [
                embed(block, sp, place={(1, r): (part.level, j) for r, j in enumerate(chosen, 1)})
                for chosen in combinations(range(1, sp.count(part.level) + 1), t_i)
            ]
        else:  # bridge
            base = [_bridge(sp, part.level, part.other)]
        parts.extend(base * part.multiplicity)
    return parts
