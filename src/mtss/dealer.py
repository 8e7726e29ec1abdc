"""Operational side of a scheme: deal shares, reconstruct, and census.

Dealing samples a codeword uniformly from the affine set of row vectors
consistent with the requested secret values: a particular solution plus a
seeded uniform combination of the kernel basis.  Reconstruction takes any
codeword matching a qualified coalition's shares and reads the suffix
secrets off it.  Both are linear in their input, so each scheme keeps its
maps (`Codec`, made once per scheme object): one elimination per scheme
gives the encoder, and one per coalition gives that coalition's decoder.

Vectors are stored by position.  A `SecretAssignment` and a `ShareBundle`
are frozen dataclasses: the first holds its secrets and their vectors in
canonical secret order, the second its share indices and their vectors in
increasing index order.  The codec takes its layout from the scheme: each
secret's and share's width and column slice (`LinearScheme.cuts`), so
`deal` and `reconstruct` cut their words into vectors by slices.  A
`VariableId` appears only at the edges: item access, the bundle text and
the CLI.  Each vector is checked by the code that relies on it:
`for_scheme` checks width and field range, and `deal` checks every
assignment through it; `from_text` checks only the integer grammar, and
`reconstruct` checks vector count, index order, width and range.

The census brute-forces the full codeword space of a tiny scheme to compare
statistical secrecy with the algebraic rank verdicts, with no rank or
elimination involved.  It counts cosets rather than making the codes: the
last rows' settings give the inner image I, and as y is linear, one setting
of the other rows gives the coset y(outer) + I, so the outer settings whose
y lies in I say how many codes there are, and how many codewords make each.
The same count over the coalition digits gives the coalition values, and as
every fibre of a linear map has one size, the `uniform` verdict is read off
the counts.  The table is a sorted array of combined (coalition values,
target values) codes and the one tally they share.  The codes are made only
when read, one block of shifted inner codes per coset; `digit_rows` decodes
them a block at a time into base-q digit rows, which the records output
writes in code order as it decodes them.  `CENSUS_CAP` bounds the work of
each path, not the codewords: the verdict's outer settings, and the codes
the table's blocks make.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import compress, islice
from operator import ge

import numpy as np

from mtss import field
from mtss.structure import VariableId, format_ints, parse_int, parse_ints, read_records

_MASK64 = (1 << 64) - 1
_BUNDLE_MAGIC = "mtss-bundle 1"
# Census work bound: the verdict's outer settings, q^(n - k); the codes the
# table's blocks make, q^(n - k) times the inner image's size.  Both are at
# most q^n, the codewords.
CENSUS_CAP = 10_000_000
# Census batch bound: on the inner rows' settings (the inner image); on a
# batch of outer settings, whose values are counted in that image to count
# the cosets; on the codes of a batch of blocks when the table is made; and
# on the codes decoded into one block of digit rows.
_CHUNK = 1 << 16
DECODERS_KEPT = 64  # coalition decoders a scheme keeps; there are 2^N coalitions


def _splitmix64(seed: int):
    """The splitmix64 word stream; deterministic for a given seed."""
    x = seed & _MASK64
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield (z ^ (z >> 31)) & _MASK64


def _field_elements(seed: int, q: int, count: int) -> list[int]:
    """count elements of F_q, rejection-free: multiply-and-shift on 64-bit
    words maps the stream uniformly onto 0..q-1."""
    return [(word * q) >> 64 for word in islice(_splitmix64(seed), count)]


def _check_kind(vs, kind):
    """Refuse any of `vs` that is not a `VariableId` of this kind."""
    for v in vs:
        if not (isinstance(v, VariableId) and v.kind == kind):
            raise ValueError(f"not a {kind} variable: {v}")


def _checked(vectors, widths, q: int, names) -> tuple:
    """The vectors as tuples of ints, each as wide as its width and in F_q;
    `names` labels them, in the same order, in the error raised."""
    out = []
    for vec, width, name in zip(vectors, widths, names):
        vec = tuple(map(int, vec))
        if len(vec) != width:
            raise ValueError(f"{name} length {len(vec)} does not match width {width}")
        if vec and (min(vec) < 0 or max(vec) >= q):
            raise ValueError(f"{name} element out of field range")
        out.append(vec)
    return tuple(out)


class ReconstructionError(ValueError):
    """Well-formed input that yields no secrets: the bundle belongs to
    another scheme, the share set is unqualified, or the shares disagree."""


@dataclass(frozen=True)
class SecretAssignment:
    """Per-secret value vectors; zero-width secrets carry empty tuples.

    Stored by position: `variables` are the assigned secrets in canonical
    order and `vectors` their tuples of ints.  `for_scheme` checks every
    vector against the scheme's layout, and `deal` checks every assignment
    through it.  Read-only and unhashable.
    """

    variables: tuple
    vectors: tuple
    __hash__ = None

    def __getitem__(self, v: VariableId):
        # A scheme's own variables are found by identity, with no hashing.
        for held, vec in zip(self.variables, self.vectors):
            if held is v:
                return vec
        if v not in self.variables:
            raise KeyError(v)
        return self.vectors[self.variables.index(v)]

    @staticmethod
    def for_scheme(scheme: LinearScheme, vectors) -> SecretAssignment:
        """Build a complete assignment from vectors in canonical secret order."""
        codec = scheme.codec
        svars, vectors = codec.secret_variables, list(vectors)
        if len(vectors) != len(svars):
            raise ValueError(f"need {len(svars)} secret vectors, got {len(vectors)}")
        return SecretAssignment(svars, _checked(vectors, codec.secret_widths, codec.q, svars))


@dataclass(frozen=True)
class ShareBundle:
    """Share vectors plus the fingerprint of the scheme that produced them.

    Stored by position: `indices` are the held share indices, strictly
    increasing from 1, and `vectors` their tuples of ints, as `deal`,
    `restrict` and `from_text` make them.  Only `reconstruct` checks a
    bundle against a scheme.  Read-only and unhashable.
    """

    fingerprint: str
    indices: tuple
    vectors: tuple
    __hash__ = None

    def restrict(self, indices) -> ShareBundle:
        """Keep only the shares of the given participant indices."""
        keep = set(indices)
        held = [i in keep for i in self.indices]
        return ShareBundle(
            self.fingerprint,
            tuple(compress(self.indices, held)),
            tuple(compress(self.vectors, held)),
        )

    def to_text(self) -> str:
        lines = [_BUNDLE_MAGIC, f"fingerprint {self.fingerprint}"]
        lines += [f"P {i} {format_ints(vec)}" for i, vec in zip(self.indices, self.vectors)]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> ShareBundle:
        """Read a bundle, its shares in index order whatever the file's
        order.  Only the grammar is checked here: `reconstruct` checks each
        vector against the scheme."""
        header, body = read_records(text, _BUNDLE_MAGIC, ("fingerprint",), "bundle")
        shares = {}
        for parts in body:
            if len(parts) != 3 or parts[0] != "P":
                raise ValueError(f"bad share line: {' '.join(parts)!r}")
            i = parse_int(parts[1], "share index")
            if i < 1:
                raise ValueError("variable indices are 1-based")
            if i in shares:
                raise ValueError(f"duplicate share line for P[{i}]")
            shares[i] = parse_ints(parts[2], f"share vector of P[{i}]")
        indices = tuple(sorted(shares))
        return ShareBundle(header["fingerprint"], indices, tuple(map(shares.__getitem__, indices)))


def _frozen(a: np.ndarray) -> np.ndarray:
    """The array, made read-only: a codec hands it to every later call."""
    a.setflags(write=False)
    return a


def _decoder(q, shares, secrets, share_cuts, indices) -> np.ndarray:
    """`Codec.decoder` of the coalition of these share indices."""
    coalition = np.hstack([shares[:, :0], *(shares[:, share_cuts[i - 1]] for i in indices)])
    solve, checks, _ = field.solve_affine(coalition.T, q)
    return _frozen(np.hstack([solve @ secrets % q, checks]))


class Codec:
    """A scheme's layout and its dealing maps, each map read off one
    `field.solve_affine`.

    Made once per scheme object (`LinearScheme.codec`) and reused by every
    later `for_scheme`, `deal` and `reconstruct`; a scheme's matrix is
    read-only, so nothing here can go stale.  The codec holds no reference
    to its scheme.

    The layout comes from the scheme: `secret_variables` in canonical
    order; `secrets` and `shares`, views of its secret and share columns;
    `secret_cuts` and `share_cuts`, its `cuts` as slices of those views;
    and `level_starts`, the position of each level's first secret.
    `encoder`, made on the first deal, maps the secret values b followed by
    the kernel coefficients r to the share values [b, r] @ encoder (mod q)
    of the codeword b @ P + r @ basis, where P and basis come from the
    joint secret columns.  `decoder(indices)` is [D | C] for the coalition
    of those increasing share indices, whose columns are its cuts of
    `shares`: its share values `vals` come from some codeword iff vals @ C
    == 0 (mod q), and vals @ D are then the values of all the secrets.  The
    last DECODERS_KEPT coalitions asked are kept.
    Every array is read-only.
    """

    def __init__(self, scheme: LinearScheme):
        self.q = scheme.q
        ns = scheme.sp.n_secrets
        svars = self.secret_variables = scheme.secret_variables()
        self.secret_widths, self.share_widths = scheme.widths[:ns], scheme.widths[ns:]
        self.secret_cuts, cuts = scheme.cuts[:ns], scheme.cuts[ns:]
        # Secrets come first, so a share's cut moves back by their columns.
        split = cuts[0].start
        self.share_cuts = tuple(slice(c.start - split, c.stop - split) for c in cuts)
        levels = [v.level for v in svars]
        self.level_starts = tuple(
            bisect_left(levels, k) for k in range(1, scheme.sp.k_levels + 1)
        )
        self.secrets, self.shares = scheme.matrix[:, :split], scheme.matrix[:, split:]
        self.decoder = lru_cache(maxsize=DECODERS_KEPT)(
            partial(_decoder, self.q, self.shares, self.secrets, self.share_cuts)
        )

    @cached_property
    def encoder(self) -> np.ndarray:
        solve, checks, basis = field.solve_affine(self.secrets.T, self.q)
        if checks.shape[1]:
            raise ValueError(
                "the secrets' joint columns are linearly dependent, "
                "so some secret values have no codeword"
            )
        return _frozen(np.vstack([solve, basis]) @ self.shares % self.q)


def deal(scheme: LinearScheme, secrets: SecretAssignment, seed: int = 0) -> ShareBundle:
    """Sample a codeword with the given secret values and emit all shares.

    Raises ValueError for an assignment that does not fit the scheme, and
    for a scheme whose secrets' joint columns are dependent."""
    codec = scheme.codec
    if tuple(secrets.variables) != codec.secret_variables:
        raise ValueError("assignment must cover every secret exactly once")
    q, vectors = codec.q, SecretAssignment.for_scheme(scheme, secrets.vectors).vectors
    encoder = codec.encoder
    coefficients = [e for vec in vectors for e in vec]
    coefficients += _field_elements(seed, q, len(encoder) - len(coefficients))
    words = tuple((np.array(coefficients, dtype=np.int64) @ encoder % q).tolist())
    return ShareBundle(
        scheme.fingerprint,
        tuple(range(1, len(codec.share_cuts) + 1)),
        tuple(words[cut] for cut in codec.share_cuts),
    )


def reconstruct(scheme: LinearScheme, shares: ShareBundle, k: int = 1) -> SecretAssignment:
    """Recover the secrets of sub-arrays k..K from a qualified share set.

    Any codeword consistent with the provided shares determines those
    secrets, because the decodable condition puts their columns in the
    span of the coalition's columns.  Raises ReconstructionError for a
    wrong scheme, an unqualified set or inconsistent shares, and a plain
    ValueError for malformed input: a vector count other than the index
    count, share indices that do not increase strictly from 1, a share index
    above N, or a vector of the wrong width or outside the field (the lowest
    such index first).
    """
    if shares.fingerprint != scheme.fingerprint:
        raise ReconstructionError("bundle fingerprint does not match scheme")
    sp = scheme.sp
    if not 1 <= k <= sp.k_levels:
        raise ValueError("sub-array index out of range")
    codec = scheme.codec
    q, widths, indices = codec.q, codec.share_widths, tuple(shares.indices)
    if len(shares.vectors) != len(indices):
        raise ValueError(f"{len(shares.vectors)} share vectors for {len(indices)} share indices")
    if any(map(ge, (0, *indices), indices)):
        raise ValueError("share indices must increase strictly from 1")
    # The indices increase, so each vector up to N is checked before the
    # first index above N is refused.
    held = bisect_right(indices, len(widths))
    at = [widths[i - 1] for i in indices[:held]]
    vectors = _checked(shares.vectors[:held], at, q, map("P[{}]".format, indices))
    if held < len(indices):
        raise ValueError(f"share index {indices[held]} out of range")
    if len(indices) < sp.threshold(k):
        raise ReconstructionError("unqualified set")
    vals = np.array([e for vec in vectors for e in vec], dtype=np.int64)
    words = tuple((vals @ codec.decoder(indices) % q).tolist())
    if any(words[codec.secrets.shape[1] :]):
        raise ReconstructionError("inconsistent shares")
    first = codec.level_starts[k - 1]
    return SecretAssignment(
        codec.secret_variables[first:],
        tuple(words[cut] for cut in codec.secret_cuts[first:]),
    )


@dataclass(frozen=True, eq=False)
class CensusTable:
    """Exhaustive joint counts of (coalition share values, target values).

    Each (coalition values, target values) pair is stored as one combined
    code, the coalition values' base-q digits followed by the target's.
    `leakage_census` counts cosets of the inner image, so the counts come
    without the table: `n_codes` distinct codes, each made by `tally`
    codewords (a linear map's fibres all have one size), over
    `n_coalition_values` distinct coalition values.  The table is `codes`
    and that one `tally`: `codes`, sorted and duplicate-free, is made on its
    first read from `outer_rows` and `inner_codes` and then kept.  The codes
    of one coalition value form a contiguous run.  `digit_rows` decodes the
    codes into base-q digit rows, a block at a time.
    """

    q: int
    coalition_width: int
    target_width: int
    n_codes: int
    n_coalition_values: int
    tally: int
    outer_rows: np.ndarray  # the map's rows above the inner ones, one column a digit
    inner_codes: np.ndarray  # sorted codes of the inner rows' image

    @property
    def uniform(self) -> bool:
        """True when every conditional distribution of the target is flat
        over all q^width values.  Every coalition value has the same number
        of codes, each with the same tally, so the counts tell."""
        return self.n_codes == self.n_coalition_values * self.q**self.target_width

    @cached_property
    def codes(self) -> np.ndarray:
        """The sorted int64 codes, read-only: the first block of each coset,
        named by its smallest code, in batches of about _CHUNK codes.  A
        ValueError is raised when the blocks would make more than
        CENSUS_CAP codes: q^(outer rows) times the inner image's size, the
        work of making the table, which is never below `n_codes`.  A
        RuntimeError is raised if a code is kept twice or the codes number
        other than `n_codes`; neither can happen on a linear map."""
        q, inner = self.q, self.inner_codes
        made = q ** len(self.outer_rows) * len(inner)
        if made > CENSUS_CAP:
            raise ValueError(f"census table too large: {made} codes made, over {CENSUS_CAP}")
        w = self.coalition_width + self.target_width
        place = _place(q, w)
        inner_digits = _digits(inner, w, q).T
        names = set()
        kept = []
        for shift in _shifts(self.outer_rows, q, max(1, _CHUNK // len(inner))):
            blocks = np.tile(inner, (len(shift), 1))
            # Digit j becomes (d + s) mod q, so every partial sum is a code.
            for s, d, p in zip(shift.T[:, :, None], inner_digits, place):
                blocks += np.where(d >= q - s, (s - q) * p, s * p)
            fresh = []
            for row, name in enumerate(blocks.min(axis=1).tolist()):
                if name not in names:
                    names.add(name)
                    fresh.append(row)
            kept.append(blocks[fresh].ravel())
        codes = np.concatenate(kept)
        del kept  # only the joined copy stays, sorted in place
        codes.sort()
        if (codes[1:] <= codes[:-1]).any():
            raise RuntimeError("census cosets overlap, so the scheme's map is not linear")
        if len(codes) != self.n_codes:
            raise RuntimeError("census table and coset count differ")
        return _frozen(codes)

    def digit_rows(self):
        """The base-q digits of each code, its coalition values' followed by
        its target's, as blocks of at most _CHUNK rows in the order of
        `codes`."""
        w = self.coalition_width + self.target_width
        for start in range(0, self.n_codes, _CHUNK):
            yield _digits(self.codes[start : start + _CHUNK], w, self.q)


def _digits(code: np.ndarray, width: int, q: int) -> np.ndarray:
    """Base-q digits of each code, most significant first: one row a code."""
    out = np.empty((len(code), width), dtype=np.int64)
    for col in range(width - 1, -1, -1):
        code, out[:, col] = np.divmod(code, q)
    return out


def _place(q: int, width: int) -> np.ndarray:
    """The place value of each of `width` base-q digits, most significant first."""
    return q ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _shifts(rows: np.ndarray, q: int, batch: int):
    """The values (setting @ rows mod q) of every setting of the rows, in
    batches of `batch` settings."""
    count = q ** len(rows)
    for start in range(0, count, batch):
        settings = _digits(np.arange(start, min(start + batch, count)), len(rows), q)
        yield settings @ rows % q


def _count_in(image: np.ndarray, codes: np.ndarray) -> int:
    """How many of `codes` lie in the sorted, nonempty `image`."""
    at = np.minimum(np.searchsorted(image, codes), len(image) - 1)
    return int(np.count_nonzero(image[at] == codes))


def leakage_census(scheme: LinearScheme, a_shares, target) -> CensusTable:
    """Count every codeword's (coalition values, target values) code, by
    cosets of the inner image.  target may be one secret variable or an
    iterable of them (joint census).  Raises ValueError when the outer
    settings, q^(n-k) below, exceed CENSUS_CAP, or when the combined codes,
    q^(coalition width + target width) values, do not fit in int64.

    The n rows are split into the last k (inner), k = ceil(n/2) or the
    most with q^k <= _CHUNK if fewer, and the rest (outer).  The joint
    values y of the q^k inner settings, enumerated by `_shifts` as the
    outer settings are, give the sorted inner image I; y is linear, so
    every code of I has the same tally.  As y(outer + inner) = y(outer) +
    y(inner), one outer setting o makes the coset y(o) + I, and the m
    outer settings with y(o) in I (found by binary search, in batches of
    _CHUNK) are the kernel of the map onto cosets: n_codes = |I| q^(n-k) /
    m, each made by (inner tally) m codewords.  On the coalition digits
    alone, with the projection of I and m_a, this gives n_coalition_values
    = |proj I| q^(n-k) / m_a.  Each coalition value has n_codes /
    n_coalition_values codes, so the target is uniform exactly when that is
    q^(target width).  The table's codes (`CensusTable.codes`) are made
    only when read.  A RuntimeError is raised if the inner tallies differ,
    or m or m_a does not divide q^(n-k); neither can happen on a linear
    map."""
    targets = [target] if isinstance(target, VariableId) else list(target)
    a_list = sorted(a_shares)
    _check_kind(a_list, "share")
    _check_kind(targets, "secret")
    n, q = scheme.n_rows, scheme.q
    k = 0
    while k < (n + 1) // 2 and q ** (k + 1) <= _CHUNK:
        k += 1
    if q ** (n - k) > CENSUS_CAP:
        raise ValueError("scheme too large for census")
    va = scheme.columns(a_list)
    vs = scheme.columns(targets)
    wa, ws = va.shape[1], vs.shape[1]
    if q ** (wa + ws) > 1 << 63:
        raise ValueError(
            f"census codes would overflow: {q}^{wa + ws} values exceed 2^63"
        )
    cols = np.concatenate([va, vs], axis=1)
    place = _place(q, wa + ws)
    inner = next(_shifts(cols[n - k :], q, q**k))
    inner_codes, inner_tallies = np.unique(inner @ place, return_counts=True)
    tally = int(inner_tallies[0])
    if (inner_tallies != tally).any():
        raise RuntimeError("census inner tallies differ, so the scheme's map is not linear")
    base = q**ws
    inner_values = np.unique(inner_codes // base)
    outer_rows = cols[: n - k]
    outer = q ** (n - k)
    in_image = in_values = 0
    for shift in _shifts(outer_rows, q, _CHUNK):
        shift_codes = shift @ place
        in_image += _count_in(inner_codes, shift_codes)
        in_values += _count_in(inner_values, shift_codes // base)
    if outer % in_image or outer % in_values:
        raise RuntimeError("census cosets differ in size, so the scheme's map is not linear")
    return CensusTable(
        q, wa, ws,
        n_codes=len(inner_codes) * outer // in_image,
        n_coalition_values=len(inner_values) * outer // in_values,
        tally=tally * in_image,
        outer_rows=outer_rows,
        inner_codes=inner_codes,
    )
