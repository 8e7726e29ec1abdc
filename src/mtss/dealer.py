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
statistical secrecy with the algebraic rank verdicts.  It makes the codes of
every codeword, and no rank or elimination is involved: it tallies the
settings of the last rows once, and makes each setting of the other rows a
block of codes from that table by a digit-wise shift.  The map is linear,
so a block is one coset of the inner image, and two blocks are the same set
or disjoint.  The census keeps one block per coset, named by its smallest
code, and counts the settings per coset; every code's tally is then the
inner tally times the settings per coset.  Three checks guard the argument
(a `RuntimeError` if one fails): every inner code has the same tally, every
coset the same number of settings, and no code is kept twice.  It
tabulates with arrays: a sorted array of combined (coalition values, target
values) codes and their codeword counts, from which `uniform` is read
directly; `digit_rows` decodes the codes into base-q digit rows, which the
records output prints in code order.
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
CENSUS_CAP = 10_000_000
_CHUNK = 1 << 16  # census bound on inner-row settings and on the codes of a batch of blocks
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
    code, the coalition values' base-q digits followed by the target's:
    `codes` is sorted and duplicate-free and `tallies[i]` counts the
    codewords that give `codes[i]`.  The codes of one coalition value
    therefore form a contiguous run.  `leakage_census` gives every code the
    same tally, the codewords of one coset over the codes of its block; a
    table built directly may hold any tallies, and `uniform` reads them.
    `digit_rows` decodes the codes into base-q digit rows.
    """

    q: int
    coalition_width: int
    target_width: int
    codes: np.ndarray  # sorted int64 combined codes
    tallies: np.ndarray  # int64 codeword count of each code

    @property
    def n_coalition_values(self) -> int:
        """Number of distinct coalition share values (runs of codes)."""
        a_code = self.codes // self.q**self.target_width
        return int(np.count_nonzero(np.diff(a_code))) + 1

    @property
    def uniform(self) -> bool:
        """True when every conditional distribution of the target is flat
        over all q^width values."""
        base = self.q**self.target_width
        # A run holds at most `base` codes, so the total says every run is full.
        if len(self.codes) != self.n_coalition_values * base:
            return False
        runs = self.tallies.reshape(-1, base)
        return bool((runs == runs[:, :1]).all())

    def digit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The coalition values and the target values of each code, as rows
        of base-q digits in the order of `codes`."""
        a_code, s_code = np.divmod(self.codes, self.q**self.target_width)
        return (
            _digits(a_code, self.coalition_width, self.q),
            _digits(s_code, self.target_width, self.q),
        )


def _digits(code: np.ndarray, width: int, q: int) -> np.ndarray:
    """Base-q digits of each code, most significant first: one row a code."""
    out = np.empty((len(code), width), dtype=np.int64)
    for col in range(width - 1, -1, -1):
        code, out[:, col] = np.divmod(code, q)
    return out


def leakage_census(scheme: LinearScheme, a_shares, target) -> CensusTable:
    """Enumerate every codeword and tabulate the target secrets against a
    coalition's share values.  target may be one secret variable or an
    iterable of them (joint census).  Raises ValueError when the combined
    codes, q^(coalition width + target width) values, do not fit in int64.

    A codeword is split into its last k rows (inner), with k the largest
    such that q^k <= _CHUNK, and the rest (outer).  The joint values y of
    all q^k inner settings are tallied once into distinct codes, the inner
    image.  The map is linear, so every inner code is made by the same
    number of inner settings (the size of the map's kernel).  Also
    y(outer + inner) = y(outer) + y(inner) mod q: the block of one outer
    setting, the inner codes with each digit shifted by that setting's y,
    is the coset y(outer) + inner image.  Two cosets are equal or disjoint,
    so a block's smallest code names its coset.  Outer settings run in
    batches of about _CHUNK codes; the first block of each name is kept and
    the settings of each name are counted.  Every coset holds the same
    number of settings (the outer settings whose y lies in the inner
    image).  The codes are one sort of the kept blocks, and every tally is
    the inner tally times the settings per coset.  A RuntimeError is raised
    if the inner tallies differ, the cosets hold different numbers of
    settings or a code is kept twice; none can happen on a linear map."""
    targets = [target] if isinstance(target, VariableId) else list(target)
    a_list = sorted(a_shares)
    _check_kind(a_list, "share")
    _check_kind(targets, "secret")
    n, q = scheme.n_rows, scheme.q
    if q**n > CENSUS_CAP:
        raise ValueError("scheme too large for census")
    va = scheme.columns(a_list)
    vs = scheme.columns(targets)
    wa, ws = va.shape[1], vs.shape[1]
    if q ** (wa + ws) > 1 << 63:
        raise ValueError(
            f"census codes would overflow: {q}^{wa + ws} values exceed 2^63"
        )
    cols = np.concatenate([va, vs], axis=1)
    w = wa + ws
    place = q ** np.arange(w - 1, -1, -1, dtype=np.int64)
    k = 0
    while k < n and q ** (k + 1) <= _CHUNK:
        k += 1
    inner = np.zeros((1, w), dtype=np.int64)
    for row in cols[n - k :]:
        inner = (inner[:, None] + np.outer(np.arange(q), row)) % q
        inner = inner.reshape(len(inner) * q, w)
    inner_codes, inner_tallies = np.unique(inner @ place, return_counts=True)
    tally = inner_tallies[0]
    if (inner_tallies != tally).any():
        raise RuntimeError("census inner tallies differ, so the scheme's map is not linear")
    inner_digits = _digits(inner_codes, w, q).T
    batch = max(1, _CHUNK // len(inner_codes))
    outer = q ** (n - k)
    settings_of = {}  # coset name -> outer settings whose block it names
    kept = []
    for start in range(0, outer, batch):
        settings = _digits(np.arange(start, min(start + batch, outer)), n - k, q)
        shift = settings @ cols[: n - k] % q
        blocks = np.tile(inner_codes, (len(shift), 1))
        # Digit j becomes (d + s) mod q, so every partial sum is a code.
        for s, d, p in zip(shift.T[:, :, None], inner_digits, place):
            blocks += np.where(d >= q - s, (s - q) * p, s * p)
        fresh = []
        for row, name in enumerate(blocks.min(axis=1).tolist()):
            if name not in settings_of:
                settings_of[name] = 0
                fresh.append(row)
            settings_of[name] += 1
        kept.append(blocks[fresh].ravel())
    per_coset = set(settings_of.values())
    if len(per_coset) != 1:
        raise RuntimeError("census cosets differ in size, so the scheme's map is not linear")
    codes = np.concatenate(kept)
    del kept  # only the joined copy stays, sorted in place
    codes.sort()
    if (codes[1:] <= codes[:-1]).any():
        raise RuntimeError("census cosets overlap, so the scheme's map is not linear")
    tallies = np.full(len(codes), tally * per_coset.pop(), dtype=np.int64)
    return CensusTable(q, wa, ws, codes, tallies)
