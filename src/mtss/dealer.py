"""Operational side of a scheme: deal shares, reconstruct, and census.

Dealing samples a codeword uniformly from the affine set of row vectors
consistent with the requested secret values: a particular solution plus a
seeded uniform combination of the kernel basis.  Reconstruction takes any
codeword matching a qualified coalition's shares and reads the suffix
secrets off it.  Both are linear in their input, so each scheme keeps its
maps (`Codec`, made once per scheme object): one elimination per scheme
gives the encoder, and one per coalition gives that coalition's decoder.
The census brute-forces the full codeword space of a tiny scheme to compare
statistical secrecy with the algebraic rank verdicts.  It tallies the
settings of the last rows once, and makes the codes of every codeword from
that table by a digit-wise shift per setting of the other rows; no rank or
elimination is involved.  It tabulates with arrays: a sorted array of
combined (coalition values, target values) codes and their codeword counts,
from which `uniform` is read directly; `digit_rows` decodes the codes into
base-q digit rows, which the records output prints in code order, and the
nested-dict `counts` is a view decoded from them on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from mtss import field
from mtss.schemes import LinearScheme
from mtss.structure import VariableId, format_ints, parse_int, parse_ints, read_records

_MASK64 = (1 << 64) - 1
_BUNDLE_MAGIC = "mtss-bundle 1"
CENSUS_CAP = 10_000_000
_CHUNK = 1 << 16  # census bound on inner-row settings and on codes made per batch
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
    out = []
    stream = _splitmix64(seed)
    for _ in range(count):
        out.append((next(stream) * q) >> 64)
    return out


def _check_kind(vs, kind):
    """Refuse any of `vs` that is not a `VariableId` of this kind."""
    for v in vs:
        if not (isinstance(v, VariableId) and v.kind == kind):
            raise ValueError(f"not a {kind} variable: {v}")


def _check_vector(vals, width, q, what):
    vals = tuple(int(v) for v in vals)
    if len(vals) != width:
        raise ValueError(f"{what} length {len(vals)} does not match width {width}")
    for v in vals:
        if not 0 <= v < q:
            raise ValueError(f"{what} element out of field range")
    return vals


class ReconstructionError(ValueError):
    """Well-formed input that yields no secrets: the bundle belongs to
    another scheme, the share set is unqualified, or the shares disagree."""


@dataclass(frozen=True)
class SecretAssignment:
    """Per-secret value vectors; zero-width secrets carry empty tuples."""

    values: dict  # VariableId -> tuple of field elements

    def __post_init__(self):
        _check_kind(self.values, "secret")
        fixed = {v: tuple(int(e) for e in vec) for v, vec in self.values.items()}
        object.__setattr__(self, "values", fixed)

    def __getitem__(self, v: VariableId):
        return self.values[v]

    @staticmethod
    def for_scheme(scheme: LinearScheme, vectors) -> "SecretAssignment":
        """Build a complete assignment from vectors in canonical secret order."""
        svars = scheme.secret_variables()
        vectors = list(vectors)
        if len(vectors) != len(svars):
            raise ValueError(
                f"need {len(svars)} secret vectors, got {len(vectors)}"
            )
        out = {}
        for v, vec in zip(svars, vectors):
            out[v] = _check_vector(vec, scheme.width(v), scheme.q, str(v))
        return SecretAssignment(out)


@dataclass(frozen=True)
class ShareBundle:
    """Share vectors plus the fingerprint of the scheme that produced them.

    A bundle built directly checks that its keys are share variables and
    makes each vector a tuple of ints; `deal`, `restrict` and `from_text`
    make their vectors so and build through `_trusted`, which skips that."""

    fingerprint: str
    shares: dict  # VariableId -> tuple of field elements

    def __post_init__(self):
        _check_kind(self.shares, "share")
        fixed = {v: tuple(int(e) for e in vec) for v, vec in self.shares.items()}
        object.__setattr__(self, "shares", fixed)

    @classmethod
    def _trusted(cls, fingerprint: str, shares: dict) -> "ShareBundle":
        """A bundle of share variables whose vectors are tuples of ints."""
        bundle = object.__new__(cls)
        object.__setattr__(bundle, "fingerprint", fingerprint)
        object.__setattr__(bundle, "shares", shares)
        return bundle

    def __getitem__(self, v: VariableId):
        return self.shares[v]

    def restrict(self, indices) -> "ShareBundle":
        """Keep only the shares of the given participant indices."""
        keep = set(indices)
        return ShareBundle._trusted(
            self.fingerprint,
            {v: vec for v, vec in self.shares.items() if v.index in keep},
        )

    def to_text(self) -> str:
        lines = [_BUNDLE_MAGIC, f"fingerprint {self.fingerprint}"]
        for v in sorted(self.shares):
            lines.append(f"P {v.index} {format_ints(self.shares[v])}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ShareBundle":
        header, body = read_records(text, _BUNDLE_MAGIC, ("fingerprint",), "bundle")
        shares = {}
        for parts in body:
            if len(parts) != 3 or parts[0] != "P":
                raise ValueError(f"bad share line: {' '.join(parts)!r}")
            v = VariableId.share(parse_int(parts[1], "share index"))
            if v in shares:
                raise ValueError(f"duplicate share line for {v}")
            shares[v] = parse_ints(parts[2], f"share vector of {v}")
        return ShareBundle._trusted(header["fingerprint"], shares)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a codec hands them to every later call."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


class Codec:
    """A scheme's dealing maps, each read off one `field.solve_affine`.

    Made once per scheme object (`LinearScheme.codec`) and reused by every
    later `deal` and `reconstruct`; a scheme's blocks are read-only, so the
    maps cannot go stale.  `encoder`, made on the first deal, is (P, basis)
    for the joint secret columns: secret values b give the codewords
    b @ P + span(basis).  `shares` stacks every share block.
    `decoder(indices)` is (C, D) for the coalition of those sorted share
    indices: its share values `vals` come from some codeword iff
    vals @ C == 0 (mod q), and vals @ D are then the values of all the
    secrets.  The last DECODERS_KEPT coalitions asked are kept.  Every
    array is read-only.
    """

    def __init__(self, scheme: LinearScheme):
        self._scheme = scheme
        self.secrets, self.shares = _frozen(
            scheme.columns(scheme.secret_variables()),
            scheme.columns(scheme.share_variables()),
        )
        self.decoder = lru_cache(maxsize=DECODERS_KEPT)(self._decoder)

    @cached_property
    def encoder(self) -> tuple[np.ndarray, np.ndarray]:
        solve, checks, basis = field.solve_affine(self.secrets.T, self._scheme.q)
        if checks.shape[1]:
            raise ValueError(
                "the secrets' joint columns are linearly dependent, "
                "so some secret values have no codeword"
            )
        return _frozen(solve, basis)

    def _decoder(self, indices: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        q = self._scheme.q
        coalition = self._scheme.columns(map(VariableId.share, indices))
        solve, checks, _ = field.solve_affine(coalition.T, q)
        return _frozen(checks, solve @ self.secrets % q)


def _cut(words: list, scheme: LinearScheme, vs) -> dict:
    """The consecutive vectors of `vs`, each a tuple as wide as its block,
    that make up `words`."""
    out, at = {}, 0
    for v in vs:
        w = scheme.width(v)
        out[v] = tuple(words[at : at + w])
        at += w
    return out


def deal(scheme: LinearScheme, secrets: SecretAssignment, seed: int = 0) -> ShareBundle:
    """Sample a codeword with the given secret values and emit all shares.

    Raises ValueError for an assignment that does not fit the scheme, and
    for a scheme whose secrets' joint columns are dependent."""
    svars = scheme.secret_variables()
    if set(secrets.values) != set(svars):
        raise ValueError("assignment must cover every secret exactly once")
    b = []
    for v in svars:
        b.extend(_check_vector(secrets[v], scheme.width(v), scheme.q, str(v)))
    q, codec = scheme.q, scheme.codec
    encoder, basis = codec.encoder
    c = np.array(b, dtype=np.int64) @ encoder
    if len(basis):
        c += np.array(_field_elements(seed, q, len(basis)), dtype=np.int64) @ basis
    words = ((c % q) @ codec.shares % q).tolist()
    shares = _cut(words, scheme, scheme.share_variables())
    return ShareBundle._trusted(scheme.fingerprint, shares)


def reconstruct(scheme: LinearScheme, shares: ShareBundle, k: int = 1) -> SecretAssignment:
    """Recover the secrets of sub-arrays k..K from a qualified share set.

    Any codeword consistent with the provided shares determines those
    secrets, because the decodable condition puts their columns in the
    span of the coalition's columns.  Raises ReconstructionError for a
    wrong scheme, an unqualified set or inconsistent shares, and a plain
    ValueError for out-of-range input.
    """
    if shares.fingerprint != scheme.fingerprint:
        raise ReconstructionError("bundle fingerprint does not match scheme")
    if not 1 <= k <= scheme.sp.k_levels:
        raise ValueError("sub-array index out of range")
    avars = sorted(shares.shares)
    for v in avars:
        if v.index > scheme.sp.n_parties:
            raise ValueError(f"share index {v.index} out of range")
        _check_vector(shares[v], scheme.width(v), scheme.q, str(v))
    if len(avars) < scheme.sp.threshold(k):
        raise ReconstructionError("unqualified set")
    vals = []
    for v in avars:
        vals.extend(shares[v])
    q = scheme.q
    checks, decode = scheme.codec.decoder(tuple(v.index for v in avars))
    vals = np.array(vals, dtype=np.int64)
    if (vals @ checks % q).any():
        raise ReconstructionError("inconsistent shares")
    words = (vals @ decode % q).tolist()
    got = _cut(words, scheme, scheme.secret_variables())
    return SecretAssignment({v: vec for v, vec in got.items() if v.level >= k})


@dataclass(frozen=True, eq=False)
class CensusTable:
    """Exhaustive joint counts of (coalition share values, target values).

    Each (coalition values, target values) pair is stored as one combined
    code, the coalition values' base-q digits followed by the target's:
    `codes` is sorted and duplicate-free and `tallies[i]` counts the
    codewords that give `codes[i]`.  The codes of one coalition value
    therefore form a contiguous run.  `counts` decodes the arrays into
    nested dicts on first access.
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

    @cached_property
    def counts(self) -> dict:
        """Decoded view: a-values tuple -> {target-values tuple: count}."""
        a_rows, s_rows = (rows.tolist() for rows in self.digit_rows())
        out: dict = {}
        for a_vals, s_vals, c in zip(a_rows, s_rows, self.tallies.tolist()):
            out.setdefault(tuple(a_vals), {})[tuple(s_vals)] = c
        return out


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
    all q^k inner settings are tallied once into distinct codes.  The map
    is linear, so y(outer + inner) = y(outer) + y(inner) mod q: the codes
    of one outer setting are the inner codes with each digit shifted by
    that setting's y, and they carry the inner tallies.  Outer settings run
    in batches of about _CHUNK codes, and one sort merges every batch."""
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
    inner_digits = _digits(inner_codes, w, q).T
    batch = max(1, _CHUNK // len(inner_codes))
    outer = q ** (n - k)
    chunk_codes = []
    for start in range(0, outer, batch):
        settings = _digits(np.arange(start, min(start + batch, outer)), n - k, q)
        shift = settings @ cols[: n - k] % q
        combined = np.tile(inner_codes, (len(shift), 1))
        # Digit j becomes (d + s) mod q, so every partial sum is a code.
        for s, d, p in zip(shift.T[:, :, None], inner_digits, place):
            combined += np.where(d >= q - s, (s - q) * p, s * p)
        chunk_codes.append(combined.ravel())
    codes, where = np.unique(np.concatenate(chunk_codes), return_inverse=True)
    tallies = np.zeros(len(codes), dtype=np.int64)
    np.add.at(tallies, where, np.tile(inner_tallies, outer))
    return CensusTable(q, wa, ws, codes, tallies)
