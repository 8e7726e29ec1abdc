"""Access structures: threshold families and their optimal ratios.

A structure fixes N participants and an ordered family of sub-arrays
(t_k, m_k): m_k secrets that become readable to any coalition of at least
t_k participants.  Thresholds strictly decrease (t_1 > t_2 > ... >= 2), so a
larger coalition learns a longer suffix of the family.  Coalitions below a
secret's threshold must learn nothing about it — "weak" secrecy protects each
secret separately, "strong" secrecy protects the joint collection of all
still-hidden secrets.

This module is pure combinatorics/arithmetic: parsing and validation, the
canonical variable order (`VariableId`, `StructurePair.variables`) that
scheme blocks and the Shannon cone's subset bits both follow, the
sub-structure order, the share/secret converse-bound rows, the closed-form
optimal share-size and randomness ratios (where known), and the plan used to
build a share-size-optimal scheme under weak secrecy.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, lcm, prod

from mtss.simplex import LinearProgram, OPTIMAL

STRONG = "strong"
WEAK = "weak"
SECURITIES = (STRONG, WEAK)

SIGMA = "sigma"  # max share length / min secret length
SIGMA_AVG = "sigma_avg"  # avg share length / avg secret length
TAU = "tau"  # (total randomness - total secret length) / min secret length
TAU_AVG = "tau_avg"  # same numerator / avg secret length
MEASURES = (SIGMA, SIGMA_AVG, TAU, TAU_AVG)


@dataclass(frozen=True)
class SubArray:
    """m secrets sharing one reconstruction threshold t."""

    threshold: int
    count: int

    def __post_init__(self):
        if self.threshold < 2:
            raise ValueError("threshold out of range: must be >= 2")
        if self.count < 1:
            raise ValueError("sub-array needs at least one secret")


@dataclass(frozen=True, order=True)
class VariableId:
    """A secret slot S[k][j] or a share slot P[i] (all indices 1-based)."""

    kind: str  # "secret" | "share"
    level: int  # sub-array index for secrets, 0 for shares
    index: int

    def __post_init__(self):
        if self.kind not in ("secret", "share"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "share" and self.level != 0:
            raise ValueError("share variables carry no level")
        if self.index < 1 or (self.kind == "secret" and self.level < 1):
            raise ValueError("variable indices are 1-based")

    @staticmethod
    def secret(level: int, index: int) -> "VariableId":
        return VariableId("secret", level, index)

    @staticmethod
    def share(index: int) -> "VariableId":
        return VariableId("share", 0, index)

    def __str__(self):
        if self.kind == "secret":
            return f"S[{self.level},{self.index}]"
        return f"P[{self.index}]"


@dataclass(frozen=True)
class StructurePair:
    """N participants plus the ordered family of threshold sub-arrays."""

    n_parties: int
    arrays: tuple[SubArray, ...]

    def __post_init__(self):
        if self.n_parties < 2:
            raise ValueError("N too small: need at least 2 participants")
        if not self.arrays:
            raise ValueError("empty structure")
        object.__setattr__(self, "arrays", tuple(self.arrays))
        ts = [a.threshold for a in self.arrays]
        if any(a >= b for a, b in zip(ts[1:], ts)):
            raise ValueError("thresholds must strictly decrease across sub-arrays")
        if ts[0] > self.n_parties:
            raise ValueError("threshold out of range: exceeds participant count")

    # -- shorthand ---------------------------------------------------------
    @property
    def k_levels(self) -> int:
        return len(self.arrays)

    @cached_property
    def n_secrets(self) -> int:
        return sum(a.count for a in self.arrays)

    def threshold(self, k: int) -> int:
        """Threshold of sub-array k (1-based)."""
        return self.arrays[k - 1].threshold

    def count(self, k: int) -> int:
        """Number of secrets in sub-array k (1-based)."""
        return self.arrays[k - 1].count

    def secret_slots(self) -> tuple[tuple[int, int], ...]:
        """All (k, j) pairs in canonical order S_{1,1} .. S_{K,m_K}."""
        return self._secret_slots

    @cached_property
    def _secret_slots(self) -> tuple[tuple[int, int], ...]:
        # Made once per structure, outside the fields (as are `n_secrets`,
        # `variables` and `_positions`): equality, hash and repr read only
        # `n_parties` and `arrays`.
        return tuple(
            (k, j)
            for k in range(1, self.k_levels + 1)
            for j in range(1, self.count(k) + 1)
        )

    @cached_property
    def variables(self) -> tuple[VariableId, ...]:
        """Canonical variable order: S[1,1] .. S[K,m_K], then P[1] .. P[N].
        Scheme blocks, rank masks and the cone's subset bits all follow it."""
        secrets = [VariableId.secret(k, j) for k, j in self.secret_slots()]
        shares = [VariableId.share(i) for i in range(1, self.n_parties + 1)]
        return tuple(secrets + shares)

    def position(self, v: VariableId) -> int:
        """The index of `v` in `variables`: the one variable lookup, which
        refuses a variable of another structure with
        `KeyError("unknown variable v")`."""
        try:
            return self._positions[v]
        except KeyError:
            raise KeyError(f"unknown variable {v}") from None

    @cached_property
    def _positions(self) -> dict[VariableId, int]:
        return {v: i for i, v in enumerate(self.variables)}

    def __str__(self):
        return f"(N={self.n_parties}, T={format_thresholds(self)})"


def structure(n_parties: int, arrays) -> StructurePair:
    """Build a StructurePair from [(t, m), ...] pairs."""
    return StructurePair(n_parties, tuple(SubArray(t, m) for t, m in arrays))


_INT_ITEM = re.compile(r"[+-]?[0-9]+")
# The same items, each with the blanks around it, joined by commas.
_INT_LIST = re.compile(r"\s*[+-]?[0-9]+\s*(?:,\s*[+-]?[0-9]+\s*)*")


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Read a comma-separated int list, e.g. "1,2,3"; "" or "-" is empty.
    Every list in scheme files, bundle files and CLI flags uses this grammar:
    each item, blanks around it stripped, is ASCII `[+-]?[0-9]+`; anything
    else (an empty item, `3_0`, a non-ASCII digit) raises ValueError."""
    if text.strip() in ("", "-"):
        return ()
    if not _INT_LIST.fullmatch(text):
        raise ValueError(f"bad {what} {text!r}")
    return tuple(map(int, map(str.strip, text.split(","))))


def parse_int(text: str, what: str) -> int:
    """Read one integer in the item grammar of `parse_ints`."""
    if not _INT_ITEM.fullmatch(text.strip()):
        raise ValueError(f"bad {what} {text!r}")
    return int(text)


def format_ints(values) -> str:
    """Inverse of parse_ints: "1,2,3", or "-" for no values."""
    return ",".join(map(str, values)) or "-"


def read_records(text: str, magic: str, keys, what: str):
    """Read a record file: a magic line, one header line per key, a body.

    Blank lines are skipped.  The header lines `key value ...` come right
    after the magic line, in any order, each key exactly once.  Returns the
    header values by key (the rest of the line) and the body lines as token
    lists.  `what` names the file kind in error messages.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != magic:
        raise ValueError(f"not a {what} file")
    records = [ln.split() for ln in lines[1:]]
    header = {}
    for tokens in records[: len(keys)]:
        key, *value = tokens
        if key not in keys or key in header or not value:
            raise ValueError(f"malformed {what} header: bad line {' '.join(tokens)!r}")
        header[key] = " ".join(value)
    if len(header) < len(keys):
        raise ValueError(f"malformed {what} header: expected {', '.join(keys)}")
    return header, records[len(keys) :]


def parse_thresholds(n_parties: int, text: str) -> StructurePair:
    """Parse the flat threshold encoding, e.g. "3,3,2" -> [(3,2),(2,1)].

    The text lists one threshold per secret, non-increasing; equal runs merge
    into one sub-array.
    """
    values = parse_ints(text, "threshold list")
    if not values:
        raise ValueError("empty structure")
    if any(b > a for a, b in zip(values, values[1:])):
        raise ValueError("thresholds must be non-increasing")
    arrays = [(t, len(list(run))) for t, run in itertools.groupby(values)]
    return structure(n_parties, arrays)


def format_thresholds(sp: StructurePair) -> str:
    """Inverse of parse_thresholds: "3,3,2" style flat list."""
    return format_ints([a.threshold for a in sp.arrays for _ in range(a.count)])


def slot_map(small: StructurePair, big: StructurePair) -> dict | None:
    """Each secret slot (k, j) of `small` mapped to its slot in `big`, or
    None when `small` is not a sub-structure of `big`.

    A sub-structure keeps the same participants and drops only secrets:
    every sub-array of `small` appears in `big` with the same threshold and
    at least as many secrets.  Levels match by threshold; secrets keep
    their index.
    """
    if small.n_parties != big.n_parties:
        return None
    level_of = {a.threshold: k for k, a in enumerate(big.arrays, 1)}
    slots = {}
    for k, j in small.secret_slots():
        kk = level_of.get(small.threshold(k))
        if kk is None or j > big.count(kk):
            return None
        slots[(k, j)] = (kk, j)
    return slots


def subset_of(small: StructurePair, big: StructurePair) -> bool:
    """True when `small` is a sub-structure of `big` (see `slot_map`)."""
    return slot_map(small, big) is not None


def conditions(sp: StructurePair, security: str):
    """The scheme conditions as (tag, secret positions, boundary coalition
    size), where a secret's position is its index in `sp.variables` (secret
    i is `sp.secret_slots()[i]`), so rank masks and subset bits read it
    with no variable lookup.

    C0: the secrets are independent (the empty coalition).
    C1: every t_k shares decode the level-k suffix of secrets.
    C2 (strong): t_k - 1 shares learn nothing about the level-k prefix.
    C3 (weak): t - 1 shares learn nothing about each secret of threshold t.
    Only boundary sizes are listed: larger qualified and smaller unqualified
    coalitions follow by monotonicity and submodularity of entropy.
    """
    if security not in SECURITIES:
        raise ValueError(f"unknown security level {security!r}")
    level_of = [k for k, _ in sp.secret_slots()]  # by secret position
    yield "C0", list(range(len(level_of))), 0
    for k in range(1, sp.k_levels + 1):
        yield "C1", [i for i, lv in enumerate(level_of) if lv >= k], sp.threshold(k)
    if security == STRONG:
        for k in range(1, sp.k_levels + 1):
            yield "C2", [i for i, lv in enumerate(level_of) if lv <= k], sp.threshold(k) - 1
    else:
        for i, k in enumerate(level_of):
            yield "C3", [i], sp.threshold(k) - 1


def randomness_break_index(sp: StructurePair) -> int:
    """Largest prefix of sub-arrays that still forces extra randomness.

    Equals one less than the first sub-array holding more secrets than its
    threshold, or K when no sub-array does.
    """
    for k in range(1, sp.k_levels + 1):
        if sp.count(k) > sp.threshold(k):
            return k - 1
    return sp.k_levels


# --------------------------------------------------------------------------
# share/secret converse bounds


@dataclass(frozen=True)
class ShareSecretBound:
    """A bound row alpha0*h_{P_all} + sum alpha_i h_{P_i} >= sum beta_j h_{S_j}.

    Coefficients are rationals; `bound_row` gives integers, which keeps the
    audit's arithmetic on ints.
    """

    alpha0: int | Fraction
    alpha: dict  # share index -> coefficient
    beta: dict  # secret slot (level, j) -> coefficient


def bound_row(sp: StructurePair, name: str, k: int = 1) -> ShareSecretBound:
    """A named bound on the first shares and, on each level, the first
    secret.  Every secret of a level has the same place in the structure, so
    the row with secret j of level i in place of the first is this row with
    the two secrets' coefficients swapped; `verify.audit_bounds` reads it so.

    share-sum and strong-randomness hold under strong secrecy only; the
    others under weak secrecy too.  Only tsdb and tsb depend on the level k.
    Every alpha of a row is one value, and each call builds only its own
    family's coefficients.
    """
    kk = sp.k_levels
    if not 1 <= k <= kk:
        raise ValueError("level out of range")
    t = sp.threshold
    if name == "share-sum":
        return ShareSecretBound(0, {1: 1}, dict.fromkeys(sp.secret_slots(), 1))
    if name == "dtb":
        return ShareSecretBound(0, {1: 1}, {(i, 1): 1 for i in range(1, kk + 1)})
    if name in ("tsdb", "tsb"):
        # the first secret of each level before k, then every secret from k
        slots = sp.secret_slots()
        suffix = dict.fromkeys(slots[bisect_left(slots, (k, 1)) :], 1)
        if name == "tsb":
            return ShareSecretBound(1, {}, {(i, 1): t(i) for i in range(1, k)} | suffix)
        tk = t(k)
        beta = {(i, 1): tk for i in range(1, k)} | suffix
        for i in range(k + 1, kk + 1):
            beta[(i, 1)] += tk - t(i)
        return ShareSecretBound(0, dict.fromkeys(range(1, tk + 1), 1), beta)
    if name == "tpb":
        p = prod(a.threshold for a in sp.arrays)
        beta = {(i, j): p // t(i) for i, j in sp.secret_slots()}
        return ShareSecretBound(0, dict.fromkeys(range(1, t(1) + 1), p // t(1)), beta)
    if name == "avg-share":
        a_max = max(min(a.threshold, a.count) for a in sp.arrays)
        alpha = dict.fromkeys(range(1, sp.n_parties + 1), a_max)
        return ShareSecretBound(0, alpha, dict.fromkeys(sp.secret_slots(), sp.n_parties))
    if name == "strong-randomness":
        return ShareSecretBound(1, {}, {(i, j): t(i) for i, j in sp.secret_slots()})
    if name == "tvb":
        return ShareSecretBound(1, {}, {(i, 1): t(i) for i in range(1, kk + 1)})
    raise ValueError(f"unknown bound {name!r}")


# --------------------------------------------------------------------------
# ratio kinds and optimal values


@dataclass(frozen=True)
class RatioKind:
    measure: str
    security: str

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.security not in SECURITIES:
            raise ValueError(f"unknown security level {self.security!r}")

    def __str__(self):
        return f"{self.measure}/{self.security}"


EXACT = "exact"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class OptimalValue:
    """Either an exactly known optimum, or best known two-sided bounds."""

    status: str
    value: Fraction | None
    lower: Fraction
    upper: Fraction | None

    @staticmethod
    def exact(v) -> "OptimalValue":
        v = Fraction(v)
        return OptimalValue(EXACT, v, v, v)

    @staticmethod
    def unknown(lower, upper) -> "OptimalValue":
        lower, upper = Fraction(lower), Fraction(upper)
        if upper < lower:
            raise ValueError("bracket is empty")
        return OptimalValue(UNKNOWN, None, lower, upper)


def _overfull(sp):
    return [k for k in range(1, sp.k_levels + 1) if sp.count(k) > sp.threshold(k)]


def _weak_sigma_lower(sp: StructurePair) -> Fraction:
    """Best closed-form lower bound for sigma under weak secrecy: the
    largest sum(beta) / sum(alpha) of the dtb, tpb and tsdb rows, each
    read with every share and secret length equal to its maximum share and
    minimum secret length."""
    rows = [bound_row(sp, "dtb"), bound_row(sp, "tpb")]
    rows += [bound_row(sp, "tsdb", k) for k in range(1, sp.k_levels + 1)]
    return max(Fraction(sum(r.beta.values()), sum(r.alpha.values())) for r in rows)


def optimal_ratio(sp: StructurePair, kind: RatioKind) -> OptimalValue:
    """Optimal ratio of `kind` for the structure, exactly when known.

    All four strong-secrecy measures and the weak average measures have
    closed forms for every structure.  Weak sigma is exact unless at least
    two sub-arrays are overfull (more secrets than their threshold) while
    another is strictly underfull; in that open case a bracket is returned:
    the closed-form converse below, the best constructive combination above.
    A bracket whose two ends meet is the exact optimum.
    """
    kk = sp.k_levels
    total = sp.n_secrets
    if kind.security == STRONG:
        if kind.measure in (SIGMA, SIGMA_AVG):
            return OptimalValue.exact(total)
        if kind.measure == TAU:
            return OptimalValue.exact(
                sum(a.count * (a.threshold - 1) for a in sp.arrays)
            )
        return OptimalValue.exact(total * (sp.threshold(kk) - 1))

    if kind.measure == SIGMA_AVG:
        widest = max(min(a.threshold, a.count) for a in sp.arrays)
        return OptimalValue.exact(Fraction(total, widest))
    if kind.measure == TAU_AVG:
        slack = min(
            Fraction(a.threshold - a.count, a.count) for a in sp.arrays
        )
        return OptimalValue.exact(total * max(slack, Fraction(0)))
    if kind.measure == TAU:
        b = randomness_break_index(sp)
        return OptimalValue.exact(
            sum(sp.threshold(i) - sp.count(i) for i in range(1, b + 1))
        )

    # weak sigma
    over = _overfull(sp)
    if not over:
        return OptimalValue.exact(kk)
    if all(a.count >= a.threshold for a in sp.arrays):
        return OptimalValue.exact(
            sum(Fraction(a.count, a.threshold) for a in sp.arrays)
        )
    if len(over) == 1:
        k = over[0]
        tk = sp.threshold(k)
        extra = sum(sp.count(i) - sp.threshold(i) for i in range(k + 1, kk + 1))
        return OptimalValue.exact(
            max(Fraction(kk), kk - 1 + Fraction(sp.count(k) + extra, tk))
        )
    value, _ = weak_sigma_plan(sp)
    lower = _weak_sigma_lower(sp)
    if lower == value:
        return OptimalValue.exact(value)
    return OptimalValue.unknown(lower, value)


# --------------------------------------------------------------------------
# construction plan for weak-secrecy sigma
#
# Build material per sub-array comes in three interchangeable pattern blocks;
# a linear program picks nonnegative multiplicities that equalise all secret
# lengths while minimising the (common) share length:
#
#   window(i)     one t_i-row Vandermonde block covering all m_i <= t_i
#                 secrets of sub-array i: +1 to each of its secrets, +1 to
#                 every share.
#   ensemble(i)   for an overfull sub-array (m_i > t_i): one copy of the
#                 t_i-row block for *each* t_i-subset of its secrets;
#                 +C(m_i-1, t_i-1) to each secret, +C(m_i, t_i) per share.
#   bridge(k, i)  a two-sub-array block pairing overfull k with strictly
#                 underfull i > k: +(t_i - m_i) to each level-k secret,
#                 +(m_k - t_k) to each level-i secret, and the sum of the
#                 two to every share.
#
# Every resolved closed form above is met exactly by the LP optimum; for the
# open bracket the LP value is the best constructive upper bound this
# package knows.


@dataclass(frozen=True)
class PlanPart:
    kind: str  # "window" | "ensemble" | "bridge"
    level: int  # sub-array index (for bridge: the overfull side k)
    other: int | None  # bridge only: the underfull side i
    multiplicity: int


def weak_sigma_plan(sp: StructurePair) -> tuple[Fraction, list[PlanPart]]:
    """(achievable sigma, integer-multiplicity part list) for weak secrecy."""
    kk = sp.k_levels
    over = _overfull(sp)
    under = [
        i for i in range(1, kk + 1) if sp.count(i) < sp.threshold(i)
    ]
    patterns: list[tuple[str, int, int | None, dict[int, int], int]] = []
    for i in range(1, kk + 1):
        if i in over:
            sec = comb(sp.count(i) - 1, sp.threshold(i) - 1)
            patterns.append(("ensemble", i, None, {i: sec}, comb(sp.count(i), sp.threshold(i))))
        else:
            patterns.append(("window", i, None, {i: 1}, 1))
    for k in over:
        for i in under:
            if i > k:
                gain_k = sp.threshold(i) - sp.count(i)
                gain_i = sp.count(k) - sp.threshold(k)
                patterns.append(("bridge", k, i, {k: gain_k, i: gain_i}, gain_k + gain_i))

    lp = LinearProgram(len(patterns))
    lp.minimize([p[4] for p in patterns])
    for level in range(1, kk + 1):
        lp.add_eq({j: p[3].get(level, 0) for j, p in enumerate(patterns)}, 1)
    res = lp.solve()
    if res.status != OPTIMAL:  # pragma: no cover - the windows alone are feasible
        raise RuntimeError(f"construction plan LP came back {res.status}")

    scale = lcm(*(x.denominator for x in res.x))
    parts = [
        PlanPart(p[0], p[1], p[2], int(x * scale))
        for p, x in zip(patterns, res.x)
        if x > 0
    ]
    return res.value, parts
