"""Rank-based scheme verification, exact ratio measurement, and bound audits.

For a linear scheme the joint entropy of any set of variables equals the
joint column rank of their blocks (base-q units), so the secrecy and
decodability conditions, the four ratio measures, and every converse bound
audited here reduce to integer rank queries against one memoized profile:
`LinearScheme.profile`, made once per scheme object and shared by
`check_conditions`, `ratios` and `audit_bounds`.  All three read positions
in `sp.variables`: `structure.conditions` names each condition's secrets by
position, so a query's mask is an OR of `1 << i` and a variable's width is
`scheme.widths[i]`, and no `VariableId` is looked up between the structure
and the rank table.  Variables are looked up only at the edges
(`RankProfile.mask`, `rank` of a variable set, `LinearScheme.width` and
`columns`), through the one `StructurePair.position`.

A scheme composed by `embed` and `combine` records its leaf constructions
and their placements in `LinearScheme.leaves`, which those two set once they
have checked that the composition keeps every condition, and which
`schemes._rebuild` keeps when it swaps the leaves for the same constructions
over another prime.  Its ranks are sums of its leaves' ranks and its
conditions follow from its leaves' reports, so only leaves (built directly,
read from text or copied) eliminate and scan coalitions, unless a leaf fails
and the composed scheme needs its own witness.

Each profile is the scheme's rank table (a `dict` from variable mask to
rank), filled only with the masks read; `rank`, the condition scans and the
audit all read it.  A leaf fills an entry with one `field.rank` of the
mask's columns, cut from the scheme's read-only matrix by its `cuts`.
Parts of a composition are independent and keep their shares, so a
composed scheme's entry is the sum of its leaves' entries, which each leaf
ranks once.  A profile keeps the structure, q and what it ranks from, and
no reference back to its scheme, so a checked scheme is freed by reference
counting.

The audit works by blocks, each two plain lists joined in one
comprehension per head: one rhs per share set and one lhs per head.  A
secret-size block is a level's pair gains I(P_a; P_b | rest) and its
secrets.  A row block is one `structure.bound_row` row at one level: its rhs
alpha0 h(every share) + c sum width(P_i) on each sorted share tuple, and the
lhs of each pick of one secret per level, the row's lhs plus one move
(beta_i1 - beta_ij)(w_ij - w_i1) per level.  The structure-only index lists
(pair masks and share tuples) are kept in two small bounded memos, each list
cut at the cap.  A check keeps a compact key and makes its params dict only
when it is read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby, islice, product
from math import comb
from operator import attrgetter, getitem

from mtss import field
from mtss.structure import MEASURES, STRONG, VariableId, bound_row, conditions

DEFAULT_AUDIT_CAP = 10000


def _bits(mask: int):
    """The indices of a mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RankProfile(dict):
    """Memoized joint column ranks of a scheme's variable blocks: a table
    from variable mask to rank.

    Doubles as the scheme's entropy vector: rank queries are monotone and
    submodular, with rk(empty) = 0.  A query is an int mask, bit i for
    `sp.variables[i]`, or a set of variables, which `mask` turns into one
    through `StructurePair.position` (an unknown variable raises its
    `KeyError`).  The profile itself maps a mask to its rank, filled on
    first read and kept; `rank`, the condition scans, `ratios` and the
    audit all read it by mask.  An entry is filled under the
    profile's lock, so audits may query one profile from several threads
    and each entry is made once.  A mask outside the scheme is refused
    (`ValueError`) and not kept.  `eliminations` counts the `field.rank`
    calls the profile made: one per entry a leaf fills, whoever read it
    first; a composed profile sums its leaves' entries and eliminates
    nothing.

    The profile keeps only what it ranks from: the scheme's structure `sp`
    and field order `q`, and a leaf's `matrix` and `cuts` (the scheme's own,
    not copies) or a composed scheme's leaf profiles; it holds no reference
    to the scheme, so a scheme and its profile are freed by reference
    counting.

    A composed scheme is answered through its `leaves`; only `embed`, `combine`
    and `schemes._rebuild` set them, so they are not checked here.  Each of
    its blocks is the block-diagonal stack of its leaves' blocks at the
    recorded indices (an empty one for a dummy), so each rank is the sum of
    the leaves' ranks of the same blocks, and the composed scheme's own
    matrix is never assembled.  A missing entry sums the leaves' entries
    of its mask's translations.  Shares come last in both variable orders
    and share i of a composed scheme is share i of each leaf (`embed` keeps
    its source's shares, `combine` stacks parts over one structure), so
    share bits move by a shift; each secret bit moves to its recorded
    index (to no bit for a dummy or a width-0 block).

    `reports` keeps `check_conditions`' reports by (security, exhaustive).
    """

    __slots__ = (
        "sp", "q", "eliminations", "reports", "_all", "_lock", "_leaves", "_matrix", "_cuts"
    )

    def __init__(self, scheme: LinearScheme):
        super().__init__({0: 0})
        sp = self.sp = scheme.sp
        self.q = scheme.q
        self.eliminations = 0
        self.reports: dict[tuple[str, bool], VerificationReport] = {}
        self._all = (1 << (sp.n_secrets + sp.n_parties)) - 1
        self._lock = threading.Lock()
        # (leaf profile, its secret count, per secret: its bit in the leaf);
        # empty for a leaf
        self._leaves = [
            (
                leaf.profile,
                leaf.sp.n_secrets,
                [1 << i if i >= 0 and leaf.widths[i] else 0 for i in index[: sp.n_secrets]],
            )
            for leaf, index in scheme.leaves
        ]
        if not self._leaves:
            self._matrix, self._cuts = scheme.matrix, scheme.cuts

    def __missing__(self, mask: int) -> int:
        if not 0 <= mask <= self._all:
            raise ValueError(f"mask {mask} is not a set of this scheme's variables")
        with self._lock:
            r = self.get(mask)
            if r is None:
                r = self[mask] = self._fill(mask)
            return r

    def mask(self, variables) -> int:
        """The int mask of a set of this scheme's variables."""
        return sum(1 << i for i in {self.sp.position(v) for v in variables})

    def rank(self, x) -> int:
        """Joint rank of a set of variables, or of their mask."""
        return self[x if isinstance(x, int) else self.mask(x)]

    def _fill(self, mask: int) -> int:
        """The rank of a mask not yet in the table: the sum of the leaves'
        entries, or an elimination of the mask's columns."""
        if self._leaves:
            ns = self.sp.n_secrets
            shares = mask >> ns
            set_bits = list(_bits(mask ^ (shares << ns)))
            r = 0
            for leaf, n_secrets, bits in self._leaves:
                m = shares << n_secrets
                for i in set_bits:
                    m |= bits[i]
                r += leaf[m]
            return r
        cuts = self._cuts
        picked = [c for i in _bits(mask) for c in range(cuts[i].start, cuts[i].stop)]
        if not picked:
            return 0
        self.eliminations += 1
        return field.rank(self._matrix.take(picked, axis=1), self.q)


# --------------------------------------------------------------------------
# Condition checks


@dataclass(frozen=True)
class Witness:
    """A concrete failing instance of one verification condition."""

    condition: str
    shares: tuple[int, ...]
    secrets: tuple[VariableId, ...]
    got: int
    want: int

    def __str__(self):
        a = "{" + ", ".join(f"P[{i}]" for i in self.shares) + "}"
        s = "{" + ", ".join(str(v) for v in self.secrets) + "}"
        return (
            f"{self.condition} fails at shares {a}, secrets {s}: "
            f"rank {self.got}, expected {self.want}"
        )


@dataclass(frozen=True)
class ConditionResult:
    ok: bool
    checks: int
    witness: Witness | None = None


@dataclass(frozen=True)
class VerificationReport:
    security: str
    independence: ConditionResult
    decodable: ConditionResult
    secure: ConditionResult

    @property
    def passed(self) -> bool:
        return self.independence.ok and self.decodable.ok and self.secure.ok


def _party_sets(n, sizes):
    for size in sizes:
        yield from combinations(range(1, n + 1), size)


_GROUP = {"C0": "independence", "C1": "decodable", "C2": "secure", "C3": "secure"}


def _coalition_sizes(tag: str, size: int, n: int, exhaustive: bool):
    """The coalition sizes checked for one condition of
    `structure.conditions`: every qualified size for C1; for the others its
    boundary size, or every size up to it when `exhaustive`."""
    if tag == "C1":
        return range(size, n + 1)
    return range(size + 1) if exhaustive else (size,)


def check_conditions(
    scheme: LinearScheme, security: str, exhaustive: bool = False
) -> VerificationReport:
    """Check independence, decodability, and the chosen secrecy condition.

    Each condition of `structure.conditions` is checked by rank, on the
    positions it names: its secrets' mask is an OR of their bits, and the
    C0/C3 term sums their `scheme.widths`; only a witness names its secrets
    as variables.
    Decodability is enumerated over every coalition of size >= t_k for every
    level k.  The secrecy condition is enumerated only over maximal
    unqualified coalitions (|A| = t_k - 1): for smaller A' subset of A, the
    leak I(S; P_A') is at most I(S; P_A) by submodularity of rank
    (rk(S|P_A') >= rk(S|P_A) while rk(S) is fixed), so zero leak at the
    maximal sets forces zero leak below.  `exhaustive=True` enumerates the
    smaller coalitions anyway.

    A composed scheme passes when each of its distinct `leaves`, asked
    once, passes the same check, and then no coalition is scanned; each
    group's `checks` counts the coalitions a scan would have checked.  It is
    the combination of its leaves, each embedded by its recorded placement.
    A combination's ranks are sums of its parts' ranks, and every instance
    is one-sided in every part: got >= want always holds for C1
    (monotonicity), got <= want for C0, C2 and C3 (rk(S u A) <= rk(A) +
    rk(S) <= rk(A) + width(S)), so the sum is an equality exactly when each
    part's is.  An embedding keeps
    thresholds, which strictly decrease across levels, so each of its
    condition instances is one of its leaf's, or one on larger qualified
    coalitions or fewer secrets (monotonicity), or one on smaller
    unqualified coalitions (submodularity, as above); a width-0 secret adds
    nothing.  `embed` and `combine` check these preconditions when they set
    `leaves`.  When a leaf fails, or the scheme is a leaf (built directly,
    read from text or copied with `dataclasses.replace`), every coalition is
    scanned, which finds the first failing instance as its witness.

    So `schemes.unify_field` checks only leaves, at weak security.  A leaf
    with one secret has one level, where C2 and C3 name the same instances:
    its t-1 shares against the one secret, and rk(S) = width(S) by the
    constructor's block check.  Its weak report is then its strong report
    but for the `security` label.

    The report is kept on the scheme's profile (`RankProfile.reports`), so
    the same check of the same scheme object is answered at no cost.
    """
    profile = scheme.profile
    key = (security, exhaustive)
    report = profile.reports.get(key)
    if report is not None:
        return report
    sp = scheme.sp
    n = sp.n_parties
    linked = bool(scheme.leaves) and all(
        check_conditions(leaf, security, exhaustive).passed
        for leaf in dict.fromkeys(leaf for leaf, _ in scheme.leaves)
    )
    # Shares come last in the variable order: share i is bit ns + i - 1.
    share_bit = [0] + [1 << i for i in range(sp.n_secrets, sp.n_secrets + n)]

    def scan(group, entries):
        if linked:
            checks = sum(
                comb(n, size)
                for tag, _, bound in entries
                for size in _coalition_sizes(tag, bound, n, exhaustive)
            )
            return ConditionResult(True, checks, None)
        checks = 0
        for tag, secrets, size in entries:
            sec = sum(1 << i for i in secrets)
            if tag == "C1":
                extra = 0
            elif tag == "C2":
                extra = profile[sec]
            else:
                extra = sum(scheme.widths[i] for i in secrets)
            for a_set in _party_sets(n, _coalition_sizes(tag, size, n, exhaustive)):
                checks += 1
                pa = 0
                for i in a_set:
                    pa |= share_bit[i]
                got = profile[sec | pa]
                want = profile[pa] + extra
                if got != want:
                    w = Witness(group, a_set, tuple(sp.variables[i] for i in secrets), got, want)
                    return ConditionResult(False, checks, w)
        return ConditionResult(True, checks, None)

    entries = conditions(sp, security)
    results = {
        group: scan(group, found)
        for group, found in groupby(entries, key=lambda e: _GROUP[e[0]])
    }
    return profile.reports.setdefault(key, VerificationReport(security, **results))


def render_report(report: VerificationReport) -> str:
    lines = [f"security: {report.security}"]
    for name in ("independence", "decodable", "secure"):
        r = getattr(report, name)
        state = "pass" if r.ok else "FAIL"
        lines.append(f"{name}: {state} ({r.checks} checks)")
        if r.witness is not None:
            lines.append(f"  witness: {r.witness}")
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Ratios


def format_rational(x: int | Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class RatioReport:
    sigma: Fraction | None
    sigma_avg: Fraction
    tau: Fraction | None
    tau_avg: Fraction

    def value(self, measure: str) -> Fraction | None:
        """The field named by a measure constant (`structure.MEASURES`)."""
        if measure not in MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
        return getattr(self, measure)


def ratios(scheme: LinearScheme, strict: bool = True) -> RatioReport:
    """Exact share-size and randomness ratios of a scheme.

    With `strict` (the default) any width-0 secret is an error: a
    dummy-embedded scheme must be measured against the structure it was
    built for.  `strict=False` computes the two averaged measures anyway
    (dummies count as length 0 over all secret slots) and leaves the
    min-normalized ones as None; this is what lets the averaged optima,
    which are genuinely attained by dummy embeddings, be measured at all.
    """
    n, n_secrets = scheme.sp.n_parties, scheme.sp.n_secrets
    secret_lengths, share_lengths = scheme.widths[:n_secrets], scheme.widths[n_secrets:]
    smallest = min(secret_lengths)
    total = sum(secret_lengths)
    if total == 0 or (strict and smallest == 0):
        raise ValueError("zero-length secret")
    profile = scheme.profile
    # Shares come last in the variable order.
    h_shares = profile.rank(((1 << n) - 1) << n_secrets)
    h_secrets = profile.rank((1 << n_secrets) - 1)
    extra = h_shares - h_secrets
    return RatioReport(
        sigma=Fraction(max(share_lengths), smallest) if smallest else None,
        sigma_avg=Fraction(sum(share_lengths) * n_secrets, n * total),
        tau=Fraction(extra, smallest) if smallest else None,
        tau_avg=Fraction(extra * n_secrets, total),
    )


# --------------------------------------------------------------------------
# Converse-bound audit


class BoundCheck:
    """One evaluated instance of a converse bound: holds iff lhs <= rhs.

    The audit stores each instance as a compact key; `params`, the dict
    that names the instance, is made from it on each read by the family's
    entry in `_PARAMS`.  Checks are read-only, compare by (bound, params,
    lhs, rhs) and print as a frozen dataclass of those four fields would.
    """

    __slots__ = ("_bound", "_key", "_lhs", "_rhs")

    def __init__(self, bound: str, key: tuple, lhs: int | Fraction, rhs: int | Fraction):
        self._bound = bound
        self._key = key
        self._lhs = lhs
        self._rhs = rhs

    bound = property(attrgetter("_bound"))
    lhs = property(attrgetter("_lhs"))
    rhs = property(attrgetter("_rhs"))

    @property
    def params(self) -> dict:
        return _PARAMS[self._bound](*self._key)

    @property
    def holds(self) -> bool:
        return self._lhs <= self._rhs

    @property
    def tight(self) -> bool:
        return self._lhs == self._rhs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._bound, self.params, self._lhs, self._rhs) == (
            other._bound, other.params, other._lhs, other._rhs
        )

    __hash__ = None  # params is a dict

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(bound={self._bound!r}, params={self.params!r}, "
            f"lhs={self._lhs!r}, rhs={self._rhs!r})"
        )


def render_check(check: BoundCheck) -> str:
    parts = [check.bound]
    for key, val in check.params.items():
        parts.append(f"{key}={val}")
    parts.append(f"lhs={format_rational(check.lhs)}")
    parts.append(f"rhs={format_rational(check.rhs)}")
    parts.append("ok" if check.holds else "VIOLATED")
    if check.tight:
        parts.append("tight")
    return " ".join(parts)


def _all_levels(kk, k):
    return range(1, kk + 1)


def _no_levels(kk, k):
    return ()


# The share/secret families of `structure.bound_row`, in audit order:
# (id, valid only under strong secrecy, one row per level k (else k = 1),
# levels whose secret is picked at k, params of a check at (k, picks, shares)).
_ROW_FAMILIES = (
    ("share-sum", True, False, _no_levels, lambda k, p, d: {"i": d[0]}),
    ("dtb", False, False, _all_levels,
     lambda k, p, d: {"j": tuple(p.values()), "i": d[0]}),
    ("tsdb", False, True, lambda kk, k: [i for i in range(1, kk + 1) if i != k],
     lambda k, p, d: {"k": k, "j": tuple(p.items()), "shares": d}),
    ("tpb", False, False, _no_levels, lambda k, p, d: {"shares": d}),
    ("avg-share", False, False, _no_levels, lambda k, p, d: {}),
    ("strong-randomness", True, False, _no_levels, lambda k, p, d: {}),
    ("tvb", False, False, _all_levels, lambda k, p, d: {"j": tuple(p.values())}),
    ("tsb", False, True, lambda kk, k: range(1, k),
     lambda k, p, d: {"k": k, "j": tuple(p.items())}),
)

# Every family's params, from a check's key: a row's is (k, picks, shares),
# secret-size's (k, j, (shares, a, b)) and extra-n3's (s, None, d).
_PARAMS = {
    "secret-size": lambda k, j, pair: {
        "k": k, "j": j, "shares": pair[0], "a": pair[1], "b": pair[2]
    },
    **{name: spec[-1] for name, *spec in _ROW_FAMILIES},
    "extra-n3": lambda s, _, d: {"s": s, "d": d},
}


def audit_bounds(
    scheme: LinearScheme,
    security: str,
    cap: int = DEFAULT_AUDIT_CAP,
) -> list[BoundCheck]:
    """Evaluate every converse bound applicable at the given security level.

    Instantiations sweep the level choice k, one secret index per sub-array,
    and sorted share tuples; each bound family stops after `cap` instances
    (canonical, lexicographically-first instantiations always come first).
    Every bound is symmetric in its shares, so permuted share tuples would
    only repeat a sorted one.  Every family but secret-size and extra-n3 is
    a `structure.bound_row` row.

    Every share rank comes from the profile (the scheme's rank table), which
    fills only the share sets read, so a composed scheme's audit sums
    its leaves' entries and eliminates nothing of its own.  A family is
    evaluated in blocks, each two plain lists: one rhs per share set, cut
    at what the cap leaves, and one lhs per head, and each head adds its
    checks on the rhs list in one comprehension.  The secret-size rhs
    I(P_a; P_b | the rest) does not depend on the secret, so a level's
    block lists its pair gains once and its heads are the level's secrets
    j, each with its width as lhs.  A row is asked of `bound_row` once per
    level k: its rhs on a share tuple d is alpha0 h(every share) + c sum
    width(P_i) over d, as every alpha of a row is one value c, and its heads
    are the picks of one secret j per level i, drawn in `product` order and
    only until the cap.  Secret j trading places with the level's first
    moves the lhs by (beta_i1 - beta_ij)(w_ij - w_i1), so a pick's lhs is
    the row's lhs plus one listed move per level.  A check keeps a compact
    key, and its `params` dict is made only when read.

    A strong scheme is also weakly secure, so a strong audit includes every
    weak bound; two bound families are valid only under strong secrecy and
    are skipped from weak audits.  A scheme that fails the security is
    refused with the first witness of its report.
    """
    if cap < 1:
        raise ValueError(f"audit cap must be at least 1, got {cap}")
    report = check_conditions(scheme, security)
    if not report.passed:
        first = next(
            r.witness for r in (report.independence, report.decodable, report.secure) if not r.ok
        )
        raise ValueError(f"precondition: scheme invalid: fails {security} security ({first})")
    sp = scheme.sp
    n = sp.n_parties
    kk = sp.k_levels
    count = sp.count
    # Shares come last in the variable order: share i is bit ns + i - 1.
    ns = sp.n_secrets
    w = dict(zip(sp.secret_slots(), scheme.widths))
    sw = scheme.widths[ns:]  # share i's width at i - 1
    h = scheme.profile
    h_all_shares = h[((1 << n) - 1) << ns]

    # secret-size: per level with t < N, its pair gains, and each secret j
    # with its width as lhs
    out = []
    for k in range(1, kk + 1):
        t = sp.threshold(k)
        if t >= n or len(out) == cap:
            continue
        masks = _pair_masks(n, ns, t, min(cap - len(out), comb(n, t + 1) * comb(t + 1, 2)))
        items = [(item, h[ra] + h[rb] - h[d] - h[rest]) for item, ra, rb, d, rest in masks]
        for j in range(1, count(k) + 1):
            lhs = w[k, j]
            out += [
                BoundCheck("secret-size", (k, j, item), lhs, r)
                for item, r in items[: cap - len(out)]
            ]

    for name, strong_only, per_level, pick_levels, _ in _ROW_FAMILIES:
        if strong_only and security != STRONG:
            continue
        checks = []
        for k in range(1, kk + 1 if per_level else 2):
            if len(checks) == cap:
                break
            row = bound_row(sp, name, k)
            size = len(row.alpha)
            c = row.alpha[1] if size else 0
            base = row.alpha0 * h_all_shares
            # the share tuples and their widths' sums, both in sorted order
            sets = _share_sets(n, size, min(cap - len(checks), comb(n, size)))
            items = [(d, base + c * x) for d, x in zip(sets, map(sum, combinations(sw, size)))]
            beta = row.beta
            levels = pick_levels(kk, k)
            lhs0 = sum(b * w[slot] for slot, b in beta.items())
            moves = []  # per picked level i, the lhs move of each pick j, at j
            for i in levels:
                b1, w1 = beta.get((i, 1), 0), w[i, 1]
                secrets = range(1, count(i) + 1)
                moves.append([0] + [(b1 - beta.get((i, j), 0)) * (w[i, j] - w1) for j in secrets])
            for js in product(*(range(1, count(i) + 1) for i in levels)):
                picks = dict(zip(levels, js))
                lhs = lhs0 + sum(map(getitem, moves, js))
                checks += [
                    BoundCheck(name, (k, picks, d), lhs, r) for d, r in items[: cap - len(checks)]
                ]
                if len(checks) == cap:
                    break
        out += checks

    # extra-n3: for N = 3 with a threshold-3 level of at least four secrets
    # and a threshold-2 level of at least three, the shares d with their
    # rhs, and the first four secrets s of the threshold-3 level with their
    # lhs
    levels = range(1, kk + 1) if n == 3 else ()
    lvl3 = next((i for i in levels if sp.threshold(i) == 3 and count(i) >= 4), None)
    lvl2 = next((i for i in levels if sp.threshold(i) == 2 and count(i) >= 3), None)
    if lvl3 is not None and lvl2 is not None:
        base = sum(w[lvl3, j] for j in range(1, 5)) + 2 * sum(w[lvl2, j] for j in range(1, 4))
        items = [(d, sum(sw) + sw[d - 1]) for d in (1, 2, 3)]
        checks = []
        for s in range(1, 5):
            checks += [
                BoundCheck("extra-n3", (s, None, d), w[lvl3, s] + base, r)
                for d, r in items[: cap - len(checks)]
            ]
        out += checks
    return out


@lru_cache(maxsize=64)
def _pair_masks(n: int, ns: int, t: int, limit: int) -> tuple:
    """The first `limit` secret-size items of a threshold-t level, for N = n
    and ns secrets: ((shares, a, b), then the masks of the rest of the
    shares with P_a, with P_b, all of them, and the rest alone) for every
    share set of size t + 1 and pair in it, in audit order."""
    out = []
    for dset in combinations(range(1, n + 1), t + 1):
        d = sum(1 << (ns + i - 1) for i in dset)
        for a, b in combinations(dset, 2):
            if len(out) == limit:
                return tuple(out)
            pa = 1 << (ns + a - 1)
            pb = 1 << (ns + b - 1)
            rest = d ^ pa ^ pb
            out.append(((dset, a, b), rest | pa, rest | pb, d, rest))
    return tuple(out)


@lru_cache(maxsize=64)
def _share_sets(n: int, size: int, limit: int) -> tuple:
    """The first `limit` sorted tuples of `size` of the shares 1..n."""
    return tuple(islice(combinations(range(1, n + 1), size), limit))
