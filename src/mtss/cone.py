"""Shannon-cone machinery for converse bounds.

Entropy vectors over the n = N + |T| scheme variables are indexed by subset
bitmasks (bit i = `StructurePair.variables[i]`, the canonical order:
secrets level by level, then shares).  The cone reads that order from the
structure alone, so it depends on `structure` and `simplex` and on no
scheme construction.  The polyhedral outer bound is the elemental Shannon
cone intersected with the scheme-condition hyperplanes.

Every converse question here is one exact LP: minimize a linear functional
of shares and secrets over that region (`_minimize`).  The ratio bounds and
the truncation checks differ only in the objective and in a few extra rows.
The LP is solved in symmetry-reduced coordinates: the region is invariant
under permuting shares and permuting same-threshold secrets, so averaging
an optimal point over the permutations that also keep the objective gives
a feasible, optimal point that is constant on subset orbits.  One variable
per orbit gives the same exact optimum at a fraction of the size.  One
generator gives the elemental and condition rows, straight in orbit ids.
The full-coordinate systems (`elemental_inequalities`, `system_constraints`,
`membership_system`), which serve `mtss lp --dump`, membership tests and
vector lifting, are that generator with every variable its own class: an
orbit id is then the subset's bitmask.

Phase 1 of the simplex reads no objective, and many LPs share a region:
sigma and tau of one (structure, security) have the same rows, and so do
sigma-avg and tau-avg.  So `_minimize` keeps each region's last optimal
basis in a process-wide memo keyed by (structure, security, extra rows,
class key of every variable), and solves a later LP over the region from
it with phase 2 alone.  A repeated LP makes no pivot and prices nothing:
the basis keeps its last objective row, and the value is read off it.
`_minimize` reads only each result's status and value, so no cone solve
makes its optimal point.  The memo is bounded by REGION_ENTRIES stored
tableau entries, least recently solved out first, not by a count of
regions: one region's tableau holds from tens to thousands of entries,
and a count small enough for the largest would not hold a whole table
sweep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from mtss import simplex
from mtss.structure import WEAK, RatioKind, ShareSecretBound, StructurePair
from mtss.structure import conditions, slot_map
from mtss.structure import bound_row  # noqa: F401 - kept only for bench/workloads.py
from mtss.structure import SIGMA, SIGMA_AVG, TAU

CAP_LIMIT = 8
# The region memo's bound, in stored tableau entries (about 4 MiB).
REGION_ENTRIES = 1 << 18


# --------------------------------------------------------------------------
# Rows and constraint systems


def _exact(v) -> int | Fraction:
    """A rational as an int when it is integral, else as a Fraction.  An
    int is returned as it is."""
    if type(v) is int:
        return v
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


@dataclass(frozen=True)
class Row:
    """A sparse linear row over subset coordinates: coeffs . h (=|>=) rhs.

    Keys are subset bitmasks.  Integral values are ints and the others
    Fractions, so the rows of the cone LP reach the simplex as ints.
    """

    tag: str
    coeffs: tuple
    equality: bool
    rhs: int | Fraction = 0

    @staticmethod
    def make(tag, coeffs: dict, equality: bool, rhs=0) -> "Row":
        kept = tuple(sorted((k, _exact(c)) for k, c in coeffs.items() if c != 0))
        return Row(tag, kept, equality, _exact(rhs))

    def evaluate(self, vector) -> Fraction:
        return sum((c * vector[k] for k, c in self.coeffs), Fraction(0))

    def holds_at(self, vector) -> bool:
        v = self.evaluate(vector)
        return v == self.rhs if self.equality else v >= self.rhs


@dataclass(frozen=True)
class ConstraintSystem:
    n_vars: int
    rows: tuple[Row, ...]

    def __len__(self):
        return len(self.rows)

    def dump(self) -> str:
        lines = []
        for r in self.rows:
            terms = " ".join(f"{k}:{c}" for k, c in r.coeffs)
            sense = "=" if r.equality else ">="
            lines.append(f"{r.tag} {terms} {sense} {r.rhs}")
        return "\n".join(lines) + ("\n" if lines else "")


def satisfies(vector, system: ConstraintSystem) -> bool:
    """Whether an entropy vector meets every row of the system exactly."""
    return all(r.holds_at(vector) for r in system.rows)


# --------------------------------------------------------------------------
# Entropy vectors


@dataclass(frozen=True)
class EntropyVector:
    """A full rational point of the subset-entropy space (h of every
    nonempty subset; the empty set is implicitly 0)."""

    n_vars: int
    coords: dict
    sp: StructurePair | None = None

    def __post_init__(self):
        want = set(range(1, 1 << self.n_vars))
        if set(self.coords) != want:
            raise ValueError("coordinate count must be 2^n_vars - 1")
        object.__setattr__(
            self, "coords", {k: Fraction(v) for k, v in self.coords.items()}
        )

    def __getitem__(self, mask: int) -> Fraction:
        if mask == 0:
            return Fraction(0)
        return self.coords[mask]

    @staticmethod
    def from_profile(profile) -> "EntropyVector":
        sp = profile.sp
        _variable_masks(sp)  # raises over the size cap
        # The cone's bit i and the profile's are both sp.variables[i].
        n = sp.n_parties + sp.n_secrets
        coords = {mask: Fraction(profile.rank(mask)) for mask in range(1, 1 << n)}
        return EntropyVector(n, coords, sp)

    def scale(self, c) -> "EntropyVector":
        c = Fraction(c)
        return EntropyVector(
            self.n_vars, {k: c * v for k, v in self.coords.items()}, self.sp
        )

    def __add__(self, other: "EntropyVector") -> "EntropyVector":
        if self.n_vars != other.n_vars or self.sp != other.sp:
            raise ValueError("mismatched entropy vectors")
        return EntropyVector(
            self.n_vars,
            {k: v + other.coords[k] for k, v in self.coords.items()},
            self.sp,
        )


# --------------------------------------------------------------------------
# Elemental inequalities and scheme-condition hyperplanes


def elemental_inequalities(n_vars: int) -> ConstraintSystem:
    """The reduced generating set of Shannon inequalities on n variables.

    One conditional-entropy row per variable and one conditional mutual
    information row per variable pair and conditioning subset:
    n + C(n,2) * 2^(n-2) rows in total, the rows of `_elemental_rows` over
    subset masks.  It takes no structure, so it checks the size cap itself.
    """
    if n_vars < 2:
        raise ValueError("need at least 2 variables")
    if n_vars > CAP_LIMIT:
        raise ValueError("n_vars over cap")
    rows = _elemental_rows(range(n_vars), {i: 1 << i for i in range(n_vars)})
    return ConstraintSystem(n_vars, tuple(Row.make("elemental", r, False) for r in rows))


def _variable_masks(sp: StructurePair):
    """(secret mask by slot, share mask by index).

    This is the cone's size-cap check for a structure: every system, vector
    and LP over the 2^n subsets of a structure's variables reads these masks
    first.
    """
    if sp.n_parties + sp.n_secrets > CAP_LIMIT:
        raise ValueError("size cap exceeded")
    secret = {slot: 1 << i for i, slot in enumerate(sp.secret_slots())}
    share = {i: 1 << (sp.n_secrets + i - 1) for i in range(1, sp.n_parties + 1)}
    return secret, share


def _condition_rows(sp: StructurePair, security: str, keys, place):
    """(tag, {orbit id: coefficient}) per condition of `structure.conditions`
    and coalition of its boundary size: h(S, P_A) - h(P_A) for C1, minus
    h(S) for C2, and minus the sum of the secrets' entropies for C0 and C3.

    `keys[i]` is the class key of `sp.variables[i]`.  A coalition
    stands for its count vector over the share classes: the canonical one
    holds the smallest shares of each class, and they go out in the order
    of `_canonical_subsets`.  A coefficient may be 0.
    """
    ns = sp.n_secrets
    shares = {}
    for i in range(1, sp.n_parties + 1):
        shares.setdefault(keys[ns + i - 1], []).append(i)
    coalitions = _canonical_subsets(shares, place)
    for tag, secrets, size in conditions(sp, security):
        parts = [place[keys[i]] for i in secrets]
        joint = sum(parts)
        if tag == "C1":
            minus = []
        elif tag == "C2":
            minus = [joint]
        else:
            minus = parts
        for count, pa in coalitions:
            if count == size:
                coeffs = {joint + pa: 1}
                for oid in (pa, *minus):
                    if oid:
                        coeffs[oid] = coeffs.get(oid, 0) - 1
                yield tag, coeffs


def system_constraints(sp: StructurePair, security: str) -> ConstraintSystem:
    """Equality hyperplanes a valid scheme's entropy vector must satisfy:
    the rows of `_condition_rows` over subset masks, coalitions in
    `combinations` order.  Empty and duplicate rows are dropped."""
    _variable_masks(sp)  # raises over the size cap
    n = sp.n_parties + sp.n_secrets
    place = {i: 1 << i for i in range(n)}
    seen = {}
    for tag, coeffs in _condition_rows(sp, security, range(n), place):
        row = Row.make(tag, coeffs, equality=True)
        if row.coeffs and row.coeffs not in seen:
            seen[row.coeffs] = row
    return ConstraintSystem(n, tuple(seen.values()))


# --------------------------------------------------------------------------
# The row generator and the cone LP (orbit-reduced)
#
# Each variable has a class key, and each class a place: a subset's orbit id
# is the sum of its variables' places.  The generator yields one row per
# orbit of rows, where that orbit's first full-coordinate row would go.
# `_minimize` gives its classes (kind, level, colour) mixed-radix places; the
# full-coordinate systems give variable i a class of its own at place 1 << i,
# so that an id is the subset's bitmask.


def _canonical_subsets(members, place):
    """(size, orbit id) of one subset per count vector over the classes in
    `members` (class key -> sorted positions): the smallest members of each
    class.  They come in (size, sorted members) order, which is the order in
    which each count vector first appears in `combinations` of the merged
    positions, size by size."""
    # Among subsets of one size, the lexicographically smaller one holds the
    # smallest position where the two differ, so it has the larger weight
    # sum(2^(top - x)), where top is the largest position.
    top = max((m[-1] for m in members.values() if m), default=0)
    out = [(0, 0, 0)]  # (size, -weight, orbit id)
    for key, m in members.items():
        steps = [
            (c, sum(1 << top - x for x in m[:c]), c * place[key])
            for c in range(len(m) + 1)
        ]
        out = [(s + c, w - dw, o + do) for s, w, o in out for c, dw, do in steps]
    out.sort()
    return [(size, oid) for size, _, oid in out]


def _elemental_rows(keys, place):
    """The elemental Shannon rows on len(keys) variables in orbit ids, one
    per orbit, as {orbit id: coefficient} dicts: H(X_i | rest) >= 0 per
    variable, then I(X_i; X_j | X_Z) >= 0 per pair and conditioning set.

    `keys[i]` is variable i's class key.  A conditional-entropy row stands
    for its class, in the order of the classes' first variables.  The mutual
    information rows of a class pair are those of its lexicographically
    first variable pair (i, j), one per count vector of the conditioning
    set over the other variables; pairs go in (i, j) order.
    """
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    omega = sum(place[k] * len(m) for k, m in classes.items())
    for key in classes:
        yield {omega: 1, omega - place[key]: -1}
    order = list(classes)
    pairs = []
    for a, ka in enumerate(order):
        m = classes[ka]
        if len(m) > 1:
            pairs.append(((m[0], m[1]), ka, ka))
        pairs += [((m[0], classes[kb][0]), ka, kb) for kb in order[a + 1 :]]
    for (i, j), ka, kb in sorted(pairs):
        rest = {k: [x for x in m if x != i and x != j] for k, m in classes.items()}
        pa, pb = place[ka], place[kb]
        for _, z in _canonical_subsets(rest, place):
            row = {z + pa: 1}
            row[z + pb] = row.get(z + pb, 0) + 1
            row[z + pa + pb] = -1
            if z:
                row[z] = -1
            yield row


class _Region:
    """A region key, the tuple (structure, security, extra rows, class
    keys), that hashes it once: a solve looks its region up and stores it
    again, and the frozen dataclasses in the tuple hash every field on
    each call."""

    __slots__ = ("parts", "hash")

    def __init__(self, parts: tuple):
        self.parts = parts
        self.hash = hash(parts)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.parts == other.parts


class _RegionMemo:
    """The last optimal basis of each cone-LP region, at most `limit`
    stored tableau entries in all; a store replaces the region's basis and
    makes it the newest, so the least recently solved region leaves first.
    A basis's size is its `entries`, which phase 1 counted once for every
    basis of the region (its tableau rows and the objective row a basis
    keeps), so a store sums no rows, and storing the basis a region
    already holds only makes it the newest.  A store takes a lock,
    so LPs may be solved from several threads."""

    def __init__(self, limit: int):
        self.limit = limit
        self.entries = 0
        self._bases: dict = {}  # in insertion order, oldest first
        self._lock = threading.Lock()

    def get(self, key) -> simplex.FeasibleBasis | None:
        return self._bases.get(key)

    def put(self, key, start: simplex.FeasibleBasis) -> None:
        size = start.entries
        if size > self.limit:
            return
        with self._lock:
            if key in self._bases:
                self.entries -= self._bases.pop(key).entries
            while self.entries + size > self.limit:
                self.entries -= self._bases.pop(next(iter(self._bases))).entries
            self._bases[key] = start
            self.entries += size


_REGIONS = _RegionMemo(REGION_ENTRIES)


def _minimize(sp: StructurePair, security: str, objective: dict, rows, colour) -> Fraction:
    """Exact minimum of objective . h over the outer region of `sp`, cut by
    the extra `rows`.

    `colour(v)` splits the variables of one kind and level into classes.
    The LP has one variable per orbit (a subset's count of variables in
    each class), and the objective and the extra rows are projected onto
    orbits, which replaces each by its mean over the permutations that
    keep every class.  Colour the variables so that the objective is
    invariant under those permutations.  A row stands for its whole orbit:
    a row on the first secret of a level holds for every secret of its
    class.  The elemental and condition rows come from the one generator
    (`_elemental_rows`, `_condition_rows`) with these classes, so the LP
    is the projection of the extra rows and `membership_system`,
    de-duplicated.  The places go to the classes in reverse sorted key
    order, which fixes the LP's columns.

    The region is fixed by (sp, security, rows, class keys), and every
    basis of a region is feasible whatever the objective, so the final
    basis of each solve is kept in a process-wide memo (`_REGIONS`) under
    that key.  A later LP over the region, such as tau after sigma, starts
    phase 2 at the last optimum: no rows are generated or assembled and no
    phase 1 runs, and the same LP again makes no pivot and reads its value
    off the objective row the basis keeps.  The value is the LP's optimum
    wherever phase 2 starts.  The memo keeps only the frozen bases, at
    most REGION_ENTRIES tableau entries in all (objective rows included),
    and drops the least recently solved region first.  The bound counts
    entries, not bases: one region's tableau holds from tens to thousands
    of entries (the same for each of its bases), and an LP may come back
    to its region long after the first solve (the bench's LP workloads
    draw sigma and tau of one region about half a run apart), so the memo
    must hold a whole sweep.  The 148 regions of the table's cells of up
    to 7 variables hold 122,452 entries.
    Callers read `_variable_masks` first, which checks the size cap.
    """
    n = sp.n_parties + sp.n_secrets
    keys = [(v.kind, v.level, colour(v)) for v in sp.variables]
    # An orbit's id is its class counts read as a mixed-radix number; the
    # empty subset's id 0 gets no column.
    place = {}
    n_ids = 1
    for key in sorted(set(keys), reverse=True):
        place[key] = n_ids
        n_ids *= keys.count(key) + 1
    bit_id = [place[key] for key in keys]

    def dense(terms) -> list:
        out = [0] * (n_ids - 1)
        for oid, c in terms:
            out[oid - 1] += c
        return out

    def project(coeffs) -> list:
        return dense(
            (sum(bit_id[i] for i in range(n) if mask >> i & 1), c) for mask, c in coeffs
        )

    region = _Region((sp, security, tuple(rows), tuple(keys)))
    start = _REGIONS.get(region)
    if start is not None:
        prog = simplex.LinearProgram.from_basis(start)
    else:
        prog = simplex.LinearProgram(n_ids - 1)
        seen = set()
        candidates = [(project(row.coeffs), row.equality, row.rhs) for row in rows]
        candidates += [(dense(r.items()), False, 0) for r in _elemental_rows(keys, place)]
        cond_rows = _condition_rows(sp, security, keys, place)
        candidates += [(dense(r.items()), True, 0) for _, r in cond_rows]
        for row, equality, rhs in candidates:
            key = (*row, equality, rhs)
            if any(row) and key not in seen:
                seen.add(key)
                add = prog.add_eq if equality else prog.add_ge
                add(row, rhs)
    prog.minimize(project(objective.items()))
    res = prog.solve()
    if res.status != simplex.OPTIMAL:  # pragma: no cover - region nonempty, objective bounded
        raise RuntimeError(f"cone LP came back {res.status}")
    if prog.start is not None:
        _REGIONS.put(region, prog.start)
    return res.value


def lower_bound_ratio(sp: StructurePair, kind: RatioKind) -> Fraction:
    """Exact LP lower bound for a ratio over the Shannon outer region.

    Normalizations: the min-normalized measures fix every per-secret
    entropy >= 1; the averaged measures fix the secret-entropy sum to the
    secret count.  The cone is scale-invariant, so both are without loss.
    The one-share objective projects to the mean share; the largest share
    is never smaller, and it equals the mean at the symmetric optimum, so
    sigma needs no max-share variable.
    """
    secret, share = _variable_masks(sp)
    if kind.measure in (SIGMA, SIGMA_AVG):
        objective = {share[1]: 1}
    else:
        objective = {sum(share.values()): 1}
        objective.update((m, -1) for m in secret.values())
    if kind.measure in (SIGMA, TAU):
        rows = [
            Row.make("norm", {secret[(k, 1)]: 1}, False, 1)
            for k in range(1, sp.k_levels + 1)
        ]
    else:
        rows = [Row.make("norm", dict.fromkeys(secret.values(), 1), True, sp.n_secrets)]
    return _minimize(sp, kind.security, objective, rows, lambda v: 0)


# --------------------------------------------------------------------------
# Extension (sub-structure to structure)


def membership_system(sp: StructurePair, security: str) -> ConstraintSystem:
    """Shannon cone plus scheme conditions, the outer region for a structure:
    the rows of `elemental_inequalities`, then those of `system_constraints`."""
    cs = system_constraints(sp, security)
    return ConstraintSystem(cs.n_vars, elemental_inequalities(cs.n_vars).rows + cs.rows)


def extend_vector(
    x: EntropyVector, target: StructurePair, security: str = WEAK
) -> EntropyVector:
    """Lift a vector of a sub-structure to the full structure.

    Added secrets contribute nothing: the value at a subset is the value at
    the subset with added secrets removed.  The input must lie in the
    sub-structure's outer region; the output then lies in the target's.
    """
    small = x.sp
    if small is None:
        raise ValueError("vector carries no structure")
    slots = slot_map(small, target)
    if slots is None:
        raise ValueError("subset relation fails")
    secret, share = _variable_masks(small)
    big_secret, big_share = _variable_masks(target)
    if not satisfies(x, membership_system(small, security)):
        raise ValueError("x fails small-structure membership")
    # The bit of `small` of each target bit; an added secret has none.
    back = {big_secret[b]: secret[s] for s, b in slots.items()}
    back.update((big_share[i], m) for i, m in share.items())
    n = target.n_parties + target.n_secrets
    coords = {m: x[sum(v for b, v in back.items() if m & b)] for m in range(1, 1 << n)}
    return EntropyVector(n, coords, target)


# --------------------------------------------------------------------------
# Truncation check


def _min_gap(bound: ShareSecretBound, sp: StructurePair, security: str) -> Fraction:
    """min(lhs - rhs) of the bound over the outer region, on the section
    h_Omega = 1 (scale-invariant, so the sign decides validity).

    Shares are coloured by their alpha and secrets by their beta, so the
    orbits keep every variable the bound tells apart.
    """
    secret, share = _variable_masks(sp)
    objective = {}
    if bound.alpha0:
        objective[sum(share.values())] = bound.alpha0
    for i, c in bound.alpha.items():
        if i not in share:
            raise ValueError(f"bound references missing share {i}")
        objective[share[i]] = c
    for slot, c in bound.beta.items():
        if slot not in secret:
            raise ValueError(f"bound references missing secret {slot}")
        objective[secret[slot]] = -c

    def colour(v):
        if v.kind == "share":
            return bound.alpha.get(v.index, 0)
        return bound.beta.get((v.level, v.index), 0)

    omega = (1 << (sp.n_parties + sp.n_secrets)) - 1
    section = Row.make("section", {omega: 1}, True, 1)
    return _minimize(sp, security, objective, [section], colour)


def check_truncation(
    bound: ShareSecretBound,
    small: StructurePair,
    big: StructurePair,
    security: str = WEAK,
) -> bool:
    """Whether dropping the removed secrets' terms keeps the bound valid.

    The bound must have nonnegative secret coefficients and be verified
    valid over the big structure's outer region first; the return value
    reports validity of the truncated row over the small structure's.
    """
    if any(c < 0 for c in bound.beta.values()):
        raise ValueError("negative secret coefficient")
    slots = slot_map(small, big)
    if slots is None:
        raise ValueError("subset relation fails")
    if _min_gap(bound, big, security) < 0:
        raise ValueError("bound fails big-structure feasibility")
    beta = {s: bound.beta[b] for s, b in slots.items() if b in bound.beta}
    trunc = ShareSecretBound(bound.alpha0, dict(bound.alpha), beta)
    return _min_gap(trunc, small, security) >= 0
