"""Shannon-cone machinery for converse bounds.

Entropy vectors over the n = N + |T| scheme variables are indexed by subset
bitmasks (bit i = the i-th variable in canonical order: secrets level by
level, then shares).  The polyhedral outer bound is the elemental Shannon
cone intersected with the scheme-condition hyperplanes.

Every converse question here is one exact LP: minimize a linear functional
of shares and secrets over that region (`_minimize`).  The ratio bounds and
the truncation checks differ only in the objective and in a few extra rows.
The LP is solved in symmetry-reduced coordinates: the region is invariant
under permuting shares and permuting same-threshold secrets, so averaging
an optimal point over the permutations that also keep the objective gives
a feasible, optimal point that is constant on subset orbits.  One variable
per orbit gives the same exact optimum at a fraction of the size.  The LP's
elemental and condition rows are generated per orbit, straight in orbit
coordinates.  The full-coordinate systems (`elemental_inequalities`,
`system_constraints`, `membership_system`) serve `mtss lp --dump`,
membership tests and vector lifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from mtss import simplex
from mtss.schemes import scheme_variables
from mtss.structure import WEAK, RatioKind, StructurePair, conditions, slot_map
from mtss.structure import ShareSecretBound, bound_row  # noqa: F401 - re-exported
from mtss.structure import SIGMA, SIGMA_AVG, TAU

CAP_LIMIT = 8


def mask_of(sp: StructurePair, vs) -> int:
    pos = {v: i for i, v in enumerate(scheme_variables(sp))}
    mask = 0
    for v in vs:
        mask |= 1 << pos[v]
    return mask


# --------------------------------------------------------------------------
# Rows and constraint systems


def _exact(v) -> int | Fraction:
    """A rational as an int when it is integral, else as a Fraction."""
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

    def merged(self, other: "ConstraintSystem") -> "ConstraintSystem":
        if other.n_vars != self.n_vars:
            raise ValueError("mismatched variable counts")
        return ConstraintSystem(self.n_vars, self.rows + other.rows)

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
        sp = profile.scheme.sp
        _variable_masks(sp)  # raises over the size cap
        # The cone's bit i and the profile's are both scheme_variables(sp)[i].
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


@lru_cache(maxsize=CAP_LIMIT - 1)
def elemental_inequalities(n_vars: int) -> ConstraintSystem:
    """The reduced generating set of Shannon inequalities on n variables.

    One conditional-entropy row per variable and one conditional mutual
    information row per variable pair and conditioning subset:
    n + C(n,2) * 2^(n-2) rows in total.  The system is immutable, so one
    is kept per n.
    """
    if n_vars < 2:
        raise ValueError("need at least 2 variables")
    if n_vars > CAP_LIMIT:
        raise ValueError("n_vars over cap")
    omega = (1 << n_vars) - 1
    rows = []
    for i in range(n_vars):
        rows.append(
            Row.make("elemental", {omega: 1, omega ^ (1 << i): -1}, equality=False)
        )
    for i, j in combinations(range(n_vars), 2):
        bi, bj = 1 << i, 1 << j
        others = [b for b in range(n_vars) if b not in (i, j)]
        for r in range(len(others) + 1):
            for zbits in combinations(others, r):
                z = sum(1 << b for b in zbits)
                coeffs = {bi | z: 1, bj | z: 1, bi | bj | z: -1}
                if z:
                    coeffs[z] = -1
                rows.append(Row.make("elemental", coeffs, equality=False))
    return ConstraintSystem(n_vars, tuple(rows))


def _variable_masks(sp: StructurePair):
    """(secret mask by slot, share mask by index).

    This is the cone's one size-cap check: every system, vector and LP over
    the 2^n subsets of a structure's variables reads these masks first.
    """
    if sp.n_parties + sp.n_secrets > CAP_LIMIT:
        raise ValueError("size cap exceeded")
    order = scheme_variables(sp)
    secret = {}
    share = {}
    for i, v in enumerate(order):
        if v.kind == "secret":
            secret[(v.level, v.index)] = 1 << i
        else:
            share[v.index] = 1 << i
    return secret, share


def _condition_rows(sp: StructurePair, security: str, secret, coalitions):
    """(tag, {id: coefficient}) per condition of `structure.conditions` and
    coalition of its boundary size: h(S, P_A) - h(P_A) for C1, minus h(S)
    for C2, and minus the sum of the secrets' entropies for C0 and C3.

    Ids add up over disjoint variable sets: subset masks, or orbit ids.
    `secret` gives each secret slot's id and `coalitions` lists the
    (size, id) of the share coalitions in the order the rows go out.  A
    coefficient may be 0.
    """
    for tag, slots, size in conditions(sp, security):
        joint = sum(secret[slot] for slot in slots)
        if tag == "C1":
            minus = []
        elif tag == "C2":
            minus = [joint]
        else:
            minus = [secret[slot] for slot in slots]
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
    `combinations` order.  Duplicate rows are dropped."""
    secret, share = _variable_masks(sp)
    coalitions = [
        (size, sum(share[i] for i in a_set))
        for size in range(sp.n_parties + 1)
        for a_set in combinations(range(1, sp.n_parties + 1), size)
    ]
    seen = {}
    for tag, coeffs in _condition_rows(sp, security, secret, coalitions):
        row = Row.make(tag, coeffs, equality=True)
        if row.coeffs and row.coeffs not in seen:
            seen[row.coeffs] = row
    return ConstraintSystem(sp.n_parties + sp.n_secrets, tuple(seen.values()))


# --------------------------------------------------------------------------
# The cone LP (orbit-reduced)
#
# Each variable has a class key (kind, level, colour), and a class a place in
# the mixed-radix orbit id: a subset's id is the sum of its variables' places.
# The LP's rows come straight in orbit ids, one row per orbit of rows, in
# the order in which each orbit's first full-coordinate row appears in
# `elemental_inequalities` and `system_constraints`.


def _canonical_subsets(members, place):
    """(size, orbit id) of one subset per count vector over the classes in
    `members` (class key -> sorted positions below CAP_LIMIT): the smallest
    members of each class.  They come in (size, sorted members) order, which
    is the order in which each count vector first appears in `combinations`
    of the merged positions, size by size."""
    # Among subsets of one size, the lexicographically smaller one holds the
    # smallest position where the two differ, so it has the larger weight
    # sum(2^(CAP_LIMIT - x)).
    out = [(0, 0, 0)]  # (size, -weight, orbit id)
    for key, m in members.items():
        steps = [
            (c, sum(1 << CAP_LIMIT - x for x in m[:c]), c * place[key])
            for c in range(len(m) + 1)
        ]
        out = [(s + c, w - dw, o + do) for s, w, o in out for c, dw, do in steps]
    out.sort()
    return [(size, oid) for size, _, oid in out]


def _elemental_rows(keys, place):
    """The rows of `elemental_inequalities(len(keys))` in orbit ids, one per
    orbit, as {orbit id: coefficient} dicts.

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
    class.  The elemental and condition rows are generated per orbit, in
    the order of their first projected appearance, so the LP is the
    projection of the extra rows, `elemental_inequalities` and
    `system_constraints`, de-duplicated.
    Callers read `_variable_masks` first, which checks the size cap.
    """
    n = sp.n_parties + sp.n_secrets
    keys = [(v.kind, v.level, colour(v)) for v in scheme_variables(sp)]
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

    prog = simplex.LinearProgram(n_ids - 1)
    prog.minimize(project(objective.items()))
    seen = set()
    candidates = [(project(row.coeffs), row.equality, row.rhs) for row in rows]
    candidates += [(dense(r.items()), False, 0) for r in _elemental_rows(keys, place)]
    # Per condition, a coalition stands for its count vector over the share
    # classes: the canonical one holds the smallest shares of each class.
    secret, shares = {}, {}
    for v, key in zip(scheme_variables(sp), keys):
        if v.kind == "secret":
            secret[(v.level, v.index)] = place[key]
        else:
            shares.setdefault(key, []).append(v.index)
    coalitions = _canonical_subsets(shares, place)
    candidates += [
        (dense(r.items()), True, 0)
        for _, r in _condition_rows(sp, security, secret, coalitions)
    ]
    for row, equality, rhs in candidates:
        key = (*row, equality, rhs)
        if any(row) and key not in seen:
            seen.add(key)
            add = prog.add_eq if equality else prog.add_ge
            add(row, rhs)
    res = prog.solve()
    if res.status != simplex.OPTIMAL:  # pragma: no cover - region nonempty, objective bounded
        raise RuntimeError(f"cone LP came back {res.status}")
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
# Extension and restriction (structure vs sub-structure)


def membership_system(sp: StructurePair, security: str) -> ConstraintSystem:
    """Shannon cone plus scheme conditions: the outer region for a structure."""
    system = system_constraints(sp, security)
    return elemental_inequalities(system.n_vars).merged(system)


def _slot_bits(small: StructurePair, big: StructurePair) -> list[int]:
    """The bit in `big` of each variable bit of its sub-structure `small`:
    secrets placed by `slot_map`, shares by index."""
    slots = slot_map(small, big)
    if slots is None:
        raise ValueError("subset relation fails")
    secret, share = _variable_masks(small)
    big_secret, big_share = _variable_masks(big)
    to_big = {secret[s]: big_secret[b] for s, b in slots.items()}
    to_big.update((share[i], big_share[i]) for i in share)
    return [to_big[1 << i] for i in range(len(to_big))]


def _carry(mask: int, bits) -> int:
    """The union of bits[i] over the set bits i of `mask`."""
    out = 0
    for i, b in enumerate(bits):
        if mask >> i & 1:
            out |= b
    return out


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
    bits = _slot_bits(small, target)
    if not satisfies(x, membership_system(small, security)):
        raise ValueError("x fails small-structure membership")
    back = [0] * (target.n_parties + target.n_secrets)  # 0 for an added secret
    for i, b in enumerate(bits):
        back[b.bit_length() - 1] = 1 << i
    coords = {m: x[_carry(m, back)] for m in range(1, 1 << len(back))}
    return EntropyVector(len(back), coords, target)


def restrict_vector(x: EntropyVector, small: StructurePair) -> EntropyVector:
    """Project a vector onto a sub-structure's variables (inverse direction)."""
    if x.sp is None:
        raise ValueError("vector carries no structure")
    bits = _slot_bits(small, x.sp)
    coords = {m: x[_carry(m, bits)] for m in range(1, 1 << len(bits))}
    return EntropyVector(len(bits), coords, small)


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
