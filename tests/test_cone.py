import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from itertools import combinations

import pytest

from mtss import cone, field, simplex
from mtss.cone import (
    EntropyVector,
    Row,
    check_truncation,
    elemental_inequalities,
    extend_vector,
    lower_bound_ratio,
    membership_system,
    satisfies,
    system_constraints,
)
from mtss.schemes import (
    VariableId,
    build_B,
    build_optimal,
    build_single_threshold,
    build_weak_block,
    combine,
    embed,
)
from mtss.structure import (
    EXACT,
    MEASURES,
    SIGMA,
    SIGMA_AVG,
    STRONG,
    TAU,
    TAU_AVG,
    WEAK,
    RatioKind,
    ShareSecretBound,
    bound_row,
    conditions,
    optimal_ratio,
    slot_map,
    structure,
)
from mtss.verify import RankProfile, audit_bounds, check_conditions, ratios
from test_acceptance import resolved_cells, table_family
from test_verify import stacked


def mask_of(sp, vs) -> int:
    """The cone's bitmask of a set of variables: bit i is
    `sp.variables[i]`."""
    pos = {v: i for i, v in enumerate(sp.variables)}
    mask = 0
    for v in vs:
        mask |= 1 << pos[v]
    return mask


def restrict_vector(x: EntropyVector, small) -> EntropyVector:
    """x's values on the variables of its sub-structure `small`: each secret
    where `slot_map` places it, each share on its own index."""
    to_big = {
        VariableId.secret(*s): VariableId.secret(*b)
        for s, b in slot_map(small, x.sp).items()
    }
    order = [to_big.get(v, v) for v in small.variables]
    coords = {
        m: x[mask_of(x.sp, [v for i, v in enumerate(order) if m >> i & 1])]
        for m in range(1, 1 << len(order))
    }
    return EntropyVector(len(order), coords, small)


def _tag_counts(cs):
    out = {}
    for r in cs.rows:
        out[r.tag] = out.get(r.tag, 0) + 1
    return out


# ------------------------------------------------------------------ elemental

@pytest.mark.parametrize("n,count", [(2, 3), (3, 9), (4, 28), (5, 85), (7, 679)])
def test_elemental_count(n, count):
    cs = elemental_inequalities(n)
    assert len(cs) == count
    assert all(r.tag == "elemental" and not r.equality and r.rhs == 0 for r in cs.rows)


def test_elemental_distinct_rows():
    cs = elemental_inequalities(5)
    assert len({r.coeffs for r in cs.rows}) == len(cs)


def test_row_values_are_ints_unless_fractional():
    row = Row.make("t", {3: F(2), 1: F(1, 2), 2: 0, 4: -1}, False, F(4, 2))
    assert row.coeffs == ((1, F(1, 2)), (3, 2), (4, -1)) and row.rhs == 2
    assert [type(c) for _, c in row.coeffs] == [F, int, int] and type(row.rhs) is int
    # equal to, and hashed like, the same row held as Fractions
    as_fractions = Row("t", tuple((k, F(c)) for k, c in row.coeffs), False, F(2))
    assert row == as_fractions and hash(row) == hash(as_fractions)
    assert all(type(c) is int for r in elemental_inequalities(4).rows for _, c in r.coeffs)


def test_elemental_bounds():
    with pytest.raises(ValueError, match="at least 2"):
        elemental_inequalities(1)
    with pytest.raises(ValueError, match="over cap"):
        elemental_inequalities(9)


def test_rank_profiles_satisfy_elemental():
    """Joint ranks are polymatroidal, so every elemental row holds on a lift."""
    schemes = [
        build_weak_block(3, 2, 2),
        build_optimal(structure(4, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG)),
    ]
    for sch in schemes:
        x = EntropyVector.from_profile(RankProfile(sch))
        assert satisfies(x, elemental_inequalities(x.n_vars))


# ---------------------------------------------------------- system rows

def test_system_rows_weak_322():
    sp = structure(3, [(2, 2)])
    cs = system_constraints(sp, WEAK)
    assert _tag_counts(cs) == {"C0": 1, "C1": 3, "C3": 6}
    assert all(r.equality and r.rhs == 0 for r in cs.rows)


def test_system_rows_strong_vs_weak():
    sp = structure(3, [(3, 1), (2, 1)])
    strong = system_constraints(sp, STRONG)
    weak = system_constraints(sp, WEAK)
    c1s = {r.coeffs for r in strong.rows if r.tag == "C1"}
    c1w = {r.coeffs for r in weak.rows if r.tag == "C1"}
    assert c1s == c1w
    assert _tag_counts(strong) == {"C0": 1, "C1": 4, "C2": 6}
    assert _tag_counts(weak) == {"C0": 1, "C1": 4, "C3": 6}
    assert {r.coeffs for r in strong.rows if r.tag == "C2"} != {
        r.coeffs for r in weak.rows if r.tag == "C3"
    }


def test_system_rows_single_secret_drops_trivial_c0():
    cs = system_constraints(structure(2, [(2, 1)]), WEAK)
    assert _tag_counts(cs) == {"C1": 1, "C3": 2}


def test_system_rows_deduplicated():
    for sp in [structure(3, [(3, 2), (2, 2)]), structure(4, [(2, 3)])]:
        for sec in (STRONG, WEAK):
            cs = system_constraints(sp, sec)
            assert len({r.coeffs for r in cs.rows}) == len(cs)


def test_system_rows_validation():
    with pytest.raises(ValueError, match="unknown security"):
        system_constraints(structure(2, [(2, 1)]), "loose")
    with pytest.raises(ValueError, match="size cap"):
        system_constraints(structure(6, [(2, 3)]), WEAK)


def test_verified_profiles_satisfy_system_rows():
    cases = [
        (build_weak_block(3, 2, 3), WEAK),
        (build_weak_block(4, 3, 2), WEAK),
        (build_optimal(structure(4, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG)), STRONG),
    ]
    for sch, sec in cases:
        assert check_conditions(sch, sec).passed
        x = EntropyVector.from_profile(RankProfile(sch))
        assert satisfies(x, system_constraints(sch.sp, sec))


def _random_schemes(sp, count, seed):
    """Schemes over F_5 with one random column per variable."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        blocks = []
        for v in sp.variables:
            col = [rng.randrange(5) for _ in range(3)]
            if not any(col):
                break
            blocks.append((v, [[x] for x in col]))
        else:
            out.append(stacked(sp, 5, blocks))
    return out


def test_rank_verdict_matches_system_rows():
    """check_conditions passes exactly when the rank profile satisfies the
    C0-C3 rows, on passing and failing schemes of up to 8 variables."""
    cases = [
        build_weak_block(3, 2, 2),
        build_single_threshold(2, 4),
        build_B(3, (3, 4), (2, 1)),
        build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG)),
        *_random_schemes(structure(3, [(3, 1), (2, 1)]), 30, seed=1),
        *_random_schemes(structure(3, [(2, 2)]), 30, seed=2),
    ]
    verdicts = set()
    for sch in cases:
        x = EntropyVector.from_profile(RankProfile(sch))
        for sec in (STRONG, WEAK):
            passed = check_conditions(sch, sec).passed
            assert passed == satisfies(x, system_constraints(sch.sp, sec)), (sch.sp, sec)
            verdicts.add((sec, passed))
    assert len(verdicts) == 4


# ------------------------------------------------- full-coordinate reference
#
# The outer region's rows written straight from their definitions, so that
# the tests of `membership_system` and of the orbit LP do not read the
# generator they check.

def _terms(*pairs):
    """{mask: coefficient} of a sum of (mask, coefficient) entropy terms,
    with h(empty set) = 0 left out."""
    out = {}
    for mask, c in pairs:
        if mask:
            out[mask] = out.get(mask, 0) + c
    return out


def _reference_elemental(n):
    """Yeung's elemental inequalities on n variables: H(X_i | rest) >= 0 per
    variable i, then I(X_i; X_j | X_Z) >= 0 per pair i < j and set Z of
    the other variables, Z in `combinations` order size by size."""
    omega = (1 << n) - 1
    rows = [
        Row.make("elemental", _terms((omega, 1), (omega ^ 1 << i, -1)), False)
        for i in range(n)
    ]
    for i, j in combinations(range(n), 2):
        others = [b for b in range(n) if b not in (i, j)]
        for size in range(n - 1):
            for zs in combinations(others, size):
                z = sum(1 << b for b in zs)
                zi, zj = z | 1 << i, z | 1 << j
                coeffs = _terms((zi, 1), (zj, 1), (zi | zj, -1), (z, -1))
                rows.append(Row.make("elemental", coeffs, False))
    return rows


def _reference_rows(sp, security):
    """The outer region's rows in full coordinates: the elemental rows,
    then per condition (tag, secret positions, size) of
    `structure.conditions`, whose secrets S are the slots at those
    positions, and coalition A of that size in `combinations` order one
    equality, empty and repeated rows dropped.  C0 states h(S) - sum of
    h(s) over the secrets s of S = 0, C1 H(S | A) = h(S u A) - h(A) = 0,
    and C2 and C3 I(S; A) = 0 as h(S u A) - h(A) - h(S) = 0."""
    n = sp.n_parties + sp.n_secrets
    rows, seen = _reference_elemental(n), set()
    slots = sp.secret_slots()
    for tag, positions, size in conditions(sp, security):
        secrets = [mask_of(sp, [VariableId.secret(*slots[i])]) for i in positions]
        s = sum(secrets)
        for coalition in combinations(range(1, sp.n_parties + 1), size):
            a = mask_of(sp, [VariableId.share(i) for i in coalition])
            if tag == "C0":
                coeffs = _terms((s, 1), *((m, -1) for m in secrets))
            elif tag == "C1":
                coeffs = _terms((s | a, 1), (a, -1))
            else:
                coeffs = _terms((s | a, 1), (a, -1), (s, -1))
            row = Row.make(tag, coeffs, True)
            if row.coeffs and row.coeffs not in seen:
                seen.add(row.coeffs)
                rows.append(row)
    return tuple(rows)


def _reference_min(sp, security, objective, rows=(), n_aux=0):
    """min objective . h over the outer region and `rows` in full
    coordinates: subset mask m is column m - 1, and auxiliary variables
    follow under keys 2^n, 2^n + 1, ...  Returns the optimum and the
    optimal point by key."""
    n = sp.n_parties + sp.n_secrets
    prog = simplex.LinearProgram((1 << n) - 1 + n_aux)
    prog.minimize({k - 1: c for k, c in objective.items()})
    for row in (*_reference_rows(sp, security), *rows):
        coeffs = {k - 1: c for k, c in row.coeffs}
        (prog.add_eq if row.equality else prog.add_ge)(coeffs, row.rhs)
    res = prog.solve()
    assert res.status == simplex.OPTIMAL
    return res.value, {k + 1: x for k, x in enumerate(res.x)}


def _reference_sigma(sp, security):
    """Full-coordinate sigma LP: min z with z over every share, secrets >= 1."""
    z = 1 << (sp.n_parties + sp.n_secrets)
    rows = []
    for v in sp.variables:
        m = mask_of(sp, [v])
        if v.kind == "share":
            rows.append(Row.make("link", {z: F(1), m: F(-1)}, False, 0))
        else:
            rows.append(Row.make("norm", {m: F(1)}, False, 1))
    value, point = _reference_min(sp, security, {z: F(1)}, rows, n_aux=1)
    return value, point, rows


def _reference_assembly(sp, security, objective, rows, colour):
    """The unsolved orbit-reduced LP as `cone._minimize` assembled it on
    Fractions: every row is projected with Fraction sums into a sparse row,
    de-duplicated, and handed over as a {column: Fraction} dict."""
    n = sp.n_parties + sp.n_secrets
    keys = [(v.kind, v.level, colour(v)) for v in sp.variables]
    place = {}
    n_ids = 1
    for key in sorted(set(keys), reverse=True):
        place[key] = n_ids
        n_ids *= keys.count(key) + 1
    bit_id = [place[key] for key in keys]
    orbit = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        orbit[mask] = orbit[mask ^ low] + bit_id[low.bit_length() - 1]

    def project(coeffs):
        proj = {}
        for mask, c in coeffs:
            col = orbit[mask] - 1
            proj[col] = proj.get(col, F(0)) + F(c)
        return tuple(sorted((k, c) for k, c in proj.items() if c != 0))

    prog = simplex.LinearProgram(n_ids - 1)
    prog.minimize(dict(project(objective.items())))
    seen = set()
    for row in (*rows, *_reference_rows(sp, security)):
        coeffs, rhs = project(row.coeffs), F(row.rhs)
        key = (coeffs, row.equality, rhs)
        if coeffs and key not in seen:
            seen.add(key)
            (prog.add_eq if row.equality else prog.add_ge)(dict(coeffs), rhs)
    return prog


def _table_family(max_vars):
    """The acceptance table's structures (N in {2,3,4}, at most two levels,
    at most 5 secrets) with at most `max_vars` variables."""
    out = []
    for n in (2, 3, 4):
        for t in range(2, n + 1):
            out += [structure(n, [(t, m)]) for m in range(1, 6)]
            for t2 in range(2, t):
                for m1 in range(1, 5):
                    out += [structure(n, [(t, m1), (t2, m2)]) for m2 in range(1, 6 - m1)]
    return [sp for sp in out if sp.n_parties + sp.n_secrets <= max_vars]


def test_lp_assembly_matches_fraction_reference(monkeypatch, empty_region_memo):
    """`_minimize` hands the simplex the LP of the Fraction assembly: the
    same column count, the same rows in the same order and the same
    objective, for every ratio kind and every truncation-gap colouring."""
    calls, programs = [], []
    minimize = cone._minimize

    def spy(*args):
        calls.append(args)
        return minimize(*args)

    def capture(lp):
        programs.append(lp)
        return simplex.SimplexResult(simplex.OPTIMAL, F(0), None)

    monkeypatch.setattr(cone, "_minimize", spy)
    monkeypatch.setattr(simplex.LinearProgram, "solve", capture)
    family = _table_family(6)
    for sp in family:
        bounds = [bound_row(sp, "dtb"), bound_row(sp, "tvb")]
        for k in range(1, sp.k_levels + 1):
            bounds += [bound_row(sp, "tsdb", k=k), bound_row(sp, "tsb", k=k)]
        for sec in (STRONG, WEAK):
            for meas in MEASURES:
                lower_bound_ratio(sp, RatioKind(meas, sec))
            for bound in bounds:
                cone._min_gap(bound, sp, sec)
    assert len(family) == 22 and len(calls) == len(programs) == 376
    for args, got in zip(calls, programs):
        want = _reference_assembly(*args)
        assert got.n_vars == want.n_vars, args[:2]
        assert got._rows == want._rows, args[:2]
        assert got._objective == want._objective, args[:2]


def test_canonical_subsets_follow_combinations_past_eight_positions():
    """One subset per count vector, in the order in which its count vector
    first appears in `combinations` of the merged positions, size by size,
    with positions up to 14 and an empty class."""
    members = {"a": [0, 4, 9, 13], "b": [2, 10], "c": [5, 11, 12, 14], "d": []}
    place = {"a": 1, "b": 5, "c": 15, "d": 75}
    owner = {x: key for key, m in members.items() for x in m}
    want, seen = [], set()
    for size in range(len(owner) + 1):
        for subset in combinations(sorted(owner), size):
            oid = sum(place[owner[x]] for x in subset)
            if oid not in seen:
                seen.add(oid)
                want.append((size, oid))
    assert len(want) == 5 * 3 * 5
    assert cone._canonical_subsets(members, place) == want


LARGE_CELLS = [
    structure(4, [(4, 1), (3, 1), (2, 1)]),
    structure(5, [(3, 1), (2, 1)]),
    structure(4, [(4, 1), (3, 1), (2, 2)]),
    structure(5, [(3, 2), (2, 1)]),
    structure(6, [(4, 1), (2, 1)]),
]


def test_lp_assembly_matches_reference_on_colourings_and_large_structures(monkeypatch, empty_region_memo):
    """Seeded random colourings, whose classes are not runs of the variable
    order, and the ratio and truncation-gap LPs of 7- and 8-variable
    structures at both securities assemble the Fraction reference's rows,
    in the same order."""
    calls, programs = [], []
    minimize = cone._minimize

    def spy(*args):
        calls.append(args)
        return minimize(*args)

    def capture(lp):
        programs.append(lp)
        return simplex.SimplexResult(simplex.OPTIMAL, F(0), None)

    monkeypatch.setattr(cone, "_minimize", spy)
    monkeypatch.setattr(simplex.LinearProgram, "solve", capture)
    rng = random.Random(14)
    scattered = 0
    for sp in _table_family(6) + LARGE_CELLS:
        secret, share = cone._variable_masks(sp)
        norm = Row.make("norm", {secret[(1, 1)]: 1}, False, 1)
        for sec in (STRONG, WEAK):
            for _ in range(2):
                colours = {v: rng.randrange(3) for v in sp.variables}
                classes = {}
                for i, (v, c) in enumerate(colours.items()):
                    classes.setdefault((v.kind, v.level, c), []).append(i)
                scattered += any(p[-1] - p[0] >= len(p) for p in classes.values())
                cone._minimize(sp, sec, {share[1]: 1}, [norm], colours.get)
            if sp in LARGE_CELLS:
                for meas in MEASURES:
                    lower_bound_ratio(sp, RatioKind(meas, sec))
                cone._min_gap(bound_row(sp, "dtb"), sp, sec)
                cone._min_gap(bound_row(sp, "tsb", k=sp.k_levels), sp, sec)
    assert len(calls) == len(programs) == 4 * 27 + 6 * 10 and scattered == 37
    for args, got in zip(calls, programs):
        want = _reference_assembly(*args)
        assert got.n_vars == want.n_vars, args[:2]
        assert got._rows == want._rows, args[:2]
        assert got._objective == want._objective, args[:2]


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_rows_of_singleton_classes_are_the_elemental_rows(n):
    """With every variable its own class, an orbit id is the subset's mask,
    and the generator yields the definitions' elemental rows row for row."""
    want = _reference_elemental(n)
    rows = cone._elemental_rows(list(range(n)), {i: 1 << i for i in range(n)})
    assert [tuple(sorted(r.items())) for r in rows] == [r.coeffs for r in want]
    assert elemental_inequalities(n).rows == tuple(want)


def test_membership_system_matches_reference():
    """`membership_system` is the definitions' rows, row for row: tags,
    order, de-duplication and int coefficients, on every table-family
    structure with at most 8 variables at both securities."""
    family = _table_family(8)
    for sp in family:
        for sec in (STRONG, WEAK):
            got = membership_system(sp, sec)
            want = _reference_rows(sp, sec)
            assert got.n_vars == sp.n_parties + sp.n_secrets
            assert got.rows == want, (str(sp), sec)
            assert all(type(c) is int for r in got.rows for _, c in r.coeffs)
    assert len(family) == 55


@pytest.mark.parametrize("n", range(2, 9))
def test_orbit_rows_of_one_class(n):
    """One class of n variables: h(Omega) >= h(Omega - i), then one mutual
    information row per conditioning size 0..n-2."""
    rows = list(cone._elemental_rows([0] * n, {0: 1}))
    assert rows[0] == {n: 1, n - 1: -1}
    assert rows[1:] == [{z + 1: 2, z + 2: -1} | ({z: -1} if z else {}) for z in range(n - 1)]


def test_pivots_per_phase(monkeypatch, empty_region_memo):
    """The eight ratio LPs on (N=4, T=4,3,2), in the order sigma, sigma_avg,
    tau, tau_avg, each strong then weak, keep their (phase 1, clean-up,
    phase 2) pivot counts.  The clean-up pivots are the seven zero-rhs
    equality rows' drive-outs before phase 1.  tau and tau_avg share the
    regions of sigma and sigma_avg, so their phase 2 starts at the optimum
    the earlier LP left in the memo (from the phase-1 basis they make
    4, 0, 13 and 10 phase-2 pivots)."""
    results = []
    solve = simplex.LinearProgram.solve
    monkeypatch.setattr(
        simplex.LinearProgram, "solve", lambda lp: results.append(solve(lp)) or results[-1]
    )
    sp = structure(4, [(4, 1), (3, 1), (2, 1)])
    for meas in (SIGMA, SIGMA_AVG, TAU, TAU_AVG):
        for sec in (STRONG, WEAK):
            lower_bound_ratio(sp, RatioKind(meas, sec))
    got = [(r.stats.phase1_pivots, r.stats.cleanup_pivots, r.stats.phase2_pivots) for r in results]
    assert got == [
        (44, 7, 4), (55, 7, 0), (36, 7, 18), (44, 7, 9),
        (44, 7, 0), (55, 7, 0), (36, 7, 0), (44, 7, 1),
    ]
    assert [sum(c) for c in got] == [55, 62, 61, 60, 51, 62, 43, 52]


KEPT_CELL = structure(4, [(4, 1), (3, 1), (2, 1)])


def _kept_basis_runs():
    """The eight ratio LPs of KEPT_CELL, one run each, and one truncation
    check (two LPs: the big side's and the small side's)."""
    runs = [
        lambda kind=RatioKind(meas, sec): lower_bound_ratio(KEPT_CELL, kind)
        for meas in (SIGMA, SIGMA_AVG, TAU, TAU_AVG)
        for sec in (STRONG, WEAK)
    ]
    big, small = structure(3, [(3, 2), (2, 2)]), structure(3, [(3, 1), (2, 1)])
    runs.append(lambda: check_truncation(bound_row(big, "dtb"), small, big))
    return runs


def _solves(run):
    """(result, program) of each LP that `run()` solves; a program that
    started from a kept basis holds no rows."""
    got = []
    solve = simplex.LinearProgram.solve

    def spy(lp):
        got.append((solve(lp), lp))
        return got[-1][0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex.LinearProgram, "solve", spy)
        run()
    return got


def _optimal_for(res, lp) -> bool:
    """Whether `res.x` is a point of `lp`'s rows (x >= 0, each row met
    exactly) at which `lp`'s objective is `res.value`."""

    def dot(row):
        return sum(c * v for c, v in zip(row, res.x))

    return (
        res.status == simplex.OPTIMAL
        and len(res.x) == lp.n_vars
        and min(res.x) >= 0
        and all(dot(row) == b if kind == "eq" else dot(row) >= b for row, b, kind in lp._rows)
        and dot(lp._objective) == res.value
    )


def test_kept_basis_solves_as_from_rows(empty_region_memo):
    """Every LP of `_kept_basis_runs` solved from a kept basis has the
    status and value it has with the memo empty, and its point is optimal
    for the program assembled from the rows.  It reports the region's
    tableau size, phase-1 and clean-up counts.  A kept basis is the
    optimum of the region's last solve; after a first pass over the runs,
    the second pass makes no phase-2 pivot, where the cold solves make
    135."""
    cold = []
    for run in _kept_basis_runs():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cone, "_REGIONS", cone._RegionMemo(cone.REGION_ENTRIES))
            cold += _solves(run)
    for run in _kept_basis_runs():
        run()
    warm = [s for run in _kept_basis_runs() for s in _solves(run)]
    assert len(cold) == len(warm) == 10
    assert not any(lp._rows is None for _, lp in cold)
    assert all(lp._rows is None for _, lp in warm)
    for (want, cold_lp), (got, lp) in zip(cold, warm):
        assert (got.status, got.value) == (want.status, want.value)
        assert cold_lp._objective == lp._objective and _optimal_for(got, cold_lp)
        assert (got.stats.rows, got.stats.columns) == (want.stats.rows, want.stats.columns)
        assert (got.stats.phase1_pivots, got.stats.cleanup_pivots) == (
            want.stats.phase1_pivots, want.stats.cleanup_pivots
        )
    assert [want.stats.phase2_pivots for want, _ in cold] == [4, 0, 18, 9, 4, 0, 13, 10, 68, 9]
    assert [got.stats.phase2_pivots for got, _ in warm] == [0] * 10


def test_a_repeated_lp_makes_no_phase2_pivot(empty_region_memo):
    """Each LP of `_kept_basis_runs` run twice in a row: the second solve
    starts at the optimum of the first, so it makes no pivot, and keeps
    that basis in the memo as it is."""
    first_pivots = 0
    for run in _kept_basis_runs():
        first = _solves(run)
        kept = [cone._REGIONS._bases[key] for key in list(cone._REGIONS._bases)[-len(first):]]
        second = _solves(run)
        assert [res.value for res, _ in second] == [res.value for res, _ in first]
        assert all(lp._rows is None and res.stats.phase2_pivots == 0 for res, lp in second)
        assert all(lp.start is start for (_, lp), start in zip(second, kept))
        first_pivots += sum(res.stats.phase2_pivots for res, _ in first)
    assert first_pivots > 0


def test_tau_avg_starts_at_the_sigma_avg_optimum(empty_region_memo):
    """tau-avg after sigma-avg on KEPT_CELL (one region) starts phase 2 at
    sigma-avg's optimum, which is already optimal for tau-avg: it makes no
    phase-2 pivot, where a start at the phase-1 basis makes 13."""
    tau_avg = RatioKind(TAU_AVG, STRONG)
    ((cold, _),) = _solves(lambda: lower_bound_ratio(KEPT_CELL, tau_avg))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "_REGIONS", cone._RegionMemo(cone.REGION_ENTRIES))
        lower_bound_ratio(KEPT_CELL, RatioKind(SIGMA_AVG, STRONG))
        ((warm, lp),) = _solves(lambda: lower_bound_ratio(KEPT_CELL, tau_avg))
    assert lp._rows is None and warm.value == cold.value
    assert (cold.stats.phase2_pivots, warm.stats.phase2_pivots) == (13, 0)


def test_second_solve_of_a_region_makes_only_phase2_pivots(empty_region_memo):
    """sigma-avg after tau-avg (one region) makes no phase-1 or clean-up
    pivot: every pivot of its solve is one of its phase-2 pivots, and its
    stats still report the region's phase-1 and clean-up counts."""
    lower_bound_ratio(KEPT_CELL, RatioKind(TAU_AVG, STRONG))
    pivots = []
    pivot = simplex._pivot

    def spy(*args):
        pivots.append(args)
        pivot(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", spy)
        ((res, lp),) = _solves(lambda: lower_bound_ratio(KEPT_CELL, RatioKind(SIGMA_AVG, STRONG)))
    assert lp._rows is None and len(pivots) == res.stats.phase2_pivots == 1
    assert (res.stats.phase1_pivots, res.stats.cleanup_pivots) == (36, 7)


def test_cell_values_do_not_depend_on_the_solve_order(monkeypatch):
    """The resolved cells of criterion 2's family, solved forward and in
    reverse, each order through an empty memo, have the same LP values,
    and each is the closed-form optimum.  A solve starts at whatever
    optimum the region's last LP left, so the two orders start phase 2 at
    different bases and make different numbers of phase-2 pivots."""
    cells = [(sp, kind, want) for sp in table_family(limit_seven=True)
             for kind, want in resolved_cells(sp)]
    values, pivots = [], []
    for order in (cells, cells[::-1]):
        monkeypatch.setattr(cone, "_REGIONS", cone._RegionMemo(cone.REGION_ENTRIES))
        solves = []
        for sp, kind, _ in order:
            ((res, _),) = _solves(lambda: lower_bound_ratio(sp, kind))
            solves.append(((sp, kind), res))
        values.append({cell: res.value for cell, res in solves})
        pivots.append(sum(res.stats.phase2_pivots for _, res in solves))
    assert values[0] == values[1] == {(sp, kind): want for sp, kind, want in cells}
    assert pivots == [409, 400]  # 719 in either order from the phase-1 bases


def test_region_memo_keeps_its_bound_and_evicts_the_oldest_first(empty_region_memo):
    """The process-wide memo is bounded by REGION_ENTRIES and counts the
    entries of the bases it keeps.  A memo's stored entries never exceed
    its limit: the least recently stored bases leave first, as many as the
    new one needs, a basis stored again for its region replaces the one
    kept and becomes the newest, and a basis larger than the limit is not
    kept."""
    assert cone._REGIONS is empty_region_memo
    assert empty_region_memo.limit == cone.REGION_ENTRIES
    for run in _kept_basis_runs():
        run()
    kept = empty_region_memo._bases.values()
    assert len(kept) == 6
    assert empty_region_memo.entries == sum(start.entries for start in kept)

    def basis(entries):
        return simplex.FeasibleBasis(1, 1, ((0,) * entries,), (1,), (0,), (), 0, 0)

    memo = cone._RegionMemo(10)
    steps = [
        ("a", 4, "a"),
        ("b", 3, "ab"),
        ("c", 3, "abc"),
        ("d", 2, "bcd"),  # a leaves
        ("e", 5, "cde"),  # b leaves
        ("f", 11, "cde"),  # over the limit: not kept
        ("c", 1, "dec"),  # replaces c, now the newest
        ("g", 10, "g"),  # every other basis leaves
    ]
    for key, entries, want in steps:
        memo.put(key, basis(entries))
        assert "".join(memo._bases) == want
        assert memo.entries == sum(start.entries for start in memo._bases.values()) <= 10


def test_region_memo_under_threads(monkeypatch, empty_region_memo):
    """Eight threads behind a barrier solve the LPs of `_kept_basis_runs`,
    each from its own offset in the list, through a memo that holds about
    two regions: every value is the serial one, and the memo's count is
    its bases' entries, within its limit."""
    runs = _kept_basis_runs()
    serial = [run() for run in runs]
    memo = cone._RegionMemo(2 * max(s.entries for s in empty_region_memo._bases.values()))
    monkeypatch.setattr(cone, "_REGIONS", memo)
    start = threading.Barrier(8)

    def sweep(offset):
        start.wait(timeout=60)
        order = list(range(offset, len(runs))) + list(range(offset))
        return {i: runs[i]() for i in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                for got in pool.map(sweep, range(8), timeout=120):
                    assert [got[i] for i in range(len(runs))] == serial
    finally:
        sys.setswitchinterval(switch)
    assert memo._bases and memo.entries == sum(s.entries for s in memo._bases.values())
    assert memo.entries <= memo.limit


def test_reference_sigma_example_and_certificate():
    sp = structure(2, [(2, 1)])
    value, point, rows = _reference_sigma(sp, WEAK)
    assert value == 1
    for row in (*_reference_rows(sp, WEAK), *rows):
        assert row.holds_at(point)


# ------------------------------------------------------- lower_bound_ratio

def test_lower_bound_frozen_examples():
    assert lower_bound_ratio(structure(3, [(2, 3)]), RatioKind(SIGMA, WEAK)) == F(3, 2)
    assert lower_bound_ratio(structure(3, [(2, 2)]), RatioKind(SIGMA_AVG, WEAK)) == 1
    assert lower_bound_ratio(structure(3, [(2, 1)]), RatioKind(TAU, STRONG)) == 1


SAMPLE_CELLS = [
    structure(2, [(2, 3)]),
    structure(3, [(3, 2)]),
    structure(3, [(2, 4)]),
    structure(3, [(3, 2), (2, 1)]),
    structure(4, [(4, 1), (2, 2)]),
    structure(4, [(3, 2), (2, 1)]),
    structure(4, [(4, 1), (3, 1), (2, 1)]),
]


@pytest.mark.parametrize("sp", SAMPLE_CELLS, ids=lambda sp: str(sp))
def test_lower_bound_matches_closed_forms(sp):
    for sec in (STRONG, WEAK):
        for meas in (SIGMA, SIGMA_AVG, TAU, TAU_AVG):
            kind = RatioKind(meas, sec)
            opt = optimal_ratio(sp, kind)
            if opt.status == EXACT:
                assert lower_bound_ratio(sp, kind) == opt.value, kind


def test_lower_bound_never_exceeds_achieved_ratio():
    for sp in [structure(3, [(2, 3)]), structure(3, [(3, 1), (2, 1)])]:
        for sec in (STRONG, WEAK):
            for meas in (SIGMA, SIGMA_AVG):
                kind = RatioKind(meas, sec)
                sch = build_optimal(sp, kind)
                achieved = ratios(sch, strict=False).value(meas)
                if achieved is not None:
                    assert lower_bound_ratio(sp, kind) <= achieved


def test_lower_bound_agrees_with_full_lp():
    """Orbit reduction and minimal-coalition rows change nothing: the
    symmetric full-coordinate LP gives the same optimum."""
    sp = structure(3, [(2, 2)])
    full, _, _ = _reference_sigma(sp, WEAK)
    assert full == lower_bound_ratio(sp, RatioKind(SIGMA, WEAK))


def test_dropped_coalition_rows_change_nothing():
    """Adding the implied non-minimal qualified rows leaves optima alone."""
    sp = structure(3, [(2, 1)])
    kind = RatioKind(TAU, STRONG)
    order = sp.variables
    secret = mask_of(sp, [order[0]])
    all_shares = mask_of(sp, [v for v in order if v.kind == "share"])
    objective = {all_shares: F(1), secret: F(-1)}
    norm = Row.make("norm", {secret: F(1)}, False, 1)
    value, _ = _reference_min(sp, STRONG, objective, [norm])
    # now append the size-3 qualified coalition explicitly
    c1 = Row.make("C1", {secret | all_shares: F(1), all_shares: F(-1)}, True, 0)
    value2, _ = _reference_min(sp, STRONG, objective, [norm, c1])
    assert value == value2 == lower_bound_ratio(sp, kind) == 1


def test_lower_bound_cap():
    with pytest.raises(ValueError, match="size cap"):
        lower_bound_ratio(structure(6, [(2, 4)]), RatioKind(SIGMA, WEAK))


# ------------------------------------------------------------ entropy vectors

def test_entropy_vector_validation():
    with pytest.raises(ValueError, match="coordinate count"):
        EntropyVector(2, {1: F(1)})
    x = EntropyVector(2, {1: 1, 2: 1, 3: 2})
    assert x[0] == 0 and x[3] == 2 and isinstance(x[1], F)


def test_entropy_vector_arithmetic():
    sp = structure(2, [(2, 1)])
    sch = build_single_threshold(2, 2)
    x = EntropyVector.from_profile(RankProfile(sch))
    y = x.scale(F(1, 2)) + x.scale(F(1, 2))
    assert y.coords == x.coords and y.sp == sp
    with pytest.raises(ValueError, match="mismatched"):
        x + EntropyVector(2, {1: 0, 2: 0, 3: 0})


def test_from_profile_reads_masks_in_variable_order():
    """The cone's bit i is the profile's: each coordinate equals the rank of
    the variables the mask names, on the table-family structures with at
    most 6 variables."""
    family = _table_family(6)
    for sp in family:
        for sec in (STRONG, WEAK):
            sch = build_optimal(sp, RatioKind(SIGMA, sec))
            order = sch.sp.variables
            x = EntropyVector.from_profile(RankProfile(sch))
            by_variables = RankProfile(sch)
            for mask, value in x.coords.items():
                vs = [v for i, v in enumerate(order) if mask >> i & 1]
                want = field.rank(sch.columns(vs), sch.q)
                assert value == by_variables.rank(vs) == want, vs
    assert len(family) == 22


def test_from_profile_respects_cap():
    sch = build_single_threshold(2, 8)  # nine variables
    with pytest.raises(ValueError, match="size cap"):
        EntropyVector.from_profile(RankProfile(sch))


# ------------------------------------------------------- extension/restriction

def test_extend_vector_membership_and_identity():
    sch = build_weak_block(3, 2, 2)
    x = EntropyVector.from_profile(RankProfile(sch))
    big = structure(3, [(2, 4)])
    X = extend_vector(x, big)
    assert X.sp == big
    assert satisfies(X, membership_system(big, WEAK))
    assert restrict_vector(X, sch.sp).coords == x.coords
    # added secrets contribute nothing anywhere
    added = mask_of(big, [v for v in big.variables if v.kind == "secret"][2:])
    omega = (1 << X.n_vars) - 1
    assert X[omega] == X[omega & ~added]


def test_extend_vector_strong_and_two_levels():
    sch = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    x = EntropyVector.from_profile(RankProfile(sch))
    big = structure(3, [(3, 2), (2, 1)])
    X = extend_vector(x, big, STRONG)
    assert satisfies(X, membership_system(big, STRONG))
    assert restrict_vector(X, sch.sp).coords == x.coords


def test_extend_vector_is_linear_on_members():
    sch = build_weak_block(3, 2, 2)
    x = EntropyVector.from_profile(RankProfile(sch))
    y = x.scale(F(2, 3))  # the cone is closed under scaling
    big = structure(3, [(2, 3)])
    lhs = extend_vector(x.scale(F(1, 3)) + y.scale(F(1, 2)), big)
    rhs = extend_vector(x, big).scale(F(1, 3)) + extend_vector(y, big).scale(F(1, 2))
    assert lhs.coords == rhs.coords


def test_extend_vector_zero_point():
    sp = structure(2, [(2, 1)])
    zero = EntropyVector(3, {m: F(0) for m in range(1, 8)}, sp)
    X = extend_vector(zero, structure(2, [(2, 2)]))
    assert all(v == 0 for v in X.coords.values())


def test_extend_vector_errors():
    sch = build_weak_block(3, 2, 2)
    x = EntropyVector.from_profile(RankProfile(sch))
    with pytest.raises(ValueError, match="no structure"):
        extend_vector(EntropyVector(x.n_vars, dict(x.coords)), structure(3, [(2, 4)]))
    with pytest.raises(ValueError, match="subset relation"):
        extend_vector(x, structure(3, [(2, 1)]))
    with pytest.raises(ValueError, match="size cap"):
        extend_vector(x, structure(3, [(2, 6)]))
    bent = dict(x.coords)
    bent[1] += 7
    with pytest.raises(ValueError, match="small-structure membership"):
        extend_vector(EntropyVector(x.n_vars, bent, sch.sp), structure(3, [(2, 4)]))


# ----------------------------------------------------------------- truncation

def test_bound_row_coefficients():
    sp = structure(3, [(3, 2), (2, 1)])
    dtb = bound_row(sp, "dtb")
    assert (dtb.alpha0, dtb.alpha) == (0, {1: 1})
    assert dtb.beta == {(1, 1): 1, (2, 1): 1}
    tsdb = bound_row(sp, "tsdb", k=1)
    assert tsdb.alpha == {1: 1, 2: 1, 3: 1}
    assert tsdb.beta == {(1, 1): 1, (1, 2): 1, (2, 1): 2}
    tsdb2 = bound_row(sp, "tsdb", k=2)
    assert tsdb2.alpha == {1: 1, 2: 1}
    assert tsdb2.beta == {(1, 1): 2, (2, 1): 1}
    tvb = bound_row(sp, "tvb")
    assert tvb.alpha0 == 1 and tvb.alpha == {} and tvb.beta == {(1, 1): 3, (2, 1): 2}
    tsb = bound_row(sp, "tsb", k=2)
    assert tsb.alpha0 == 1 and tsb.beta == {(1, 1): 3, (2, 1): 1}
    with pytest.raises(ValueError, match="unknown bound"):
        bound_row(sp, "mystery")
    with pytest.raises(ValueError, match="level out of range"):
        bound_row(sp, "tsdb", k=3)
    # The audit reads a pick of secret j as the row with the level's first
    # secret and secret j trading places: on widths S[1,1] = 1, S[1,2] = 2,
    # S[2,1] = 1, tsdb_2 at j = 2 is 2 * 2 + 1, dtb at (2, 1) is 2 + 1, and
    # no pick leaves the levels' secrets.
    one, two = build_single_threshold(3, 3), build_single_threshold(2, 3)
    second = embed(one, sp, place={(1, 1): (1, 2)})
    s = combine([embed(one, sp), second, second, embed(two, sp)])
    assert [s.width(VariableId.secret(*slot)) for slot in sp.secret_slots()] == [1, 2, 1]
    lhs = {}
    for c in audit_bounds(s, WEAK):
        if c.bound in ("tsdb", "dtb"):
            lhs.setdefault((c.bound, c.params.get("k"), c.params["j"]), c.lhs)
    assert lhs == {
        ("tsdb", 1, ((2, 1),)): 1 + 2 + 2,
        ("tsdb", 2, ((1, 1),)): 2 * 1 + 1,
        ("tsdb", 2, ((1, 2),)): 2 * 2 + 1,
        ("dtb", None, (1, 1)): 1 + 1,
        ("dtb", None, (2, 1)): 2 + 1,
    }
    # the audit's other share/secret families, integer coefficients
    share_sum = bound_row(sp, "share-sum")
    assert (share_sum.alpha0, share_sum.alpha) == (0, {1: 1})
    assert share_sum.beta == {(1, 1): 1, (1, 2): 1, (2, 1): 1}
    tpb = bound_row(sp, "tpb")  # prod t = 6
    assert tpb.alpha0 == 0 and tpb.alpha == {1: 2, 2: 2, 3: 2}
    assert tpb.beta == {(1, 1): 2, (1, 2): 2, (2, 1): 3}
    avg = bound_row(sp, "avg-share")  # a_max = max(min(3, 2), min(2, 1)) = 2
    assert avg.alpha0 == 0 and avg.alpha == {1: 2, 2: 2, 3: 2}
    assert avg.beta == {(1, 1): 3, (1, 2): 3, (2, 1): 3}
    rnd = bound_row(sp, "strong-randomness")
    assert rnd.alpha0 == 1 and rnd.alpha == {}
    assert rnd.beta == {(1, 1): 3, (1, 2): 3, (2, 1): 2}


ROW_FAMILIES = ("share-sum", "dtb", "tsdb", "tpb", "avg-share", "strong-randomness",
                "tvb", "tsb")
STRONG_ONLY_ROWS = ("share-sum", "strong-randomness")


def test_bound_rows_are_shannon_valid():
    """Every `bound_row` family holds over the outer region of every
    table-family structure with at most 6 variables: 332 LPs, the
    strong-only rows at strong secrecy only."""
    lps = 0
    for sp in _table_family(6):
        for name in ROW_FAMILIES:
            levels = range(1, sp.k_levels + 1) if name in ("tsdb", "tsb") else [1]
            secs = (STRONG,) if name in STRONG_ONLY_ROWS else (STRONG, WEAK)
            for k in levels:
                for sec in secs:
                    lps += 1
                    assert cone._min_gap(bound_row(sp, name, k), sp, sec) >= 0, (
                        str(sp), name, k, sec)
    assert lps == 332


def test_truncation_examples():
    big = structure(3, [(3, 2), (2, 2)])
    small = structure(3, [(3, 1), (2, 1)])
    assert check_truncation(bound_row(big, "dtb"), small, big)
    big2 = structure(3, [(3, 2), (2, 1)])
    small2 = structure(3, [(3, 2)])
    assert check_truncation(bound_row(big2, "tsdb", k=1), small2, big2)


def test_truncation_all_families():
    big = structure(3, [(3, 1), (2, 2)])
    small = structure(3, [(3, 1), (2, 1)])
    for name in ROW_FAMILIES:
        sec = STRONG if name in STRONG_ONLY_ROWS else WEAK
        assert check_truncation(bound_row(big, name), small, big, sec), name


def test_truncation_preconditions():
    big = structure(3, [(3, 2), (2, 1)])
    small = structure(3, [(3, 2)])
    row = bound_row(big, "tsdb", k=1)
    negated = ShareSecretBound(F(0), {1: F(-1)}, dict(row.beta))
    with pytest.raises(ValueError, match="big-structure feasibility"):
        check_truncation(negated, small, big)
    negative = ShareSecretBound(F(0), dict(row.alpha), {(1, 1): F(-1)})
    with pytest.raises(ValueError, match="negative secret coefficient"):
        check_truncation(negative, small, big)
    with pytest.raises(ValueError, match="subset relation"):
        check_truncation(row, structure(3, [(2, 2)]), big)


def test_bound_on_missing_share_is_refused():
    """A share index outside 1..N is named in a ValueError by the gap LP and
    by the truncation check, as a missing secret is."""
    big, small = structure(3, [(2, 2)]), structure(3, [(2, 1)])
    for i in (0, 4):
        bound = ShareSecretBound(0, {i: 1}, {(1, 1): 1})
        with pytest.raises(ValueError, match=f"^bound references missing share {i}$"):
            cone._min_gap(bound, big, WEAK)
        with pytest.raises(ValueError, match=f"^bound references missing share {i}$"):
            check_truncation(bound, small, big)
    with pytest.raises(ValueError, match="missing secret"):
        cone._min_gap(ShareSecretBound(0, {1: 1}, {(2, 1): 1}), big, WEAK)


def _bound_objective(bound, sp):
    """lhs - rhs of a bound row in full coordinates."""
    shares = [v for v in sp.variables if v.kind == "share"]
    objective = {}
    if bound.alpha0:
        objective[mask_of(sp, shares)] = bound.alpha0
    for i, c in bound.alpha.items():
        objective[mask_of(sp, [VariableId.share(i)])] = c
    for slot, c in bound.beta.items():
        objective[mask_of(sp, [VariableId.secret(*slot)])] = -c
    return objective


@pytest.mark.parametrize(
    "sp",
    [
        structure(3, [(3, 2), (2, 1)]),
        structure(3, [(3, 1), (2, 2)]),
        structure(4, [(3, 1), (2, 1)]),
    ],
    ids=lambda sp: str(sp),
)
def test_truncation_gap_matches_full_lp(sp):
    """The orbit-reduced gap equals min(lhs - rhs) on h_Omega = 1 in full
    coordinates."""
    omega = (1 << (sp.n_parties + sp.n_secrets)) - 1
    section = Row.make("section", {omega: 1}, True, 1)
    for name, k in [("dtb", 1), ("tvb", 1), ("tsdb", 2), ("tsb", 2)]:
        bound = bound_row(sp, name, k=k)
        want, _ = _reference_min(sp, WEAK, _bound_objective(bound, sp), [section])
        assert cone._min_gap(bound, sp, WEAK) == want, (name, k)


# ----------------------------------------------------------------------- dump

def test_dump_format():
    cs = system_constraints(structure(2, [(2, 1)]), WEAK)
    text = cs.dump()
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("C1 ") and lines[0].endswith("= 0")
    for line in lines:
        tag, *terms, sense, rhs = line.split()
        assert tag in ("C1", "C3") and sense in ("=", ">=") and rhs == "0"
        for t in terms:
            mask, coeff = t.split(":")
            assert 1 <= int(mask) <= 7
            F(coeff)  # parses as a rational
