"""End-to-end acceptance suite.

Seven criteria, each a single test that prints one pass/fail line:

  1. closed-form table reproduction by construction (exact rational equality)
  2. closed-form table reproduction by entropy-cone LP (exact, both securities)
  3. frozen display layouts of the two stitched generator matrices
  4. converse-bound audit of a >=20 scheme catalog, zero violations
  5. vector extension + bound truncation across contained structures
  6. dealer round trips and exhaustive leakage censuses vs. rank verdicts
  7. property suites: combination rank additivity, elemental membership,
     strong-implies-weak

Criteria 1 and 2 carry runtime budgets (2 and 30 minutes) that are asserted,
not just hoped for.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from mtss import dealer, field, verify
from mtss.cone import (
    EntropyVector,
    check_truncation,
    elemental_inequalities,
    extend_vector,
    lower_bound_ratio,
    membership_system,
    satisfies,
)
from mtss.schemes import (
    LinearScheme,
    VariableId,
    build_A,
    build_B,
    build_optimal,
    build_single_threshold,
    build_weak_block,
    combine,
    unify_field,
)
from mtss.structure import (
    EXACT,
    MEASURES,
    SECURITIES,
    SIGMA,
    SIGMA_AVG,
    STRONG,
    TAU,
    TAU_AVG,
    WEAK,
    RatioKind,
    bound_row,
    format_thresholds,
    optimal_ratio,
    structure,
    subset_of,
)

CENSUS_LIMIT = 10**6


@pytest.fixture
def announce(capsys):
    """Print one criterion verdict line even under output capture."""

    def _announce(num, failures, detail):
        verdict = "pass" if not failures else "FAIL"
        with capsys.disabled():
            print(f"criterion {num}: {verdict} - {detail}", flush=True)
        assert not failures, failures[:5]

    return _announce


def table_family(limit_seven=False):
    """Structures with N in {2,3,4}, at most two levels, at most 5 secrets."""
    out = []
    for n in (2, 3, 4):
        levels = range(2, n + 1)
        for t in levels:
            for m in range(1, 6):
                if limit_seven and n + m > 7:
                    continue
                out.append(structure(n, [(t, m)]))
        for t1 in levels:
            for t2 in levels:
                if t2 >= t1:
                    continue
                for m1 in range(1, 5):
                    for m2 in range(1, 6 - m1):
                        if limit_seven and n + m1 + m2 > 7:
                            continue
                        out.append(structure(n, [(t1, m1), (t2, m2)]))
    return out


def resolved_cells(sp):
    for measure in MEASURES:
        for security in SECURITIES:
            kind = RatioKind(measure, security)
            opt = optimal_ratio(sp, kind)
            if opt.status == EXACT:
                yield kind, opt.value


def test_criterion_1_table_by_construction(announce):
    start = time.time()
    failures = []
    cells = 0
    for sp in table_family():
        for kind, want in resolved_cells(sp):
            cells += 1
            scheme = build_optimal(sp, kind)
            got = verify.ratios(scheme, strict=False).value(kind.measure)
            if got != want:
                failures.append((format_thresholds(sp), kind, got, want))
            elif not verify.check_conditions(scheme, kind.security).passed:
                failures.append((format_thresholds(sp), kind, "verification failed"))
    elapsed = time.time() - start
    if elapsed >= 120:
        failures.append(("runtime budget", elapsed))
    announce(1, failures, f"{cells} resolved cells rebuilt and matched "
                          f"({elapsed:.1f}s)")


def test_criterion_2_table_by_lp(announce):
    start = time.time()
    failures = []
    cells = 0
    for sp in table_family(limit_seven=True):
        for kind, want in resolved_cells(sp):
            cells += 1
            got = lower_bound_ratio(sp, kind)
            if got != want:
                failures.append((format_thresholds(sp), kind, got, want))
    elapsed = time.time() - start
    if elapsed >= 1800:
        failures.append(("runtime budget", elapsed))
    announce(2, failures, f"{cells} resolved cells matched by cone LP "
                          f"({elapsed:.1f}s)")


def full_matrix(scheme):
    return scheme.columns(scheme.sp.variables)


def test_criterion_3_display_matrices(announce):
    failures = []

    b = build_B(3, (3, 4), (2, 1))
    expected_b = [
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        [1, 2, 3, 4, 0, 5, 1, 6, 2, 7, 3],
        [1, 4, 9, 5, 0, 3, 0, 3, 0, 5, 0],
        [1, 8, 5, 9, 0, 4, 0, 7, 0, 2, 0],
        [1, 5, 4, 3, 0, 9, 0, 9, 0, 3, 0],
    ]
    if (b.q, b.n_rows) != (11, 5):
        failures.append(("B field/rows", b.q, b.n_rows))
    if [b.width(v) for v in b.sp.variables] != [1, 1, 1, 1, 1, 2, 2, 2]:
        failures.append(("B widths",))
    if full_matrix(b).tolist() != expected_b:
        failures.append(("B layout", full_matrix(b).tolist()))
    if not verify.check_conditions(b, WEAK).passed:
        failures.append(("B weak verification",))

    a = build_A(3, (2, 3), 1)
    expected_a = [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 2, 3, 4, 5, 0, 6, 0],
        [1, 4, 2, 2, 4, 0, 1, 0],
    ]
    if (a.q, a.n_rows) != (7, 3):
        failures.append(("A field/rows", a.q, a.n_rows))
    if [a.width(v) for v in a.sp.variables] != [1, 1, 1, 1, 2, 2]:
        failures.append(("A widths",))
    if full_matrix(a).tolist() != expected_a:
        failures.append(("A layout", full_matrix(a).tolist()))
    if not verify.check_conditions(a, WEAK).passed:
        failures.append(("A weak verification",))

    announce(3, failures, "both stitched 5x11 and 3x8 layouts frozen and "
                          "weakly verified")


def build_catalog():
    """>=20 verified schemes: every construction plus seeded combinations.

    Returns (entries, combos): entries are (label, scheme, security) with the
    security level the scheme is known to satisfy; combos pair each combined
    scheme with the parts it was stacked from.
    """
    entries = [
        ("shamir-2-2", build_single_threshold(2, 2), STRONG),
        ("shamir-2-3", build_single_threshold(2, 3), STRONG),
        ("shamir-3-3", build_single_threshold(3, 3), STRONG),
        ("shamir-3-4", build_single_threshold(3, 4), STRONG),
        ("weak-block-3-2-2", build_weak_block(3, 2, 2), WEAK),
        ("weak-block-4-2-3", build_weak_block(4, 2, 3), WEAK),
        ("weak-block-4-3-2", build_weak_block(4, 3, 2), WEAK),
        ("stitched-A-3", build_A(3, (2, 3), 1), WEAK),
        ("stitched-A-4", build_A(4, (3, 5), 2), WEAK),
        ("stitched-B-3", build_B(3, (3, 4), (2, 1)), WEAK),
        ("stitched-B-4", build_B(4, (4, 5), (3, 1)), WEAK),
    ]
    for n, arrays, measure, security in [
        (3, [(3, 1), (2, 1)], SIGMA, STRONG),
        (3, [(2, 2)], SIGMA, WEAK),
        (3, [(2, 3)], SIGMA_AVG, WEAK),
        (4, [(3, 2), (2, 1)], SIGMA, STRONG),
        (4, [(4, 1), (2, 2)], TAU, STRONG),
        (4, [(3, 1)], TAU_AVG, WEAK),
        (3, [(3, 4), (2, 3)], SIGMA, WEAK),  # exercises the extra 3-party bound
    ]:
        sp = structure(n, arrays)
        scheme = build_optimal(sp, RatioKind(measure, security))
        label = f"optimal-{n}-{format_thresholds(sp)}-{measure}-{security}"
        entries.append((label, scheme, security))

    combos = []
    sp = structure(3, [(2, 2)])
    weak_parts = unify_field([
        build_weak_block(3, 2, 2),
        build_optimal(sp, RatioKind(SIGMA, WEAK)),
        build_optimal(sp, RatioKind(TAU, WEAK)),
    ])
    combos.append((combine(weak_parts), weak_parts, WEAK))
    combos.append((combine(weak_parts[:2]), weak_parts[:2], WEAK))
    sp = structure(3, [(3, 1), (2, 1)])
    strong_parts = unify_field([
        build_optimal(sp, RatioKind(SIGMA, STRONG)),
        build_optimal(sp, RatioKind(TAU, STRONG)),
    ])
    combos.append((combine(strong_parts), strong_parts, STRONG))
    sp = structure(2, [(2, 1)])
    pair_parts = unify_field([
        build_single_threshold(2, 2),
        build_optimal(sp, RatioKind(TAU, STRONG)),
    ])
    combos.append((combine(pair_parts), pair_parts, STRONG))
    for i, (combined, _, security) in enumerate(combos, 1):
        entries.append((f"combined-{i}", combined, security))
    return entries, combos


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def test_catalog_text_round_trip(catalog):
    """Reading a catalog scheme's text back gives the same fingerprint."""
    entries, _ = catalog
    assert len(entries) == 22
    for label, scheme, _ in entries:
        back = LinearScheme.from_text(scheme.to_text())
        assert back.fingerprint == scheme.fingerprint, label


def test_criterion_4_converse_audit(announce, catalog):
    entries, _ = catalog
    failures = []
    families_seen = set()
    if len(entries) < 20:
        failures.append(("catalog too small", len(entries)))
    for label, scheme, security in entries:
        if not verify.check_conditions(scheme, security).passed:
            failures.append((label, "verification failed"))
            continue
        for check in verify.audit_bounds(scheme, security):
            families_seen.add(check.bound)
            if not check.holds:
                failures.append((label, verify.render_check(check)))
    if "extra-n3" not in families_seen:
        failures.append(("extra 3-party bound never exercised",))
    announce(4, failures, f"{len(entries)} schemes audited, families "
                          f"{sorted(families_seen)}, zero violations")


SUBSET_PAIRS = [
    ((3, [(2, 1)]), (3, [(2, 2)])),
    ((3, [(2, 1)]), (3, [(2, 3)])),
    ((3, [(2, 2)]), (3, [(2, 3)])),
    ((3, [(3, 1)]), (3, [(3, 2)])),
    ((3, [(3, 1)]), (3, [(3, 1), (2, 1)])),
    ((3, [(2, 1)]), (3, [(3, 1), (2, 1)])),
    ((3, [(3, 1), (2, 1)]), (3, [(3, 2), (2, 1)])),
    ((3, [(3, 1), (2, 1)]), (3, [(3, 1), (2, 2)])),
    ((4, [(2, 1)]), (4, [(2, 2)])),
    ((4, [(3, 1)]), (4, [(3, 1), (2, 1)])),
]


def test_criterion_5_extension_and_truncation(announce):
    failures = []
    extensions = truncations = 0
    strong_only = ("share-sum", "strong-randomness")
    for small_args, big_args in SUBSET_PAIRS:
        small = structure(*small_args)
        big = structure(*big_args)
        assert subset_of(small, big)
        assert big.n_parties + big.n_secrets <= 6
        scheme = build_optimal(small, RatioKind(SIGMA, WEAK))
        x = EntropyVector.from_profile(verify.RankProfile(scheme))
        lifted = extend_vector(x, big)
        if not satisfies(lifted, membership_system(big, WEAK)):
            failures.append(("membership", small_args, big_args))
        extensions += 1
        rows = [(bound_row(big, name), STRONG if name in strong_only else WEAK)
                for name in ("dtb", "tvb", "tpb", "avg-share", *strong_only)]
        for k in range(1, big.k_levels + 1):
            rows.append((bound_row(big, "tsdb", k=k), WEAK))
            rows.append((bound_row(big, "tsb", k=k), WEAK))
        for row, security in rows:
            if not check_truncation(row, small, big, security):
                failures.append(("truncation", small_args, big_args, row, security))
            truncations += 1
    announce(5, failures, f"{extensions} lifted profiles in the big cone, "
                          f"{truncations} truncated bounds still valid")


def census_targets(scheme):
    targets = [[v] for v in scheme.secret_variables()]
    for k in range(1, scheme.sp.k_levels + 1):
        suffix = [v for v in scheme.secret_variables() if v.level >= k]
        if len(suffix) > 1:
            targets.append(suffix)
    return targets


def test_criterion_6_dealer(announce, catalog):
    entries, _ = catalog
    failures = []
    rng = np.random.default_rng(6)
    trials = 0
    for label, scheme, _ in entries:
        widths = [scheme.width(v) for v in scheme.secret_variables()]
        qualified = list(range(1, scheme.sp.threshold(1) + 1))
        for seed in range(100):
            vectors = [
                tuple(int(x) for x in rng.integers(0, scheme.q, w))
                for w in widths
            ]
            secrets = dealer.SecretAssignment.for_scheme(scheme, vectors)
            bundle = dealer.deal(scheme, secrets, seed=seed)
            got = dealer.reconstruct(scheme, bundle.restrict(qualified), k=1)
            if any(got[v] != secrets[v] for v in scheme.secret_variables()):
                failures.append((label, seed))
                break
            trials += 1

    censused = pairs = 0
    for label, scheme, _ in entries:
        if scheme.q**scheme.n_rows > CENSUS_LIMIT:
            continue
        censused += 1
        profile = verify.RankProfile(scheme)
        n = scheme.sp.n_parties
        for size in range(n + 1):
            for coalition in combinations(range(1, n + 1), size):
                avars = [VariableId.share(i) for i in coalition]
                for target in census_targets(scheme):
                    table = dealer.leakage_census(scheme, avars, target)
                    additive = profile.rank(avars + target) == profile.rank(
                        avars
                    ) + profile.rank(target)
                    if table.uniform != additive:
                        failures.append((label, coalition, target))
                    pairs += 1

    # the weak-only block scheme leaks the secret pair to one share
    wb = build_weak_block(3, 2, 2)
    report = verify.check_conditions(wb, STRONG)
    if report.passed or report.secure.witness is None:
        failures.append(("expected a strong-security witness",))
    else:
        witness = report.secure.witness
        held = [VariableId.share(i) for i in witness.shares]
        joint = dealer.leakage_census(wb, held, list(witness.secrets))
        if joint.uniform:
            failures.append(("witnessed pair looks uniform", witness))
        singles = [
            dealer.leakage_census(wb, held, [v]).uniform
            for v in witness.secrets
        ]
        if not all(singles):
            failures.append(("single secrets should stay hidden", witness))
    announce(6, failures, f"{trials} seeded round trips, {pairs} census/rank "
                          f"agreements over {censused} schemes, witnessed leak "
                          f"confirmed")


def test_criterion_7_property_suites(announce, catalog):
    entries, combos = catalog
    failures = []
    rng = np.random.default_rng(7)

    subsets = 0
    for combined, parts, _ in combos:
        # The combined scheme's own profile sums its parts' ranks, so the
        # whole rank is taken by eliminating its columns directly.
        part_profiles = [verify.RankProfile(p) for p in parts]
        variables = combined.sp.variables
        for _ in range(50):
            size = int(rng.integers(1, len(variables) + 1))
            picked = [
                variables[i]
                for i in rng.choice(len(variables), size=size, replace=False)
            ]
            want = sum(p.rank(picked) for p in part_profiles)
            if field.rank(combined.columns(picked), combined.q) != want:
                failures.append(("additivity", picked))
            subsets += 1

    elemental_checked = 0
    for label, scheme, _ in entries:
        n_vars = scheme.sp.n_parties + scheme.sp.n_secrets
        if n_vars > 8:
            continue
        vec = EntropyVector.from_profile(verify.RankProfile(scheme))
        if not satisfies(vec, elemental_inequalities(n_vars)):
            failures.append(("elemental", label))
        elemental_checked += 1

    ordered = 0
    for label, scheme, _ in entries:
        if verify.check_conditions(scheme, STRONG).passed:
            ordered += 1
            if not verify.check_conditions(scheme, WEAK).passed:
                failures.append(("strong without weak", label))

    announce(7, failures, f"{subsets} additive subsets, {elemental_checked} "
                          f"elemental profiles, {ordered} strong schemes "
                          f"imply weak")
