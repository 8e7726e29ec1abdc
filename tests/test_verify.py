"""Verifier, ratio, and bound-audit tests."""

import dataclasses
import gc
import hashlib
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, groupby, permutations, product, tee

import numpy as np
import pytest

from mtss import field, schemes, verify
from mtss.schemes import (
    LinearScheme,
    VariableId,
    build_A,
    build_B,
    build_optimal,
    build_single_threshold,
    build_weak_block,
    combine,
    embed,
)
from mtss.structure import (
    SIGMA,
    SIGMA_AVG,
    STRONG,
    TAU,
    TAU_AVG,
    WEAK,
    RatioKind,
    bound_row,
    conditions,
    parse_thresholds,
    structure,
)
from mtss.verify import (
    ConditionResult,
    RankProfile,
    VerificationReport,
    Witness,
    audit_bounds,
    check_conditions,
    ratios,
    render_check,
    render_report,
)


def sigma_optimal(sp):
    return build_optimal(sp, RatioKind(SIGMA, WEAK))


def stacked(sp, q, pairs, **kw):
    """The scheme over F_q whose blocks are the (variable, block) pairs, in
    canonical variable order; each block is a 2-d array or nested lists."""
    variables, blocks = zip(*pairs)
    assert variables == sp.variables
    blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
    return LinearScheme(sp, q, np.hstack(blocks), [b.shape[1] for b in blocks], **kw)


# -- rank profile -----------------------------------------------------------


def test_joint_rank_examples():
    s = build_weak_block(3, 2, 2)
    p = RankProfile(s)
    assert p.rank([]) == 0
    assert p.rank(s.sp.variables) == 2
    assert p.rank([VariableId.secret(1, 1), VariableId.share(1)]) == 2


def test_joint_rank_unknown_variable():
    p = RankProfile(build_weak_block(3, 2, 2))
    with pytest.raises(KeyError, match="unknown variable"):
        p.rank([VariableId.secret(5, 1)])
    with pytest.raises(KeyError, match="unknown variable"):
        p.mask([VariableId.share(1), VariableId.share(4)])


def test_rank_takes_masks():
    """Bit i of a mask is `scheme.sp.variables[i]`; a mask outside the
    scheme's variables is a ValueError."""
    s = build_B(3, (3, 4), (2, 1))
    p = RankProfile(s)
    vs = s.sp.variables
    for mask in range(1 << len(vs)):
        x = [v for i, v in enumerate(vs) if mask >> i & 1]
        assert p.mask(x) == mask
        assert p.rank(mask) == p.rank(x) == field.rank(s.columns(x), s.q)
    for bad in (-1, -(1 << len(vs)), 1 << len(vs), (1 << len(vs)) | 1):
        with pytest.raises(ValueError, match="not a set of this scheme's variables"):
            p.rank(bad)


def test_rank_profile_is_polymatroidal():
    # monotone and submodular on sampled subsets: schemes are entropic points
    s = build_B(3, (3, 4), (2, 1))
    p = RankProfile(s)
    rng = random.Random(7)
    vs = s.sp.variables
    for _ in range(80):
        a = rng.sample(vs, rng.randint(0, len(vs)))
        b = rng.sample(vs, rng.randint(0, len(vs)))
        ra, rb = p.rank(a), p.rank(b)
        union = set(a) | set(b)
        inter = set(a) & set(b)
        assert p.rank(union) >= max(ra, rb)
        assert ra + rb >= p.rank(union) + p.rank(inter)


def test_rank_profile_concurrent_queries():
    """Concurrent rank queries, and concurrent first reads of the share
    entries of the rank tables of a fresh leaf and of a fresh composed
    profile that sums it, agree with serial ones; each leaf eliminates each
    share set once."""
    s = build_B(3, (3, 4), (2, 1))
    vs = s.sp.variables
    rng = random.Random(3)
    queries = [rng.sample(vs, rng.randint(0, len(vs))) for _ in range(120)]
    serial = [RankProfile(s).rank(x) for x in queries]
    shared = RankProfile(s)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(shared.rank, queries))
    assert parallel == serial

    sp = structure(4, [(3, 1), (2, 1)])
    every = range(2**4)

    def fresh():
        a = embed(build_single_threshold(3, 4), sp)
        b = embed(build_single_threshold(2, 4), sp)
        return combine([a, b, a]), a.leaves[0][0], b.leaves[0][0]

    def share_entries(profile):
        ns = profile.sp.n_secrets
        return [profile[m << ns] for m in every]

    composed, _, leaf = fresh()
    serial = [share_entries(p) for p in (composed.profile, leaf.profile)]
    start = threading.Barrier(8)

    def first_reads(profile):
        start.wait(timeout=60)
        return share_entries(profile)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                composed, *leaves = fresh()
                before = [p.profile.eliminations for p in leaves]
                profiles = [composed.profile, leaves[1].profile] * 4
                tables = list(pool.map(first_reads, profiles, timeout=60))
                for i in (0, 1):
                    assert all(t == serial[i] for t in tables[i::2])
                # A share set ranked twice would count two eliminations;
                # the empty set needs none.
                after = [p.profile.eliminations for p in leaves]
                assert [y - x for x, y in zip(before, after)] == [len(every) - 1] * 2
            vs = composed.sp.variables
            queries = [rng.sample(vs, rng.randint(0, len(vs))) for _ in range(40)]
            ranks = list(pool.map(composed.profile.rank, queries, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert ranks == [field.rank(composed.columns(x), composed.q) for x in queries]


def test_profile_is_shared_per_scheme_object(monkeypatch):
    """check_conditions fills the scheme's one profile, so the precondition
    inside audit_bounds is all memo hits; a copy read back from text has a
    profile of its own."""
    searched = build_B(3, (3, 4), (2, 1))
    ranks = []
    real_rank = field.rank
    monkeypatch.setattr(field, "rank", lambda *a: ranks.append(1) or real_rank(*a))
    # The field search verified this very object already.
    assert check_conditions(searched, WEAK).passed and not ranks
    s = LinearScheme.from_text(searched.to_text())
    assert check_conditions(s, WEAK).passed
    assert ranks and s.profile is s.profile
    during = []
    real_check = verify.check_conditions

    def counted_check(*args):
        before = len(ranks)
        report = real_check(*args)
        during.append(len(ranks) - before)
        return report

    monkeypatch.setattr(verify, "check_conditions", counted_check)
    audit_bounds(s, WEAK)
    assert during == [0]
    copy = LinearScheme.from_text(s.to_text())
    assert copy.profile is not s.profile
    before = len(ranks)
    assert real_check(copy, WEAK).passed
    assert len(ranks) > before


def _table_family(parties):
    """The acceptance table's structures with N in `parties`: at most two
    levels, at most 5 secrets."""
    out = []
    for n in parties:
        for t in range(2, n + 1):
            out += [structure(n, [(t, m)]) for m in range(1, 6)]
            for t2 in range(2, t):
                for m1 in range(1, 5):
                    out += [structure(n, [(t, m1), (t2, m2)]) for m2 in range(1, 6 - m1)]
    return out


KINDS = [RatioKind(m, s) for m in (SIGMA, SIGMA_AVG, TAU, TAU_AVG) for s in (STRONG, WEAK)]


@pytest.mark.parametrize(
    "parties, masks", [((2, 3), None), ((4,), 200)], ids=["N2-3-all", "N4-200"]
)
def test_composed_profile_ranks_match_elimination(parties, masks):
    """Every build_optimal cell answers through its parts; each rank it gives
    equals an elimination of the scheme's own columns (every mask for
    N <= 3, 200 seeded masks per cell for N = 4)."""
    rng = random.Random(8)
    cells = 0
    for sp in _table_family(parties):
        for kind in KINDS:
            s = build_optimal(sp, kind)
            assert s.leaves
            vs = s.sp.variables
            if masks is None:
                picks = range(2 ** len(vs))
            else:
                picks = [rng.getrandbits(len(vs)) for _ in range(masks)]
            for mask in picks:
                x = [v for i, v in enumerate(vs) if mask >> i & 1]
                assert s.profile.rank(x) == field.rank(s.columns(x), s.q), (sp, kind, x)
            cells += 1
    assert cells == 8 * len(_table_family(parties))


def test_verification_reads_no_composed_block(monkeypatch):
    """Ratios, both checks and the audits of every build_optimal cell with
    N <= 4 read only widths, variables and leaves: neither the scheme nor
    a part it combines has assembled its matrix afterwards."""
    combined = []
    real = schemes.combine
    monkeypatch.setattr(
        schemes, "combine", lambda parts: combined.append(list(parts)) or real(combined[-1])
    )
    cells = 0
    for sp in _table_family((2, 3, 4)):
        for kind in KINDS:
            combined.clear()
            s = build_optimal(sp, kind)
            ratios(s, strict=False)
            for sec in (STRONG, WEAK):
                if check_conditions(s, sec).passed:
                    audit_bounds(s, sec)
            for scheme in (s, *(p for parts in combined for p in parts)):
                assert scheme.leaves and "matrix" not in vars(scheme), (sp, kind)
            cells += 1
    assert cells == 8 * len(_table_family((2, 3, 4)))


def test_share_tables_match_elimination():
    """Every build_optimal cell with N <= 4 sums its leaves' share ranks,
    and its text copy (a leaf) ranks its own; in both, the rank table's
    entry for share mask A (bit i-1 for share i, shifted past the secrets)
    is the eliminated rank of the shares P_i with bit i-1 set in A, and a
    mask outside the scheme is refused and not kept."""
    cells = 0
    for sp in _table_family((2, 3, 4)):
        n, ns = sp.n_parties, sp.n_secrets
        for kind in KINDS:
            s = build_optimal(sp, kind)
            copy = LinearScheme.from_text(s.to_text())
            want = [
                field.rank(
                    s.columns([VariableId.share(i) for i in range(1, n + 1) if a >> (i - 1) & 1]),
                    s.q,
                )
                for a in range(2**n)
            ]
            for scheme in (s, copy):
                table = scheme.profile
                assert [table[a << ns] for a in range(2**n)] == want, (sp, kind)
            cells += 1
    assert cells == 8 * len(_table_family((2, 3, 4)))
    every = 2 ** (n + ns)
    for scheme in (s, copy):
        for bad in (-1, every, every | 1):
            with pytest.raises(ValueError, match="not a set of this scheme's variables"):
                scheme.profile[bad]
            assert bad not in scheme.profile


def test_checked_schemes_are_freed_without_the_cycle_collector():
    """A profile holds no reference back to its scheme, so a leaf built
    directly, its text copy and a composed `build_optimal` result that have
    been checked, measured and audited are freed by reference counting, and
    leave nothing for the cycle collector."""
    leaf = build_B(3, (3, 4), (2, 1))
    checked = [
        (leaf, WEAK),
        (LinearScheme.from_text(leaf.to_text()), WEAK),
        (build_optimal(structure(4, [(3, 2), (2, 1)]), RatioKind(SIGMA, STRONG)), STRONG),
    ]
    assert checked[2][0].leaves
    del leaf
    gc.collect()
    gc.disable()
    try:
        for scheme, security in checked:
            assert check_conditions(scheme, security).passed
            assert ratios(scheme).sigma
            assert all(c.holds for c in audit_bounds(scheme, security))
        refs = [weakref.ref(scheme) for scheme, _ in checked]
        del checked, scheme
        assert [ref() for ref in refs] == [None] * 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_audit_reads_only_the_share_sets_it_checks():
    """A leaf's rank table holds only the share sets an audit read when the
    audit's precondition is answered from a kept report: for thresholds 7
    and 6 of 8 shares, sets of 5 to 8 shares, and with cap 1 the four ranks
    of the first secret-size check."""
    sp = structure(8, [(7, 1), (6, 1)])
    text = build_optimal(sp, RatioKind(SIGMA, WEAK)).to_text()
    full = 2**8 - 1
    ns = sp.n_secrets
    for cap, sizes in ((1, {6, 7, 8}), (verify.DEFAULT_AUDIT_CAP, {5, 6, 7, 8})):
        s = LinearScheme.from_text(text)
        # The precondition's report, made on another copy and kept on this
        # profile, so no scan fills this table.
        s.profile.reports[WEAK, False] = check_conditions(LinearScheme.from_text(text), WEAK)
        assert all(c.holds for c in audit_bounds(s, WEAK, cap=cap))
        table = s.profile
        assert all(m >> ns << ns == m for m in table)
        assert {bin(m).count("1") for m in table if m} == sizes
        if cap == 1:
            assert sorted(table) == [0] + [(full ^ x) << ns for x in (3, 2, 1, 0)]


@pytest.mark.parametrize(
    "parties, sample", [((2, 3), None), ((4,), 90)], ids=["N2-3-all", "N4-sample"]
)
def test_composed_audits_match_text_copies(parties, sample):
    """The audit of a composed scheme, whose rank table sums its leaves',
    equals that of its text copy, which eliminates: every passing (cell,
    security) for N <= 3, and those of 90 seeded cells of 360 for N = 4."""
    cells = [(sp, kind) for sp in _table_family(parties) for kind in KINDS]
    if sample is not None:
        cells = random.Random(19).sample(cells, sample)
    audits = 0
    for sp, kind in cells:
        s = build_optimal(sp, kind)
        copy = LinearScheme.from_text(s.to_text())
        for sec in (STRONG, WEAK):
            if check_conditions(s, sec).passed:
                assert audit_bounds(s, sec) == audit_bounds(copy, sec), (sp, kind, sec)
                audits += 1
    assert audits >= len(cells)


def test_combined_check_makes_no_elimination_of_its_own():
    """The combined scheme's check is answered from its parts' reports, so
    its own rank table stays empty; its audit sums its leaves' entries of
    the share sets it reads, and its own profile eliminates nothing."""
    s = build_optimal(structure(4, [(3, 2), (2, 1)]), RatioKind(SIGMA, STRONG))
    assert len(s.leaves) == 3
    assert check_conditions(s, STRONG).passed
    assert dict(s.profile) == {0: 0} and s.profile.eliminations == 0
    # Its audit reads share ranks summed from its leaves' tables.
    assert all(c.holds for c in audit_bounds(s, STRONG))
    ns = s.sp.n_secrets
    assert len(s.profile) > 1
    assert all(m >> ns << ns == m for m in s.profile)
    assert s.profile.eliminations == 0
    # Read back from text, the same scheme is a leaf and eliminates.
    copy = LinearScheme.from_text(s.to_text())
    assert copy.leaves == ()
    assert check_conditions(copy, STRONG).passed
    assert copy.profile.eliminations > 0


@pytest.mark.parametrize(
    "parties, sample", [((2, 3), None), ((4,), 90)], ids=["N2-3-all", "N4-sample"]
)
def test_reports_through_links_match_text_copies(parties, sample, monkeypatch):
    """Every build_optimal cell and each part it combines is checked through
    its leaves; each report, failing witnesses included, equals that of a
    text copy, which scans every coalition (every cell for N <= 3, 90 seeded
    cells of 360 for N = 4)."""
    combined = []
    real = schemes.combine
    monkeypatch.setattr(
        schemes, "combine", lambda parts: combined.append(list(parts)) or real(combined[-1])
    )
    keys = [(sec, ex) for sec in (STRONG, WEAK) for ex in (False, True)]
    cells = [(sp, kind) for sp in _table_family(parties) for kind in KINDS]
    if sample is not None:
        cells = random.Random(15).sample(cells, sample)
    reports = fails = 0
    for sp, kind in cells:
        combined.clear()
        s = build_optimal(sp, kind)
        for scheme in dict.fromkeys((s, *(p for parts in combined for p in parts))):
            assert scheme.leaves, (sp, kind)
            copy = LinearScheme.from_text(scheme.to_text())
            for key in keys:
                got = check_conditions(scheme, *key)
                want = check_conditions(copy, *key)
                assert got == want, (sp, kind, key)
                reports += 1
                if not got.passed:
                    fails += 1
                    assert any(
                        r.witness is not None
                        for r in (got.independence, got.decodable, got.secure)
                    )
    assert fails > 0 and fails < reports


def test_links_are_set_only_by_embed_and_combine():
    """The constructor takes no `leaves`.  A `dataclasses.replace` copy and
    a text copy of a combined scheme have none, so they scan, and they give
    the combined scheme's reports, failing witnesses included."""
    a = build_single_threshold(2, 3)
    fields = dict(sp=a.sp, q=a.q, matrix=a.matrix, widths=a.widths)
    with pytest.raises(TypeError):
        LinearScheme(**fields, leaves=((a, (0, 1, 2, 3)),))
    with pytest.raises(TypeError):
        LinearScheme(**fields, leaves=((a, (0, 1, 2, 3)), (a, (0, 1, 2, 3))))
    e = embed(a, structure(3, [(3, 1), (2, 1)]))
    assert e.leaves == ((a, (-1, 0, 1, 2, 3)),)
    s = build_optimal(structure(3, [(3, 2), (2, 1)]), RatioKind(SIGMA, WEAK))
    assert len(s.leaves) == 2
    keys = [(sec, ex) for sec in (STRONG, WEAK) for ex in (False, True)]
    for copy in (dataclasses.replace(s), LinearScheme.from_text(s.to_text())):
        assert copy.leaves == ()
        for key in keys:
            assert check_conditions(copy, *key) == check_conditions(s, *key), key
        assert copy.profile.eliminations > 0
    assert not check_conditions(s, STRONG).passed


def test_links_that_do_not_keep_the_conditions_are_not_used():
    """Placements that embed or combine would refuse, or that break a
    condition, cannot carry links: the constructor takes none, so each is
    scanned, and its report equals its text copy's."""
    a = build_single_threshold(2, 3)
    sec = VariableId.secret(1, 1)
    share = [None] + list(a.sp.variables[a.sp.n_secrets :])
    empty = np.zeros((a.n_rows, 0), dtype=np.int64)

    def unlinked(sp, blocks, leaves):
        with pytest.raises(TypeError):
            stacked(sp, a.q, blocks, leaves=leaves)
        return stacked(sp, a.q, blocks)

    def shares(order=(1, 2, 3)):
        return tuple((share[i], a.columns([share[j]])) for i, j in zip((1, 2, 3), order))

    two_levels = structure(3, [(3, 1), (2, 1)])
    two_secrets = structure(3, [(2, 2)])
    # Parts of threshold 3 stacked under a structure of threshold 2.
    b = build_single_threshold(3, 3)
    stack = combine([b, b])
    cases = {
        "secret moved to another threshold": unlinked(
            two_levels,
            ((sec, a.columns([sec])), (VariableId.secret(2, 1), empty)) + shares(),
            ((a, (0, -1, 1, 2, 3)),),
        ),
        "one source block on two slots": unlinked(
            two_secrets,
            ((sec, a.columns([sec])), (VariableId.secret(1, 2), a.columns([sec]))) + shares(),
            ((a, (0, 0, 1, 2, 3)),),
        ),
        "two shares swapped": unlinked(
            a.sp, ((sec, a.columns([sec])),) + shares((2, 1, 3)), ((a, (0, 2, 1, 3)),)
        ),
        "a share on a secret slot": unlinked(
            a.sp, ((sec, a.columns([share[1]])),) + shares(), ((a, (1, 1, 2, 3)),)
        ),
        "a share emptied": unlinked(
            a.sp,
            ((sec, a.columns([sec])),) + shares()[:2] + ((share[3], empty),),
            ((a, (0, 1, 2, -1)),),
        ),
        "parts on another structure": unlinked(
            structure(3, [(2, 1)]),
            tuple((v, stack.columns([v])) for v in stack.sp.variables),
            stack.leaves,
        ),
    }
    fails = set()
    for name, s in cases.items():
        assert s.leaves == (), name
        copy = LinearScheme.from_text(s.to_text())
        for security in (STRONG, WEAK):
            for exhaustive in (False, True):
                report = check_conditions(s, security, exhaustive)
                assert report == check_conditions(copy, security, exhaustive), name
                if not report.passed:
                    fails.add(name)
    assert fails == set(cases) - {"two shares swapped"}
    # The placements that embed and combine make do record their leaves.
    assert embed(a, structure(3, [(3, 1), (2, 1)])).leaves[0][0] is a
    assert [leaf for leaf, _ in stack.leaves] == [b, b]


def test_embeds_of_one_construction_share_its_memo():
    """m embeds of one construction eliminate no more than its full rank
    table, and less than the same embeds read back from text."""
    block = build_weak_block(4, 2, 2)
    sp = structure(4, [(2, 4)])
    embeds = [
        embed(block, sp, place={(1, 1): (1, a), (1, 2): (1, b)})
        for a, b in combinations(range(1, 5), 2)
    ]
    copies = [LinearScheme.from_text(e.to_text()) for e in embeds]
    for e, c in zip(embeds, copies):
        assert e.leaves[0][0] is block
        assert check_conditions(e, WEAK, exhaustive=True) == check_conditions(
            c, WEAK, exhaustive=True
        )
    assert all(e.profile.eliminations == 0 for e in embeds)
    shared = block.profile.eliminations
    assert 0 < shared <= 2 ** len(block.sp.variables) - 1
    assert shared < sum(c.profile.eliminations for c in copies)


# -- condition checks -------------------------------------------------------


# sha256 of the reports of every build_optimal cell with N <= 3 (STRONG and
# WEAK, lazy and exhaustive), failing witnesses included, as made by the
# variable-list check that preceded masks and report memos.
REPORTS_N3_SHA256 = (
    "ee5596ceaa74ccb272c83769ff0cf1503f5b68e8d2afb5b42cf756355eef07f3"
)


def test_check_reports_golden():
    h = hashlib.sha256()
    reports = fails = 0
    for sp in _table_family((2, 3)):
        for kind in KINDS:
            s = build_optimal(sp, kind)
            for security in (STRONG, WEAK):
                for exhaustive in (False, True):
                    report = check_conditions(s, security, exhaustive)
                    reports += 1
                    fails += not report.passed
                    h.update(repr(report).encode() + b"\n")
    assert (reports, fails) == (800, 168)
    assert h.hexdigest() == REPORTS_N3_SHA256


def test_report_memo_matches_text_copy():
    """In every order of asking the four (security, exhaustive) keys, each
    memoized report equals that of a fresh text copy, and asking again
    reads no new rank."""
    keys = [(sec, ex) for sec in (STRONG, WEAK) for ex in (False, True)]
    cells = [
        (structure(3, [(3, 1), (2, 2)]), RatioKind(SIGMA, WEAK)),
        (structure(4, [(3, 2), (2, 1)]), RatioKind(SIGMA, STRONG)),
        (structure(4, [(4, 1), (2, 2)]), RatioKind(TAU, WEAK)),
    ]
    fails = 0
    for sp, kind in cells:
        text = build_optimal(sp, kind).to_text()
        want = {key: check_conditions(LinearScheme.from_text(text), *key) for key in keys}
        fails += sum(not r.passed for r in want.values())
        for order in permutations(keys):
            s = build_optimal(sp, kind)
            got = {key: check_conditions(s, *key) for key in order}
            assert got == want, (sp, kind, order)
            before = len(s.profile)
            assert all(check_conditions(s, *key) is got[key] for key in order)
            assert len(s.profile) == before
    assert fails > 0


def test_weak_block_passes_weak_fails_strong():
    s = build_weak_block(3, 2, 2)
    assert check_conditions(s, WEAK).passed
    rep = check_conditions(s, STRONG)
    assert not rep.passed
    assert rep.independence.ok and rep.decodable.ok and not rep.secure.ok
    w = rep.secure.witness
    assert w.condition == "secure"
    assert len(w.shares) == 1 and len(w.secrets) == 2
    assert (w.got, w.want) == (2, 3)


def test_exhaustive_enumeration_agrees():
    for s, sec in [
        (build_weak_block(3, 2, 2), WEAK),
        (build_single_threshold(3, 4), STRONG),
        (build_B(3, (3, 4), (2, 1)), WEAK),
    ]:
        lazy = check_conditions(s, sec)
        full = check_conditions(s, sec, exhaustive=True)
        assert lazy.passed and full.passed
        assert full.secure.checks >= lazy.secure.checks


_GROUPS = {"C0": "independence", "C1": "decodable", "C2": "secure", "C3": "secure"}


def full_scan(scheme, security, exhaustive, ranks=None):
    """The reference check: every coalition of every checked size, in
    `combinations` order, each rank an elimination of its columns, kept in
    `ranks` by mask (secret i is bit i, share j bit n_secrets + j - 1).
    Returns the report and the masks it ranked."""
    sp, n, ns = scheme.sp, scheme.sp.n_parties, scheme.sp.n_secrets
    ranks = {} if ranks is None else ranks
    read = set()

    def rk(mask):
        read.add(mask)
        if mask not in ranks:
            vs = [v for i, v in enumerate(sp.variables) if mask >> i & 1]
            ranks[mask] = field.rank(scheme.columns(vs), scheme.q)
        return ranks[mask]

    def scan(group, entries):
        checks = 0
        for tag, secrets, size in entries:
            sec = sum(1 << i for i in secrets)
            if tag == "C1":
                extra, sizes = 0, range(size, n + 1)
            else:
                extra = rk(sec) if tag == "C2" else sum(scheme.widths[i] for i in secrets)
                sizes = range(size + 1) if exhaustive else (size,)
            for a in (a for s in sizes for a in combinations(range(1, n + 1), s)):
                checks += 1
                pa = sum(1 << (ns + i - 1) for i in a)
                got, want = rk(sec | pa), rk(pa) + extra
                if got != want:
                    names = tuple(sp.variables[i] for i in secrets)
                    return ConditionResult(False, checks, Witness(group, a, names, got, want))
        return ConditionResult(True, checks)

    entries = conditions(sp, security)
    results = {
        group: scan(group, found) for group, found in groupby(entries, lambda e: _GROUPS[e[0]])
    }
    return VerificationReport(security, **results), read


# sha256 of the concatenated reprs of the 840 window reports of
# `test_window_reports_match_the_full_scan`, in its loop order, as made by
# the scan of every coalition that preceded one coalition per size.
WINDOW_REPORTS_SHA256 = "635b7f2dc7764b63e83ae150c3fc3342a870bd6a937ab3200c14ae2b5af0ad91"


def test_window_reports_match_the_full_scan():
    """Every `build_weak_block(N, t, m)` with 2 <= t <= N <= 7 and
    1 <= m <= 5, and its text copy, is a window: at both securities and
    both ways of `exhaustive`, its report, checks and witness included,
    equals the full scan's, and it ranks only the first coalition of each
    size, (1, ..., s)."""
    h = hashlib.sha256()
    reports = fails = 0
    for n in range(2, 8):
        for t in range(2, n + 1):
            for m in range(1, 6):
                block = build_weak_block(n, t, m)
                assert dataclasses.replace(block).profile.window
                ranks = {}  # the copy's matrix is the block's
                for s in (block, LinearScheme.from_text(block.to_text())):
                    assert s.profile.window
                    for security in (STRONG, WEAK):
                        for exhaustive in (False, True):
                            got = check_conditions(s, security, exhaustive)
                            want = full_scan(s, security, exhaustive, ranks)[0]
                            assert got == want, (n, t, m)
                            h.update(repr(got).encode())
                            reports += 1
                            fails += not got.passed
                    ns = s.sp.n_secrets
                    assert all((x >> ns) & ((x >> ns) + 1) == 0 for x in s.profile), (n, t, m)
    assert (reports, fails) == (840, 336)
    assert h.hexdigest() == WINDOW_REPORTS_SHA256


def test_other_matrices_are_scanned_whole():
    """A matrix that is not a window, or a window whose shares differ in
    width, ranks every coalition the full scan ranks, and its reports equal
    the full scan's."""
    w = build_weak_block(5, 3, 2)
    scaled = w.matrix.copy()
    scaled[:, 3] = scaled[:, 3] * 2 % w.q
    v = schemes.vandermonde(3, range(1, 7), 11)
    composed = build_optimal(structure(3, [(3, 2), (2, 1)]), RatioKind(SIGMA, WEAK))
    cases = {
        "one column scaled by 2": LinearScheme(w.sp, w.q, scaled, w.widths),
        # shares 4 and 5 on one element: any 3 shares with both miss rank 3
        "a repeated element": LinearScheme(
            structure(5, [(3, 1)]), 11, v[:, [0, 1, 2, 3, 4, 4]], (1,) * 6
        ),
        "two rows swapped": LinearScheme(w.sp, w.q, w.matrix[[1, 0, 2]], w.widths),
        # share 4 is two columns, so 2 shares with it reach rank 3 alone
        "unequal share widths": LinearScheme(structure(4, [(3, 1)]), 11, v, (1, 1, 1, 1, 2)),
        # a width-0 secret: every coalition passes, so the scan ranks them all
        "a 1-row matrix": LinearScheme(structure(4, [(2, 1)]), 5, [[1, 1, 1, 1]], (0, 1, 1, 1, 1)),
        "a composed scheme's text copy": LinearScheme.from_text(composed.to_text()),
        "an A leaf": build_A(4, (3, 4), 1),
        "a B leaf": build_B(3, (3, 4), (2, 1)),
    }
    fails = set()
    for name, s in cases.items():
        for security in (STRONG, WEAK):
            for exhaustive in (False, True):
                report = check_conditions(s, security, exhaustive)
                want, ranked = full_scan(s, security, exhaustive)
                assert report == want, (name, security, exhaustive)
                assert ranked <= set(s.profile), (name, security, exhaustive)
                if not report.passed:
                    fails.add(name)
        assert not s.profile.window, name
    assert {"a repeated element", "unequal share widths"} <= fails
    assert "a 1-row matrix" not in fails


def test_unknown_security_level():
    with pytest.raises(ValueError, match="security"):
        check_conditions(build_weak_block(3, 2, 2), "paranoid")


def _toy_scheme(share_cols):
    sp = structure(2, [(2, 1)])
    blocks = (
        (VariableId.secret(1, 1), [[1], [0]]),
        (VariableId.share(1), [[share_cols[0][0]], [share_cols[0][1]]]),
        (VariableId.share(2), [[share_cols[1][0]], [share_cols[1][1]]]),
    )
    return stacked(sp, 5, blocks)


def test_decodable_failure_witness():
    # both shares miss the secret's coordinate: nothing can ever be decoded
    s = _toy_scheme([(0, 1), (0, 1)])
    rep = check_conditions(s, WEAK)
    assert rep.secure.ok and not rep.decodable.ok
    w = rep.decodable.witness
    assert w.condition == "decodable"
    assert w.shares == (1, 2)
    assert (w.got, w.want) == (2, 1)


def test_secure_failure_witness():
    # share 1 equals the secret exactly
    s = _toy_scheme([(1, 0), (0, 1)])
    rep = check_conditions(s, WEAK)
    assert rep.decodable.ok and not rep.secure.ok
    assert rep.secure.witness.shares == (1,)


def test_strong_implies_weak():
    for s in [
        build_single_threshold(2, 4),
        combine([build_single_threshold(3, 3), build_single_threshold(3, 3)]),
        build_optimal(structure(3, [(3, 1), (2, 2)]), RatioKind(SIGMA, STRONG)),
    ]:
        assert check_conditions(s, STRONG).passed
        assert check_conditions(s, WEAK).passed


def test_render_report_mentions_witness():
    rep = check_conditions(build_weak_block(3, 2, 2), STRONG)
    text = render_report(rep)
    assert "secure: FAIL" in text and "witness" in text and "overall: FAIL" in text
    ok = render_report(check_conditions(build_weak_block(3, 2, 2), WEAK))
    assert "overall: pass" in ok


# -- ratios -----------------------------------------------------------------


def test_ratios_weak_block():
    scheme = build_weak_block(3, 2, 2)
    r = ratios(scheme)
    assert (r.sigma, r.sigma_avg, r.tau, r.tau_avg) == (1, 1, 0, 0)
    assert scheme.widths == (1, 1, 1, 1, 1)


def test_ratios_strong_combination():
    s = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    r = ratios(s)
    assert r.sigma == 2 and r.tau == 3


def test_ratios_B_scheme():
    r = ratios(build_B(3, (3, 4), (2, 1)))
    assert r.sigma_avg == 2
    assert r.sigma == 2 and r.tau == 0 and r.tau_avg == 0


def test_ratios_rejects_dummy_secrets():
    s = embed(build_weak_block(3, 2, 2), structure(3, [(3, 1), (2, 2)]))
    with pytest.raises(ValueError, match="zero-length secret"):
        ratios(s)
    r = ratios(s, strict=False)
    assert r.sigma is None and r.tau is None
    assert r.sigma_avg == Fraction(3, 2)


def test_ratios_value_accessor():
    r = ratios(build_weak_block(3, 2, 2))
    assert r.value("sigma") == 1 and r.value("tau_avg") == 0
    with pytest.raises(ValueError, match="unknown measure"):
        r.value("entropy")


# -- bound audits -----------------------------------------------------------


def test_audit_requires_valid_scheme():
    with pytest.raises(ValueError, match="precondition: scheme invalid"):
        audit_bounds(build_weak_block(3, 2, 2), STRONG)


def test_audit_dtb_tight_on_two_level_optimum():
    s = sigma_optimal(structure(3, [(3, 1), (2, 1)]))
    checks = [c for c in audit_bounds(s, WEAK) if c.bound == "dtb"]
    assert checks and all(c.holds for c in checks)
    assert all(c.lhs == c.rhs == 2 for c in checks)


def test_audit_tpb_tight_on_packed_optimum():
    s = sigma_optimal(structure(3, [(2, 3)]))
    checks = [c for c in audit_bounds(s, WEAK) if c.bound == "tpb"]
    assert checks and all(c.lhs == c.rhs == 6 for c in checks)


def test_audit_tvb_tight_on_B():
    s = build_B(3, (3, 4), (2, 1))
    checks = [c for c in audit_bounds(s, WEAK) if c.bound == "tvb"]
    assert checks and all(c.lhs == c.rhs == 5 for c in checks)


def test_audit_families_by_security():
    strong_scheme = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    strong_ids = {c.bound for c in audit_bounds(strong_scheme, STRONG)}
    assert {"share-sum", "strong-randomness", "dtb", "tvb", "tsb", "tsdb", "tpb"} <= strong_ids
    weak_ids = {c.bound for c in audit_bounds(strong_scheme, WEAK)}
    assert "share-sum" not in weak_ids and "strong-randomness" not in weak_ids


def test_audit_extra_bound_applies_only_on_matching_shape():
    s = sigma_optimal(structure(3, [(3, 4), (2, 3)]))
    checks = [c for c in audit_bounds(s, WEAK) if c.bound == "extra-n3"]
    assert len(checks) == 12  # doubled secret in [4] x doubled share in [3]
    assert all(c.holds for c in checks)
    other = sigma_optimal(structure(4, [(3, 4), (2, 3)]))
    assert not any(c.bound == "extra-n3" for c in audit_bounds(other, WEAK))
    small = sigma_optimal(structure(3, [(3, 4), (2, 2)]))
    assert not any(c.bound == "extra-n3" for c in audit_bounds(small, WEAK))


def test_audit_tsdb_with_threshold_equal_to_n():
    # top threshold == N: the k=1 instance uses the stated reduced form
    s = sigma_optimal(structure(3, [(3, 1), (2, 1)]))
    checks = [c for c in audit_bounds(s, WEAK) if c.bound == "tsdb"]
    ks = {dict(c.params)["k"] for c in checks}
    assert ks == {1, 2}
    assert all(c.holds for c in checks)


def test_audit_zero_violations_on_catalog():
    catalog = [
        (build_single_threshold(2, 4), STRONG),
        (build_A(3, (2, 3), 1), WEAK),
        (build_B(3, (3, 4), (2, 1)), WEAK),
        (sigma_optimal(structure(4, [(3, 2), (2, 2)])), WEAK),
        (build_optimal(structure(4, [(4, 1), (2, 1)]), RatioKind(SIGMA, STRONG)), STRONG),
    ]
    for s, sec in catalog:
        assert all(c.holds for c in audit_bounds(s, sec)), f"violation on {s.sp}"


def test_audit_cap():
    s = sigma_optimal(structure(3, [(3, 1), (2, 1)]))
    capped = audit_bounds(s, WEAK, cap=1)
    ids = [c.bound for c in capped]
    assert len(ids) == len(set(ids))  # one check per family
    assert audit_bounds(s, WEAK, cap=10**20) == audit_bounds(s, WEAK)
    for cap in (0, -3):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            audit_bounds(s, WEAK, cap=cap)


def test_render_check_format():
    s = build_B(3, (3, 4), (2, 1))
    line = next(render_check(c) for c in audit_bounds(s, WEAK) if c.bound == "tvb")
    assert line.startswith("tvb ")
    assert "lhs=5/1" in line and "rhs=5/1" in line and line.endswith("ok tight")


def test_secret_size_bound_all_tuples():
    # single-secret schemes with t < N: every conditional-information
    # instantiation dominates the secret length
    for t, n in [(2, 3), (2, 4), (3, 4)]:
        s = build_single_threshold(t, n)
        checks = [c for c in audit_bounds(s, STRONG) if c.bound == "secret-size"]
        assert len(checks) == len(list(combinations(range(n), t + 1))) * (t + 1) * t // 2
        assert all(c.holds for c in checks)


def test_secret_size_checks_in_canonical_order():
    """One check per (k, j, share set, pair), in that order; the rhs is
    I(P_a; P_b | the rest), the same for every secret j of a level."""
    s = sigma_optimal(structure(4, [(3, 2), (2, 3)]))
    got = [c for c in audit_bounds(s, WEAK) if c.bound == "secret-size"]
    want = []
    for k, t in ((1, 3), (2, 2)):
        for j in range(1, s.sp.count(k) + 1):
            for dset in combinations(range(1, 5), t + 1):
                for a, b in combinations(dset, 2):
                    rest = [VariableId.share(i) for i in dset if i not in (a, b)]

                    def rk(*extra):
                        vs = rest + [VariableId.share(i) for i in extra]
                        return field.rank(s.columns(vs), s.q)

                    rhs = rk(a) + rk(b) - rk(a, b) - rk()
                    want.append(({"k": k, "j": j, "shares": dset, "a": a, "b": b}, rhs))
    assert [(c.params, c.rhs) for c in got] == want


# The eight `bound_row` families in audit order: (name, strong only, levels
# k, levels whose secret is picked at k, params of a check).
_REFERENCE_FAMILIES = (
    ("share-sum", True, lambda kk: [1], lambda kk, k: [], lambda k, p, d: {"i": d[0]}),
    ("dtb", False, lambda kk: [1], lambda kk, k: range(1, kk + 1),
     lambda k, p, d: {"j": tuple(p.values()), "i": d[0]}),
    ("tsdb", False, lambda kk: range(1, kk + 1),
     lambda kk, k: [i for i in range(1, kk + 1) if i != k],
     lambda k, p, d: {"k": k, "j": tuple(p.items()), "shares": d}),
    ("tpb", False, lambda kk: [1], lambda kk, k: [], lambda k, p, d: {"shares": d}),
    ("avg-share", False, lambda kk: [1], lambda kk, k: [], lambda k, p, d: {}),
    ("strong-randomness", True, lambda kk: [1], lambda kk, k: [], lambda k, p, d: {}),
    ("tvb", False, lambda kk: [1], lambda kk, k: range(1, kk + 1),
     lambda k, p, d: {"j": tuple(p.values())}),
    ("tsb", False, lambda kk: range(1, kk + 1), lambda kk, k: range(1, k),
     lambda k, p, d: {"k": k, "j": tuple(p.items())}),
)


def _picked(picks, i, j):
    """Slot (i, j) of a row at `picks`: on each level i, secret picks[i]
    trades places with the first."""
    p = picks.get(i, 1)
    return i, p if j == 1 else 1 if j == p else j


@pytest.mark.parametrize("security", [STRONG, WEAK])
@pytest.mark.parametrize("t", ["3,2", "4,3,2", "3,3,2,2,2"])
def test_bound_row_checks_in_canonical_order(t, security):
    """Each `bound_row` check, in audit order, is its row at k with its
    beta keys swapped for each pick (`_picked`), on one sorted share tuple:
    lhs = sum beta * rk(S) and rhs = alpha0 * rk(every share) + sum alpha *
    rk(P), all by elimination."""
    sp = parse_thresholds(4, t)
    s = build_optimal(sp, RatioKind(SIGMA, security))
    names = {f[0] for f in _REFERENCE_FAMILIES}
    got = [(c.bound, c.params, c.lhs, c.rhs) for c in audit_bounds(s, security)]
    got = [c for c in got if c[0] in names]

    def rk(vs):
        return field.rank(s.columns(vs), s.q)

    everything = rk(s.sp.variables[sp.n_secrets :])
    kk = sp.k_levels
    want = []
    for name, strong_only, ks, pick_levels, params in _REFERENCE_FAMILIES:
        if strong_only and security != STRONG:
            continue
        for k in ks(kk):
            levels = list(pick_levels(kk, k))
            for js in product(*(range(1, sp.count(i) + 1) for i in levels)):
                picks = dict(zip(levels, js))
                row = bound_row(sp, name, k)
                beta = {_picked(picks, *slot): c for slot, c in row.beta.items()}
                lhs = sum(c * rk([VariableId.secret(*slot)]) for slot, c in beta.items())
                for d in combinations(range(1, 5), len(row.alpha)):
                    rhs = row.alpha0 * everything + sum(
                        c * rk([VariableId.share(d[i - 1])]) for i, c in row.alpha.items()
                    )
                    want.append((name, params(k, picks, d), lhs, rhs))
    assert got == want


@pytest.mark.parametrize("security", [STRONG, WEAK])
@pytest.mark.parametrize("t", ["4,3,2", "3,3,2,2,2"])
def test_audit_asks_each_row_once_per_level(t, security, monkeypatch):
    """The audit asks `bound_row` once per (family, k) valid at its security
    level, in audit order, whatever the number of picks."""
    sp = parse_thresholds(4, t)
    s = build_optimal(sp, RatioKind(SIGMA, security))
    asked = []
    real = verify.bound_row
    monkeypatch.setattr(
        verify, "bound_row", lambda *args: asked.append(args[1:]) or real(*args)
    )
    audit_bounds(s, security)
    assert asked == [
        (name, k)
        for name, strong_only, ks, *_ in _REFERENCE_FAMILIES
        if security == STRONG or not strong_only
        for k in ks(sp.k_levels)
    ]


# The frozen dataclass a check was before it kept a compact key: the
# reference for `BoundCheck`'s equality and repr.
_DataclassCheck = dataclasses.make_dataclass(
    "BoundCheck",
    [("bound", str), ("params", dict), ("lhs", object), ("rhs", object)],
    frozen=True,
)


def _reference_audit(scheme, security, cap=verify.DEFAULT_AUDIT_CAP):
    """The audit as one lazy generator per family, each drawn up to `cap`,
    with a params dict and a frozen dataclass per check: secret-size from a
    pass over the pair gains teed once per secret of the level, each
    `bound_row` family from `_REFERENCE_FAMILIES`, then extra-n3."""
    if cap < 1:
        raise ValueError(f"audit cap must be at least 1, got {cap}")
    if not check_conditions(scheme, security).passed:
        raise ValueError("precondition: scheme invalid")
    sp = scheme.sp
    n = sp.n_parties
    kk = sp.k_levels
    w = {
        (i, j): scheme.width(VariableId.secret(i, j)) for i, j in sp.secret_slots()
    }
    hp = {i: scheme.width(v) for i, v in enumerate(sp.variables[sp.n_secrets :], start=1)}
    ns = sp.n_secrets
    h = scheme.profile
    h_all_shares = h[((1 << n) - 1) << ns]

    def pair_gains(t):
        for dset in combinations(range(1, n + 1), t + 1):
            d = sum(1 << (ns + i - 1) for i in dset)
            for a, b in combinations(dset, 2):
                pa = 1 << (ns + a - 1)
                pb = 1 << (ns + b - 1)
                rest = d ^ pa ^ pb
                yield dset, a, b, h[rest | pa] + h[rest | pb] - h[d] - h[rest]

    def secret_size():
        for k in range(1, kk + 1):
            t = sp.threshold(k)
            if t >= n:
                continue
            passes = tee(pair_gains(t), sp.count(k))
            for j, gains in enumerate(passes, start=1):
                for dset, a, b, gain in gains:
                    params = {"k": k, "j": j, "shares": dset, "a": a, "b": b}
                    yield params, w[k, j], gain

    def rows(name, ks, pick_levels, params):
        for k in ks(kk):
            row = bound_row(sp, name, k)
            alpha = list(row.alpha.values())
            levels = list(pick_levels(kk, k))
            for js in product(*(range(1, sp.count(i) + 1) for i in levels)):
                picks = dict(zip(levels, js))
                picked = dict(w)
                for i, j in picks.items():
                    picked[i, 1], picked[i, j] = w[i, j], w[i, 1]
                lhs = sum(c * picked[slot] for slot, c in row.beta.items())
                for dset in combinations(range(1, n + 1), len(alpha)):
                    rhs = row.alpha0 * h_all_shares + sum(
                        c * hp[i] for c, i in zip(alpha, dset)
                    )
                    yield params(k, picks, dset), lhs, rhs

    def extra_n3():
        if n != 3:
            return
        lvl3 = next(
            (i for i in range(1, kk + 1) if sp.threshold(i) == 3 and sp.count(i) >= 4),
            None,
        )
        lvl2 = next(
            (i for i in range(1, kk + 1) if sp.threshold(i) == 2 and sp.count(i) >= 3),
            None,
        )
        if lvl3 is None or lvl2 is None:
            return
        base = sum(w[lvl3, j] for j in range(1, 5)) + 2 * sum(
            w[lvl2, j] for j in range(1, 4)
        )
        all_three = sum(hp[i] for i in (1, 2, 3))
        for s in range(1, 5):
            for d in (1, 2, 3):
                yield {"s": s, "d": d}, w[lvl3, s] + base, all_three + hp[d]

    families = [
        ("secret-size", secret_size(), False),
        *((name, rows(name, *spec), strong) for name, strong, *spec in _REFERENCE_FAMILIES),
        ("extra-n3", extra_n3(), False),
    ]
    out = []
    for name, checks, strong_only in families:
        if strong_only and security != STRONG:
            continue
        for _, (params, lhs, rhs) in zip(range(cap), checks):
            out.append(_DataclassCheck(name, params, lhs, rhs))
    return out


def _audited_schemes():
    """(label, scheme): the acceptance catalog, the extra-n3 structure
    (N=3, T=3,3,3,3,2,2,2), a composed scheme read back from text, an
    N=6 weak-sigma build whose secret-size and tsdb families pass cap 50,
    and three tau-avg builds, whose secret widths are 0 and 1 (the strong
    N=4 one's differ within a level, so that a pick moves a row's lhs)."""
    from test_acceptance import build_catalog

    entries, combos = build_catalog()
    out = [(label, s) for label, s, _ in entries]
    out += [
        ("extra-n3", sigma_optimal(parse_thresholds(3, "3,3,3,3,2,2,2"))),
        ("composed text", LinearScheme.from_text(combos[0][0].to_text())),
        ("N6 3,3,2", sigma_optimal(parse_thresholds(6, "3,3,2"))),
    ]
    for n, t, security in ((4, "4,4,3,3,2,2", STRONG), (4, "4,4,3,3,2,2", WEAK),
                           (3, "3,3,2,2", WEAK)):
        kind = RatioKind(TAU_AVG, security)
        out.append((f"tau-avg N{n} {t} {security}", build_optimal(parse_thresholds(n, t), kind)))
    return out


def _fields(checks):
    return [(c.bound, c.params, c.lhs, c.rhs) for c in checks]


def test_audit_matches_reference_audit():
    """The audit equals the generator it replaced, check for check and in
    order, on every audited scheme at both securities and at caps 1, 7,
    100 and the default, and it reads the same ranks: on two fresh text
    copies, one audited each way, the rank tables hold the same masks (the
    precondition's report is kept on each copy, so no scan fills them).  A
    scheme that fails a security is refused by both."""
    for label, s in _audited_schemes():
        text = s.to_text()
        for security in (STRONG, WEAK):
            for cap in (1, 7, 100, verify.DEFAULT_AUDIT_CAP):
                try:
                    want = _fields(_reference_audit(s, security, cap))
                except ValueError as e:
                    with pytest.raises(ValueError, match=str(e)):
                        audit_bounds(s, security, cap)
                    continue
                got = audit_bounds(s, security, cap)
                assert type(got) is list, label
                assert _fields(got) == want, (label, security, cap)
                ours, theirs = LinearScheme.from_text(text), LinearScheme.from_text(text)
                for copy in (ours, theirs):
                    copy.profile.reports[security, False] = check_conditions(s, security)
                audit_bounds(ours, security, cap)
                _reference_audit(theirs, security, cap)
                assert set(ours.profile) == set(theirs.profile), label


def test_capped_audit_draws_picks_only_up_to_the_cap(monkeypatch):
    """A family's picks are drawn lazily and no further than its cap: with
    8 secrets on each of 3 levels, dtb and tvb have 512 picks and tsdb 64
    per level, but an audit at cap c draws at most c picks per family, as
    every drawn pick makes at least one check."""
    s = sigma_optimal(parse_thresholds(4, ",".join("4" * 8 + "3" * 8 + "2" * 8)))
    drawn = []

    def counted(*ranges):
        for js in product(*ranges):
            drawn.append(js)
            yield js

    monkeypatch.setattr(verify, "product", counted)
    for cap in (1, 7, 50):
        drawn.clear()
        got = audit_bounds(s, WEAK, cap)
        assert 0 < len(drawn) <= cap * len(verify._ROW_FAMILIES), cap
        assert _fields(got) == _fields(_reference_audit(s, WEAK, cap)), cap


def test_capped_audit_lists_only_what_the_cap_reads(monkeypatch):
    """The memoized index lists are cut at the cap: with N = 16 and t = 2,
    a level has 1,680 secret-size items and tsdb 120 share pairs, but an
    audit at cap 5 lists at most 5 pair masks or share tuples per block."""
    s = build_single_threshold(2, 16)
    listed = []
    for name in ("_pair_masks", "_share_sets"):
        real = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda *args, real=real: listed.append(real(*args)) or listed[-1]
        )
    got = audit_bounds(s, STRONG, cap=5)
    assert len(listed) > 1 and max(map(len, listed)) == 5
    assert _fields(got) == _fields(_reference_audit(s, STRONG, 5))


def test_bound_checks_compare_and_print_as_the_dataclass():
    """For one check of each family, `BoundCheck` prints as the old frozen
    dataclass did, and equality between checks agrees with the
    dataclass's, which compares (bound, params, lhs, rhs)."""
    s = sigma_optimal(parse_thresholds(3, "3,3,3,3,2,2,2"))
    strong = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    pairs = []  # (check, its dataclass, its twin from an audit of a text copy)
    for scheme, security in ((s, WEAK), (strong, STRONG)):
        copy = LinearScheme.from_text(scheme.to_text())
        first = {}
        for c, r, twin in zip(
            audit_bounds(scheme, security),
            _reference_audit(scheme, security),
            audit_bounds(copy, security),
        ):
            first.setdefault(c.bound, (c, r, twin))
        pairs += first.values()
    assert {c.bound for c, _, _ in pairs} == set(verify._PARAMS)
    for c, r, twin in pairs:
        assert repr(c) == repr(r)
        assert (c.bound, c.params, c.lhs, c.rhs, c.holds, c.tight) == (
            r.bound, r.params, r.lhs, r.rhs, r.lhs <= r.rhs, r.lhs == r.rhs
        )
        assert c is not twin and c == twin and not c != twin
        for d, e, _ in pairs:
            assert (c == d) == (r == e)
        assert c != r  # not the dataclass, whatever its fields
        with pytest.raises(AttributeError):
            c.lhs = 0
        with pytest.raises(TypeError):
            hash(c)


def test_verifier_hashes_no_variable(monkeypatch):
    """Between `structure.conditions` and the rank table everything reads
    positions: building, ratios, every condition scan (a failing one names
    its witness too) and the audit of a leaf, a composed scheme and its
    text copy hash no `VariableId`."""
    calls = []
    plain = VariableId.__hash__
    monkeypatch.setattr(VariableId, "__hash__", lambda v: calls.append(v) or plain(v))
    schemes._leaf.cache_clear()
    leaf = build_weak_block(4, 3, 2)
    composed = build_optimal(parse_thresholds(4, "4,4,4,2"), RatioKind(TAU, WEAK))
    assert not leaf.leaves and composed.leaves
    for s in (leaf, composed, LinearScheme.from_text(composed.to_text())):
        ratios(s, strict=False)
        for security, exhaustive in product((STRONG, WEAK), (False, True)):
            check_conditions(s, security, exhaustive)
        assert not check_conditions(s, STRONG).passed
        audit_bounds(s, WEAK)
    assert calls == []
    assert len({VariableId.share(1)}) == len(calls) == 1  # the count sees a hash
