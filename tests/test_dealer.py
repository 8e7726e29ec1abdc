import copy
import dataclasses
import gc
import hashlib
import itertools
import pickle
import random
import re
import tracemalloc
import warnings
import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mtss import dealer, field
from mtss.dealer import (
    ReconstructionError,
    SecretAssignment,
    ShareBundle,
    _splitmix64,
    deal,
    leakage_census,
    reconstruct,
)
from mtss.schemes import (
    LinearScheme,
    VariableId,
    build_B,
    build_optimal,
    build_single_threshold,
    build_weak_block,
)
from mtss.structure import (
    SIGMA,
    STRONG,
    TAU,
    WEAK,
    RatioKind,
    parse_int,
    read_records,
    structure,
)
from mtss.verify import RankProfile
from test_verify import stacked

S = VariableId.secret
P = VariableId.share


def test_splitmix64_reference_vector():
    g = _splitmix64(1234567)
    assert [next(g) for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


# ------------------------------------------------------------------- dealing

def test_round_trip_tiny_shamir():
    sch = build_single_threshold(2, 2, q=5)
    bundle = deal(sch, SecretAssignment.for_scheme(sch, [[3]]), seed=0)
    assert bundle.indices == (1, 2) and [len(vec) for vec in bundle.vectors] == [1, 1]
    assert reconstruct(sch, bundle, 1)[S(1, 1)] == (3,)


def test_zero_secrets_trivial_nullspace():
    sch = build_weak_block(2, 2, 2, q=5)  # two rows, two width-1 secrets
    bundle = deal(sch, SecretAssignment.for_scheme(sch, [[0], [0]]), seed=77)
    assert bundle.vectors == ((0,), (0,))


def test_seed_changes_bundle_not_secrets():
    sch = build_single_threshold(2, 2, q=5)
    sa = SecretAssignment.for_scheme(sch, [[3]])
    a = deal(sch, sa, seed=0)
    b = deal(sch, sa, seed=1)
    assert a.indices == b.indices and a.vectors != b.vectors
    assert reconstruct(sch, a, 1) == reconstruct(sch, b, 1)


def test_dealing_is_reproducible():
    sch = build_B(3, (3, 4), (2, 1))
    widths = [sch.width(v) for v in sch.secret_variables()]
    sa = SecretAssignment.for_scheme(
        sch, [list(range(1, w + 1)) for w in widths]
    )
    one = deal(sch, sa, seed=123)
    two = deal(sch, sa, seed=123)
    assert one == two and one.to_text() == two.to_text()


def _counting_secrets(sch):
    """Secret i, in canonical order, gets entries 3i + 1, 3i + 2, ... mod q."""
    return SecretAssignment.for_scheme(sch, [
        [(3 * i + j + 1) % sch.q for j in range(sch.width(v))]
        for i, v in enumerate(sch.secret_variables())
    ])


# Recorded before elimination moved from numpy int64 to Python ints: the
# share values depend on the particular solution and on the kernel basis,
# row order included, that `field.solve_affine` hands the dealer.
GOLDEN_BUNDLES = {
    "stitched-B": (
        "mtss-bundle 1\n"
        "fingerprint dff98145a7c94d9e4ecbfcf0fe67df9aadb38945ad4e6c2405134eeb605ff3f0\n"
        "P 1 6,4\nP 2 3,6\nP 3 2,8\n"
    ),
    "combined": (
        "mtss-bundle 1\n"
        "fingerprint c868a2bc32f715ff639da4730cb4b677d2dac224934df9dbf0aacd02ea4a4859\n"
        "P 1 1,0,2\nP 2 0,4,4\nP 3 5,2,6\nP 4 2,1,1\n"
    ),
}


def test_deal_golden_bundles():
    combined = build_optimal(structure(4, [(3, 2), (2, 1)]), RatioKind(SIGMA, STRONG))
    assert [leaf.recipe[0] for leaf, _ in combined.leaves] == ["weak-block"] * 3
    assert all(leaf.sp.n_secrets == 1 for leaf, _ in combined.leaves)
    # 8 rows, 3 secret columns: a five-vector kernel basis.
    assert combined.n_rows - len(combined.secret_variables()) == 5
    for name, sch in (("stitched-B", build_B(3, (3, 4), (2, 1))), ("combined", combined)):
        bundle = deal(sch, _counting_secrets(sch), seed=20231018)
        assert bundle.to_text() == GOLDEN_BUNDLES[name], name


def test_round_trip_all_qualified_sets():
    sch = build_B(3, (3, 4), (2, 1))
    import itertools

    widths = [sch.width(v) for v in sch.secret_variables()]
    sa = SecretAssignment.for_scheme(sch, [list(range(w)) for w in widths])
    bundle = deal(sch, sa, seed=5)
    for k in (1, 2):
        t = sch.sp.threshold(k)
        for size in range(t, 4):
            for idxs in itertools.combinations([1, 2, 3], size):
                rec = reconstruct(sch, bundle.restrict(idxs), k)
                for v, vec in zip(rec.variables, rec.vectors):
                    assert vec == sa[v]
                assert rec.variables == tuple(
                    v for v in sch.secret_variables() if v.level >= k
                )


def test_suffix_reconstruction_two_levels():
    sch = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    sa = SecretAssignment.for_scheme(sch, [[2], [4 % sch.q]])
    bundle = deal(sch, sa, seed=11)
    rec = reconstruct(sch, bundle.restrict([1, 2]), k=2)
    assert rec.variables == (S(2, 1),)
    assert rec[S(2, 1)] == sa[S(2, 1)]
    full = reconstruct(sch, bundle, k=1)
    assert full == sa


def test_reconstruct_errors():
    sch = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    sa = SecretAssignment.for_scheme(sch, [[1], [1]])
    bundle = deal(sch, sa, seed=0)
    with pytest.raises(ReconstructionError, match="unqualified set"):
        reconstruct(sch, bundle.restrict([1]), k=2)
    with pytest.raises(ReconstructionError, match="unqualified set"):
        reconstruct(sch, bundle.restrict([1, 2]), k=1)
    with pytest.raises(ValueError, match="out of range") as info:
        reconstruct(sch, bundle, k=3)
    assert not isinstance(info.value, ReconstructionError)
    other = build_single_threshold(2, 3, q=sch.q)
    with pytest.raises(ReconstructionError, match="fingerprint"):
        reconstruct(other, bundle, k=1)
    outside = ((sch.q,) * len(bundle.vectors[0]), *bundle.vectors[1:])
    with pytest.raises(ValueError, match="field range") as info:
        reconstruct(sch, ShareBundle(bundle.fingerprint, bundle.indices, outside), k=1)
    assert not isinstance(info.value, ReconstructionError)


def test_inconsistent_shares():
    sch = build_weak_block(3, 2, 2, q=7)  # three shares, rank 2
    sa = SecretAssignment.for_scheme(sch, [[1], [2]])
    bundle = deal(sch, sa, seed=3)
    tweaked = (*bundle.vectors[:2], ((bundle.vectors[2][0] + 1) % 7,))
    with pytest.raises(ReconstructionError, match="inconsistent shares"):
        reconstruct(sch, ShareBundle(bundle.fingerprint, bundle.indices, tweaked), k=1)


def test_deal_refuses_dependent_secret_columns():
    """Each block has full column rank, but the two secrets share one
    column, so the encoder is refused; reconstruction needs no encoder."""
    sch = stacked(
        structure(3, [(2, 2)]), 7,
        (
            (S(1, 1), [[1], [1]]), (S(1, 2), [[1], [1]]),
            (P(1), [[1], [0]]), (P(2), [[0], [1]]), (P(3), [[1], [2]]),
        ),
    )
    with pytest.raises(ValueError, match="linearly dependent"):
        deal(sch, SecretAssignment.for_scheme(sch, [[1], [2]]), seed=0)
    # the codeword (3, 5) gives shares 3, 5, 6 and both secrets 1
    bundle = ShareBundle(sch.fingerprint, (1, 2, 3), ((3,), (5,), (6,)))
    assert reconstruct(sch, bundle, 1) == SecretAssignment((S(1, 1), S(1, 2)), ((1,), (1,)))


def _replay_schemes():
    combined = build_optimal(structure(4, [(3, 2), (2, 1)]), RatioKind(SIGMA, STRONG))
    return {
        "stitched-B": build_B(3, (3, 4), (2, 1)),
        "combined": combined,
        "weak-block": build_weak_block(3, 2, 2, q=7),
    }


def _replay(sch, text):
    """Deal `_counting_secrets`, then reconstruct, for every qualified
    coalition and every k, the coalition's shares and each tamper of one
    of their entries.  Yields (k, bundle, output), where output is the
    recovered assignment or the `ReconstructionError` message.  The scheme
    is read from `text`, so each replay starts with no decoder."""
    sch = LinearScheme.from_text(text)
    bundle = deal(sch, _counting_secrets(sch), seed=20231018)
    n = sch.sp.n_parties
    for k in range(1, sch.sp.k_levels + 1):
        for size in range(sch.sp.threshold(k), n + 1):
            for idxs in itertools.combinations(range(1, n + 1), size):
                honest = bundle.restrict(idxs)
                tampers = []
                for i, vec in enumerate(honest.vectors):
                    for at in range(len(vec)):
                        changed = list(honest.vectors)
                        changed[i] = vec[:at] + ((vec[at] + 1) % sch.q,) + vec[at + 1 :]
                        tampers.append(
                            ShareBundle(honest.fingerprint, honest.indices, tuple(changed))
                        )
                for shares in (honest, *tampers):
                    try:
                        out = reconstruct(sch, shares, k)
                    except ReconstructionError as e:
                        out = str(e)
                    yield sch, k, shares, out


def test_reconstruct_replay_matches_rank_route(monkeypatch):
    """Every honest coalition recovers the dealt secrets; a tamper is
    consistent exactly when the coalition's share values stay in the row
    space of its columns, and then the recovered secrets extend them.  Each
    scheme eliminates once for its encoder and once per coalition."""
    calls = []
    solve = field.solve_affine
    monkeypatch.setattr(field, "solve_affine", lambda *a: calls.append(a) or solve(*a))
    verdicts = set()
    for name, sch in _replay_schemes().items():
        dealt = _counting_secrets(sch)
        bundle = deal(sch, dealt, seed=20231018)
        calls.clear()
        coalitions, honest = set(), set()
        for copy, k, shares, out in _replay(sch, sch.to_text()):
            avars = [P(i) for i in shares.indices]
            coalitions.add(shares.indices)
            cols = copy.columns(avars)
            vals = [x for vec in shares.vectors for x in vec]
            consistent = field.rank(np.vstack([cols, vals]), sch.q) == field.rank(cols, sch.q)
            assert isinstance(out, SecretAssignment) == consistent, (name, k, shares)
            verdicts.add(consistent)
            if not consistent:
                assert out == "inconsistent shares"
                continue
            targets = [v for v in copy.secret_variables() if v.level >= k]
            assert list(out.variables) == targets
            if shares == bundle.restrict(shares.indices):
                assert all(out[v] == dealt[v] for v in targets), (name, k)
                honest.add((k, tuple(avars)))
            joint = np.hstack([cols, copy.columns(targets)])
            row = vals + [x for v in targets for x in out[v]]
            assert field.rank(np.vstack([joint, row]), sch.q) == field.rank(joint, sch.q)
        assert len(calls) == 1 + len(coalitions), name
        assert len(honest) == sum(
            comb(sch.sp.n_parties, size)
            for k in range(1, sch.sp.k_levels + 1)
            for size in range(sch.sp.threshold(k), sch.sp.n_parties + 1)
        )
    assert verdicts == {True, False}


def test_decoder_table_is_bounded(monkeypatch):
    """With room for two decoders, a sweep over more coalitions evicts
    and rebuilds them, and every output stays the same."""
    for sch in _replay_schemes().values():
        text = sch.to_text()
        want = [(k, shares, out) for _, k, shares, out in _replay(sch, text)]
        monkeypatch.setattr(dealer, "DECODERS_KEPT", 2)
        got, sizes, coalitions = [], set(), set()
        for copy, k, shares, out in _replay(sch, text):
            got.append((k, shares, out))
            sizes.add(copy.codec.decoder.cache_info().currsize)
            coalitions.add(shares.indices)
        monkeypatch.undo()
        assert got == want
        assert max(sizes) == 2 and len(coalitions) > 2
        codec = copy.codec
        kept = (codec.encoder, codec.secrets, codec.shares, codec.decoder((1, 2, 3)))
        assert not any(a.flags.writeable for a in kept)


def test_assignment_validation():
    sch = build_single_threshold(2, 2, q=5)
    with pytest.raises(ValueError, match="secret vectors"):
        SecretAssignment.for_scheme(sch, [[1], [2]])
    with pytest.raises(ValueError, match="does not match width"):
        SecretAssignment.for_scheme(sch, [[1, 2]])
    with pytest.raises(ValueError, match="field range"):
        SecretAssignment.for_scheme(sch, [[7]])
    with pytest.raises(ValueError, match="cover every secret"):
        deal(sch, SecretAssignment((), ()), seed=0)
    with pytest.raises(ValueError, match="cover every secret"):
        deal(sch, SecretAssignment((P(1),), ((0,),)), seed=0)


# ------------------------------------------------------------- bundle format

def test_bundle_text_round_trip():
    sch = build_B(3, (3, 4), (2, 1))
    widths = [sch.width(v) for v in sch.secret_variables()]
    sa = SecretAssignment.for_scheme(sch, [list(range(w)) for w in widths])
    bundle = deal(sch, sa, seed=4)
    text = bundle.to_text()
    assert text.splitlines()[0] == "mtss-bundle 1"
    assert ShareBundle.from_text(text) == bundle


def test_bundle_text_empty_share():
    # a structurally valid scheme where one participant holds nothing
    sp = structure(2, [(2, 1)])
    blocks = (
        (S(1, 1), [[1], [1]]),
        (P(1), [[1], [2]]),
        (P(2), np.zeros((2, 0), dtype=np.int64)),
    )
    sch = stacked(sp, 5, blocks)
    bundle = deal(sch, SecretAssignment((S(1, 1),), ((2,),)), seed=0)
    assert bundle.indices == (1, 2) and bundle.vectors[1] == ()
    text = bundle.to_text()
    assert "P 2 -" in text
    assert ShareBundle.from_text(text) == bundle


def test_bundle_text_errors():
    with pytest.raises(ValueError, match="not a bundle file"):
        ShareBundle.from_text("hello\n")
    with pytest.raises(ValueError, match="malformed bundle header"):
        ShareBundle.from_text("mtss-bundle 1\nno-print\n")
    with pytest.raises(ValueError, match="bad share line"):
        ShareBundle.from_text("mtss-bundle 1\nfingerprint ab\nQ 1 2\n")
    with pytest.raises(ValueError, match=r"duplicate share line for P\[1\]"):
        ShareBundle.from_text("mtss-bundle 1\nfingerprint ab\nP 1 3\nP 1 0\n")
    with pytest.raises(ValueError, match=r"bad share vector of P\[2\] '1,,2'"):
        ShareBundle.from_text("mtss-bundle 1\nfingerprint ab\nP 2 1,,2\n")
    back = ShareBundle.from_text("mtss-bundle 1 \n\nfingerprint ab\nP 2 -\nP 1 4,0\n")
    assert back == ShareBundle("ab", (1, 2), ((4, 0), ()))


def test_dealt_restricted_and_read_bundles_hold_tuples_of_ints():
    """`deal`, `restrict` and `from_text` build their bundles from vectors
    that are already tuples of ints, indexed in increasing order."""
    sch = build_B(3, (3, 4), (2, 1))
    widths = [sch.width(v) for v in sch.secret_variables()]
    bundle = deal(sch, SecretAssignment.for_scheme(sch, [[1] * w for w in widths]), seed=3)
    for got in (bundle, bundle.restrict([1, 3]), ShareBundle.from_text(bundle.to_text())):
        assert type(got.indices) is type(got.vectors) is tuple
        assert all(type(i) is int for i in got.indices)
        assert all(
            type(vec) is tuple and all(type(e) is int for e in vec) for vec in got.vectors
        )
    assert bundle.restrict([3, 1]).indices == (1, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.vectors = ()


# ------------------------------------------------------------------- census

def _decoded_counts(table):
    """A census as nested dicts: coalition values -> {target values: count},
    decoded from its digit rows, split at the coalition width, and its
    tally."""
    wa, out = table.coalition_width, {}
    for rows in table.digit_rows():
        for row in rows.tolist():
            out.setdefault(tuple(row[:wa]), {})[tuple(row[wa:])] = table.tally
    return out


def test_census_uniform_tiny_shamir():
    sch = build_single_threshold(2, 2, q=5)
    table = leakage_census(sch, [P(1)], S(1, 1))
    assert table.uniform
    counts = _decoded_counts(table)
    assert len(counts) == 5
    assert counts[(0,)] == {(s,): 1 for s in range(5)}


def test_census_weak_vs_strong_witness():
    """Single secrets look uniform to one share, but the pair leaks."""
    sch = build_weak_block(3, 2, 2, q=7)
    single = leakage_census(sch, [P(1)], S(1, 1))
    assert single.uniform
    joint = leakage_census(sch, [P(1)], [S(1, 1), S(1, 2)])
    assert not joint.uniform


def test_census_matches_rank_verdicts():
    sch = build_weak_block(3, 2, 2, q=7)
    prof = RankProfile(sch)
    targets = [[S(1, 1)], [S(1, 2)], [S(1, 1), S(1, 2)]]
    for size in (0, 1, 2):
        for idxs in itertools.combinations([1, 2, 3], size):
            coalition = [P(i) for i in idxs]
            for tg in targets:
                table = leakage_census(sch, coalition, tg)
                rank_independent = prof.rank(coalition + tg) == prof.rank(
                    coalition
                ) + prof.rank(tg)
                assert table.uniform == rank_independent, (idxs, tg)


def test_census_total_counts():
    sch = build_single_threshold(2, 2, q=5)
    table = leakage_census(sch, [P(1)], S(1, 1))
    assert sum(sum(r.values()) for r in _decoded_counts(table).values()) == 25


def test_census_empty_coalition():
    sch = build_single_threshold(2, 2, q=5)
    table = leakage_census(sch, [], S(1, 1))
    assert table.uniform and list(_decoded_counts(table)) == [()]


def test_census_zero_width_target():
    sch = build_weak_block(3, 2, 4, q=11)  # secrets 3 and 4 have width 0
    table = leakage_census(sch, [P(1)], S(1, 3))
    assert table.target_width == 0 and table.uniform


def test_census_cap():
    """q = 17 and 12 rows: the verdict would count 17^9 outer settings."""
    sch = build_single_threshold(12, 12)
    with pytest.raises(ValueError, match="too large for census"):
        leakage_census(sch, [P(1)], S(1, 1))


def _tau_weak_n3():
    """The tau/weak build of (N=3, T=3,3,3,3,2), checked by its text's
    sha256: q = 11 and 9 rows, so 11^9 codewords, past CENSUS_CAP; its
    verdict counts 11^5 outer settings."""
    sch = build_optimal(structure(3, [(3, 4), (2, 1)]), RatioKind(TAU, WEAK))
    digest = hashlib.sha256(sch.to_text().encode()).hexdigest()
    assert digest == "08bc6136c87207d6c567aef14a4e7968abd6b413f6f85a75d00d6f109cae3e69"
    assert sch.q**sch.n_rows > dealer.CENSUS_CAP
    return sch


def test_census_past_the_codeword_cap_agrees_with_ranks():
    """Every coalition of at most two shares, against S[1,1] and against all
    five secrets: the census is uniform exactly when the ranks add."""
    sch = _tau_weak_n3()
    prof = RankProfile(sch)
    verdicts = set()
    for size in (0, 1, 2):
        for idxs in itertools.combinations([1, 2, 3], size):
            coalition = [P(i) for i in idxs]
            for tg in ([S(1, 1)], list(sch.secret_variables())):
                additive = prof.rank(coalition + tg) == prof.rank(coalition) + prof.rank(tg)
                assert leakage_census(sch, coalition, tg).uniform == additive, (idxs, tg)
                verdicts.add(additive)
    assert verdicts == {True, False}


def test_census_table_cap_counts_the_codes_its_blocks_make():
    """P[1] against S[1,1] of the tau/weak build has 161,051 codes, but its
    table's blocks would make 11^5 x 1,331 of them: the counts are read,
    the table is refused."""
    table = leakage_census(_tau_weak_n3(), [P(1)], [S(1, 1)])
    assert (table.uniform, table.n_coalition_values, table.n_codes) == (True, 11**3, 11**5)
    assert (len(table.outer_rows), len(table.inner_codes)) == (5, 11**3)
    for read in (lambda: table.codes, lambda: next(table.digit_rows())):
        with pytest.raises(ValueError, match=f"census table too large: {11**5 * 11**3} codes"):
            read()
    assert "codes" not in vars(table)


def _identity_copies():
    """q = 2, 12 rows: one secret and six shares, each the 12 x 12 identity,
    so every share is a copy of the secret."""
    eye = np.eye(12, dtype=np.int64)
    blocks = [(S(1, 1), eye)] + [(P(i), eye) for i in range(1, 7)]
    return stacked(structure(6, [(2, 1)]), 2, blocks)


def test_census_refuses_codes_beyond_int64():
    """Codes over 12 * 6 + 12 = 84 bits would wrap in int64; 60 bits fit."""
    sch = _identity_copies()
    with pytest.raises(ValueError, match="overflow"):
        leakage_census(sch, [P(i) for i in range(1, 7)], S(1, 1))
    table = leakage_census(sch, [P(i) for i in range(1, 5)], S(1, 1))
    assert table.n_coalition_values == 4096 and not table.uniform
    for a_vals, row in _decoded_counts(table).items():
        copy = a_vals[:12]
        assert a_vals == copy * 4 and row == {copy: 1}


def test_census_argument_validation():
    sch = build_single_threshold(2, 2, q=5)
    with pytest.raises(ValueError, match="not a share variable"):
        leakage_census(sch, [S(1, 1)], S(1, 1))
    with pytest.raises(ValueError, match="not a secret variable"):
        leakage_census(sch, [P(1)], P(2))


# ------------------------------------------------- pure-Python reference

def _reference_census(scheme, coalition, targets):
    """(counts, uniform) by enumerating F_q^rows one codeword at a time."""
    q = scheme.q
    va = scheme.columns(coalition).T.tolist()
    vs = scheme.columns(targets).T.tolist()
    counts = {}
    for c in itertools.product(range(q), repeat=scheme.n_rows):
        a_vals = tuple(sum(x * y for x, y in zip(c, col)) % q for col in va)
        s_vals = tuple(sum(x * y for x, y in zip(c, col)) % q for col in vs)
        row = counts.setdefault(a_vals, {})
        row[s_vals] = row.get(s_vals, 0) + 1
    uniform = all(
        len(row) == q ** len(vs) and len(set(row.values())) == 1
        for row in counts.values()
    )
    return counts, uniform


def _assert_matches_reference(scheme, coalition, targets):
    table = leakage_census(scheme, coalition, targets)
    counts, uniform = _reference_census(scheme, coalition, targets)
    assert _decoded_counts(table) == counts, (coalition, targets)
    assert table.uniform == uniform, (coalition, targets)
    assert table.n_coalition_values == len(counts)
    assert len(table.codes) == sum(len(r) for r in counts.values())
    return table


def _small_schemes():
    return (
        build_single_threshold(2, 2, q=5),
        build_single_threshold(3, 3),
        build_weak_block(3, 2, 2, q=7),
        build_weak_block(3, 2, 4, q=11),
    )


def _reference_cases(sch):
    """Every coalition of `sch` against every nonempty set of its secrets."""
    svars = sch.secret_variables()
    n = sch.sp.n_parties
    for size in range(n + 1):
        for idxs in itertools.combinations(range(1, n + 1), size):
            for tsize in range(1, len(svars) + 1):
                for tg in itertools.combinations(svars, tsize):
                    yield [P(i) for i in idxs], list(tg)


@pytest.mark.parametrize("chunk", [dealer._CHUNK, 7, 3])
def test_census_matches_reference_on_small_schemes(monkeypatch, chunk):
    """A chunk of 7 spreads the outer settings over many batches, the last
    one partly filled; a chunk of 3, below every q, leaves no inner rows."""
    monkeypatch.setattr(dealer, "_CHUNK", chunk)
    verdicts = set()
    for sch in _small_schemes():
        for coalition, tg in _reference_cases(sch):
            verdicts.add(_assert_matches_reference(sch, coalition, tg).uniform)
    assert verdicts == {True, False}


def _digit_census(scheme, coalition, targets):
    """(codes, tallies) by enumerating whole codewords in chunks of 2^16:
    each codeword's base-q digits, two int64 products and its code."""
    chunk = 1 << 16
    n, q = scheme.n_rows, scheme.q
    va = scheme.columns(sorted(coalition))
    vs = scheme.columns(targets)
    wa, ws = va.shape[1], vs.shape[1]
    pow_a = q ** np.arange(wa - 1, -1, -1, dtype=np.int64) if wa else None
    pow_s = q ** np.arange(ws - 1, -1, -1, dtype=np.int64) if ws else None
    chunk_codes, chunk_tallies = [], []
    total = q**n
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((len(idx), n), dtype=np.int64)
        tmp = idx.copy()
        for r in range(n):
            digits[:, r] = tmp % q
            tmp //= q
        a_code = (digits @ va % q) @ pow_a if wa else np.zeros(len(idx), np.int64)
        s_code = (digits @ vs % q) @ pow_s if ws else np.zeros(len(idx), np.int64)
        combined = a_code * (q**ws) + s_code
        uniq, cnt = np.unique(combined, return_counts=True)
        chunk_codes.append(uniq)
        chunk_tallies.append(cnt)
    codes, where = np.unique(np.concatenate(chunk_codes), return_inverse=True)
    tallies = np.zeros(len(codes), dtype=np.int64)
    np.add.at(tallies, where, np.concatenate(chunk_tallies))
    return codes, tallies


def _assert_matches_digit_census(scheme, coalition, targets):
    table = leakage_census(scheme, coalition, targets)
    codes, tallies = _digit_census(scheme, coalition, targets)
    assert table.codes.dtype == np.int64
    assert np.array_equal(table.codes, codes), (coalition, targets)
    assert (tallies == table.tally).all(), (coalition, targets)
    return table


def _copies_of_seven_bits():
    """q = 2, 7 rows: one secret and eight shares, each the 7 x 7 identity,
    so the eight shares and the secret make codes of exactly 63 bits."""
    eye = np.eye(7, dtype=np.int64)
    return stacked(
        structure(8, [(2, 1)]), 2, [(S(1, 1), eye)] + [(P(i), eye) for i in range(1, 9)]
    )


def _dependent():
    """q = 5 and 8 rows: 4 inner rows and 625 outer settings.  The columns
    of P[1] and P[2] agree on the inner rows, so each inner code is made by
    5^(4 - 2) inner settings, and all 625 outer settings fall in one coset."""
    col = np.array([[1, 0, 0, 0, 0, 0, 0, 1], [1, 1, 1, 1, 1, 1, 1, 0]]).T
    return stacked(
        structure(2, [(2, 1)]), 5,
        ((S(1, 1), col[:, :1]), (P(1), col[:, :1] + col[:, 1:]), (P(2), col)),
    )


def _digit_cases():
    """(scheme, coalition, targets) of the digit-census comparisons: q = 11
    with 5 rows (4 inner rows), one row at q = 65537 (no inner rows, outer
    batches of _CHUNK), codes of exactly 63 bits, and the dependent scheme."""
    sch = build_B(3, (3, 4), (2, 1))
    assert (sch.q, sch.n_rows) == (11, 5)
    svars = list(sch.secret_variables())
    for size in range(4):
        for idxs in itertools.combinations([1, 2, 3], size):
            for tg in (svars, [S(1, 1)]):
                yield sch, [P(i) for i in idxs], tg
    columns = ((S(1, 1), 1), (P(1), 2), (P(2), 1))
    one_row = stacked(structure(2, [(2, 1)]), 65537, ((v, [[c]]) for v, c in columns))
    yield one_row, [P(1)], [S(1, 1)]
    yield _copies_of_seven_bits(), [P(i) for i in range(1, 9)], [S(1, 1)]
    dependent = _dependent()
    for target in ([S(1, 1)], []):
        yield dependent, [P(1), P(2)], target


def test_census_matches_digit_census():
    """The coset census gives the whole-codeword enumeration's arrays, with
    no int64 overflow warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in _digit_cases():
            _assert_matches_digit_census(*case)


def test_census_codes_of_exactly_63_bits():
    copies = _copies_of_seven_bits()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = leakage_census(copies, [P(i) for i in range(1, 9)], [S(1, 1)])
    assert 2 ** (table.coalition_width + table.target_width) == 1 << 63
    assert len(table.codes) == 128 and table.tally * len(table.codes) == 128


def test_census_makes_no_elimination(monkeypatch):
    """The census checks the rank verdicts independently of them: with
    `field.rank` and `field.solve_affine` refusing, it still gives the digit
    census's and the reference's tables.  The schemes are built first, and
    a composed scheme's matrix is assembled with `field.block_diag`, which
    stays."""
    cases = list(_digit_cases())
    small = [(sch, *case) for sch in _small_schemes() for case in _reference_cases(sch)]
    past_cap = _tau_weak_n3()
    past_cap.matrix

    def refuse(*args):
        raise AssertionError("the census made an elimination")

    monkeypatch.setattr(field, "rank", refuse)
    monkeypatch.setattr(field, "solve_affine", refuse)
    for case in cases:
        _assert_matches_digit_census(*case)
    for case in small:
        _assert_matches_reference(*case)
    table = leakage_census(past_cap, [P(1), P(2)], past_cap.secret_variables())
    assert (table.uniform, table.n_coalition_values, table.n_codes) == (False, 11**6, 11**9)


def _coset_shape(scheme, coalition, targets):
    """(inner tally, cosets, outer settings per coset) of a census, from
    ranks: the last k rows (k = ceil(n/2), or the most with q^k <= _CHUNK
    if fewer) map onto a subspace of rank r_in, all rows onto one of rank
    r, so each inner code is made q^(k - r_in) times and the q^(n - k)
    outer settings fall into q^(r - r_in) cosets of the inner image."""
    q, n = scheme.q, scheme.n_rows
    cols = np.hstack([scheme.columns(sorted(coalition)), scheme.columns(targets)])
    k = max(j for j in range(-(-n // 2) + 1) if q**j <= dealer._CHUNK)
    r_in, r = field.rank(cols[n - k :], q), field.rank(cols, q)
    return q ** (k - r_in), q ** (r - r_in), q ** (n - k - r + r_in)


def _ci_m_scheme():
    """The CI's `m.scheme`: q = 11, 6 rows, checked by its text's sha256."""
    m = build_optimal(structure(4, [(4, 3), (2, 1)]), RatioKind(TAU, WEAK))
    digest = hashlib.sha256(m.to_text().encode()).hexdigest()
    assert digest == "d7c2174f18870dbbdebe0f70476fff40cd95ec6083e81dfa4d0ef16449d889fb"
    return m


def _assert_coset_tallies(scheme, coalition, targets, shape):
    table = _assert_matches_digit_census(scheme, coalition, targets)
    tally, cosets, per_coset = _coset_shape(scheme, coalition, targets)
    assert (tally, cosets, per_coset) == shape
    assert table.tally == tally * per_coset


def test_census_cosets_of_several_settings(monkeypatch):
    """Every tally is the inner tally times the outer settings per coset: in
    one coset of all 625 settings (the dependent scheme); with no inner rows
    and batches of 7 or 3 settings, so one coset's 14,641 settings span many
    batches; and in 121 cosets of 11 settings each, over an inner tally of
    11 (the CI's `m.scheme`, P[3] against S[1,2] and S[1,3])."""
    for target in ([S(1, 1)], []):
        _assert_coset_tallies(_dependent(), [P(1), P(2)], target, (5**2, 1, 5**4))
    _assert_coset_tallies(_ci_m_scheme(), [P(3)], [S(1, 2), S(1, 3)], (11, 121, 11))
    sch = build_B(3, (3, 4), (2, 1))
    for chunk in (7, 3):
        monkeypatch.setattr(dealer, "_CHUNK", chunk)
        _assert_coset_tallies(sch, [], [S(1, 1)], (1, 11, 11**4))


def test_census_memory_is_bounded_by_its_table():
    """The table of the CI's `m.scheme` census (11^6 codewords, 1,331
    cosets of one setting each) keeps only the distinct codes: its peak
    traced memory is at most four times the codes' bytes plus 16 MiB."""
    m = _ci_m_scheme()  # its text reads the matrix, so none of it is traced
    tracemalloc.start()
    try:
        table = leakage_census(m, [P(1), P(2)], [S(1, 1), S(1, 2), S(1, 3), S(2, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.codes) == 11**6
    assert peak <= 4 * table.codes.nbytes + (16 << 20)


@pytest.mark.parametrize("chunk", [dealer._CHUNK, 1000])
def test_census_digit_rows_are_blocks_of_the_codes(monkeypatch, chunk):
    """`digit_rows` decodes the codes in blocks of at most _CHUNK rows, and
    the blocks stack to the digits of every code.  The 161,051 codes of a
    q = 11 census of 5 rows span three blocks at the default chunk and 162
    at a chunk of 1,000, the last partly filled."""
    spans = []
    for scheme, coalition, targets in _digit_cases():
        table = leakage_census(scheme, coalition, targets)
        table.codes  # made at the default chunk; only the decoding is cut finer
        monkeypatch.setattr(dealer, "_CHUNK", chunk)
        blocks = list(table.digit_rows())
        monkeypatch.undo()
        assert all(len(rows) <= chunk for rows in blocks)
        assert len(blocks) == -(-table.n_codes // chunk)
        w = table.coalition_width + table.target_width
        want = dealer._digits(table.codes, w, table.q)
        assert np.array_equal(np.vstack(blocks), want), (coalition, targets)
        spans.append((table.n_codes, len(blocks), len(blocks[-1])))
    assert (11**5, -(-(11**5) // chunk), 11**5 % chunk) in spans


def test_census_counts_make_no_table():
    """`uniform`, `n_coalition_values` and `n_codes` are counted, so reading
    them leaves the table unmade; made, it has as many codes as counted, and
    the tallies add up to every codeword."""
    small = [(sch, *case) for sch in _small_schemes() for case in _reference_cases(sch)]
    for scheme, coalition, targets in [*small, *_digit_cases()]:
        table = leakage_census(scheme, coalition, targets)
        table.uniform, table.n_coalition_values, table.n_codes
        assert "codes" not in vars(table)
        assert len(table.codes) == table.n_codes, (coalition, targets)
        assert table.tally * table.n_codes == scheme.q**scheme.n_rows


def test_census_verdict_memory_is_small():
    """The text output of the CI's `m.scheme` census (1,771,561 codes) reads
    only the counts: its peak traced memory is at most 8 MiB, against the
    27 MiB of the table it does not make."""
    m = _ci_m_scheme()  # its text reads the matrix, so none of it is traced
    tracemalloc.start()
    try:
        table = leakage_census(m, [P(1), P(2)], [S(1, 1), S(1, 2), S(1, 3), S(2, 1)])
        counts = (table.uniform, table.n_coalition_values, table.n_codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (False, 11**4, 11**6)
    assert peak <= 8 << 20


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_census_matches_reference_on_drawn_schemes(data):
    q = data.draw(st.sampled_from([2, 3, 5, 7]), label="q")
    rows = data.draw(st.integers(1, 4), label="rows")  # q^rows <= 7^4 = 2401
    n = data.draw(st.integers(2, 3), label="N")
    sp = structure(n, [(data.draw(st.integers(2, n), label="t"), 2)])
    blocks = []
    for v in (*(S(1, j) for j in (1, 2)), *(P(i) for i in range(1, n + 1))):
        width = data.draw(st.integers(0, min(2, rows)))
        entries = data.draw(
            st.lists(st.integers(0, q - 1), min_size=rows * width, max_size=rows * width)
        )
        block = np.array(entries, dtype=np.int64).reshape(rows, width)
        assume(field.rank(block, q) == width)
        blocks.append((v, block))
    sch = stacked(sp, q, blocks)
    coalition = data.draw(st.sets(st.integers(1, n)), label="coalition")
    targets = data.draw(
        st.lists(st.sampled_from([S(1, 1), S(1, 2)]), min_size=1, max_size=2, unique=True)
    )
    _assert_matches_reference(sch, [P(i) for i in sorted(coalition)], targets)


def test_census_not_uniform_when_a_target_value_is_missing():
    """Share 1 is twice the secret, so each of its values sees one secret."""
    columns = ((S(1, 1), 1), (P(1), 2), (P(2), 1))
    sch = stacked(structure(2, [(2, 1)]), 3, ((v, [[c]]) for v, c in columns))
    table = _assert_matches_reference(sch, [P(1)], [S(1, 1)])
    assert not table.uniform
    assert _decoded_counts(table) == {(0,): {(0,): 1}, (1,): {(2,): 1}, (2,): {(1,): 1}}


# ------------------------------------------- dict-keyed reference round trip
#
# The dealer as it was before it stored vectors by position: every vector a
# dict entry keyed by `VariableId`, checked where it is used, and the maps
# eliminated afresh on each call.

def _reference_vector(vals, width, q, what):
    vals = tuple(int(v) for v in vals)
    if len(vals) != width:
        raise ValueError(f"{what} length {len(vals)} does not match width {width}")
    for v in vals:
        if not 0 <= v < q:
            raise ValueError(f"{what} element out of field range")
    return vals


def _reference_cut(words, scheme, vs):
    out, at = {}, 0
    for v in vs:
        w = scheme.width(v)
        out[v] = tuple(words[at : at + w])
        at += w
    return out


def _reference_for_scheme(scheme, vectors):
    svars = scheme.secret_variables()
    vectors = list(vectors)
    if len(vectors) != len(svars):
        raise ValueError(f"need {len(svars)} secret vectors, got {len(vectors)}")
    return {
        v: _reference_vector(vec, scheme.width(v), scheme.q, str(v))
        for v, vec in zip(svars, vectors)
    }


def _reference_deal(scheme, values, seed):
    """{share variable: vector} of the dealt codeword."""
    svars, q = scheme.secret_variables(), scheme.q
    if set(values) != set(svars):
        raise ValueError("assignment must cover every secret exactly once")
    b = []
    for v in svars:
        b.extend(_reference_vector(values[v], scheme.width(v), q, str(v)))
    solve, checks, basis = field.solve_affine(scheme.columns(svars).T, q)
    if checks.shape[1]:
        raise ValueError(
            "the secrets' joint columns are linearly dependent, "
            "so some secret values have no codeword"
        )
    c = np.array(b, dtype=np.int64) @ solve
    if len(basis):
        stream = _splitmix64(seed)
        r = [(next(stream) * q) >> 64 for _ in range(len(basis))]
        c += np.array(r, dtype=np.int64) @ basis
    share_vars = scheme.sp.variables[scheme.sp.n_secrets :]
    shares = scheme.columns(share_vars)
    return _reference_cut(((c % q) @ shares % q).tolist(), scheme, share_vars)


def _reference_to_text(fingerprint, shares):
    lines = ["mtss-bundle 1", f"fingerprint {fingerprint}"]
    for v in sorted(shares):
        lines.append(f"P {v.index} {','.join(str(e) for e in shares[v]) or '-'}")
    return "\n".join(lines) + "\n"


def _reference_from_text(text):
    from test_structure import _reference_parse_ints

    header, body = read_records(text, "mtss-bundle 1", ("fingerprint",), "bundle")
    shares = {}
    for parts in body:
        if len(parts) != 3 or parts[0] != "P":
            raise ValueError(f"bad share line: {' '.join(parts)!r}")
        v = VariableId.share(parse_int(parts[1], "share index"))
        if v in shares:
            raise ValueError(f"duplicate share line for {v}")
        shares[v] = _reference_parse_ints(parts[2], f"share vector of {v}")
    return header["fingerprint"], shares


def _reference_restrict(shares, indices):
    keep = set(indices)
    return {v: vec for v, vec in shares.items() if v.index in keep}


def _reference_reconstruct(scheme, fingerprint, shares, k):
    """{secret variable: vector} of the secrets of levels k..K."""
    if fingerprint != scheme.fingerprint:
        raise ReconstructionError("bundle fingerprint does not match scheme")
    if not 1 <= k <= scheme.sp.k_levels:
        raise ValueError("sub-array index out of range")
    avars, q = sorted(shares), scheme.q
    for v in avars:
        if v.index > scheme.sp.n_parties:
            raise ValueError(f"share index {v.index} out of range")
        _reference_vector(shares[v], scheme.width(v), q, str(v))
    if len(avars) < scheme.sp.threshold(k):
        raise ReconstructionError("unqualified set")
    vals = np.array([e for v in avars for e in shares[v]], dtype=np.int64)
    solve, checks, _ = field.solve_affine(scheme.columns(avars).T, q)
    if (vals @ checks % q).any():
        raise ReconstructionError("inconsistent shares")
    svars = scheme.secret_variables()
    words = (vals @ (solve @ scheme.columns(svars) % q) % q).tolist()
    got = _reference_cut(words, scheme, svars)
    return {v: vec for v, vec in got.items() if v.level >= k}


def _assignment(values):
    """The positional assignment of a {secret variable: vector} dict."""
    order = tuple(sorted(values))
    return SecretAssignment(order, tuple(tuple(values[v]) for v in order))


def _bundle(fingerprint, shares):
    """The positional bundle of a {share variable: vector} dict."""
    order = sorted(shares)
    return ShareBundle(
        fingerprint, tuple(v.index for v in order), tuple(tuple(shares[v]) for v in order)
    )


def _shares(bundle):
    """A bundle's {share variable: vector} dict, in index order."""
    return dict(zip(map(P, bundle.indices), bundle.vectors))


def _outcome(call, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", call(*args)
    except (ValueError, KeyError) as e:
        return type(e), str(e)


def _round_trip_cases():
    """(label, scheme): the acceptance catalog and a text copy of a
    combined scheme (a copy has no leaves and a codec of its own)."""
    from test_acceptance import build_catalog

    entries, combos = build_catalog()
    out = [(label, s) for label, s, _ in entries]
    out.append(("combined text", LinearScheme.from_text(combos[0][0].to_text())))
    return out


def _assert_same_reconstruction(sch, bundle, text, k):
    """`reconstruct` and the reference agree on the bundle read from `text`:
    the same assignment, in the same order and repr, or the same refusal."""
    fingerprint, ref_shares = _reference_from_text(text)
    want = _outcome(_reference_reconstruct, sch, fingerprint, ref_shares, k)
    got = _outcome(reconstruct, sch, bundle, k)
    if want[0] != "returned":
        assert got == want, (k, text)
        return
    assert got[0] == "returned", (k, text, got)
    assert got[1] == _assignment(want[1]) and list(got[1].variables) == list(want[1])
    assert repr(got[1]) == repr(_assignment(want[1]))


def test_round_trip_matches_reference():
    """For every catalog scheme, many seeds, every coalition (sampled above
    16) and every k: the same bundle text, bundles, reconstructed values and
    objects as the dict-keyed reference."""
    rng = random.Random(20231018)
    for label, sch in _round_trip_cases():
        n, K = sch.sp.n_parties, sch.sp.k_levels
        widths = [sch.width(v) for v in sch.secret_variables()]
        coalitions = [
            c for size in range(n + 1) for c in itertools.combinations(range(1, n + 1), size)
        ]
        for seed in [rng.getrandbits(63) for _ in range(10)]:
            vectors = [[rng.randrange(sch.q) for _ in range(w)] for w in widths]
            values = _reference_for_scheme(sch, vectors)
            sa = SecretAssignment.for_scheme(sch, vectors)
            assert sa == _assignment(values), label
            bundle = deal(sch, sa, seed=seed)
            ref_shares = _reference_deal(sch, values, seed)
            text = bundle.to_text()
            assert text == _reference_to_text(sch.fingerprint, ref_shares), label
            assert bundle == _bundle(sch.fingerprint, ref_shares)
            assert _shares(bundle) == ref_shares
            assert deal(sch, _assignment(values), seed=seed) == bundle
            back = ShareBundle.from_text(text)
            assert back == bundle
            for coalition in rng.sample(coalitions, min(16, len(coalitions))):
                part = back.restrict(coalition)
                ref_part = _reference_restrict(ref_shares, coalition)
                assert part == _bundle(sch.fingerprint, ref_part)
                assert part.to_text() == _reference_to_text(sch.fingerprint, ref_part)
                for k in range(1, K + 1):
                    _assert_same_reconstruction(sch, part, part.to_text(), k)
            got = reconstruct(sch, back, 1)
            assert got == sa and [got[v] for v in sch.secret_variables()] == list(
                map(tuple, vectors)
            ), label


def _refused(call, *args):
    kind, message = _outcome(call, *args)
    assert kind != "returned", args
    return kind, message


def test_refusals_match_reference():
    """The same exception type and message as the dict-keyed reference for
    each input the dealer refuses."""
    sch = build_B(3, (3, 4), (2, 1))  # q = 11: five width-1 secrets, width-2 shares
    q, svars = sch.q, sch.secret_variables()
    good = [[1], [2], [3], [4], [5]]
    for vectors in (good[:4], good + [[6]], [], [[1, 2], *good[1:]], [*good[:4], []],
                    [*good[:2], [q], *good[3:]], [*good[:4], [-1]]):
        assert _refused(SecretAssignment.for_scheme, sch, vectors) == _refused(
            _reference_for_scheme, sch, vectors
        ), vectors
    values = _reference_for_scheme(sch, good)
    swapped = {**{v: values[v] for v in svars[:4]}, S(3, 1): (5,)}  # five, one foreign
    for changed in ({svars[0]: (1,)}, swapped, {**values, svars[4]: (q,)},
                    {**values, svars[1]: (1, 1)}, {**values, svars[3]: (-1,)}):
        assert _refused(deal, sch, _assignment(changed), 0) == _refused(
            _reference_deal, sch, changed, 0
        ), changed
    text = deal(sch, SecretAssignment.for_scheme(sch, good), seed=9).to_text()
    lines = text.splitlines()
    foreign = build_single_threshold(2, 3, q=q).fingerprint
    cases = {
        "index 0": text.replace("\nP 2 ", "\nP 0 "),
        "index -1": text.replace("\nP 2 ", "\nP -1 "),
        "index above N": text.replace("\nP 3 ", "\nP 4 "),
        "index above N and a narrow share": "\n".join(
            [*lines[:2], "P 9 1,1", "P 2 1", lines[2]]
        ),
        "duplicate": text + lines[2] + "\n",
        "foreign fingerprint": text.replace(sch.fingerprint, foreign),
        "unqualified": "\n".join(lines[:3]),
        "inconsistent": re.sub(r"^P 3 (\d+)", lambda m: f"P 3 {(int(m[1]) + 1) % q}",
                               text, flags=re.M),
        "equal to q": re.sub(r"^P 3 \S+$", f"P 3 1,{q}", text, flags=re.M),
        "below 0": re.sub(r"^P 3 \S+$", "P 3 -1,1", text, flags=re.M),
        "wide": re.sub(r"^P 3 \S+$", "P 3 1,1,1", text, flags=re.M),
        "empty": re.sub(r"^P 1 \S+$", "P 1 -", text, flags=re.M),
        "bad vector": re.sub(r"^P 1 \S+$", "P 1 1,,2", text, flags=re.M),
        "bad line": text.replace("\nP 2 ", "\nQ 2 "),
        "not a bundle": "mtss-scheme 1\n",
    }
    for name, body in cases.items():
        want = _outcome(_reference_from_text, body)
        got = _outcome(ShareBundle.from_text, body)
        if want[0] != "returned":
            assert got == want, name
            continue
        for k in (0, 1, 2, 3):
            _assert_same_reconstruction(sch, got[1], body, k)
    # a directly built bundle is checked against the scheme by `reconstruct`
    fingerprint, shares = _reference_from_text(text)
    for changed in ({**shares, P(3): (q, 0)}, {**shares, P(1): (1,)}, {**shares, P(5): (0,)}):
        bundle = _bundle(fingerprint, changed)
        assert _refused(reconstruct, sch, bundle, 1) == _refused(
            _reference_reconstruct, sch, fingerprint, changed, 1
        )


def test_assignments_and_bundles_behave_as_frozen_dataclasses():
    """Read-only, unhashable, equal by their fields, printed as dataclasses,
    and copied and pickled, also after the scheme's codec holds a decoder;
    an unpickled assignment deals the same bundle."""
    sch = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    sa = SecretAssignment.for_scheme(sch, [[1], [3]])
    bundle = deal(sch, sa, seed=1)
    reconstruct(sch, bundle, 1)  # the codec now holds a decoder
    direct = SecretAssignment((S(1, 1), S(2, 1)), ((1,), (3,)))
    assert direct == sa and sa == direct and direct != bundle
    assert repr(sa) == repr(direct) == (
        "SecretAssignment(variables=(VariableId(kind='secret', level=1, index=1), "
        "VariableId(kind='secret', level=2, index=1)), vectors=((1,), (3,)))"
    )
    assert repr(bundle) == (
        f"ShareBundle(fingerprint={sch.fingerprint!r}, indices=(1, 2, 3), "
        f"vectors={bundle.vectors!r})"
    )
    assert SecretAssignment((S(1, 1),), ((1,),)) != sa
    assert SecretAssignment((S(1, 1),), ((1,),)) != SecretAssignment((S(2, 1),), ((1,),))
    assert ShareBundle("ab", (1,), ((),)) != ShareBundle("ab", (2,), ((),))
    assert ShareBundle("ab", (1,), ((),)) != ShareBundle("cd", (1,), ((),))
    for obj in (sa, direct, bundle, bundle.restrict([2])):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and type(twin) is type(obj)
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
        for name in ("variables", "vectors", "indices", "fingerprint", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del obj.vectors
    assert deal(sch, pickle.loads(pickle.dumps(sa)), seed=1) == bundle
    assert sa[S(2, 1)] == (3,) and sa[VariableId.secret(2, 1)] == (3,)
    with pytest.raises(KeyError):
        sa[S(3, 1)]


def test_deal_checks_a_directly_built_assignment():
    """An assignment built directly, with vectors as lists, numpy arrays,
    numpy ints or one-pass iterators, deals the bundle its tuples of ints
    deal; one that does not fit the scheme is refused with the message
    `for_scheme` gives."""
    sch = build_B(3, (3, 4), (2, 1))
    svars = sch.secret_variables()
    vectors = [[(3 * i + 1) % sch.q] for i in range(len(svars))]
    want = deal(sch, SecretAssignment.for_scheme(sch, vectors), seed=8)
    for given in (
        [list(vec) for vec in vectors],
        [np.array(vec, dtype=np.int64) for vec in vectors],
        tuple(tuple(map(np.int64, vec)) for vec in vectors),
        [iter(vec) for vec in vectors],
    ):
        got = deal(sch, SecretAssignment(svars, given), seed=8)
        assert got == want and got.to_text() == want.to_text()
        assert all(type(e) is int for vec in got.vectors for e in vec)
    changes = [(bad, *vectors[1:]) for bad in ([sch.q], [1, 1], [-1])]
    # too few vectors, or too many: nothing is filled in or dropped
    changes += [tuple(vectors[:-1]), (*vectors, [0])]
    for changed in changes:
        with pytest.raises(ValueError) as info:
            deal(sch, SecretAssignment(svars, changed), seed=8)
        assert _refused(SecretAssignment.for_scheme, sch, changed) == (
            ValueError, str(info.value)
        )
    assert deal(sch, SecretAssignment(list(svars), vectors), seed=8) == want


@pytest.mark.parametrize("indices", [(2, 1, 3), (1, 1, 3), (0, 1, 3), (-1, 2, 3)])
def test_reconstruct_refuses_indices_that_do_not_increase_from_1(indices):
    """A bundle built directly must hold its shares by increasing index;
    out of order, repeated, 0 or negative is one `ValueError`, before any
    vector is read."""
    sch = build_B(3, (3, 4), (2, 1))
    bundle = deal(sch, _counting_secrets(sch), seed=2)
    direct = ShareBundle(bundle.fingerprint, indices, bundle.vectors)
    for k in (1, 2):
        with pytest.raises(ValueError) as info:
            reconstruct(sch, direct, k)
        assert type(info.value) is ValueError
        assert str(info.value) == "share indices must increase strictly from 1"
    assert reconstruct(sch, ShareBundle(bundle.fingerprint, (1, 2, 3), bundle.vectors)) == (
        reconstruct(sch, bundle)
    )


def test_reconstruct_refuses_a_vector_count_other_than_the_index_count():
    """A bundle built directly with one vector fewer or more than it has
    indices is one `ValueError`; indices given as a list decode as a tuple
    does."""
    sch = build_B(3, (3, 4), (2, 1))
    bundle = deal(sch, _counting_secrets(sch), seed=2)
    for vectors in (bundle.vectors[:-1], (*bundle.vectors, bundle.vectors[-1])):
        direct = ShareBundle(bundle.fingerprint, bundle.indices, vectors)
        with pytest.raises(ValueError) as info:
            reconstruct(sch, direct)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{len(vectors)} share vectors for 3 share indices"
    listed = ShareBundle(bundle.fingerprint, list(bundle.indices), bundle.vectors)
    for k in (1, 2):
        assert reconstruct(sch, listed, k) == reconstruct(sch, bundle, k)


def test_a_scheme_and_its_codec_are_freed_without_the_cycle_collector():
    """The codec keeps the layout and arrays, not the scheme, so a scheme
    that has dealt and reconstructed is freed by reference counting."""
    sch = LinearScheme.from_text(build_B(3, (3, 4), (2, 1)).to_text())
    bundle = deal(sch, _counting_secrets(sch), seed=5)
    assert reconstruct(sch, bundle.restrict([1, 2]), k=2)
    refs = weakref.ref(sch), weakref.ref(sch.codec)
    gc.disable()
    try:
        del sch
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_codec_and_profile_read_the_schemes_matrix():
    """A leaf's profile ranks from the scheme's matrix, and a codec's secret
    and share columns are views of it, cut by the scheme's cuts: no copy of
    the layout or of the columns is made."""
    leaf = build_B(3, (3, 4), (2, 1))
    composed = build_optimal(structure(4, [(3, 2), (2, 1)]), RatioKind(SIGMA, STRONG))
    assert composed.leaves and not leaf.leaves
    assert np.shares_memory(leaf.profile._matrix, leaf.matrix)
    for sch in (leaf, composed, LinearScheme.from_text(composed.to_text())):
        codec, ns = sch.codec, sch.sp.n_secrets
        assert np.shares_memory(codec.secrets, sch.matrix)
        assert np.shares_memory(codec.shares, sch.matrix)
        assert np.array_equal(np.hstack([codec.secrets, codec.shares]), sch.matrix)
        assert codec.secret_cuts == sch.cuts[:ns]
        assert (codec.secret_widths, codec.share_widths) == (sch.widths[:ns], sch.widths[ns:])
        for cut, own in zip(sch.cuts[ns:], codec.share_cuts):
            assert np.array_equal(sch.matrix[:, cut], codec.shares[:, own])
