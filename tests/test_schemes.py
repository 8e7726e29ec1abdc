"""Construction, composition, and serialization tests for scheme builders."""

import dataclasses
import hashlib
import itertools
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mtss import field, schemes, verify
from mtss.schemes import (
    FieldSearchError,
    LinearScheme,
    VariableId,
    build_A,
    build_B,
    build_optimal,
    build_single_threshold,
    build_weak_block,
    combine,
    embed,
    unify_field,
    vandermonde,
)
from mtss.structure import (
    SIGMA,
    SIGMA_AVG,
    STRONG,
    TAU,
    TAU_AVG,
    WEAK,
    RatioKind,
    optimal_ratio,
    slot_map,
    structure,
)
from test_verify import KINDS, _table_family, stacked


def full_matrix(s):
    return s.matrix


# -- Vandermonde windows ----------------------------------------------------


def test_vandermonde_entries():
    v = vandermonde(2, [1, 2, 3], 5)
    assert v.tolist() == [[1, 1, 1], [1, 2, 3]]
    v = vandermonde(3, range(1, 6), 7)
    assert v.tolist() == [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5], [1, 4, 2, 2, 4]]
    assert vandermonde(1, [0, 4], 5).tolist() == [[1, 1]]


def test_vandermonde_rejects_bad_elements():
    with pytest.raises(ValueError, match="duplicate"):
        vandermonde(2, [1, 1, 2], 5)
    with pytest.raises(ValueError, match="range"):
        vandermonde(2, [1, 5], 5)
    with pytest.raises(ValueError, match="row"):
        vandermonde(0, [1], 5)


@settings(max_examples=60, deadline=None)
@given(
    t=hst.integers(1, 5),
    els=hst.lists(hst.integers(0, 12), min_size=1, max_size=6, unique=True),
)
def test_vandermonde_any_t_columns_independent(t, els):
    # distinct evaluation points make every t-column minor invertible
    v = vandermonde(t, els, 13)
    assert field.rank(v, 13) == min(t, len(els))


def test_single_threshold_layout():
    s = build_single_threshold(3, 3)
    assert s.q == 5 and s.n_rows == 3
    assert s.columns([VariableId.secret(1, 1)]).tolist() == [[1], [1], [1]]
    assert s.columns([VariableId.share(2)]).tolist() == [[1], [3], [4]]
    assert verify.check_conditions(s, STRONG).passed


def test_single_threshold_validation():
    with pytest.raises(ValueError, match="threshold"):
        build_single_threshold(1, 3)
    with pytest.raises(ValueError, match="threshold"):
        build_single_threshold(4, 3)
    with pytest.raises(ValueError, match="not prime"):
        build_single_threshold(2, 3, q=6)
    with pytest.raises(ValueError, match="too large"):
        build_single_threshold(2, 3, q=(1 << 61) - 1)
    with pytest.raises(ValueError, match="below the admissible minimum"):
        build_single_threshold(2, 3, q=3)


def test_picked_prime_over_the_limit_fails_before_any_matrix(monkeypatch):
    """With no q given, the prime picked for N = 1048600 is 1048609, over
    the modulus limit: the builders refuse it before they make the
    million-column Vandermonde matrix."""
    calls = []
    monkeypatch.setattr(schemes, "vandermonde", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="modulus 1048609 is too large"):
        build_single_threshold(2, 1048600)
    with pytest.raises(ValueError, match="too large"):
        build_weak_block(1048600, 2, 3)
    assert calls == []


def test_searched_prime_over_the_limit_fails_before_any_matrix(monkeypatch):
    """The stitched families take their candidates from the same walk as
    the windows, so for N = 1048600 the first prime, 1048609, is refused
    before the stitched matrix of about a million columns is made."""
    calls = []
    monkeypatch.setattr(schemes, "vandermonde", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match=r"modulus 1048609 is too large \(limit 2\*\*20\)"):
        build_A(1048600, (3, 4), 1)
    with pytest.raises(ValueError, match=r"modulus 1048609 is too large \(limit 2\*\*20\)"):
        build_B(1048600, (3, 4), (2, 1))
    assert calls == []


def test_weak_block_degenerates_to_single():
    """The one-secret threshold scheme is the weak block with m = 1: the
    same text, minimum order N + 2 and recipe, with q given or picked."""
    assert build_single_threshold(2, 2).q == 5
    for q in (None, 13):
        for n in range(2, 7):
            for t in range(2, n + 1):
                single, block = build_single_threshold(t, n, q), build_weak_block(n, t, 1, q)
                assert single.to_text() == block.to_text()
                assert single.min_order == block.min_order == n + 2
                assert single.recipe == block.recipe == ("weak-block", (n, t, 1))


def test_weak_block_overfull_widths():
    s = build_weak_block(3, 2, 4)
    widths = [s.width(v) for v in s.secret_variables()]
    assert widths == [1, 1, 0, 0]
    assert verify.check_conditions(s, WEAK).passed


# -- stitched constructions -------------------------------------------------


def test_displayed_A_matrix():
    s = build_A(3, (2, 3), 1)
    assert (s.q, s.n_rows) == (7, 3)
    assert full_matrix(s).tolist() == [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 2, 3, 4, 5, 0, 6, 0],
        [1, 4, 2, 2, 4, 0, 1, 0],
    ]
    assert verify.check_conditions(s, WEAK).passed


def test_displayed_B_matrix():
    s = build_B(3, (3, 4), (2, 1))
    assert s.q == 11 and s.n_rows == 5
    q = s.q
    expected = []
    for r in range(5):
        row = [pow(e, r, q) for e in (1, 2, 3, 4)]          # four top secrets
        row.append(1 if r == 0 else 0)                      # identity secret
        for i in (1, 2, 3):                                 # shares: window + tail
            row.append(pow(4 + i, r, q))
            row.append([1, i, 0, 0, 0][r])
        expected.append(row)
    assert full_matrix(s).tolist() == expected
    assert verify.check_conditions(s, WEAK).passed


def test_stitched_row_counts():
    b = build_B(4, (4, 5), (3, 1))
    assert b.n_rows == 5 * 3 - 4 * 1 == 11
    assert verify.check_conditions(b, WEAK).passed
    a = build_A(4, (3, 5), 2)
    assert a.n_rows == 10
    assert [a.width(v) for v in a.sp.variables[a.sp.n_secrets :]] == [2, 4, 4, 4]
    assert verify.check_conditions(a, WEAK).passed


def test_build_B_validation():
    with pytest.raises(ValueError, match="m1 > t1 > t2 > m2"):
        build_B(3, (3, 3), (2, 1))
    with pytest.raises(ValueError, match="m1 > t1 > t2 > m2"):
        build_B(3, (3, 4), (2, 2))
    with pytest.raises(ValueError, match="participant"):
        build_B(3, (4, 5), (2, 1))


def test_build_A_validation():
    with pytest.raises(ValueError, match="more secrets"):
        build_A(3, (2, 2), 1)
    with pytest.raises(ValueError, match="a out of range"):
        build_A(3, (2, 3), 2)
    with pytest.raises(ValueError, match="participant"):
        build_A(3, (4, 5), 1)


def test_stitched_explicit_field():
    s = build_A(3, (2, 3), 1, q=11)
    assert s.q == 11
    assert verify.check_conditions(s, WEAK).passed
    with pytest.raises(ValueError, match="below the admissible minimum"):
        build_A(3, (2, 3), 1, q=5)
    with pytest.raises(ValueError, match="not prime"):
        build_B(3, (3, 4), (2, 1), q=12)
    with pytest.raises(ValueError, match="too large"):
        build_B(3, (3, 4), (2, 1), q=4294967311)


# -- composition ------------------------------------------------------------


def test_embed_by_threshold():
    target = structure(3, [(3, 1), (2, 2)])
    s = embed(build_weak_block(3, 2, 2), target)
    assert s.sp == target
    assert [s.width(v) for v in s.secret_variables()] == [0, 1, 1]
    assert verify.check_conditions(s, WEAK).passed


def test_embed_default_is_slot_map():
    cases = [
        (build_weak_block(3, 2, 2), structure(3, [(3, 1), (2, 2)])),
        (build_weak_block(3, 2, 2), structure(3, [(2, 4)])),
        (build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, WEAK)),
         structure(3, [(3, 2), (2, 2)])),
    ]
    for s, target in cases:
        default = embed(s, target)
        placed = embed(s, target, place=slot_map(s.sp, target))
        assert default.to_text() == placed.to_text()
        assert default.leaves and default.leaves == placed.leaves


def test_embed_requires_matching_structure():
    with pytest.raises(ValueError, match="subset"):
        embed(build_weak_block(3, 2, 2), structure(4, [(2, 2)]))
    with pytest.raises(ValueError, match="subset"):
        embed(build_weak_block(3, 2, 2), structure(3, [(3, 2)]))
    with pytest.raises(ValueError, match="subset"):
        embed(build_weak_block(3, 2, 2), structure(3, [(2, 1)]))


def test_embed_with_placement():
    target = structure(3, [(2, 3)])
    s = embed(build_weak_block(3, 2, 2), target, place={(1, 1): (1, 3), (1, 2): (1, 1)})
    assert [s.width(v) for v in s.secret_variables()] == [1, 0, 1]
    assert verify.check_conditions(s, WEAK).passed


def test_embed_placement_validation():
    src = build_weak_block(3, 2, 2)
    target = structure(3, [(3, 1), (2, 2)])
    with pytest.raises(ValueError, match="preserve thresholds"):
        embed(src, target, place={(1, 1): (1, 1), (1, 2): (2, 1)})
    with pytest.raises(ValueError, match="collides"):
        embed(src, target, place={(1, 1): (2, 1), (1, 2): (2, 1)})
    with pytest.raises(ValueError, match="cover every source secret"):
        embed(src, target, place={(1, 1): (2, 1)})
    with pytest.raises(ValueError, match="does not exist"):
        embed(src, target, place={(1, 1): (2, 1), (1, 2): (2, 5)})


def test_combine_stacks_blocks_diagonally():
    part = build_single_threshold(3, 3)
    s = combine([part, part])
    assert s.n_rows == 6
    for v in s.sp.variables:
        assert s.width(v) == 2 * part.width(v)
    p_part = verify.RankProfile(part)
    p_comb = verify.RankProfile(s)
    x = [VariableId.secret(1, 1), VariableId.share(2)]
    assert p_comb.rank(x) == 2 * p_part.rank(x)
    assert verify.check_conditions(s, STRONG).passed


def test_combine_of_built_parts_makes_no_elimination(monkeypatch):
    """Neither combining built parts nor assembling the combination's
    matrix eliminates, and each of its blocks has its width as its rank,
    also the width-0 secret blocks of embedded parts."""
    sp = structure(4, [(3, 2), (2, 1)])
    parts = unify_field(
        [
            embed(build_single_threshold(t, 4), sp, place={(1, 1): slot})
            for t, slot in ((3, (1, 1)), (3, (1, 2)), (2, (2, 1)))
        ]
    )
    assert any(0 in p.widths for p in parts)
    calls = []
    real_rank = field.rank
    monkeypatch.setattr(field, "rank", lambda *a: calls.append(a) or real_rank(*a))
    s = combine(parts)
    assert s.matrix.size and calls == []
    monkeypatch.undo()
    for v, cut in zip(s.sp.variables, s.cuts):
        b = s.matrix[:, cut]
        assert field.rank(b, s.q) == b.shape[1] == s.width(v)


def test_combine_validation():
    a = build_single_threshold(2, 3)
    with pytest.raises(ValueError, match="at least one part"):
        combine([])
    with pytest.raises(ValueError, match="structure"):
        combine([a, build_single_threshold(3, 3)])
    with pytest.raises(ValueError, match="field"):
        combine([a, build_single_threshold(2, 3, q=7)])
    assert combine([a]) is a


def test_profile_refuses_links_that_do_not_match_the_blocks():
    """Links cannot be put on blocks they were not made with: the
    constructor takes none, and a copy given other blocks keeps none, so its
    profile answers from the blocks it has."""
    a = build_single_threshold(2, 3)
    blocks = {v: a.columns([v]) for v in a.sp.variables}
    sec, p1 = VariableId.secret(1, 1), VariableId.share(1)
    blocks[p1] = blocks[sec]  # P[1] holds the secret itself
    leaky = stacked(a.sp, a.q, blocks.items())
    real = combine([a, leaky])
    assert [leaf for leaf, _ in real.leaves] == [a, leaky]
    assert not verify.check_conditions(real, STRONG).passed

    # Summing a's ranks twice would answer rank {S, P[1]} = 4; the stack has 3.
    x = [sec, p1]
    assert real.profile.rank(x) == field.rank(real.columns(x), real.q) == 3
    assert 2 * a.profile.rank(x) == 4
    same = (0, 1, 2, 3)
    for scheme, links in (
        (real, dict(leaves=((a, same), (a, same)))),
        (real, dict(leaves=((a, same), (build_single_threshold(2, 3, q=7), same)))),
        (a, dict(leaves=((leaky, same),))),
        (leaky, dict(leaves=((a, same),))),
        (LinearScheme.from_text(a.to_text()), dict(leaves=((a, same),))),
    ):
        with pytest.raises(TypeError):
            LinearScheme(
                sp=scheme.sp, q=scheme.q, matrix=scheme.matrix, widths=scheme.widths, **links
            )
    # a combined with itself, given the stack's matrix: its leaves are dropped.
    bad = dataclasses.replace(combine([a, a]), matrix=real.matrix)
    assert bad.leaves == ()
    assert bad.profile.rank(x) == 3
    for security in (STRONG, WEAK):
        assert verify.check_conditions(bad, security) == verify.check_conditions(
            real, security
        )
    # An embed given leaky's matrix: its leaf is dropped.
    e = embed(a, structure(3, [(2, 2)]))
    assert e.leaves[0][0] is a
    moved = dataclasses.replace(e, matrix=leaky.matrix, widths=leaky.widths, sp=a.sp)
    assert moved.leaves == () and moved.profile.rank(x) == 1
    assert not verify.check_conditions(moved, STRONG).passed


# -- serialization ----------------------------------------------------------


def test_text_round_trip():
    s = embed(build_B(3, (3, 4), (2, 1)), structure(3, [(3, 5), (2, 2)]))
    t = LinearScheme.from_text(s.to_text())
    assert (t.sp, t.q, t.n_rows) == (s.sp, s.q, s.n_rows)
    for v in s.sp.variables:
        assert np.array_equal(t.columns([v]), s.columns([v]))
    assert t.fingerprint == s.fingerprint
    assert t.recipe is None  # parameters are not serialized


def test_fingerprint_distinguishes_schemes():
    a = build_single_threshold(2, 3)
    b = build_single_threshold(3, 3)
    assert len(a.fingerprint) == 64
    assert a.fingerprint != b.fingerprint


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError, match="not a scheme file"):
        LinearScheme.from_text("hello\n")
    good = build_single_threshold(2, 3).to_text()
    with pytest.raises(ValueError, match="header"):
        LinearScheme.from_text(good.replace("q 5", "q five"))
    with pytest.raises(ValueError, match="variable line"):
        LinearScheme.from_text(good + "X 9 9\n")
    for line in ("S", "S 1", "P"):
        with pytest.raises(ValueError, match="variable line"):
            LinearScheme.from_text(good + line + "\n")
    with pytest.raises(ValueError, match=r"bad column of P\[3\] '1,,2'"):
        LinearScheme.from_text(good + "P 3 1,,2\n")
    with pytest.raises(ValueError, match="header"):
        LinearScheme.from_text(good.replace("rows", "q"))
    with pytest.raises(ValueError, match="header: negative rows -1"):
        LinearScheme.from_text(good.replace("rows 2", "rows -1"))
    # a structure header of one or three tokens
    for header in ("structure 3", "structure 3 2 2"):
        with pytest.raises(ValueError) as bad:
            LinearScheme.from_text(good.replace("structure 3 2", header))
        assert str(bad.value) == 'malformed scheme header: expected "structure N t,t,…"'
    # single integers are read in the item grammar of list entries
    for bad in ("٣", "3_0"):
        for old, new, message in (
            ("q 5", f"q {bad}", "header: bad field order"),
            ("rows 2", f"rows {bad}", "header: bad row count"),
            ("structure 3", f"structure {bad}", "header: bad participant count"),
            ("S 1 1 ", f"S {bad} 1 ", "bad secret level"),
            ("S 1 1 ", f"S 1 {bad} ", "bad secret index"),
            ("P 1 ", f"P {bad} ", "bad share index"),
        ):
            with pytest.raises(ValueError, match=message):
                LinearScheme.from_text(good.replace(old, new))
    # header lines in any order, blank lines and padded magic are read
    lines = good.splitlines()
    shuffled = "\n".join([lines[0] + "  ", "", lines[3], lines[1], lines[2]] + lines[4:])
    assert LinearScheme.from_text(shuffled).fingerprint == build_single_threshold(2, 3).fingerprint
    with pytest.raises(ValueError, match="too large"):
        LinearScheme.from_text(good.replace("q 5", "q 4294967311"))


def test_scheme_validation():
    """The constructor refuses a bad modulus, a width count other than the
    variable count, a negative width, widths that do not sum to the column
    count and a block with dependent columns, each with its message."""
    s = build_single_threshold(2, 3)  # 2 rows, four width-1 blocks
    m, w = s.matrix, s.widths
    with pytest.raises(ValueError, match="not prime"):
        LinearScheme(s.sp, 9, m, w)
    with pytest.raises(ValueError, match="too large"):
        LinearScheme(s.sp, (1 << 61) - 1, m, w)
    refusals = [
        (m[:, 1:], w[1:], "3 widths for 4 variables"),
        (m, w + (0,), "5 widths for 4 variables"),
        (m, (2, -1, 2, 1), "negative width -1"),
        (m, (1, 1, 1, 2), "widths sum to 5, matrix has 4 columns"),
        # the secret's block: its second column is twice its first
        (np.hstack([[[1, 2], [2, 4]], m[:, 1:]]), (2, 1, 1, 1), "block S[1,1] has linearly "
         "dependent columns"),
    ]
    for matrix, widths, message in refusals:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearScheme(s.sp, s.q, matrix, widths)
    assert LinearScheme(s.sp, s.q, m, list(w)).widths == w


def test_from_text_refuses_variable_lines_out_of_order_or_missing():
    """`from_text` takes the variable lines in canonical order, one for each
    variable: a swapped, missing or repeated line is refused."""
    lines = build_weak_block(3, 2, 2).to_text().splitlines()
    head, body = lines[:4], lines[4:]  # S 1 1, S 1 2, P 1, P 2, P 3
    for bad in (
        [body[1], body[0]] + body[2:],
        body[:2] + [body[3], body[2], body[4]],
        body[1:],
        body[:-1],
        body + body[-1:],
    ):
        with pytest.raises(
            ValueError, match="^blocks must cover every variable in canonical order$"
        ):
            LinearScheme.from_text("\n".join(head + bad))
    assert LinearScheme.from_text("\n".join(head + body)).to_text().splitlines() == lines


def test_blocks_are_read_only_reduced_arrays():
    """The matrix of a leaf, of its text and `dataclasses.replace` copies
    and of an assembled composed scheme is a read-only 2-d int64 array with
    entries in [0, q), `n_rows` by the widths' sum, and so is every block
    cut from it; the constructor reduces an unreduced nested list."""
    leaf = build_B(3, (3, 4), (2, 1))
    composed = build_optimal(structure(3, [(3, 2), (2, 1)]), RatioKind(SIGMA, WEAK))
    assert composed.leaves
    toy = LinearScheme(structure(2, [(2, 1)]), 5, [[7, 1, 10], [-1, -4, 6]], (1, 1, 1))
    assert toy.matrix.tolist() == [[2, 1, 0], [4, 1, 1]] and toy.n_rows == 2
    for s in (
        leaf,
        LinearScheme.from_text(leaf.to_text()),
        dataclasses.replace(leaf),
        composed,
        toy,
    ):
        m = s.matrix
        assert isinstance(m, np.ndarray) and m.dtype == np.int64 and m.ndim == 2
        assert m.shape == (s.n_rows, sum(s.widths)) and not m.flags.writeable
        assert ((0 <= m) & (m < s.q)).all()
        for b in (m, *(m[:, cut] for cut in s.cuts)):
            with pytest.raises(ValueError):
                b[..., :1] = 0
    with pytest.raises(ValueError, match="2-d"):
        dataclasses.replace(toy, matrix=toy.matrix[:, 0])


# -- field unification ------------------------------------------------------


def test_unify_field_moves_to_common_prime():
    a = build_weak_block(3, 2, 2)  # admissible from order 6 -> built at 7
    b = build_weak_block(4, 3, 3)  # admissible from order 8 -> built at 11
    assert (a.q, b.q) == (7, 11)
    ua, ub = unify_field([a, b])
    assert ua.q == ub.q == 11
    assert verify.check_conditions(ua, WEAK).passed
    assert verify.check_conditions(ub, WEAK).passed


def test_unify_field_respects_searched_orders():
    big = build_B(3, (3, 4), (2, 1))
    small = build_weak_block(3, 2, 1)
    ua, ub = unify_field([big, small])
    assert ua.q == ub.q >= big.q


def test_unify_field_skips_a_prime_a_part_cannot_be_rebuilt_at():
    """The search starts at 29, the second part's prime, where the first
    part's family fails its weak check, so both parts move on to 31."""
    first = build_B(4, (4, 6), (3, 2))
    second = build_B(4, (4, 7), (3, 2))
    assert second.q == 29
    with pytest.raises(FieldSearchError):
        build_B(4, (4, 6), (3, 2), q=29)
    parts = unify_field([first, second])
    assert [p.q for p in parts] == [31, 31]
    assert all(verify.check_conditions(p, WEAK).passed for p in parts)


def test_unify_field_reuses_parts_over_the_common_prime(monkeypatch):
    """A part already over the common prime comes back as it is; the others
    are rebuilt once per distinct part, equal to a build at that prime."""
    a = build_weak_block(3, 2, 2)  # q = 7
    b = build_weak_block(4, 3, 3)  # q = 11
    rebuilt = []
    real = schemes._rebuild

    def spy(s, q):
        got = real(s, q)
        if got is not s:
            rebuilt.append(s)
        return got

    monkeypatch.setattr(schemes, "_rebuild", spy)
    ua1, ub, ua2 = unify_field([a, b, a])
    assert ub is b and ua1 is ua2
    assert rebuilt == [a]
    assert ua1.to_text() == build_weak_block(3, 2, 2, q=11).to_text()


def test_unify_field_needs_recipes():
    s = LinearScheme.from_text(build_single_threshold(2, 3).to_text())
    with pytest.raises(ValueError, match="rebuildable"):
        unify_field([s])
    with pytest.raises(ValueError, match="rebuildable"):
        unify_field([embed(s, structure(3, [(3, 1), (2, 1)]))])


def test_recipe_guarantee_refuses_leaves_without_recipes():
    """A leaf read from text or copied has no recipe, so neither its rebuild
    over another prime nor the guarantee it is checked at is known:
    `unify_field` refuses it with `ValueError`, also inside a composition."""
    a = build_single_threshold(2, 3)
    text = LinearScheme.from_text(a.to_text())
    copy = dataclasses.replace(a)
    sp = structure(3, [(3, 1), (2, 1)])
    for s in (text, copy, embed(text, sp), combine([a, copy])):
        with pytest.raises(ValueError, match="not rebuildable"):
            unify_field([s])


def test_replace_copy_of_a_leaf_has_no_recipe():
    """A `dataclasses.replace` copy with other blocks is not the construction
    its recipe would rebuild, so it keeps none and `unify_field` refuses it
    (a rebuild at another prime would drop the copy's blocks)."""
    a = build_weak_block(3, 2, 2)  # q = 7
    assert a.widths == (1, 1, 1, 1, 1)
    swapped = a.matrix[:, [1, 0, 2, 3, 4]]  # the two secrets' columns swapped
    copy = dataclasses.replace(a, matrix=swapped)
    assert copy.recipe is None and copy.to_text() != a.to_text()
    with pytest.raises(ValueError, match="rebuildable"):
        unify_field([copy, build_weak_block(4, 3, 3)])  # q = 11
    with pytest.raises(ValueError, match="rebuildable"):
        unify_field([copy])
    with pytest.raises(TypeError):
        LinearScheme(sp=a.sp, q=a.q, matrix=swapped, widths=a.widths, recipe=a.recipe)


def test_composed_part_is_rebuilt_from_its_leaves():
    """A part embedding a combination, next to a part on a larger prime, is
    rebuilt as the same embedding of the combination of its leaves built at
    that prime, byte for byte."""
    a = build_weak_block(3, 2, 1)  # q = 5
    b = build_single_threshold(2, 3)  # q = 5
    target = structure(3, [(3, 1), (2, 2)])
    part = embed(combine([a, b]), target, place={(1, 1): (2, 2)})
    other = build_weak_block(3, 3, 3)  # q = 7
    got, same = unify_field([part, other])
    assert same is other and got.q == 7
    a7, b7 = build_weak_block(3, 2, 1, q=7), build_single_threshold(2, 3, q=7)
    want = embed(combine([a7, b7]), target, place={(1, 1): (2, 2)})
    assert got.to_text() == want.to_text()
    assert [leaf.recipe for leaf, _ in got.leaves] == [a.recipe, b.recipe]
    assert [index for _, index in got.leaves] == [index for _, index in part.leaves]


BUILDERS = {
    "single": build_single_threshold,
    "weak-block": build_weak_block,
    "B": build_B,
    "A": build_A,
}


def _rebuild_by_embedding(scheme, q):
    """A composed scheme over F_q, built as `build_optimal` first built it:
    a `combine` of `embed`s of its leaves, each built afresh at q, with the
    placement read from the variables of the scheme and the leaf."""
    parts = []
    for leaf, index in scheme.leaves:
        place = {}
        for v, i in zip(scheme.sp.variables, index):
            if v.kind == "secret" and i >= 0:
                src = leaf.sp.variables[i]
                place[src.level, src.index] = (v.level, v.index)
        tag, args = leaf.recipe
        parts.append(embed(BUILDERS[tag](*args, q=q), scheme.sp, place=place))
    return combine(parts)


def test_moved_composed_parts_match_a_rebuild_by_embedding(monkeypatch):
    """Over every build_optimal cell with N <= 4 whose `unify_field` moves a
    composed part to another prime, the leaf swap gives the text,
    fingerprint, widths, placements and minimum order of a `combine` of
    `embed`s of leaves built at that prime, and calls neither."""
    cells = 0
    for sp in _table_family((2, 3, 4)):
        for kind in KINDS:
            if kind.security == STRONG:
                parts = schemes._strong_parts(sp, kind)
            else:
                parts = schemes._weak_parts(sp, kind)
            p = unify_field(parts)[0].q
            moved = [s for s in dict.fromkeys(parts) if s.leaves and s.q != p]
            if not moved:
                continue
            cells += 1
            with monkeypatch.context() as m:
                m.setattr(schemes, "embed", None)
                m.setattr(schemes, "combine", None)
                got = [schemes._rebuild(s, p) for s in moved]
            for s, g in zip(moved, got):
                want = _rebuild_by_embedding(s, p)
                assert g.q == p and g.sp == s.sp
                assert g.to_text() == want.to_text()
                assert g.fingerprint == want.fingerprint
                assert g.widths == want.widths
                assert [i for _, i in g.leaves] == [i for _, i in want.leaves]
                assert [i for _, i in g.leaves] == [i for _, i in s.leaves]
                assert g.min_order == want.min_order
    assert cells == 38


def test_leaves_flatten_nested_compositions():
    """A combine of a combine lists the inner leaves in order, and an embed
    of an embed points at the original leaf, each variable at its block."""
    a = build_single_threshold(2, 3)
    b = build_weak_block(3, 2, 1)
    c = build_single_threshold(2, 3)
    outer = combine([combine([a, b]), c])
    assert outer.leaves == ((a, (0, 1, 2, 3)), (b, (0, 1, 2, 3)), (c, (0, 1, 2, 3)))
    once = embed(a, structure(3, [(2, 2)]), place={(1, 1): (1, 2)})
    twice = embed(once, structure(3, [(3, 1), (2, 2)]))
    assert once.leaves == ((a, (-1, 0, 1, 2, 3)),)
    assert twice.leaves == ((a, (-1, -1, 0, 1, 2, 3)),)
    assert [leaf for leaf, _ in combine([twice, twice]).leaves] == [a, a]


def test_unify_field_checks_each_distinct_leaf_once_at_weak(monkeypatch):
    """Only leaves are checked, each distinct leaf of the rebuilt parts once
    per candidate prime and always at weak security; no part passed in or
    returned gets a rank table."""
    asked = []
    check = verify.check_conditions

    def spy(scheme, security, *args):
        asked.append((scheme, security))
        return check(scheme, security, *args)

    one = combine([build_single_threshold(2, 3), build_weak_block(3, 2, 1)])
    sp = structure(3, [(2, 2)])
    mixed = combine([embed(build_single_threshold(2, 3, q=7), sp), build_weak_block(3, 2, 2)])
    monkeypatch.setattr(verify, "check_conditions", spy)
    for parts in ([one, one], [mixed, combine([mixed, mixed])]):
        asked.clear()
        made = unify_field(parts)
        assert {security for _, security in asked} == {WEAK}
        assert all(not scheme.leaves for scheme, _ in asked)
        assert len({id(scheme) for scheme, _ in asked}) == len(asked)
        p = made[0].q
        leaves = dict.fromkeys(leaf for part in made for leaf, _ in part.leaves)
        assert [scheme for scheme, _ in asked if scheme.q == p] == list(leaves)
        assert not any("profile" in vars(part) for part in (*parts, *made))


def test_one_secret_leaf_weak_report_is_its_strong_report():
    """A leaf with one secret has one level, where C2 and C3 name the same
    instances: its weak and strong reports agree in every group, on every
    one-secret window with 2 <= t <= N <= 6 and on a leaf whose share 1 is a
    copy of the secret."""
    leaky = LinearScheme(structure(2, [(2, 1)]), 5, [[1, 1, 0], [0, 0, 1]], (1, 1, 1))
    windows = [build_weak_block(n, t, 1) for n in range(2, 7) for t in range(2, n + 1)]
    assert len(windows) == 15
    for leaf in (*windows, leaky):
        weak = verify.check_conditions(leaf, WEAK)
        strong = verify.check_conditions(leaf, STRONG)
        assert (weak.security, strong.security) == (WEAK, STRONG)
        assert weak.independence == strong.independence, leaf.recipe
        assert weak.decodable == strong.decodable, leaf.recipe
        assert weak.secure == strong.secure, leaf.recipe
    witness = verify.check_conditions(leaky, WEAK).secure.witness
    assert (witness.shares, witness.got, witness.want) == ((1,), 1, 2)


def _composed_cells():
    """(cell, scheme) of every build_optimal cell with N <= 4."""
    for sp in _table_family((2, 3, 4)):
        for kind in KINDS:
            yield (sp, kind), build_optimal(sp, kind)


def test_composed_scheme_matches_its_text_copy():
    """A composed scheme lists the variables, widths and cuts of its text
    copy, and its matrix, assembled on first read, is the copy's and gives
    its text and fingerprint; the leaf constructor accepts it, and the
    eliminated rank of each block is its width (every cell with N <= 4)."""
    cells = 0
    for cell, s in _composed_cells():
        assert s.leaves and "matrix" not in vars(s), cell
        text = s.to_text()
        copy = LinearScheme.from_text(text)
        assert "matrix" in vars(s)
        assert (s.sp, s.q, s.n_rows) == (copy.sp, copy.q, copy.n_rows)
        assert s.sp.variables == copy.sp.variables == s.sp.variables
        assert s.secret_variables() == copy.secret_variables()
        assert s.sp.variables[s.sp.n_secrets :] == copy.sp.variables[copy.sp.n_secrets :]
        assert [s.width(v) for v in s.sp.variables] == [copy.width(v) for v in copy.sp.variables]
        assert s.widths == copy.widths and s.cuts == copy.cuts
        assert np.array_equal(s.matrix, copy.matrix)
        assert text == copy.to_text() and s.fingerprint == copy.fingerprint
        leaf = LinearScheme(s.sp, s.q, s.matrix, s.widths)
        assert leaf.to_text() == text and leaf.leaves == ()
        for v, cut in zip(s.sp.variables, s.cuts):
            assert field.rank(s.matrix[:, cut], s.q) == s.width(v), (cell, v)
        cells += 1
    assert cells == len(KINDS) * len(_table_family((2, 3, 4)))


def test_concurrent_first_reads_of_a_composed_matrix():
    """Eight threads behind a barrier make the first reads of one fresh
    composed scheme's widths, cuts and matrix, each thread in another
    order: each is made once, and every thread gets the same objects, equal
    to a serial read's."""
    sp = structure(4, [(3, 2), (2, 1)])
    kind = RatioKind(SIGMA, STRONG)
    one = build_optimal(sp, kind)
    serial = (one.widths, one.cuts, one.matrix)
    start = threading.Barrier(8)
    orders = list(itertools.permutations(range(3)))

    def first_read(s, k):
        start.wait(timeout=60)
        got = [None] * 3
        for i in orders[k % len(orders)]:
            got[i] = getattr(s, ("widths", "cuts", "matrix")[i])
        return got

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                s = build_optimal(sp, kind)
                assert s.leaves and not {"widths", "cuts", "matrix"} & vars(s).keys()
                got = list(pool.map(first_read, [s] * 8, range(8), timeout=60))
                assert all(x is y for read in got for x, y in zip(read, got[0]))
                assert got[0][:2] == list(serial[:2])
                assert np.array_equal(got[0][2], serial[2])
    finally:
        sys.setswitchinterval(switch)


# -- ratio-optimal construction --------------------------------------------


OPTIMAL_CASES = [
    (structure(3, [(3, 1), (2, 1)]), SIGMA, STRONG),
    (structure(3, [(3, 1), (2, 1)]), TAU, STRONG),
    (structure(3, [(3, 1), (2, 1)]), SIGMA_AVG, STRONG),
    (structure(3, [(3, 1), (2, 1)]), TAU_AVG, STRONG),
    (structure(3, [(2, 3)]), SIGMA, WEAK),
    (structure(3, [(3, 4), (2, 2)]), SIGMA, WEAK),
    (structure(4, [(3, 4), (2, 1)]), SIGMA_AVG, WEAK),
    (structure(4, [(3, 2), (2, 1)]), TAU_AVG, WEAK),
    (structure(3, [(3, 2), (2, 3)]), TAU, WEAK),
    (structure(4, [(2, 2)]), SIGMA, WEAK),
]


@pytest.mark.parametrize("sp,measure,security", OPTIMAL_CASES)
def test_build_optimal_meets_closed_form(sp, measure, security):
    kind = RatioKind(measure, security)
    opt = optimal_ratio(sp, kind)
    s = build_optimal(sp, kind)
    assert verify.check_conditions(s, security).passed
    assert verify.ratios(s, strict=False).value(measure) == opt.value


def test_build_optimal_unresolved_cell_meets_upper_bound():
    kind = RatioKind(SIGMA, WEAK)
    # an open bracket, and one whose ends meet (an exact optimum)
    cells = (([(4, 1), (3, 4), (2, 3)], None), ([(4, 5), (3, 4), (2, 1)], Fraction(13, 4)))
    for arrays, value in cells:
        sp = structure(4, arrays)
        opt = optimal_ratio(sp, kind)
        assert opt.value == value
        s = build_optimal(sp, kind)
        assert verify.check_conditions(s, WEAK).passed
        assert verify.ratios(s).sigma == opt.upper


def test_build_optimal_tau_avg_uses_dummies():
    sp = structure(3, [(3, 1), (2, 1)])
    s = build_optimal(sp, RatioKind(TAU_AVG, STRONG))
    widths = [s.width(v) for v in s.secret_variables()]
    assert widths == [0, 1]
    with pytest.raises(ValueError, match="zero-length secret"):
        verify.ratios(s)
    assert verify.ratios(s, strict=False).tau_avg == 2


def test_field_search_cap(monkeypatch):
    parts = [build_weak_block(3, 2, 2), build_single_threshold(2, 3)]
    monkeypatch.setattr(schemes, "SEARCH_CAP", 0)
    with pytest.raises(FieldSearchError, match="no admissible prime"):
        build_B(4, (4, 6), (3, 2))
    with pytest.raises(FieldSearchError, match="no common prime"):
        unify_field(parts)


def test_explicit_field_is_the_only_candidate():
    """A given q that fails verification is not searched past; the search
    from the same start goes on to the first prime that passes."""
    with pytest.raises(FieldSearchError, match=r"\b13\b"):
        build_B(4, (4, 7), (3, 2), q=13)
    assert build_B(4, (4, 7), (3, 2)).q == 29


# sha256 of the text of every stitched leaf that build_optimal builds over
# the table family with N <= 5 (all eight kinds), by (tag, args, q).
STITCHED_LEAVES = {
    ('A', (2, (2, 3), 1), 7): "c9491e39ecd26b8567ba4067f38caa3fdcb51dc3a37c75a35f9e03944e64c5ba",
    ('A', (2, (2, 4), 1), 7): "8393f5aca133dae2bbbeced76b238f34832a85b8f1c0d5094bc013ad90ff858b",
    ('A', (2, (2, 5), 1), 11): "d1a327e85f093ff356b368b20598c167178341f601a04d7e1d5dcfc4a2b281eb",
    ('A', (3, (2, 3), 1), 7): "2383772dfc768f32e0cede93dc75aa9da49bf0f17359b4b62284abdf2086f83d",
    ('A', (3, (2, 4), 1), 11): "323f0b621c5a5a8636049df7d49111b65119501bf950158b360edae2b845da3f",
    ('A', (3, (2, 5), 1), 11): "c6d18abb907ccd94e3dac731aaba2fae409cd2bdd283fc8943a651b86545a0ce",
    ('A', (3, (3, 4), 1), 11): "d31875eb86f7886c39ed6e7d3bb067205fb3848557a97074d8f0d32624c6af46",
    ('A', (3, (3, 5), 1), 11): "5ab8c415933e0339ba9a6eb073ebd9596bd488d652cf9428e04a5e607121d593",
    ('A', (4, (2, 3), 1), 11): "11524de54bb160a8df07b7dd8155f969f12c75025c567c16419d8886800d2a80",
    ('A', (4, (2, 4), 1), 11): "807dac16b7339ad80617499b5a4240e8989a972fc0590055bf9f25c4eda80142",
    ('A', (4, (2, 5), 1), 11): "91569a7172b76a56c7abf92c2f6319a48124592b9d68a957ba96af455b24a7a6",
    ('A', (4, (3, 4), 1), 11): "884816dac8876b9efa2e0481a807ec82e2113cd259fac85c0221144a3679cc59",
    ('A', (4, (3, 5), 1), 11): "620f5197bb66d1ef520687ca26d03392c5f9b14b8134179aa8e328c7fb922246",
    ('A', (4, (4, 5), 1), 11): "6bd2c912c762f419ad7b60310e571c0e7604ae87cffef718063e878519312ebc",
    ('A', (5, (2, 3), 1), 11): "2ef9db7c93aa8a989675f92cafb635ac0c2ce1656e2eefbabeab65df8901383b",
    ('A', (5, (2, 4), 1), 11): "bd74b0adb6fefbafb4628975b2d2dc417be2b032260ea49e2d4339c5d66d99f0",
    ('A', (5, (2, 5), 1), 13): "8d8a2f3a9fee3c6023ec661a918146559fa67c9af05e6e9c11dad689186d3f05",
    ('A', (5, (3, 4), 1), 11): "bd775ee78f5ed402c6557dab9bad188115c91c7470ae052dbb114194a3543d7d",
    ('A', (5, (3, 5), 1), 11): "f427c5f5d00f8f8248aa8c3ec672a04d9453bb1cc89895817dd2be240fb849d1",
    ('A', (5, (4, 5), 1), 11): "654eceac76d386f65d699128ee75e5964a1f5633c79b4d01aac6e6bf075a698f",
    ('B', (3, (3, 4), (2, 1)), 11): "dff98145a7c94d9e4ecbfcf0fe67df9aadb38945ad4e6c2405134eeb605ff3f0",
    ('B', (4, (3, 4), (2, 1)), 11): "a7e1ea56005be9aa541971cf8e58cad210782543bd81dc20ddd63a580dc6eca5",
    ('B', (5, (3, 4), (2, 1)), 11): "db236539f20fb9df13cb1d84e5af0ab1042d7b4b78cd7cbfe286433bbb813a60",
}


def test_stitched_leaves_of_build_optimal_are_pinned():
    got = {}
    for sp in _table_family((2, 3, 4, 5)):
        for kind in KINDS:
            for leaf, _ in schemes._entries(build_optimal(sp, kind)):
                if leaf.recipe[0] in ("A", "B"):
                    text = leaf.to_text().encode()
                    got[leaf.recipe + (leaf.q,)] = hashlib.sha256(text).hexdigest()
    assert got == STITCHED_LEAVES


# -- leaf memo ----------------------------------------------------------------


def test_leaf_memo_is_bounded_and_public_builders_are_not_cached():
    schemes._leaf.cache_clear()
    assert isinstance(schemes._leaf.cache_info().maxsize, int)
    for build, args in (
        (build_single_threshold, (2, 3)),
        (build_weak_block, (3, 2, 2)),
        (build_A, (3, (2, 3), 1)),
        (build_B, (3, (3, 4), (2, 1))),
    ):
        first, second = build(*args), build(*args)
        assert first is not second and first.to_text() == second.to_text()
    assert schemes._leaf.cache_info().currsize == 0
    # A leaf of build_optimal is the memo's, not the public builder's.
    s = build_optimal(structure(3, [(2, 2)]), RatioKind(SIGMA, STRONG))
    assert s.leaves[0][0] is schemes._leaf(build_weak_block, (3, 2, 1))
    assert s.leaves[0][0] is not build_weak_block(3, 2, 1)


def test_strong_and_weak_cells_share_their_one_secret_leaves():
    sp = structure(3, [(3, 1), (2, 1)])
    strong = build_optimal(sp, RatioKind(SIGMA, STRONG))
    weak = build_optimal(sp, RatioKind(SIGMA, WEAK))
    assert [leaf.recipe for leaf, _ in strong.leaves] == [
        ("weak-block", (3, 3, 1)),
        ("weak-block", (3, 2, 1)),
    ]
    assert all(a is b for (a, _), (b, _) in zip(strong.leaves, weak.leaves, strict=True))


def test_cells_share_a_leaf_and_its_reports():
    """Two cells on one N with a common leaf get the same leaf object, and
    the second cell's check, ratios and audit eliminate nothing on it."""
    schemes._leaf.cache_clear()
    a = build_optimal(structure(3, [(2, 2)]), RatioKind(SIGMA, STRONG))
    assert verify.check_conditions(a, STRONG).passed
    verify.ratios(a)
    verify.audit_bounds(a, STRONG)
    leaf = a.leaves[0][0]
    before = leaf.profile.eliminations
    assert before > 0
    b = build_optimal(structure(3, [(3, 1), (2, 1)]), RatioKind(SIGMA, STRONG))
    assert b.leaves[1][0] is leaf and b.leaves[0][0] is not leaf
    assert verify.check_conditions(b, STRONG).passed
    verify.ratios(b)
    verify.audit_bounds(b, STRONG)
    assert leaf.profile.eliminations == before


def test_unify_field_rebuilds_through_the_leaf_memo():
    """A rebuild at a new prime comes from the memo under that q, so a
    second unification over the same prime reuses the same leaf."""
    schemes._leaf.cache_clear()
    b = build_weak_block(4, 3, 3)  # q = 11
    ua, ub = unify_field([build_weak_block(3, 2, 2), b])  # a at q = 7
    assert ub is b and ua.q == 11
    assert ua is schemes._leaf(build_weak_block, (3, 2, 2), 11)
    again, _ = unify_field([build_weak_block(3, 2, 2), b])
    assert again is ua


def _cell_outputs(sp, kind):
    """Everything a cell's scheme reports: text, fingerprint, both checks
    (witnesses included), ratios, and the audit of each passing security."""
    s = build_optimal(sp, kind)
    out = [s.to_text(), s.fingerprint, repr(verify.ratios(s, strict=False))]
    for security in (STRONG, WEAK):
        report = verify.check_conditions(s, security)
        out.append(repr(report))
        if report.passed:
            out.append(repr(verify.audit_bounds(s, security)))
    return out


SHARED_LEAF_CELLS = [
    (sp, kind)
    for sp in _table_family((2, 3)) + [structure(4, [(4, 1), (3, 1), (2, 1)])]
    for kind in KINDS
]


def test_warm_leaf_memo_gives_the_same_results_as_a_cold_one():
    cold = []
    for sp, kind in SHARED_LEAF_CELLS:
        schemes._leaf.cache_clear()
        cold.append(_cell_outputs(sp, kind))
    schemes._leaf.cache_clear()
    # Reversed, so each cell meets leaves that other cells made first.
    warm = [_cell_outputs(sp, kind) for sp, kind in reversed(SHARED_LEAF_CELLS)]
    assert warm[::-1] == cold


def test_threads_sharing_leaves_get_the_serial_results():
    cells = [c for c in SHARED_LEAF_CELLS if c[0].n_parties == 3]
    schemes._leaf.cache_clear()
    serial = [_cell_outputs(sp, kind) for sp, kind in cells]
    distinct = schemes._leaf.cache_info().currsize
    schemes._leaf.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda c: _cell_outputs(*c), cells, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert schemes._leaf.cache_info().currsize == distinct
