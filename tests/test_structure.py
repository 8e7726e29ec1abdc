import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtss.structure import (
    EXACT,
    SIGMA,
    SIGMA_AVG,
    STRONG,
    TAU,
    TAU_AVG,
    UNKNOWN,
    WEAK,
    OptimalValue,
    RatioKind,
    conditions,
    format_ints,
    format_thresholds,
    optimal_ratio,
    parse_ints,
    parse_thresholds,
    read_records,
    randomness_break_index,
    slot_map,
    structure,
    subset_of,
    weak_sigma_plan,
)


def all_small_structures(max_n=4, max_secrets=5, max_levels=2):
    """Every valid structure with N in 2..max_n, K <= max_levels, |T| <= max_secrets."""
    out = []
    for n in range(2, max_n + 1):
        thresholds = list(range(2, n + 1))
        for k in range(1, max_levels + 1):
            for ts in itertools.combinations(sorted(thresholds, reverse=True), k):
                for counts in itertools.product(
                    range(1, max_secrets + 1), repeat=k
                ):
                    if sum(counts) <= max_secrets:
                        out.append(structure(n, list(zip(ts, counts))))
    return out


# ---------------------------------------------------------------- validation

def test_validation_errors():
    with pytest.raises(ValueError, match="N too small"):
        structure(1, [(2, 1)])
    with pytest.raises(ValueError, match="threshold out of range"):
        structure(3, [(4, 1)])
    with pytest.raises(ValueError, match="threshold out of range"):
        structure(3, [(1, 1)])
    with pytest.raises(ValueError, match="strictly decrease"):
        structure(3, [(3, 1), (3, 2)])
    with pytest.raises(ValueError, match="empty"):
        structure(3, [])
    with pytest.raises(ValueError):
        structure(3, [(2, 0)])


def test_parse_and_format():
    sp = parse_thresholds(3, "3,3,2")
    assert [(a.threshold, a.count) for a in sp.arrays] == [(3, 2), (2, 1)]
    assert format_thresholds(sp) == "3,3,2"
    with pytest.raises(ValueError, match="non-increasing"):
        parse_thresholds(3, "2,3")
    with pytest.raises(ValueError):
        parse_thresholds(3, "")
    with pytest.raises(ValueError, match="bad threshold"):
        parse_thresholds(3, "a,b")
    for text in ("3,,2", "3,2,", ",3"):
        with pytest.raises(ValueError, match="bad threshold list"):
            parse_thresholds(3, text)


def test_int_list_grammar():
    assert parse_ints("1,-2, 3", "list") == (1, -2, 3)
    assert parse_ints(" +1 ,2 ", "list") == (1, 2)
    assert parse_ints("", "list") == parse_ints(" - ", "list") == ()
    # a blank that `str.strip` removes and `int` alone would refuse
    assert parse_ints("\x1c8,\u20039", "list") == (8, 9)
    for text in ("1,,2", "1,", ",", "x", "1;2", "--", "3_0", "٣,2", "1 2", "0x1"):
        with pytest.raises(ValueError, match=f"^bad list {re.escape(repr(text))}$"):
            parse_ints(text, "list")
    assert format_ints(()) == "-" and format_ints([0, 12]) == "0,12"


_INT_ITEM = re.compile(r"[+-]?[0-9]+")


def _reference_parse_ints(text, what):
    """The item-by-item reading that `parse_ints` replaced."""
    if text.strip() in ("", "-"):
        return ()
    items = [v.strip() for v in text.split(",")]
    if not all(_INT_ITEM.fullmatch(v) for v in items):
        raise ValueError(f"bad {what} {text!r}")
    return tuple(int(v) for v in items)


def _parsed(read, text):
    try:
        return read(text, "list")
    except ValueError as e:
        return str(e)


# Digits, signs, commas and blanks, with Unicode blanks that `str.strip`
# removes but `int` does not (\x1c) and digits `int` reads but the grammar
# refuses.
_LIST_CHARS = st.sampled_from(list("0123456789+-,_ \t\n\r\x0b\x0c") + [
    "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000", "\u200b", "\ufeff",
    "\u0663", "\uff11", "x",
])


@settings(max_examples=2000, deadline=None)
@given(st.text(_LIST_CHARS, max_size=10))
def test_parse_ints_matches_item_by_item_reading(text):
    assert _parsed(parse_ints, text) == _parsed(_reference_parse_ints, text)


def test_read_records():
    text = "\n  magic 1  \nb two words\n\na 1\nX 1 2,3\n\nY\n"
    header, body = read_records(text, "magic 1", ("a", "b"), "demo")
    assert header == {"a": "1", "b": "two words"}
    assert body == [["X", "1", "2,3"], ["Y"]]
    assert read_records("magic 1\nb 1\na 2\n", "magic 1", ("a", "b"), "demo")[1] == []
    with pytest.raises(ValueError, match="^not a demo file$"):
        read_records("magic 2\na 1\nb 1\n", "magic 1", ("a", "b"), "demo")
    for bad in ("a 1\na 2\n", "a 1\nc 2\n", "a\nb 1\n", "a 1\n", "b 1\nX 1\n"):
        with pytest.raises(ValueError, match="^malformed demo header"):
            read_records("magic 1\n" + bad, "magic 1", ("a", "b"), "demo")


def test_round_trip_all_small():
    for sp in all_small_structures():
        assert parse_thresholds(sp.n_parties, format_thresholds(sp)) == sp


# ---------------------------------------------------------------- ordering

def test_subset_examples():
    assert subset_of(structure(2, [(2, 1)]), structure(2, [(2, 2)]))
    assert not subset_of(structure(3, [(3, 2)]), structure(3, [(3, 1)]))
    assert subset_of(
        structure(3, [(3, 1), (2, 2)]), structure(3, [(3, 2), (2, 2)])
    )
    assert not subset_of(structure(2, [(2, 1)]), structure(3, [(2, 2)]))


def test_subset_reflexive_transitive():
    small = structure(3, [(3, 1)])
    mid = structure(3, [(3, 2), (2, 1)])
    big = structure(3, [(3, 3), (2, 2)])
    for sp in (small, mid, big):
        assert subset_of(sp, sp)
    assert subset_of(small, mid) and subset_of(mid, big) and subset_of(small, big)


def _subset_by_counts(small, big):
    """The sub-structure test as first written: same N, and every sub-array
    of `small` inside one of `big` with the same threshold."""
    if small.n_parties != big.n_parties:
        return False
    by_threshold = {a.threshold: a.count for a in big.arrays}
    return all(
        a.threshold in by_threshold and a.count <= by_threshold[a.threshold]
        for a in small.arrays
    )


def _placement_by_threshold(small, big):
    """The default placement of `embed` as first written."""
    level_of = {big.threshold(k): k for k in range(1, big.k_levels + 1)}
    return {(k, j): (level_of[small.threshold(k)], j) for k, j in small.secret_slots()}


def test_slot_map_matches_threshold_matching():
    family = all_small_structures()
    proper = 0
    for small in family:
        for big in family:
            slots = slot_map(small, big)
            assert subset_of(small, big) == (slots is not None)
            if not _subset_by_counts(small, big):
                assert slots is None, (small, big)
                continue
            assert slots == _placement_by_threshold(small, big), (small, big)
            assert tuple(slots) == small.secret_slots()
            assert len(set(slots.values())) == len(slots)  # injective
            assert set(slots.values()) <= set(big.secret_slots())
            for (k, j), (kk, jj) in slots.items():
                assert big.threshold(kk) == small.threshold(k) and jj == j
            proper += small != big
    assert proper > len(family)


def test_randomness_break_index():
    assert randomness_break_index(structure(3, [(3, 2), (2, 3)])) == 1
    assert randomness_break_index(structure(5, [(4, 5), (2, 1)])) == 0
    assert randomness_break_index(structure(3, [(3, 2), (2, 1)])) == 2
    assert randomness_break_index(structure(4, [(2, 2)])) == 1


# ---------------------------------------------------------------- optima

def test_strong_closed_forms():
    sp = structure(3, [(3, 1), (2, 1)])
    assert optimal_ratio(sp, RatioKind(SIGMA, STRONG)).value == 2
    assert optimal_ratio(sp, RatioKind(SIGMA_AVG, STRONG)).value == 2
    assert optimal_ratio(sp, RatioKind(TAU, STRONG)).value == 3
    assert optimal_ratio(sp, RatioKind(TAU_AVG, STRONG)).value == 2
    assert optimal_ratio(structure(3, [(2, 1)]), RatioKind(TAU, STRONG)).value == 1


def test_weak_closed_forms():
    assert optimal_ratio(
        structure(4, [(3, 4), (2, 1)]), RatioKind(SIGMA_AVG, WEAK)
    ).value == F(5, 3)
    assert optimal_ratio(structure(3, [(2, 3)]), RatioKind(SIGMA, WEAK)).value == F(3, 2)
    assert optimal_ratio(
        structure(3, [(3, 4), (2, 2)]), RatioKind(SIGMA, WEAK)
    ).value == F(7, 3)
    assert optimal_ratio(
        structure(3, [(3, 2), (2, 3)]), RatioKind(TAU, WEAK)
    ).value == 1
    assert optimal_ratio(
        structure(4, [(3, 2), (2, 1)]), RatioKind(TAU_AVG, WEAK)
    ).value == F(3, 2)
    assert optimal_ratio(structure(3, [(2, 2)]), RatioKind(SIGMA_AVG, WEAK)).value == 1
    # single overfull sub-array with an underfull one behind it
    assert optimal_ratio(
        structure(3, [(3, 4), (2, 1)]), RatioKind(SIGMA, WEAK)
    ).value == 2


def test_sigma_avg_identity():
    # the optimum times the widest packing width gives back the secret count
    for sp in all_small_structures():
        v = optimal_ratio(sp, RatioKind(SIGMA_AVG, WEAK)).value
        widest = max(min(a.threshold, a.count) for a in sp.arrays)
        assert v * widest == sp.n_secrets


def test_weak_never_beats_strong():
    for sp in all_small_structures():
        for measure in (SIGMA, SIGMA_AVG, TAU, TAU_AVG):
            weak = optimal_ratio(sp, RatioKind(measure, WEAK))
            strong = optimal_ratio(sp, RatioKind(measure, STRONG))
            assert strong.status == EXACT
            if weak.status == EXACT:
                assert weak.value <= strong.value
            else:
                assert weak.lower <= weak.upper <= strong.value


def test_unknown_cell_brackets():
    # two overfull levels and an underfull one, whose bracket collapses:
    # the converse meets the construction, so the optimum is exact
    sp = structure(4, [(4, 5), (3, 4), (2, 1)])
    ov = optimal_ratio(sp, RatioKind(SIGMA, WEAK))
    assert (ov.status, ov.value) == (EXACT, F(13, 4))
    # a bracket that stays open
    sp = structure(4, [(4, 1), (3, 4), (2, 3)])
    ov = optimal_ratio(sp, RatioKind(SIGMA, WEAK))
    assert (ov.status, ov.lower, ov.upper) == (UNKNOWN, F(11, 3), F(23, 6))
    with pytest.raises(ValueError, match="empty"):
        OptimalValue.unknown(2, 1)


def test_weak_sigma_lower_matches_packing_forms():
    """In every cell of the open regime (two overfull levels and an
    underfull one) the lower end is the best of the packing forms: K,
    sum m_i/t_i, and per level k, K - 1 + (m_k + sum over i > k of
    (m_i - t_i)) / t_k.  Where it meets the construction the cell is
    exact."""
    opened = collapsed = 0
    for n in range(4, 8):
        for ts in itertools.combinations(range(n, 1, -1), 3):
            for counts in itertools.product(range(1, 6), repeat=3):
                pairs = list(zip(ts, counts))
                if sum(m > t for t, m in pairs) < 2 or all(m >= t for t, m in pairs):
                    continue
                sp = structure(n, pairs)
                ov = optimal_ratio(sp, RatioKind(SIGMA, WEAK))
                opened += 1
                value, _ = weak_sigma_plan(sp)
                assert ov.upper == value, str(sp)
                assert (ov.status == EXACT) == (ov.lower == value), str(sp)
                collapsed += ov.status == EXACT
                forms = [F(3), sum(F(m, t) for t, m in zip(ts, counts))]
                for k in range(3):
                    extra = sum(m - t for t, m in zip(ts[k + 1:], counts[k + 1:]))
                    forms.append(2 + F(counts[k] + extra, ts[k]))
                assert ov.lower == max(forms), str(sp)
    assert (opened, collapsed) == (401, 28)


def test_sigma_case_overlap_consistency():
    # structures where two case formulas apply must agree: all sub-arrays
    # exactly full is both "none overfull" and "all at least full"
    sp = structure(3, [(3, 3), (2, 2)])
    assert optimal_ratio(sp, RatioKind(SIGMA, WEAK)).value == 2
    sp = structure(4, [(2, 2)])
    assert optimal_ratio(sp, RatioKind(SIGMA, WEAK)).value == 1


def test_weak_sigma_plan_matches_closed_form():
    for sp in all_small_structures():
        opt = optimal_ratio(sp, RatioKind(SIGMA, WEAK))
        value, parts = weak_sigma_plan(sp)
        assert parts, str(sp)
        if opt.status == EXACT:
            assert value == opt.value, str(sp)
        else:
            assert value == opt.upper >= opt.lower


def test_plan_multiplicities_positive_integers():
    for sp in all_small_structures(max_n=3):
        _, parts = weak_sigma_plan(sp)
        for part in parts:
            assert part.multiplicity >= 1
            assert part.kind in ("window", "ensemble", "bridge")


def test_conditions_lists_boundary_sizes():
    sp = structure(4, [(4, 1), (2, 2)])
    # Secrets by position in sp.variables: 0 is S[1,1], 1 S[2,1], 2 S[2,2].
    assert sp.secret_slots() == ((1, 1), (2, 1), (2, 2))
    every = [0, 1, 2]
    head = [("C0", every, 0), ("C1", every, 4), ("C1", [1, 2], 2)]
    assert list(conditions(sp, STRONG)) == head + [
        ("C2", [0], 3),
        ("C2", every, 1),
    ]
    assert list(conditions(sp, WEAK)) == head + [
        ("C3", [0], 3),
        ("C3", [1], 1),
        ("C3", [2], 1),
    ]
    with pytest.raises(ValueError, match="unknown security"):
        list(conditions(sp, "medium"))


def test_ratio_kind_validation():
    with pytest.raises(ValueError):
        RatioKind("max", WEAK)
    with pytest.raises(ValueError):
        RatioKind(SIGMA, "medium")
    assert str(RatioKind(SIGMA, WEAK)) == "sigma/weak"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lower_bound_never_exceeds_plan(data):
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, min(2, n - 1)))
    ts = sorted(data.draw(st.lists(st.integers(2, n), min_size=k, max_size=k, unique=True)), reverse=True)
    counts = data.draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    sp = structure(n, list(zip(ts, counts)))
    value, _ = weak_sigma_plan(sp)
    ov = optimal_ratio(sp, RatioKind(SIGMA, WEAK))
    assert ov.lower <= value
    if ov.status == EXACT:
        assert ov.value == value
