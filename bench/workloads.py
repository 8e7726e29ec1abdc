"""The four seeded workloads: their input pools, draws and output checks.

Every operation calls the public `mtss` API through module attributes
(`cone.lower_bound_ratio`, not a name imported from it), so the traced run
in `spans.py` sees each call after it patches those attributes.

`setup(name, seed)` returns a workload's operations in run order.  Set-up
enumerates the input pool, computes every expected output by a route other
than the one measured (closed-form optima, rank-additivity verdicts for the
brute-force census, the secrets that were dealt), prebuilds the schemes the
dealer workload needs, and draws the run's order from the seed.  The
program only ever sees the drawn inputs.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from mtss import cone, dealer, schemes, structure, verify
from mtss.schemes import VariableId
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
    format_thresholds,
)

WORKLOADS = ("lp-ratio", "lp-truncation", "build-verify", "deal-census")

# Percentile each workload reports as op_tail_ms: one that left at least 10
# operations beyond it in the shortest baseline run.  It is fixed per
# workload rather than chosen per run, because how far a run gets varies
# with the draw and with the program's speed while the mix of what it draws
# does not (see `interleave`): a fixed percentile reads the same part of the
# cost distribution on every run, where "the 11th slowest" does not.
TAIL_PERCENTILE = {
    "lp-ratio": 80,
    "lp-truncation": 75,
    "build-verify": 97,
    "deal-census": 99.5,
}

# Largest codeword space the dealer workload enumerates (q^rows), as in the
# acceptance suite's census criterion.
CENSUS_LIMIT = 10**6
# Round trips prepared per catalog scheme; a run uses under a third.
ROUND_TRIPS_PER_SCHEME = 1000


@dataclass
class Op:
    """One operation: `fn(*args)` must return `expected`."""

    key: tuple  # identity of the input; unique within a run
    stratum: str
    fn: Callable
    args: tuple
    expected: object


def n_vars(sp) -> int:
    return sp.n_parties + sp.n_secrets


def label(sp) -> str:
    return f"{sp.n_parties}:{format_thresholds(sp)}"


# --------------------------------------------------------------------------
# Input pools


def table_family(parties=(2, 3, 4), max_vars: int | None = None):
    """Structures with N in `parties`, at most two levels, at most 5 secrets."""
    out = []
    for n in parties:
        levels = range(2, n + 1)
        for t in levels:
            for m in range(1, 6):
                out.append(structure.structure(n, [(t, m)]))
        for t1 in levels:
            for t2 in levels:
                if t2 >= t1:
                    continue
                for m1 in range(1, 5):
                    for m2 in range(1, 6 - m1):
                        out.append(structure.structure(n, [(t1, m1), (t2, m2)]))
    if max_vars is not None:
        out = [sp for sp in out if n_vars(sp) <= max_vars]
    return out


# The only three-level structure with at most 7 variables (outside the table
# family, which has at most two levels).
THREE_LEVEL = structure.structure(4, [(4, 1), (3, 1), (2, 1)])


def resolved_cells(sp):
    for measure in MEASURES:
        for security in SECURITIES:
            kind = RatioKind(measure, security)
            opt = structure.optimal_ratio(sp, kind)
            if opt.status == EXACT:
                yield kind, opt.value


# --------------------------------------------------------------------------
# Operations (each calls the program through module attributes)


def _lp_ratio(sp, kind):
    return cone.lower_bound_ratio(sp, kind)


def _lp_truncation(row, small, big):
    return cone.check_truncation(row, small, big)


def _build_verify(sp, kind):
    scheme = schemes.build_optimal(sp, kind)
    got = verify.ratios(scheme, strict=False).value(kind.measure)
    passed = verify.check_conditions(scheme, kind.security).passed
    checks = verify.audit_bounds(scheme, kind.security)
    return got, passed, sum(1 for c in checks if not c.holds)


def _round_trip(scheme, vectors, deal_seed, coalition):
    secrets = dealer.SecretAssignment.for_scheme(scheme, vectors)
    bundle = dealer.deal(scheme, secrets, seed=deal_seed)
    back = dealer.ShareBundle.from_text(bundle.to_text())
    got = dealer.reconstruct(scheme, back.restrict(coalition), k=1)
    return tuple(got[v] for v in scheme.secret_variables())


def _census(scheme, avars, target):
    return dealer.leakage_census(scheme, avars, target).uniform


# --------------------------------------------------------------------------
# Pools per workload


def _lp_ratio_pool(tiny: bool) -> list[Op]:
    """Criterion-2 cells (at most 7 variables) plus the (N=4, T=4,3,2) cells.

    Eight-variable cells cost 6-18 s each and are left out; (N=4,
    T=3,3,3,3,2) has 9 variables, over the LP cap.
    """
    structures = table_family(max_vars=4 if tiny else 7)
    if not tiny:
        structures.append(THREE_LEVEL)
    ops = []
    for sp in structures:
        for kind, want in resolved_cells(sp):
            ops.append(
                Op(
                    key=(label(sp), str(kind)),
                    # Cost follows the structure and the security level.
                    stratum=f"{label(sp)}/{kind.security}/{'avg' in kind.measure}",
                    fn=_lp_ratio,
                    args=(sp, kind),
                    expected=want,
                )
            )
    return ops


def truncation_rows(big):
    rows = [("dtb", 1), ("tvb", 1)]
    for k in range(1, big.k_levels + 1):
        rows += [("tsdb", k), ("tsb", k)]
    return rows


def _lp_truncation_pool(tiny: bool) -> list[Op]:
    """Every pair small < big of the table family with at most 6 big-side
    variables, times every dtb/tvb/tsdb_k/tsb_k row of the big side.

    Seven-variable truncations take up to 12 s each and are left out.
    """
    family = table_family(max_vars=5 if tiny else 6)
    ops = []
    for big in family:
        for small in family:
            if small == big or not structure.subset_of(small, big):
                continue
            for name, k in truncation_rows(big):
                row = cone.bound_row(big, name, k=k)
                ops.append(
                    Op(
                        key=(label(small), label(big), name, k),
                        # Cost follows the big side and the row.
                        stratum=f"{label(big)}/{name}/{k}",
                        fn=_lp_truncation,
                        args=(row, small, big),
                        expected=True,
                    )
                )
    return ops


def _build_verify_pool(tiny: bool) -> list[Op]:
    """Every resolved cell of the table family for N in 2..6, plus the
    (N=4, T=4,3,2) cells.

    N <= 4 are the acceptance suite's criterion-1 cells, about 9 s in all;
    N = 5 and 6 make the pool several times longer than one run.
    """
    structures = table_family(parties=(2, 3) if tiny else (2, 3, 4, 5, 6))
    if not tiny:
        structures.append(THREE_LEVEL)
    ops = []
    for sp in structures:
        for kind, want in resolved_cells(sp):
            ops.append(
                Op(
                    key=(label(sp), str(kind)),
                    stratum=f"{sp.n_parties}/{sp.k_levels}/{sp.n_secrets}/{kind}",
                    fn=_build_verify,
                    args=(sp, kind),
                    expected=(want, True, 0),
                )
            )
    return ops


def build_catalog(tiny: bool = False):
    """The acceptance suite's 22-scheme catalog: (label, scheme) pairs."""
    b = schemes
    entries = [
        ("shamir-2-2", b.build_single_threshold(2, 2)),
        ("shamir-2-3", b.build_single_threshold(2, 3)),
        ("shamir-3-3", b.build_single_threshold(3, 3)),
        ("weak-block-3-2-2", b.build_weak_block(3, 2, 2)),
    ]
    if tiny:
        return entries
    entries += [
        ("shamir-3-4", b.build_single_threshold(3, 4)),
        ("weak-block-4-2-3", b.build_weak_block(4, 2, 3)),
        ("weak-block-4-3-2", b.build_weak_block(4, 3, 2)),
        ("stitched-A-3", b.build_A(3, (2, 3), 1)),
        ("stitched-A-4", b.build_A(4, (3, 5), 2)),
        ("stitched-B-3", b.build_B(3, (3, 4), (2, 1))),
        ("stitched-B-4", b.build_B(4, (4, 5), (3, 1))),
    ]
    for n, arrays, measure, security in [
        (3, [(3, 1), (2, 1)], SIGMA, STRONG),
        (3, [(2, 2)], SIGMA, WEAK),
        (3, [(2, 3)], SIGMA_AVG, WEAK),
        (4, [(3, 2), (2, 1)], SIGMA, STRONG),
        (4, [(4, 1), (2, 2)], TAU, STRONG),
        (4, [(3, 1)], TAU_AVG, WEAK),
        (3, [(3, 4), (2, 3)], SIGMA, WEAK),
    ]:
        sp = structure.structure(n, arrays)
        scheme = b.build_optimal(sp, RatioKind(measure, security))
        entries.append((f"optimal-{label(sp)}-{measure}-{security}", scheme))

    sp = structure.structure(3, [(2, 2)])
    weak_parts = b.unify_field([
        b.build_weak_block(3, 2, 2),
        b.build_optimal(sp, RatioKind(SIGMA, WEAK)),
        b.build_optimal(sp, RatioKind(TAU, WEAK)),
    ])
    sp = structure.structure(3, [(3, 1), (2, 1)])
    strong_parts = b.unify_field([
        b.build_optimal(sp, RatioKind(SIGMA, STRONG)),
        b.build_optimal(sp, RatioKind(TAU, STRONG)),
    ])
    sp = structure.structure(2, [(2, 1)])
    pair_parts = b.unify_field([
        b.build_single_threshold(2, 2),
        b.build_optimal(sp, RatioKind(TAU, STRONG)),
    ])
    combos = [weak_parts, weak_parts[:2], strong_parts, pair_parts]
    for i, parts in enumerate(combos, 1):
        entries.append((f"combined-{i}", b.combine(parts)))
    return entries


def census_targets(scheme):
    """Every nonempty set of the scheme's secrets."""
    svars = scheme.secret_variables()
    return [
        list(target)
        for size in range(1, len(svars) + 1)
        for target in combinations(svars, size)
    ]


def _deal_census_pool(tiny: bool, rng: random.Random) -> list[Op]:
    """Round trips on every catalog scheme, plus one census per coalition x
    target of every scheme small enough to enumerate."""
    ops = []
    for name, scheme in build_catalog(tiny):
        scheme.fingerprint  # cached on the object; both runs see it warm
        n = scheme.sp.n_parties
        widths = [scheme.width(v) for v in scheme.secret_variables()]
        t1 = scheme.sp.threshold(1)
        for trial in range(ROUND_TRIPS_PER_SCHEME // (100 if tiny else 1)):
            vectors = tuple(
                tuple(rng.randrange(scheme.q) for _ in range(w)) for w in widths
            )
            size = rng.randint(t1, n)
            coalition = tuple(sorted(rng.sample(range(1, n + 1), size)))
            ops.append(
                Op(
                    key=("round-trip", name, trial),
                    stratum=f"round-trip/{name}",
                    fn=_round_trip,
                    args=(scheme, vectors, rng.getrandbits(63), coalition),
                    expected=vectors,
                )
            )
        if scheme.q**scheme.n_rows > (10**3 if tiny else CENSUS_LIMIT):
            continue
        profile = verify.RankProfile(scheme)
        for size in range(n + 1):
            for coalition in combinations(range(1, n + 1), size):
                avars = [VariableId.share(i) for i in coalition]
                for target in census_targets(scheme):
                    additive = profile.rank(avars + target) == profile.rank(
                        avars
                    ) + profile.rank(target)
                    ops.append(
                        Op(
                            key=("census", name, coalition, tuple(map(str, target))),
                            stratum=f"census/{name}/{size}/{len(target)}",
                            fn=_census,
                            args=(scheme, avars, target),
                            expected=additive,
                        )
                    )
    return ops


# --------------------------------------------------------------------------
# Draw


def interleave(ops: list[Op], rng: random.Random) -> list[Op]:
    """Seeded order in which every prefix keeps the pool's stratum mix.

    A stratum groups inputs of about the same cost.  Each is shuffled by the
    seed, and its j-th item is placed at fraction (j + u) / len(stratum) of
    the run, with u fixed by the stratum's name.  A run that stops at its
    deadline has then drawn the same number of items from every stratum
    whatever the seed: the seed changes which inputs are drawn, but hardly
    how much work they are, so runs with different seeds can be compared.
    """
    strata: dict[str, list[Op]] = {}
    for op in ops:
        strata.setdefault(op.stratum, []).append(op)
    keyed = []
    for name in sorted(strata):
        items = strata[name]
        rng.shuffle(items)
        u = (zlib.crc32(name.encode()) + 0.5) / 2**32
        for j, op in enumerate(items):
            keyed.append(((j + u) / len(items), name, op))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in keyed]


def setup(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The seeded operation list of one workload, in run order."""
    rng = random.Random(f"{name}/{seed}")
    if name == "lp-ratio":
        pool = _lp_ratio_pool(tiny)
    elif name == "lp-truncation":
        pool = _lp_truncation_pool(tiny)
    elif name == "build-verify":
        pool = _build_verify_pool(tiny)
    elif name == "deal-census":
        pool = _deal_census_pool(tiny, rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return interleave(pool, rng)
