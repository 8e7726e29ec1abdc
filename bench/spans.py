"""Outside-in layer tracing for the benchmark's traced run.

`Tracer` replaces public functions and methods of the `mtss` modules with
wrappers that record one span per call: name, start, end, parent span,
operation id and an optional count taken from the call's inputs or result.
Spans stay in memory; `layer_metrics` derives the per-layer metrics from
them after the run, and `write_tsv` writes them out.  The program itself is
not changed: leaving the `with` block puts every original attribute back.
"""

from __future__ import annotations

import sys
from time import perf_counter

from mtss import cone, dealer, field, schemes, simplex, structure, verify

# (owner, attribute, span name, count taken from (args, result) or None)
TARGETS = [
    (simplex.LinearProgram, "solve", "simplex.solve", lambda a, r: a[0].n_vars),
    (cone, "elemental_inequalities", "cone.rowgen", lambda a, r: len(r)),
    (cone, "system_constraints", "cone.rowgen", lambda a, r: len(r)),
    (cone, "lower_bound_ratio", "cone.ratio_lp", None),
    (cone, "check_truncation", "cone.truncation", None),
    (field, "rank", "field.rank", None),
    (field, "solve_affine", "field.solve_affine", None),
    (field, "is_prime", "field.is_prime", None),
    (field, "next_prime_at_least", "field.next_prime", None),
    (verify.RankProfile, "rank", "verify.rank_query", None),
    (verify, "check_conditions", "verify.check", None),
    (verify, "audit_bounds", "verify.audit", lambda a, r: len(r)),
    (verify, "ratios", "verify.ratios", None),
    (structure, "weak_sigma_plan", "structure.plan", None),
    (structure, "optimal_ratio", "structure.optimal_ratio", None),
    (schemes, "build_optimal", "schemes.build_optimal", None),
    (schemes, "build_single_threshold", "schemes.construction", None),
    (schemes, "build_weak_block", "schemes.construction", None),
    (schemes, "build_A", "schemes.construction", None),
    (schemes, "build_B", "schemes.construction", None),
    (schemes, "unify_field", "schemes.unify_field", None),
    (schemes, "embed", "schemes.embed_combine", None),
    (schemes, "combine", "schemes.embed_combine", None),
    (schemes.LinearScheme, "to_text", "schemes.text", None),
    (schemes.LinearScheme, "from_text", "schemes.text", None),
    (dealer, "deal", "dealer.deal", None),
    (dealer, "reconstruct", "dealer.reconstruct", None),
    (dealer.ShareBundle, "to_text", "dealer.bundle_text", None),
    (dealer.ShareBundle, "from_text", "dealer.bundle_text", None),
    (
        dealer,
        "leakage_census",
        "dealer.census",
        lambda a, r: a[0].q ** a[0].n_rows,
    ),
]

_MARK = "__bench_span__"


def _program_modules():
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "mtss"]


class Tracer:
    """Span recorder plus the patches that feed it.

    Use as a context manager around each traced call, and set `op` to the
    current operation's index before it.  Create it while nothing is
    patched: it remembers the attributes it finds as the originals.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: list[float] = []
        self.op = -1
        self._stack: list[int] = []
        # (owner, attribute, original, wrapper), aliases included: names
        # bound by `from module import name` elsewhere in the package.
        self._patches: list[tuple[object, str, object, object]] = []
        modules = _program_modules()
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__, count))
            else:
                wrapped = self._wrap(name, original, count)
            self._patches.append((owner, attr, original, wrapped))
            if isinstance(owner, type):
                continue
            for mod in modules:
                for alias, value in vars(mod).items():
                    if value is original and mod is not owner:
                        self._patches.append((mod, alias, original, wrapped))

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn, count):
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, counts, stack = self.parents, self.ops, self.counts, self._stack

        def span(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            counts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                counts[i] = count(args, result)
            return result

        setattr(span, _MARK, name)
        span.__wrapped__ = fn
        return span

    # -- patching -----------------------------------------------------------
    def __enter__(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        return False


def leftover_wrappers() -> list[str]:
    """Attributes of the program that are still span wrappers."""
    found = []
    for mod in _program_modules():
        holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        for holder in holders:
            for attr, value in vars(holder).items():
                fn = value.__func__ if isinstance(value, staticmethod) else value
                if hasattr(fn, _MARK):
                    found.append(f"{holder.__name__}.{attr}")
    return found


# --------------------------------------------------------------------------
# Derivation


class _Spans:
    """The spans of set-up (operation -1) or of the operations."""

    def __init__(self, t: Tracer, setup: bool):
        self.t = t
        n = len(t.names)
        self.dur = [t.ends[i] - t.starts[i] for i in range(n)]
        child = [0.0] * n
        self.by_name: dict[str, list[int]] = {}
        for i, p in enumerate(t.parents):
            if p >= 0:
                child[p] += self.dur[i]
            if (t.ops[i] < 0) == setup:
                self.by_name.setdefault(t.names[i], []).append(i)
        # Spans of one thread nest, so a span's children never overlap.
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def of(self, name):
        return self.by_name.get(name, [])

    def outermost_time(self, *names):
        """Time inside spans of `names`, not counting those nested in
        another of them."""
        t = self.t
        total = 0.0
        for name in names:
            for i in self.of(name):
                p = t.parents[i]
                while p >= 0 and t.names[p] not in names:
                    p = t.parents[p]
                if p < 0:
                    total += self.dur[i]
        return total

    def with_parent(self, name, parent_name):
        """Spans of `name` whose direct parent is a `parent_name` span
        (None: called straight from the benchmark)."""
        names, parents = self.t.names, self.t.parents
        return sum(
            1
            for i in self.of(name)
            if (names[parents[i]] if parents[i] >= 0 else None) == parent_name
        )


def _unit(name):
    """Units follow the metric names: *_s, *_ms, *_ratio, else a count."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


# Span names of the schemes layer, for the set-up metrics.
SCHEMES = sorted({name for _, _, name, _ in TARGETS if name.startswith("schemes.")})


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit), from one traced pass: the
    operations' spans, then the `setup.` metrics from set-up's spans."""
    s = _Spans(t, setup=False)

    def calls(name):
        return len(s.of(name))

    def total(name):
        return s.outermost_time(name)

    def self_s(name):
        return sum((s.self_time[i] for i in s.of(name)), 0.0)

    def counted(name):
        return sum(t.counts[i] for i in s.of(name))

    solves = s.of("simplex.solve")
    queries = calls("verify.rank_query")
    values = {
        "simplex.solves": len(solves),
        "simplex.plan_solves": s.with_parent("simplex.solve", "structure.plan"),
        "simplex.solve_s": total("simplex.solve"),
        "simplex.solve_max_ms": max((s.dur[i] for i in solves), default=0.0) * 1e3,
        "simplex.cols_mean": _ratio(counted("simplex.solve"), len(solves)),
        "cone.rowgen_calls": calls("cone.rowgen"),
        "cone.rowgen_s": total("cone.rowgen"),
        "cone.rows_generated": counted("cone.rowgen"),
        "cone.ratio_lp_self_s": self_s("cone.ratio_lp"),
        "cone.truncation_self_s": self_s("cone.truncation"),
        "field.rank_calls": calls("field.rank"),
        "field.rank_s": total("field.rank"),
        "field.solve_affine_calls": calls("field.solve_affine"),
        "field.solve_affine_s": total("field.solve_affine"),
        "field.is_prime_calls": calls("field.is_prime"),
        "field.next_prime_calls": calls("field.next_prime"),
        "verify.rank_queries": queries,
        "verify.rank_memo_hit_ratio": (
            1.0 - _ratio(s.with_parent("field.rank", "verify.rank_query"), queries)
            if queries
            else 0.0
        ),
        "verify.check_calls": calls("verify.check"),
        "verify.check_s": total("verify.check"),
        "verify.check_requested_ratio": _ratio(
            s.with_parent("verify.check", None), calls("verify.check")
        ),
        "verify.audit_s": total("verify.audit"),
        "verify.audit_checks": counted("verify.audit"),
        "verify.ratios_s": total("verify.ratios"),
        "schemes.build_optimal_self_s": self_s("schemes.build_optimal"),
        "schemes.constructions": _ratio(
            calls("schemes.construction"), calls("schemes.build_optimal")
        ),
        "schemes.unify_field_s": total("schemes.unify_field"),
        "schemes.embed_combine_s": total("schemes.embed_combine"),
        "dealer.deal_s": total("dealer.deal"),
        "dealer.reconstruct_s": total("dealer.reconstruct"),
        "dealer.bundle_text_s": total("dealer.bundle_text"),
        "dealer.census_calls": calls("dealer.census"),
        "dealer.census_s": total("dealer.census"),
        "dealer.codewords": counted("dealer.census"),
        "trace.spans": sum(len(v) for v in s.by_name.values()),
    }
    setup = _Spans(t, setup=True)
    values.update({
        "setup.structure_s": setup.outermost_time("structure.optimal_ratio"),
        "setup.field.rank_calls": len(setup.of("field.rank")),
        "setup.field.rank_s": setup.outermost_time("field.rank"),
        "setup.schemes_s": setup.outermost_time(*SCHEMES),
        "setup.schemes.text_s": setup.outermost_time("schemes.text"),
    })
    return {k: (v, _unit(k)) for k, v in values.items()}


def write_tsv(t: Tracer, path) -> None:
    """One line per span: id, name, start, end, parent, operation, count."""
    with open(path, "w") as f:
        f.write("id\tname\tstart\tend\tparent\top\tcount\n")
        for i, name in enumerate(t.names):
            f.write(
                f"{i}\t{name}\t{t.starts[i]!r}\t{t.ends[i]!r}\t{t.parents[i]}"
                f"\t{t.ops[i]}\t{t.counts[i]}\n"
            )
