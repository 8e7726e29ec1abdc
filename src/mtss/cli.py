"""Command-line front end for building, checking, and using schemes.

Every subcommand is deterministic for fixed flags and seed.  Exit codes:
0 success, 1 a verified failure (witness printed), 2 usage errors such as
unreadable files or malformed flags, 141 stdout closed by its reader (as
`mtss ... | head` does; the status a shell reports for a writer stopped by
SIGPIPE).  The commands raise on input they refuse (`ValueError`,
`KeyError`, `FieldSearchError`), and `main` alone turns that into one
`error: ...` line on stderr and exit status 2.  On
`structure`, `ratios`, `audit`, `reconstruct` and `census`, `--format
records` switches to line-oriented machine-readable output; rationals
always print as num/den.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from mtss import cone
from mtss.dealer import (
    ReconstructionError,
    SecretAssignment,
    ShareBundle,
    deal,
    leakage_census,
    reconstruct,
)
from mtss.schemes import FieldSearchError, LinearScheme, build_optimal
from mtss.structure import (
    EXACT,
    MEASURES,
    SECURITIES,
    WEAK,
    RatioKind,
    VariableId,
    format_ints,
    format_thresholds,
    optimal_ratio,
    parse_int,
    parse_ints,
    parse_thresholds,
)
from mtss.verify import (
    DEFAULT_AUDIT_CAP,
    audit_bounds,
    check_conditions,
    format_rational,
    ratios,
    render_check,
    render_report,
)

PASS, FAIL, USAGE, CLOSED = 0, 1, 2, 141

def _int(text: str) -> int:
    """An integer flag value, in the item grammar of `parse_ints`."""
    try:
        return parse_int(text, "int value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _kind_from_args(args) -> RatioKind:
    return RatioKind(args.ratio.replace("-", "_"), args.security)


def _load(path: str, parse, what: str):
    try:
        return parse(Path(path).read_text())
    except OSError as e:
        raise ValueError(f"cannot read {what} file {path}: {e.strerror}") from None
    except ValueError as e:
        raise ValueError(f"bad {what} file {path}: {e}") from None


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            raise ValueError(f"cannot write {args.out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- commands


def _cmd_structure(args) -> int:
    sp = parse_thresholds(args.n, args.t)
    if args.format == "records":
        print(f"structure {sp.n_parties} {format_thresholds(sp)}")
    else:
        arrays = ", ".join(f"(t={a.threshold}, m={a.count})" for a in sp.arrays)
        print(f"structure: N={sp.n_parties}, sub-arrays {arrays}")
        print(f"variables: {sp.n_secrets} secrets + {sp.n_parties} shares")
    for security in SECURITIES:
        for measure in MEASURES:
            opt = optimal_ratio(sp, RatioKind(measure, security))
            ends = [opt.value] if opt.status == EXACT else [opt.lower, opt.upper]
            shown = [format_rational(v) for v in ends]
            if args.format == "records":
                print(f"ratio {measure} {security} {opt.status}", *shown)
            elif opt.status == EXACT:
                print(f"{measure}/{security}: {shown[0]}")
            else:
                print(f"{measure}/{security}: unknown in [{shown[0]}, {shown[1]}]")
    return PASS


def _cmd_build(args) -> int:
    sp = parse_thresholds(args.n, args.t)
    scheme = build_optimal(sp, _kind_from_args(args))
    _write_out(args, scheme.to_text())
    if args.out:
        print(f"wrote {args.out} (q={scheme.q}, rows={scheme.n_rows})")
    return PASS


def _cmd_verify(args) -> int:
    scheme = _load(args.scheme, LinearScheme.from_text, "scheme")
    report = check_conditions(scheme, args.security, exhaustive=args.exhaustive)
    print(render_report(report))
    return PASS if report.passed else FAIL


def _cmd_ratios(args) -> int:
    scheme = _load(args.scheme, LinearScheme.from_text, "scheme")
    rep = ratios(scheme, strict=False)
    for measure in MEASURES:
        value = rep.value(measure)
        shown = "undefined" if value is None else format_rational(value)
        if args.format == "records":
            print(f"ratio {measure} {shown}")
        else:
            print(f"{measure}: {shown}")
    return PASS


def _cmd_audit(args) -> int:
    scheme = _load(args.scheme, LinearScheme.from_text, "scheme")
    checks = audit_bounds(scheme, args.security, cap=args.cap)
    violations = [c for c in checks if not c.holds]
    if args.format == "records":
        for c in checks:
            print(render_check(c))
    else:
        print(f"audited {len(checks)} bound checks ({args.security})")
        for c in violations:
            print(render_check(c))
    if violations:
        print(f"violations: {len(violations)}")
        return FAIL
    if args.format != "records":
        print("all bounds hold")
    return PASS


def _cmd_lp(args) -> int:
    sp = parse_thresholds(args.n, args.t)
    kind = _kind_from_args(args)
    if args.dump:
        system = cone.membership_system(sp, kind.security)
        sys.stdout.write(system.dump())
    value = cone.lower_bound_ratio(sp, kind)
    print(f"value {format_rational(value)}")
    return PASS


def _cmd_deal(args) -> int:
    scheme = _load(args.scheme, LinearScheme.from_text, "scheme")
    vectors = [parse_ints(c, "secret vector") for c in args.secrets.split(";")]
    assignment = SecretAssignment.for_scheme(scheme, vectors)
    bundle = deal(scheme, assignment, seed=args.seed)
    _write_out(args, bundle.to_text())
    if args.out:
        print(f"wrote {args.out}")
    return PASS


def _cmd_reconstruct(args) -> int:
    scheme = _load(args.scheme, LinearScheme.from_text, "scheme")
    bundle = _load(args.bundle, ShareBundle.from_text, "bundle")
    try:
        recovered = reconstruct(scheme, bundle, k=args.k)
    except ReconstructionError as e:  # a ValueError, but a verified failure
        print(f"reconstruction failed: {e}")
        return FAIL
    for v, vec in zip(recovered.variables, recovered.vectors):
        body = format_ints(vec)
        if args.format == "records":
            print(f"S {v.level} {v.index} {body}")
        else:
            print(f"{v} = {body}")
    return PASS


def _cmd_census(args) -> int:
    scheme = _load(args.scheme, LinearScheme.from_text, "scheme")
    indices = parse_ints(args.shares, "share list")
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate index in share list {args.shares!r}")
    if not args.target:
        raise ValueError("census needs at least one target secret")
    slots = [parse_ints(s, "secret slot") for s in args.target.split(";")]
    if any(len(slot) != 2 for slot in slots):
        raise ValueError(f"bad target list {args.target!r}: expected k,j slots")
    if len(set(slots)) != len(slots):
        raise ValueError(f"duplicate slot in target list {args.target!r}")
    coalition = [VariableId.share(i) for i in indices]
    targets = [VariableId.secret(k, j) for k, j in slots]
    table = leakage_census(scheme, coalition, targets)
    if args.format == "records":
        table.codes  # a table over the cap is refused before any output
    print(f"uniform {'yes' if table.uniform else 'no'}")
    if args.format == "records":
        # One line a code, written a block at a time: the codes are sorted,
        # so the lines come sorted by coalition values, then target values.
        line = "count {} {} {}\n".format(
            *(",".join(["%d"] * w) or "-" for w in (table.coalition_width, table.target_width)),
            table.tally,
        )
        for rows in table.digit_rows():
            sys.stdout.write("".join(line % tuple(row) for row in rows.tolist()))
    else:
        print(f"{table.n_coalition_values} coalition values, "
              f"{table.n_codes} table rows")
    return PASS


# ------------------------------------------------------------------- parser


def _add_format(p):
    p.add_argument(
        "--format", choices=("text", "records"), default="text",
        help="output mode (records = line-oriented machine-readable)",
    )


def _add_structure_flags(p):
    p.add_argument("--n", type=_int, required=True, help="number of participants")
    p.add_argument(
        "--t", required=True,
        help="per-secret thresholds, non-increasing, e.g. 3,3,2",
    )


def _add_ratio_flags(p):
    p.add_argument("--ratio", choices=[m.replace("_", "-") for m in MEASURES], required=True)
    p.add_argument("--security", choices=SECURITIES, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtss",
        description="multi-threshold secret-sharing toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("structure", help="validate a structure and print its table")
    _add_structure_flags(p)
    _add_format(p)
    p.set_defaults(fn=_cmd_structure)

    p = sub.add_parser("build", help="build an optimal scheme and write it out")
    _add_structure_flags(p)
    _add_ratio_flags(p)
    p.add_argument("--out", help="scheme file path (default: stdout)")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("verify", help="check scheme conditions")
    p.add_argument("scheme")
    p.add_argument("--security", choices=SECURITIES, default=WEAK)
    p.add_argument("--exhaustive", action="store_true",
                   help="also scan non-maximal coalitions")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("ratios", help="print the four ratio measures")
    p.add_argument("scheme")
    _add_format(p)
    p.set_defaults(fn=_cmd_ratios)

    p = sub.add_parser("audit", help="run every applicable bound check")
    p.add_argument("scheme")
    p.add_argument("--security", choices=SECURITIES, default=WEAK)
    p.add_argument("--cap", type=_int, default=DEFAULT_AUDIT_CAP,
                   help="max checks per bound family")
    _add_format(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("lp", help="exact LP lower bound for a ratio")
    _add_structure_flags(p)
    _add_ratio_flags(p)
    p.add_argument("--dump", action="store_true",
                   help="print the constraint system first")
    p.set_defaults(fn=_cmd_lp)

    p = sub.add_parser("deal", help="deal shares for chosen secret values")
    p.add_argument("scheme")
    p.add_argument("--secrets", required=True,
                   help="per-secret vectors in canonical order, e.g. '3' or '1,2;0;-'")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--out", help="bundle file path (default: stdout)")
    p.set_defaults(fn=_cmd_deal)

    p = sub.add_parser("reconstruct", help="recover suffix secrets from shares")
    p.add_argument("scheme")
    p.add_argument("bundle")
    p.add_argument("--k", type=_int, default=1, help="sub-array index")
    _add_format(p)
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("census", help="brute-force leakage table of a tiny scheme")
    p.add_argument("scheme")
    p.add_argument("--shares", default="", help="coalition indices, e.g. 1,2")
    p.add_argument("--target", required=True,
                   help="target secret slots k,j joined by ';', e.g. '1,1;1,2'")
    _add_format(p)
    p.set_defaults(fn=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code else PASS
    try:
        return args.fn(args)
    except (ValueError, KeyError, FieldSearchError) as e:
        # str() of a KeyError quotes its message
        message = e.args[0] if isinstance(e, KeyError) else e
        print(f"error: {message}", file=sys.stderr)
        return USAGE
    except BrokenPipeError:
        # What is still buffered goes to devnull, so the final flush at exit
        # raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED


if __name__ == "__main__":
    raise SystemExit(main())
