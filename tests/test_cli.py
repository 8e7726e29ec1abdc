import hashlib
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtss import cli, dealer
from mtss.cli import CLOSED, FAIL, PASS, USAGE
from mtss.schemes import VariableId
from mtss.structure import format_ints, parse_ints, structure
from test_verify import stacked


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sigma_scheme(tmp_path, capsys):
    """The weak sigma-optimal scheme for three secrets at threshold 2."""
    path = tmp_path / "s.scheme"
    code = cli.main(
        ["build", "--n", "3", "--t", "2,2,2", "--ratio", "sigma",
         "--security", "weak", "--out", str(path)]
    )
    assert code == PASS
    capsys.readouterr()
    return path


def test_build_then_ratios(capsys, sigma_scheme):
    code, out, _ = run(capsys, "ratios", str(sigma_scheme))
    assert code == PASS
    assert "sigma: 3/2" in out
    code, out, _ = run(capsys, "ratios", str(sigma_scheme), "--format", "records")
    assert code == PASS
    assert "ratio sigma 3/2" in out.splitlines()


def test_build_to_stdout(capsys):
    code, out, _ = run(
        capsys, "build", "--n", "2", "--t", "2", "--ratio", "tau",
        "--security", "strong",
    )
    assert code == PASS and out.startswith("mtss-scheme 1")


def test_lp_example(capsys):
    code, out, _ = run(
        capsys, "lp", "--n", "3", "--t", "2,2", "--ratio", "sigma-avg",
        "--security", "weak",
    )
    assert code == PASS and out.strip() == "value 1/1"


def test_lp_dump(capsys):
    code, out, _ = run(
        capsys, "lp", "--n", "2", "--t", "2", "--ratio", "tau",
        "--security", "strong", "--dump",
    )
    assert code == PASS
    lines = out.splitlines()
    assert any(ln.startswith("elemental ") and ln.endswith(">= 0") for ln in lines)
    assert any(ln.startswith("C1 ") for ln in lines)
    assert lines[-1] == "value 1/1"


@pytest.mark.parametrize(
    "n,t,security,lines,digest",
    [
        ("3", "3,2,2", "strong", 258,
         "3e53b3967ef91650f48aae00785df0a0f69d41052fe32f6912bf17f695fae5b8"),
        ("3", "3,2,2", "weak", 261,
         "ad471a557d183261f7c3eb101d3c029ddf5800fa56748dfbc6381d26b6f810e0"),
        ("4", "4,3,2", "strong", 706,
         "55f1b8f4a817f17975dafce3adc1d9417fd89ef33a4b1e49e1db2885604d952a"),
        ("4", "4,3,2", "weak", 706,
         "7ffc6fc0fe1b1ea544a93ce8e0055f90a89a6b41111408657d342e3a5e0d570b"),
        # 8 variables, at the cone's size cap
        ("5", "4,3,2", "weak", 1852,
         "de9e201043e7cb15a9c2b4920f48341d44fae2f81b370872a3fcb4f1dc2cf6db"),
        ("3", "2,2,2,2,2", "strong", 1808,
         "c227c4bb24843dcc68a5be87e38a1ccf31c72e0beed8dec961b9ce609b9831ad"),
        ("4", "3,3,2,2", "weak", 1832,
         "a0116c22e666f8904d29ec20b70032c9e5bb4638ecc24414b89771dd95eff491"),
    ],
)
def test_lp_dump_golden(capsys, n, t, security, lines, digest):
    """`lp --dump` output, rows and value, byte for byte: the cases of at
    most 7 variables as recorded when every row held Fraction coefficients,
    and three at the cone's size cap of 8 variables."""
    code, out, _ = run(
        capsys, "lp", "--n", n, "--t", t, "--ratio", "sigma", "--security", security,
        "--dump",
    )
    assert code == PASS and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lp_over_cap(capsys):
    for t in ("2,2,2", "2,2,2,2"):
        for dump in ([], ["--dump"]):
            code, out, err = run(
                capsys, "lp", "--n", "6", "--t", t, "--ratio", "sigma",
                "--security", "weak", *dump,
            )
            assert code == USAGE and out == "", (t, dump)
            assert err == "error: size cap exceeded\n", (t, dump)


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "missing.scheme")
    assert code == USAGE and "cannot read scheme file" in err


def test_verify_pass(capsys, sigma_scheme):
    code, out, _ = run(capsys, "verify", str(sigma_scheme), "--security", "weak")
    assert code == PASS and "overall: pass" in out


def test_verify_garbage_file(tmp_path, capsys):
    p = tmp_path / "junk.scheme"
    p.write_text("not a scheme\n")
    code, _, err = run(capsys, "verify", str(p))
    assert code == USAGE and "bad scheme file" in err


def test_malformed_scheme_files_exit_2(tmp_path, capsys, sigma_scheme):
    text = sigma_scheme.read_text()
    q, rows = text.splitlines()[1:3]
    cases = {
        "large-q": text.replace(q, "q 4294967311"),
        "huge-q": text.replace(q, f"q {(1 << 61) - 1}"),
        "bare-S": text + "S\n",
        "short-S": text + "S 1\n",
        "bare-P": text + "P\n",
        "huge-N": text.replace("structure 3 ", f"structure {10**12} "),
        # rows that no column sees: deal would build a rows x rows basis
        "huge-rows": re.sub(
            r"^((S \d+|P) \d+) .*$", r"\1",
            text.replace(rows, "rows 100000"), flags=re.M,
        ),
    }
    for name, body in cases.items():
        path = tmp_path / f"{name}.scheme"
        path.write_text(body)
        code, _, err = run(capsys, "verify", str(path))
        assert code == USAGE and err.startswith("error: bad scheme file"), name
    binary = tmp_path / "binary.scheme"
    binary.write_bytes(text.encode() + b"\xff\xfe\n")
    code, _, err = run(capsys, "verify", str(binary))
    assert code == USAGE and err.startswith("error: bad scheme file") and "decode" in err
    code, _, err = run(capsys, "deal", str(tmp_path / "huge-rows.scheme"), "--secrets=-;-;-")
    assert code == USAGE and "rows 100000 exceeds" in err and err.count("\n") == 1
    # entries are read modulo q, however large
    path = tmp_path / "huge-entry.scheme"
    path.write_text(re.sub(r"^P 1 \d+", "P 1 " + "9" * 30, text, flags=re.M))
    assert run(capsys, "verify", str(path))[0] in (PASS, FAIL)
    # a scheme whose secrets are all empty has no ratios
    path.write_text(re.sub(r"^(S \d+ \d+) .*$", r"\1", text, flags=re.M))
    code, _, err = run(capsys, "ratios", str(path))
    assert code == USAGE and "zero-length secret" in err


def test_format_flag_only_where_output_differs(capsys, sigma_scheme):
    for argv in (
        ["build", "--n", "2", "--t", "2", "--ratio", "sigma", "--security", "weak"],
        ["verify", str(sigma_scheme)],
        ["lp", "--n", "2", "--t", "2", "--ratio", "sigma", "--security", "weak"],
        ["deal", str(sigma_scheme), "--secrets", "1,2;3,4;5,6"],
    ):
        code, _, err = run(capsys, *argv, "--format", "records")
        assert code == USAGE and "--format" in err, argv[0]


def test_verify_failure_prints_witness(tmp_path, capsys):
    bad = stacked(
        structure(2, [(2, 1)]), 5,
        (
            (VariableId.secret(1, 1), [[1], [0]]),
            (VariableId.share(1), [[1], [0]]),
            (VariableId.share(2), [[0], [1]]),
        ),
    )
    p = tmp_path / "bad.scheme"
    p.write_text(bad.to_text())
    code, out, _ = run(capsys, "verify", str(p), "--security", "weak")
    assert code == FAIL
    assert "witness: secure fails at shares {P[1]}" in out


def test_structure_records_table(capsys):
    code, out, _ = run(
        capsys, "structure", "--n", "3", "--t", "3,3,2", "--format", "records"
    )
    assert code == PASS
    lines = out.splitlines()
    assert lines[0] == "structure 3 3,3,2"
    assert "ratio sigma strong exact 3/1" in lines
    assert "ratio sigma_avg weak exact 3/2" in lines
    assert "ratio tau strong exact 5/1" in lines


def test_build_over_the_modulus_limit_exits_2(capsys):
    """N = 1048600 needs a prime above the modulus limit; the build refuses
    it at once, with one line."""
    code, out, err = run(
        capsys, "build", "--n", "1048600", "--t", "2", "--ratio", "sigma",
        "--security", "strong",
    )
    assert code == USAGE and out == ""
    assert err == "error: modulus 1048609 is too large (limit 2**20)\n"


def test_out_to_a_missing_directory_exits_2(tmp_path, capsys, sigma_scheme):
    for argv in (
        ["build", "--n", "3", "--t", "2", "--ratio", "sigma", "--security", "weak"],
        ["deal", str(sigma_scheme), "--secrets", "1,2;3,4;5,6"],
    ):
        path = tmp_path / "missing" / "x"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == USAGE and out == "", argv
        assert err.startswith(f"error: cannot write {path}: "), argv
        assert err.count("\n") == 1 and "Traceback" not in err, argv


def test_structure_usage_errors(capsys):
    code, _, err = run(capsys, "structure", "--n", "3", "--t", "2,3")
    assert code == USAGE and "non-increasing" in err
    code, _, _ = run(capsys, "structure", "--n", "3")
    assert code == USAGE  # argparse: --t required


def test_deal_reconstruct_round_trip(tmp_path, capsys, sigma_scheme):
    bundle = tmp_path / "b.bundle"
    code, _, _ = run(
        capsys, "deal", str(sigma_scheme), "--secrets", "1,2;3,4;5,6",
        "--seed", "7", "--out", str(bundle),
    )
    assert code == PASS
    code, out, _ = run(
        capsys, "reconstruct", str(sigma_scheme), str(bundle), "--format", "records"
    )
    assert code == PASS
    assert out.splitlines() == ["S 1 1 1,2", "S 1 2 3,4", "S 1 3 5,6"]


def test_deal_is_deterministic(capsys, sigma_scheme):
    args = ["deal", str(sigma_scheme), "--secrets", "0,1;2,3;4,5", "--seed", "9"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == PASS and out1 == out2
    assert out1.startswith("mtss-bundle 1")
    # blanks around items and vectors are not part of them
    args[3] = " 0 , 1 ; 2,3 ;4, 5 "
    assert run(capsys, *args)[:2] == (PASS, out1)


def test_deal_usage_errors(capsys, sigma_scheme):
    code, _, err = run(
        capsys, "deal", str(sigma_scheme), "--secrets", "1;2;3"
    )
    assert code == USAGE and "does not match width" in err
    code, _, err = run(
        capsys, "deal", str(sigma_scheme), "--secrets", "x,y;1,2;3,4"
    )
    assert code == USAGE and "bad secret vector" in err


DEPENDENT_SECRETS = (
    "mtss-scheme 1\nq 7\nrows 2\nstructure 3 2,2\n"
    "S 1 1 1,1\nS 1 2 1,1\nP 1 1,0\nP 2 0,1\nP 3 1,2\n"
)


def test_deal_refuses_dependent_secret_columns(tmp_path, capsys):
    """Each block has full column rank, so the file loads, and `verify`
    reports the failed independence; but the two secrets share one column,
    so "1;2" has no codeword: exit 2, one line."""
    path = tmp_path / "dup.scheme"
    path.write_text(DEPENDENT_SECRETS)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == FAIL and "independence fails at shares {}" in out
    code, out, err = run(capsys, "deal", str(path), "--secrets", "1;2")
    assert code == USAGE and out == ""
    assert "linearly dependent" in err and err.count("\n") == 1


def test_reconstruct_failures(tmp_path, capsys, sigma_scheme):
    bundle = tmp_path / "b.bundle"
    run(
        capsys, "deal", str(sigma_scheme), "--secrets", "1,2;3,4;5,6",
        "--out", str(bundle),
    )
    # strip the bundle to one share: below threshold 2
    kept = [
        ln for ln in bundle.read_text().splitlines()
        if not ln.startswith(("P 2", "P 3"))
    ]
    partial = tmp_path / "partial.bundle"
    partial.write_text("\n".join(kept) + "\n")
    code, out, _ = run(capsys, "reconstruct", str(sigma_scheme), str(partial))
    assert code == FAIL and "unqualified set" in out

    code, _, err = run(
        capsys, "reconstruct", str(sigma_scheme), str(bundle), "--k", "5"
    )
    assert code == USAGE and "out of range" in err

    other = tmp_path / "other.scheme"
    cli.main(
        ["build", "--n", "2", "--t", "2", "--ratio", "tau", "--security",
         "strong", "--out", str(other)]
    )
    capsys.readouterr()
    code, out, _ = run(capsys, "reconstruct", str(other), str(bundle))
    assert code == FAIL and "fingerprint" in out

    stranger = tmp_path / "stranger.bundle"
    stranger.write_text(bundle.read_text().replace("P 3 ", "P 9 "))
    code, _, err = run(capsys, "reconstruct", str(sigma_scheme), str(stranger))
    assert code == USAGE and "share index 9 out of range" in err

    # a malformed share value is an input error (2), not a failed reconstruction (1)
    for name, vector, message in (
        ("outside", "7,1,1", "P[1] element out of field range"),
        ("narrow", "5,1", "P[1] length 2 does not match width 3"),
    ):
        path = tmp_path / f"{name}.bundle"
        path.write_text(re.sub(r"^P 1 \S+", f"P 1 {vector}", bundle.read_text(), flags=re.M))
        code, _, err = run(capsys, "reconstruct", str(sigma_scheme), str(path))
        assert code == USAGE and message in err and err.count("\n") == 1, name


# Recorded before the dealer stored vectors by position: the deal of
# "1,2;3,4;5,6" at seed 0 on `sigma_scheme`, and each refused input's one
# line.  A line starting with ":" follows "error: bad bundle file PATH".
DEALT_SIGMA = (
    "mtss-bundle 1\n"
    "fingerprint 8679c7e4747ea7e57219d00aa7eabf661d684f4d27565d814c964595a14bc564\n"
    "P 1 5,1,1\nP 2 0,4,3\nP 3 2,0,5\n"
)
MALFORMED_SECRETS = {
    "1,2;3,4": "need 3 secret vectors, got 2",
    "1,2;3,4;5,6;0,0": "need 3 secret vectors, got 4",
    "": "need 3 secret vectors, got 1",
    "1;3,4;5,6": "S[1,1] length 1 does not match width 2",
    "1,2;3,4;5,6,0": "S[1,3] length 3 does not match width 2",
    "1,2;3,7;5,6": "S[1,2] element out of field range",
    "1,2;3,4;-1,6": "S[1,3] element out of field range",
    "1,2;3,4;5,x": "bad secret vector '5,x'",
}
MALFORMED_BUNDLES = {
    "hello\n": ": not a bundle file",
    "mtss-bundle 1\nP 1 5,1,1\n": ": malformed bundle header: bad line 'P 1 5,1,1'",
    DEALT_SIGMA.replace("P 2 ", "Q 2 "): ": bad share line: 'Q 2 0,4,3'",
    DEALT_SIGMA.replace("P 2 0,4,3", "P 2 0,4,3 0"): ": bad share line: 'P 2 0,4,3 0'",
    DEALT_SIGMA + "P 2 0,4,3\n": ": duplicate share line for P[2]",
    DEALT_SIGMA.replace("P 2 ", "P 0 "): ": variable indices are 1-based",
    DEALT_SIGMA.replace("P 2 ", "P -1 "): ": variable indices are 1-based",
    DEALT_SIGMA.replace("P 2 ", "P x "): ": bad share index 'x'",
    DEALT_SIGMA.replace("P 1 5,1,1", "P 1 x,y,z"): ": bad share vector of P[1] 'x,y,z'",
    DEALT_SIGMA.replace("P 3 ", "P 4 "): "share index 4 out of range",
    DEALT_SIGMA.replace("P 2 0,4,3", "P 2 1,1"): "P[2] length 2 does not match width 3",
    DEALT_SIGMA.replace("P 2 0,4,3", "P 2 1,1,1,1"): "P[2] length 4 does not match width 3",
    DEALT_SIGMA.replace("P 2 0,4,3", "P 2 -"): "P[2] length 0 does not match width 3",
    DEALT_SIGMA.replace("P 3 2,0,5", "P 3 2,7,5"): "P[3] element out of field range",
    DEALT_SIGMA.replace("P 3 2,0,5", "P 3 2,-1,5"): "P[3] element out of field range",
    # shares are checked in index order, whatever the order of the lines
    "\n".join([*DEALT_SIGMA.splitlines()[:2], "P 9 1,1,1", "P 3 7,0,0", "P 1 5,1"]):
        "P[1] length 2 does not match width 3",
}
UNRECOVERABLE_BUNDLES = {
    DEALT_SIGMA.replace("P 3 2,0,5", "P 3 2,0,6"): "inconsistent shares",
    DEALT_SIGMA.replace(DEALT_SIGMA.split()[3], "0" * 64):
        "bundle fingerprint does not match scheme",
    "\n".join(DEALT_SIGMA.splitlines()[:3]): "unqualified set",
}


def test_deal_and_reconstruct_error_lines(tmp_path, capsys, sigma_scheme):
    """Malformed secrets and bundle files exit 2 with one `error:` line and
    nothing on stdout; a bundle that is well formed but recovers nothing
    exits 1 with its reason on stdout."""
    bundle = tmp_path / "b.bundle"
    assert cli.main(["deal", str(sigma_scheme), "--secrets", "1,2;3,4;5,6",
                     "--out", str(bundle)]) == PASS
    capsys.readouterr()
    assert bundle.read_text() == DEALT_SIGMA
    for secrets, message in MALFORMED_SECRETS.items():
        argv = ["deal", str(sigma_scheme), "--secrets", secrets]
        assert run(capsys, *argv) == (USAGE, "", f"error: {message}\n"), secrets
    path = tmp_path / "bad.bundle"
    for text, message in MALFORMED_BUNDLES.items():
        path.write_text(text)
        if message.startswith(":"):
            message = f"bad bundle file {path}{message}"
        got = run(capsys, "reconstruct", str(sigma_scheme), str(path))
        assert got == (USAGE, "", f"error: {message}\n"), text
    for k in ("0", "4"):
        got = run(capsys, "reconstruct", str(sigma_scheme), str(bundle), "--k", k)
        assert got == (USAGE, "", "error: sub-array index out of range\n")
    for text, reason in UNRECOVERABLE_BUNDLES.items():
        path.write_text(text)
        got = run(capsys, "reconstruct", str(sigma_scheme), str(path))
        assert got == (FAIL, f"reconstruction failed: {reason}\n", ""), text


def test_reconstruct_refuses_repeated_share_line(tmp_path, capsys):
    scheme, bundle = tmp_path / "p.scheme", tmp_path / "p.bundle"
    cli.main(["build", "--n", "3", "--t", "2,2", "--ratio", "sigma",
              "--security", "weak", "--out", str(scheme)])
    cli.main(["deal", str(scheme), "--secrets", "1;2", "--out", str(bundle)])
    capsys.readouterr()
    text = re.sub(r"^P 1 \S+$", "P 1 3\nP 1 0", bundle.read_text(), flags=re.M)
    bundle.write_text(text)
    code, _, err = run(capsys, "reconstruct", str(scheme), str(bundle))
    assert code == USAGE and "duplicate share line for P[1]" in err
    # a magic line with trailing blanks is read, as in scheme files
    bundle.write_text(text.replace("mtss-bundle 1", "mtss-bundle 1  ").replace("P 1 3\n", ""))
    assert run(capsys, "reconstruct", str(scheme), str(bundle))[0] == FAIL


@pytest.mark.parametrize("bad", ["1,,2", "1,", "x", "٣", "3_0"])
def test_list_grammar_at_every_entry_point(tmp_path, capsys, sigma_scheme, bad):
    """An empty item or a non-integer exits 2 with one line, wherever a
    comma-separated list or a single integer is read; items are ASCII
    digits only, so a non-ASCII digit or an underscore separator is not an
    integer.  A bad integer flag exits 2 through the argument parser."""
    bundle = tmp_path / "b.bundle"
    cli.main(["deal", str(sigma_scheme), "--secrets", "1,2;3,4;5,6", "--out", str(bundle)])
    capsys.readouterr()
    scheme_text, bundle_text = sigma_scheme.read_text(), bundle.read_text()
    column = tmp_path / "column.scheme"
    column.write_text(re.sub(r"^P 1 \S+", f"P 1 {bad}", scheme_text, flags=re.M))
    vector = tmp_path / "vector.bundle"
    vector.write_text(re.sub(r"^P 1 \S+", f"P 1 {bad}", bundle_text, flags=re.M))
    share = tmp_path / "share.bundle"
    share.write_text(re.sub(r"^P 1 ", f"P {bad} ", bundle_text, flags=re.M))
    cases = [
        (["structure", "--n", "3", "--t", bad], "bad threshold list"),
        (["census", str(sigma_scheme), "--shares", bad, "--target", "1,1"], "bad share list"),
        (["census", str(sigma_scheme), "--target", bad], "bad secret slot"),
        (["deal", str(sigma_scheme), "--secrets", f"1,2;{bad};5,6"], "bad secret vector"),
        (["verify", str(column)], "bad column of P[1]"),
        (["reconstruct", str(sigma_scheme), str(vector)], "bad share vector of P[1]"),
        (["reconstruct", str(sigma_scheme), str(share)], "bad share index"),
    ]
    for name, pattern, repl, message in (
        ("q", r"^q \S+", f"q {bad}", "bad field order"),
        ("rows", r"^rows \S+", f"rows {bad}", "bad row count"),
        ("n", r"^structure \S+", f"structure {bad}", "bad participant count"),
        ("level", r"^S \S+", f"S {bad}", "bad secret level"),
        ("index", r"^S 1 \S+", f"S 1 {bad}", "bad secret index"),
        ("share", r"^P 1 ", f"P {bad} ", "bad share index"),
    ):
        path = tmp_path / f"{name}.scheme"
        path.write_text(re.sub(pattern, repl, scheme_text, count=1, flags=re.M))
        cases.append((["verify", str(path)], message))
    for argv, message in cases:
        code, _, err = run(capsys, *argv)
        assert code == USAGE, argv
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    for flag, argv in (
        ("--n", ["structure", "--t", "2"]),
        ("--k", ["reconstruct", str(sigma_scheme), str(bundle)]),
        ("--seed", ["deal", str(sigma_scheme), "--secrets", "1,2;3,4;5,6"]),
        ("--cap", ["audit", str(sigma_scheme)]),
    ):
        code, out, err = run(capsys, *argv, flag, bad)
        assert code == USAGE and out == "", flag
        assert f"argument {flag}: invalid int value: {bad!r}" in err, err


@given(st.lists(st.integers()).map(tuple))
def test_int_list_round_trip(values):
    assert parse_ints(format_ints(values), "list") == values


def test_audit_clean_and_records(capsys, sigma_scheme):
    code, out, _ = run(capsys, "audit", str(sigma_scheme), "--security", "weak")
    assert code == PASS and "all bounds hold" in out
    code, out, _ = run(
        capsys, "audit", str(sigma_scheme), "--security", "weak",
        "--format", "records",
    )
    assert code == PASS
    lines = out.splitlines()
    assert lines and all(" lhs=" in ln and " rhs=" in ln for ln in lines)
    assert all(ln.endswith(("ok", "ok tight")) for ln in lines)


def test_audit_cap(capsys, sigma_scheme):
    code, out, _ = run(
        capsys, "audit", str(sigma_scheme), "--security", "weak",
        "--cap", "1", "--format", "records",
    )
    assert code == PASS
    families = {ln.split()[0] for ln in out.splitlines()}
    assert len(out.splitlines()) == len(families)
    # a cap no family reaches audits everything, as the default cap does
    outs = [
        run(capsys, "audit", str(sigma_scheme), *cap, "--format", "records")
        for cap in ([], ["--cap", "99999999999999999999"])
    ]
    assert outs[0][0] == outs[1][0] == PASS and outs[0][1] == outs[1][1]
    for cap in ("0", "-3"):
        code, out, err = run(capsys, "audit", str(sigma_scheme), "--cap", cap)
        assert code == USAGE and out == "", cap
        assert err.startswith("error: ") and "cap" in err and err.count("\n") == 1, cap


@pytest.mark.parametrize(
    "n,t,ratio,security,lines,digest",
    [
        ("3", "3,2", "sigma", "strong", 19,
         "a7b2ce92c1f8a49e8493f210e975b28e8ca20f7d8f840b223478c9c3a93d1c73"),
        ("3", "3,2", "sigma", "weak", 15,
         "1ee16c61f7620d8b6b64a55841079ec166242157604511bdedceb8a58c9ee97c"),
        ("4", "4,2,2", "tau", "strong", 51,
         "d37c5081544f6e4de4a6f97e72b24516bc49ecd30adba35470be7ef3ee448446"),
        ("4", "4,2,2", "tau", "weak", 46,
         "e094a8f7f1e74928fb250265ba66082ea64ca1c67025e065fd192149500b4285"),
    ],
)
def test_audit_records_golden(tmp_path, capsys, n, t, ratio, security, lines, digest):
    """`audit --format records` of two strong schemes at both securities,
    byte for byte as recorded when each bound family had its own generator."""
    path = tmp_path / "g.scheme"
    assert cli.main(["build", "--n", n, "--t", t, "--ratio", ratio,
                     "--security", "strong", "--out", str(path)]) == PASS
    capsys.readouterr()
    code, out, _ = run(capsys, "audit", str(path), "--security", security,
                       "--format", "records")
    assert code == PASS and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_census_verdicts(tmp_path, capsys):
    scheme = tmp_path / "w.scheme"
    from mtss.schemes import build_weak_block

    scheme.write_text(build_weak_block(3, 2, 2, q=7).to_text())
    code, out, _ = run(capsys, "census", str(scheme), "--shares", "1", "--target", "1,1")
    assert code == PASS and out.splitlines()[0] == "uniform yes"
    code, out, _ = run(
        capsys, "census", str(scheme), "--shares", "1", "--target", "1,1;1,2"
    )
    assert code == PASS and out.splitlines()[0] == "uniform no"


def test_census_records_counts_total(tmp_path, capsys):
    scheme = tmp_path / "t.scheme"
    from mtss.schemes import build_single_threshold

    scheme.write_text(build_single_threshold(2, 2, q=5).to_text())
    code, out, _ = run(
        capsys, "census", str(scheme), "--shares", "1", "--target", "1,1",
        "--format", "records",
    )
    assert code == PASS
    counts = [int(ln.split()[-1]) for ln in out.splitlines() if ln.startswith("count ")]
    assert sum(counts) == 25


def _census_out(tmp_path, capsys, scheme, target, *flags):
    path = tmp_path / "c.scheme"
    path.write_text(scheme.to_text())
    code, out, _ = run(
        capsys, "census", str(path), "--shares", "1", "--target", target, *flags
    )
    assert code == PASS
    return out


def test_census_records_golden(tmp_path, capsys):
    from mtss.schemes import build_single_threshold, build_weak_block

    out = _census_out(
        tmp_path, capsys, build_single_threshold(2, 2, q=5), "1,1", "--format", "records"
    )
    assert out == "uniform yes\n" + "".join(
        f"count {a} {s} 1\n" for a in range(5) for s in range(5)
    )
    # P1 = c0 + 3c1, S11 = c0 + c1, S12 = c0 + 2c1 over F_7, so the share
    # and the first secret fix the second: S12 = 4 P1 + 4 S11.
    out = _census_out(
        tmp_path, capsys, build_weak_block(3, 2, 2, q=7), "1,1;1,2", "--format", "records"
    )
    assert out == "uniform no\n" + "".join(
        f"count {a} {s},{(4 * a + 4 * s) % 7} 1\n" for a in range(7) for s in range(7)
    )


_RECORDS_CASES = pytest.mark.parametrize(
    "shares, target",
    [("1,2", "1,1;2,1"), ("", "1,1"), ("3", "1,1;2,1"), ("1", "1,3")],
)


def _assert_records_match_the_decoded_counts(
    tmp_path, capsys, monkeypatch, shares, target, chunk
):
    """The records output, written in blocks of `chunk` codes, is the
    census decoded into nested dicts and sorted; the codes span more than
    one block unless the chunk is the default, the last block partly
    filled."""
    from mtss.schemes import build_B, build_weak_block

    scheme = build_B(3, (3, 4), (2, 1)) if target != "1,3" else build_weak_block(3, 2, 4, q=11)
    table = dealer.leakage_census(
        scheme,
        [VariableId.share(i) for i in parse_ints(shares, "shares")],
        [VariableId.secret(*parse_ints(t, "slot")) for t in target.split(";")],
    )
    assert table.n_codes % chunk and (table.n_codes > chunk or chunk == dealer._CHUNK)
    path = tmp_path / "c.scheme"
    path.write_text(scheme.to_text())
    monkeypatch.setattr(dealer, "_CHUNK", chunk)
    code, out, _ = run(
        capsys, "census", str(path), "--shares", shares, "--target", target,
        "--format", "records",
    )
    assert code == PASS
    wa = table.coalition_width
    rows = dealer._digits(table.codes, wa + table.target_width, table.q).tolist()
    counts = {}
    for row in rows:
        counts.setdefault(tuple(row[:wa]), {})[tuple(row[wa:])] = table.tally
    want = [
        f"count {format_ints(a)} {format_ints(s)} {row[s]}"
        for a, row in sorted(counts.items())
        for s in sorted(row)
    ]
    assert out.splitlines() == [f"uniform {'yes' if table.uniform else 'no'}"] + want


@_RECORDS_CASES
def test_census_records_match_the_decoded_counts(tmp_path, capsys, monkeypatch, shares, target):
    """Each records line is one (coalition values, target values) pair of
    the census decoded into nested dicts, sorted by both, with "-" for no
    values: several shares and secrets, the empty coalition, and a width-0
    target."""
    _assert_records_match_the_decoded_counts(
        tmp_path, capsys, monkeypatch, shares, target, dealer._CHUNK
    )


@_RECORDS_CASES
def test_census_records_in_blocks_of_7(tmp_path, capsys, monkeypatch, shares, target):
    """Written in blocks of 7 codes, the records lines read the same."""
    _assert_records_match_the_decoded_counts(tmp_path, capsys, monkeypatch, shares, target, 7)


class _LineCounter:
    """A stdout that keeps only the number of lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")

    def flush(self):
        pass


def test_census_records_memory_is_bounded_by_a_block(tmp_path, capsys, monkeypatch):
    """The records output is written as each block is decoded: with blocks
    of 1,024 codes, the 14,642 lines of the CI's `m.scheme` census of P[3]
    against S[1,2] and S[1,3] have a traced peak of at most 3 MiB."""
    path = tmp_path / "m.scheme"
    assert cli.main(["build", "--n", "4", "--t", "4,4,4,2", "--ratio", "tau",
                     "--security", "weak", "--out", str(path)]) == PASS
    capsys.readouterr()
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "d7c2174f18870dbbdebe0f70476fff40cd95ec6083e81dfa4d0ef16449d889fb"
    monkeypatch.setattr(dealer, "_CHUNK", 1024)
    sink = _LineCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(["census", str(path), "--shares", "3", "--target", "1,2;1,3",
                         "--format", "records"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert code == PASS and sink.lines == 14642
    assert peak <= 3 << 20


def test_census_text_sizes(tmp_path, capsys):
    from mtss.schemes import build_single_threshold, build_weak_block

    out = _census_out(tmp_path, capsys, build_single_threshold(2, 2, q=5), "1,1")
    assert out == "uniform yes\n5 coalition values, 25 table rows\n"
    out = _census_out(tmp_path, capsys, build_weak_block(3, 2, 2, q=7), "1,1;1,2")
    assert out == "uniform no\n7 coalition values, 49 table rows\n"
    path = tmp_path / "c.scheme"  # still the weak block; empty coalition
    code, out, _ = run(capsys, "census", str(path), "--target", "1,2")
    assert code == PASS
    assert out == "uniform yes\n1 coalition values, 7 table rows\n"


def test_census_past_the_codeword_cap(tmp_path, capsys):
    """The tau/weak build of (N=3, T=3,3,3,3,2) has 11^9 codewords.  Its
    census of P[1] against S[1,1] counts 11^5 outer settings, so the text
    output is printed; its table's blocks would make 11^5 x 1,331 codes, so
    the records output is refused before anything is written."""
    path = tmp_path / "tw.scheme"
    code, _, _ = run(
        capsys, "build", "--n", "3", "--t", "3,3,3,3,2", "--ratio", "tau",
        "--security", "weak", "--out", str(path),
    )
    assert code == PASS
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "08bc6136c87207d6c567aef14a4e7968abd6b413f6f85a75d00d6f109cae3e69"
    argv = ["census", str(path), "--shares", "1", "--target", "1,1"]
    text = "uniform yes\n1331 coalition values, 161051 table rows\n"
    assert run(capsys, *argv) == (PASS, text, "")
    code, out, err = run(capsys, *argv, "--format", "records")
    assert code == USAGE and out == "" and err.count("\n") == 1
    assert err.startswith("error: census table too large")


def test_census_usage_errors(tmp_path, capsys):
    scheme = tmp_path / "t.scheme"
    from mtss.schemes import build_single_threshold

    scheme.write_text(build_single_threshold(2, 2, q=5).to_text())
    code, _, err = run(capsys, "census", str(scheme), "--target", "1")
    assert code == USAGE and "expected k,j" in err
    code, _, err = run(capsys, "census", str(scheme), "--target", "")
    assert code == USAGE and "at least one target" in err
    code, _, err = run(
        capsys, "census", str(scheme), "--shares", "1,1", "--target", "1,1"
    )
    assert code == USAGE and "duplicate index" in err
    code, _, err = run(capsys, "census", str(scheme), "--target", "1,1;1,1")
    assert code == USAGE and "duplicate slot" in err and err.count("\n") == 1
    code, _, err = run(capsys, "census", str(scheme), "--shares", "9", "--target", "1,1")
    assert code == USAGE and err == "error: unknown variable P[9]\n"
    code, _, err = run(capsys, "census", str(scheme), "--target", "2,1")
    assert code == USAGE and err == "error: unknown variable S[2,1]\n"
    for flags in (
        ["--shares", "0", "--target", "1,1"],
        ["--shares", "-2", "--target", "1,1"],
        ["--target", "0,1"],
        ["--target", "1,-1"],
    ):
        code, _, err = run(capsys, "census", str(scheme), *flags)
        assert code == USAGE and err.startswith("error: ") and err.count("\n") == 1, flags
    big = tmp_path / "big.scheme"
    big.write_text(build_single_threshold(12, 12).to_text())
    code, _, err = run(capsys, "census", str(big), "--target", "1,1")
    assert code == USAGE and "too large" in err
    # Six copies of a 12-bit secret: codes of 84 bits would wrap in int64.
    eye = [[int(r == c) for c in range(12)] for r in range(12)]
    copies = stacked(
        structure(6, [(2, 1)]), 2,
        [(VariableId.secret(1, 1), eye)] + [(VariableId.share(i), eye) for i in range(1, 7)],
    )
    wide = tmp_path / "wide.scheme"
    wide.write_text(copies.to_text())
    code, _, err = run(
        capsys, "census", str(wide), "--shares", "1,2,3,4,5,6", "--target", "1,1"
    )
    assert code == USAGE and "overflow" in err and err.count("\n") == 1


_TOKEN = st.sampled_from(
    ["0", "1", "2", "3", "5", "9", "-1", "", "x", "-", "1,2", "1,1,1,0,0",
     "3,2", "S", "P", "q", "rows", "structure", str(10**5)]
)


def _mutated(data, text, line_sep="\n", token_sep=" "):
    """`text` with one to three tokens set, dropped or added, or lines
    dropped or copied."""
    lines = [ln.split(token_sep) for ln in text.split(line_sep)]
    for _ in range(data.draw(st.integers(1, 3))):
        lines = lines or [[]]
        i = data.draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        j = data.draw(st.integers(0, max(len(line) - 1, 0)))
        op = data.draw(st.sampled_from(["set", "drop", "add", "drop-line", "copy-line"]))
        if op == "set" and line:
            line[j] = data.draw(_TOKEN)
        elif op == "drop" and line:
            del line[j]
        elif op == "add":
            line.insert(j, data.draw(_TOKEN))
        elif op == "drop-line":
            del lines[i]
        elif op == "copy-line":
            lines.insert(i, list(line))
    return line_sep.join(token_sep.join(ln) for ln in lines)


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_exit_code_contract_under_mutation(tmp_path, capsys, data):
    """Mutated scheme and bundle files and flag lists exit 0, 1 or 2.  `lp`
    and `build` read `--t` through the same parser as `structure`."""
    scheme_text = (
        "mtss-scheme 1\nq 5\nrows 5\nstructure 3 3,2\n"
        "S 1 1 1,1,1,0,0\nS 2 1 0,0,0,1,1\n"
        "P 1 1,2,4,0,0 0,0,0,1,2\nP 2 1,3,4,0,0 0,0,0,1,3\n"
        "P 3 1,4,1,0,0 0,0,0,1,4\n"
    )
    scheme = tmp_path / "f.scheme"
    scheme.write_text(scheme_text)
    bundle = tmp_path / "f.bundle"
    assert cli.main(["deal", str(scheme), "--secrets", "1;2", "--out", str(bundle)]) == PASS
    bundle.write_text(_mutated(data, bundle.read_text()))
    scheme.write_text(_mutated(data, scheme_text))
    shares = _mutated(data, "1,2", ";", ",")
    targets = _mutated(data, "1,1;2,1", ";", ",")
    secrets = _mutated(data, "1;2", ";", ",")
    thresholds = _mutated(data, "3,3,2", ";", ",")
    for argv in (
        ["structure", "--n", "3", "--t", thresholds],
        ["verify", str(scheme), "--security", "strong"],
        ["ratios", str(scheme)],
        ["audit", str(scheme), "--security", "weak"],
        ["reconstruct", str(scheme), str(bundle)],
        ["census", str(scheme), "--shares", shares, "--target", targets],
        ["deal", str(scheme), "--secrets", secrets],
    ):
        assert run(capsys, *argv)[0] in (PASS, FAIL, USAGE), argv


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "mtss.cli", "structure", "--n", "2", "--t", "2"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == PASS and "N=2" in r.stdout


def test_closed_stdout_exits_141_quietly(tmp_path):
    """A reader that closes stdout after one line (as `| head -n 1` does)
    stops a records census of 3.3 MB, more than any pipe buffer: exit
    status 141 and nothing on stderr."""
    from mtss.schemes import build_B

    path = tmp_path / "b.scheme"
    path.write_text(build_B(3, (3, 4), (2, 1)).to_text())
    argv = ["census", str(path), "--shares", "1,2", "--target", "1,1;2,1", "--format", "records"]
    with subprocess.Popen(
        [sys.executable, "-m", "mtss.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"uniform ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (CLOSED, b"")
