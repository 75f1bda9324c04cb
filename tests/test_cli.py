"""End-to-end checks of every CLI subcommand."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eaqecne
from eaqecne import cli
from eaqecne.cli import build_parser, format_analysis, main
from eaqecne.errors import EaqecneError
from eaqecne.gf import field
from eaqecne import addcodes as ac, eaqec, linalg


FIVE_Q = [[1, 0, 1, 2, 2], [0, 1, 2, 2, 1]]


@pytest.fixture
def five_q_code_file(tmp_path):
    Q = field(4)
    code = ac.AdditiveCode.from_linear(Q, FIVE_Q)
    p = tmp_path / "five.code"
    p.write_text(ac.dump_code(code))
    return p, code


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_analyze_round_trip(capsys, five_q_code_file):
    path, code = five_q_code_file
    rc, out, _ = run(capsys, ["analyze", str(path)])
    assert rc == 0
    params = eaqec.eaqec_params(code, True)
    assert out == format_analysis(params, code.m, True) + "\n"
    assert out == "[[5,1,3]]_2 c=0 l=4 m=4\n"


def test_analyze_no_distance(capsys, five_q_code_file):
    path, _ = five_q_code_file
    rc, out, _ = run(capsys, ["analyze", str(path), "--no-distance"])
    assert rc == 0
    assert out == "[[5,1]]_2 c=0 l=4 m=4\n"


# the five-qudit code punctured at its last coordinate: an EA code, c = 1
PUNCTURED_FIVE_Q = ac.dump_code(
    ac.puncture(ac.AdditiveCode.from_linear(field(4), FIVE_Q), [4]))


@pytest.mark.parametrize("text, flags, line", [
    (PUNCTURED_FIVE_Q, [], "[[4,1,3;1]]_2 l=2 m=4"),
    (PUNCTURED_FIVE_Q, ["--no-distance"], "[[4,1;1]]_2 l=2 m=4"),
    ("9 1 2\n1 0\n", ["--symplectic"], "[[1,0]]_9 c=0 l=1 m=1 d=undefined"),
    ("2 2 2\n1 0\n0 1\n", ["--symplectic"],
     "[[1,0;1]]_2 l=0 m=2 d=undefined"),
], ids=["ea", "ea-no-distance", "stabilizer-undefined", "ea-undefined"])
def test_analyze_line_shapes(capsys, tmp_path, text, flags, line):
    p = tmp_path / "code.txt"
    p.write_text(text)
    rc, out, err = run(capsys, ["analyze", str(p)] + flags)
    assert (rc, out, err) == (0, line + "\n", "")


def test_analyze_symplectic_input(capsys, tmp_path):
    F = field(2)
    pre = np.array([[1, 0, 0, 0]])
    p = tmp_path / "pre.mat"
    p.write_text(linalg.dump_matrix(F, pre, comments=("ambient n=2",)))
    rc, out, _ = run(capsys, ["analyze", str(p), "--symplectic"])
    assert rc == 0
    assert "c=0" in out and "[[2,1" in out


def test_analyze_symplectic_over_extension_base(capsys, tmp_path):
    # GF(4) is a quadratic extension AND a base field: a 2n-column GF(4)
    # matrix must be accepted as the preimage of a code over GF(16)
    F = field(4)
    pre = np.array([[1, 0, 2, 0], [0, 1, 0, 3]])
    p = tmp_path / "pre4.mat"
    p.write_text(linalg.dump_matrix(F, pre))
    rc, out, _ = run(capsys, ["analyze", str(p), "--symplectic",
                              "--no-distance"])
    assert rc == 0
    assert "]]_4" in out
    # unsupported base order for the quadratic lift
    q16 = tmp_path / "pre16.mat"
    q16.write_text(linalg.dump_matrix(field(16), np.array([[1, 0]])))
    rc, _, err = run(capsys, ["analyze", str(q16), "--symplectic"])
    assert rc == 1 and "base-field order" in err


def test_analyze_domain_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.code"
    p.write_text("2 1 2\n1 1\n")  # base-field order without --symplectic
    rc, _, err = run(capsys, ["analyze", str(p)])
    assert rc == 1
    assert "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing file argument
    assert exc.value.code == 2


def test_decompose(capsys, tmp_path):
    Q = field(4)
    code = ac.AdditiveCode.from_generators(Q, [[1, 1], [2, 2], [1, 0]])
    p = tmp_path / "c.code"
    p.write_text(ac.dump_code(code))
    rc, out, _ = run(capsys, ["decompose", str(p)])
    assert rc == 0
    head = out.splitlines()[0]
    assert head.startswith("q2=4 n=2 m=3")
    dec = ac.radical_decompose(code)
    assert f"l={dec.l} c={dec.c}" in head
    assert "#radical generators" in out
    assert "#complement generators" in out


def test_mindist(capsys, five_q_code_file):
    path, code = five_q_code_file
    rc, out, _ = run(capsys, ["mindist", str(path)])
    assert rc == 0
    d, q = ac.min_weight_excluding_detail(code).d, code.base_field.order
    assert out == f"d={d} enumerated={(q ** code.m - 1) // (q - 1)}\n"
    with pytest.raises(SystemExit) as exc:
        main(["mindist", str(path), "--threads", "2"])
    assert exc.value.code == 2


def test_combine_stabilizer_params_line(capsys, tmp_path):
    # G alone, with an empty (G2|E): a self-orthogonal [[5,4,1]] code, c = 0
    paths = []
    for name, text in (("G", "4 1 3\n1 0 0\n"), ("G2", "4 0 3\n"),
                       ("E", "4 0 2\n")):
        paths.append(tmp_path / f"{name}.mat")
        paths[-1].write_text(text)
    rc, out, _ = run(capsys, ["combine"] + [str(p) for p in paths])
    assert rc == 0
    assert out.splitlines()[0] == "params=[[5,4,1]]_2"


def test_combine_precondition_exit(capsys, tmp_path):
    Q = field(4)
    g = tmp_path / "g.mat"
    g.write_text(linalg.dump_matrix(Q, np.array([[1, 0]])))
    g2 = tmp_path / "g2.mat"
    g2.write_text(linalg.dump_matrix(Q, np.array([[2, 0], [0, 1]])))
    e = tmp_path / "e.mat"
    e.write_text(linalg.dump_matrix(Q, np.array([[1, 0], [0, 1]])))
    rc, _, err = run(capsys, ["combine", str(g), str(g2), str(e)])
    assert rc == 1 and "dual" in err


def test_print_field(capsys):
    rc, out, _ = run(capsys, ["print-field"])
    assert rc == 0
    assert "GF(4) = GF(2)[x]/(x^2 + x + 1)" in out
    rc, out, _ = run(capsys, ["print-field", "--order", "4"])
    assert "0: 0" in out and "2: x" in out and "3: 1 + x" in out


# every modulus and beta line, written down apart from the field table
ALL_FIELDS = """\
GF(2): prime field, elements 0..1
GF(3): prime field, elements 0..2
GF(4) = GF(2)[x]/(x^2 + x + 1), encoding index = sum(coeff_i * 2^i)
  beta=x (index 2), beta^q index 3, beta^2-beta^(2q) index 1
GF(5): prime field, elements 0..4
GF(7): prime field, elements 0..6
GF(8) = GF(2)[x]/(x^3 + x + 1), encoding index = sum(coeff_i * 2^i)
GF(9) = GF(3)[x]/(x^2 + x + 2), encoding index = sum(coeff_i * 3^i)
  beta=x (index 3), beta^q index 8, beta^2-beta^(2q) index 5
GF(16) = GF(4)[x]/(x^2 + x + y), encoding index = sum(coeff_i * 4^i)
  beta=x (index 4), beta^q index 5, beta^2-beta^(2q) index 1
GF(25) = GF(5)[x]/(x^2 + x + 2), encoding index = sum(coeff_i * 5^i)
  beta=x (index 5), beta^q index 24, beta^2-beta^(2q) index 19
GF(49) = GF(7)[x]/(x^2 + x + 3), encoding index = sum(coeff_i * 7^i)
  beta=x (index 7), beta^q index 48, beta^2-beta^(2q) index 41
GF(64) = GF(8)[x]/(x^2 + x + 1), encoding index = sum(coeff_i * 8^i)
  beta=x (index 8), beta^q index 9, beta^2-beta^(2q) index 1
GF(81) = GF(9)[x]/(x^2 + x + (1 + y)), encoding index = sum(coeff_i * 9^i)
  beta=x (index 9), beta^q index 20, beta^2-beta^(2q) index 11
"""


def test_print_field_every_modulus(capsys):
    assert run(capsys, ["print-field"]) == (0, ALL_FIELDS, "")


def test_fidelity_stdout_and_file(capsys, tmp_path):
    args = ["fidelity", "--c", "17,7", "--ea", "11,7", "--b", "6,3",
            "--lambda", "0.01", "--grid", "0.001:0.005:5"]
    rc, out, _ = run(capsys, args)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p_a,P_C,P_D,diff"
    assert len(lines) == 6
    # every diff positive on this grid at lambda = 0.01
    assert all(not row.split(",")[3].startswith("-") for row in lines[1:])
    target = tmp_path / "sweep.csv"
    rc, out, _ = run(capsys, args + ["--csv", str(target)])
    assert rc == 0 and "wrote 5 rows" in out
    assert target.read_text().splitlines()[0] == "p_a,P_C,P_D,diff"


def test_fidelity_lambda_warning(capsys):
    rc, out, err = run(capsys, ["fidelity", "--c", "17,7", "--ea", "11,7",
                                "--b", "6,3", "--lambda", "1.5",
                                "--grid", "0.01:0.02:2"])
    assert rc == 0
    assert "exceeds 1" in err


def test_verify_pauli(capsys):
    rc, out, _ = run(capsys, ["verify-pauli", "--p", "2", "--n", "1",
                              "--sets", "5"])
    assert rc == 0
    assert "commutation-law p=2 n=1 pairs=16 mode=exhaustive pass" in out
    assert "projector-rank p=2 n=1 sets=5 pass" in out


def test_verify_pauli_random_mode(capsys):
    rc, out, _ = run(capsys, ["verify-pauli", "--p", "3", "--n", "2",
                              "--samples", "20", "--sets", "3", "--seed", "7"])
    assert rc == 0
    assert "mode=random" in out
    # reproducible under a fixed seed
    rc2, out2, _ = run(capsys, ["verify-pauli", "--p", "3", "--n", "2",
                                "--samples", "20", "--sets", "3", "--seed", "7"])
    assert out2 == out


def test_verify_pauli_cap_before_allocation(capsys):
    """Above the dimension cap the command ends before it builds any label
    class: p^(2n) classes at n = 10 would take tens of MB."""
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, ["verify-pauli", "--p", "2", "--n", "10"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1 and out == ""
    assert err == "error: p^n = 1024 exceeds the cap 243\n"
    assert peak < 5 * 2 ** 20


def test_closed_stdout_is_silent():
    """A reader that is gone before the first write: exit 1, and no
    BrokenPipeError traceback on stderr."""
    src = str(Path(eaqecne.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eaqecne.cli", "print-field", "--order", "81"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_interrupt_is_one_error_line(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt
    help_, _, arguments = cli._COMMANDS["tables"]
    monkeypatch.setitem(cli._COMMANDS, "tables", (help_, interrupted, arguments))
    assert run(capsys, ["tables"]) == (130, "", "error: interrupted\n")


def test_match_rejects_distance_beyond_length(capsys):
    rc, out, err = run(capsys, ["match", "--q", "2",
                                "--alice", "8,1,99,1", "--bob", "5,1,3"])
    assert rc == 1 and out == ""
    assert err == "error: --alice: d=99 outside [1, 8]\n"


def test_match_rejects_bob_beyond_length(capsys):
    rc, out, err = run(capsys, ["match", "--q", "2",
                                "--alice", "8,1,5,1", "--bob", "5,6,3"])
    assert rc == 1 and out == ""
    assert err == "error: --bob: [[5,6,3]]_2 forces negative isotropic dimension\n"


def test_match_rejects_unsupported_q(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["match", "--q", "6", "--alice", "8,1,5,1", "--bob", "5,1,3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("p", ["4", "8", "9", "6"])
def test_verify_pauli_rejects_non_prime(capsys, p):
    rc, out, err = run(capsys, ["verify-pauli", "--p", p, "--n", "1"])
    assert rc == 1 and out == ""
    assert err == f"error: Pauli labels need a supported prime p, got {p}\n"


def test_missing_code_file(capsys, tmp_path):
    missing = tmp_path / "nonexistent"
    rc, out, err = run(capsys, ["mindist", str(missing)])
    assert rc == 1 and out == ""
    assert err == f"error: cannot read {missing}: No such file or directory\n"


def test_negative_header_shape(capsys, tmp_path):
    bad = tmp_path / "neg.mat"
    bad.write_text("4 0 -2\n")
    for argv in (["analyze", str(bad)], ["combine", str(bad), str(bad), str(bad)]):
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (1, "")
        assert err == "error: negative shape in header '4 0 -2'\n"


def test_non_utf8_code_file(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_bytes(b"4 1 1\n\xff\n")
    for argv in (["analyze", str(bad)], ["combine", str(bad), str(bad), str(bad)]):
        rc, out, err = run(capsys, argv)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {bad} is not UTF-8 text")
        assert len(err.splitlines()) == 1


FID = ["fidelity", "--c", "17,5", "--ea", "5,3", "--b", "3,1",
       "--lambda", "1/2", "--grid", "0.01:0.1:3"]


UNKNOWN = "error: only the distances d and db may be '?' or empty\n"


def with_option(argv, option, value):
    out = list(argv)
    out[out.index(option) + 1] = value
    return out


@pytest.mark.parametrize("argv, err", [
    (with_option(FID, "--lambda", "abc"),
     "error: cannot read 'abc' as a degradation coefficient\n"),
    (with_option(FID, "--lambda", "1/0"),
     "error: cannot read '1/0' as a degradation coefficient\n"),
    (with_option(FID, "--c", "17,x"), "error: --c: 'x' is not an integer\n"),
    (with_option(FID, "--ea", "5,x"), "error: --ea: 'x' is not an integer\n"),
    (with_option(FID, "--b", "x,1"), "error: --b: 'x' is not an integer\n"),
    (with_option(FID, "--c", "17,"),
     "error: --c, --ea and --b need a length and a distance\n"),
    # the grid point is checked before the sign of lambda
    (with_option(with_option(FID, "--lambda", "-1"), "--grid", "0:0.5:3"),
     "error: grid point 0 outside (0, 1)\n"),
    (["match", "--q", "2", "--alice", "8,x,3,1", "--bob", "5,1,3"],
     "error: --alice: 'x' is not an integer\n"),
    (["match", "--q", "2", "--alice", "?,1,3,1", "--bob", "5,1,3"], UNKNOWN),
    (["match", "--q", "2", "--alice", "8,?,5,1", "--bob", "5,1,3"], UNKNOWN),
    (["match", "--q", "2", "--alice", "8,1,5,", "--bob", "5,1,3"], UNKNOWN),
    (["match", "--q", "2", "--alice", "8,1,5,1", "--bob", "?,1,3"], UNKNOWN),
    (["match", "--q", "2", "--alice", "8,1,5,1", "--bob", "5,?,3"], UNKNOWN),
    (["tables", "--family-m", "x"],
     "error: --family-m needs comma-separated integers, got 'x'\n"),
], ids=["lambda-text", "lambda-zero-denominator", "c", "ea", "b",
        "c-missing-distance", "negative-lambda-grid-point-0", "alice",
        "alice-n-unknown", "alice-k-unknown",
        "alice-c-empty", "bob-m-unknown", "bob-kb-unknown", "family-m"])
def test_bad_values_end_in_one_error_line(capsys, argv, err):
    rc, out, got = run(capsys, argv)
    assert (rc, out, got) == (1, "", err)


# lambda is read once, before the grid; its sign and lambda * p_a are checked
# at each grid point, after that point's own range checks, so a bad first
# point reports before a negative lambda
@pytest.mark.parametrize("lam, grid, err", [
    ("abc", "0.01:0.1:3", "error: cannot read 'abc' as a degradation coefficient\n"),
    ("abc", "0.1:0.2", "error: cannot read 'abc' as a degradation coefficient\n"),
    ("-1", "1:1.5:2", "error: grid point 1 outside (0, 1)\n"),
    ("-0.5", "1.05:2:3", "error: rate 21/20 outside [0, 1]\n"),
    ("-1", "0.01:0.1:3", "error: degradation coefficient -1 is negative\n"),
    ("3", "0.25:0.5:2", "warning: degradation coefficient 3 exceeds 1\n"
                        "error: rate 3/2 outside [0, 1]\n"),
    # p_b = 1 at 2/7 is a rate; at 4/7 it is 28/14 = 2
    ("7/2", "2/7:4/7:2", "warning: degradation coefficient 7/2 exceeds 1\n"
                         "error: rate 2 outside [0, 1]\n"),
], ids=["text", "text-bad-grid", "negative-grid-point-1", "negative-grid-point-above-1",
        "negative", "hot-bob", "hot-bob-reduced"])
def test_fidelity_lambda_checks_in_order(capsys, lam, grid, err):
    rc, out, got = run(capsys, with_option(with_option(FID, "--lambda", lam), "--grid", grid))
    assert (rc, out, got) == (1, "", err)
    assert sum(line.startswith("error:") for line in got.splitlines()) == 1


def test_negative_fraction_lambda_needs_equals(capsys):
    """argparse reads '-1/3' as an option string, not a value; written
    --lambda=-1/3 it reaches the sign check."""
    with pytest.raises(SystemExit) as exc:
        main(with_option(FID, "--lambda", "-1/3"))
    assert exc.value.code == 2
    assert "--lambda: expected one argument" in capsys.readouterr().err
    argv = [a for a in FID if a not in ("--lambda", "1/2")] + ["--lambda=-1/3"]
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (1, "", "error: degradation coefficient -1/3 is negative\n")


def test_fidelity_csv_into_missing_directory(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run(capsys, FID + ["--csv", str(target)])
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["verify-pauli", "--p", "2", "--n", "0"],
    ["verify-pauli", "--p", "2", "--n", "-1"],
    ["verify-pauli", "--p", "3", "--n", "2", "--samples", "0"],
    ["verify-pauli", "--p", "3", "--n", "2", "--sets", "-1"],
    ["print-field", "--order", "6"],
    ["analyze", "--no-distance", "--budget", "-5", "x.code"],
    ["mindist", "--budget", "abc", "x.code"],
    ["verify-pauli", "--p", "2", "--n", "1", "--seed", "-1"],
], ids=["n-zero", "n-negative", "no-samples", "negative-sets", "order-6", "negative-budget", "text-budget",
        "negative-seed"])
def test_bad_arguments_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.splitlines()[-1].startswith("eaqecne ")


# each command with its required arguments, so that anything after them is
# left over for the top-level parser to report
REQUIRED = {
    "analyze": ["f.code"], "decompose": ["f.code"], "mindist": ["f.code"],
    "combine": ["G.mat", "G2.mat", "E.mat"],
    "match": ["--q", "2", "--alice", "8,1,5,1", "--bob", "5,1,3"],
    "tables": [], "fidelity": FID[1:],
    "verify-pauli": ["--p", "2", "--n", "1"], "print-field": [],
}

PARITY = [
    ["-h"], ["--help"], ["-h", "analyze"], ["--", "analyze"], [],
    ["analyse", "f.code"],
    *([name, "-h"] for name in REQUIRED),
    *([name, *args, "extra"] for name, args in REQUIRED.items()),
    # one bad typed value for each command that has one
    ["analyze", "f.code", "--budget", "-1"], ["mindist", "f.code", "--budget", "x"],
    ["combine", "G.mat", "G2.mat", "E.mat", "--budget", "x"],
    ["match", "--q", "6", "--alice", "8,1,5,1", "--bob", "5,1,3"],
    ["verify-pauli", "--p", "2", "--n", "0"], ["print-field", "--order", "6"],
]


def full_build(argv):
    """The oracle: every command's parser, then the handler, as ``main``
    runs them."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EaqecneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def outcome(capsys, call, argv):
    try:
        rc = call(argv)
    except SystemExit as exc:
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("columns", [40, 80, 200])
@pytest.mark.parametrize("argv", PARITY, ids=lambda a: " ".join(a) or "none")
def test_main_reads_as_the_full_parser(capsys, monkeypatch, argv, columns):
    """``main`` builds only the parser of the command it runs; exit code,
    stdout and stderr are those of the parser of every command, help and
    usage errors included, at any terminal width."""
    monkeypatch.setenv("COLUMNS", str(columns))
    expected = outcome(capsys, full_build, argv)
    assert outcome(capsys, main, argv) == expected
    assert expected[0] in (0, 2)


def test_a_named_command_builds_that_parser_alone(capsys):
    argv = ["match", *REQUIRED["match"]]
    assert build_parser(argv).parse_args(argv).q == 2
    for argv in (["analyze", "f.code"], ["fidelity", "-h"]):
        with pytest.raises(SystemExit):
            build_parser(argv).parse_args(["tables"])
    for argv in ([], ["-h"], ["--"], ["analyse"]):
        assert build_parser(argv).parse_args(["tables"]).command == "tables"


def test_full_build_names_the_command_argument(capsys):
    """The oracle itself: its missing- and invalid-choice errors call the
    argument "command" and list every command name."""
    assert outcome(capsys, main, [])[2].endswith(
        "error: the following arguments are required: command\n")
    err = outcome(capsys, main, ["analyse"])[2]
    assert "error: argument command: invalid choice: 'analyse'" in err
    assert all(f"'{name}'" in err for name in REQUIRED)
