import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import evenzeta
from evenzeta.bounds import (
    AK_MAX,
    ALL_MAX_K,
    ALL_MIN_MAX_K,
    BASIS_COEFFICIENTS_MAX,
    BERNOULLI_APPROX_MAX,
    BERNOULLI_CLASSICAL_MAX,
    BERNOULLI_EVEN_MAX,
    BERNOULLI_MAX,
    DOUBLE_FACTORIAL_PRODUCT_MAX,
    ELEMENTARY_ZETA_MAX,
    ENUMERATION_MAX,
    PK_MAX,
    RECURSION_MAX,
    SEQUENCE_DIGITS_MAX,
    SUITE_BOUNDS,
    TRANSFORM_MAX,
    TREE_SUM_MAX,
    TREES_LIST_MAX,
    ZETA_EVEN_MAX,
)
from evenzeta.cli import main, read_sequence_file
from evenzeta.rationals import ConsistencyError
from evenzeta.trees import generalized_transform
from evenzeta.verify import run_suite
from evenzeta.zeta import zeta_even_rational

PUBLISHED_SEQUENCE = [
    "1",
    "1",
    "10",
    "945",
    "992250",
    "13575766050",
    "2787683360962500",
    "9732664704199465153125",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def help_text(capsys, command):
    """`COMMAND --help` with its whitespace collapsed: argparse wraps at the terminal width."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return " ".join(capsys.readouterr().out.split())


def test_ak_text(capsys):
    code, out, _ = run(capsys, "ak", "--max", "8")
    assert code == 0
    assert out.splitlines() == PUBLISHED_SEQUENCE


def test_ak_max_k_alias(capsys):
    code, out, _ = run(capsys, "ak", "--max-k", "3")
    assert code == 0
    assert out.splitlines() == ["1", "1", "10"]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("k", ["3", "0"])
def test_format_before_or_after_the_command(capsys, fmt, k):
    before = run(capsys, "--format", fmt, "ak", "--max", k)
    assert before == run(capsys, "ak", "--max", k, "--format", fmt)
    code, out, err = before
    if fmt == "json":
        record = json.loads(out)
        assert (code, record["status"]) == ((0, "ok") if k == "3" else (2, "error"))
        assert record["result"] == ({"values": ["1", "1", "10"]} if k == "3" else {})
    elif k == "3":
        assert (code, out.splitlines(), err) == (0, ["1", "1", "10"], "")
    else:
        assert (code, out, err) == (2, "", f"error: --max must be within 1..{AK_MAX}\n")


def test_pk_half_scale(capsys):
    code, out, _ = run(capsys, "pk", "--k", "4", "--translated", "--half-scale")
    assert code == 0
    assert out.strip() == "465 + 130*x + 10*x^2"


def test_pk_half_scale_requires_translated(capsys):
    code, _, err = run(capsys, "pk", "--k", "4", "--half-scale")
    assert code == 2
    assert "--translated" in err


def test_zeta_even(capsys):
    code, out, _ = run(capsys, "zeta-even", "--k", "3")
    assert code == 0
    assert out.strip() == "1/945 * pi^6"


def test_zeta_even_approx(capsys):
    code, out, _ = run(capsys, "zeta-even", "--k", "1", "--approx")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1/6 * pi^2"
    assert lines[1].startswith("~= 1.644934")


def machin_pi(digits):
    """pi within 10^-digits, by Machin's formula on ints: 16 atan(1/5) - 4 atan(1/239)."""
    one = 10 ** (digits + 10)

    def atan_inverse(x):
        total = term = one // x
        n, sign = 1, 1
        while term:
            term //= x * x
            n, sign = n + 2, -sign
            total += sign * (term // n)
        return total

    return Fraction(16 * atan_inverse(5) - 4 * atan_inverse(239), one)


def test_zeta_even_approx_rounds_the_exact_value_once(capsys):
    # float(pi) ** (2k) carried pi's rounding error 2k times: --k 40 printed
    # 0.9999999999999969, though zeta(2k) > 1
    pi_ref = machin_pi(150)
    pi_power = Fraction(1)  # pi_ref^(2k)
    for k in range(1, ZETA_EVEN_MAX + 1):
        pi_power *= pi_ref**2
        code, out, _ = run(capsys, "zeta-even", "--k", str(k), "--approx")
        expected = float(zeta_even_rational(k) * pi_power)
        assert (code, out.splitlines()[1]) == (0, f"~= {expected}") and expected >= 1, k


@pytest.mark.parametrize(
    "k,method,expected",
    [
        (1, "classical", "1/6"),
        (2, "recursion", "-1/30"),
        (5, "tree", "5/66"),
        (1, "tree", "1/6"),
    ],
)
def test_bernoulli_methods(capsys, k, method, expected):
    code, out, _ = run(capsys, "bernoulli", "--k", str(k), "--method", method)
    assert code == 0
    assert out.strip() == expected


@pytest.mark.parametrize(
    "argv,bound",
    [
        (["ak", "--max"], AK_MAX),
        (["pk", "--k"], PK_MAX),
        (["zeta-even", "--k"], ZETA_EVEN_MAX),
        (["bernoulli", "--method", "recursion", "--k"], BERNOULLI_MAX["recursion"]),
        (["bernoulli", "--method", "classical", "--k"], BERNOULLI_MAX["classical"]),
        (["bernoulli", "--method", "tree", "--k"], BERNOULLI_MAX["tree"]),
        (["transform", "--k"], TRANSFORM_MAX),
    ],
)
def test_k_past_command_bound_is_rejected(capsys, argv, bound):
    assert bound >= 120
    code, out, _ = run(capsys, *argv, str(bound + 1), "--format", "json")
    assert code == 2
    record = json.loads(out)
    assert record["status"] == "error"
    assert f"1..{bound}" in record["error_detail"]
    assert f"1..{bound}" in help_text(capsys, argv[0])


@pytest.mark.parametrize("k,code", [(129, 0), (130, 2)])
def test_bernoulli_approx_bound(capsys, k, code):
    # |B_260| is past the largest float, so --approx stops short of every method's bound
    assert BERNOULLI_APPROX_MAX == 129
    argv = ["bernoulli", "--k", str(k), "--method", "classical", "--approx"]
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 0:
        value, approx = out.splitlines()
        assert approx == f"~= {float(Fraction(value))}"
        return
    assert err == "error: --k must be within 1..129 with --approx\n"
    got, out, _ = run(capsys, *argv, "--format", "json")
    assert got == 2
    assert json.loads(out)["error_detail"] == "--k must be within 1..129 with --approx"
    assert "approximation, for k within 1..129" in help_text(capsys, "bernoulli")


@pytest.mark.parametrize("error", [ConsistencyError])
def test_internal_error_exits_three(capsys, monkeypatch, error):
    def broken(k):
        raise error("forced fault")

    # the CLI reads each route name through the package
    monkeypatch.setattr(evenzeta, "zeta_even_rational", broken)
    code, out, _ = run(capsys, "zeta-even", "--k", "3", "--format", "json")
    assert code == 3
    record = json.loads(out)
    assert record["command"] == "zeta-even"
    assert record["status"] == "error"
    assert record["error_detail"] == f"internal error: {error.__name__}: forced fault"
    code, out, err = run(capsys, "zeta-even", "--k", "3")
    assert code == 3
    assert out == ""
    assert err == f"error: internal error: {error.__name__}: forced fault\n"


def test_trees_listing(capsys):
    code, out, _ = run(capsys, "trees", "--k", "3", "--list")
    assert code == 0
    assert out.splitlines() == [
        "levels=1,1 low={3} high={} wt=1",
        "levels=1,2 low={} high={5} wt=5",
    ]


def test_trees_count(capsys):
    code, out, _ = run(capsys, "trees", "--k", "10")
    assert code == 0
    assert out.strip() == "4862"


def test_transform_default(capsys):
    code, out, _ = run(capsys, "transform", "--k", "3")
    assert code == 0
    assert out.strip() == "2/945"


def test_transform_sequence_file(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\n1\n1\n", encoding="utf-8")
    code, out, _ = run(capsys, "transform", "--k", "3", "--sequence", str(path))
    assert code == 0
    assert out.strip() == "2"
    # a leading byte-order mark is no part of line 1
    path.write_text("\ufeff1\n1\n1\n", encoding="utf-8")
    assert run(capsys, "transform", "--k", "3", "--sequence", str(path)) == (0, "2\n", "")


def test_transform_refuses_a_sequence_file_past_its_bounds(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\n" * (TRANSFORM_MAX + 1), encoding="utf-8")
    code, _, err = run(capsys, "transform", "--k", "1", "--sequence", str(path))
    assert code == 2
    assert err == f"error: {path}:{TRANSFORM_MAX + 1}: more than {TRANSFORM_MAX} values\n"
    path.write_text(f"1\n2/{10 ** SEQUENCE_DIGITS_MAX + 1}\n", encoding="utf-8")
    code, _, err = run(capsys, "transform", "--k", "1", "--sequence", str(path))
    assert code == 2
    assert err == (
        f"error: {path}:2: more than {SEQUENCE_DIGITS_MAX} digits in a numerator or denominator\n"
    )
    assert f"at most {TRANSFORM_MAX} lines of at most {SEQUENCE_DIGITS_MAX}-digit" in help_text(
        capsys, "transform"
    )


def test_transform_bad_sequence_file_names_line(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\noops\n", encoding="utf-8")
    code, _, err = run(capsys, "transform", "--k", "2", "--sequence", str(path))
    assert code == 2
    assert "seq.txt:2" in err


def test_read_sequence_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3\n5\n7\n9\n", encoding="utf-8")
    seq = read_sequence_file(str(path))
    assert seq.values_upto(4) == (3, 5, 7, 9)
    assert generalized_transform(3, seq) == generalized_transform(3)

    bad = tmp_path / "bad.txt"
    bad.write_text("3\nfive\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_sequence_file(str(bad))

    zero = tmp_path / "zero.txt"
    zero.write_text("3\n0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="zero.txt:2"):
        read_sequence_file(str(zero))

    # a full-width digit is not canonical base-10 text, and its line is named
    wide = tmp_path / "wide.txt"
    wide.write_text("3\n\uff15\n", encoding="utf-8")
    with pytest.raises(ValueError, match="wide.txt:2: not a rational literal"):
        read_sequence_file(str(wide))

    # a leading byte-order mark is no part of line 1
    bom = tmp_path / "bom.txt"
    bom.write_text("\ufeff3\n5\n7\n", encoding="utf-8")
    assert read_sequence_file(str(bom)) == (3, 5, 7)

    # text that is not UTF-8 is refused by the file's path
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"3\n5\xff\n")
    with pytest.raises(ValueError, match=r"^.*latin\.txt: not UTF-8 text$"):
        read_sequence_file(str(latin))

    blank = tmp_path / "blank.txt"
    blank.write_text("3\n\n5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"blank\.txt:2: blank line in sequence file$"):
        read_sequence_file(str(blank))

    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match=r"empty\.txt: empty sequence file$"):
        read_sequence_file(str(empty))


class CountingFile:
    """A file that records each line it hands out."""

    def __init__(self, fh, lines):
        self.fh, self.lines = fh, lines

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def readline(self, limit=-1):
        line = self.fh.readline(limit)
        self.lines.append(line)
        return line


def test_sequence_file_bounds(tmp_path, monkeypatch):
    d = SEQUENCE_DIGITS_MAX
    widest = f"-{'9' * d}/{'7' * d}"  # the longest line a value within the bound needs
    path = tmp_path / "seq.txt"
    path.write_text(f"{widest}\n" * TRANSFORM_MAX, encoding="utf-8")
    assert read_sequence_file(str(path)) == (Fraction(widest),) * TRANSFORM_MAX

    for line in (f"1{'0' * d}", f"1/1{'0' * d}", f"{'0' * d}1/{'0' * d}2"):
        path.write_text(f"3\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"seq\.txt:2: (more than {d} digits|line longer)"):
            read_sequence_file(str(path))

    # reading stops at the bound: one line past the count, a bounded slice of a long line
    lines = []
    monkeypatch.setattr(
        evenzeta.cli, "open", lambda *a, **kw: CountingFile(open(*a, **kw), lines), raising=False
    )
    path.write_text("3\n" * (TRANSFORM_MAX + 1000), encoding="utf-8")
    past = rf"seq\.txt:{TRANSFORM_MAX + 1}: more than {TRANSFORM_MAX} values$"
    with pytest.raises(ValueError, match=past):
        read_sequence_file(str(path))
    assert len(lines) == TRANSFORM_MAX + 1

    lines.clear()
    path.write_text("3\n" + "1" * 10**6 + "\n", encoding="utf-8")
    longer = rf"seq\.txt:2: line longer than {len(widest)} characters, the longest value"
    with pytest.raises(ValueError, match=longer):
        read_sequence_file(str(path))
    assert len(lines) == 2 and len(lines[1]) == len(widest) + 1


def test_json_output_shape_and_determinism(capsys):
    code, out1, _ = run(capsys, "zeta-even", "--k", "4", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "zeta-even", "--k", "4", "--format", "json")
    assert out1 == out2
    record = json.loads(out1)
    assert record["command"] == "zeta-even"
    assert record["inputs"] == {"k": 4}
    assert record["status"] == "ok"
    assert record["error_detail"] is None
    assert record["result"]["coefficient"] == "1/9450"
    assert record["result"]["pi_power"] == 8


def test_ak_past_int_str_digit_limit(capsys):
    code, out, _ = run(capsys, "ak", "--max", "75", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["result"]["values"][-1]) == 4424


def test_main_restores_int_str_digit_limit(capsys):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        code, out, _ = run(capsys, "ak", "--max", "75")
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0
    assert len(out.splitlines()[-1]) == 4424


def test_json_error_record(capsys):
    code, out, _ = run(capsys, "zeta-even", "--k", "0", "--format", "json")
    assert code == 2
    record = json.loads(out)
    assert record["status"] == "error"
    assert record["error_detail"]


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bernoulli", "--max-k", "20")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("20/20 passed")


def test_verify_json_deterministic(capsys):
    code, out1, _ = run(capsys, "verify", "--suite", "newton-girard", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "--suite", "newton-girard", "--format", "json")
    assert out1 == out2
    record = json.loads(out1)
    assert record["result"]["passed"] is True


def test_verify_failure_exits_one(capsys, monkeypatch):
    from evenzeta import verify as verify_mod

    def fake_run_suite(name, max_k=None):
        check = {"name": "forced failure", "passed": False, "witness": {"got": "0"}}
        return [{"suite": name, "max_k": 1, "passed": False, "checks": [check]}]

    monkeypatch.setattr(verify_mod, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, "verify", "--suite", "bernoulli")
    assert code == 1
    assert "FAIL forced failure" in out


def test_failing_trial_record(capsys, monkeypatch):
    from evenzeta import verify

    real = evenzeta.newton_girard_check
    calls = []  # k of each call, in order
    failed = {}  # index of the one failing call, and its witness

    def wrong_once(vars, k):
        lhs, rhs = real(vars, k)
        calls.append(k)
        if k == 2 and not failed:
            lhs += 1
            failed.update(at=len(calls) - 1, witness={"got": str(lhs), "expected": str(rhs)})
        return lhs, rhs

    monkeypatch.setattr(evenzeta, "newton_girard_check", wrong_once)
    [report] = verify.run_suite("newton-girard")
    at = failed["at"]
    trial = calls[: at + 1].count(1) - 1  # every trial starts at k=1
    assert calls[at + 1] == 1  # the failing trial stopped at k=2
    failure = {"name": f"newton-girard trial {trial} k=2", "passed": False, "witness": failed["witness"]}
    passes = [{"name": f"newton-girard trial {t}", "passed": True} for t in range(50)]
    passes.append({"name": "newton-girard inverse squares N=12 k=5", "passed": True})
    assert report["checks"] == passes[:trial] + [failure] + passes[trial + 1 :]
    assert report["passed"] is False

    calls.clear()
    failed.clear()
    code, out, _ = run(capsys, "verify", "--suite", "newton-girard", "--format", "json")
    assert code == 1
    record = json.loads(out)
    assert record["result"] == {"passed": False, "suites": [report]}
    calls.clear()
    failed.clear()
    code, out, _ = run(capsys, "verify", "--suite", "newton-girard")
    assert code == 1
    assert f"FAIL newton-girard trial {trial} k=2: {failure['witness']}" in out.splitlines()
    assert out.splitlines()[-1] == "suite newton-girard (max_k=8): 50/51 passed"


def test_failing_check_record(capsys, monkeypatch):
    # a two-sided identity that fails at one k: its record carries both sides
    real = evenzeta.bernoulli_even
    monkeypatch.setattr(evenzeta, "bernoulli_even", lambda k: real(k) + 1 if k == 3 else real(k))
    code, out, _ = run(capsys, "verify", "--suite", "bernoulli", "--max-k", "4", "--format", "json")
    assert code == 1
    failure = {"name": "bernoulli k=3", "passed": False, "witness": {"got": "43/42", "expected": "1/42"}}
    checks = [
        {"name": "bernoulli k=1", "passed": True},
        {"name": "bernoulli k=2", "passed": True},
        failure,
        {"name": "bernoulli k=4", "passed": True},
    ]
    suite = {"suite": "bernoulli", "max_k": 4, "passed": False, "checks": checks}
    assert json.loads(out)["result"] == {"passed": False, "suites": [suite]}
    code, out, _ = run(capsys, "verify", "--suite", "bernoulli", "--max-k", "4")
    assert code == 1
    assert out.splitlines() == [
        "PASS bernoulli k=1",
        "PASS bernoulli k=2",
        "FAIL bernoulli k=3: {'got': '43/42', 'expected': '1/42'}",
        "PASS bernoulli k=4",
        "suite bernoulli (max_k=4): 3/4 passed",
    ]


def test_failing_positivity_record(capsys, monkeypatch):
    # the nonpositive entries of the primitive part, joined, are the got side;
    # none is expected.  bad is 1/2 * (-1 + 6*x^2): its content is positive
    from evenzeta.polynomials import Polynomial

    real = evenzeta.translated_polynomial
    bad = Polynomial((Fraction(-1, 2), 0, 3))
    monkeypatch.setattr(evenzeta, "translated_polynomial", lambda k: bad if k == 2 else real(k))
    code, out, _ = run(capsys, "verify", "--suite", "positivity", "--max-k", "3", "--format", "json")
    assert code == 1
    [suite] = json.loads(out)["result"]["suites"]
    assert suite["checks"][1] == {
        "name": "translated positivity k=2",
        "passed": False,
        "witness": {"got": "-1, 0", "expected": ""},
    }
    assert [check["passed"] for check in suite["checks"]] == [True, False, True]
    code, out, _ = run(capsys, "verify", "--suite", "positivity", "--max-k", "3")
    assert code == 1
    assert "FAIL translated positivity k=2: {'got': '-1, 0', 'expected': ''}" in out.splitlines()


def test_run_suite_reports_a_witness_past_the_int_str_limit(monkeypatch):
    # outside the CLI the default int-to-str limit holds: a failed check
    # still carries both sides in full, and the limit is as it was after
    from evenzeta.text import no_int_str_limit

    real = evenzeta.zeta_numerator
    monkeypatch.setattr(evenzeta, "zeta_numerator", lambda k: real(k) + 1 if k == 200 else real(k))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        [report] = run_suite("leading", RECURSION_MAX)
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(saved)
    failed = [check for check in report["checks"] if not check["passed"]]
    assert report["passed"] is False
    assert [check["name"] for check in failed] == ["leading coefficient k=201"]
    poly = evenzeta.numerator_polynomial(201)
    with no_int_str_limit():
        got, expected = str(poly.content * poly.primitive[-1]), str((real(200) + 1) * 2**199)
    assert failed[0]["witness"] == {"got": got, "expected": expected}
    assert len(expected) > sys.int_info.default_max_str_digits


def test_verify_bad_bound(capsys):
    # a suite whose first check is at k = 2 refuses --max-k 1 rather than
    # report 0/0 passed
    usage = help_text(capsys, "verify")
    for name in ("trees", "coeffs", "leading", "bernoulli"):
        low, high = SUITE_BOUNDS[name]
        assert low == (1 if name == "bernoulli" else 2)
        assert f"{name} {low}..{high}," in usage
        for bad in (low - 1, high + 1):
            code, _, err = run(capsys, "verify", "--suite", name, "--max-k", str(bad))
            assert code == 2
            assert err == (
                f"error: suite '{name}' accepts max_k between {low} and {high}, got {bad}\n"
            )


def test_every_suite_checks_something_at_its_lower_bound():
    for name, (low, _) in SUITE_BOUNDS.items():
        [report] = run_suite(name, low)
        assert report["checks"] and report["passed"], name


def test_verify_all_bound(capsys):
    assert ALL_MIN_MAX_K == max(low for low, _ in SUITE_BOUNDS.values()) == 2
    for bad in (ALL_MIN_MAX_K - 1, ALL_MAX_K + 1):
        argv = ("verify", "--suite", "all", "--max-k", str(bad), "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == 2
        detail = json.loads(out)["error_detail"]
        assert detail == f"suite 'all' accepts max_k between 2 and {ALL_MAX_K}, got {bad}"
    assert f"all 2..{ALL_MAX_K}" in help_text(capsys, "verify")


@pytest.mark.parametrize("name", ["trees", "all"])
@pytest.mark.parametrize("bad", [True, 2.0])
def test_run_suite_refuses_a_non_int_max_k(name, bad):
    # at max_k=True the trees suite would make no check and pass
    with pytest.raises(TypeError, match=f"^max_k={bad!r} is not an int$"):
        run_suite(name, bad)


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; choose from \['all', "):
        run_suite("nope")


def test_format_without_a_value_is_a_usage_error(capsys):
    # the probe that looks for --format json cannot read it either, so the
    # error is argparse's own usage message
    with pytest.raises(SystemExit) as exc:
        main(["--format"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: evenzeta ")
    assert err.endswith("evenzeta: error: argument --format: expected one argument\n")


def test_command_bounds_nest_in_library_bounds():
    # a command or suite bound past the library bound of a function it calls
    # at that k would turn a valid call into exit code 3
    suite = {name: high for name, (_, high) in SUITE_BOUNDS.items()}
    # numerator_polynomial, zeta_numerator and zeta_even_rational
    assert max(AK_MAX, ZETA_EVEN_MAX, BERNOULLI_MAX["recursion"], suite["leading"]) <= RECURSION_MAX
    # and within the library: bernoulli_even -> zeta_even_rational -> double_factorial_product
    assert BERNOULLI_EVEN_MAX <= RECURSION_MAX <= DOUBLE_FACTORIAL_PRODUCT_MAX
    # basis_coefficients reads (2n+1)!! for n < k - 1 from double_factorial_odd
    assert BASIS_COEFFICIENTS_MAX <= DOUBLE_FACTORIAL_PRODUCT_MAX
    assert max(PK_MAX, suite["positivity"]) <= RECURSION_MAX  # translated_polynomial
    assert suite["coeffs"] <= min(BASIS_COEFFICIENTS_MAX, RECURSION_MAX)  # and numerator_polynomial
    # lemma-2ni checks the identity behind basis_coefficients' recurrence at every n it uses
    assert suite["lemma-2ni"] <= BASIS_COEFFICIENTS_MAX
    assert suite["fn"] <= ELEMENTARY_ZETA_MAX  # the Newton partial sums' k
    assert max(BERNOULLI_MAX["recursion"], suite["bernoulli"]) <= BERNOULLI_EVEN_MAX
    assert 2 * max(BERNOULLI_MAX["classical"], suite["bernoulli"]) <= BERNOULLI_CLASSICAL_MAX
    assert BERNOULLI_MAX["tree"] <= min(TRANSFORM_MAX, ELEMENTARY_ZETA_MAX)  # bernoulli_from_zeta
    assert suite["trees"] <= TREE_SUM_MAX <= TRANSFORM_MAX
    assert TREES_LIST_MAX <= ENUMERATION_MAX <= TRANSFORM_MAX  # catalan(k - 1)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bernoulli"])  # missing required --k
    assert exc.value.code == 2


def test_usage_error_json_record(capsys):
    code, out, _ = run(capsys, "zeta-even", "--format", "json")  # missing --k
    assert code == 2
    record = json.loads(out)
    assert record["command"] == "zeta-even"
    assert record["status"] == "error"
    assert "--k" in record["error_detail"]


def test_trees_bound(capsys):
    code, _, err = run(capsys, "trees", "--k", "40")
    assert code == 2
    assert f"1..{ENUMERATION_MAX}" in err
    assert f"1..{ENUMERATION_MAX}" in help_text(capsys, "trees")


def test_trees_list_bound(capsys):
    # the listing holds every tree's record, so it stops short of the count's bound
    code, _, err = run(capsys, "trees", "--k", str(TREES_LIST_MAX + 1), "--list")
    assert code == 2
    assert f"1..{TREES_LIST_MAX} with --list" in err
    assert f"1..{TREES_LIST_MAX} with --list" in help_text(capsys, "trees")


# signed rationals with denominators up to 1000, read from the working directory
SIGNED_RATIONALS = [
    "-3/7", "5", "911/997", "-2", "13/4", "-101/999", "7/2",
    "-1", "640/873", "9", "-17/12", "1/1000", "-250/3",
]

# sha256 of the stdout in each format, by command.  The JSON digests were pinned
# from the output of the code before Polynomial stored integral coefficients as
# int, and before rational transforms ran on an integer fold; the text digests
# from the code before each command returned its result and text lines; the
# untranslated and translated `pk --k 120` pairs from the code before
# Polynomial held its content and primitive part; the `zeta-even --k 40
# --approx` pair from the code that first rounded the exact value once (the
# older pair pinned 0.9999999999999969, from float(pi) ** 80)
GOLDEN_SHA256 = {
    "json": {
        "pk --k 30": "e2b99daf8e3dc1d9a6be40d95bde5ca649ab9d1adafee1c0cc9756615c7be908",
        "pk --k 30 --translated --half-scale": (
            "9c4b0f232d1ce5dc932491e7349c9d4160be550eaa238168885c0920e98919bb"
        ),
        "ak --max 60": "d4e23af013ce602be2d0607d82b793963b6ddc159141c2e5e89c1284843088b7",
        "ak --max 150": "4be3b7af36f45b520da16079200b9713dad1d358ddaa8d7e76c13c6680c45818",
        "pk --k 120 --translated --half-scale": (
            "19a85bcc81ba4632a6c442e42f649c93c3fa693a72958ae507239b4bd2500b99"
        ),
        "pk --k 120": "c0ca1a4c70063de2a63c66e7ef9c240f85f5bd68e866768eb933de18572dd2a1",
        "pk --k 120 --translated": (
            "c2c3c69e34d75afdfd8e339612a0248af8f6a55e324aaad2070995df7e7f526d"
        ),
        "transform --k 13": "5f4ca2438fa3dc56e71362ef3e6a4037dbbf1227b90b1b1b662bf8030b891ad7",
        "bernoulli --k 15 --method tree": (
            "abdde435615b3e08a39e25e7d5b133f4d694c6e3eb22a81ae7b7f9db4b5c7a1e"
        ),
        "verify --suite all": "24c5c1ebb9400f62f7d2a665a8ac79c39f3412e613fec4ca4cf69ee09f6bcc1c",
        "verify --suite lemma-2ni --max-k 280": (
            "22b388870737066175b18dec2ce2fbff5650c258472d03886ad9222695928711"
        ),
        "verify --suite coeffs --max-k 120": (
            "7ec1c2bb968e3993ca83bf17d59db27dd6c595e32ada66d7f06c76a559b40513"
        ),
        "transform --k 13 --sequence signed.txt": (
            "c0064b0408a49dfe24152a6725c348912d13f5541209d11d1fe19a502984ea72"
        ),
        "zeta-even --k 40 --approx": (
            "e5942951f4daf9cc492aef62a8cf6be54e6d4229b7667b0ebd1ffd9ba787034f"
        ),
        "trees --k 9 --list": "ae4c43c12287758c297ecc976e93b6233f50a46b66e38ca414dc6f280d949d46",
    },
    "text": {
        "pk --k 30": "790e653bc199508d7c6ee8417745a506eed9bb66d1275354e1378e3445d8ab5f",
        "pk --k 30 --translated --half-scale": (
            "328ebe00ee003ea8db1a4310a73d8b3729a494cd1a823d8daafa9915dc1f7574"
        ),
        "ak --max 60": "02aa59d150081455c45253dd8fa0c74c84667b590aee6a1a89ba024bdae5bf96",
        "ak --max 150": "ffdc05f0be0a61ac77a25b837d9121c0592b226f92375d29312cc1c9a297adb0",
        "pk --k 120 --translated --half-scale": (
            "d8f75274ae26ed054c4a8f762232f5f65d65bda0fecc48e3d8286b0558dcf2a6"
        ),
        "pk --k 120": "e3fe877695927394aa0f6afc2f1255531d623a8440bd66a91f8c7a9d81295e11",
        "pk --k 120 --translated": (
            "66a17c0f52bc9b1ba40ea1bc5f9ee31a749aaf4b6450fe2c704fe2de8732d107"
        ),
        "transform --k 13": "6706619d7eaaf08c365ef8ddc42c271fae016d2e5517f960fa575b1ec8d5bfea",
        "bernoulli --k 15 --method tree": (
            "14976c1c6cf38890e60dda0bd160c8ddd4d12219696188392eb87aaf21c270bd"
        ),
        "verify --suite all": "692c3a4cc0b5ae61854dae2b6499e02eaabfcb52d82068b9bccf75137d50f079",
        "transform --k 13 --sequence signed.txt": (
            "1dc15597aefe4a7c271f1cb270435c3bc380dba539217a8e623105ba2fa05729"
        ),
        "zeta-even --k 40 --approx": (
            "016872485ef95ff7712ac935c6ba481a411abec20a9807576bca09a17b061622"
        ),
        "trees --k 9 --list": "3962f54200b31d62b6acb16010b2a40e2a5d7084d21877cf87c7508221523d65",
    },
}


# a JSON case's id is the command alone, a text case's the command with --format text
@pytest.mark.parametrize(
    "command,fmt",
    [
        pytest.param(command, fmt, id=command if fmt == "json" else f"{command} --format text")
        for fmt, digests in GOLDEN_SHA256.items()
        for command in digests
    ],
)
def test_json_output_matches_golden_digest(capsys, monkeypatch, tmp_path, command, fmt):
    (tmp_path / "signed.txt").write_text("\n".join(SIGNED_RATIONALS) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *command.split(), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[fmt][command]


# sha256 of the full help at 80 columns, by argv; pinned from the code before
# the parser read its bounds from `bounds` alone
HELP_SHA256 = {
    "--help": "ddb44e31eb5ff54417d17108e1c44289972cad318ea709ffe0e6bddbb062ad7e",
    "bernoulli --help": "84a3aec650f16d3d4c4059f66c2f8e9a1d613cd60240d0b001198b3d287f6445",
    "ak --help": "ae6d4967c6964614fababb752aa6b8596a795b074823f7c1d3bfd614e59a58aa",
    "pk --help": "4f04060bff15cbff927d4a9208bda00b17264430ad5c483434a1ae5680649857",
    "zeta-even --help": "0b2ebe4a4d154174bbc91aacf9f09ca4e1c279532b03c1a08edf7b8bf453aeaf",
    "trees --help": "f619fe8c9eb4d3c94516a2544f3031f6d96d7da52431e1de2ab2e120f12f93f1",
    "transform --help": "979ce227e185cfdee0d307e0edb9ab84865a4745acb1a06ada0feeff597ba1bb",
    "verify --help": "eeabd74d7a0e3ba060fd2d26e3f72ff2f7dca925d76f2def2e0a4c66e11ccbfd",
}


@pytest.mark.parametrize("argv", list(HELP_SHA256))
def test_help_matches_golden_digest(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_SHA256[argv]


# every refusal a command makes, with the inputs and error_detail of its record;
# pinned from the output of the code before each command returned its result
# and text lines
REFUSALS = {
    "ak --max 241": ({"max": 241}, "--max must be within 1..240"),
    "pk --k 181": (
        {"k": 181, "translated": False, "half_scale": False}, "--k must be within 1..180"
    ),
    "pk --k 4 --half-scale": (
        {"k": 4, "translated": False, "half_scale": True}, "--half-scale requires --translated"
    ),
    "zeta-even --k 261": ({"k": 261}, "--k must be within 1..260"),
    "bernoulli --k 261": (
        {"k": 261, "method": "recursion"}, "--k must be within 1..260 for --method recursion"
    ),
    "bernoulli --k 351 --method classical": (
        {"k": 351, "method": "classical"}, "--k must be within 1..350 for --method classical"
    ),
    "bernoulli --k 241 --method tree": (
        {"k": 241, "method": "tree"}, "--k must be within 1..240 for --method tree"
    ),
    "bernoulli --k 130 --approx": (
        {"k": 130, "method": "recursion"}, "--k must be within 1..129 with --approx"
    ),
    "trees --k 17": ({"k": 17, "list": False}, "--k must be within 1..16"),
    "trees --k 12 --list": ({"k": 12, "list": True}, "--k must be within 1..11 with --list"),
    "transform --k 241": ({"k": 241, "sequence": None}, "--k must be within 1..240"),
    "transform --k 3 --sequence missing.txt": (
        {"k": 3, "sequence": "missing.txt"},
        "[Errno 2] No such file or directory: 'missing.txt'",
    ),
    "transform --k 3 --sequence bad.txt": (
        {"k": 3, "sequence": "bad.txt"}, "bad.txt:2: not a rational literal: 'oops'"
    ),
    "transform --k 5 --sequence short.txt": (
        {"k": 5, "sequence": "short.txt"}, "sequence supplies only 3 values; position 4 needed"
    ),
    "transform --k 2 --sequence latin1.txt": (
        {"k": 2, "sequence": "latin1.txt"}, "latin1.txt: not UTF-8 text"
    ),
    "verify --suite all --max-k 161": (
        {"suite": "all", "max_k": 161}, "suite 'all' accepts max_k between 2 and 160, got 161"
    ),
    "verify --suite trees --max-k 201": (
        {"suite": "trees", "max_k": 201},
        "suite 'trees' accepts max_k between 2 and 200, got 201",
    ),
}


@pytest.mark.parametrize("command", list(REFUSALS))
def test_refusal_record(capsys, monkeypatch, tmp_path, command):
    (tmp_path / "bad.txt").write_text("1\noops\n", encoding="utf-8")
    (tmp_path / "short.txt").write_text("1\n1\n1\n", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("1\n\xbd\n".encode("latin-1"))
    monkeypatch.chdir(tmp_path)
    inputs, detail = REFUSALS[command]
    record = {
        "command": command.split()[0],
        "inputs": inputs,
        "result": {},
        "status": "error",
        "error_detail": detail,
    }
    assert run(capsys, *command.split(), "--format", "json") == (
        2, json.dumps(record, indent=2) + "\n", ""
    )
    assert run(capsys, *command.split()) == (2, "", f"error: {detail}\n")


def test_module_entry_point_passes_exit_codes():
    # every other test calls main() in process; this one runs `python -m evenzeta`
    src = str(Path(evenzeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_module(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "evenzeta", *argv], capture_output=True, text=True, env=env
        )
        return proc.returncode, proc.stdout, proc.stderr

    assert run_module("ak", "--max", "3") == (0, "1\n1\n10\n", "")
    assert run_module("zeta-even", "--k", "0") == (2, "", "error: --k must be within 1..260\n")
    code, out, err = run_module("bernoulli")  # missing required --k
    assert (code, out) == (2, "")
    assert err.startswith("usage: evenzeta bernoulli ")
    assert err.endswith("evenzeta bernoulli: error: the following arguments are required: --k\n")
