"""Command-line interface.

Commands emit either human-oriented text (default) or a machine-readable
JSON record with the fields command / inputs / result / status /
error_detail.  All numbers are exact: rationals use the canonical "num/den"
text form and integers are decimal strings in JSON.  Exit codes: 0 success,
1 verification failure, 2 usage or input error (k past a command's bound
included), 3 internal error (an unexpected exception, reported as the same
error record instead of a traceback).

Each command returns its JSON result and its text lines, or raises _Refusal
for an input it refuses; _run alone prints one of the two forms and chooses
the exit code.

The parser reads every bound from `bounds`, and each command reads the
route names it calls from the package when it runs, so `import evenzeta.cli`
loads only bounds and text, and a process loads only the routes its command
runs: the package's table decides which module each name loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

import evenzeta as ez

from .bounds import (
    AK_MAX, ALL_MAX_K, ALL_MIN_MAX_K, BERNOULLI_APPROX_MAX, BERNOULLI_MAX, PK_MAX,
    SEQUENCE_DIGITS_MAX, SUITE_BOUNDS, TRANSFORM_MAX, TREES_LIST_MAX, ZETA_EVEN_MAX,
)
from .text import no_int_str_limit, parse_rational, polynomial_text

__all__ = ["main"]

# pi to 80 decimals, exactly: --approx rounds zeta(2k) = coefficient * pi^(2k)
# to a float once, where float(pi) ** (2k) carries pi's rounding error 2k times
_PI = Fraction(
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899"
)


class _Refusal(Exception):
    """An input that a command refuses: exit code 2, the message as error_detail."""


def _within(value: int, bound: int, option: str = "--k", qualifier: str = "") -> None:
    if not 1 <= value <= bound:
        raise _Refusal(f"{option} must be within 1..{bound}{qualifier}")


def _print_record(command: str, inputs: dict, result: dict, error: Optional[str] = None) -> None:
    """Print the JSON record: command / inputs / result / status / error_detail."""
    record = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "status": "ok" if error is None else "error",
        "error_detail": error,
    }
    print(json.dumps(record, indent=2))


def _fail(args, inputs: dict, message: str, code: int) -> int:
    if args.format == "json":
        _print_record(args.command, inputs, {}, message)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_bernoulli(args):
    _within(args.k, BERNOULLI_MAX[args.method], qualifier=f" for --method {args.method}")
    if args.approx:
        _within(args.k, BERNOULLI_APPROX_MAX, qualifier=" with --approx")
    if args.method == "classical":
        value = ez.bernoulli_classical(2 * args.k)
    elif args.method == "tree":
        # the odd-sequence transform is 2*zeta(2k)/pi^(2k)
        value = ez.bernoulli_from_zeta(args.k, ez.generalized_transform(args.k) / 2)
    else:
        value = ez.bernoulli_even(args.k)
    result = {"value": str(value)}
    lines = [result["value"]]
    if args.approx:
        result["approx"] = float(value)
        lines.append(f"~= {result['approx']}")
    return result, lines


def _cmd_ak(args):
    _within(args.max, AK_MAX, option="--max")
    values = [str(ez.zeta_numerator(k)) for k in range(1, args.max + 1)]
    return {"values": values}, values


def _cmd_pk(args):
    _within(args.k, PK_MAX)
    if args.half_scale and not args.translated:
        raise _Refusal("--half-scale requires --translated")
    if args.translated:
        poly = ez.translated_polynomial(args.k, half_scale=args.half_scale)
    else:
        poly = ez.numerator_polynomial(args.k)
    # decimal conversion of the coefficients dominates at large k: do it once
    strings = poly.coefficient_strings()
    text = polynomial_text(strings)
    return {"coefficients": strings, "text": text}, [text]


def _cmd_zeta_even(args):
    _within(args.k, ZETA_EVEN_MAX)
    coeff = ez.zeta_even_rational(args.k)
    power = 2 * args.k
    text = f"{coeff} * pi^{power}"
    result = {"coefficient": str(coeff), "pi_power": power, "text": text}
    lines = [text]
    if args.approx:
        result["approx"] = float(coeff * _PI**power)
        lines.append(f"~= {result['approx']}")
    return result, lines


def _tree_rows(k: int):
    """Each k-vertex tree with its low and high values and its weight, as text."""
    for tree in ez.enumerate_trees(k):
        data = ez.tree_data(tree)
        low = [str(ez.ODD_NUMBERS[n - 1]) for n in data.low]
        high = [str(ez.ODD_NUMBERS[n - 1]) for n in data.high]
        yield tree, low, high, str(data.weight)


def _cmd_trees(args):
    # the count is catalan's closed form, within its bound; the listing holds every tree's record
    if args.list:
        _within(args.k, TREES_LIST_MAX, qualifier=" with --list")
    else:
        _within(args.k, TRANSFORM_MAX)
    count = ez.catalan(args.k - 1)
    if not args.list:
        return {"count": count}, [str(count)]
    rows = list(_tree_rows(args.k))
    listing = [
        {"levels": list(tree.levels), "low": low, "high": high, "weight": weight}
        for tree, low, high, weight in rows
    ]
    lines = (
        f"levels={tree} low={{{','.join(low)}}} high={{{','.join(high)}}} wt={weight}"
        for tree, low, high, weight in rows
    )
    return {"count": count, "trees": listing}, lines


def read_sequence_file(path: str):
    """The SequenceSpec of a sequence file, one canonical rational per line.

    Line n supplies the value at position n.  Blank or malformed lines,
    zero values, values past SEQUENCE_DIGITS_MAX, lines longer than the
    longest such value and lines past TRANSFORM_MAX are rejected with
    the offending line number; reading stops at the first one.  The text is
    UTF-8, a leading byte-order mark is no part of line 1, and a file that
    is not UTF-8 is rejected by its path.
    """
    width = 2 * SEQUENCE_DIGITS_MAX + 2  # "-" + digits + "/" + digits
    values: list[Fraction] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            while line := fh.readline(width + 1):
                where = f"{path}:{len(values) + 1}"
                if len(values) == TRANSFORM_MAX:
                    raise ValueError(f"{where}: more than {TRANSFORM_MAX} values")
                if len(line.rstrip("\n")) > width:
                    raise ValueError(
                        f"{where}: line longer than {width} characters, the longest"
                        f" value of {SEQUENCE_DIGITS_MAX}-digit parts"
                    )
                text = line.strip()
                if not text:
                    raise ValueError(f"{where}: blank line in sequence file")
                try:
                    value = parse_rational(text)
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                if value == 0:
                    raise ValueError(f"{where}: sequence value must be nonzero")
                if max(abs(value.numerator), value.denominator) >= 10**SEQUENCE_DIGITS_MAX:
                    raise ValueError(
                        f"{where}: more than {SEQUENCE_DIGITS_MAX} digits"
                        " in a numerator or denominator"
                    )
                values.append(value)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text") from exc
    if not values:
        raise ValueError(f"{path}: empty sequence file")
    return ez.SequenceSpec(values)


def _cmd_transform(args):
    _within(args.k, TRANSFORM_MAX)
    try:
        seq = ez.ODD_NUMBERS
        if args.sequence is not None:
            seq = read_sequence_file(args.sequence)
        value = ez.generalized_transform(args.k, seq)
    except (OSError, ValueError) as exc:
        raise _Refusal(str(exc)) from exc
    return {"value": str(value)}, [str(value)]


def _verify_lines(reports):
    """Each check as a PASS or FAIL line, then each suite's count of passed checks."""
    for report in reports:
        checks = report["checks"]
        for check in checks:
            if check["passed"]:
                yield f"PASS {check['name']}"
            else:
                yield f"FAIL {check['name']}: {check['witness']}"
        done = sum(1 for check in checks if check["passed"])
        yield f"suite {report['suite']} (max_k={report['max_k']}): {done}/{len(checks)} passed"


def _cmd_verify(args):
    from . import verify
    try:
        reports = verify.run_suite(args.suite, args.max_k)
    except ValueError as exc:
        raise _Refusal(str(exc)) from exc
    passed = all(report["passed"] for report in reports)
    return {"passed": passed, "suites": reports}, _verify_lines(reports)


class _UsageError(Exception):
    def __init__(self, prog: str, message: str):
        super().__init__(message)
        self.command = prog.rsplit(" ", 1)[-1]


class _JsonErrorParser(argparse.ArgumentParser):
    """Raises usage errors for _run to print as a JSON error record."""

    def error(self, message):
        raise _UsageError(self.prog, message)


def _build_parser(json_errors: bool) -> argparse.ArgumentParser:
    parser_class = _JsonErrorParser if json_errors else argparse.ArgumentParser
    parser = parser_class(
        prog="evenzeta",
        description="Exact Bernoulli numbers and even zeta values, three independent ways.",
    )

    def add_format(p, default):
        p.add_argument("--format", choices=("text", "json"), default=default, help="output format")

    # --format before the command or after it; a command's own --format
    # sets no default, so that it leaves one given before the command alone
    add_format(parser, "text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run, *inputs):
        """The --format option, the command's function, and the options its record's inputs name."""
        add_format(p, argparse.SUPPRESS)
        p.set_defaults(run=run, inputs=inputs)

    p = sub.add_parser("bernoulli", help="Bernoulli number B_{2k}")
    p.add_argument(
        "--k", type=int, required=True,
        help=", ".join(f"1..{b} ({m})" for m, b in BERNOULLI_MAX.items()),
    )
    p.add_argument(
        "--method",
        choices=tuple(BERNOULLI_MAX),
        default="recursion",
        help="computation route (all agree)",
    )
    p.add_argument(
        "--approx", action="store_true",
        help=f"also print a float approximation, for k within 1..{BERNOULLI_APPROX_MAX}",
    )
    add_common(p, _cmd_bernoulli, "k", "method")

    p = sub.add_parser("ak", help="the integer numerators of 2*zeta(2k)/pi^(2k)")
    p.add_argument("--max", "--max-k", dest="max", metavar="MAX_K", type=int, required=True,
                   help=f"emit values for k = 1..MAX, MAX within 1..{AK_MAX}")
    add_common(p, _cmd_ak, "max")

    p = sub.add_parser("pk", help="the k-th recursion polynomial")
    p.add_argument("--k", type=int, required=True, help=f"1..{PK_MAX}")
    p.add_argument("--translated", action="store_true",
                   help="shift to x + k - 3/2 (all-positive coefficients)")
    p.add_argument("--half-scale", action="store_true",
                   help="additionally rescale x to x/2 (display form)")
    add_common(p, _cmd_pk, "k", "translated", "half_scale")

    p = sub.add_parser("zeta-even", help="zeta(2k) as an exact multiple of pi^(2k)")
    p.add_argument("--k", type=int, required=True, help=f"1..{ZETA_EVEN_MAX}")
    p.add_argument("--approx", action="store_true", help="also print a float approximation")
    add_common(p, _cmd_zeta_even, "k")

    p = sub.add_parser("trees", help="plane trees with their low/high/weight data")
    p.add_argument("--k", type=int, required=True,
                   help=f"vertex count, 1..{TRANSFORM_MAX} "
                   f"(1..{TREES_LIST_MAX} with --list)")
    p.add_argument("--list", action="store_true", help="list every tree")
    add_common(p, _cmd_trees, "k", "list")

    p = sub.add_parser("transform", help="tree-sum transform of a value sequence")
    p.add_argument("--k", type=int, required=True, help=f"1..{TRANSFORM_MAX}")
    p.add_argument("--sequence", metavar="FILE", default=None,
                   help=f"text file, one rational per line, at most {TRANSFORM_MAX} lines "
                   f"of at most {SEQUENCE_DIGITS_MAX}-digit numerators and denominators "
                   "(default: odd numbers)")
    add_common(p, _cmd_transform, "k", "sequence")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=["all", *SUITE_BOUNDS], default="all")
    p.add_argument(
        "--max-k", dest="max_k", type=int, default=None,
        help="largest k checked, within the suite's bound: " + ", ".join(
            f"{name} {low}..{high}" for name, (low, high) in SUITE_BOUNDS.items()
        ) + f", all {ALL_MIN_MAX_K}..{ALL_MAX_K}",
    )
    add_common(p, _cmd_verify, "suite", "max_k")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    with no_int_str_limit():  # A_75 and beyond pass the default limit of 4300 digits
        return _run(argv)


def _run(argv: Optional[list[str]]) -> int:
    """Run one command and print its output in the requested format; return the exit code."""
    # a usage error is a JSON record too when --format json can be read
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--format")
    try:
        json_errors = probe.parse_known_args(argv)[0].format == "json"
    except argparse.ArgumentError:
        json_errors = False
    try:
        args = _build_parser(json_errors).parse_args(argv)
    except _UsageError as exc:
        _print_record(exc.command, {}, {}, str(exc))
        return 2
    inputs = {name: getattr(args, name) for name in args.inputs}
    try:
        result, lines = args.run(args)
        if args.format == "json":
            _print_record(args.command, inputs, result)
        else:
            for line in lines:
                print(line)
    except _Refusal as exc:
        return _fail(args, inputs, str(exc), 2)
    except Exception as exc:  # a fault of the program, not of its input
        return _fail(args, {}, f"internal error: {type(exc).__name__}: {exc}", 3)
    # only verify's result has "passed": a failed check exits 1
    return 0 if result.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
