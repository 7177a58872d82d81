"""Command-line interface.

Commands emit either human-oriented text (default) or a machine-readable
JSON record with the fields command / inputs / result / status /
error_detail.  All numbers are exact: rationals use the canonical "num/den"
text form and integers are decimal strings in JSON.  Exit codes: 0 success,
1 verification failure, 2 usage or input error (k past a command's bound
included), 3 internal error (an unexpected exception, reported as the same
error record instead of a traceback).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import trees, verify, zeta
from .polynomials import polynomial_text
from .recursion import numerator_polynomial, translated_polynomial, zeta_numerator

__all__ = ["main"]

# Largest k each command accepts.  Each bound keeps the command's slowest
# form within about 4.5 s end to end (2-vCPU host, Python 3.11.7): ak
# 3.4-3.5 s (k = 250 took 4.2 s), pk --translated --half-scale 3.5 s (k = 190
# took 4.8-5.0 s); both are bound by decimal conversion.  zeta-even and
# bernoulli 0.6 s (recursion; both reach RECURSION_MAX) and 4.1 s
# (classical), trees --list --format json 2.5 s (k = 12 took 10.7 s).  The
# tree route's bound is the library's TRANSFORM_MAX, set by `transform` over
# 3-digit rationals.  `bernoulli --approx` stops at 129 under every method:
# |B_260| is past the largest float.
AK_MAX = 240
PK_MAX = 180
ZETA_EVEN_MAX = 260
BERNOULLI_MAX = {"recursion": 260, "tree": trees.TRANSFORM_MAX, "classical": 350}
BERNOULLI_APPROX_MAX = 129
TREES_LIST_MAX = 11


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


def _fail(args, inputs: dict, message: str, code: int = 2) -> int:
    if args.format == "json":
        _print_record(args.command, inputs, {}, message)
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_bernoulli(args) -> int:
    inputs = {"k": args.k, "method": args.method}
    bound = BERNOULLI_MAX[args.method]
    if not 1 <= args.k <= bound:
        message = f"--k must be within 1..{bound} for --method {args.method}"
        return _fail(args, inputs, message)
    if args.approx and args.k > BERNOULLI_APPROX_MAX:
        message = f"--k must be within 1..{BERNOULLI_APPROX_MAX} with --approx"
        return _fail(args, inputs, message)
    if args.method == "classical":
        value = zeta.bernoulli_classical(2 * args.k)
    elif args.method == "tree":
        # the odd-sequence transform is 2*zeta(2k)/pi^(2k)
        value = zeta.bernoulli_from_zeta(args.k, trees.generalized_transform(args.k) / 2)
    else:
        value = zeta.bernoulli_even(args.k)
    if args.format == "json":
        result = {"value": str(value)}
        if args.approx:
            result["approx"] = float(value)
        _print_record("bernoulli", inputs, result)
    else:
        print(value)
        if args.approx:
            print(f"~= {float(value)}")
    return 0


def _cmd_ak(args) -> int:
    inputs = {"max": args.max_k}
    if not 1 <= args.max_k <= AK_MAX:
        return _fail(args, inputs, f"--max must be within 1..{AK_MAX}")
    values = [str(zeta_numerator(k)) for k in range(1, args.max_k + 1)]
    if args.format == "json":
        _print_record("ak", inputs, {"values": values})
    else:
        print("\n".join(values))
    return 0


def _cmd_pk(args) -> int:
    inputs = {
        "k": args.k,
        "translated": args.translated,
        "half_scale": args.half_scale,
    }
    if not 1 <= args.k <= PK_MAX:
        return _fail(args, inputs, f"--k must be within 1..{PK_MAX}")
    if args.half_scale and not args.translated:
        return _fail(args, inputs, "--half-scale requires --translated")
    if args.translated:
        poly = translated_polynomial(args.k, half_scale=args.half_scale)
    else:
        poly = numerator_polynomial(args.k)
    # decimal conversion of the coefficients dominates at large k: do it once
    strings = poly.coefficient_strings()
    text = polynomial_text(strings)
    if args.format == "json":
        _print_record("pk", inputs, {"coefficients": strings, "text": text})
    else:
        print(text)
    return 0


def _cmd_zeta_even(args) -> int:
    inputs = {"k": args.k}
    if not 1 <= args.k <= ZETA_EVEN_MAX:
        return _fail(args, inputs, f"--k must be within 1..{ZETA_EVEN_MAX}")
    coeff = zeta.zeta_even_rational(args.k)
    power = 2 * args.k
    text = f"{coeff} * pi^{power}"
    if args.format == "json":
        result = {"coefficient": str(coeff), "pi_power": power, "text": text}
        if args.approx:
            result["approx"] = float(coeff) * math.pi**power
        _print_record("zeta-even", inputs, result)
    else:
        print(text)
        if args.approx:
            print(f"~= {float(coeff) * math.pi**power}")
    return 0


def _tree_rows(k: int):
    """Each k-vertex tree with its low and high values and its weight, as text."""
    for tree in trees.enumerate_trees(k):
        data = trees.tree_data(tree)
        low = [str(2 * n + 1) for n in data.low]
        high = [str(2 * n + 1) for n in data.high]
        yield tree, low, high, str(data.weight)


def _cmd_trees(args) -> int:
    inputs = {"k": args.k, "list": args.list}
    # the count is a closed form; the listing holds every tree's record
    bound = TREES_LIST_MAX if args.list else trees.ENUMERATION_MAX
    if not 1 <= args.k <= bound:
        form = " with --list" if args.list else ""
        return _fail(args, inputs, f"--k must be within 1..{bound}{form}")
    count = trees.catalan(args.k - 1)
    if args.format == "json":
        result: dict = {"count": count}
        if args.list:
            result["trees"] = [
                {"levels": list(tree.levels), "low": low, "high": high, "weight": weight}
                for tree, low, high, weight in _tree_rows(args.k)
            ]
        _print_record("trees", inputs, result)
    elif args.list:
        for tree, low, high, weight in _tree_rows(args.k):
            print(f"levels={tree} low={{{','.join(low)}}} high={{{','.join(high)}}} wt={weight}")
    else:
        print(count)
    return 0


def _cmd_transform(args) -> int:
    inputs = {"k": args.k, "sequence": args.sequence}
    if not 1 <= args.k <= trees.TRANSFORM_MAX:
        return _fail(args, inputs, f"--k must be within 1..{trees.TRANSFORM_MAX}")
    seq = trees.ODD_NUMBERS
    if args.sequence is not None:
        try:
            seq = trees.SequenceSpec.from_file(args.sequence)
        except (OSError, ValueError) as exc:
            return _fail(args, inputs, str(exc))
    try:
        value = trees.generalized_transform(args.k, seq)
    except ValueError as exc:
        return _fail(args, inputs, str(exc))
    if args.format == "json":
        _print_record("transform", inputs, {"value": str(value)})
    else:
        print(value)
    return 0


def _cmd_verify(args) -> int:
    inputs = {"suite": args.suite, "max_k": args.max_k}
    try:
        reports = verify.run_suite(args.suite, args.max_k)
    except ValueError as exc:
        return _fail(args, inputs, str(exc))
    all_passed = all(report["passed"] for report in reports)
    if args.format == "json":
        _print_record("verify", inputs, {"passed": all_passed, "suites": reports})
    else:
        for report in reports:
            checks = report["checks"]
            for check in checks:
                if check["passed"]:
                    print(f"PASS {check['name']}")
                else:
                    print(f"FAIL {check['name']}: {check['witness']}")
            done = sum(1 for check in checks if check["passed"])
            print(f"suite {report['suite']} (max_k={report['max_k']}): {done}/{len(checks)} passed")
    return 0 if all_passed else 1


class _UsageError(Exception):
    def __init__(self, prog: str, message: str):
        super().__init__(message)
        self.command = prog.rsplit(" ", 1)[-1]


class _JsonErrorParser(argparse.ArgumentParser):
    """Raises usage errors for main to print as a JSON error record."""

    def error(self, message):
        raise _UsageError(self.prog, message)


def _json_requested(argv: list[str]) -> bool:
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--format")
    try:
        known, _ = probe.parse_known_args(argv)
    except argparse.ArgumentError:
        return False
    return known.format == "json"


def _build_parser(json_errors: bool) -> argparse.ArgumentParser:
    parser_class = _JsonErrorParser if json_errors else argparse.ArgumentParser
    parser = parser_class(
        prog="evenzeta",
        description="Exact Bernoulli numbers and even zeta values, three independent ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

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
    add_common(p)
    p.set_defaults(run=_cmd_bernoulli)

    p = sub.add_parser("ak", help="the integer numerators of 2*zeta(2k)/pi^(2k)")
    p.add_argument("--max", "--max-k", dest="max_k", type=int, required=True,
                   help=f"emit values for k = 1..MAX, MAX within 1..{AK_MAX}")
    add_common(p)
    p.set_defaults(run=_cmd_ak)

    p = sub.add_parser("pk", help="the k-th recursion polynomial")
    p.add_argument("--k", type=int, required=True, help=f"1..{PK_MAX}")
    p.add_argument("--translated", action="store_true",
                   help="shift to x + k - 3/2 (all-positive coefficients)")
    p.add_argument("--half-scale", action="store_true",
                   help="additionally rescale x to x/2 (display form)")
    add_common(p)
    p.set_defaults(run=_cmd_pk)

    p = sub.add_parser("zeta-even", help="zeta(2k) as an exact multiple of pi^(2k)")
    p.add_argument("--k", type=int, required=True, help=f"1..{ZETA_EVEN_MAX}")
    p.add_argument("--approx", action="store_true", help="also print a float approximation")
    add_common(p)
    p.set_defaults(run=_cmd_zeta_even)

    p = sub.add_parser("trees", help="plane trees with their low/high/weight data")
    p.add_argument("--k", type=int, required=True,
                   help=f"vertex count, 1..{trees.ENUMERATION_MAX} "
                   f"(1..{TREES_LIST_MAX} with --list)")
    p.add_argument("--list", action="store_true", help="list every tree")
    add_common(p)
    p.set_defaults(run=_cmd_trees)

    p = sub.add_parser("transform", help="tree-sum transform of a value sequence")
    p.add_argument("--k", type=int, required=True, help=f"1..{trees.TRANSFORM_MAX}")
    p.add_argument("--sequence", metavar="FILE", default=None,
                   help="text file, one rational per line (default: odd numbers)")
    add_common(p)
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=verify.suite_names(), default="all")
    p.add_argument(
        "--max-k", dest="max_k", type=int, default=None,
        help="largest k checked, within the suite's bound: " + ", ".join(
            f"{name} 1..{suite.hard_max_k}" for name, suite in verify.SUITES.items()
        ) + f", all 1..{verify.ALL_MAX_K}",
    )
    add_common(p)
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # A_75 and beyond pass the default 4300-digit int-to-str limit: lift it
    # for this call only, so that a calling process keeps its own limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: Optional[list[str]]) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(_json_requested(argv)).parse_args(argv)
    except _UsageError as exc:
        _print_record(exc.command, {}, {}, str(exc))
        return 2
    try:
        return args.run(args)
    except Exception as exc:  # a fault of the program, not of its input
        message = f"internal error: {type(exc).__name__}: {exc}"
        return _fail(args, {}, message, 3)


if __name__ == "__main__":
    sys.exit(main())
