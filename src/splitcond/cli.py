"""Command-line frontend: lyndon, conditions, verify, converge.

Exit codes: 0 on success (and satisfied verification), 1 when a verification
fails, 2 on usage or I/O errors.  All results go to stdout, diagnostics to
stderr.  JSON output is deterministic for fixed inputs.  ``entry()`` flushes both
streams once ``main()`` returns and ends the process by ``os._exit``, with no interpreter
teardown, so atexit handlers do not run; ``main()`` itself returns its code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple

from .conditions import ROUTES, ConcreteScheme, check_cost, condition_system, verify_scheme
from .lyndon import MAX_LYNDON_WORDS, bracket_str, bracketing, lyndon_count, lyndon_words, word_str

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")

# Digits allowed in one integer of a coefficient literal: far beyond any real
# scheme, and under the interpreter's own int-conversion limit, whose error
# message names interpreter settings instead of the input.
MAX_LITERAL_DIGITS = 1000


class RegistryEntry(NamedTuple):
    scheme: ConcreteScheme
    order: int


REGISTRY: dict[str, RegistryEntry] = {
    "lie-trotter": RegistryEntry(
        ConcreteScheme((Fraction(1),), (Fraction(1),), "lie-trotter"), order=1
    ),
    "strang": RegistryEntry(
        ConcreteScheme(
            (Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(0)), "strang"
        ),
        order=2,
    ),
    "paper-order3": RegistryEntry(
        ConcreteScheme(
            (Fraction(7, 24), Fraction(3, 4), Fraction(-1, 24)),
            (Fraction(2, 3), Fraction(-2, 3), Fraction(1)),
            "paper-order3",
        ),
        order=3,
    ),
}


_JSON_TYPE_NAMES = {
    bool: "boolean", float: "number", list: "array", dict: "object", type(None): "null"
}


def _describe_entry(entry: object) -> str:
    # short enough for a one-line error, whatever the entry holds
    if not isinstance(entry, str):
        return "a JSON " + _JSON_TYPE_NAMES.get(type(entry), type(entry).__name__)
    return repr(entry) if len(entry) <= 40 else repr(entry[:40]) + "..."


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or an integer literal in ASCII digits; anything else is rejected.

    JSON true/false arrive as bool, a subclass of int, and are rejected too.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"not a rational literal: {_describe_entry(text)}")
    numerator, _, denominator = text.strip().partition("/")
    if max(len(numerator.lstrip("+-")), len(denominator)) > MAX_LITERAL_DIGITS:
        raise ValueError(f"literal over {MAX_LITERAL_DIGITS} digits: {_describe_entry(text)}")
    if denominator and int(denominator) == 0:
        raise ValueError(f"zero denominator in rational literal: {_describe_entry(text)}")
    return Fraction(text.strip())


def _json_int(token: str) -> int:
    if len(token.lstrip("-")) > MAX_LITERAL_DIGITS:
        raise ValueError(f"integer literal over {MAX_LITERAL_DIGITS} digits")
    return int(token)


def scheme_to_json_dict(scheme: ConcreteScheme) -> dict:
    return {
        "name": scheme.name or "unnamed",
        "a": [str(x) for x in scheme.a],
        "b": [str(x) for x in scheme.b],
    }


def load_scheme_file(path: str) -> ConcreteScheme:
    """Read a scheme from a JSON document {name, a: [...], b: [...]}; errors name the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=_json_int)
        if not isinstance(data, dict) or "a" not in data or "b" not in data:
            raise ValueError("expected an object with keys 'a' and 'b'")
        for key in ("a", "b"):
            if not isinstance(data[key], list):
                raise ValueError(f"'{key}' must be a list of rational literals")
        name = data.get("name")
        # a control character in the name would break the one-line verdict
        if name is not None and not (isinstance(name, str) and name.isprintable()):
            raise ValueError("'name' must be a string of printable characters")
        a = tuple(parse_rational(x) for x in data["a"])
        b = tuple(parse_rational(x) for x in data["b"])
        return ConcreteScheme(a, b, name)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def resolve_scheme(name_or_path: str) -> ConcreteScheme:
    """Registry name, or a path to a scheme file."""
    if name_or_path in REGISTRY:
        return REGISTRY[name_or_path].scheme
    return load_scheme_file(name_or_path)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


class _Parser(argparse.ArgumentParser):
    # a usage error is one "error: " line and exit 2, as every other error; --help is unchanged
    def error(self, message: str):
        sys.exit(_fail(message))


def _write_records(records: Iterable[dict]) -> None:
    # json.dumps(list(records), indent=2) for one record or more, written one at a time
    sep = "[\n  "
    for record in records:
        sys.stdout.write(sep + json.dumps(record, indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    print("\n]")


def cmd_lyndon(args: argparse.Namespace) -> int:
    if args.max_len < 1:
        return _fail("--max-len must be >= 1")
    if not 1 <= args.alphabet <= 26:
        return _fail("--alphabet must be between 1 and 26")
    if lyndon_count(args.alphabet, args.max_len) > MAX_LYNDON_WORDS:
        return _fail(f"the listing may hold over {MAX_LYNDON_WORDS} words; lower --max-len")
    words = lyndon_words(args.alphabet, args.max_len)
    if args.format == "json":
        _write_records(dict(word=word_str(w), bracketing=bracket_str(bracketing(w)),
                            length=len(w)) for w in words)
    else:
        for w in words:
            print(word_str(w) if len(w) == 1 else f"{word_str(w)} = {bracket_str(bracketing(w))}")
    return 0


def cmd_conditions(args: argparse.Namespace) -> int:
    try:  # a bad stage count is reported first, then work over the cost budget
        if args.stages >= 1:
            check_cost(args.order, args.route, args.stages)
        system = condition_system(args.stages, args.order, args.route)
    except ValueError as exc:  # a stage count or an order out of range, or too costly
        return _fail(str(exc))
    # to_records() as JSON, or str(system), one entry at a time
    if args.format == "json":
        _write_records(e.to_record() for e in system.entries)
    else:
        for line in system.lines():
            print(line)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        scheme = resolve_scheme(args.scheme)
        check_cost(args.order, args.route)
        report = verify_scheme(scheme, args.order, args.route)
    except (OSError, ValueError) as exc:  # an unreadable scheme, or an order out of range
        return _fail(str(exc))
    if args.format == "json":
        payload = {
            "scheme": scheme_to_json_dict(scheme),
            "order": args.order,
            "route": args.route,
            "satisfied": report.satisfied,
            "residuals": [
                {"degree": q, "word": word_str(w), "residual": str(r)}
                for q, w, r in report.residuals
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        verdict = "satisfied" if report.satisfied else "NOT satisfied"
        print(f"{scheme} at order {args.order} via {args.route}: {verdict}")
        for q, w, r in report.nonzero_residuals():
            print(f"  deg {q}  {word_str(w)}  residual {r}")
    return 0 if report.satisfied else 1


def cmd_converge(args: argparse.Namespace) -> int:
    if args.dim < 1 or args.dim > 64:
        return _fail("--dim must be between 1 and 64")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    if not 3 <= args.grid_coarse < args.grid_fine <= 14:
        return _fail("grid exponents must satisfy 3 <= coarse < fine <= 14")
    try:
        scheme = resolve_scheme(args.scheme)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    from .numeric import DegenerateFit, NonFinite, empirical_order

    grid = tuple(2.0**-k for k in range(args.grid_coarse, args.grid_fine + 1))
    try:
        report = empirical_order(scheme, args.dim, args.seed, grid)
    except (DegenerateFit, NonFinite) as exc:
        return _fail(str(exc))
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="splitcond",
        description="Order conditions for exponential operator-splitting schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lyndon = sub.add_parser("lyndon", help="list Lyndon words and their bracketings")
    p_lyndon.add_argument("--alphabet", type=int, default=2)
    p_lyndon.add_argument("--max-len", type=int, required=True)
    p_lyndon.add_argument("--format", choices=("text", "json"), default="text")
    p_lyndon.set_defaults(func=cmd_lyndon)

    p_cond = sub.add_parser("conditions", help="generate an order-condition system")
    p_cond.add_argument("-s", "--stages", type=int, required=True)
    p_cond.add_argument("-p", "--order", type=int, required=True)
    p_cond.add_argument("--route", choices=ROUTES, default="bch")
    p_cond.add_argument("--format", choices=("text", "json"), default="text")
    p_cond.set_defaults(func=cmd_conditions)

    p_verify = sub.add_parser("verify", help="verify a scheme against order conditions")
    p_verify.add_argument("scheme", help="registry name or scheme JSON file")
    p_verify.add_argument("-p", "--order", type=int, required=True)
    p_verify.add_argument("--route", choices=ROUTES, default="bch")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_conv = sub.add_parser("converge", help="measure the empirical convergence order")
    p_conv.add_argument("scheme", help="registry name or scheme JSON file")
    p_conv.add_argument("--dim", type=int, default=4)
    p_conv.add_argument("--seed", type=int, default=1)
    p_conv.add_argument("--grid-coarse", type=int, default=4, help="largest step 2^-k")
    p_conv.add_argument("--grid-fine", type=int, default=10, help="smallest step 2^-k")
    p_conv.set_defaults(func=cmd_converge)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    return args.func(args)


def entry() -> None:
    # a residual may outgrow the interpreter's int-to-str limit, which guards the parsing
    # that MAX_LITERAL_DIGITS already caps; builds older than 3.10.7 have no such limit
    getattr(sys, "set_int_max_str_digits", lambda n: None)(0)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; what is still buffered is dropped
        code = 2
    # the output is written and the OS reclaims the process: skip the interpreter's teardown
    # (module cleanup, a last collection, the BLAS pool's join, atexit handlers): 10-20 ms a call
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
