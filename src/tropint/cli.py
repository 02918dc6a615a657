"""Batch command line for the cycle calculus.

Inputs are JSON documents; any FILE argument also accepts '-' for stdin or
the name of a built-in example (see `tropint example --list`).  Exit codes:
0 success, 1 mathematical failure (unbalanced input, failed comparison),
2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cycles import Cycle, is_balanced, rn_cycle, validate_complex
from .divisors import divisor_chain
from .documents import DocumentError, parse_document, serialize_document
from .kernel import QQ
from .library import builtin_example, example_names
from .morphisms import IntegerLinearMap, Morphism, pull_back, push_forward
from .render import render_svg
from .rn_products import bezout_check, degree, stable_intersect

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        _emit_error(str(exc), args)
        return exc.code
    except DocumentError as exc:
        _emit_error(str(exc), args)
        return EXIT_USAGE
    except ValueError as exc:
        # Domain errors from the calculus (dimension mismatches, unbalanced
        # inputs to balance-requiring operations, ...).
        _emit_error(str(exc), args)
        return EXIT_MATH


def _emit_error(message, args):
    if getattr(args, "json", False):
        print(json.dumps({"error": message}), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tropint",
        description="exact intersection calculus for balanced complexes in R^n")
    sub = parser.add_subparsers(required=True, metavar="command")

    def cmd(name, help, handler, output=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable errors on stderr")
        if output:
            p.add_argument("-o", "--output", default=None, metavar="OUT",
                           help="write result here instead of stdout")
        return p

    p = cmd("validate", "check a cycle document for complex validity and balancing",
            _cmd_validate)
    p.add_argument("cycle", nargs="?", default="-")

    p = cmd("divisor", "intersect one function with a cycle", _cmd_divisor, output=True)
    p.add_argument("function")
    p.add_argument("cycle", nargs="?", default="-")

    p = cmd("chain", "apply several functions, rightmost first", _cmd_chain, output=True)
    p.add_argument("inputs", nargs="+", metavar="FUNC... CYCLE",
                   help="one or more functions followed by the cycle")

    p = cmd("intersect", "stable intersection of two cycles", _cmd_intersect, output=True)
    p.add_argument("first")
    p.add_argument("second")

    p = cmd("pushforward", "push a cycle along an integer map", _cmd_pushforward, output=True)
    p.add_argument("map")
    p.add_argument("cycle", nargs="?", default="-")

    p = cmd("pullback", "compose a function with an integer map", _cmd_pullback, output=True)
    p.add_argument("map")
    p.add_argument("function", nargs="?", default="-")

    p = cmd("degree", "degree of a cycle", _cmd_degree)
    p.add_argument("cycle", nargs="?", default="-")

    p = cmd("bezout", "compare deg(A.B) with deg(A) deg(B)", _cmd_bezout)
    p.add_argument("first")
    p.add_argument("second")

    p = cmd("example", "emit a built-in example document", _cmd_example, output=True)
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true", help="list available names")

    p = cmd("render", "render a plane curve to SVG", _cmd_render)
    p.add_argument("cycle", nargs="?", default="-")
    p.add_argument("-o", "--output", required=True, metavar="OUT.svg")
    p.add_argument("--bbox", default="-5,-5,5,5",
                   help="clip box as x0,y0,x1,y1 (default -5,-5,5,5)")
    return parser


# -- input plumbing -----------------------------------------------------------


def _load(name, kinds):
    obj = None
    try:
        obj = builtin_example(name)
    except ValueError as exc:
        raise CliError(str(exc))
    if obj is None:
        if name == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(name, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise CliError(f"cannot read {name!r}: {exc.strerror}")
        obj = parse_document(text).payload
    kind_of = {Cycle: "cycle", IntegerLinearMap: "map"}.get(type(obj), "function")
    if kind_of not in kinds:
        raise CliError(f"{name!r} is a {kind_of} document, expected {' or '.join(kinds)}")
    return obj


def _load_cycle(name):
    """A cycle document that is a valid, balanced complex; else exit 1."""
    cycle = _load(name, {"cycle"})
    problems = _cycle_problems(cycle)
    if problems:
        raise CliError(f"{name!r}: " + "; ".join(problems), EXIT_MATH)
    return cycle


def _cycle_problems(cycle):
    """Why a cycle is not a valid, balanced complex; empty when it is."""
    diagnostics = validate_complex(cycle.complex)
    if not diagnostics.valid:
        return [f"invalid complex: {problem}" for problem in diagnostics.problems]
    report = is_balanced(cycle.complex)
    if report.balanced:
        return []
    witness = report.witness
    return ["unbalanced at ridge with interior point "
            f"({', '.join(str(x) for x in witness.interior_point)}); "
            f"defect {tuple(int(x) for x in report.defect)}"]


def _write(obj, args):
    text = obj if isinstance(obj, str) else serialize_document(obj)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def _cmd_validate(args):
    problems = _cycle_problems(_load(args.cycle, {"cycle"}))
    for problem in problems:
        print(problem)
    if problems:
        return EXIT_MATH
    print("balanced")
    return EXIT_OK


def _cmd_divisor(args):
    phi = _load(args.function, {"function"})
    cycle = _load_cycle(args.cycle)
    _write(divisor_chain([phi], cycle), args)
    return EXIT_OK


def _cmd_chain(args):
    if len(args.inputs) < 2:
        raise CliError("chain needs at least one function and a cycle")
    *funcs, cycle_name = args.inputs
    functions = [_load(f, {"function"}) for f in funcs]
    cycle = _load_cycle(cycle_name)
    if len(functions) > cycle.dim:
        raise CliError("more functions than the cycle dimension", EXIT_MATH)
    _write(divisor_chain(functions, cycle), args)
    return EXIT_OK


def _cmd_intersect(args):
    a = _load_cycle(args.first)
    b = _load_cycle(args.second)
    if a.ambient_dim != b.ambient_dim:
        raise CliError("cycles live in different ambient spaces", EXIT_MATH)
    _write(stable_intersect(a, b), args)
    return EXIT_OK


def _cmd_pushforward(args):
    m = _load(args.map, {"map"})
    cycle = _load_cycle(args.cycle)
    if m.source_dim != cycle.ambient_dim:
        raise CliError("map width does not match the cycle ambient space", EXIT_MATH)
    f = Morphism(m, cycle, rn_cycle(m.target_dim))
    _write(push_forward(f), args)
    return EXIT_OK


def _cmd_pullback(args):
    m = _load(args.map, {"map"})
    phi = _load(args.function, {"function"})
    _write(pull_back(m, phi), args)
    return EXIT_OK


def _cmd_degree(args):
    cycle = _load_cycle(args.cycle)
    print(degree(cycle))
    return EXIT_OK


def _cmd_bezout(args):
    a = _load_cycle(args.first)
    b = _load_cycle(args.second)
    if a.dim + b.dim != a.ambient_dim:
        raise CliError("cycles do not have complementary dimensions", EXIT_MATH)
    report = bezout_check(a, b)
    verdict = ("PASS" if report.passed else
               "NOT-APPLICABLE" if not report.applicable else "FAIL")
    print(report.degree_first, report.degree_second, report.degree_product, verdict)
    return EXIT_OK if verdict != "FAIL" else EXIT_MATH


def _cmd_example(args):
    if args.list or args.name is None:
        for name in example_names():
            print(name)
        return EXIT_OK
    obj = builtin_example(args.name)
    if obj is None:
        raise CliError(f"unknown example {args.name!r}; try 'example --list'")
    _write(obj, args)
    return EXIT_OK


def _cmd_render(args):
    cycle = _load(args.cycle, {"cycle"})
    try:
        bbox = tuple(part.strip() for part in args.bbox.split(","))
        if len(bbox) != 4:
            raise ValueError
        bbox = tuple(QQ(v) for v in bbox)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"malformed bbox {args.bbox!r}; use x0,y0,x1,y1")
    svg = render_svg(cycle, bbox=bbox)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
