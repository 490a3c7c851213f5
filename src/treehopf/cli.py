"""Command-line interface.

Compute in either Hopf algebra, apply the operators, run verification
suites, and emit deterministic JSON or text.  Exit codes: 0 on success, 1
when a verification suite reports violations, 2 for usage or input errors.

Element arguments are literal encodings (a tree for the grafting algebra and
the Lie commands, a forest for the forest algebra, with ``1`` as its unit)
or ``@path`` pointing to a JSON file in the serialization schema.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import connes_kreimer as ck
from . import grossman_larson as gl
from . import operators as ops
from . import tree_lie
from . import verify
from .exactlin import LinComb
from .serialize import (encode_key, encode_z_key, lincomb_from_obj,
                        lincomb_to_json, lincomb_to_text, parse_z_key)
from .trees import (TreeParseError, count_trees_recurrence, enumerate_trees,
                    parse_forest, parse_tree)


class CommandResult:
    """What one CLI call produced; a plain class keeps ``dataclasses`` unloaded."""

    __slots__ = ("payload", "exit_code")

    def __init__(self, payload: str, exit_code: int):
        self.payload = payload
        self.exit_code = exit_code  # 0 ok, 1 verification failure, 2 usage error


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


_LITERAL_PARSERS = {"hr": parse_forest, "gl": parse_tree, "lie": parse_tree}
_FILE_KEY_PARSERS = {"hr": parse_forest, "gl": parse_tree, "lie": parse_z_key}


def _load_element(arg: str, family: str) -> LinComb:
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as handle:
            obj = json.load(handle)
        return lincomb_from_obj(obj, _FILE_KEY_PARSERS[family])
    return LinComb.term(_LITERAL_PARSERS[family](arg))


def _emit(x: LinComb, fmt: str, encode=encode_key) -> CommandResult:
    if fmt == "text":
        return CommandResult(lincomb_to_text(x, encode), 0)
    return CommandResult(lincomb_to_json(x, encode), 0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="treehopf", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format for compute commands (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate trees of a given size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("prod", help="product of two elements")
    p.add_argument("--algebra", choices=("gl", "hr"), required=True)
    p.add_argument("a")
    p.add_argument("b")

    for name, help_text in (("coprod", "coproduct of an element"),
                            ("antipode", "antipode of an element"),
                            ("counit", "counit of an element"),
                            ("grow", "leaf-growth operator")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algebra", choices=("gl", "hr"), required=True)
        p.add_argument("x")

    p = sub.add_parser("xk", help="iterated growth of the grafting unit")
    p.add_argument("k", type=int)
    p = sub.add_parser("delta", help="iterated growth of the one-vertex tree")
    p.add_argument("k", type=int)
    p = sub.add_parser("mop", help="chain right-multiplication operator")
    p.add_argument("x")
    p = sub.add_parser("lop", help="root-attachment operator")
    p.add_argument("x")

    for name in ("bracket", "star"):
        p = sub.add_parser(name, help=f"Lie {name} of two basis elements")
        p.add_argument("a")
        p.add_argument("b")
    p = sub.add_parser("phi", help="root deletion (primitive trees to Lie side)")
    p.add_argument("t")
    p = sub.add_parser("psi", help="root attachment (Lie side to primitive trees)")
    p.add_argument("t")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=verify.SUITES + ("all",), default="all")
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--report", choices=("json", "text"), default=None)
    return parser


def _report_text(report: dict) -> str:
    lines = [f"suite={report['suite']} maxDegree={report['maxDegree']} "
             f"checked={report['checked']} violations={len(report['violations'])}"]
    for v in report["violations"]:
        lines.append(f"violation law={v['law']} inputs={v['inputs']} "
                     f"lhs={v['lhs']} rhs={v['rhs']}")
    return "\n".join(lines)


def _cmd_enum(args) -> CommandResult:
    if args.count_only:
        return CommandResult(str(count_trees_recurrence(args.size)), 0)
    trees = enumerate_trees(args.size)
    encodings = [t.encoding for t in trees]
    if args.format == "text":
        return CommandResult("\n".join(encodings), 0)
    return CommandResult(json.dumps(encodings), 0)


def _cmd_prod(args) -> CommandResult:
    a = _load_element(args.a, args.algebra)
    b = _load_element(args.b, args.algebra)
    result = gl.product(a, b) if args.algebra == "gl" else ck.product(a, b)
    return _emit(result, args.format)


def _cmd_coprod(args) -> CommandResult:
    x = _load_element(args.x, args.algebra)
    result = gl.coproduct(x) if args.algebra == "gl" else ck.coproduct(x)
    return _emit(result, args.format)


def _cmd_antipode(args) -> CommandResult:
    x = _load_element(args.x, args.algebra)
    result = gl.antipode(x) if args.algebra == "gl" else ck.antipode(x)
    return _emit(result, args.format)


def _cmd_counit(args) -> CommandResult:
    x = _load_element(args.x, args.algebra)
    value = gl.counit(x) if args.algebra == "gl" else ck.counit(x)
    return CommandResult(str(value), 0)


def _cmd_grow(args) -> CommandResult:
    x = _load_element(args.x, args.algebra)
    result = ops.n_apply(x) if args.algebra == "gl" else ck.natural_growth(x)
    return _emit(result, args.format)


def _cmd_xk(args) -> CommandResult:
    return _emit(ops.x_k(args.k), args.format)


def _cmd_delta(args) -> CommandResult:
    return _emit(ck.delta(args.k), args.format)


def _cmd_mop(args) -> CommandResult:
    return _emit(ops.m_apply(_load_element(args.x, "gl")), args.format)


def _cmd_lop(args) -> CommandResult:
    return _emit(ck.add_root(_load_element(args.x, "hr")), args.format)


def _cmd_bracket(args) -> CommandResult:
    a = _load_element(args.a, "lie")
    b = _load_element(args.b, "lie")
    return _emit(tree_lie.bracket(a, b), args.format, encode_z_key)


def _cmd_star(args) -> CommandResult:
    a = _load_element(args.a, "lie")
    b = _load_element(args.b, "lie")
    return _emit(tree_lie.star(a, b), args.format, encode_z_key)


def _cmd_phi(args) -> CommandResult:
    x = _load_element(args.t, "gl")
    return _emit(tree_lie.phi(x), args.format, encode_z_key)


def _cmd_psi(args) -> CommandResult:
    x = _load_element(args.t, "lie")
    return _emit(tree_lie.psi(x), args.format)


def _cmd_verify(args) -> CommandResult:
    report = verify.run_suite(args.suite, args.max_degree)
    fmt = args.report or args.format
    if fmt == "json":
        payload = json.dumps(report, sort_keys=True)
    else:
        payload = _report_text(report)
    return CommandResult(payload, 1 if report["violations"] else 0)


_HANDLERS = {
    "enum": _cmd_enum,
    "prod": _cmd_prod,
    "coprod": _cmd_coprod,
    "antipode": _cmd_antipode,
    "counit": _cmd_counit,
    "grow": _cmd_grow,
    "xk": _cmd_xk,
    "delta": _cmd_delta,
    "mop": _cmd_mop,
    "lop": _cmd_lop,
    "bracket": _cmd_bracket,
    "star": _cmd_star,
    "phi": _cmd_phi,
    "psi": _cmd_psi,
    "verify": _cmd_verify,
}


def run(argv) -> CommandResult:
    """Execute one invocation; never raises for bad input."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        return CommandResult(str(exc), 2)
    except SystemExit as exc:  # argparse --help path
        code = exc.code if isinstance(exc.code, int) else 0
        return CommandResult("", code)
    try:
        return _HANDLERS[args.command](args)
    except (TreeParseError, ValueError, IndexError, OSError) as exc:
        return CommandResult(f"error: {exc}", 2)
    except RecursionError:
        return CommandResult("error: input nested too deeply", 2)


def main() -> None:
    result = run(sys.argv[1:])
    if result.payload:
        print(result.payload, file=sys.stderr if result.exit_code == 2 else sys.stdout)
    raise SystemExit(result.exit_code)
