"""Command-line interface.

Compute in either Hopf algebra, apply the operators, run verification
suites, and emit deterministic JSON or text.  Exit codes: 0 on success, 1
when a verification suite reports violations, 2 for usage or input errors
and for any unexpected error, which prints one ``error:`` line and never a
traceback.  A reader that closes the pipe early ends the call quietly, with
the command's own exit code; any other failure to write the output, or a
closed stdout, gives one ``error: cannot write output:`` line on stderr,
when stderr is open, and exit 2.

``main``, the process entry of ``python -m treehopf`` and of the
``treehopf`` script, flushes both streams and then ends the process with
``os._exit``: interpreter teardown changes no output and costs about 7 ms
per call, more after a large ``verify``.  With a tracer or profiler
attached it raises ``SystemExit`` instead, so that they still write their
output at exit.  ``run`` is the in-process API and never ends the process.

Element arguments are literal encodings (a tree for the grafting algebra and
the Lie commands, a forest for the forest algebra, with ``1`` as its unit)
or ``@path`` pointing to a JSON file in the serialization schema.  A
Lie-side literal may carry the ``Z:`` prefix that Lie-side output prints.

Every compute command is one row of ``_COMMANDS``; ``_build_parser`` adds
its subparser and ``_compute`` runs it.  A row's kernels map an input family
(``"gl"``, ``"hr"``, ``"lie"``) to the kernel's ``(module name, attribute)``
in this package.  The module is imported on first use and the attribute
looked up at call time, so that a kernel rebound at run time (a test's
stub, a tracer's wrapper) is the one called.  Two families add
``--algebra``, and the family ``int`` makes the positionals integers.  To
add a command, add ``"name": (help, "a b", {"gl": ("module", "kernel")},
"encoding")`` to the table, naming the key encoder as ``serialize`` holds
it (``"encoding"``, which it imports from ``exactlin``, or
``"encode_z_key"`` for Lie-side output) or ``None`` for a scalar.

A command whose work grows steeply with one integer argument refuses a
value above its row in ``_CEILINGS`` with one ``error:`` line and exit 2,
before any kernel module is imported, rather than run for minutes.  ``enum
--count-only`` has a row of its own: it counts by a recurrence that is
cubic in ``--size``, so its ceiling is far above the listing's.  A command
whose work grows with the shape of its input (the root fertility, the
admissible cuts, the placements of a product's scions) has a row too, for
the command and its ``--algebra``, whose measure is a function of the
parsed inputs, again checked before any kernel module is imported.

Each call imports only the modules its command runs: ``serialize`` when an
``@file`` is read or a combination rendered, ``verify`` only for
``verify``, which imports the laws and kernels of the suites it runs and
nothing more, and the standard library's ``fractions`` only where a
``Fraction`` is made: a computed ``Fraction`` comes only from
``exactlin.ratio``.  A one-shot call that is not cached as bytecode
compiles every module it imports, so this keeps a call's start-up cost to
its own command.

Python caps the digits ``int`` and ``str`` convert between.  Parsing input
keeps the cap, which bounds the quadratic parse of a hostile file, and
rendering a result lifts it, since an accepted input can have a result
longer than the cap: the square of a 4000-digit coefficient.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import namedtuple
from importlib import import_module
from math import comb

from . import SUITES
from .exactlin import LinComb
from .trees import (LEAF, Tree, count_trees_recurrence, enumerate_trees,
                    parse_forest, parse_tree, runs)


# What one CLI call produced; exit_code is 0 ok, 1 verification failure, 2
# usage error.  ``collections`` is already loaded, ``dataclasses`` is not.
CommandResult = namedtuple("CommandResult", "payload exit_code")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _parse_lie_literal(text: str):
    """A Lie-side tree literal, with or without its printed ``Z:`` prefix."""
    return parse_tree(text.removeprefix("Z:"))


_LITERAL_PARSERS = {"hr": parse_forest, "gl": parse_tree, "lie": _parse_lie_literal}


def _load_element(arg: str, family: str) -> LinComb:
    if arg.startswith("@"):
        from .serialize import lincomb_from_obj, parse_z_key
        with open(arg[1:], encoding="utf-8") as handle:
            obj = json.load(handle)
        key_parser = parse_z_key if family == "lie" else _LITERAL_PARSERS[family]
        return lincomb_from_obj(obj, key_parser)
    return LinComb.term(_LITERAL_PARSERS[family](arg))


def _both(attr: str) -> dict:
    """The ``--algebra`` pair: the grafting and the forest algebra's kernel."""
    return {"gl": ("grossman_larson", attr), "hr": ("connes_kreimer", attr)}


# name: (help, positionals, kernels, ``serialize`` key encoder or None for a
# scalar); the subparsers are listed in this order, between ``enum`` and
# ``verify``.
_COMMANDS = {
    "prod": ("product of two elements", "a b", _both("product"), "encoding"),
    "coprod": ("coproduct of an element", "x", _both("coproduct"), "encoding"),
    "antipode": ("antipode of an element", "x", _both("antipode"), "encoding"),
    "counit": ("counit of an element", "x", _both("counit"), None),
    "grow": ("leaf-growth operator", "x",
             {"gl": ("operators", "n_apply"),
              "hr": ("connes_kreimer", "natural_growth")}, "encoding"),
    "xk": ("iterated growth of the grafting unit", "k",
           {int: ("operators", "x_k")}, "encoding"),
    "delta": ("iterated growth of the one-vertex tree", "k",
              {int: ("connes_kreimer", "delta")}, "encoding"),
    "mop": ("chain right-multiplication operator", "x",
            {"gl": ("operators", "m_apply")}, "encoding"),
    "lop": ("root-attachment operator", "x",
            {"hr": ("connes_kreimer", "add_root")}, "encoding"),
    "bracket": ("Lie bracket of two basis elements", "a b",
                {"lie": ("tree_lie", "bracket")}, "encode_z_key"),
    "star": ("Lie star of two basis elements", "a b",
             {"lie": ("tree_lie", "star")}, "encode_z_key"),
    "phi": ("root deletion (primitive trees to Lie side)", "t",
            {"gl": ("tree_lie", "phi")}, "encode_z_key"),
    "psi": ("root attachment (Lie side to primitive trees)", "t",
            {"lie": ("tree_lie", "psi")}, "encoding"),
}


def _tree_cuts(children) -> int:
    """Admissible cuts of a tree with these children, by the recurrence on
    them: each is severed, kept or cut in one of its own ways, and keeping
    all of them is no cut.  No cut is enumerated."""
    count = 1
    for child, m in runs(children):
        count *= (_tree_cuts(child.children) + 2) ** m
    return count - 1


def _cut_terms(t) -> int:
    """Distinct terms of a tree's cut coproduct, bounded by the recurrence on
    its children: each run of m equal children takes a multiset of m of the
    child's own terms, and ``t | 1`` is one more."""
    count = 1
    for child, m in runs(t.children):
        count *= comb(_cut_terms(child) + m - 1, m)
    return count + 1


# The shape measures, each of one basis element of every input; a row takes
# the largest over the terms.


def _fertility(t) -> int:
    return t.fertility


def _cuts(f) -> int:
    """What a forest's cut coproduct costs: the most admissible cuts one of
    its trees enumerates, or the bound on its distinct non-trivial terms,
    whichever is more.  The forest's coproduct is the product of its trees',
    so the bound is the product of theirs, a run of m equal trees taking a
    multiset of m terms.  A one-tree forest measures its admissible cuts."""
    terms, widest = 1, 0
    for tree, m in runs(f.items):
        terms *= comb(_cut_terms(tree) + m - 1, m)
        widest = max(widest, _tree_cuts(tree.children))
    return max(widest, terms - 2)


def _placements(a, b=Tree((LEAF,))) -> int:
    """Distinct ways to attach the root subtrees of ``a`` to the vertices of
    ``b``: a run of m equal subtrees lands as a multiset.  ``b`` defaults to
    the two-vertex chain, the right factor of ``mop``."""
    count = 1
    for _, m in runs(a.children):
        count *= comb(b.size + m - 1, m)
    return count


# row: (measure, largest accepted value, how the work grows).  The measure
# of a command's row is the integer argument it names, from measured
# growth: ``xk 14`` takes 3.3 s and prints 5.6 MB (``xk 15``: 9.7 s),
# ``delta 14`` 1.5 s, a listing ``enum --size 15`` 1.9 s and 3.0 MB,
# ``verify --suite all --max-degree 10`` 86 s and 893 MB, and ``enum --size
# 500 --count-only`` 0.85 s (``--size 600``: 2.3 s).
# The measure of a command and its ``--algebra`` is a shape measure above,
# from measured times on corollas: ``coprod --algebra gl`` on 18 leaves
# 2.0 s (19 leaves: 4.1 s), ``antipode --algebra gl`` on 12 leaves 0.8 s
# (13: 1.7 s), and ``coprod`` and ``antipode --algebra hr`` on 16 leaves,
# 65535 cuts, 1.2 and 0.9 s (17: 2.3 s); a complete binary tree of 15
# vertices has 675 cuts, so the size is the wrong measure.  A forest's terms
# cost less than a tree's cuts: seven distinct trees whose coproduct has at
# most 62998 terms take 0.55 s, eight with 94498 0.83 s.  The cuts bound the
# cut coproduct, but not the antipode: that of a chain has a term per
# partition of its size, and one of 40 vertices, with 39 cuts, takes 4.3 s
# (ROADMAP item 5).  Grafting a 9-leaf corolla onto a 12-vertex chain has
# 167960 placements and takes 3.7 s, an 8-leaf one 75582 and 1.9 s; the
# root fertility alone would pass a 12-leaf corolla on that chain, 30 s and
# 112 MB of output.  ``mop`` is that product with the two-vertex chain on the
# right: a root over the 16 smallest distinct trees (65536 placements) takes
# 2.0 s and prints 10.7 MB, over 17 (131072) 5.2 s and 22.7 MB, and over
# 20 it ran past 30 s.
_STEEP = "about 3x per step"
_CEILINGS = {"xk": ("k", 14, _STEEP), "delta": ("k", 15, _STEEP),
             "enum": ("--size", 15, _STEEP),
             "enum --count-only": ("--size", 500, "with the cube of the size"),
             "verify": ("--max-degree", 10, _STEEP),
             "coprod --algebra gl": (_fertility, 18, "2x per step"),
             "antipode --algebra gl": (_fertility, 12, _STEEP),
             "prod --algebra gl": (_placements, 100_000, "with their number"),
             "mop --algebra gl": (_placements, 100_000, "with their number"),
             "coprod --algebra hr": (_cuts, 65535, "with their number"),
             "antipode --algebra hr": (_cuts, 65535, "with their number")}


def _check_ceiling(row: str, args, inputs=()) -> None:
    """Raise ``ValueError`` when the row's measure is above its ceiling: the
    integer argument it names, or its shape measure at its widest over
    every choice of one term from each input."""
    if row not in _CEILINGS:
        return
    measure, limit, growth = _CEILINGS[row]
    if isinstance(measure, str):
        name = measure
        value = getattr(args, measure.lstrip("-").replace("-", "_"))
    else:
        name = measure.__name__.lstrip("_")
        value = max(itertools.starmap(measure, itertools.product(
            *(x.terms for x in inputs))), default=0)
    if value > limit:
        raise ValueError(f"{row} {name}={value} is above its ceiling "
                         f"of {limit}: the work grows {growth}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="treehopf", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output format for compute commands (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate trees of a given size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--count-only", action="store_true")

    for name, (help_text, params, kernels, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if len(kernels) > 1:
            p.add_argument("--algebra", choices=tuple(kernels), required=True)
        for param in params.split():
            p.add_argument(param, type=int if int in kernels else None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--max-degree", type=int, default=5)
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


def _cmd_verify(args) -> CommandResult:
    from . import verify
    report = verify.run_suite(args.suite, args.max_degree)
    if args.format == "json":
        payload = json.dumps(report, sort_keys=True)
    else:
        payload = _report_text(report)
    return CommandResult(payload, 1 if report["violations"] else 0)


def _compute(args) -> CommandResult:
    """Load the row's inputs, call its kernel and render the result."""
    _, params, kernels, encode = _COMMANDS[args.command]
    family = getattr(args, "algebra", next(iter(kernels)))
    module, attr = kernels[family]
    inputs = [getattr(args, param) for param in params.split()]
    if family is not int:
        inputs = [_load_element(arg, family) for arg in inputs]
        _check_ceiling(f"{args.command} --algebra {family}", args, inputs)
    result = getattr(import_module(f".{module}", __package__), attr)(*inputs)
    # the digit cap lifted while the result renders (Python 3.10.0 to 3.10.6
    # have none)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda cap: None)
    set_cap(0)
    try:
        if encode is None:
            return CommandResult(str(result), 0)
        from . import serialize
        render = (serialize.lincomb_to_text if args.format == "text"
                  else serialize.lincomb_to_json)
        return CommandResult(render(result, getattr(serialize, encode)), 0)
    finally:
        set_cap(cap)


_HANDLERS = {"enum": _cmd_enum, "verify": _cmd_verify}


def run(argv) -> CommandResult:
    """Execute one invocation; an error returns exit 2 instead of raising.

    Bad input gives one ``error:`` line, and so does any other exception,
    named in that line instead of a traceback.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        return CommandResult(str(exc), 2)
    except SystemExit as exc:  # argparse --help path
        code = exc.code if isinstance(exc.code, int) else 0
        return CommandResult("", code)
    try:
        _check_ceiling(args.command + (" --count-only" if getattr(
            args, "count_only", False) else ""), args)
        return _HANDLERS.get(args.command, _compute)(args)
    except (ValueError, IndexError, OSError) as exc:
        return CommandResult(f"error: {exc}", 2)
    except RecursionError:
        return CommandResult("error: input nested too deeply", 2)
    except Exception as exc:  # anything else: one line, never a traceback
        detail = " ".join(str(exc).split())
        return CommandResult(f"error: unexpected {type(exc).__name__}: {detail}", 2)


def _write(stream, text: str = "") -> OSError | None:
    """Print ``text``, if any, to ``stream`` and flush it; return the failure.

    A stream that is ``None`` (its descriptor was closed) is never written
    to.  A stream that fails is pointed at devnull, so that no later flush
    raises.  A closed pipe is no failure: the reader left early."""
    if stream is None:
        return None
    try:
        if text:
            print(text, file=stream)
        stream.flush()
        return None
    except OSError as exc:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        except (OSError, ValueError):
            pass
        return None if isinstance(exc, BrokenPipeError) else exc


def _observed() -> bool:
    """Whether a tracer, a profiler or (Python 3.12+) a monitoring tool is
    attached: these write their output while the interpreter tears down."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None
                and any(monitoring.get_tool(i) is not None for i in range(6))))


def main() -> None:
    """Run ``sys.argv[1:]``, print the payload and end the process.

    The payload goes to stdout, or to stderr for exit 2, and both streams
    are flushed here, so that a lost write is seen: a failure other than a
    closed pipe, or a payload for a closed stdout, gives one ``error: cannot
    write output:`` line on stderr, when it is open, and exit 2.  The
    process then ends with ``os._exit``: interpreter teardown (clearing
    every module, a last collection over the memos, freeing every object)
    changes no output and costs about 7 ms per call, more after a large
    ``verify``.  With a tracer or profiler attached (``python -m cProfile``,
    ``python -m trace``, coverage) it raises ``SystemExit`` instead, so that
    they write their own output at exit.
    """
    result = run(sys.argv[1:])
    code = result.exit_code
    stream = sys.stderr if code == 2 else sys.stdout
    failures = [_write(stream, result.payload), _write(sys.stdout), _write(sys.stderr)]
    if stream is None and code != 2 and result.payload:
        failures.append("stdout is closed")
    failure = next(filter(None, failures), None)
    if failure is not None:
        code = 2
        _write(sys.stderr, f"error: cannot write output: {failure}")
    if not _observed():
        os._exit(code)
    raise SystemExit(code)
