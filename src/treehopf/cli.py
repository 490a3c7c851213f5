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

Every compute command is one row of ``_COMMANDS``; ``_grammar`` reads its
options and positionals from the row, and ``_compute`` runs it.  A row's
kernels map an input family (``"gl"``, ``"hr"``, ``"lie"``) to the
kernel's ``(module name, attribute)`` in this package.  The module is
imported on first use and the attribute looked up at call time, so that a
kernel rebound at run time (a test's stub, a tracer's wrapper) is the one
called.  Two families add ``--algebra``, and the family ``int`` makes the
positionals integers.  To add a command, add ``"name": (help, "a b",
{"gl": ("module", "kernel")}, "encoding")`` to the table, naming the key
encoder as ``serialize`` holds it (``"encoding"``, which it imports from
``exactlin``, or ``"encode_z_key"`` for Lie-side output) or ``None`` for a
scalar.

A well-formed argv is read straight from the rows (``_read_argv``):
``_FORMAT``, ``_OPTIONS`` and ``_grammar`` give each option as its argparse
keywords, and ``_build_parser`` builds its parser from the same rows.
argparse, and the ``gettext`` and ``locale`` its messages load, are
imported only when that read declines: for help, a usage error, or a form
it does not take (``--opt=value``, an abbreviation, ``--``, a repeated
option, any other token that starts with ``-``).  argparse then reads the
argv, and words the help or the error.

A command whose work grows steeply with one integer argument refuses a
value above its row in ``_CEILINGS`` with one ``error:`` line and exit 2,
before any kernel module is imported, rather than run for minutes.  ``enum
--count-only`` has a row of its own: it counts by a recurrence that is
cubic in ``--size``, so its ceiling is far above the listing's.  Any other
input of a compute command is bounded by its time, not by a model of its
kernel's cost: once its inputs are read, the kernel and the rendering of
its result run under a ``SIGALRM`` timer of ``_TIME_LIMIT`` seconds, and a
call that runs past it gives one ``error:`` line and exit 2.  Where no
handler can be set (a thread other than the main one, a platform without
``SIGALRM``) the call runs with no limit.  Reading the inputs is not timed,
so that a slow ``@file`` pipe is not refused; the digit cap bounds the
parse.

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

import json
import os
import sys
from collections import namedtuple
from importlib import import_module
from types import SimpleNamespace

from . import SUITES
from .exactlin import LinComb
from .trees import (count_trees_recurrence, enumerate_trees, parse_forest,
                    parse_tree)


# What one CLI call produced; exit_code is 0 ok, 1 verification failure, 2
# usage error.  ``collections`` is already loaded, ``dataclasses`` is not.
CommandResult = namedtuple("CommandResult", "payload exit_code")


class _UsageError(Exception):
    pass


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


# the top-level option, then ``enum``'s and ``verify``'s (help, options),
# each option as its argparse keywords; ``_build_parser`` and ``_read_argv``
# both read these rows, and ``_grammar`` the rows of ``_COMMANDS``
_FORMAT = {"--format": {"choices": ("json", "text"), "default": "json",
                        "help": "output format for compute commands (default json)"}}
_OPTIONS = {
    "enum": ("enumerate trees of a given size",
             {"--size": {"type": int, "required": True},
              "--count-only": {"action": "store_true", "default": False}}),
    "verify": ("run a verification suite",
               {"--suite": {"choices": SUITES + ("all",), "default": "all"},
                "--max-degree": {"type": int, "default": 5}}),
}


def _grammar(name: str) -> tuple:
    """A subcommand's help, its options by flag and its positionals by
    name, each as its argparse keywords.  Two kernel families add
    ``--algebra``, and the family ``int`` makes the positionals integers."""
    if name in _OPTIONS:
        return (*_OPTIONS[name], {})
    help_text, params, kernels, _ = _COMMANDS[name]
    options = ({"--algebra": {"choices": tuple(kernels), "required": True}}
               if len(kernels) > 1 else {})
    kind = {"type": int} if int in kernels else {}
    return help_text, options, dict.fromkeys(params.split(), kind)


# row: (integer argument, largest accepted value, how the work grows), from
# measured growth (Python 3.11.7, 2 vCPUs): ``xk 14`` takes 1.6-1.7 s and
# prints 5.6 MB (``xk 15``: 5.6 s and 15.6 MB), ``delta 15`` 2.1-2.2 s, a
# listing ``enum --size 15`` 0.4-0.6 s and 3.0 MB, ``verify --suite all
# --max-degree 10`` 67 s and 452 MB, and ``enum --size 500 --count-only``
# 0.03 s of counting (``--size 1000``: 0.22 s, ``--size 2000``: 2.4 s).
_STEEP = "about 3x per step"
_CEILINGS = {"xk": ("k", 14, _STEEP), "delta": ("k", 15, _STEEP),
             "enum": ("--size", 15, _STEEP),
             "enum --count-only": ("--size", 500, "with the cube of the size"),
             "verify": ("--max-degree", 10, _STEEP)}

# seconds a compute command may spend in its kernel and rendering its result
_TIME_LIMIT = 10


class _TimeLimit(Exception):
    pass


def _time_out(signum, frame):
    raise _TimeLimit


def _check_ceiling(row: str, args) -> None:
    """Raise ``ValueError`` when the integer argument the row names is above
    its ceiling."""
    if row not in _CEILINGS:
        return
    name, limit, growth = _CEILINGS[row]
    value = getattr(args, name.lstrip("-").replace("-", "_"))
    if value > limit:
        raise ValueError(f"{row} {name}={value} is above its ceiling "
                         f"of {limit}: the work grows {growth}")


def _build_parser():
    """The argparse parser: the reference reading of argv, and the one place
    that words help and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.format_usage()}error: {message}")

    parser = _Parser(prog="treehopf", description=__doc__.splitlines()[0])
    for flag, keywords in _FORMAT.items():
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("enum", *_COMMANDS, "verify"):
        help_text, options, positionals = _grammar(name)
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in {**options, **positionals}.items():
            p.add_argument(flag, **keywords)
    return parser


def _value(keywords: dict, text: str):
    """``text`` converted and checked as argparse does for one argument;
    ``ValueError`` where argparse would refuse it, and for a value that
    starts with ``-``, which argparse alone reads."""
    value = keywords.get("type", str)(text)
    if text.startswith("-") or value not in keywords.get("choices", (value,)):
        raise ValueError(text)
    return value


def _read(tokens: list, options: dict, positionals: dict) -> dict:
    """The values one parser gives ``tokens``, with its defaults.  Any token
    that starts with ``-`` must be one of its options, given once."""
    given, args = {}, []
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            args.append(token)
        elif token not in options or token in given:
            raise ValueError(token)
        elif options[token].get("action") == "store_true":
            given[token] = True
        else:
            given[token] = _value(options[token], next(tokens, "-"))
    if len(args) != len(positionals) or any(
            keywords.get("required") and flag not in given
            for flag, keywords in options.items()):
        raise ValueError(args)
    values = {name: _value(keywords, arg)
              for (name, keywords), arg in zip(positionals.items(), args)}
    for flag, keywords in options.items():
        values[flag.lstrip("-").replace("-", "_")] = given.get(flag, keywords.get("default"))
    return values


def _read_argv(argv):
    """The namespace argparse gives a well-formed ``argv``, read from the
    same rows without importing argparse, or ``None``: for help, a usage
    error, and any form it does not take (``--opt=value``, an abbreviation,
    ``--``, a repeated option, any other token that starts with ``-``)."""
    argv = list(argv)
    at = 0  # the command's index; each top-level option takes a value
    while at < len(argv) and argv[at] in _FORMAT:
        at += 2
    try:
        _, options, positionals = _grammar(argv[at])
        return SimpleNamespace(**_read(argv[:at], _FORMAT, {}), command=argv[at],
                               **_read(argv[at + 1:], options, positionals))
    except (ValueError, LookupError):
        return None


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


def _render(result, encode, fmt: str) -> CommandResult:
    """A kernel's result as the payload, with the digit cap lifted while it
    renders (Python 3.10.0 to 3.10.6 have none)."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda cap: None)
    set_cap(0)
    try:
        if encode is None:
            return CommandResult(str(result), 0)
        from . import serialize
        render = (serialize.lincomb_to_text if fmt == "text"
                  else serialize.lincomb_to_json)
        return CommandResult(render(result, getattr(serialize, encode)), 0)
    finally:
        set_cap(cap)


def _compute(args) -> CommandResult:
    """Load the row's inputs, then call its kernel and render the result
    within ``_TIME_LIMIT`` seconds.  Without a ``SIGALRM`` handler (another
    thread than the main one, or no ``SIGALRM`` on the platform) the call
    runs with no limit."""
    import signal
    _, params, kernels, encode = _COMMANDS[args.command]
    family = getattr(args, "algebra", next(iter(kernels)))
    module, attr = kernels[family]
    inputs = [getattr(args, param) for param in params.split()]
    if family is not int:
        inputs = [_load_element(arg, family) for arg in inputs]
    kernel = getattr(import_module(f".{module}", __package__), attr)
    try:
        previous = signal.signal(signal.SIGALRM, _time_out)
    except (AttributeError, ValueError):
        return _render(kernel(*inputs), encode, args.format)
    # an alarm due just as the timer is disarmed raises there, so the handler
    # is put back in a finally of its own
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, _TIME_LIMIT)
            return _render(kernel(*inputs), encode, args.format)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


_HANDLERS = {"enum": _cmd_enum, "verify": _cmd_verify}


def run(argv) -> CommandResult:
    """Execute one invocation; an error returns exit 2 instead of raising.

    Bad input gives one ``error:`` line, and so does a compute command that
    runs past ``_TIME_LIMIT`` seconds, or any other exception, named in
    that line instead of a traceback.  While a compute command runs in the
    main thread it holds ``SIGALRM``, and it puts back the handler that was
    there before once it returns.
    """
    try:
        args = _read_argv(argv)
        if args is None:
            args = _build_parser().parse_args(list(argv))
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
    except _TimeLimit:
        return CommandResult(f"error: {args.command} ran past its time limit "
                             f"of {_TIME_LIMIT} s", 2)
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
