"""Exhaustive low-degree verification: one runner over tables of laws.

``run_suite`` builds the rows of one suite, or of all six in order, and
``check`` is the one loop over them: it counts every case and, whenever the
sides differ, records a violation with the args and both sides as text: a
combination by its terms, a tree, forest or tensor by its encoding, and a
tuple element by element.  The rows themselves, the case protocol they
follow and the domains they share live in the ``laws`` subpackage, one
module per suite.  Each ``_LAWS`` entry imports its suite's module only
when called, and ``_render`` imports ``serialize`` only for a violation,
so a ``verify`` call compiles the laws and kernels of the suites it runs
and nothing more; at module level this module imports only the standard
library, ``exactlin`` and the package's ``SUITES``.  No module but ``cli``
imports this one.  To add
a law, see ``laws``.
"""

from __future__ import annotations

from importlib import import_module

from . import SUITES
from .exactlin import LinComb


def _render(value) -> str:
    """A side as text: a combination by its terms, a basis element by its
    encoding, a tuple element by element."""
    if isinstance(value, LinComb):
        from .serialize import lincomb_to_text
        return lincomb_to_text(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_render, value)) + ")"
    return str(getattr(value, "encoding", value))


def _violation(law: str, args, lhs, rhs) -> dict:
    """The report entry of a failed case."""
    return {"law": law,
            "inputs": [_render(a) for a in args],
            "lhs": _render(lhs), "rhs": _render(rhs)}


def check(rows) -> dict:
    """Count every case of every row and record those whose sides differ;
    an ``int`` n in a row's cases counts n cases whose sides are both 0."""
    checked, violations = 0, []
    for law, cases in rows:
        for case in cases:
            if type(case) is int:
                checked += case
                continue
            checked += 1
            args, lhs, rhs = case
            if lhs != rhs:
                violations.append(_violation(law, args, lhs, rhs))
    return {"checked": checked, "violations": violations}


def _suite_laws(name: str):
    """The function of D that builds the rows of suite ``name``: it imports
    ``laws.<name>`` when called, and returns its ``laws(D)``."""
    return lambda D: import_module(f".laws.{name}", __package__).laws(D)


# suite name -> the function of D that builds its rows
_LAWS = {name: _suite_laws(name) for name in SUITES}


def run_suite(name: str, max_degree: int = 5) -> dict:
    """Run one suite (or ``"all"``) and return its report."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if name != "all" and name not in _LAWS:
        raise ValueError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else (name,)
    rows = (row for suite in names for row in _LAWS[suite](max_degree))
    return {"suite": name, "maxDegree": max_degree, **check(rows)}
