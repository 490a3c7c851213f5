"""Workload definitions: treehopf invocations and the checks on their output.

A workload is a list of invocations (treehopf argv plus an output check).
The verify workloads are fixed; ``oneshot`` is generated from the seed.
Treehopf sees only the argv and the ``@file`` inputs written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# Verify workloads: suite and max degree, full size and tiny (smoke tests).
VERIFY_WORKLOADS = {
    "grafting": ("operators", 4, 3),
    "cuts": ("hr", 5, 3),
    "dual": ("dual", 5, 3),
}

# sha256 of the stdout of each verify invocation, pinned from the unmodified
# seed implementation; reports must stay byte-identical.
PINNED_DIGESTS = {
    ("operators", 4): "b9bbb466bbee83863d9947f4074b532a15f86bc2ac4acf88ae03e0f59d327fad",
    ("hr", 5): "f5633c7be14a45d97ac5601fb0de4947b16686667c8098f8818fc669026bb000",
    ("dual", 5): "3a208cc8793b66595a92a1c5ac927bdf7a1ce9b5f20054c448ae2764b5d77ff7",
    ("operators", 3): "e6ad3b53b63ce77dd3a448ee45c2763851d1107346f05e1c262be99bbac29d6e",
    ("hr", 3): "541a8dd2a323eaa791be95a5f3ee873079946a71fac4b95fa60806790fc088f9",
    ("dual", 3): "89d11d2d5002e6517a27613a01e80b0e043867d3a4a9350d46e556da33022e83",
}

ONESHOT_PER_KIND = 8

# A check returns None when the output is correct, otherwise a reason.
Check = Callable[[str], Optional[str]]


@dataclass
class Invocation:
    argv: list[str]
    check: Check


# ---------------------------------------------------------------- trees

def random_tree(rng: random.Random, size: int):
    """A random recursive tree as nested child lists (root first)."""
    children: list[list] = [[] for _ in range(size)]
    for v in range(1, size):
        children[rng.randrange(v)].append(children[v])
    return children[0]


def encode(node) -> str:
    """Canonical bracket encoding: children sorted by their encodings."""
    return "[" + "".join(sorted(encode(child) for child in node)) + "]"


def tree_size(encoding: str) -> int:
    return encoding.count("[")


def root_fertility(encoding: str) -> int:
    depth = count = 0
    for ch in encoding:
        if ch == "[":
            depth += 1
            count += depth == 2
        else:
            depth -= 1
    return count


def count_trees(n: int) -> int:
    """Rooted trees with n vertices, by the divisor-sum recurrence (OEIS A000081)."""
    counts = [0, 1]
    for m in range(1, n):
        total = sum(sum(d * counts[d] for d in range(1, k + 1) if k % d == 0)
                    * counts[m - k + 1] for k in range(1, m + 1))
        counts.append(total // m)
    return counts[n]


# ---------------------------------------------------------------- output checks

_COEFF = re.compile(r"-?[1-9][0-9]*(/[1-9][0-9]*)?")


def _parse_lincomb(out: str):
    """Parse CLI JSON output; return (terms, reason) with reason None if well formed."""
    try:
        obj = json.loads(out)
    except ValueError:
        return None, "output is not JSON"
    if json.dumps(obj, sort_keys=True) != out:
        return None, "JSON output does not round-trip byte-exactly"
    terms = obj.get("terms") if isinstance(obj, dict) else None
    if not isinstance(terms, list):
        return None, "missing terms list"
    bases = [t.get("basis") for t in terms]
    if bases != sorted(set(bases)):
        return None, "terms not sorted by unique basis"
    coeffs = []
    for t in terms:
        text = t.get("coeff")
        if not isinstance(text, str) or not _COEFF.fullmatch(text):
            return None, f"non-canonical coefficient {text!r}"
        value = Fraction(text)
        if str(value) != text:
            return None, f"unreduced coefficient {text!r}"
        coeffs.append(value)
    return list(zip(bases, coeffs)), None


def _render_text(terms) -> str:
    pieces = []
    for basis, coeff in terms:
        body = basis if abs(coeff) == 1 else f"{abs(coeff)}*{basis}"
        sign = ("-" if coeff < 0 else "") if not pieces else ("- " if coeff < 0 else "+ ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def _parse_text(out: str):
    """Parse ``--format text`` output; it must re-render byte-exactly."""
    terms = []
    for piece in ([] if out == "0" else out.replace(" - ", " + -").split(" + ")):
        sign = -1 if piece.startswith("-") else 1
        coeff_text, star, basis = piece.lstrip("-").rpartition("*")
        if not star:
            coeff_text = "1"
        if not _COEFF.fullmatch(coeff_text) or coeff_text.startswith("-"):
            return None, f"non-canonical coefficient {coeff_text!r}"
        terms.append((basis, sign * Fraction(coeff_text)))
    if [b for b, _ in terms] != sorted({b for b, _ in terms}):
        return None, "terms not sorted by unique basis"
    if _render_text(terms) != out:
        return None, "text output does not round-trip byte-exactly"
    return terms, None


def _mass(terms, weight) -> Fraction:
    """Sum of coefficient * weight(basis) over (basis, coefficient) pairs."""
    return sum((c * weight(k) for k, c in terms), Fraction(0))


def lincomb_check(expected_mass: Optional[Fraction], text: bool = False) -> Check:
    def check(out: str) -> Optional[str]:
        terms, reason = (_parse_text if text else _parse_lincomb)(out)
        if reason:
            return reason
        if expected_mass is not None:
            mass = _mass(terms, lambda k: 1)
            if mass != expected_mass:
                return f"coefficient mass {mass} != expected {expected_mass}"
        return None
    return check


def enum_check(size: int, count_only: bool) -> Check:
    expected = count_trees(size)

    def check(out: str) -> Optional[str]:
        try:
            obj = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if json.dumps(obj) != out:
            return "JSON output does not round-trip byte-exactly"
        if count_only:
            return None if obj == expected else f"count {obj} != recurrence {expected}"
        if not isinstance(obj, list) or len(set(obj)) != expected or obj != sorted(obj):
            return f"expected {expected} sorted distinct trees"
        if any(tree_size(e) != size for e in obj):
            return "tree of the wrong size"
        return None
    return check


def digest_check(expected: str) -> Check:
    def check(out: str) -> Optional[str]:
        got = hashlib.sha256((out + "\n").encode()).hexdigest()
        return None if got == expected else f"report digest {got[:12]} != pinned {expected[:12]}"
    return check


# ---------------------------------------------------------------- workloads

def verify_invocations(name: str, tiny: bool = False) -> list[Invocation]:
    suite, degree, tiny_degree = VERIFY_WORKLOADS[name]
    if tiny:
        degree = tiny_degree
    argv = ["verify", "--suite", suite, "--max-degree", str(degree)]
    return [Invocation(argv, digest_check(PINNED_DIGESTS[suite, degree]))]


class _Oneshot:
    """Seeded generator of one-shot CLI invocations and their oracles."""

    def __init__(self, seed: int, file_dir: str):
        self.rng = random.Random(seed)
        self.file_dir = file_dir
        self.files = 0
        self.decks: dict[tuple[str, int, int], list[int]] = {}

    def size(self, use: str, lo: int, hi: int) -> int:
        """A size in lo..hi, dealt from a shuffled deck per use, so that every
        seed runs nearly the same mix of sizes and only the shapes vary."""
        deck = self.decks.setdefault((use, lo, hi), [])
        if not deck:
            deck.extend(range(lo, hi + 1))
            self.rng.shuffle(deck)
        return deck.pop()

    def tree(self, lo: int = 3, hi: int = 9) -> str:
        return encode(random_tree(self.rng, self.size("tree", lo, hi)))

    def combo(self, keys: list[str]) -> list[tuple[str, Fraction]]:
        return [(k, Fraction(self.rng.choice((1, 2, -1, 3))) / self.rng.choice((1, 1, 2, 3)))
                for k in keys]

    def element(self, make_key: Callable[[], str], prefix: str = ""):
        """A literal basis element, or (one time in three) a 1-2 term @file."""
        if self.rng.random() < 2 / 3:
            key = make_key()
            return key, [(key, Fraction(1))]
        keys = sorted({make_key() for _ in range(self.rng.randint(1, 2))})
        terms = self.combo(keys)
        path = os.path.join(self.file_dir, f"in{self.files}.json")
        self.files += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"terms": [{"basis": prefix + k, "coeff": str(c)} for k, c in terms]},
                      handle)
        return "@" + path, terms

    def forest(self) -> str:
        """One tree of 3-9 vertices, or two of 3-5."""
        if self.rng.random() < 0.5:
            return self.tree()
        return " ".join(sorted(self.tree(3, 5) for _ in range(2)))

    def gl_factor(self) -> str:
        """Left factor of a GL product: root fertility <= 4 keeps it <= 9**4 grafts."""
        while True:
            t = self.tree()
            if root_fertility(t) <= 4:
                return t

    def lincomb(self, argv: list[str], expected_mass: Optional[Fraction] = None):
        """A command printing a combination, as JSON or (one time in four) as text."""
        text = self.rng.random() < 0.25
        return (["--format", "text"] if text else []) + argv, lincomb_check(expected_mass, text)

    def kinds(self):
        """Each kind returns (argv, check); every kind runs ONESHOT_PER_KIND times."""
        def gl_prod():
            a, ta = self.element(self.gl_factor)
            b, tb = self.element(self.tree)
            expected = sum((ca * cb * tree_size(kb) ** root_fertility(ka)
                            for ka, ca in ta for kb, cb in tb), Fraction(0))
            return self.lincomb(["prod", "--algebra", "gl", a, b], expected)

        def hr_prod():
            a, ta = self.element(self.forest)
            b, tb = self.element(self.forest)
            expected = _mass(ta, lambda k: 1) * _mass(tb, lambda k: 1)
            return self.lincomb(["prod", "--algebra", "hr", a, b], expected)

        def gl_coprod():
            x, tx = self.element(self.tree)
            return self.lincomb(["coprod", "--algebra", "gl", x],
                                _mass(tx, lambda k: 2 ** root_fertility(k)))

        def hr_coprod():
            x, _ = self.element(self.forest)
            return self.lincomb(["coprod", "--algebra", "hr", x])

        def gl_antipode():
            x, _ = self.element(self.tree)
            return self.lincomb(["antipode", "--algebra", "gl", x])

        def hr_antipode():
            x, _ = self.element(self.forest)
            return self.lincomb(["antipode", "--algebra", "hr", x])

        def grow():
            algebra = self.rng.choice(("gl", "hr"))
            x, tx = self.element(self.tree if algebra == "gl" else self.forest)
            return self.lincomb(["grow", "--algebra", algebra, x],
                                _mass(tx, lambda k: sum(map(tree_size, k.split()))))

        def xk():
            k = self.size("xk", 2, 8)
            return self.lincomb(["xk", str(k)], Fraction(math.factorial(k)))

        def delta():
            k = self.size("delta", 3, 9)
            return self.lincomb(["delta", str(k)], Fraction(math.factorial(k - 1)))

        def bracket():
            a, ta = self.element(self.tree, "Z:")
            b, tb = self.element(self.tree, "Z:")
            expected = sum((ca * cb * (tree_size(kb) - tree_size(ka))
                            for ka, ca in ta for kb, cb in tb), Fraction(0))
            return self.lincomb(["bracket", a, b], expected)

        def mop():
            x, tx = self.element(self.tree)
            return self.lincomb(["mop", x], _mass(tx, lambda k: 2 ** root_fertility(k)))

        def lop():
            x, tx = self.element(self.forest)
            return self.lincomb(["lop", x], _mass(tx, lambda k: 1))

        def phi_psi():
            if self.rng.random() < 0.5:
                x, tx = self.element(lambda: "[" + self.tree(2, 8) + "]")
                return self.lincomb(["phi", x], _mass(tx, lambda k: 1))
            x, tx = self.element(lambda: self.tree(2, 8), "Z:")
            return self.lincomb(["psi", x], _mass(tx, lambda k: 1))

        def enum():
            size = self.size("enum", 3, 9)
            count_only = self.rng.random() < 0.5
            argv = ["enum", "--size", str(size)] + (["--count-only"] if count_only else [])
            return argv, enum_check(size, count_only)

        return (gl_prod, hr_prod, gl_coprod, hr_coprod, gl_antipode, hr_antipode,
                grow, xk, delta, bracket, mop, lop, phi_psi, enum)


def oneshot_invocations(seed: int, file_dir: str, tiny: bool = False) -> list[Invocation]:
    """The seeded one-shot mix: every kind ONESHOT_PER_KIND times (once if tiny), shuffled."""
    gen = _Oneshot(seed, file_dir)
    kinds = [k for k in gen.kinds() for _ in range(1 if tiny else ONESHOT_PER_KIND)]
    gen.rng.shuffle(kinds)
    return [Invocation(*make()) for make in kinds]
