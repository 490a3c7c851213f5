"""Exact rational linear combinations over canonical basis keys.

``LinComb`` is a sparse formal sum with exact rational coefficients.  Every
stored coefficient goes through ``exact``: it is an ``int`` when integral
and a ``fractions.Fraction`` (denominator above 1) otherwise, and a
``float`` is rejected.  Products, coproducts, growth and antipodes have
integer structure constants, so they stay on plain ``int`` arithmetic.  A
computed ``Fraction`` comes only from ``ratio``, which imports ``fractions``
only for a quotient that is not integral, and ``exact`` imports it only for
a coefficient that is not an ``int``; so a call whose every quotient is
integral never loads ``fractions`` or the ``decimal`` module it imports.

Keys are trees, forests, or tensor keys: a tensor key is the plain tuple
``(left, right)`` of two of them, equal and hashed by value, so a lookup
may use any such tuple.  A kernel that stores tensor keys builds them with
``tensor_key``, which returns one shared tuple per pair, since memoized
coproducts repeat the same pairs.  ``encoding`` gives a key's text, which
orders keys deterministically for serialization.  Products, coproducts and
brackets are defined on basis keys elsewhere and lifted here.

The rule for lifting: a basis map that returns a ``LinComb`` is made linear
only through ``extend_linear`` / ``extend_bilinear``, called at use time so
that the basis map is looked up by name on each call.  A map that builds a
single key per input (a forest union, or a tensor key of two legs as in
``tensor``, ``map_left``, ``map_right`` and ``tensor_multiply`` here) stays
a direct loop: wrapping every key in a one-term ``LinComb`` only to unpack
it again costs time on the hottest paths.

``solve_membership`` and ``rank`` share one sparse elimination,
``_echelon``: each row is a ``{column: int}`` dict with its denominators
cleared, reduced by integer cross-multiples and divided by its gcd, so
every check stays bit-exact without dense or ``Fraction`` rows.
"""

from __future__ import annotations

from math import gcd, lcm


def exact(c):
    """Normalise a coefficient: an ``int`` when integral, else a ``Fraction``.

    Raises ``TypeError`` for anything that is not an ``int`` or a
    ``Fraction``, a ``float`` in particular.
    """
    if isinstance(c, int):  # an int subclass, such as bool, becomes an int
        return int(c)
    from fractions import Fraction
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be an int or a Fraction, "
                    f"not {type(c).__name__}: {c!r}")


def ratio(numerator, denominator=1):
    """The exact quotient of two rationals: an ``int`` when the division is
    exact, with no import, else the reduced ``Fraction``."""
    quotient, remainder = divmod(numerator, denominator)
    if not remainder:
        return quotient
    from fractions import Fraction
    return Fraction(numerator, denominator)


def add_to(acc: dict, key, coeff) -> None:
    """Accumulate ``coeff`` at ``key``; zeros are pruned by LinComb later."""
    acc[key] = acc.get(key, 0) + coeff


class LinComb:
    """Finite formal sum of basis keys with nonzero rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if not isinstance(terms, dict):
            data: dict = {}
            for key, coeff in terms or ():
                add_to(data, key, coeff)
            terms = data
        # one pass that keeps an int as it is and drops zeros only after
        # ``exact``, so a float raises even where it sums to 0.0
        self.terms = {key: value for key, coeff in terms.items()
                      if (value := coeff if type(coeff) is int
                          else exact(coeff))}

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def term(cls, key, coeff=1) -> "LinComb":
        return cls({key: coeff})

    def coeff(self, key):
        return self.terms.get(key, 0)

    def mass(self):
        """Sum of all coefficients (total multiplicity)."""
        return exact(sum(self.terms.values()))

    def map_keys(self, f) -> "LinComb":
        """Relabel basis keys; colliding images merge additively."""
        return LinComb((f(k), c) for k, c in self.terms.items())

    def __add__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return combine(self, other)

    def __sub__(self, other):
        if not isinstance(other, LinComb):
            return NotImplemented
        return combine(self, other, -1)

    def __neg__(self):
        return LinComb({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, LinComb):
            return NotImplemented
        s = exact(scalar)
        return LinComb({k: c * s for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LinComb) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        body = ", ".join(f"{text!r}: {c}" for text, c in
                         sorted((encoding(k), c) for k, c in self.terms.items()))
        return f"LinComb({{{body}}})"


def combine(a: LinComb, b: LinComb, scalar=1) -> LinComb:
    """a + scalar * b, zero terms pruned."""
    out = dict(a.terms)
    s = exact(scalar)
    for key, coeff in b.terms.items():
        add_to(out, key, coeff * s)
    return LinComb(out)


def extend_linear(f):
    """Lift a basis-level map ``key -> LinComb`` to a linear map."""

    def lifted(x: LinComb) -> LinComb:
        out: dict = {}
        for key, c in x.terms.items():
            for image_key, image_c in f(key).terms.items():
                out[image_key] = out.get(image_key, 0) + c * image_c
        return LinComb(out)

    return lifted


def extend_bilinear(f):
    """Lift a basis-level map ``(key, key) -> LinComb`` to a bilinear map."""

    def lifted(a: LinComb, b: LinComb) -> LinComb:
        out: dict = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                scale = ca * cb
                for image_key, image_c in f(ka, kb).terms.items():
                    out[image_key] = out.get(image_key, 0) + scale * image_c
        return LinComb(out)

    return lifted


# (left, right) -> that same tuple; never cleared, like the tree tables
_pairs: dict[tuple, tuple] = {}


def tensor_key(left, right) -> tuple:
    """The basis key of a two-fold tensor: the one shared ``(left, right)``."""
    key = (left, right)
    return _pairs.setdefault(key, key)


def encoding(key) -> str:
    """The text of a basis key; a tensor key reads ``"<left> | <right>"``."""
    if type(key) is tuple:
        left, right = key
        return f"{left.encoding} | {right.encoding}"
    return key.encoding


def tensor(a: LinComb, b: LinComb) -> LinComb:
    """Tensor product of two combinations."""
    out: dict = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            add_to(out, tensor_key(ka, kb), ca * cb)
    return LinComb(out)


def map_left(f, x: LinComb) -> LinComb:
    """Apply a linear basis map to the left leg of a tensor combination."""
    out: dict = {}
    for (left, right), c in x.terms.items():
        for image_key, image_c in f(left).terms.items():
            add_to(out, tensor_key(image_key, right), c * image_c)
    return LinComb(out)


def map_right(f, x: LinComb) -> LinComb:
    """Apply a linear basis map to the right leg of a tensor combination."""
    out: dict = {}
    for (left, right), c in x.terms.items():
        for image_key, image_c in f(right).terms.items():
            add_to(out, tensor_key(left, image_key), c * image_c)
    return LinComb(out)


def swap_legs(x: LinComb) -> LinComb:
    """Exchange the tensor legs."""
    return x.map_keys(lambda key: tensor_key(key[1], key[0]))


def tensor_multiply(x: LinComb, y: LinComb, mult) -> LinComb:
    """Componentwise product of tensor combinations.

    ``mult`` is one basis-level product returning combinations, applied to
    both legs; the result is the bilinear leg-by-leg product of x and y.
    """
    out: dict = {}
    for (xl, xr), cx in x.terms.items():
        for (yl, yr), cy in y.terms.items():
            scale = cx * cy
            left = mult(xl, yl)
            right = mult(xr, yr)
            for kl, cl in left.terms.items():
                for kr, cr in right.terms.items():
                    add_to(out, tensor_key(kl, kr), scale * cl * cr)
    return LinComb(out)


def _integral(coeffs: dict) -> dict:
    """The coefficients times the lcm of their denominators, as ints."""
    scale = lcm(*(c.denominator for c in coeffs.values()))
    return {col: c.numerator * (scale // c.denominator) for col, c in coeffs.items()}


def _echelon(rows) -> dict:
    """Fraction-free row echelon form of sparse rows ``{column: nonzero int}``.

    Each row is inserted in turn: divided by the gcd of its entries, then,
    while a kept pivot row holds its lowest column, cross-multiplied with
    that row so the column cancels, and divided again (integer-preserving
    elimination after Bareiss, Math. Comp. 22, 1968).  A row left nonzero
    becomes the pivot row of its lowest column; a row reduced to zero is
    dropped.  Returns ``{pivot column: row}``.
    """
    pivots: dict = {}
    for row in rows:
        while row:
            g = gcd(*row.values())
            row = {k: c // g for k, c in row.items()}
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            g = gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            row = {k: c for k in row.keys() | pivot.keys()
                   if (c := a * row.get(k, 0) - b * pivot.get(k, 0))}
    return pivots


def solve_membership(target: LinComb, generators) -> list | None:
    """Exact coordinates of ``target`` in the span of ``generators``.

    One row per basis key, one column per generator in order and the target
    last, so the pivots are the first independent generators.  Returns one
    coordinate vector of normalised coefficients (free coordinates set to
    0), or None when the target column holds a pivot, i.e. the system is
    inconsistent; a successful result always reproduces the target exactly
    on re-substitution.
    """
    generators = list(generators)
    n = len(generators)
    rows: dict = {}
    for col, vector in enumerate(generators + [target]):
        for key, c in vector.terms.items():
            rows.setdefault(key, {})[col] = c
    pivots = _echelon(_integral(row) for row in rows.values())
    if n in pivots:
        return None
    coords = [0] * n
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        rest = row.get(n, 0) - sum(c * coords[k] for k, c in row.items() if col < k < n)
        coords[col] = ratio(rest, row[col])
    return coords


def rank(vectors) -> int:
    """Rank of a family of combinations, by exact sparse elimination."""
    columns: dict = {}
    return len(_echelon({columns.setdefault(key, len(columns)): c
                         for key, c in _integral(v.terms).items()}
                        for v in vectors))
