"""The verification suites' laws: the case protocol, the shared domains, and
one module of rows per suite.

Each module ``laws/<suite>.py`` defines ``laws(D)``, which returns the
suite's rows ``(law, cases)`` for the degree bound ``D``.  ``law`` is the
name reported on failure, prefixed by the suite (``op.`` for
``operators``); ``cases`` yields ``(args, lhs, rhs)``, one triple per
instance of the identity, or an ``int`` n for n instances whose sides are
both the zero coefficient.  ``verify.check`` counts every case and records
each one whose sides differ.  The ``dual`` rows, the transpose cocycle
``dual.hochschild_cases`` among them, compare 0 with 0 in almost every
case, so for each coordinate t* they build the two sides as sparse dicts
read from the indexes of ``graded_dual`` (``support_index``, and
``product_index``, built once per bound), and ``sparse_cases`` yields the
keys either side holds as cases and the rest as ints, in the original
order.  Most rows are ``_law(name, domain, sides)`` over a shared domain:
trees by size, forests up to a weight, or tuples of trees of bounded total
size, which ``trees.tuples_up_to_size`` lists for every row that reads them.
Forest and primitive domains are images of tree tuples, never scans: the
``hr`` forest pairs are B- of tree pairs and the ``lie`` primitive pairs B+
of them, so no row filters a square of the basis.  A
row whose cases share costly per-element work is a short generator that
does that work once per element.  The bounds at ``D = 5`` give antipode
laws at weight/degree 5, most laws at 6, the two forest coproducts at tree
size 7 and grafting associativity at total size 8.

The rows are built afresh on each call and reach the kernels through module
attributes or globals, so a kernel rebound at run time (a deliberately
broken one in a test, or a tracer's wrapper) is the one checked.  This
package imports only the standard library, ``exactlin`` and ``trees`` at
module level; each suite's module imports the kernel modules its laws read,
and ``verify`` imports a suite's module only to run it, so a ``verify``
call compiles the laws and kernels of its own suites and no others.
To add a law, append ``_law("gl.name", _trees(D + 1), lambda t: (lhs, rhs))``
(or, over pairs, ``_law("gl.name", tuples_up_to_size(2, D + 1), ...)``), or a
generator row, to the list its suite's ``laws`` returns; then re-pin
the per-law counts in ``tests/test_verify.py`` and the report digests in
``tests/test_acceptance.py``.
"""

from ..exactlin import LinComb, add_to, extend_linear
from ..trees import enumerate_forests, trees_up_to_degree


def sparse_cases(position: dict, head: tuple, lhs: dict, rhs: dict):
    """Yield the cases of one row from its two sides, given as sparse dicts.

    ``position`` numbers the row's keys (tuples).  For each key that either
    side holds, in position order, yields ``(head + key, lhs[key], rhs[key])``,
    a missing side read as 0; between them, and after the last, yields the
    ``int`` count of the keys skipped, whose sides are both the zero
    coefficient, which ``verify.check`` counts without a look.  A key
    outside ``position`` is not a case of the row and is dropped.
    """
    done = 0
    for i, key in sorted((position[k], k) for k in lhs.keys() | rhs.keys()
                         if k in position):
        if i > done:
            yield i - done
        yield head + key, lhs.get(key, 0), rhs.get(key, 0)
        done = i + 1
    if len(position) > done:
        yield len(position) - done


def _law(law: str, domain, sides):
    """The row that maps ``sides(*args) -> (lhs, rhs)`` over ``domain``."""
    return law, ((args, *sides(*args)) for args in domain)


def _each(values) -> list:
    """One-argument domain: each value as ``(value,)``."""
    return [(v,) for v in values]


def _trees(n: int) -> list:
    """Each tree of size at most n, by size, then encoding."""
    return _each(trees_up_to_degree(n - 1))


def _forests(w: int) -> list:
    """Each forest of weight at most w, by weight, then encoding."""
    return _each(f for v in range(w + 1) for f in enumerate_forests(v))


def _primitives(n: int) -> list:
    """The primitive basis trees of degree 1 to n, by degree."""
    from .. import grossman_larson as gl
    return [p for d in range(1, n + 1) for p in gl.primitive_basis(d)]


# Flattened by hand: lifting cop onto one leg at a time, then flattening by
# map_keys, took hr -D7 from 0.36 to 0.46 s.
def _coassociativity_sides(cop, x: LinComb):
    """Flatten (cop (x) id) and (id (x) cop) of x to triple-key dictionaries."""
    lhs: dict = {}
    rhs: dict = {}
    for (a, b), c in x.terms.items():
        for (a1, a2), c2 in cop(a).terms.items():
            add_to(lhs, (a1.encoding, a2.encoding, b.encoding), c * c2)
        for (b1, b2), c2 in cop(b).terms.items():
            add_to(rhs, (a.encoding, b1.encoding, b2.encoding), c * c2)
    return {k: v for k, v in lhs.items() if v}, {k: v for k, v in rhs.items() if v}


def _hopf_laws(suite: str, elements, antipode_elements, coproduct, antipode, product,
               unit_key) -> list:
    """Coassociativity, counit and antipode rows of one Hopf algebra.

    ``coproduct`` and ``antipode`` are basis maps, ``product`` is bilinear
    on combinations, and ``unit_key`` is the basis element of the unit.
    """
    unit = LinComb.term(unit_key)
    s_left = extend_linear(lambda k: product(antipode(k[0]), LinComb.term(k[1])))
    s_right = extend_linear(lambda k: product(LinComb.term(k[0]), antipode(k[1])))

    def antipode_law(x, side):
        return side(coproduct(x)), unit if x == unit_key else LinComb.zero()

    return [
        _law(f"{suite}.coassociativity", elements,
             lambda x: _coassociativity_sides(coproduct, coproduct(x))),
        _law(f"{suite}.counit_left", elements,
             lambda x: (LinComb((b, c) for (a, b), c in coproduct(x).terms.items()
                                if a == unit_key), LinComb.term(x))),
        _law(f"{suite}.counit_right", elements,
             lambda x: (LinComb((a, c) for (a, b), c in coproduct(x).terms.items()
                                if b == unit_key), LinComb.term(x))),
        _law(f"{suite}.antipode_left", antipode_elements,
             lambda x: antipode_law(x, s_left)),
        _law(f"{suite}.antipode_right", antipode_elements,
             lambda x: antipode_law(x, s_right)),
    ]
