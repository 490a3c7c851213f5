"""Degree-truncated dual of the grafting Hopf algebra.

A functional is a finite rational combination of tree coordinates t*, with a
declared degree bound on its support; ``pair`` evaluates it against an
element through the tree basis.  Because the algebra is graded with
finite-dimensional slices, fixing a degree bound makes every dual-side
computation finite and exact: the dual coproduct of f tabulates f(a * b)
over tree pairs within the bound, and the transpose of the chain
right-multiplication operator drops degree by one.

Every dual-side map reads a support index, built once from the kernel it
transposes, instead of evaluating that kernel against each coordinate:
``product_index`` inverts the grafting product over the pairs within a bound
(t -> the pairs whose product contains t), ``m_dual`` reads the ``m_tree``
images transposed once per bound, and ``dual_product`` reads the
``tree_coproduct`` terms inverted once per bound, keyed by their two legs.
``support_index`` is the one inversion behind all three.

``hochschild_cases`` lists, and ``hochschild_check`` checks, every case of
the cocycle identity that this transpose satisfies

    (M* f)(a b) = (M* f)(a) eps(b) + sum_i f_i(a) (M* f'_i)(b)

where ``sum_i f_i (x) f'_i`` is the dual coproduct of f.  Almost every case
compares 0 with 0, so for each coordinate t* the two sides are built as
sparse dicts over the tree pairs, read from the product index and the
transposed action, and ``sparse_cases`` yields the pairs that either side
holds as cases and the rest in bulk as an ``int`` n, meaning n cases whose
sides are both the zero coefficient; ``verify``'s sparse ``dual`` rows use
it the same way.  An alternate basis action can be injected in place of the
chain multiplication to confirm the check actually fails on perturbed
operators.  The chain multiplication is read as ``operators.m_tree`` at call
time, so a kernel rebound there is the one every dual-side map transposes.
"""

from __future__ import annotations

from functools import lru_cache

from .exactlin import LinComb, Tensor, add_to
from .trees import LEAF, Tree, enumerate_trees
from . import grossman_larson as gl
from .grossman_larson import tree_degree
from . import operators as ops


def trees_up_to_degree(bound: int) -> list[Tree]:
    return [t for d in range(bound + 1) for t in enumerate_trees(d + 1)]


class DualFunctional:
    """Functional on the grafting algebra, supported in bounded degree."""

    __slots__ = ("coeffs", "max_degree")

    def __init__(self, coeffs=None, max_degree: int | None = None):
        clean = LinComb(dict(coeffs or {})).terms
        top = max((tree_degree(t) for t in clean), default=0)
        if max_degree is None:
            max_degree = top
        if top > max_degree:
            raise ValueError(
                f"support reaches degree {top}, above the declared bound {max_degree}")
        self.coeffs = clean
        self.max_degree = max_degree

    def __eq__(self, other):
        return isinstance(other, DualFunctional) and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(f"{t.encoding!r}: {c}" for t, c in
                         sorted(self.coeffs.items(), key=lambda kv: kv[0].encoding))
        return f"DualFunctional({{{body}}}, max_degree={self.max_degree})"


def dual_basis(t: Tree, max_degree: int | None = None) -> DualFunctional:
    """The coordinate functional t*."""
    return DualFunctional({t: 1}, max_degree)


def counit_functional(max_degree: int = 0) -> DualFunctional:
    """The counit as a functional; the coordinate of the one-vertex tree."""
    return dual_basis(LEAF, max_degree)


def pair(f: DualFunctional, x: LinComb):
    """Evaluate the functional on an element."""
    total = 0
    for t, c in x.terms.items():
        total += f.coeffs.get(t, 0) * c
    return total


def support_index(images) -> dict:
    """Invert ``(x, combination)`` pairs to ``{term: [(x, coeff), ...]}``.

    Each term's list keeps the order of the pairs, so reading one term's
    list visits its preimages in the order the pairs were given.
    """
    index: dict = {}
    for x, image in images:
        for term, c in image.terms.items():
            index.setdefault(term, []).append((x, c))
    return index


@lru_cache(maxsize=None)
def product_index(degree_bound: int) -> dict:
    """``{t: [((a, b), c), ...]}``: c is the coefficient of t in ``a * b``.

    One pass over ``gl.tree_product`` on every tree pair with degrees
    summing within the bound, ordered by the two degrees, then by the
    encodings; it indexes the dual coproduct of every coordinate at once.
    Built once per bound and shared by its readers, which never mutate it.
    """
    pairs = ((a, b) for da in range(degree_bound + 1)
             for db in range(degree_bound - da + 1)
             for a in enumerate_trees(da + 1) for b in enumerate_trees(db + 1))
    return support_index(((a, b), gl.tree_product(a, b)) for a, b in pairs)


def dual_coproduct(f: DualFunctional, degree_bound: int) -> LinComb:
    """Tabulate f(a * b) over tree pairs with degrees summing within the bound.

    The result, read as ``sum_i f_i (x) f'_i`` on coordinate functionals,
    satisfies ``f(x y) = sum_i f_i(x) f'_i(y)`` for elements supported
    within the bound.
    """
    index = product_index(degree_bound)
    out: dict = {}
    for t, ft in f.coeffs.items():
        for (a, b), c in index.get(t, ()):
            add_to(out, Tensor(a, b), ft * c)
    return LinComb(out)


@lru_cache(maxsize=None)
def _m_tree_index(bound: int) -> dict:
    """``m_tree`` of every tree within the bound, transposed: t -> [(a, c)]."""
    return support_index((a, ops.m_tree(a)) for a in trees_up_to_degree(bound))


def m_dual(f: DualFunctional) -> DualFunctional:
    """Transpose of the chain right-multiplication; degree drops by one."""
    bound = max(f.max_degree - 1, 0)
    index = _m_tree_index(bound)
    coeffs: dict = {}
    for t, ft in f.coeffs.items():
        for a, c in index.get(t, ()):
            add_to(coeffs, a, ft * c)
    return DualFunctional(coeffs, bound)


@lru_cache(maxsize=None)
def _coproduct_index(bound: int) -> dict:
    """``tree_coproduct`` of every tree within the bound, inverted:
    (left, right) -> [(t, c)].  Keyed by the pair of legs, not by a
    ``Tensor``, so a lookup that misses never interns a new tensor."""
    index = support_index((t, gl.tree_coproduct(t)) for t in trees_up_to_degree(bound))
    return {(key.left, key.right): entries for key, entries in index.items()}


def dual_product(f: DualFunctional, g: DualFunctional,
                 degree_bound: int) -> DualFunctional:
    """Convolution product, tabulated on trees within the bound.

    ``(f g)(t) = sum over coproduct(t) of f(left) g(right)``; commutative
    because the coproduct is cocommutative.  Reads the inverted coproduct,
    so the cost is one lookup per pair of coordinates of f and g.
    """
    index = _coproduct_index(degree_bound)
    coeffs: dict = {}
    for left, fl in f.coeffs.items():
        for right, gr in g.coeffs.items():
            for t, c in index.get((left, right), ()):
                add_to(coeffs, t, c * fl * gr)
    return DualFunctional(coeffs, degree_bound)


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


def hochschild_cases(degree_bound: int, m_tree_func=None):
    """Yield every case ``((t, a, b), lhs, rhs)`` of the transpose cocycle.

    For every coordinate functional t* with deg t <= degree_bound and every
    tree pair (a, b) with deg a + deg b <= degree_bound - 1, the sides are

        (M* t*)(a b)  and  (M* t*)(a) eps(b) + sum_i f_i(a) (M* f'_i)(b).

    Both sides of one t* are built in one pass as sparse dicts over the
    pairs (a, b): the left side from the products containing a term of
    ``M* t*``, the right from ``M* t*`` at b = the unit and from the dual
    coproduct of t* through the transposed action.  Every other case is
    counted in an ``int`` (see ``sparse_cases``).  ``m_tree_func`` swaps in
    an alternate basis action for the multiplication operator.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    action = m_tree_func or ops.m_tree
    arguments = trees_up_to_degree(degree_bound - 1)
    position = {p: i for i, p in enumerate(
        (a, b) for a in arguments for b in arguments
        if tree_degree(a) + tree_degree(b) <= degree_bound - 1)}
    # the action's images transposed, s -> [(b, coeff of s in M(b))]; the
    # action depends on its argument alone: one evaluation per tree
    transposed = support_index((b, action(b)) for b in arguments)
    products = product_index(degree_bound)
    for t in trees_up_to_degree(degree_bound):
        lhs: dict = {}
        rhs: dict = {}
        for a, v in transposed.get(t, ()):
            add_to(rhs, (a, LEAF), v)
            for p, c in products.get(a, ()):
                add_to(lhs, p, c * v)
        # the dual coproduct of t*, within deg t
        for (a, right), c in products.get(t, ()):
            if a.size + right.size <= t.size + 1:
                for b, d in transposed.get(right, ()):
                    add_to(rhs, (a, b), c * d)
        yield from sparse_cases(position, (t,), lhs, rhs)


def hochschild_check(degree_bound: int, m_tree_func=None) -> dict:
    """Exhaustive transpose-cocycle check up to the degree bound.

    Runs every case of ``hochschild_cases`` under the law name
    ``dual.hochschild`` and returns ``{"checked": n, "violations": [...]}``.
    """
    from .verify import check  # verify imports this module
    return check([("dual.hochschild",
                   hochschild_cases(degree_bound, m_tree_func))])
