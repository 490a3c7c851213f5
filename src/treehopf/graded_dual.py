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
compares 0 with 0, so only the cases inside the supports are computed; the
rest are yielded in bulk as an ``int`` n, meaning n cases whose sides are
both the zero coefficient (``cases_on_support``).  An alternate basis action
can be injected in place of the chain multiplication to confirm the check
actually fails on perturbed operators.
"""

from __future__ import annotations

from functools import lru_cache

from .exactlin import LinComb, Tensor, add_to
from .trees import LEAF, Tree, enumerate_trees
from . import grossman_larson as gl
from .grossman_larson import tree_degree
from .operators import m_tree


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
    return support_index((a, m_tree(a)) for a in trees_up_to_degree(bound))


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


def cases_on_support(total: int, hits, case):
    """Yield ``case(i)`` for each index in ``hits``, in increasing order.

    Between them, and after the last, yields the ``int`` count of the
    indices below ``total`` that were skipped: cases whose sides are both
    the zero coefficient, which ``verify.check`` counts without a look.
    """
    done = 0
    for i in sorted(hits):
        if i > done:
            yield i - done
        yield case(i)
        done = i + 1
    if total > done:
        yield total - done


def hochschild_cases(degree_bound: int, m_tree_func=None):
    """Yield every case ``((t, a, b), lhs, rhs)`` of the transpose cocycle.

    For every coordinate functional t* with deg t <= degree_bound and every
    tree pair (a, b) with deg a + deg b <= degree_bound - 1, the sides are

        (M* t*)(a b)  and  (M* t*)(a) eps(b) + sum_i f_i(a) (M* f'_i)(b).

    A case is computed only when one side can be non-zero on the supports
    of the kernels under test: some term of ``a b`` has t in its image,
    b is the unit and t is in the image of a, or the dual coproduct of t*
    has a term ``a (x) r`` with r in the image of b.  Every other case is
    counted in an ``int`` (see ``cases_on_support``).  ``m_tree_func``
    swaps in an alternate basis action for the multiplication operator.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    action = m_tree_func or m_tree
    arguments = trees_up_to_degree(degree_bound - 1)
    # the action depends on its argument alone: one evaluation per tree
    images = {b: action(b) for b in arguments}
    argument_pairs = [(a, b) for a in arguments for b in arguments
                      if tree_degree(a) + tree_degree(b) <= degree_bound - 1]
    position = {p: i for i, p in enumerate(argument_pairs)}
    # the action's images transposed, s -> [(a, coeff of s in M(a))]
    transposed = support_index(images.items())
    products = product_index(degree_bound)
    for t in trees_up_to_degree(degree_bound):
        # (M* t*) on every tree a product below can reach
        transpose = dict(transposed.get(t, ()))
        # the dual coproduct of t*, within deg t, indexed by its left leg
        cop_by_left: dict = {}
        for (a, right), c in products.get(t, ()):
            if a.size + right.size <= t.size + 1:
                cop_by_left.setdefault(a, []).append((right, c))
        hits = {position[(a, LEAF)] for a in transpose}
        for s in transpose:
            hits.update(position[p] for p, _ in products.get(s, ()) if p in position)
        for a, rights in cop_by_left.items():
            for right, _ in rights:
                hits.update(position[(a, b)] for b, _ in transposed.get(right, ())
                            if (a, b) in position)

        def case(i):
            a, b = argument_pairs[i]
            lhs = 0
            for term, c in gl.tree_product(a, b).terms.items():
                lhs += c * transpose.get(term, 0)
            rhs = transpose.get(a, 0) if b is LEAF else 0
            mb = images[b]
            for right, c in cop_by_left.get(a, ()):
                rhs += c * mb.coeff(right)
            return (t, a, b), lhs, rhs

        yield from cases_on_support(len(argument_pairs), hits, case)


def hochschild_check(degree_bound: int, m_tree_func=None) -> dict:
    """Exhaustive transpose-cocycle check up to the degree bound.

    Runs every case of ``hochschild_cases`` under the law name
    ``dual.hochschild`` and returns ``{"checked": n, "violations": [...]}``.
    """
    from .verify import check  # verify imports this module
    return check([("dual.hochschild",
                   hochschild_cases(degree_bound, m_tree_func))])
