"""Degree-truncated dual of the grafting Hopf algebra: the dual-side maps.

A functional is a ``LinComb`` over the tree basis, read in the coordinates
t* = ``LinComb.term(t)``: its coefficient at t is its value on t.  Because
the algebra is graded with finite-dimensional slices, a degree bound makes
every dual-side computation finite and exact.  ``m_dual`` is the transpose
of the chain right-multiplication, which drops degree by one;
``dual_product`` is the convolution product, tabulated on the trees within
its bound.

Every dual-side map reads a support index, built once from the kernel it
transposes, instead of evaluating that kernel against each coordinate:
``product_index`` inverts the grafting product over the pairs within a bound
(t -> the pairs whose product contains t), taking its pairs from
``trees.tuples_up_to_size``, the enumerator every bounded law domain reads;
``m_dual`` reads the ``m_tree`` images transposed once per bound, and
``dual_product`` reads the ``tree_coproduct`` terms inverted once per
bound, keyed by their tensor keys, which a plain ``(left, right)`` tuple
looks up.
``support_index`` is the one inversion behind all three.  Each dual map is
the lift, through ``extend_linear`` or ``extend_bilinear``, of the basis
map that sends a coordinate (or a pair of coordinates) to the combination
its index lists, so no dual map accumulates by hand.  The rows of the
``dual`` suite (``laws.dual``) read the same indexes.  The chain multiplication is read as
``operators.m_tree`` at call time, so a kernel rebound there is the one
every dual-side map transposes.
"""

from functools import lru_cache

from .exactlin import LinComb, extend_bilinear, extend_linear
from .trees import trees_up_to_degree, tuples_up_to_size
from . import grossman_larson as gl
from .grossman_larson import tree_degree
from . import operators as ops


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
    summing within the bound, as ``tuples_up_to_size`` lists them: by the
    two degrees, then by the encodings.  It indexes the dual coproduct of
    every coordinate at once.
    Built once per bound and shared by its readers, which never mutate it.
    """
    return support_index((p, gl.tree_product(*p))
                         for p in tuples_up_to_size(2, degree_bound + 2))


@lru_cache(maxsize=None)
def _m_tree_index(bound: int) -> dict:
    """``m_tree`` of every tree within the bound, transposed: t -> [(a, c)]."""
    return support_index((a, ops.m_tree(a)) for a in trees_up_to_degree(bound))


def m_dual(f: LinComb) -> LinComb:
    """Transpose of the chain right-multiplication; degree drops by one.

    ``m_tree`` raises degree by exactly one, so the trees one degree below
    the top of f's support carry every coefficient.
    """
    top = max((tree_degree(t) for t in f.terms), default=0)
    index = _m_tree_index(max(top - 1, 0))
    return extend_linear(lambda t: LinComb(index.get(t, ())))(f)


@lru_cache(maxsize=None)
def _coproduct_index(bound: int) -> dict:
    """``tree_coproduct`` of every tree within the bound, inverted:
    (left, right) -> [(t, c)]."""
    return support_index((t, gl.tree_coproduct(t)) for t in trees_up_to_degree(bound))


def dual_product(f: LinComb, g: LinComb, degree_bound: int) -> LinComb:
    """Convolution product, tabulated on trees within the bound.

    ``(f g)(t) = sum over coproduct(t) of f(left) g(right)``; commutative
    because the coproduct is cocommutative.  Reads the inverted coproduct,
    so the cost is one lookup per pair of coordinates of f and g.
    """
    index = _coproduct_index(degree_bound)
    return extend_bilinear(
        lambda left, right: LinComb(index.get((left, right), ())))(f, g)
