"""Lie algebra structure on the span of rooted trees via single grafting.

``star_trees(a, b)`` grafts the whole of a onto each vertex of b, one term
per vertex, so the coefficient mass equals ``size(b)``.  That is the
grafting product's kernel with a single scion, ``graft_forest((a,), b)``:
pre-Lie grafting is the degree-one part of the Grossman-Larson product.
The bracket is the commutator of that operation (which itself is not
associative).

The independent oracle shares no code with the grafting kernel, since cuts
are not grafts: the raw count of one-edge cuts of t with branch t1 and
trunk t2 is the coefficient of t1 (x) t2 in Delta_CK(t).  That counts
severable edges, not attachment sites; double counting isomorphisms of the
cut pair gives ``sites * |Aut(t)| = edges * |Aut(t1)| * |Aut(t2)|``, so the
oracle rescales each raw count accordingly.

Root deletion maps the single-child-root trees of the grafting algebra onto
this Lie algebra; root attachment is its inverse.
"""

from __future__ import annotations

from fractions import Fraction

from . import connes_kreimer as ck
from .exactlin import LinComb, extend_bilinear
from .grossman_larson import graft_forest
from .trees import Forest, Tree, aut_order, enumerate_trees


def star_trees(t1: Tree, t2: Tree) -> LinComb:
    """Graft t1 onto each vertex of t2; one term per vertex of t2.

    The result is ``graft_forest``'s shared memo entry: do not mutate it.
    """
    return graft_forest((t1,), t2)


def star(a: LinComb, b: LinComb) -> LinComb:
    """Single grafting, bilinear over ``star_trees``."""
    return extend_bilinear(star_trees)(a, b)


def star_by_cut_counting(t1: Tree, t2: Tree) -> LinComb:
    """Cut-count oracle for ``star_trees``; must equal it on every basis pair.

    Each tree t with ``size(t1) + size(t2)`` vertices gets its raw count from
    the cut coproduct, rescaled by ``|Aut(t1)| * |Aut(t2)| / |Aut(t)|``.
    """
    key = (Forest((t1,)), Forest((t2,)))
    scale = Fraction(aut_order(t1) * aut_order(t2))
    out: dict = {}
    for t in enumerate_trees(t1.size + t2.size):
        # looked up at call time, so a replaced kernel is the one read
        raw = ck.tree_coproduct_by_cuts(t).coeff(key)
        if raw:
            out[t] = scale * raw / aut_order(t)
    return LinComb(out)


def bracket(a: LinComb, b: LinComb) -> LinComb:
    """Commutator of the grafting operation; antisymmetric, satisfies Jacobi."""
    return star(a, b) - star(b, a)


def phi(x: LinComb) -> LinComb:
    """Root deletion on combinations of single-child-root trees.

    Rejects any support tree whose root has fertility other than one.
    """
    for t in x.terms:
        if t.fertility != 1:
            raise ValueError(
                f"{t.encoding} has root fertility {t.fertility}; expected 1")
    return x.map_keys(lambda t: t.children[0])


def psi(x: LinComb) -> LinComb:
    """Attach a new root over each basis tree; inverse of ``phi``."""
    return x.map_keys(lambda t: Tree((t,)))
