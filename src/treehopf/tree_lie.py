"""Lie algebra structure on the span of rooted trees via single grafting.

``star_trees(a, b)`` grafts the whole of a onto each vertex of b, one term
per vertex, so the coefficient mass equals ``size(b)``.  That is the
grafting product's kernel with a single scion, ``graft_forest((a,), b)``:
pre-Lie grafting is the degree-one part of the Grossman-Larson product.
The bracket is the commutator of that operation (which itself is not
associative).

Its independent oracle, ``connes_kreimer.star_by_cut_counting``, counts
one-edge cuts instead of grafts and lives beside the cut coproduct it reads.

Root deletion maps the single-child-root trees of the grafting algebra onto
this Lie algebra; root attachment is its inverse.
"""

from .exactlin import LinComb, extend_bilinear
from .grossman_larson import graft_forest
from .trees import Tree


def star_trees(t1: Tree, t2: Tree) -> LinComb:
    """Graft t1 onto each vertex of t2; one term per vertex of t2.

    The result is ``graft_forest``'s shared memo entry: do not mutate it.
    """
    return graft_forest((t1,), t2)


def star(a: LinComb, b: LinComb) -> LinComb:
    """Single grafting, bilinear over ``star_trees``."""
    return extend_bilinear(star_trees)(a, b)


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
