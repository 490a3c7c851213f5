"""Degree-raising operators on the grafting algebra.

``n_apply`` attaches one new leaf at every vertex of every term; on basis
trees it coincides with left multiplication by the two-vertex chain, which
makes it a coderivation.  Its iterates on the unit give the sequence
``x_k(k)``, a divided-power-free polynomial chain: products add indices and
the coproduct of ``x_k(m)`` is binomial.  The basis map ``n_tree`` is
``trees.leaf_growth`` itself, so its memo is the only cache of growth; the
shared combinations are never mutated.

``m_apply`` multiplies every non-unit basis tree by the two-vertex chain on
the right and kills the unit; it is a derivation into the bimodule whose
right action factors through the counit, and its transpose is studied in
``graded_dual``.  Only ``m_tree`` grafts, so it alone imports
``grossman_larson``, when called: the growth chain and the cut algebra,
which reads ``x_k``, load no grafting kernel.
"""

from functools import lru_cache

from .exactlin import LinComb, extend_linear
from .trees import LEAF, Tree, leaf_growth

CHAIN2 = Tree((LEAF,))


def n_tree(t: Tree) -> LinComb:
    return leaf_growth(t)


def n_apply(x: LinComb) -> LinComb:
    """Attach one new leaf at every vertex of every term (degree +1)."""
    return extend_linear(n_tree)(x)


@lru_cache(maxsize=None)
def x_k(k: int) -> LinComb:
    """k-fold leaf growth of the unit; homogeneous of degree k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return LinComb.term(LEAF) if k == 0 else n_apply(x_k(k - 1))


def m_tree(t: Tree) -> LinComb:
    from . import grossman_larson as gl
    if t is LEAF:
        return LinComb.zero()
    return gl.tree_product(t, CHAIN2)


def m_apply(x: LinComb) -> LinComb:
    """Right multiplication by the two-vertex chain, killing the unit."""
    return extend_linear(m_tree)(x)
