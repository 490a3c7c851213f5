"""Degree-raising operators on the grafting algebra.

``n_apply`` attaches one new leaf at every vertex of every term; on basis
trees it coincides with left multiplication by the two-vertex chain, which
makes it a coderivation.  Its iterates on the unit give the sequence
``x_k(k)``, a divided-power-free polynomial chain: products add indices and
the coproduct of ``x_k(m)`` is binomial.  The basis map ``n_tree`` is
cached, like ``gl.tree_product``; the cached combinations are never
mutated.

``m_apply`` multiplies every non-unit basis tree by the two-vertex chain on
the right and kills the unit; it is a derivation into the bimodule whose
right action factors through the counit, and its transpose is studied in
``graded_dual``.
"""

from __future__ import annotations

from functools import lru_cache

from .exactlin import LinComb, extend_linear
from .trees import LEAF, Tree, leaf_growth
from . import grossman_larson as gl

CHAIN2 = Tree((LEAF,))


@lru_cache(maxsize=None)
def n_tree(t: Tree) -> LinComb:
    return LinComb(leaf_growth(t))


def n_apply(x: LinComb) -> LinComb:
    """Attach one new leaf at every vertex of every term (degree +1)."""
    return extend_linear(n_tree)(x)


_xk_cache: list[LinComb] = []


def x_k(k: int) -> LinComb:
    """k-fold leaf growth of the unit; homogeneous of degree k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if not _xk_cache:
        _xk_cache.append(LinComb.term(LEAF))
    while len(_xk_cache) <= k:
        _xk_cache.append(n_apply(_xk_cache[-1]))
    return _xk_cache[k]


def m_tree(t: Tree) -> LinComb:
    if t is LEAF:
        return LinComb.zero()
    return gl.tree_product(t, CHAIN2)


def m_apply(x: LinComb) -> LinComb:
    """Right multiplication by the two-vertex chain, killing the unit."""
    return extend_linear(m_tree)(x)
