"""The cocommutative Hopf algebra of rooted trees under grafting.

Linear basis: all rooted trees, with the one-vertex tree as the unit.  For
trees a and b, ``tree_product(a, b)`` detaches the root subtrees s_1..s_r of
a and attaches them to vertices of b in all ``size(b) ** r`` ways; isomorphic
results merge, so the total coefficient mass is exactly ``size(b) ** r``.
Equal root subtrees of a are enumerated as multisets of vertices of b, each
with its multinomial weight (the number of ordered assignments that give
it).
``tree_coproduct`` splits the root subtrees over the ``2 ** r`` ordered
subset pairs (one binary choice per child slot, so repeated subtrees create
multiplicities) and regrows a root on each side.

The degree of a tree is its vertex count minus one; the product and
coproduct are degree-additive, and the antipode comes from the connected
graded recursion through the reduced coproduct.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod

from .exactlin import (LinComb, Tensor, add_to, extend_bilinear, extend_linear,
                       rank, tensor)
from .trees import LEAF, Tree, enumerate_trees, graft_many

UNIT = LinComb.term(LEAF)


def tree_degree(t: Tree) -> int:
    return t.size - 1


def _multisets(n: int, m: int):
    """Multisets of m vertices out of ``range(n)``, with multinomial weights.

    The weight m! / prod(mult!) counts the ordered m-tuples that list the
    multiset.
    """
    for sites in itertools.combinations_with_replacement(range(n), m):
        weight = factorial(m)
        for _, same in itertools.groupby(sites):
            weight //= factorial(len(list(same)))
        yield sites, weight


@lru_cache(maxsize=None)
def tree_product(t1: Tree, t2: Tree) -> LinComb:
    """Grafting product of basis trees.

    Sums over every assignment of the root subtrees of t1 to vertices of
    t2; attachments are simultaneous, so vertex indices always refer to the
    original t2.  Equal root subtrees are interchangeable, so each run of
    equal scions picks a multiset of vertices, weighted by the number of
    assignments that give it.
    """
    runs = [[([(v, scion) for v in sites], weight)
             for sites, weight in _multisets(t2.size, len(list(group)))]
            for scion, group in itertools.groupby(t1.children)]
    out: dict = {}
    for choice in itertools.product(*runs):
        placements = [p for sites, _ in choice for p in sites]
        add_to(out, graft_many(t2, placements), prod(w for _, w in choice))
    return LinComb(out)


def product(a: LinComb, b: LinComb) -> LinComb:
    """Grafting product, bilinear over ``tree_product``."""
    return extend_bilinear(tree_product)(a, b)


@lru_cache(maxsize=None)
def tree_coproduct(t: Tree) -> LinComb:
    """Subset-split coproduct of a basis tree; tensor legs are trees."""
    subtrees = t.children
    r = len(subtrees)
    out: dict = {}
    for mask in range(1 << r):
        left = Tree(subtrees[i] for i in range(r) if mask >> i & 1)
        right = Tree(subtrees[i] for i in range(r) if not mask >> i & 1)
        add_to(out, Tensor(left, right), 1)
    return LinComb(out)


def coproduct(x: LinComb) -> LinComb:
    """Subset-split coproduct, linear over ``tree_coproduct``."""
    return extend_linear(tree_coproduct)(x)


def counit(x: LinComb):
    """Coefficient of the one-vertex tree."""
    return x.coeff(LEAF)


@lru_cache(maxsize=None)
def tree_antipode(t: Tree) -> LinComb:
    """Connected graded recursion through the reduced coproduct."""
    if t == LEAF:
        return UNIT
    reduced = LinComb((key, c) for key, c in tree_coproduct(t).terms.items()
                      if key.left != LEAF and key.right != LEAF)
    step = extend_linear(
        lambda key: product(tree_antipode(key.left), LinComb.term(key.right)))
    return LinComb.term(t, -1) - step(reduced)


def antipode(x: LinComb) -> LinComb:
    """Antipode, linear over ``tree_antipode``."""
    return extend_linear(tree_antipode)(x)


def primitive_basis(n: int) -> list[Tree]:
    """All trees of size n + 1 whose root has exactly one child."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return [Tree((t,)) for t in enumerate_trees(n)]


def primitive_space_dimension(n: int) -> int:
    """Dimension of the primitives in degree n, by exact rank computation.

    Solves ``coproduct(x) = unit (x) x + x (x) unit`` on the degree-n slice;
    an independent check of ``primitive_basis``.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    basis = enumerate_trees(n + 1)
    unit = LinComb.term(LEAF)
    columns = []
    for t in basis:
        elem = LinComb.term(t)
        columns.append(tree_coproduct(t) - tensor(unit, elem) - tensor(elem, unit))
    return len(basis) - rank(columns)
