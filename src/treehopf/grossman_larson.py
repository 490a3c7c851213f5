"""The cocommutative Hopf algebra of rooted trees under grafting.

Linear basis: all rooted trees, with the one-vertex tree as the unit.  For
trees a and b, ``tree_product(a, b)`` detaches the root subtrees s_1..s_r of
a and attaches them to vertices of b in all ``size(b) ** r`` ways; isomorphic
results merge, so the total coefficient mass is exactly ``size(b) ** r``.
The assignments are not listed one by one: ``graft_forest`` recurses over
the host, splitting the scions between the first child subtree of b and the
rest of b, and its memo shares each subtree's grafted results across every
split that reaches it.  The tests check it against the product by multisets
of host vertices, one ``graft_many`` per choice.
``tree_coproduct`` splits the root subtrees between its two legs and regrows
a root on each side.  Both read one multiset split, ``_splits``: a run of n
equal items splits as k + (n - k) in C(n, k) ways, so a tree whose runs have
lengths m_1, m_2, ... has prod (m_i + 1) coproduct terms with mass ``2 ** r``,
and the tests check it against the ``2 ** r`` ordered subset pairs.

The degree of a tree is its vertex count minus one; the product and
coproduct are degree-additive, and the antipode comes from the connected
graded recursion through the reduced coproduct.
"""

import itertools
from functools import lru_cache
from math import comb

from .exactlin import (LinComb, extend_bilinear, extend_linear, rank, tensor,
                       tensor_key)
from .trees import LEAF, Tree, _tree, enumerate_trees, runs, with_child

UNIT = LinComb.term(LEAF)


def tree_degree(t: Tree) -> int:
    return t.size - 1


def _splits(items: tuple):
    """Each split of a sorted tuple into two sorted sub-multisets, as
    ``(count, left, right)``: a run of n equal items splits as k + (n - k)
    in C(n, k) ways, so the counts sum to ``2 ** len(items)``."""
    split = list(runs(items))
    for taken in itertools.product(*(range(n + 1) for _, n in split)):
        count, left, right = 1, (), ()
        for (item, n), k in zip(split, taken):
            count *= comb(n, k)
            left += (item,) * k
            right += (item,) * (n - k)
        yield count, left, right


@lru_cache(maxsize=None)
def graft_forest(scions: tuple, host: Tree) -> LinComb:
    """Every way to attach each scion to some vertex of the host.

    ``scions`` is a tuple of trees in canonical (encoding) order.  Returns
    the combination of grown trees, where the coefficient of a tree is how
    many of the ``host.size ** len(scions)`` assignments of scions to host
    vertices give it.

    For ``host = B+(c1, ..., cm)`` the scions split, by ``_splits``, into
    those that land in c1 and those that land in the rest of the host,
    ``B+(c2, ..., cm)``, root included; equal scions are interchangeable.
    Both parts recurse, and each pair of results joins by hanging the grown
    c1 back under the grown rest.  Unrolled, this deals the scions over c1,
    ..., cm and the root with weight prod C(n, k) per run; the memo shares
    each child's results across every deal that reaches it, and isomorphic
    partial results merge before the next child joins.  This memo is the
    only cache of the product; the returned combination is shared and must
    not be mutated.
    """
    if not scions:
        return LinComb.term(host)
    if host.size == 1:
        return LinComb.term(_tree(scions))
    first, rest = host.children[0], _tree(host.children[1:])
    out: dict = {}
    for weight, down, up in _splits(scions):
        grown_terms = graft_forest(down, first).terms.items()
        for base, d in graft_forest(up, rest).terms.items():
            kids, scale = base.children, weight * d
            for grown, c in grown_terms:
                tree = with_child(kids, grown)
                out[tree] = out.get(tree, 0) + scale * c
    return LinComb(out)


def tree_product(t1: Tree, t2: Tree) -> LinComb:
    """Grafting product of basis trees.

    Sums over every assignment of the root subtrees of t1 to vertices of
    t2: the memoized ``graft_forest`` value itself, not a copy.
    """
    return graft_forest(t1.children, t2)


def product(a: LinComb, b: LinComb) -> LinComb:
    """Grafting product, bilinear over ``tree_product``."""
    return extend_bilinear(tree_product)(a, b)


@lru_cache(maxsize=None)
def tree_coproduct(t: Tree) -> LinComb:
    """Split coproduct of a basis tree; tensor legs are trees.

    Each split of the root subtrees between the legs, by ``_splits``, is one
    term, counted by how many of the ``2 ** r`` subsets of child slots give
    it.
    """
    return LinComb({tensor_key(_tree(left), _tree(right)): count
                    for count, left, right in _splits(t.children)})


def coproduct(x: LinComb) -> LinComb:
    """Subset-split coproduct, linear over ``tree_coproduct``."""
    return extend_linear(tree_coproduct)(x)


def counit(x: LinComb):
    """Coefficient of the one-vertex tree."""
    return x.coeff(LEAF)


@lru_cache(maxsize=None)
def tree_antipode(t: Tree) -> LinComb:
    """Connected graded recursion through the reduced coproduct."""
    if t is LEAF:
        return UNIT
    # the terms with neither leg the unit
    reduced = LinComb((key, c) for key, c in tree_coproduct(t).terms.items()
                      if LEAF not in key)
    step = extend_linear(
        lambda key: product(tree_antipode(key[0]), LinComb.term(key[1])))
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
    columns = []
    for t in basis:
        elem = LinComb.term(t)
        columns.append(tree_coproduct(t) - tensor(UNIT, elem) - tensor(elem, UNIT))
    return len(basis) - rank(columns)
