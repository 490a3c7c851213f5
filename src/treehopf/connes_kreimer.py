"""The commutative Hopf algebra of rooted forests with the cut coproduct.

Elements are rational combinations of forests; a forest stands for the
product of its trees and the empty forest is the unit 1.  On a single tree

    coproduct(t) = 1 (x) t  +  t (x) 1  +  sum over admissible cuts c
                                           of branch(c) (x) trunk(c)

and on a monomial the coproduct acts factor by factor, since it is an
algebra map.  A second, recursive form of the tree coproduct (peel the
root, coproduct the child forest, regrow the root on the right leg) is kept
as an independent cross-check.  The antipode follows the cut recursion,
read from the terms of the cut coproduct, and extends multiplicatively over
forest factors.

Leaf growth at every vertex is a weight +1 derivation; its iterates starting
from the one-vertex tree give the chain ``delta(1), delta(2), ...`` whose
span closure under the coproduct is checked degree by degree with exact
membership solves.  The grafting side grows the same trees, so only one
growth chain is built: ``delta(k)`` is ``operators.x_k(k - 1)`` with each
tree read as a one-tree forest.  ``add_root`` (a basis forest goes to the
tree grown over it) is the Hochschild 1-cocycle partner of the coproduct.

The cut coproduct also gives the tree Lie algebra's grafting operation an
oracle that shares no code with the grafting kernel, since cuts are not
grafts: the raw count of one-edge cuts of t with branch t1 and trunk t2 is
the coefficient of t1 (x) t2 in Delta_CK(t).  That counts severable edges,
not attachment sites; double counting isomorphisms of the cut pair gives
``sites * |Aut(t)| = edges * |Aut(t1)| * |Aut(t2)|``, so
``star_by_cut_counting`` rescales each raw count accordingly.
"""

from __future__ import annotations

from functools import lru_cache

from . import operators as ops
from .exactlin import (LinComb, add_to, extend_linear, ratio, solve_membership,
                       tensor, tensor_key)
from .trees import (EMPTY_FOREST, Forest, Tree, admissible_cuts, aut_order,
                    b_plus, enumerate_trees, leaf_growth)

UNIT = LinComb.term(EMPTY_FOREST)


def tree_monomial(t: Tree) -> LinComb:
    """The forest monomial of a single tree, as an element."""
    return LinComb.term(Forest((t,)))


def product(a: LinComb, b: LinComb) -> LinComb:
    """Commutative product: multiset union on basis forests, bilinear."""
    out: dict = {}
    for fa, ca in a.terms.items():
        for fb, cb in b.terms.items():
            key = fa.union(fb)
            out[key] = out.get(key, 0) + ca * cb
    return LinComb(out)


def multiply_tensors(x: LinComb, y: LinComb) -> LinComb:
    """Leg-by-leg forest product on tensor combinations."""
    out: dict = {}
    for (xl, xr), cx in x.terms.items():
        for (yl, yr), cy in y.terms.items():
            key = tensor_key(xl.union(yl), xr.union(yr))
            out[key] = out.get(key, 0) + cx * cy
    return LinComb(out)


@lru_cache(maxsize=None)
def tree_coproduct_by_cuts(t: Tree) -> LinComb:
    """All-cuts coproduct of a single tree; tensor legs are forests."""
    single = Forest((t,))
    out = {tensor_key(EMPTY_FOREST, single): 1, tensor_key(single, EMPTY_FOREST): 1}
    for cut in admissible_cuts(t):
        add_to(out, tensor_key(cut.branch, Forest((cut.trunk,))), 1)
    return LinComb(out)


@lru_cache(maxsize=None)
def tree_coproduct_recursive(t: Tree) -> LinComb:
    """Root-recursion form of the tree coproduct; must match the cut form."""
    acc = LinComb.term(tensor_key(EMPTY_FOREST, EMPTY_FOREST))
    for child in t.children:
        acc = multiply_tensors(acc, tree_coproduct_recursive(child))
    return LinComb.term(tensor_key(Forest((t,)), EMPTY_FOREST)) + acc.map_keys(
        lambda key: tensor_key(key[0], Forest((b_plus(key[1]),))))


def star_by_cut_counting(t1: Tree, t2: Tree) -> LinComb:
    """Cut-count oracle for ``tree_lie.star_trees``; must equal it on every
    basis pair.

    Each tree t with ``size(t1) + size(t2)`` vertices gets its raw count from
    the cut coproduct, rescaled by ``|Aut(t1)| * |Aut(t2)| / |Aut(t)|``.
    """
    key = (Forest((t1,)), Forest((t2,)))
    scale = aut_order(t1) * aut_order(t2)
    out: dict = {}
    for t in enumerate_trees(t1.size + t2.size):
        # a module global read at call time: a replaced kernel is the one read
        raw = tree_coproduct_by_cuts(t).coeff(key)
        if raw:
            out[t] = ratio(scale * raw, aut_order(t))
    return LinComb(out)


@lru_cache(maxsize=None)
def forest_coproduct(f: Forest) -> LinComb:
    """Coproduct of a basis forest: product of its tree coproducts.

    Peels the first tree, so every suffix forest is memoized on the way
    and a one-tree forest is its tree's coproduct, with no product by 1.
    """
    items = f.items
    if not items:
        return LinComb.term(tensor_key(EMPTY_FOREST, EMPTY_FOREST))
    if len(items) == 1:
        return tree_coproduct_by_cuts(items[0])
    return multiply_tensors(forest_coproduct(Forest(items[1:])),
                            tree_coproduct_by_cuts(items[0]))


def coproduct(x: LinComb) -> LinComb:
    """Cut coproduct, linear over ``forest_coproduct``."""
    return extend_linear(forest_coproduct)(x)


def counit(x: LinComb):
    """Coefficient of the empty forest."""
    return x.coeff(EMPTY_FOREST)


@lru_cache(maxsize=None)
def tree_antipode(t: Tree) -> LinComb:
    """``S(t) = -t - sum of c S(branch) trunk`` over the terms
    ``c branch (x) trunk`` of the cut coproduct with neither leg 1."""
    out: dict = {Forest((t,)): -1}
    for (branch, trunk), c in tree_coproduct_by_cuts(t).terms.items():
        if branch is EMPTY_FOREST or trunk is EMPTY_FOREST:
            continue
        for f, d in forest_antipode(branch).terms.items():
            key = f.union(trunk)
            out[key] = out.get(key, 0) - c * d
    return LinComb(out)


@lru_cache(maxsize=None)
def forest_antipode(f: Forest) -> LinComb:
    """Antipode of a basis forest; multiplicative over the tree factors,
    peeled one tree at a time like ``forest_coproduct``."""
    items = f.items
    if not items:
        return UNIT
    if len(items) == 1:
        return tree_antipode(items[0])
    return product(forest_antipode(Forest(items[1:])), tree_antipode(items[0]))


def antipode(x: LinComb) -> LinComb:
    """Antipode, linear over ``forest_antipode``."""
    return extend_linear(forest_antipode)(x)


@lru_cache(maxsize=None)
def forest_growth(f: Forest) -> LinComb:
    """Leaf growth on a basis forest, expanded by the Leibniz rule."""
    out: dict = {}
    for i, t in enumerate(f.items):
        rest = f.items[:i] + f.items[i + 1:]
        for grown, k in leaf_growth(t).terms.items():
            add_to(out, Forest(rest + (grown,)), k)
    return LinComb(out)


def natural_growth(x: LinComb) -> LinComb:
    """Attach one new leaf at every vertex; a derivation, weight +1."""
    return extend_linear(forest_growth)(x)


def delta(k: int) -> LinComb:
    """The k-th growth iterate of the one-vertex tree (k >= 1).

    An integer combination of trees with exactly k vertices: the grafting
    chain ``x_k(k - 1)`` with each tree read as a one-tree forest.
    """
    if k < 1:
        raise ValueError("delta is defined for k >= 1")
    return ops.x_k(k - 1).map_keys(lambda t: Forest((t,)))


def add_root(x: LinComb) -> LinComb:
    """Send each basis forest to the tree grown over it, linearly.

    Satisfies the Hochschild 1-cocycle identity
    ``coproduct(add_root(x)) = add_root(x) (x) 1 + (id (x) add_root)(coproduct(x))``.
    """
    return LinComb((Forest((b_plus(f),)), c) for f, c in x.terms.items())


def partitions(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n with descending parts, largest-first order.

    A partition is a first part, then a partition of the rest into parts no
    larger than it.
    """

    def bounded(remaining: int, largest: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        return [(part,) + rest for part in range(min(remaining, largest), 0, -1)
                for rest in bounded(remaining - part, part)]

    return bounded(n, n)


def delta_monomial(parts) -> LinComb:
    """Product of delta(k) over the parts; the empty partition is the unit."""
    out = UNIT
    for k in parts:
        out = product(out, delta(k))
    return out


def delta_membership(x: LinComb, weight: int):
    """Coordinates of x over the delta-monomial basis at the given weight.

    Returns ``{partition: coefficient}`` or None when x is outside the span.
    The input must be homogeneous of the given weight.
    """
    if weight < 1:
        raise ValueError("weight must be >= 1")
    for f in x.terms:
        if f.weight != weight:
            raise ValueError("element is not homogeneous of the given weight")
    return _coordinates(x, {p: delta_monomial(p) for p in partitions(weight)})


def delta_coproduct_membership(k: int):
    """Coordinates of coproduct(delta(k)) over delta-monomial tensor pairs.

    Generators are all ``delta_monomial(p) (x) delta_monomial(q)`` with the
    weights of p and q summing to k; returns ``{(p, q): coefficient}`` or
    None when the solve fails.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _coordinates(coproduct(delta(k)), {
        (p, q): tensor(delta_monomial(p), delta_monomial(q))
        for left_weight in range(k + 1) for p in partitions(left_weight)
        for q in partitions(k - left_weight)})


def _coordinates(target: LinComb, generators: dict):
    """``{label: coefficient}`` of target over ``{label: generator}``, or
    None when target is outside their span."""
    coords = solve_membership(target, generators.values())
    return None if coords is None else dict(zip(generators, coords))
