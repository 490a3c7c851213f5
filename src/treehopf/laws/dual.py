"""The ``dual`` suite: the transpose of the chain multiplication, the
grafting product against the cut coproduct, and the convolution product,
each built as sparse sides (see ``sparse_cases``)."""

from __future__ import annotations

import itertools

from .. import connes_kreimer as ck
from .. import graded_dual as gd
from .. import operators as ops
from ..exactlin import LinComb, add_to, ratio
from ..trees import LEAF, Forest, aut_order, b_minus, trees_up_to_degree
from . import _law, sparse_cases


def hochschild_cases(degree_bound: int, m_tree_func=None):
    """Yield every case ``((t, a, b), lhs, rhs)`` of the transpose cocycle

        (M* f)(a b) = (M* f)(a) eps(b) + sum_i f_i(a) (M* f'_i)(b),

    where ``sum_i f_i (x) f'_i`` is the dual coproduct of f, tabulating
    f(a b) over tree pairs.  For every coordinate functional t* with
    deg t <= degree_bound and every tree pair (a, b) with
    deg a + deg b <= degree_bound - 1, both sides of one t* are built in one
    pass as sparse dicts over the pairs (a, b): the left side from the
    products containing a term of ``M* t*``, the right from ``M* t*`` at
    b = the unit and from the dual coproduct of t* through the transposed
    action.  Every other case is counted in an ``int`` (see
    ``sparse_cases``).  ``m_tree_func`` swaps in an alternate basis action
    for the multiplication operator, to confirm that the check fails on a
    perturbed one.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    action = m_tree_func or ops.m_tree
    arguments = trees_up_to_degree(degree_bound - 1)
    position = {p: i for i, p in enumerate(
        (a, b) for a in arguments for b in arguments
        if a.size + b.size <= degree_bound + 1)}
    # the action's images transposed, s -> [(b, coeff of s in M(b))]; the
    # action depends on its argument alone: one evaluation per tree
    transposed = gd.support_index((b, action(b)) for b in arguments)
    products = gd.product_index(degree_bound)
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


def laws(D: int) -> list:
    basis = trees_up_to_degree(D)
    pairs = [(a, b) for a in basis for b in basis if a.size + b.size <= D + 2]
    bound = min(D, 4)
    small = trees_up_to_degree(bound)

    def transpose_coherence():
        # the images of the chain multiplication, transposed once:
        # t -> [(x, coeff of t in M(x))]
        position = {(x,): i for i, x in enumerate(basis)}
        transposed = gd.support_index((x, ops.m_apply(LinComb.term(x))) for x in basis)
        for t in basis:
            lhs = {(x,): c for x, c in gd.m_dual(LinComb.term(t)).terms.items()}
            rhs = {(x,): c for x, c in transposed.get(t, ())}
            yield from sparse_cases(position, (t,), lhs, rhs)

    def product_pairing():
        # coeff_t(a b) = s(a) s(b) / s(t) * [B-(a) (x) b] cut-coproduct(t),
        # with s the automorphism order: grafting against cutting
        position = {p: i for i, p in enumerate(pairs)}
        legs = {(b_minus(a), Forest((b,))): ((a, b), aut_order(a) * aut_order(b))
                for a, b in pairs}
        # the same pairs as ``pairs``: both degrees within D, and their sum
        products = gd.product_index(D)
        for t in basis:
            sigma, rhs = aut_order(t), {}
            for key, c in ck.tree_coproduct_by_cuts(t).terms.items():
                if key in legs:
                    p, weight = legs[key]
                    rhs[p] = ratio(c * weight, sigma)
            yield from sparse_cases(position, (t,), dict(products.get(t, ())), rhs)

    def perturbed_m(t):
        return LinComb.term(ops.CHAIN2) if t == LEAF else ops.m_tree(t)

    def convolution(t1, t2):
        f1, f2 = LinComb.term(t1), LinComb.term(t2)
        return gd.dual_product(f1, f2, bound), gd.dual_product(f2, f1, bound)

    return [
        ("dual.hochschild", hochschild_cases(D)),
        ("dual.transpose_coherence", transpose_coherence()),
        ("dual.product_pairing", product_pairing()),
        _law("dual.convolution_commutative", itertools.product(small, small),
             convolution),
        _law("dual.mutation_control", [("m(leaf) := chain",)],
             lambda _: (any(case[1] != case[2] for case in
                            hochschild_cases(min(D, 2), perturbed_m)
                            if type(case) is not int), True)),
    ]
